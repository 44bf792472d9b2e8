"""Start-up cost: what importing the library loads.

Importing every stablekern module loads numpy, ``scipy.linalg`` and
``scipy.special`` only, and a first kernel and a first fit load nothing
more: ``scipy.signal`` (which pulls in ``scipy.stats``) is not needed, and
the tuner's BFGS is the library's own, not ``scipy.optimize``.  The test
suite's mpmath reference, ``oracle.py``, imports without mpmath.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import stablekern

_HEAVY = ("scipy.signal", "scipy.stats", "scipy.optimize")

_CODE = f"""
import json, sys
import numpy as np
from stablekern import cli, errors, estimator, kernels, maxent, simulation, spectral

def loaded():
    return [name for name in {_HEAVY!r} if name in sys.modules]

seen = {{"import": loaded()}}
cli.main(["kernel", "--family", "DC6", "--beta", "0.9", "--alpha", "0.5", "--dim", "5",
          "--cholesky"])
seen["kernel"] = loaded()
rng = np.random.default_rng(0)
u = rng.standard_normal(120)
y = np.convolve(u, 0.8 ** np.arange(10))[:120] + 0.1 * rng.standard_normal(120)
estimator.fit_hyperparameters(estimator.Dataset(u, y), "TC", T=10)
seen["fit"] = loaded()
print(json.dumps(seen))
"""


def test_library_imports_and_a_first_fit_stop_at_the_floor():
    src = str(Path(stablekern.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _CODE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.strip().splitlines()[-1])
    assert seen["import"] == [] and seen["kernel"] == [] and seen["fit"] == []


_NO_MPMATH = """
import sys
sys.modules["mpmath"] = None
import pytest
import oracle
from stablekern.kernels import KernelSpec
try:
    oracle.kernel(KernelSpec("TC", beta=0.5), 3)
except pytest.skip.Exception:
    print("skipped")
"""


def test_oracle_imports_without_mpmath():
    # mpmath is imported inside the oracle's functions, so every test module
    # that imports it still collects without mpmath, and each call skips
    src = str(Path(stablekern.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    done = subprocess.run([sys.executable, "-c", _NO_MPMATH], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests])),
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "skipped"
