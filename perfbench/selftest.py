"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py

The minimal-length runs take about three minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import CHECK, MEMORY, OK, TIMEOUT  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def sk():
    return run.load_program()


def test_benchmark_json_matches_metric_definitions():
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == list(metrics.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [
    ("mc-serial", 0), ("kernel-sweep", 0), ("band-completion", 0),
    ("band-completion", 1), ("mc-serial", 1),
])
def test_minimal_run_emits_every_metric(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_factor_is_a_check_failure(sk, monkeypatch):
    sweep = workloads.KernelSweep(families=("TC2",), betas=(0.8,), dims=(50,))
    sweep.setup(sk, 0)
    good = sk.kernels.inverse_cholesky

    def wrong(spec, dim):
        f = good(spec, dim)
        return sk.kernels.BandedFactor(f.dim, f.bandwidth, f.bands * 1.01, f.logdet_K)

    monkeypatch.setattr(sk.kernels, "inverse_cholesky", wrong)
    ops, _ = sweep.unit()
    outcome = {op.kind.split()[0]: op.outcome for op in ops}
    assert outcome["factor"] == CHECK
    assert outcome["build"] == OK
    assert sweep.verify()
    m = metrics.per_layer(sweep, [], sk.errors, [ops], [1.0], 0.0, [],
                          {"blas_threads_worker": {}})
    assert m["kernels.fail.check"] > 0


def test_cap_hit_is_counted_not_fatal(sk):
    runner = workloads.CappedRunner(sk.errors, 0.1)
    t0 = time.perf_counter()
    outcome, seconds, _, _ = runner.run(lambda: time.sleep(5))
    assert outcome == TIMEOUT and seconds < 2 and time.perf_counter() - t0 < 2
    assert runner.run(lambda: 1)[0] == OK
    with workloads.AddressSpaceCap(64 * 2 ** 20):
        outcome, _, _, _ = runner.run(lambda: np.ones(2 ** 28))
    assert outcome == MEMORY
    assert runner.run(lambda: np.ones(2 ** 20).sum())[0] == OK


def test_runaway_kernel_is_capped_and_the_sweep_goes_on(sk):
    sweep = workloads.KernelSweep(families=("DC6", "TC2"), betas=(0.999,), dims=(50,),
                                  cap_s=0.3)
    sweep.setup(sk, 0)
    ops, _ = sweep.unit()
    dc6 = [op for op in ops if op.kind.split()[1] == "DC6"]
    tc2 = [op for op in ops if op.kind.split()[1] == "TC2"]
    assert dc6 and all(op.outcome in (TIMEOUT, MEMORY) for op in dc6)
    assert tc2 and all(op.outcome == OK for op in tc2)
    assert not sweep.verify()
