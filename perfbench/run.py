"""stablekern benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload mc-serial --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the same checkout; nothing is
installed or built.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it repeat each metric with its unit, the environment record and
any failed check.  With ``--trace 0`` the metrics are the end-to-end ones,
measured untraced.  With ``--trace 1`` the workload runs twice, untraced and
then traced, and the metrics are the per-layer ones plus the tracing
overhead; the spans are written to ``perfbench/out/``.

Exit status: 0 when every check passed, 1 when a check failed (the result
is still printed), 2 when the program or the arguments are missing.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402

_LOAD_AT_START = os.getloadavg()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups repeated in fresh processes; setup_s is the median of these and
#: this process's own.
SETUP_PROBES = 2
OUT_DIR = HERE / "out"


def load_program():
    """Import every stablekern module from ``src/`` of this checkout."""
    src = ROOT / "src"
    if not (src / "stablekern" / "__init__.py").is_file():
        print(f"error: no stablekern sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import stablekern
    from stablekern import cli, errors, estimator, kernels, maxent, simulation, spectral  # noqa: F401

    if Path(stablekern.__file__).resolve().parent != (src / "stablekern").resolve():
        print(f"error: stablekern imported from {stablekern.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return SimpleNamespace(errors=errors, estimator=estimator, kernels=kernels,
                           maxent=maxent, simulation=simulation, spectral=spectral)


def measure(wl, seconds: float):
    """``seconds`` worth of whole units, counted from the workload's nominal
    unit time (at least one unit); returns the ops and the timed wall of
    each unit.  The count depends only on ``seconds``, never on how fast
    the units ran, so every run of a workload does the same work and a
    faster program finishes sooner instead of doing more."""
    ops, walls = [], []
    for _ in range(max(1, round(seconds / wl.nominal_unit_s))):
        unit_ops, unit_wall = wl.unit()
        ops.append(unit_ops)
        walls.append(unit_wall)
    return ops, walls


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setups(workload: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for setup_s)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import envinfo
    import metrics
    from tracing import Tracer
    from workloads import OK, TRACED, WORKLOADS

    args = parse_args(argv)
    sk = load_program()
    wl = WORKLOADS[args.workload]()
    wl.setup(sk, args.seed)
    setup_s = time.perf_counter() - _T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    units, walls = measure(wl, args.seconds)
    peak = peak_rss_mb()
    traced_units, traced_walls, tracer = [], [], None
    if args.trace:
        wl.restart()
        wl.phase = TRACED
        tracer = Tracer()
        tracer.install()
        try:
            traced_units, traced_walls = measure(wl, args.seconds)
        finally:
            tracer.uninstall()
        if hasattr(wl, "pool_phase"):
            wl.pool_phase()
    failures = wl.verify()
    env = envinfo.collect(_LOAD_AT_START)
    print("env " + json.dumps(env, sort_keys=True))
    e2e = metrics.end_to_end(units, walls, 0.0, peak)
    ops = [op for unit in units for op in unit]
    _, _, tail_pct = metrics.unit_latency(units)
    n_ok = sum(op.outcome == OK for op in ops)
    print(f"# {n_ok} ok ops of {len(ops)} in {len(units)} units, {sum(walls):.3f} s timed; "
          f"op_s_tail is percentile {tail_pct:.1f} of a unit")

    if args.trace:
        values = metrics.per_layer(wl, tracer.spans, sk.errors, traced_units, traced_walls,
                                   e2e["ops_per_s"], tracer.absent, env)
        values["bench.tail_pct"] = tail_pct
        unit_of = {name: unit for name, unit, _ in metrics.PER_LAYER}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        for name in tracer.absent:
            print(f"# wrapped name absent: {name}")
        all_ops = ops + [op for unit in traced_units for op in unit]
    else:
        e2e["setup_s"] = statistics.median([setup_s] + probe_setups(args.workload, args.seed))
        values = e2e
        unit_of = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        all_ops = ops

    outcomes = {}
    for op in all_ops:
        outcomes[op.outcome] = outcomes.get(op.outcome, 0) + 1
    print("# outcomes " + " ".join(f"{k}={v}" for k, v in sorted(outcomes.items())))
    failed_ops = [op for op in all_ops if op.outcome != OK]
    for op in failed_ops[:100]:
        print(f"failed-op: {op.outcome} {op.kind} {op.detail}".rstrip())
    for msg in failures[:50]:
        print(f"check-failed: {msg}")
    for name, value in values.items():
        print(f"{name} {value!r} {unit_of[name]}")
    result = {
        "correct": not failures,
        "attempted": len(all_ops),
        "failed": len(failed_ops),
        "metrics": {name: {"value": float(v), "unit": unit_of[name]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
