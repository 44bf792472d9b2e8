"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads mc-serial,kernel-sweep --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --baseline perfbench/baseline.json

For every end-to-end metric it prints the median of the runs and the
distance between their first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), next to the bound in
``BENCHMARK.json``.  Runs are made one after another, never in parallel.
With ``--baseline`` the medians, quartiles, per-run values and the
environment record of the first run are written to that file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return json.loads(lines[-1]), env, elapsed


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--baseline", type=Path)
    args = p.parse_args(argv)

    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    record = {"date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
              "run_seconds": seconds, "seeds": seeds, "environment": None, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        elapsed = []
        for seed in seeds:
            result, env, dt = run_once(workload, seed, seconds)
            if record["environment"] is None:
                record["environment"] = env
            if not result["correct"]:
                print(f"{workload} seed {seed}: a check failed", file=sys.stderr)
            elapsed.append(dt)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {dt:.1f} s, attempted {result['attempted']}, "
                  f"failed {result['failed']}, load {env['loadavg_at_start'][0]:.2f}: {shown}",
                  flush=True)
        summary = {"run_wall_s": statistics.median(elapsed)}
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            rel = (q3 - q1) / abs(med) if med else 0.0
            bound = m["bound"]
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                                  "unit": m["unit"], "values": vals}
            if m["name"] != "setup_s":
                worst = max(worst, rel / bound)
            flag = "ok" if rel < bound / 3 else ("within bound" if rel <= bound else "TOO WIDE")
            print(f"  {m['name']:<12} median {med:<12.6g} spread {rel:7.2%}  "
                  f"bound {bound}  {flag}", flush=True)
        record["workloads"][workload] = summary
    if args.baseline:
        args.baseline.write_text(json.dumps(record, indent=1) + "\n")
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
