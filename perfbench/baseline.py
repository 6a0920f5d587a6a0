"""Run the benchmark once per seed on each workload and summarise the runs.

    python3 perfbench/baseline.py [--workloads finder,search] [--seeds 1-10]
        [--write]

Runs one process at a time, each for run_seconds of BENCHMARK.json.  For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and their distance as a
share of the median.  --write stores the summary, with the machine's facts,
in perfbench/baseline.json.  The hold-out seed recorded there is never used
for a baseline, so that a later claim can be re-checked on it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HOLD_OUT_SEED = 7919
WORKLOADS = ("finder", "lift-sweep", "search")


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    if HOLD_OUT_SEED in seeds:
        raise SystemExit(f"seed {HOLD_OUT_SEED} is the hold-out seed")
    return seeds


def run(workload: str, seed: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs rejected")
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def machine() -> dict:
    import numpy

    facts = {
        "nproc": os.cpu_count(),
        "cpu": platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(caches.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                facts[f"L{level}"] = (index / "size").read_text().strip()
    except (OSError, StopIteration):
        pass
    return facts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)
    summary = {}
    for workload in args.workloads.split(","):
        runs = [run(workload, seed) for seed in seeds]
        stats = {}
        for name in bounds:
            stats[name] = summarise([r["metrics"][name]["value"] for r in runs])
            s = stats[name]
            print(f"{workload:<10} {name:<16} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.3f} "
                  f"(bound {bounds[name]})\n    values " + " ".join(f"{v:.6g}" for v in s["values"]),
                  flush=True)
        summary[workload] = {
            "seeds": seeds,
            "seconds": bench["run_seconds"],
            "attempted": [r["attempted"] for r in runs],
            "metrics": stats,
        }
    if args.write:
        path = HERE / "baseline.json"
        record = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
        record.update(hold_out_seed=HOLD_OUT_SEED, machine=machine())
        record["workloads"].update(summary)
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
