"""Record the SHA-256 digests that the benchmark checks outputs against.

Outputs without an independent verifier (the kr_quad_lift and quad_set_lift
results, HCOL round trips, the label-triangle hypergraph) and the fixed
results of the search workload are compared with digests recorded by this
script.  Run it only on a commit whose outputs are known good:

    python3 perfbench/record_digests.py

It rewrites perfbench/digests.json.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    out = {"lift-sweep": {}, "search": {}}
    workdir = HERE.parent / ".bench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for scale in ("main", "smoke"):
            cfg = workloads.CONFIGS["lift-sweep"][scale]
            sweep = workloads.LiftSweepWorkload(cfg, 0, workdir, None)
            table = {}
            for n in cfg["sizes"]:
                for v in range(cfg["variants"]):
                    digests, problems = sweep.outputs(n, v, workloads.Stopwatch())
                    if problems:
                        print("\n".join(problems), file=sys.stderr)
                        return 1
                    table[f"{n}/{v}"] = digests
            out["lift-sweep"][scale] = table

            cfg = workloads.CONFIGS["search"][scale]
            ex, rm = cfg["exact"], cfg["ramsey"]
            exact = workloads.extractors.f_oracle(ex["t"], ex["cap"], mode="exhaustive")
            ramsey = workloads.verifiers.exhaustive_ramsey_check(rm["t"], rm["q"], rm["n"])
            out["search"][scale] = {
                "exact": workloads.sha256(workloads.f_oracle_bytes(exact)),
                "ramsey": workloads.sha256(workloads.hcol_bytes(ramsey.counterexample)),
            }
    finally:
        shutil.rmtree(workdir)
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
