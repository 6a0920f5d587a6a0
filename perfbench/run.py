"""Benchmark of the hedgehog toolkit: time to a verified certificate.

    python3 perfbench/run.py --workload {finder,lift-sweep,search,all}
        --seed N [--seconds S] [--trace 0|1] [--smoke]

--seconds defaults to run_seconds in BENCHMARK.json.

Each workload runs in its own process as a closed loop with one client: the
next instance starts when the previous one has finished, and the loop stops
at the first pass boundary after --seconds.  Every output is checked (see
workloads.py); any rejection or digest mismatch makes the exit code 1.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every pass twice,
untraced and with spans around the package's public functions, in alternating
order, checks that both runs produced byte-identical outputs, and prints the
per-layer metrics; spans are written as JSON lines to
.bench_work/spans-<workload>-seed<N>.jsonl.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
--workload all runs the three workloads one after another, each in a fresh
process.  --smoke shrinks every size, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, root_seconds, totals_by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("finder", "lift-sweep", "search")
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def tail_percentile(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with at least `beyond` samples
    above its rank, as (percentile, value, samples above).  With `beyond`
    samples or fewer no percentile qualifies, and the smallest is returned."""
    xs = sorted(samples)
    rank = max(1, len(xs) - beyond)
    return 100.0 * rank / len(xs), xs[rank - 1], len(xs) - rank


def import_package():
    """Import hedgehog from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hedgehog

    if Path(hedgehog.__file__).resolve().parent != src / "hedgehog":
        raise ImportError(f"hedgehog imported from {hedgehog.__file__}, not from {src}")
    from hedgehog import cli, constructions, core, extractors, finder, verifiers

    return {
        "hedgehog": hedgehog, "core": core, "finder": finder, "constructions": constructions,
        "extractors": extractors, "verifiers": verifiers, "cli": cli,
    }


def import_seconds(repeats: int) -> float:
    """Median time to import the package in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import hedgehog.cli; print(time.perf_counter() - t)"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout)
        for _ in range(repeats)
    ]
    return statistics.median(times)


def clear_caches(modules) -> None:
    for module in modules.values():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


# ---------------------------------------------------------------------------
# traced functions and the per-layer metrics computed from their spans


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def trace_targets(m):
    """(module, attribute, span name, counter) for every traced function.
    A counter maps (args, kwargs, result) to counts stored on the span."""
    core, finder, cons, ext, ver, cli = (
        m["core"], m["finder"], m["constructions"], m["extractors"], m["verifiers"], m["cli"],
    )

    def triples(args, kwargs, result):
        count = math.comb(_arg(args, kwargs, 0, "col").n, 3)
        # colour bytes plus the three int32 pair-rank arrays, by formula
        return {"triples": count, "bytes": 13 * count}

    def read_bytes(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}

    def write_bytes(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}

    def labelled(args, kwargs, result):
        return {"labelled": int((result.labels != 0).sum())}

    def sets(args, kwargs, result):
        return {"sets": math.comb(result.n, 4)}

    def steps(args, kwargs, result):
        colouring, report = result
        return {"steps": report.steps, "found": int(colouring is not None)}

    def stages(args, kwargs, result):
        return {"stages": len(result[1].stages)}

    def edges(args, kwargs, result):
        return {"edges": result.edge_count}

    def lift_triples(args, kwargs, result):
        return {"triples": math.comb(_arg(args, kwargs, 1, "base").n, 3)}

    def colourings(args, kwargs, result):
        return {"colourings": result.checked}

    return [
        (core, "pair_colour_counts", "core.pair_colour_counts", triples),
        (core, "read_colouring", "core.hcol_read", read_bytes),
        (core, "write_colouring", "core.hcol_write", write_bytes),
        (finder, "find_monochromatic_hedgehog", "finder.find_monochromatic_hedgehog", None),
        (finder, "pair_profile", "finder.pair_profile", labelled),
        (finder, "label_pairs", "finder.label_pairs", None),
        (finder, "classify_vertices", "finder.classify_vertices", None),
        (finder, "low_degree_body", "finder.low_degree_body", None),
        (finder, "embed_spines", "finder.embed_spines", None),
        (finder, "_peel_zero_count_body", "finder.fallback", None),
        (cons, "random_colouring", "constructions.random_colouring", None),
        (cons, "find_scattered_colouring", "constructions.find_scattered_colouring", steps),
        (cons, "complement_lift", "constructions.complement_lift", None),
        (cons, "kr_quad_lift", "constructions.kr_quad_lift", None),
        (cons, "quad_set_lift", "constructions.quad_set_lift", sets),
        (ext, "three_colour_pipeline", "extractors.three_colour_pipeline", stages),
        (ext, "rbg_label_hypergraph", "extractors.rbg_label_hypergraph", edges),
        (ext, "spencer_independent_set", "extractors.spencer_independent_set", None),
        (ext, "three_colour_clique_search", "extractors.three_colour_clique_search", None),
        (ext, "gallai_two_coloured_clique", "extractors.gallai_two_coloured_clique", None),
        (ext, "verify_f_witness", "extractors.verify_f_witness", None),
        (ext, "f_oracle", "extractors.f_oracle", None),
        (ver, "verify_embedding", "verifiers.verify_embedding", None),
        (ver, "verify_complement_lift", "verifiers.verify_complement_lift", lift_triples),
        (ver, "rainbow_triangle_free", "verifiers.rainbow_triangle_free", None),
        (ver, "every_clique_all_colours", "verifiers.every_clique_all_colours", None),
        (ver, "exhaustive_ramsey_check", "verifiers.exhaustive_ramsey_check", colourings),
        (ver, "has_monochromatic_hedgehog", "verifiers.has_monochromatic_hedgehog", None),
        (cli, "main", "cli.main", None),
    ]


def _self(span):
    return "s", "lower", lambda T, k: T[span].self_s / k if span in T else 0.0


def _rate(span, count, scale=1.0, unit="1/s"):
    def value(T, k):
        agg = T.get(span)
        if agg is None or agg.total_s <= 0:
            return 0.0
        return agg.counts.get(count, 0) / scale / agg.total_s

    return unit, "higher", value


def _per_instance(span, count, unit="count", better="lower"):
    return unit, better, lambda T, k: T[span].counts.get(count, 0) / k if span in T else 0.0


def _per_call(span, count, unit="count", better="higher"):
    return unit, better, lambda T, k: T[span].counts.get(count, 0) / T[span].calls if span in T else 0.0


def _calls(span):
    return "count", "lower", lambda T, k: T[span].calls / k if span in T else 0.0


# name -> (unit, better, value(totals by span name, traced instance count)).
# ".s" is self seconds per instance; counts are per instance unless a per-call
# ratio; the two trace.* entries are filled in by run_traced.
PER_LAYER = {
    "core.pair_colour_counts.s": _self("core.pair_colour_counts"),
    "core.pair_colour_counts.triples_per_s": _rate("core.pair_colour_counts", "triples"),
    "core.pair_colour_counts.computed_bytes": _per_instance("core.pair_colour_counts", "bytes", "bytes"),
    "core.triple_cache.misses": ("count", "lower", None),
    "core.hcol_read.s": _self("core.hcol_read"),
    "core.hcol_read.mb_per_s": _rate("core.hcol_read", "bytes", 1e6, "MB/s"),
    "core.hcol_write.s": _self("core.hcol_write"),
    "core.hcol_write.mb_per_s": _rate("core.hcol_write", "bytes", 1e6, "MB/s"),
    "finder.find_monochromatic_hedgehog.s": _self("finder.find_monochromatic_hedgehog"),
    "finder.pair_profile.s": _self("finder.pair_profile"),
    "finder.classify_vertices.s": _self("finder.classify_vertices"),
    "finder.low_degree_body.s": _self("finder.low_degree_body"),
    "finder.embed_spines.s": _self("finder.embed_spines"),
    "finder.labelled_pairs": _per_instance("finder.pair_profile", "labelled"),
    "finder.fallback_runs": _calls("finder.fallback"),
    "constructions.random_colouring.s": _self("constructions.random_colouring"),
    "constructions.complement_lift.s": _self("constructions.complement_lift"),
    "constructions.kr_quad_lift.s": _self("constructions.kr_quad_lift"),
    "constructions.quad_set_lift.s": _self("constructions.quad_set_lift"),
    "constructions.quad_set_lift.sets_per_s": _rate("constructions.quad_set_lift", "sets"),
    "constructions.find_scattered_colouring.s": _self("constructions.find_scattered_colouring"),
    "constructions.find_scattered_colouring.steps": _per_instance("constructions.find_scattered_colouring", "steps"),
    "constructions.find_scattered_colouring.steps_per_s": _rate("constructions.find_scattered_colouring", "steps"),
    "constructions.find_scattered_colouring.found_ratio": _per_call(
        "constructions.find_scattered_colouring", "found", "ratio"
    ),
    "extractors.three_colour_pipeline.s": _self("extractors.three_colour_pipeline"),
    "extractors.three_colour_pipeline.stages_reached": _per_call("extractors.three_colour_pipeline", "stages"),
    "extractors.rbg_label_hypergraph.s": _self("extractors.rbg_label_hypergraph"),
    "extractors.rbg_label_hypergraph.edges": _per_instance("extractors.rbg_label_hypergraph", "edges"),
    "extractors.spencer_independent_set.s": _self("extractors.spencer_independent_set"),
    "extractors.three_colour_clique_search.s": _self("extractors.three_colour_clique_search"),
    "extractors.verify_f_witness.s": _self("extractors.verify_f_witness"),
    "extractors.f_oracle.s": _self("extractors.f_oracle"),
    "verifiers.verify_complement_lift.s": _self("verifiers.verify_complement_lift"),
    "verifiers.verify_complement_lift.triples_per_s": _rate("verifiers.verify_complement_lift", "triples"),
    "verifiers.rainbow_triangle_free.s": _self("verifiers.rainbow_triangle_free"),
    "verifiers.verify_embedding.s": _self("verifiers.verify_embedding"),
    "verifiers.every_clique_all_colours.s": _self("verifiers.every_clique_all_colours"),
    "verifiers.exhaustive_ramsey_check.s": _self("verifiers.exhaustive_ramsey_check"),
    "verifiers.exhaustive_ramsey_check.colourings_per_s": _rate("verifiers.exhaustive_ramsey_check", "colourings"),
    "cli.main.s": _self("cli.main"),
    "trace.overhead_frac": ("ratio", "lower", None),
    "trace.self_coverage": ("ratio", "higher", None),
}

END_TO_END = {
    "instances_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


# ---------------------------------------------------------------------------
# the closed loop


def measure(workload, seconds: float, stopwatch):
    """Run whole passes of instances until `seconds` have gone by."""
    outcomes = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        for _ in range(workload.pass_size):
            outcomes.append(workload.run(i, stopwatch()))
            i += 1
        if time.perf_counter() >= deadline:
            return outcomes


def run_traced(workload, modules, seconds, workloads_mod, spans_path):
    """Run each pass untraced and traced back to back, untraced first on even
    passes and traced first on odd ones, until `seconds` have gone by; the
    tracer is installed only for the traced passes.  The overhead is the
    median over passes of traced time / untraced time, minus 1, so that it
    compares runs made at the same time and a burst of load on the host moves
    one pass, not the figure.  Returns (untraced, traced, per-layer metrics,
    problems)."""
    tracer = Tracer()
    targets = trace_targets(modules)
    untraced, traced = [], []
    misses = 0

    def traced_pass(ids):
        nonlocal misses
        try:
            tracer.install(list(modules.values()), targets)
            for i in ids:
                tracer.instance = i
                before = workloads_mod.size_cache_misses()
                traced.append(workload.run(i, workloads_mod.Stopwatch(tracer)))
                misses += workloads_mod.size_cache_misses() - before
        finally:
            tracer.restore()

    def untraced_pass(ids):
        untraced.extend(workload.run(i, workloads_mod.Stopwatch()) for i in ids)

    deadline = time.perf_counter() + seconds
    p = 0
    while True:
        ids = range(p * workload.pass_size, (p + 1) * workload.pass_size)
        for run_pass in (untraced_pass, traced_pass)[:: 1 if p % 2 == 0 else -1]:
            run_pass(ids)
        p += 1
        if time.perf_counter() >= deadline:
            break
    tracer.write_jsonl(spans_path)

    problems = [
        f"instance {i}: traced output differs from the untraced run"
        for i, (a, b) in enumerate(zip(untraced, traced))
        if a.digest != b.digest
    ]
    k = len(traced)
    totals = totals_by_name(tracer.spans)
    traced_s = sum(o.seconds for o in traced)
    ps = workload.pass_size
    ratios = [
        sum(o.seconds for o in traced[j : j + ps]) / sum(o.seconds for o in untraced[j : j + ps])
        for j in range(0, k, ps)
    ]
    metrics = {}
    for name, (unit, _, value) in PER_LAYER.items():
        if name == "core.triple_cache.misses":
            v = misses / k
        elif name == "trace.overhead_frac":
            v = statistics.median(ratios) - 1.0
        elif name == "trace.self_coverage":
            v = root_seconds(tracer.spans) / traced_s
        else:
            v = value(totals, k)
        metrics[name] = {"value": v, "unit": unit}
    return untraced, traced, metrics, problems


def end_to_end(outcomes, setup_s):
    lat = [o.seconds for o in outcomes]
    done = sum(1 for o in outcomes if o.failed is None)
    pct, tail, above = tail_percentile(lat)
    metrics = {
        "instances_per_s": done / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    note = f"p{pct:.1f} of {len(lat)} samples, {above} above it"
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in metrics.items()}, note


def run_one(args) -> int:
    try:
        modules = import_package()
    except ImportError as exc:
        print(f"cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads as workloads_mod

    repeats = 1 if args.smoke else SETUP_REPEATS
    import_s = import_seconds(repeats)
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads_mod.make(args.workload, args.smoke, args.seed, workdir)
        problems = workload.static_checks()
        setups = []
        for _ in range(repeats):
            clear_caches(modules)
            start = time.perf_counter()
            workload.setup()
            workload.warm_up()
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)

        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            untraced, outcomes, metrics, more = run_traced(
                workload, modules, args.seconds, workloads_mod, spans_path
            )
            problems += more + workload.run_checks(untraced)
            for o in untraced:
                problems += o.rejected
            lines = [
                f"per-layer metrics from {len(outcomes)} traced instances; "
                f"spans in {spans_path.relative_to(ROOT)}",
                f"  trace overhead {metrics['trace.overhead_frac']['value']:+.3f}, "
                f"self-time coverage {metrics['trace.self_coverage']['value']:.3f}",
            ]
        else:
            outcomes = measure(workload, args.seconds, workloads_mod.Stopwatch)
            metrics, tail_note = end_to_end(outcomes, setup_s)
            lines = [f"{len(outcomes)} instances; set-up: import {import_s:.3f} s + "
                     f"{statistics.median(setups):.3f} s, medians of {repeats}"]
            failed_count = sum(1 for o in outcomes if o.failed is not None)
            for name, entry in metrics.items():
                extra = f" ({tail_note})" if name == "latency_tail_ms" else ""
                lines.append(f"  {name:<16} {entry['value']:.6g} {entry['unit']}{extra}")
                if name == "latency_tail_ms":
                    lines.append(
                        f"  {'failed_frac':<16} {failed_count / len(outcomes):.6g} ratio"
                        f" ({failed_count} of {len(outcomes)})"
                    )
        problems += workload.run_checks(outcomes)
        for o in outcomes:
            problems += o.rejected
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [o.failed for o in outcomes if o.failed is not None]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("\n".join(lines))
    for reason in sorted(set(failures)):
        print(f"  failed: {reason}")
    for problem in problems:
        print(f"REJECTED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        code = max(code, subprocess.run(argv).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    with open(ROOT / "BENCHMARK.json") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
