"""Command-line entry point wiring the whole toolkit.

Subcommands: generate, lift, find, extract, pipeline, verify, search,
f-oracle, batch.  Every randomized command requires an explicit --seed (no
wall-clock defaults), colourings travel as HCOL v1 files, and certificates
are plain text so they can be diffed and checked into fixtures.

Exit codes: 0 success / verified / holds; 1 search failed; 2 violation or
counterexample (certificate printed); 3 instance refused; 64 bad usage or
unparseable input.  An exception maps to its code, and to the prefix of its
one stderr line, through one table, the same for a direct call and for a
batch entry:

    bad flags, InvalidArgument, PreconditionViolated, OSError   64
    RefusedInstance                                               3
    StagedFailure                                                 1
    GuaranteeViolated, any other ToolkitError                     2
"""

from __future__ import annotations

import argparse
import functools
import shlex
import sys
import time

from . import constructions, extractors, finder, verifiers
from .core import (
    DEFAULT_NODE_BUDGET,
    HedgehogEmbedding,
    InvalidArgument,
    PreconditionViolated,
    RefusedInstance,
    StagedFailure,
    ToolkitError,
    colouring_to_text,
    read_colouring,
    write_colouring,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_VIOLATION = 2
EXIT_REFUSED = 3
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


# (exception types, exit code, stderr prefix); the first matching row wins,
# so subclasses come before ToolkitError
_EXIT_TABLE = (
    (_UsageError, EXIT_USAGE, "usage error"),
    ((InvalidArgument, PreconditionViolated), EXIT_USAGE, "error"),
    (OSError, EXIT_USAGE, "io error"),
    (RefusedInstance, EXIT_REFUSED, "refused"),
    (StagedFailure, EXIT_FAILED, "failed"),
    (ToolkitError, EXIT_VIOLATION, "error"),
)
_MAPPED = (_UsageError, ToolkitError, OSError)


def _exit_row(exc: BaseException) -> tuple[int, str]:
    for types, code, prefix in _EXIT_TABLE:
        if isinstance(exc, types):
            return code, prefix
    raise TypeError(f"no exit code for {type(exc).__name__}")


def exit_code_for(exc: BaseException) -> int:
    """The exit code of a usage, I/O or toolkit error."""
    return _exit_row(exc)[0]


def _report_error(exc: BaseException) -> int:
    """Write the error's one `prefix: message` line to stderr; return its
    exit code.  A direct command and a batch entry both report through it."""
    code, prefix = _exit_row(exc)
    sys.stderr.write(f"{prefix}: {exc}\n")
    return code


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route everything through exit code 64
    def error(self, message):
        raise _UsageError(message)


def _palette(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise _UsageError(f"bad palette {text!r}: {exc}") from exc
    if not values:
        raise _UsageError("empty palette")
    return values


def _emit(text: str, path: str | None, stream):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        stream.write(text)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="hedgehog",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="produce colourings")
    gsub = gen.add_subparsers(dest="kind", required=True)

    g_rand = gsub.add_parser("random", help="i.i.d. uniform colouring")
    g_rand.add_argument("-n", type=int, required=True)
    g_rand.add_argument("-k", type=int, required=True)
    g_rand.add_argument("-q", type=int, required=True)
    g_rand.add_argument("--seed", type=int, required=True)
    g_rand.add_argument("--out", required=True)

    g_scat = gsub.add_parser(
        "scattered", help="every t-clique carries all q colours"
    )
    g_scat.add_argument("-n", type=int, required=True)
    g_scat.add_argument("--t", type=int, required=True)
    g_scat.add_argument("-q", type=int, default=4)
    g_scat.add_argument("--seed", type=int, required=True)
    g_scat.add_argument("--max-tries", type=int, default=20)
    g_scat.add_argument("--max-steps", type=int, default=20000)
    g_scat.add_argument(
        "--mode", choices=["local-search", "rejection"], default="local-search"
    )
    g_scat.add_argument("--out", required=True)
    g_scat.add_argument("--report", default=None)

    g_gal = gsub.add_parser(
        "gallai-witness", help="rainbow-free product colouring"
    )
    g_gal.add_argument("--t", type=int, required=True)
    g_gal.add_argument("--seed", type=int, required=True)
    g_gal.add_argument("--out", required=True)
    g_gal.add_argument("--report", default=None)

    lift = sub.add_parser("lift", help="raise colourings to higher uniformity")
    lsub = lift.add_subparsers(dest="kind", required=True)

    l_comp = lsub.add_parser("complement", help="missing-palette-colour lift")
    l_comp.add_argument("--in", dest="infile", required=True)
    l_comp.add_argument("--palette", required=True)
    l_comp.add_argument("--out", required=True)

    l_kr = lsub.add_parser("kr-quad", help="monochromatic-triangle quad lift")
    l_kr.add_argument("--in", dest="infile", required=True)
    l_kr.add_argument("--out", required=True)

    l_qs = lsub.add_parser("quad-set", help="colour-set quad lift")
    l_qs.add_argument("--in", dest="infile", required=True)
    l_qs.add_argument("--out", required=True)

    l_lex = lsub.add_parser("lex-product", help="lexicographic product")
    l_lex.add_argument("--outer", required=True)
    l_lex.add_argument("--inner", required=True)
    l_lex.add_argument("--out", required=True)

    find = sub.add_parser("find", help="hedgehog finder")
    fsub = find.add_subparsers(dest="kind", required=True)
    f_h = fsub.add_parser("hedgehog", help="monochromatic hedgehog in 2 colours")
    f_h.add_argument("--t", type=int, required=True)
    f_h.add_argument("--in", dest="infile", required=True)
    f_h.add_argument(
        "--colour",
        choices=["auto", "0", "1"],
        default="auto",
        help="force the hedgehog colour instead of following the majority class",
    )
    f_h.add_argument("--cert", default=None)

    ext = sub.add_parser("extract", help="independent sets and cliques")
    esub = ext.add_subparsers(dest="kind", required=True)
    e_sp = esub.add_parser("spencer", help="independent set avoiding label triangles")
    e_sp.add_argument("--in", dest="infile", required=True)
    e_sp.add_argument("--t", type=int, required=True)
    e_sp.add_argument("--seed", type=int, required=True)
    e_sp.add_argument("--trials", type=int, default=8)
    e_ga = esub.add_parser("gallai", help="two-coloured clique in a rainbow-free colouring")
    e_ga.add_argument("--in", dest="infile", required=True)

    pipe = sub.add_parser("pipeline", help="three-colour hedgehog pipeline")
    pipe.add_argument("--t", type=int, required=True)
    pipe.add_argument("--in", dest="infile", required=True)
    pipe.add_argument("--seed", type=int, required=True)
    pipe.add_argument(
        "--scale",
        default="",
        help="comma-separated key=value stage targets "
        "(clique_target, gallai_target, spencer_trials)",
    )
    pipe.add_argument("--cert", default=None)

    ver = sub.add_parser("verify", help="certificate checks")
    vsub = ver.add_subparsers(dest="kind", required=True)
    v_emb = vsub.add_parser("embedding", help="hedgehog certificate against a colouring")
    v_emb.add_argument("--in", dest="infile", required=True)
    v_emb.add_argument("--cert", required=True)
    v_lift = vsub.add_parser("lift", help="complement lift: structure plus hedgehog-freeness")
    v_lift.add_argument("--in", dest="infile", required=True)
    v_lift.add_argument("--base", required=True)
    v_lift.add_argument("--t", type=int, required=True)
    v_lift.add_argument("--palette", default=None)
    v_scat = vsub.add_parser("scattered", help="every t-clique carries all q colours")
    v_scat.add_argument("--in", dest="infile", required=True)
    v_scat.add_argument("--t", type=int, required=True)
    v_scat.add_argument("-q", type=int, default=None)
    v_rain = vsub.add_parser("rainbow", help="no triangle shows the whole palette")
    v_rain.add_argument("--in", dest="infile", required=True)
    v_rain.add_argument("--palette", default="0,1,2")
    v_fw = vsub.add_parser("f-witness", help="rainbow-free and no t-clique on <=3 colours")
    v_fw.add_argument("--in", dest="infile", required=True)
    v_fw.add_argument("--t", type=int, required=True)

    search = sub.add_parser("search", help="exhaustive small-scale checks")
    ssub = search.add_subparsers(dest="kind", required=True)
    s_ex = ssub.add_parser("exhaustive", help="decide a small Ramsey instance by enumeration")
    s_ex.add_argument("--t", type=int, required=True)
    s_ex.add_argument("-q", type=int, required=True)
    s_ex.add_argument("-n", type=int, required=True)
    s_ex.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)

    fo = sub.add_parser("f-oracle", help="threshold F(t): exact value or lower bound")
    fo.add_argument("--t", type=int, required=True)
    fo.add_argument("--cap", type=int, required=True)
    fo.add_argument("--mode", choices=["auto", "exhaustive", "witness"], default="auto")
    fo.add_argument("--seed", type=int, default=0)
    fo.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)

    batch = sub.add_parser("batch", help="run a manifest of commands")
    batch.add_argument("--manifest", required=True)

    return parser


# ---------------------------------------------------------------------------
# command handlers


def _cmd_generate(args) -> int:
    if args.kind == "random":
        col = constructions.random_colouring(args.n, args.k, args.q, args.seed)
        write_colouring(col, args.out)
        return EXIT_OK
    if args.kind == "scattered":
        spec = constructions.ScatteredColouringSpec(
            n=args.n,
            t=args.t,
            q=args.q,
            seed=args.seed,
            max_tries=args.max_tries,
            search_mode=args.mode,
            max_steps=args.max_steps,
        )
        col, report = constructions.find_scattered_colouring(spec)
        _emit(report.to_text(), args.report, sys.stderr)
        if col is None:
            return EXIT_FAILED
        write_colouring(col, args.out)
        return EXIT_OK
    col, report = constructions.gallai_lower_bound_witness(args.t, args.seed)
    _emit(report.to_text(), args.report, sys.stderr)
    write_colouring(col, args.out)
    return EXIT_OK


def _cmd_lift(args) -> int:
    if args.kind == "lex-product":
        outer = read_colouring(args.outer)
        inner = read_colouring(args.inner)
        write_colouring(constructions.lex_product(outer, inner), args.out)
        return EXIT_OK
    col = read_colouring(args.infile)
    if args.kind == "complement":
        out = constructions.complement_lift(col, _palette(args.palette))
    elif args.kind == "kr-quad":
        out = constructions.kr_quad_lift(col)
    else:
        out = constructions.quad_set_lift(col)
    write_colouring(out, args.out)
    return EXIT_OK


def _cmd_find(args) -> int:
    col = read_colouring(args.infile)
    if args.colour == "auto":
        emb = finder.find_monochromatic_hedgehog(col, args.t)
    else:
        emb = finder.find_hedgehog_in_colour(col, args.t, int(args.colour))
    _emit(emb.to_text(), args.cert, sys.stdout)
    return EXIT_OK


def _cmd_extract(args) -> int:
    col = read_colouring(args.infile)
    if args.kind == "spencer":
        # label triangle hypergraph of a 3-coloured input, then extract
        if col.k != 3 or col.q != 3:
            raise InvalidArgument("spencer extraction expects a k=3, q=3 colouring")
        hyper = extractors.rbg_label_hypergraph(finder.pair_profile(col, args.t))
        chosen = extractors.spencer_independent_set(hyper, args.seed, args.trials)
        sys.stdout.write(
            f"hypergraph edges {hyper.edge_count}\n"
            f"independent-set size {len(chosen)}\n"
            "vertices " + " ".join(map(str, chosen)) + "\n"
        )
        return EXIT_OK
    gallai = extractors.verify_gallai(col)
    if not gallai.verified:
        sys.stderr.write("input has a rainbow triangle\n")
        return EXIT_VIOLATION
    witness = extractors.gallai_two_coloured_clique(gallai)
    problem = verifiers.verify_clique_census(witness, col, max_colours=2)
    if problem is not None:
        sys.stdout.write(f"violation {problem}\n")
        return EXIT_VIOLATION
    sys.stdout.write(witness.to_text())
    return EXIT_OK


def _parse_scale(text: str) -> dict:
    out = {}
    if not text:
        return out
    for part in text.replace(",", " ").split():
        key, _, value = part.partition("=")
        try:
            out[key] = int(value)
        except ValueError as exc:
            raise _UsageError(f"bad scale entry {part!r}") from exc
    allowed = {"clique_target", "gallai_target", "spencer_trials"}
    unknown = set(out) - allowed
    if unknown:
        raise _UsageError(f"unknown scale keys {sorted(unknown)}")
    return out


def _cmd_pipeline(args) -> int:
    col = read_colouring(args.infile)
    scale = _parse_scale(args.scale)
    emb, trace = extractors.three_colour_pipeline(col, args.t, seed=args.seed, **scale)
    sys.stderr.write(trace.to_text())
    _emit(emb.to_text(), args.cert, sys.stdout)
    return EXIT_OK


def _verify_problem(args) -> object | None:
    """What a verify command found wrong, printed after "violation ", or
    None when the input checks out."""
    col = read_colouring(args.infile)
    if args.kind == "embedding":
        with open(args.cert) as fh:
            emb = HedgehogEmbedding.from_text(fh.read())
        return verifiers.verify_embedding(emb, col)
    if args.kind == "lift":
        base = read_colouring(args.base)
        palette = _palette(args.palette) if args.palette else list(range(base.q))
        problem = verifiers.verify_complement_lift(col, base, palette)
        if problem is not None:
            return problem
        deficient = verifiers.every_clique_all_colours(base, args.t, base.q)
        if deficient is not None:
            return f"base-not-scattered {deficient}"
        for colour in range(col.q):
            emb = verifiers.has_monochromatic_hedgehog(col, args.t, colour)
            if emb is not None:
                return f"monochromatic-hedgehog colour {colour}\n{emb.to_text()}"
        return None
    if args.kind == "scattered":
        q = args.q if args.q is not None else col.q
        witness = verifiers.every_clique_all_colours(col, args.t, q)
        return None if witness is None else "deficient-clique\n" + witness.to_text()
    if args.kind == "rainbow":
        triangle = verifiers.rainbow_triangle_free(col, _palette(args.palette))
        return None if triangle is None else f"rainbow-triangle {triangle}"
    witness = extractors.verify_f_witness(col, args.t)
    if witness.valid:
        return None
    return "rainbow-triangle" if not witness.rainbow_free else "small-palette-clique"


def _cmd_verify(args) -> int:
    problem = _verify_problem(args)
    if problem is None:
        sys.stdout.write("verified\n")
        return EXIT_OK
    text = f"violation {problem}"
    # a certificate after the first line brings its own final newline
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return EXIT_VIOLATION


def _cmd_search(args) -> int:
    result = verifiers.exhaustive_ramsey_check(args.t, args.q, args.n, node_budget=args.budget)
    sys.stdout.write(str(result) + "\n")
    if result.holds:
        return EXIT_OK
    sys.stdout.write(colouring_to_text(result.counterexample))
    return EXIT_VIOLATION


def _cmd_f_oracle(args) -> int:
    result = extractors.f_oracle(
        args.t,
        args.cap,
        mode=args.mode,
        seed=args.seed,
        node_budget=args.budget,
    )
    sys.stdout.write(str(result) + "\n")
    for n in sorted(result.statuses):
        sys.stdout.write(f"n={n} {result.statuses[n]}\n")
    return EXIT_OK


@functools.cache
def _shared_parser() -> _Parser:
    # built on first use, not at import, and reused by every later call and
    # batch entry: parsing leaves no state in the parser
    return build_parser()


def _run_argv(argv: list[str], in_batch: bool = False) -> int:
    args = _shared_parser().parse_args(argv)
    if args.command == "batch" and in_batch:
        raise _UsageError("a batch entry cannot run batch")
    handlers = {
        "generate": _cmd_generate,
        "lift": _cmd_lift,
        "find": _cmd_find,
        "extract": _cmd_extract,
        "pipeline": _cmd_pipeline,
        "verify": _cmd_verify,
        "search": _cmd_search,
        "f-oracle": _cmd_f_oracle,
        "batch": _cmd_batch,
    }
    return handlers[args.command](args)


def _cmd_batch(args) -> int:
    """Run every manifest line as its own command; aggregate a table.

    Lines are shell-split argv lists; blank lines and # comments are
    skipped.  Entries run one after another, in manifest order; an entry
    that is itself a batch is a usage error, so no manifest recurses.  A
    failing entry writes the stderr line its direct run would.
    """
    with open(args.manifest) as fh:
        lines = [
            ln.strip()
            for ln in fh
            if ln.strip() and not ln.strip().startswith("#")
        ]

    rows = []
    for line in lines:
        start = time.perf_counter()
        try:
            try:
                argv = shlex.split(line)
            except ValueError as exc:
                raise _UsageError(f"bad manifest line: {exc}") from exc
            code = _run_argv(argv, in_batch=True)
        except _MAPPED as exc:
            code = _report_error(exc)
        rows.append((line, code, time.perf_counter() - start))

    width = max((len(r[0]) for r in rows), default=7)
    sys.stdout.write(f"{'command':<{width}}  status  seconds\n")
    failed = 0
    for line, code, seconds in rows:
        status = "PASS" if code == EXIT_OK else f"FAIL({code})"
        if code != EXIT_OK:
            failed += 1
        sys.stdout.write(f"{line:<{width}}  {status:<7} {seconds:7.2f}\n")
    sys.stdout.write(f"{len(rows)} entries, {failed} failed\n")
    return EXIT_OK if failed == 0 else EXIT_FAILED


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        return _run_argv(argv)
    except _MAPPED as exc:
        return _report_error(exc)


if __name__ == "__main__":
    sys.exit(main())
