"""The benchmark's three workloads: finder, lift-sweep and search.

Each workload turns the run seed into its inputs, runs one instance at a
time (a closed loop with one client), times only the program's own work, and
then checks every output: certificates with their independent verifier,
outputs that have none against SHA-256 digests recorded from the seed commit
(``digests.json``, written by ``record_digests.py``).

An instance is *failed* only where the program may legitimately give up: a
search of the ``search`` workload that runs out.  Everything else that keeps
a certificate from coming out is a rejection, which fails the whole run: an
unexpected exception on any workload, a finder that gives up at n = 4t^3,
where a hedgehog is guaranteed, and a ``StagedFailure`` in a search pipeline,
which must reach its clique stage.

An instance is a pass member; the loop in ``run.py`` always finishes whole
passes, so every run sees the same mix of sizes and kinds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hedgehog import cli, constructions, core, extractors, finder, verifiers

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
PALETTE = (0, 1, 2, 3)
WARM_UP_SEED = 1 << 40
SIZE_KEYED_CACHES = ("pair_arrays", "triple_arrays", "triple_pair_ranks")

CONFIGS = {
    "finder": {
        # n = 4t^3, the finder's guaranteed order; one adversarial input per pool
        "main": {"t": 4, "n": 256, "pool": 20},
        "smoke": {"t": 3, "n": 108, "pool": 20},
    },
    "lift-sweep": {
        # 17 sizes visited in a seeded cyclic order, so a size recurs only
        # after 16 others: more than the largest size-keyed cache in core
        # holds (pair_arrays, maxsize 16), so every lookup misses.  The band
        # is narrow so that a run holds several instances of every size and
        # the median rests on many samples of similar cost.
        "main": {"sizes": list(range(56, 73)), "variants": 4, "window": 17, "warm_size": 24},
        "smoke": {"sizes": list(range(10, 27)), "variants": 4, "window": 17, "warm_size": 8},
    },
    "search": {
        "main": {
            "scattered": {"n": 12, "t": 5, "q": 4, "max_tries": 8, "max_steps": 4000},
            "witness": {"t": 4, "cap": 6, "restarts": 8, "steps": 1000},
            "exact": {"t": 4, "cap": 8, "value": 7},
            "ramsey": {"t": 3, "q": 2, "n": 6},
            "pipelines": 5,
            # below n = 26 some inputs stop the pipeline before its clique stage
            "pipeline_n": (26, 32),
        },
        "smoke": {
            "scattered": {"n": 10, "t": 5, "q": 4, "max_tries": 8, "max_steps": 4000},
            "witness": {"t": 4, "cap": 6, "restarts": 8, "steps": 1000},
            "exact": {"t": 3, "cap": 5, "value": 3},
            "ramsey": {"t": 3, "q": 2, "n": 5},
            "pipelines": 2,
            "pipeline_n": (26, 32),
        },
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hcol_bytes(col) -> bytes:
    return core.colouring_to_text(col).encode("ascii")


def f_oracle_bytes(result) -> bytes:
    return str(result).encode() + b"".join(
        hcol_bytes(result.witnesses[n]) for n in sorted(result.witnesses)
    )


def size_cache_misses() -> int:
    """Misses so far of core's size-keyed caches, while they exist."""
    total = 0
    for attr in SIZE_KEYED_CACHES:
        cached = getattr(core, attr, None)
        if cached is not None and hasattr(cached, "cache_info"):
            total += cached.cache_info().misses
    return total


def load_digests() -> dict:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


class Stopwatch:
    """Adds up the time spent inside ``with`` blocks, and arms the tracer
    (when there is one) for exactly those blocks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = 0.0
        self._start = 0.0

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.armed = True
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds += time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.armed = False
        return False


@dataclass
class Outcome:
    seconds: float
    digest: str  # SHA-256 over every certificate and HCOL byte the instance produced
    failed: str | None = None  # which search ran out
    rejected: list[str] = field(default_factory=list)  # failed checks
    info: dict = field(default_factory=dict)


def _unexpected(exc: BaseException) -> str:
    traceback.print_exception(exc)
    return f"unexpected {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# finder: the 2-colour finder at n = 4t^3 through the CLI, on HCOL files


class FinderWorkload:
    name = "finder"

    def __init__(self, cfg: dict, seed: int, workdir: Path):
        self.t, self.n, self.pool = cfg["t"], cfg["n"], cfg["pool"]
        self.pass_size = self.pool
        self.seed = seed
        self.workdir = workdir

    def static_checks(self) -> list[str]:
        if self.n != 4 * self.t**3 or self.n != finder.guaranteed_order(self.t):
            return [f"finder runs at n={self.n}, not at 4t^3 for t={self.t}"]
        return []

    def _path(self, j: int) -> Path:
        return self.workdir / f"finder-{j}.hcol"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        adversarial = int(rng.integers(self.pool))
        m = math.comb(self.n, 3)
        for j in range(self.pool):
            if j == adversarial:
                # complement lift of a 2-coloured graph over the full
                # 4-palette, folded back to two colours (criterion 1)
                base = core.CompleteColouring(
                    self.n, 2, 4,
                    rng.integers(0, 2, size=math.comb(self.n, 2), dtype=np.uint8),
                )
                lift = constructions.complement_lift(base, PALETTE)
                col = core.CompleteColouring(
                    self.n, 3, 2, (lift.colours >= 1).astype(np.uint8)
                )
            else:
                col = core.CompleteColouring(
                    self.n, 3, 2, rng.integers(0, 2, size=m, dtype=np.uint8)
                )
            core.write_colouring(col, self._path(j))

    def warm_up(self) -> None:
        self.run(0, Stopwatch())

    def run(self, i: int, clock: Stopwatch) -> Outcome:
        j = i % self.pool
        hcol, cert = str(self._path(j)), str(self._path(j)) + ".cert"
        out, err = io.StringIO(), io.StringIO()
        verified = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), clock:
                found = cli.main(["find", "hedgehog", "--t", str(self.t), "--in", hcol, "--cert", cert])
                if found == cli.EXIT_OK:
                    verified = cli.main(["verify", "embedding", "--in", hcol, "--cert", cert])
        except Exception as exc:
            return Outcome(clock.seconds, "", rejected=[_unexpected(exc)])
        if found != cli.EXIT_OK:
            return Outcome(clock.seconds, "", rejected=[
                f"find exit {found} on {hcol} at n = 4t^3, where a hedgehog is guaranteed: "
                f"{err.getvalue().strip()}"
            ])
        rejected = []
        if verified != cli.EXIT_OK or out.getvalue() != "verified\n":
            rejected.append(f"verify embedding rejected {cert}: {out.getvalue().strip()}")
        with open(cert, "rb") as fh:
            digest = sha256(fh.read())
        return Outcome(clock.seconds, digest, rejected=rejected)

    def run_checks(self, outcomes: list[Outcome]) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# lift-sweep: constructions and their checkers at a size that keeps changing


class LiftSweepWorkload:
    name = "lift-sweep"

    def __init__(self, cfg: dict, seed: int, workdir: Path, digests: dict | None):
        self.sizes = list(cfg["sizes"])
        self.variants = cfg["variants"]
        self.window = cfg["window"]
        self.warm_size = cfg["warm_size"]
        self.pass_size = len(self.sizes)
        self.seed = seed
        self.workdir = workdir
        self.digests = digests

    def static_checks(self) -> list[str]:
        problems = []
        if len(set(self.sizes)) < self.window:
            problems.append(f"{len(set(self.sizes))} sizes cannot fill a window of {self.window}")
        for attr in SIZE_KEYED_CACHES:
            cached = getattr(core, attr, None)
            if cached is not None and hasattr(cached, "cache_parameters"):
                maxsize = cached.cache_parameters()["maxsize"]
                if maxsize is None or maxsize >= self.window:
                    problems.append(f"core.{attr} holds {maxsize} sizes, window is {self.window}")
        return problems

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.order = [int(x) for x in rng.permutation(self.sizes)]
        self.variant_of = rng.integers(self.variants, size=1 << 16)

    def warm_up(self) -> None:
        self.outputs(self.warm_size, 0, Stopwatch())

    def size_at(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def outputs(self, n: int, v: int, clock: Stopwatch):
        """Run one instance; return (outcome digests, check problems)."""
        paths = [self.workdir / f"lift-{k}.hcol" for k in range(6)]
        t = 3 + v % 3
        with clock:
            # 1-2: random 4-colouring of K_n, its complement lift, the lift check
            base = constructions.random_colouring(n, 2, 4, seed=100 * n + 2 * v)
            lift = constructions.complement_lift(base, PALETTE)
            lift_problem = verifiers.verify_complement_lift(lift, base, PALETTE)
            # 3-5: quad lifts and the all-triangle rainbow scan of the fold
            fold = core.CompleteColouring(n, 2, 2, (base.colours >= 2).astype(np.uint8))
            kr = constructions.kr_quad_lift(fold)
            sets = constructions.quad_set_lift(lift)
            rainbow = verifiers.rainbow_triangle_free(fold, (0, 1, 2))
            # 6: HCOL write / read / write of every lift output
            backs = []
            for k, col in enumerate((lift, kr, sets)):
                core.write_colouring(col, paths[2 * k])
                back = core.read_colouring(paths[2 * k])
                core.write_colouring(back, paths[2 * k + 1])
                backs.append(back)
            # 7: pair counts -> labels -> label-triangle hypergraph
            triples = constructions.random_colouring(n, 3, 3, seed=100 * n + 2 * v + 1)
            theta = finder.pair_threshold(t)
            counts = core.pair_colour_counts(triples)
            labels = finder.label_pairs(counts, theta)
            aux = finder.AuxiliaryGraphColouring(
                n=n, t=t, q=3, theta=theta, labels=labels, counts=counts
            )
            hyper = extractors.rbg_label_hypergraph(aux)
            loose, tight = extractors.triangle_count_bounds(t, n)

        problems = []
        if lift_problem is not None:
            problems.append(f"verify_complement_lift n={n}: {lift_problem}")
        if rainbow is not None:
            problems.append(f"rainbow triangle {rainbow} in a 2-colouring, n={n}")
        digests = {}
        for k, (key, col) in enumerate(zip(("complement", "kr_quad", "quad_set"), (lift, kr, sets))):
            first, second = paths[2 * k].read_bytes(), paths[2 * k + 1].read_bytes()
            if first != second or not backs[k].equals(col):
                problems.append(f"HCOL round trip of the {key} lift changed it, n={n}")
            digests[key] = sha256(first)
        if hyper.edge_count > loose or (tight is not None and hyper.edge_count > tight):
            problems.append(f"{hyper.edge_count} label triangles exceed the bounds, n={n} t={t}")
        digests["rbg_edges"] = sha256(hyper.edges.tobytes())
        return digests, problems

    def run(self, i: int, clock: Stopwatch) -> Outcome:
        n = self.size_at(i)
        v = int(self.variant_of[i % len(self.variant_of)])
        try:
            digests, problems = self.outputs(n, v, clock)
        except Exception as exc:
            return Outcome(clock.seconds, "", rejected=[_unexpected(exc)], info={"n": n})
        want = self.digests.get(f"{n}/{v}")
        if want is None:
            problems.append(f"no recorded digests for n={n} variant {v}")
        else:
            for key, value in digests.items():
                if want.get(key) != value:
                    problems.append(f"{key} output for n={n} variant {v} differs from the recorded digest")
        joined = sha256("".join(digests[k] for k in sorted(digests)).encode())
        return Outcome(clock.seconds, joined, rejected=problems, info={"n": n})

    def run_checks(self, outcomes: list[Outcome]) -> list[str]:
        sizes = [o.info["n"] for o in outcomes]
        for i, n in enumerate(sizes):
            recent = sizes[max(0, i - self.window + 1) : i]
            if n in recent:
                return [f"size {n} repeats within {self.window} instances at instance {i}"]
        return []


# ---------------------------------------------------------------------------
# search: the small-n searches behind the README's computed results


class SearchWorkload:
    name = "search"

    def __init__(self, cfg: dict, seed: int, workdir: Path, digests: dict | None):
        self.cfg = cfg
        self.pass_size = 1
        self.seed = seed
        self.digests = digests

    def static_checks(self) -> list[str]:
        return []

    def setup(self) -> None:
        pass

    def warm_up(self) -> None:
        # a fixed round, so that set-up time does not depend on the seed
        self.round(WARM_UP_SEED, Stopwatch())

    def run(self, i: int, clock: Stopwatch) -> Outcome:
        return self.round(self.seed * 1_000_003 + i, clock)

    def round(self, round_seed: int, clock: Stopwatch) -> Outcome:
        cfg = self.cfg
        sc, fw, ex, rm = cfg["scattered"], cfg["witness"], cfg["exact"], cfg["ramsey"]
        rng = random.Random(round_seed)
        pipeline_inputs = [
            constructions.random_colouring(rng.randint(*cfg["pipeline_n"]), 3, 3, seed=rng.randrange(1 << 31))
            for _ in range(cfg["pipelines"])
        ]
        pipeline_seeds = [rng.randrange(1 << 31) for _ in pipeline_inputs]
        problems = []
        runs = []
        try:
            with clock:
                spec = constructions.ScatteredColouringSpec(
                    n=sc["n"], t=sc["t"], q=sc["q"], seed=round_seed,
                    max_tries=sc["max_tries"], max_steps=sc["max_steps"],
                )
                scattered, report = constructions.find_scattered_colouring(spec)
                if scattered is not None:
                    deficient = verifiers.every_clique_all_colours(scattered, sc["t"], sc["q"])
                    lift = constructions.complement_lift(scattered, PALETTE)
                witness_run = extractors.f_oracle(
                    fw["t"], fw["cap"], mode="witness", seed=round_seed,
                    restarts=fw["restarts"], steps=fw["steps"],
                )
                exact = extractors.f_oracle(ex["t"], ex["cap"], mode="exhaustive")
                ramsey = verifiers.exhaustive_ramsey_check(rm["t"], rm["q"], rm["n"])
                for col, s in zip(pipeline_inputs, pipeline_seeds):
                    try:
                        runs.append(extractors.three_colour_pipeline(col, 3, seed=s, clique_target=4))
                    except core.StagedFailure as exc:
                        runs.append(None)
                        problems.append(f"a pipeline stopped before its clique stage: {exc}")
        except Exception as exc:
            return Outcome(clock.seconds, "", rejected=[_unexpected(exc)])

        failed = None
        parts = []
        if scattered is None:
            failed = f"scattered search exhausted after {report.tries} tries"
        else:
            if deficient is not None:
                problems.append(f"scattered colouring has a deficient clique {deficient}")
            check = verifiers.verify_complement_lift(lift, scattered, PALETTE)
            if check is not None:
                problems.append(f"lift of the scattered colouring: {check}")
            parts += [hcol_bytes(scattered), hcol_bytes(lift)]
        if witness_run.lower_bound <= fw["cap"]:
            failed = failed or f"witness search stopped at F({fw['t']}) >= {witness_run.lower_bound}"
        for n, col in sorted(witness_run.witnesses.items()):
            if not extractors.verify_f_witness(col, fw["t"]).valid:
                problems.append(f"F-witness at n={n} fails its check")
            parts.append(hcol_bytes(col))
        exact_bytes = f_oracle_bytes(exact)
        if exact.value != ex["value"]:
            problems.append(f"{exact}, expected F({ex['t']}) = {ex['value']}")
        if sha256(exact_bytes) != self.digests["exact"]:
            problems.append("F-oracle witnesses differ from the recorded digest")
        parts.append(exact_bytes)
        if ramsey.holds or ramsey.counterexample is None:
            problems.append(f"{ramsey}: expected a counterexample")
        else:
            cex = ramsey.counterexample
            for colour in range(rm["q"]):
                if verifiers.has_monochromatic_hedgehog(cex, rm["t"], colour) is not None:
                    problems.append(f"Ramsey counterexample has a colour-{colour} hedgehog")
            if sha256(hcol_bytes(cex)) != self.digests["ramsey"]:
                problems.append("Ramsey counterexample differs from the recorded digest")
            parts.append(hcol_bytes(cex))
        stages = []
        for col, result in zip(pipeline_inputs, runs):
            if result is None:
                continue
            emb, trace = result
            problem = verifiers.verify_embedding(emb, col)
            if problem is not None:
                problems.append(f"pipeline embedding rejected: {problem}")
            stages.append(trace.stages)
            parts += [emb.to_text().encode(), trace.to_text().encode()]
        return Outcome(
            clock.seconds,
            sha256(b"\0".join(parts)),
            failed=failed,
            rejected=problems,
            info={"pipeline_stages": stages},
        )

    def run_checks(self, outcomes: list[Outcome]) -> list[str]:
        for i, outcome in enumerate(outcomes):
            for stages in outcome.info.get("pipeline_stages", ()):
                info = dict(stages)
                labels = info.get("aux-labels", {})
                labelled = sum(labels.get(k, 0) for k in ("single", "double", "triple"))
                if "three-colour-clique" not in info or labelled == 0:
                    return [
                        f"round {i}: a pipeline stopped before the three-colour-clique "
                        f"stage or labelled no pair ({[name for name, _ in stages]})"
                    ]
        return []


def make(name: str, smoke: bool, seed: int, workdir: Path):
    cfg = CONFIGS[name]["smoke" if smoke else "main"]
    if name == "finder":
        return FinderWorkload(cfg, seed, workdir)
    digests = load_digests()[name]["smoke" if smoke else "main"]
    if name == "lift-sweep":
        return LiftSweepWorkload(cfg, seed, workdir, digests)
    return SearchWorkload(cfg, seed, workdir, digests)
