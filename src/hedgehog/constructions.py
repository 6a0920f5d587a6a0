"""Lower-bound colouring generators and lifts.

Random colourings, the scattered-clique search (every t-clique shows all q
colours), and the four ways of lifting graph or triple colourings to higher
uniformity: the missing-colour complement lift, the monochromatic-triangle
quad lift, the colour-set quad lift, and lexicographic products.  All
randomness is seeded and every search returns a SearchReport alongside its
result, so certificates are reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import extractors, verifiers
from .core import (
    BLUE,
    CompleteColouring,
    GREEN,
    InfeasibleSpec,
    InvalidArgument,
    MAX_VERTICES,
    PreconditionViolated,
    RED,
    SearchReport,
    ToolkitError,
    YELLOW,
    binomial_column,
    check_colouring_shape,
    check_seed,
    iter_slabs,
    matrix_colouring,
    pair_arrays,
    random_matrix,
)


def random_colouring(n: int, k: int, q: int, seed: int) -> CompleteColouring:
    """Each edge i.i.d. uniform on [0, q) from a PCG64 stream; a fixed seed
    gives a byte-identical colouring on every run."""
    # check the shape and seed before C(n, k) bytes are allocated
    check_colouring_shape(n, k, q)
    check_seed(seed)
    rng = np.random.default_rng(seed)
    colours = rng.integers(0, q, size=math.comb(n, k), dtype=np.uint8)
    return CompleteColouring(n=n, k=k, q=q, colours=colours)


# ---------------------------------------------------------------------------
# scattered colourings: every t-clique contains all q colours


@dataclass(frozen=True)
class ScatteredColouringSpec:
    n: int
    t: int
    q: int
    seed: int
    max_tries: int = 20
    search_mode: str = "local-search"  # or "rejection"
    max_steps: int = 20000


def deficient_clique(mat, t: int, q: int) -> tuple[int, list[int]] | None:
    """A t-clique of the symmetric colour matrix mat missing some colour, as
    (missing colour, clique), or None.  Scans colours in index order and
    cliques in lexicographic order, so the outcome is deterministic."""
    classes = extractors.colour_adjacency(mat, q)
    for colour in range(q):
        others = [c for c in range(q) if c != colour]
        adj = extractors.union_adjacency(classes, others)
        clique = extractors.lex_first_clique([adj], len(mat), t)
        if clique is not None:
            return colour, clique
    return None


def _block_seed(rng: random.Random, n: int, t: int, q: int) -> list[list[int]]:
    """Structured restart state: one random partition of the vertices into
    t-1 near-equal blocks per colour; a pair takes a random colour among the
    partitions placing both ends in one block (scattered colourings are
    near-unions of such clique partitions)."""
    blocks_of = []
    parts = max(1, t - 1)
    for _ in range(q):
        verts = list(range(n))
        rng.shuffle(verts)
        assign = [0] * n
        for i, v in enumerate(verts):
            assign[v] = i % parts
        blocks_of.append(assign)
    mat = [[0] * n for _ in range(n)]
    for b in range(n):
        for a in range(b):
            options = [c for c in range(q) if blocks_of[c][a] == blocks_of[c][b]]
            mat[a][b] = mat[b][a] = (
                options[rng.randrange(len(options))] if options else rng.randrange(q)
            )
    return mat


def _move_delta(mat, n: int, t: int, u: int, v: int, new_colour: int) -> int:
    """Deficiencies created minus removed among t-cliques through {u, v} if
    that edge is recoloured: cliques where the old colour appeared only here
    become deficient, cliques missing the new colour stop being so."""
    old = mat[u][v]
    others = [w for w in range(n) if w not in (u, v)]
    delta = 0
    for cen in extractors.clique_censuses(mat, u, v, others, t):
        if not cen >> old & 1:
            delta += 1
        if new_colour != old and not cen >> new_colour & 1:
            delta -= 1
    return delta


def find_scattered_colouring(
    spec: ScatteredColouringSpec,
) -> tuple[CompleteColouring | None, SearchReport]:
    """Search for a graph colouring in which every t-clique sees all q
    colours.  Rejection mode draws fresh random colourings; local-search
    mode repairs a deficient clique per step by recolouring one of its edges
    to the missing colour (preferring edges whose colour is plentiful inside
    the clique), with seeded restarts.  Exhaustion is an outcome, not an
    error; any returned colouring has passed the independent exact check.
    """
    check_colouring_shape(spec.n, 2, spec.q)
    if math.comb(spec.t, 2) < spec.q:
        raise InfeasibleSpec(
            f"a {spec.t}-clique has {math.comb(spec.t, 2)} edges, fewer than q={spec.q}"
        )
    if spec.search_mode not in ("local-search", "rejection"):
        raise InvalidArgument(f"unknown search mode {spec.search_mode!r}")
    if spec.t > spec.n:
        raise InvalidArgument("t-cliques need t <= n")
    if spec.max_tries < 0 or spec.max_steps < 0:
        raise InvalidArgument(
            f"max_tries={spec.max_tries} and max_steps={spec.max_steps} "
            "must be non-negative"
        )
    n, t, q = spec.n, spec.t, spec.q
    rng = random.Random(spec.seed)
    report = SearchReport(
        operation="find-scattered-colouring",
        seed=spec.seed,
        outcome="exhausted",
        params={
            "n": n,
            "t": t,
            "q": q,
            "mode": spec.search_mode,
            "max_tries": spec.max_tries,
        },
    )

    def finish(mat) -> CompleteColouring:
        found = matrix_colouring(mat, q)
        check = verifiers.every_clique_all_colours(found, t, q)
        if check is not None:
            raise ToolkitError(f"search returned a deficient colouring: {check}")
        report.outcome = "found"
        return found

    for attempt in range(spec.max_tries):
        report.tries = attempt + 1
        if spec.search_mode == "rejection":
            mat = random_matrix(rng, n, range(q))
            if deficient_clique(mat, t, q) is None:
                return finish(mat), report
            continue
        # alternate structured and uniform restarts
        if attempt % 2 == 0:
            mat = _block_seed(rng, n, t, q)
        else:
            mat = random_matrix(rng, n, range(q))
        for _ in range(spec.max_steps):
            report.steps += 1
            bad = deficient_clique(mat, t, q)
            if bad is None:
                return finish(mat), report
            missing, clique = bad
            inside = list(combinations(sorted(clique), 2))
            if rng.random() < 0.08:
                u, v = inside[rng.randrange(len(inside))]
                mat[u][v] = mat[v][u] = missing
                continue
            best_pair = None
            best_delta = None
            order = inside.copy()
            rng.shuffle(order)
            for u, v in order:
                delta = _move_delta(mat, n, t, u, v, missing)
                if best_delta is None or delta < best_delta:
                    best_pair, best_delta = (u, v), delta
            u, v = best_pair
            mat[u][v] = mat[v][u] = missing
        # restart with a fresh state
    return None, report


# ---------------------------------------------------------------------------
# lifts


def complement_lift(
    graph: CompleteColouring, palette
) -> CompleteColouring:
    """Colour each triple by the smallest palette colour absent from its
    three edge colours (positions within the sorted palette index the output
    colours).  Requires that no triangle exhibits the entire palette; the
    offending triangle is reported otherwise."""
    if graph.k != 2:
        raise InvalidArgument("complement lift starts from a k=2 colouring")
    pal = sorted(set(int(p) for p in palette))
    if len(pal) < 2:
        raise InvalidArgument("palette needs at least two colours")
    n = graph.n
    cols = graph.colours
    # three edges show at most three colours, so the smallest absent
    # position is one of 0..3, or len(pal) when the whole palette shows
    bit = np.zeros(256, dtype=np.uint8)
    for pos, pc in enumerate(pal[:4]):
        if 0 <= pc < 256:
            bit[pc] = 1 << pos
    first_absent = np.array(
        [next(p for p in range(5) if not mask >> p & 1) for mask in range(16)],
        dtype=np.uint8,
    )
    shown = bit[cols]
    colours = np.empty(math.comb(n, 3), dtype=np.uint8)
    for top, start, (a, b) in iter_slabs(n, 3):
        m = len(a)
        row = shown[m : m + top]
        out = first_absent[shown[:m] | row[a] | row[b]]
        if (out >= len(pal)).any():
            i = int(np.argmax(out >= len(pal)))
            x, y = int(a[i]), int(b[i])
            edges = ((x, y), (x, top), (y, top))
            raise PreconditionViolated(
                f"triangle {(x, y, top)} carries every palette colour",
                witness=((x, y, top), tuple(graph.colour_of(e) for e in edges)),
            )
        colours[start : start + m] = out
    return CompleteColouring(n=n, k=3, q=len(pal), colours=colours)


def kr_quad_lift(graph: CompleteColouring) -> CompleteColouring:
    """Lift a 2-coloured graph to a 2-coloured 4-uniform colouring: a 4-set
    is blue when it has a blue triangle and no red one, red in every other
    case (red triangle present, both present, or neither; the fixed rule
    keeps certificates reproducible and preserves the construction's
    guarantee)."""
    if graph.k != 2 or graph.q != 2:
        raise InvalidArgument("quad lift starts from a 2-coloured graph")
    n = graph.n
    cols = graph.colours
    # a 4-set abcd is a 6-bit key: the edges ab, ac, bc of its lower triple
    # in bits 3..5, and the edges ad, bd, cd through its top d in bits 0..2
    rule = np.zeros(64, dtype=np.uint8)
    for key in range(64):
        ab, ac, bc, ad, bd, cd = (key >> s & 1 for s in (3, 4, 5, 0, 1, 2))
        triangles = ((ab, ac, bc), (ab, ad, bd), (ac, ad, cd), (bc, bd, cd))
        if (1, 1, 1) in triangles and (0, 0, 0) not in triangles:
            rule[key] = 1
    lower_key = np.empty(math.comb(n, 3), dtype=np.uint8)
    for top, start, (a, b) in iter_slabs(n, 3):
        m = len(a)
        row = cols[m : m + top]
        lower_key[start : start + m] = (cols[:m] | row[a] << 1 | row[b] << 2) << 3
    colours = np.empty(math.comb(n, 4), dtype=np.uint8)
    for top, start, (a, b, c) in iter_slabs(n, 4):
        m = len(a)
        row = cols[math.comb(top, 2) : math.comb(top + 1, 2)]
        key = lower_key[:m] | row[a] | row[b] << 1 | row[c] << 2
        colours[start : start + m] = rule[key]
    return CompleteColouring(n=n, k=4, q=2, colours=colours)


def quad_set_lift_colour_count(q: int) -> int:
    """Output palette size: nonempty subsets of [q] with at most 4 elements."""
    return sum(math.comb(q, i) for i in range(1, 5))


def quad_set_lift(triples: CompleteColouring) -> CompleteColouring:
    """Colour each 4-set by the set of colours its four triples carry,
    encoded as the rank of that subset among nonempty <=4-subsets of [q]
    ordered by (size, colex).  Limited to q <= 8 by the one-byte colour
    budget."""
    if triples.k != 3:
        raise InvalidArgument("set lift starts from a k=3 colouring")
    if triples.q > 8:
        raise InvalidArgument("set lift supports q <= 8 (one-byte colours)")
    q = triples.q
    subset_index = np.full(1 << q, 255, dtype=np.uint8)
    ordered = sorted(
        (m for m in range(1, 1 << q) if bin(m).count("1") <= 4),
        key=lambda m: (bin(m).count("1"), m),
    )
    for i, m in enumerate(ordered):
        subset_index[m] = i
    n = triples.n
    shown = np.left_shift(1, triples.colours, dtype=np.uint8)
    # for every triple abc, the colex ranks of its pairs ab, ac and bc: in
    # the slab of a top d > c they index the triples abd, acd and bcd
    pair_ranks = np.empty((3, math.comb(n, 3)), dtype=np.int32)
    for top, start, (a, b) in iter_slabs(n, 3):
        m = len(a)
        pair_ranks[:, start : start + m] = (np.arange(m), m + a, m + b)
    colours = np.empty(math.comb(n, 4), dtype=np.uint8)
    for top, start, lower in iter_slabs(n, 4):
        m = len(lower[0])
        slab = shown[math.comb(top, 3) : math.comb(top + 1, 3)]
        ab, ac, bc = pair_ranks[:, :m]
        mask = shown[:m] | slab[ab] | slab[ac] | slab[bc]
        colours[start : start + m] = subset_index[mask]
    return CompleteColouring(
        n=n, k=4, q=quad_set_lift_colour_count(q), colours=colours
    )


def lex_product(
    outer: CompleteColouring, inner: CompleteColouring
) -> CompleteColouring:
    """Lexicographic product of graph colourings: vertex (a, i) becomes
    a * p + i; an edge takes the outer colour of its block pair when the
    blocks differ, else the inner colour.  Associative up to relabelling."""
    if outer.k != 2 or inner.k != 2:
        raise InvalidArgument("lexicographic product needs k=2 colourings")
    if outer.q != inner.q:
        raise InvalidArgument("factors must share one colour universe")
    m, p = outer.n, inner.n
    n = m * p
    a, b = pair_arrays(n)
    block_a = a // p
    block_b = b // p
    within_a = a % p
    within_b = b % p
    c2 = binomial_column(2)
    same = block_a == block_b
    inner_rank = c2[within_b] + within_a  # valid wherever same holds
    outer_rank = c2[block_b] + block_a  # valid wherever blocks differ
    colours = np.empty(len(a), dtype=np.uint8)
    colours[same] = inner.colours[inner_rank[same]]
    colours[~same] = outer.colours[outer_rank[~same]]
    return CompleteColouring(n=n, k=2, q=outer.q, colours=colours)


# ---------------------------------------------------------------------------
# rainbow-free product witness


def _factor_palettes() -> list[tuple[int, int, int]]:
    return [(RED, BLUE, YELLOW), (RED, GREEN, YELLOW), (BLUE, GREEN, YELLOW)]


def gallai_lower_bound_witness(t: int, seed: int) -> tuple[CompleteColouring, SearchReport]:
    """Lexicographic product of three random 3-colourings, one per
    yellow-containing colour triple, each base checked to keep every
    two-colour union free of cliques of order max(3, ceil(4 ln t)).

    Base graphs have max(2, floor(t / (16 ln^2 t))) vertices (the asymptotic
    constant is meaningless at desk scale, so the size is floor-clamped).
    A t whose product would exceed MAX_VERTICES is refused before any draw.
    A union graph on base_size vertices has no larger clique, and base_size
    is below the clique order for every t whose product fits, so one draw
    per palette passes; the check raises ToolkitError otherwise.
    The product is checked rainbow-free in red/blue/green, and the report
    carries the largest clique using at most 3 of the 4 colours and the
    resulting bound s (no s-clique on <= 3 colours exists).  That number is
    exact without a search on the product: a colour set's union graph in a
    lexicographic product is the product of the factors' union graphs, and
    omega(G[H]) = omega(G) * omega(H) (Geller and Stahl, JCTB 19, 1975).
    Each factor's clique numbers are its base check's, plus base_size for
    its own palette, whose union graph is complete.
    """
    if t < 2:
        raise InvalidArgument("t must be at least 2")
    base_size = max(2, int(t / (16 * math.log(t) ** 2)))
    clique_cap = max(3, math.ceil(4 * math.log(t)))
    if base_size**3 > MAX_VERTICES:
        raise InvalidArgument(f"n={base_size**3} exceeds MAX_VERTICES={MAX_VERTICES}")
    rng = random.Random(seed)
    report = SearchReport(
        operation="gallai-lower-bound-witness",
        seed=seed,
        outcome="found",
        params={"t": t, "base_size": base_size, "clique_cap": clique_cap},
    )

    factors = []
    # per factor: colour set (a sorted tuple) -> clique number of its union graph
    omegas = []
    for palette in _factor_palettes():
        report.tries += 1
        mat = random_matrix(rng, base_size, palette)
        classes = extractors.colour_adjacency(mat, 4)
        omega = {
            pair: len(extractors.max_clique(extractors.union_adjacency(classes, pair), base_size))
            for pair in combinations(palette, 2)
        }
        if max(omega.values()) >= clique_cap:
            raise ToolkitError(
                f"base for palette {palette} has a {max(omega.values())}-clique "
                f"in a two-colour union, at or above the cap {clique_cap}"
            )
        factors.append(matrix_colouring(mat, 4))
        omegas.append({**omega, palette: base_size})

    product = lex_product(factors[0], lex_product(factors[1], factors[2]))
    rainbow = verifiers.rainbow_triangle_free(product, (RED, BLUE, GREEN))
    if rainbow is not None:
        raise ToolkitError(f"product contains a rainbow triangle {rainbow}")

    # two 3-sets of the 4 colours share 2 or 3 colours, so every key exists
    largest = max(
        math.prod(
            omega[tuple(c for c in palette if c in triple)]
            for palette, omega in zip(_factor_palettes(), omegas)
        )
        for triple in combinations(range(4), 3)
    )
    report.details.update(
        {
            "n": product.n,
            "max_three_colour_clique": largest,
            "clique_free_order": largest + 1,
            "colours_used": len(product.used_colours()),
        }
    )
    return product, report
