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
from functools import lru_cache
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
    RefusedInstance,
    SearchReport,
    ToolkitError,
    YELLOW,
    binomial_column,
    check_colouring_shape,
    check_seed,
    iter_slabs,
    matrix_colouring,
    pair_arrays,
    pair_rank,
    random_matrix,
    unrank_subset,
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


# the most pair-index entries, C(n, t) * C(t, 2), a scattered search's
# count table may hold; larger instances are refused before the first draw
SCATTERED_TABLE_LIMIT = 1 << 24


@lru_cache(maxsize=4)
def _pair_rows(n: int, t: int) -> np.ndarray:
    """Row p lists, ascending, the lexicographic ranks of the t-subsets of
    [n] that hold the pair of colex rank p: C(n - 2, t - 2) per pair.

    The sorted t-subset s_0 < ... < s_{t-1} has lexicographic rank
    C(n, t) - 1 - sum_j C(n - 1 - s_j, t - j).  Through the pair {a, b} it
    is a rest of t - 2 other vertices with a and b slotted in: the rest's
    i-th vertex, x_i by position among the others, is x_i + d at place
    i + d, where d counts which of a and b lie below it.  So every term is
    read off prefix sums over the rest, per value of d, in one gather per
    pair and rest.
    """
    if t < 2:  # no t-subset holds a pair
        return np.empty((math.comb(n, 2), 0), dtype=np.int32)
    top = math.comb(n, t) - 1
    # C(m, k) clipped at top: a rank's terms sum to at most top, so the
    # clip only touches entries no rank reads
    binom = np.array(
        [[min(math.comb(m, k), top) for k in range(t + 1)] for m in range(n)],
        dtype=np.int64,
    ).reshape(n, t + 1)
    rests = list(combinations(range(n - 2), t - 2))
    x = np.array(rests, dtype=np.int64).reshape(len(rests), t - 2)
    place = np.arange(t - 2)
    # prefix[d][:, i]: the terms of the rest's first i vertices when d of a
    # and b lie below each
    prefix = [
        np.cumsum(np.pad(binom[n - 1 - x - d, t - place - d], ((0, 0), (1, 0))), axis=1)
        for d in range(3)
    ]
    split = prefix[0] - prefix[1]
    # below[:, v]: the rest vertices under v, so a sits at place below[:, a]
    # and b at place below[:, b - 1] + 1
    below = (x[:, :, None] < np.arange(n)).sum(axis=1)
    k = np.arange(len(rests))
    rows = np.empty((math.comb(n, 2), len(rests)), dtype=np.int32)
    for b in range(1, n):
        ka, kb = below[:, :b], below[:, b - 1]  # every pair {a, b} below b at once
        b_part = prefix[1][k, kb] + prefix[2][:, -1] - prefix[2][k, kb]
        b_part += binom[n - 1 - b, t - 1 - kb]
        a_part = np.take_along_axis(split, ka, axis=1) + binom[n - 1 - np.arange(b), t - ka]
        start = math.comb(b, 2)
        rows[start : start + b] = (top - b_part[:, None] - a_part).T
    rows.setflags(write=False)  # one cached layout serves every table
    return rows


class _CountTable:
    """How often each colour shows on the C(t, 2) edges of every t-subset of
    [n] under a colour matrix, one row per t-subset in lexicographic order.
    A recolour updates only the C(n - 2, t - 2) rows through its edge."""

    def __init__(self, mat, t: int, q: int):
        self.n, self.t = len(mat), t
        self.rows = _pair_rows(self.n, t)
        colours = matrix_colouring(mat, q).colours
        self.counts = np.zeros((math.comb(self.n, t), q), dtype=np.int32)
        for c in range(q):
            self.counts[:, c] = np.bincount(
                self.rows[colours == c].ravel(), minlength=len(self.counts)
            )

    def deficient(self) -> tuple[int, list[int]] | None:
        """The first t-clique missing a colour, as (missing colour, clique):
        colours in index order, cliques in lexicographic order; or None."""
        hits = np.flatnonzero((self.counts == 0).T)
        if not len(hits):
            return None
        colour, row = divmod(int(hits[0]), len(self.counts))
        # lexicographic rank r is colex rank C(n, t) - 1 - r of the reflection
        reflected = unrank_subset(len(self.counts) - 1 - row, self.n, self.t)
        return colour, sorted(self.n - 1 - x for x in reflected)

    def deltas(self, mat, pairs, colour: int) -> np.ndarray:
        """For each pair {u, v}, u < v, the deficient t-cliques created minus
        those removed if that edge took the colour: cliques where its old
        colour shows only on it become deficient, cliques missing the colour
        stop being so."""
        through = self.rows[[pair_rank(u, v) for u, v in pairs]]
        old = np.array([mat[u][v] for u, v in pairs]).reshape(-1, 1)
        created = (self.counts[through, old] == 1).sum(axis=1)
        return created - (self.counts[through, colour] == 0).sum(axis=1)

    def recolour(self, mat, u: int, v: int, colour: int) -> None:
        """Give the edge {u, v}, u < v, the colour in mat and in the counts."""
        through = self.rows[pair_rank(u, v)]
        self.counts[through, mat[u][v]] -= 1
        self.counts[through, colour] += 1
        mat[u][v] = mat[v][u] = colour


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


def find_scattered_colouring(
    spec: ScatteredColouringSpec,
) -> tuple[CompleteColouring | None, SearchReport]:
    """Search for a graph colouring in which every t-clique sees all q
    colours.  Rejection mode draws fresh random colourings; local-search
    mode repairs a deficient clique per step by recolouring one of its edges
    to the missing colour (preferring edges whose colour is plentiful inside
    the clique), with seeded restarts.  Exhaustion is an outcome, not an
    error; any returned colouring has passed the independent exact check.
    Both modes read the cliques off a colour-count table; an instance whose
    table would exceed SCATTERED_TABLE_LIMIT entries is refused before the
    first draw.
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
    entries = math.comb(n, t) * math.comb(t, 2)
    if entries > SCATTERED_TABLE_LIMIT:
        raise RefusedInstance(
            f"a scattered search at n={n}, t={t} needs {entries} count-table "
            f"entries, above the limit {SCATTERED_TABLE_LIMIT}"
        )
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
            if _CountTable(mat, t, q).deficient() is None:
                return finish(mat), report
            continue
        # alternate structured and uniform restarts
        if attempt % 2 == 0:
            mat = _block_seed(rng, n, t, q)
        else:
            mat = random_matrix(rng, n, range(q))
        table = _CountTable(mat, t, q)
        for _ in range(spec.max_steps):
            report.steps += 1
            bad = table.deficient()
            if bad is None:
                return finish(mat), report
            missing, clique = bad
            inside = list(combinations(clique, 2))
            if rng.random() < 0.08:
                u, v = inside[rng.randrange(len(inside))]
                table.recolour(mat, u, v, missing)
                continue
            order = inside.copy()
            rng.shuffle(order)
            # the first least delta, as a scan keeping strict improvements
            u, v = order[int(np.argmin(table.deltas(mat, order, missing)))]
            table.recolour(mat, u, v, missing)
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
    pair_ranks = np.empty((3, math.comb(n, 3)), dtype=np.intp)
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
