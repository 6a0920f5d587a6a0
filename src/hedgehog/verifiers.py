"""Exact, independent checkers for every certificate the toolkit emits.

Nothing in this module calls into the construction / finder / extractor
code it is meant to police; the only shared code is the core substrate
(ranking, the slab walk, the colouring container and its dense colour
matrix, and the first-use colouring search).  The rainbow scan and the
complement-lift check run per slab on numpy arrays, the latter over that
matrix with a different formula from the lift's own kernel.  One hedgehog
body search serves the existence oracle and the exhaustive small-Ramsey
search, which is the core's first-use search pruned by that body search
around each newly coloured triple; the other checks are plain loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (
    DEFAULT_NODE_BUDGET,
    CliqueWitness,
    CompleteColouring,
    HedgehogEmbedding,
    InvalidArgument,
    RefusedInstance,
    ToolkitError,
    check_colouring_shape,
    first_use_search,
    graph_colour_matrix,
    hedgehog_shape,
    iter_slabs,
    rank_subset,
)


# ---------------------------------------------------------------------------
# embedding certificates


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    pair: tuple[int, ...] | None = None

    def __str__(self):
        return f"{self.kind}: {self.message}"


def verify_embedding(
    emb: HedgehogEmbedding, colouring: CompleteColouring
) -> Violation | None:
    """Check a hedgehog embedding against its host colouring.

    Returns None when the certificate is sound, otherwise a Violation naming
    the first failing check (and pair, where one is implicated).
    """
    n, k = colouring.n, colouring.k
    t = len(emb.body)
    if t < k - 1:
        return Violation("shape", f"body of size {t} too small for k={k}")
    if len(set(emb.body)) != t:
        return Violation("body", "body vertices are not pairwise distinct")
    if any(not 0 <= v < n for v in emb.body):
        return Violation("body", "body vertex out of range")
    if not 0 <= emb.colour < colouring.q:
        return Violation("colour", f"colour {emb.colour} out of range")

    body_sorted = tuple(sorted(emb.body))
    expected = {tuple(s) for s in combinations(body_sorted, k - 1)}
    got = set(emb.spines)
    if got != expected:
        missing = expected - got
        extra = got - expected
        which = next(iter(missing or extra))
        return Violation("spine-map", "spine map keys do not match body pairs", which)

    body_set = set(emb.body)
    seen: dict[int, tuple[int, ...]] = {}
    for sub in sorted(emb.spines, key=rank_subset):
        w = emb.spines[sub]
        if not 0 <= w < n:
            return Violation("spine-range", f"spine {w} out of range", sub)
        if w in body_set:
            return Violation("disjointness", f"spine {w} lies in the body", sub)
        if w in seen:
            return Violation(
                "injectivity", f"spine {w} reused by {seen[w]} and {sub}", sub
            )
        seen[w] = sub
    for sub in sorted(emb.spines, key=rank_subset):
        w = emb.spines[sub]
        edge = tuple(sorted(sub + (w,)))
        c = colouring.colour_of(edge)
        if c != emb.colour:
            return Violation(
                "colour",
                f"edge {edge} has colour {c}, expected {emb.colour}",
                sub,
            )
    return None


def verify_clique_census(
    witness: CliqueWitness,
    colouring: CompleteColouring,
    max_colours: int | None = None,
    min_size: int | None = None,
) -> Violation | None:
    """Check a clique witness: distinct in-range vertices, exact colour census,
    and optional size / census-size requirements."""
    if colouring.k != 2:
        return Violation("input", "clique witnesses live in k=2 colourings")
    verts = witness.vertices
    if len(set(verts)) != len(verts):
        return Violation("vertices", "clique vertices are not distinct")
    if any(not 0 <= v < colouring.n for v in verts):
        return Violation("vertices", "clique vertex out of range")
    census = set()
    for u, v in combinations(sorted(verts), 2):
        census.add(colouring.colour_of((u, v)))
    if census != set(witness.colours):
        return Violation(
            "census", f"claimed colours {sorted(witness.colours)}, actual {sorted(census)}"
        )
    if max_colours is not None and len(census) > max_colours:
        return Violation("census", f"{len(census)} colours exceed limit {max_colours}")
    if min_size is not None and len(verts) < min_size:
        return Violation("size", f"clique of size {len(verts)} below {min_size}")
    return None


# ---------------------------------------------------------------------------
# exact hedgehog-existence oracle


def _augment(pair_idx, masks, match_of, assigned, visited):
    # augmenting path search for pair -> spine-vertex matching
    m = masks[pair_idx]
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        if v in visited:
            continue
        visited.add(v)
        holder = match_of.get(v)
        if holder is None or _augment(holder, masks, match_of, assigned, visited):
            match_of[v] = pair_idx
            assigned[pair_idx] = v
            return True
    return False


def _spine_matching(masks: list[int]) -> list[int] | None:
    """Perfect matching of pairs to spine vertices, or None.

    masks[i] is a bitmask of vertices usable as the i-th pair's spine.
    Pairs are processed scarcest-first.
    """
    order = sorted(range(len(masks)), key=lambda i: masks[i].bit_count())
    match_of: dict[int, int] = {}
    assigned: dict[int, int] = {}
    for i in order:
        if not _augment(i, masks, match_of, assigned, set()):
            return None
    return [assigned[i] for i in range(len(masks))]


def _spine_candidates(colouring: CompleteColouring, colour: int):
    """For every (k-1)-subset, as a sorted tuple, the bitmask of the w
    completing an edge of the given colour; subsets with no such w are
    absent.  One slab walk finds the edges of the colour."""
    n, k = colouring.n, colouring.k
    if k not in (3, 4):
        raise InvalidArgument(f"hedgehog oracle supports k in (3, 4), got k={k}")
    cand: dict[tuple[int, ...], int] = {}
    for top, start, lower in iter_slabs(n, k):
        hits = np.flatnonzero(colouring.colours[start : start + len(lower[0])] == colour)
        for low in zip(*(arr[hits].tolist() for arr in lower)):
            edge = low + (top,)
            for i, w in enumerate(edge):
                sub = edge[:i] + edge[i + 1 :]
                cand[sub] = cand.get(sub, 0) | 1 << w
    return cand


def _first_hedgehog(cand, n: int, t: int, k: int, fixed=(), banned: int = 0):
    """The first hedgehog body of size t on [n], with its spines, that holds
    the vertices `fixed` (in increasing order) and none of the bitmask
    `banned`; the other body vertices are taken in lexicographic order.
    cand maps a sorted (k-1)-tuple to the bitmask of its spine candidates.

    A branch dies as soon as some (k-1)-subset of the body has no candidate
    left outside the body (no extension gives it one back).  A complete body
    passes a Hall count, its candidates' union against its subset count,
    before maximum bipartite matching decides it; unlike the finder's greedy
    the matching is exact, so a None answer is exhaustive.  Returns (body,
    spines) with the body sorted, or None.
    """
    spines_of = cand.get
    inside = 0
    for v in fixed:
        inside |= 1 << v
    blocked = inside | banned
    pool = [v for v in range(n) if not blocked >> v & 1]

    def settle(body, masks):
        # masks: the candidates outside the complete body of its
        # (k-1)-subsets in order; an empty one fails the matching
        union = 0
        for free in masks:
            union |= free
        if union.bit_count() < len(masks):
            return None
        chosen = _spine_matching(masks)
        if chosen is None:
            return None
        return tuple(body), dict(zip(combinations(body, k - 1), chosen))

    def grow(body, inside, start):
        last = len(body) + 1 == t
        for i in range(start, len(pool) - (t - len(body)) + 1):
            v = pool[i]
            probe = inside | 1 << v
            outside = ~probe
            order = sorted(body + [v])
            masks = []
            for sub in combinations(order, k - 1):
                free = spines_of(sub, 0) & outside
                if not free:
                    break
                masks.append(free)
            else:
                found = settle(order, masks) if last else grow(order, probe, i + 1)
                if found is not None:
                    return found
        return None

    body = list(fixed)
    if len(body) < t:
        return grow(body, inside, 0)
    return settle(body, [spines_of(sub, 0) & ~inside for sub in combinations(body, k - 1)])


def has_monochromatic_hedgehog(
    colouring: CompleteColouring, t: int, colour: int
) -> HedgehogEmbedding | None:
    """Exact decision: does the colouring contain a monochromatic hedgehog of
    body size t in the given colour?  Returns the lexicographically first
    body's embedding, or None after an exhaustive search."""
    n, k = colouring.n, colouring.k
    shape = hedgehog_shape(t, k)
    if n < shape.vertex_count:
        return None
    found = _first_hedgehog(_spine_candidates(colouring, colour), n, t, k)
    if found is None:
        return None
    body, spines = found
    return HedgehogEmbedding(colour=colour, body=body, spines=spines)


# ---------------------------------------------------------------------------
# graph-colouring checks


def rainbow_triangle_free(
    colouring: CompleteColouring, palette
) -> tuple[int, int, int] | None:
    """Scan every triangle; report the first whose edge-colour set equals the
    3-colour palette, or None if there is none."""
    if colouring.k != 2:
        raise InvalidArgument("rainbow check needs a k=2 colouring")
    pal = sorted(set(palette))
    if len(pal) != 3:
        raise InvalidArgument(f"palette {palette} is not three distinct colours")
    # an edge colour's palette bit; a triangle is rainbow when its three
    # edges show all three bits
    bit = np.zeros(256, dtype=np.uint8)
    for pos, pc in enumerate(pal):
        if 0 <= pc < 256:
            bit[pc] = 1 << pos
    shown = bit[colouring.colours]
    for top, _, (a, b) in iter_slabs(colouring.n, 3):
        m = len(a)
        row = shown[m : m + top]
        hit = (shown[:m] | row[a] | row[b]) == 0b111
        if hit.any():
            i = int(np.argmax(hit))
            return (int(a[i]), int(b[i]), top)
    return None


def every_clique_all_colours(
    colouring: CompleteColouring, t: int, q: int | None = None
) -> CliqueWitness | None:
    """Search for a t-clique whose edges miss some colour.

    Backtracks over vertex subsets, pruning any branch whose colour census is
    already complete (no extension can become deficient).  Returns a
    deficient clique as a witness, or None, exhaustively.
    """
    if colouring.k != 2:
        raise InvalidArgument("clique colour check needs a k=2 colouring")
    if q is None:
        q = colouring.q
    if q < 1:
        raise InvalidArgument(f"colour count q={q} is below 1")
    if t < 1:
        raise InvalidArgument(f"clique size t={t} is below 1")
    n = colouring.n
    if t > n:
        return None
    full = (1 << q) - 1
    mat = graph_colour_matrix(colouring).tolist()

    members: list[int] = []

    def rec(census: int, start: int) -> CliqueWitness | None:
        if len(members) == t:
            colours = frozenset(i for i in range(q) if census >> i & 1)
            return CliqueWitness(tuple(members), colours)
        for v in range(start, n - (t - len(members)) + 1):
            cen = census
            for u in members:
                cen |= 1 << mat[u][v]
            if cen == full:
                # census only grows: no extension can become deficient
                continue
            members.append(v)
            found = rec(cen, v + 1)
            members.pop()
            if found is not None:
                return found
        return None

    return rec(0, 0)


@dataclass(frozen=True)
class FWitness:
    """A 4-colouring certifying F(t) > n: rainbow-free in red/blue/green and
    with no t-clique using at most 3 colours.  Both flags come from exact
    checks."""

    t: int
    colouring: CompleteColouring
    rainbow_free: bool
    no_small_palette_clique: bool

    @property
    def valid(self) -> bool:
        return self.rainbow_free and self.no_small_palette_clique


def verify_f_witness(col: CompleteColouring, t: int) -> FWitness:
    """Check an F-witness with the two graph-colouring checks above: in a
    4-colouring a t-clique on at most 3 colours is one missing a colour."""
    if col.k != 2 or col.q != 4:
        raise InvalidArgument("an F-witness is a k=2, q=4 colouring")
    if t < 1:
        raise InvalidArgument("clique size must be positive")
    return FWitness(
        t=t,
        colouring=col,
        rainbow_free=rainbow_triangle_free(col, (0, 1, 2)) is None,
        no_small_palette_clique=every_clique_all_colours(col, t, 4) is None,
    )


def verify_complement_lift(
    lifted: CompleteColouring,
    base: CompleteColouring,
    palette,
) -> Violation | None:
    """Recheck that the lifted colouring assigns every triple the position of
    the smallest palette colour absent from its three base edge colours.

    Independent of the lift: the edge colours come from the dense colour
    matrix, and the wanted position is recomputed per slab by a masked
    assignment over the palette from high to low, -1 meaning none is absent.
    Reports the colex-first bad triple, a full-palette triangle before a
    wrong lift colour.
    """
    if base.k != 2 or lifted.k != 3 or lifted.n != base.n:
        return Violation("input", "lift/base shapes do not match")
    pal = sorted(set(palette))
    if lifted.q != len(pal):
        return Violation("input", f"lift q={lifted.q} != palette size {len(pal)}")
    mat = graph_colour_matrix(base)
    cols = lifted.colours
    for top, start, (a, b) in iter_slabs(base.n, 3):
        e_ab, e_at, e_bt = mat[a, b], mat[a, top], mat[b, top]
        want = np.full(len(a), -1, dtype=np.int16)
        for pos in range(len(pal) - 1, -1, -1):
            pc = pal[pos]
            if not 0 <= pc < 256:
                # never an edge colour, so absent from every triangle
                want.fill(pos)
                continue
            pc = np.uint8(pc)
            want[(e_ab != pc) & (e_at != pc) & (e_bt != pc)] = pos
        got = cols[start : start + len(a)]
        bad = got != want  # a full-palette triangle's -1 matches no colour
        if bad.any():
            i = int(np.argmax(bad))
            tri = (int(a[i]), int(b[i]), top)
            if want[i] < 0:
                return Violation("palette", f"triangle {tri} uses the whole palette", tri)
            return Violation(
                "lift", f"triple {tri} coloured {int(got[i])}, expected {int(want[i])}", tri
            )
    return None


# ---------------------------------------------------------------------------
# exhaustive small-scale Ramsey computation


@dataclass
class RamseyCheckResult:
    t: int
    q: int
    n: int
    holds: bool
    counterexample: CompleteColouring | None
    checked: int
    total: int

    def __str__(self):
        verdict = "holds" if self.holds else "counterexample"
        return (
            f"ramsey-check t={self.t} q={self.q} n={self.n}: {verdict} "
            f"({self.checked} of {self.total} colourings checked)"
        )


# the search keeps one stack frame per coloured triple, so it takes at most
# C(18, 3) triples: deep enough for n = 7, well inside the recursion limit
MAX_RAMSEY_TRIPLES = math.comb(18, 3)


def exhaustive_ramsey_check(
    t: int, q: int, n: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> RamseyCheckResult:
    """Decide by exhaustion whether every q-colouring of the complete
    3-uniform hypergraph on [n] contains a monochromatic body-size-t
    hedgehog.  Returns the first hedgehog-free colouring in scan order, else
    holds.

    The scan reads a colouring as the base-q number whose digit r is the
    colour of the triple with colex rank r, and `checked` counts it up to
    the counterexample.  The search colours triples from the highest rank
    down, colour 0 first, so it meets colourings in scan order; it drops a
    branch once its new triple completes a hedgehog (no extension loses
    it), and drops colour permutations by first use (the smallest colouring
    of an orbit is its first-use form).  Its first leaf is therefore the
    scan's first counterexample, which for q=2 has top digit 0.  A "holds"
    verdict counts the whole scan (for q=2 half the colourings: a colour
    swap fixes the top digit).

    Instances of more than MAX_RAMSEY_TRIPLES triples (n > 18) are refused
    before any work, and so is a search that passes `node_budget` nodes.
    """
    shape = hedgehog_shape(t, 3)
    if q < 1 or n < 0:
        raise InvalidArgument(f"need q >= 1 and n >= 0, got q={q} n={n}")
    if node_budget < 0:
        raise InvalidArgument(f"node budget {node_budget} is negative")
    m = math.comb(n, 3)
    if m > MAX_RAMSEY_TRIPLES:
        raise RefusedInstance(
            f"{m} triples on n={n} vertices exceed the search's "
            f"{MAX_RAMSEY_TRIPLES} (n <= 18)"
        )
    check_colouring_shape(n, 3, q)
    # with no room for a hedgehog every colouring is hedgehog-free
    fits = n >= shape.vertex_count
    total = q**m
    # for q=2 the indices with top digit 0 represent both swap classes
    scan = total // 2 if q == 2 and m > 0 else total

    triples = [(a, b, c) for c in range(n) for b in range(c) for a in range(b)]
    triples.reverse()
    # cand[colour][(u, v)]: bitmask of the w with {u, v, w} coloured so far
    # in that colour, i.e. the spine candidates of the pair u < v; a triple
    # owns its three bits, so placing and undoing it both flip them
    cand = [dict.fromkeys(combinations(range(n), 2), 0) for _ in range(q)]
    spine_bits = [
        (((a, b), 1 << c), ((a, c), 1 << b), ((b, c), 1 << a)) for a, b, c in triples
    ]

    def flip(step: int, colour: int) -> None:
        masks = cand[colour]
        for pair, bit in spine_bits[step]:
            masks[pair] ^= bit

    def place(step: int, colour: int) -> bool:
        # the colouring had no hedgehog before this triple, so a hedgehog now
        # has two of its vertices x < y in the body and the third, z, outside
        flip(step, colour)
        if not fits:
            return True
        a, b, c = triples[step]
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            if _first_hedgehog(cand[colour], n, t, 3, (x, y), 1 << z) is not None:
                flip(step, colour)
                return False
        return True

    status, found, nodes = first_use_search(m, q, q, place, flip, node_budget)
    if status == "budget":
        raise RefusedInstance(
            f"node budget {node_budget} exhausted after {nodes} search nodes "
            f"(t={t} q={q} n={n})"
        )
    if status == "none":
        return RamseyCheckResult(t, q, n, True, None, scan, total)
    index = 0
    for colour in found:  # highest rank first: the most significant digit
        index = index * q + colour
    witness = CompleteColouring(n, 3, q, np.array(found[::-1], dtype=np.uint8))
    # cross-validate with the per-colouring oracle before reporting
    for colour in range(q):
        if has_monochromatic_hedgehog(witness, t, colour) is not None:
            raise ToolkitError(
                f"first-use search and hedgehog oracle disagree on "
                f"colouring {index} in colour {colour}"
            )
    return RamseyCheckResult(t, q, n, False, witness, index + 1, total)
