"""Extraction lemmas and the three-colour pipeline.

Contains the probabilistic-deletion independent set extractor for sparse
3-uniform hypergraphs, the two-coloured-clique extractor for rainbow-free
3-colourings, an exact search for cliques using at most three of four
colours, the oracle for the threshold F(t) (the least n forcing every
4-colouring to contain a red/blue/green rainbow triangle or a t-clique with
at most 3 colours), and the staged pipeline that turns a 3-colouring of the
complete 3-uniform hypergraph into a verified monochromatic hedgehog.  The
oracle's exhaustive decisions run on the core's first-use colouring search,
one count of the obstructions through an edge serves that search's prune
and the local search's bad edges and move scores, and its witnesses are
checked by the verifiers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import finder, verifiers
from .core import (
    DEFAULT_NODE_BUDGET,
    CliqueWitness,
    CompleteColouring,
    GuaranteeViolated,
    HedgehogEmbedding,
    InvalidArgument,
    StagedFailure,
    ToolkitError,
    check_seed,
    first_use_search,
    graph_colour_matrix,
    hedgehog_shape,
    iter_slabs,
    matrix_colouring,
    random_matrix,
)

RBG = (0, 1, 2)
YELLOW = 3


# ---------------------------------------------------------------------------
# exact maximum clique (bitset branch and bound with greedy colouring bound)


def max_clique(adj: list[int], n: int) -> list[int]:
    """Exact maximum clique of the graph given by adjacency bitmasks."""
    best: list[int] = []
    if n == 0:
        return best

    # warm start: greedy clique through vertices by descending degree
    by_degree = sorted(range(n), key=lambda v: -bin(adj[v]).count("1"))
    mask = 0
    for v in by_degree:
        if adj[v] & mask == mask:
            mask |= 1 << v
            best.append(v)

    current: list[int] = []

    def expand(cand: int):
        nonlocal best
        order: list[int] = []
        bounds: list[int] = []
        colour = 0
        p = cand
        while p:
            colour += 1
            avail = p
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~(1 << v)
                avail &= ~adj[v]
                p &= ~(1 << v)
                order.append(v)
                bounds.append(colour)
        prefix = cand
        for i in range(len(order) - 1, -1, -1):
            if len(current) + bounds[i] <= len(best):
                return
            v = order[i]
            prefix &= ~(1 << v)
            current.append(v)
            nxt = prefix & adj[v]
            if nxt:
                expand(nxt)
            elif len(current) > len(best):
                best = current.copy()
            current.pop()

    expand((1 << n) - 1)
    return sorted(best)


def lex_first_clique(adjs: list[list[int]], n: int, s: int) -> list[int] | None:
    """First s-set in lexicographic order that is a clique of at least one of
    the graphs given by adjacency bitmasks, or None (exhaustive).

    The graphs are searched in lockstep: a branch lives while it is a clique
    with enough common neighbours above its last vertex in some graph, so
    the search stops at the answer instead of exhausting each graph in turn.
    """
    members: list[int] = []

    def rec(cands: list[int]) -> list[int] | None:
        # cands[i]: vertices joined to every member in graph i and above the
        # last member, or 0 once graph i cannot complete the branch
        if len(members) == s:
            return members.copy()
        while True:
            pool = 0
            for c in cands:
                pool |= c
            if not pool:
                return None
            v = (pool & -pool).bit_length() - 1
            nxt = [0] * len(cands)
            live = False  # v completes the branch when no common vertex is left
            for i, c in enumerate(cands):
                if c >> v & 1:
                    c ^= 1 << v
                    cands[i] = c if len(members) + c.bit_count() >= s else 0
                    common = c & adjs[i][v]
                    if len(members) + 1 + common.bit_count() >= s:
                        nxt[i] = common
                        live = True
            if live:
                members.append(v)
                got = rec(nxt)
                members.pop()
                if got is not None:
                    return got

    return rec([(1 << n) - 1 for _ in adjs])


def clique_censuses(mat, u: int, v: int, pool, size: int):
    """For each (size-2)-subset rest of pool, in lexicographic order, the
    bitmask of the colours on the edges of rest + {u, v} other than {u, v}
    itself; mat is a symmetric n x n nested list of edge colours.  The one
    t-clique loop of the F(t) searches."""
    for rest in combinations(pool, size - 2):
        census = 0
        for x in rest:
            census |= 1 << mat[x][u] | 1 << mat[x][v]
        for x, y in combinations(rest, 2):
            census |= 1 << mat[x][y]
        yield census


def colour_adjacency(mat, q: int) -> list[list[int]]:
    """Adjacency bitmasks of each colour class of the symmetric n x n colour
    matrix mat: bit u of classes[c][v] is set when {u, v} has colour c < q.
    One pass over the pairs serves every palette the caller unions."""
    n = len(mat)
    classes = [[0] * n for _ in range(q)]
    for b in range(n):
        for a, c in enumerate(mat[b][:b]):
            adj = classes[c]
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return classes


def union_adjacency(classes: list[list[int]], palette) -> list[int]:
    """Adjacency bitmasks of the graph formed by the edges whose colour lies
    in the palette, from the colour classes of colour_adjacency; an empty
    palette gives the edgeless graph."""
    adj = [0] * len(classes[0])
    for c in palette:
        adj = [x | y for x, y in zip(adj, classes[c])]
    return adj


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class TriangleHypergraph:
    """3-uniform hypergraph whose edges are the triangles of an auxiliary
    labelling that carry all three of red, blue and green (possibly with two
    of them on one edge)."""

    n: int
    edges: np.ndarray  # (m, 3) int32, rows sorted

    def __post_init__(self):
        arr = np.asarray(self.edges, dtype=np.int32).reshape(-1, 3)
        arr = np.sort(arr, axis=1)
        arr.setflags(write=False)
        object.__setattr__(self, "edges", arr)

    @classmethod
    def from_edge_list(cls, n: int, edges) -> "TriangleHypergraph":
        rows = [tuple(sorted(e)) for e in edges]
        for row in rows:
            if len(set(row)) != 3 or not all(0 <= v < n for v in row):
                raise InvalidArgument(f"bad edge {row}")
        return cls(n=n, edges=np.array(rows, dtype=np.int32).reshape(-1, 3))

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])


@dataclass(frozen=True)
class GallaiColouring:
    """A 3-colouring of a complete graph with a flag recording that the exact
    no-rainbow-triangle check passed."""

    colouring: CompleteColouring
    verified: bool


def verify_gallai(col: CompleteColouring) -> GallaiColouring:
    if col.k != 2 or col.q != 3:
        raise InvalidArgument("a Gallai colouring here is a k=2, q=3 colouring")
    tri = verifiers.rainbow_triangle_free(col, RBG)
    return GallaiColouring(colouring=col, verified=tri is None)


# the F-witness check lives with the other certificate checkers
FWitness = verifiers.FWitness
verify_f_witness = verifiers.verify_f_witness


# ---------------------------------------------------------------------------
# independent sets in sparse 3-uniform hypergraphs

SPENCER_CONSTANT = 2.0 / (3.0 * math.sqrt(3.0))


def spencer_guarantee(n: int, e: int) -> int:
    """Independent-set size the extractor promises.

    All of [n] when e = 0; otherwise the better of the full-set deletion
    bound n - e and, in the random regime 3e > n (where the keep-probability
    sqrt(n/(3e)) is genuinely below 1), floor(c * n^1.5 / sqrt(e)) with
    c = 2/(3*sqrt(3)).  The two branches agree at 3e = n; outside its regime
    the second expression can exceed n and promises nothing."""
    if e == 0:
        return n
    term = int(SPENCER_CONSTANT * n**1.5 / math.sqrt(e)) if 3 * e > n else 0
    return max(n - e, term)


def spencer_independent_set(
    hypergraph: TriangleHypergraph, seed: int, trials: int = 8
) -> list[int]:
    """Probabilistic deletion: keep each vertex with probability
    p = min(1, sqrt(n/(3e))), drop one vertex from every surviving edge, then
    add back any vertex that stays independent.  Takes the best of a
    deterministic full-set pass plus `trials` seeded random passes, so the
    returned set always meets spencer_guarantee; independence is exact.
    """
    check_seed(seed)
    if trials < 0:
        raise InvalidArgument(f"trial count {trials} is negative")
    n = hypergraph.n
    edges = [tuple(int(v) for v in row) for row in hypergraph.edges]
    e = len(edges)
    if e == 0:
        return list(range(n))
    p = min(1.0, math.sqrt(n / (3.0 * e)))
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, (x, y, z) in enumerate(edges):
        incident[x].append(i)
        incident[y].append(i)
        incident[z].append(i)

    rng = np.random.default_rng(seed)
    best: set[int] = set()
    for trial in range(trials + 1):
        if trial == 0:
            alive = set(range(n))
        else:
            alive = set(np.flatnonzero(rng.random(n) < p).tolist())
        # alive only shrinks, so one pass leaves no edge wholly alive
        for x, y, z in edges:
            if x in alive and y in alive and z in alive:
                alive.discard(z)  # rows sorted: z is the largest vertex
        for v in range(n):
            if v in alive:
                continue
            blocked = False
            for i in incident[v]:
                others = [u for u in edges[i] if u != v]
                if others[0] in alive and others[1] in alive:
                    blocked = True
                    break
            if not blocked:
                alive.add(v)
        if len(alive) > len(best):
            best = alive

    for x, y, z in edges:
        if x in best and y in best and z in best:
            raise ToolkitError("deletion produced a dependent set")
    return sorted(best)


# ---------------------------------------------------------------------------
# two-coloured cliques in Gallai colourings


def ceil_cuberoot(n: int) -> int:
    """The least s >= 0 with s**3 >= n."""
    s = round(n ** (1.0 / 3.0))
    while s**3 < n:
        s += 1
    while s > 0 and (s - 1) ** 3 >= n:
        s -= 1
    return s


def gallai_two_coloured_clique(g: GallaiColouring) -> CliqueWitness:
    """Largest clique using at most two of the three colours, by exact
    branch-and-bound over the three colour-pair union graphs.

    Any rainbow-free 3-colouring of a complete graph on n vertices contains
    such a clique of order n^(1/3); that floor is asserted per instance, and
    falling short raises GuaranteeViolated (a bug-or-discovery signal, never
    swallowed).
    """
    if not g.verified:
        raise InvalidArgument("input colouring lacks a verified rainbow-free flag")
    col = g.colouring
    n = col.n
    mat = graph_colour_matrix(col).tolist()
    classes = colour_adjacency(mat, col.q)
    best: list[int] = []
    for pair in combinations(RBG, 2):
        clique = max_clique(union_adjacency(classes, pair), n)
        if len(clique) > len(best):
            best = clique
    census = {mat[u][v] for u, v in combinations(best, 2)}
    witness = CliqueWitness(tuple(best), frozenset(census))
    target = ceil_cuberoot(n)
    if witness.size < target:
        raise GuaranteeViolated(
            f"largest two-coloured clique has size {witness.size} < {target}",
            witness=col,
        )
    if len(census) > 2:
        raise ToolkitError("union-graph clique acquired a third colour")
    return witness


# ---------------------------------------------------------------------------
# cliques with at most three of four colours


def three_colour_clique_search(
    col: CompleteColouring, s: int
) -> CliqueWitness | None:
    """The lexicographically first s-vertex set whose internal edges use at
    most 3 distinct colours, with its colour census; None is exhaustive.
    Such a set is an s-clique of the union graph of some 3 colours (of all
    colours when q <= 3), so one lockstep search over those graphs finds
    it."""
    if col.k != 2:
        raise InvalidArgument("clique search needs a k=2 colouring")
    if s < 1:
        raise InvalidArgument("clique size must be positive")
    if s > col.n:
        return None
    mat = graph_colour_matrix(col).tolist()
    classes = colour_adjacency(mat, col.q)
    adjs = [
        union_adjacency(classes, palette)
        for palette in combinations(range(col.q), min(3, col.q))
    ]
    best = lex_first_clique(adjs, col.n, s)
    if best is None:
        return None
    census = frozenset(mat[u][v] for u, v in combinations(best, 2))
    return CliqueWitness(tuple(best), census)


# ---------------------------------------------------------------------------
# the F(t) oracle


def _obstructions(
    mat, u: int, v: int, c: int, pool, t: int, first: bool = False
) -> int:
    """The obstructions an edge {u, v} of colour c meets with the vertices
    of pool: each w closing a red/blue/green rainbow triangle with it, and
    each (t-2)-subset closing a t-clique on at most 3 colours.  With first,
    1 at the first one found.  Never reads mat[u][v], so c may be a colour
    the edge does not have.  The one F(t) obstruction test of both
    searches."""
    count = 0
    mu, mv = mat[u], mat[v]
    bit = 1 << c
    for w in pool:
        # three colours whose bits make 0b111 are red, blue and green
        if (1 << mu[w] | 1 << mv[w] | bit) == 7:
            if first:
                return 1
            count += 1
    for cen in clique_censuses(mat, u, v, pool, t):
        if (cen | bit).bit_count() <= 3:
            if first:
                return 1
            count += 1
    return count


def _search_f_witness_exhaustive(t: int, n: int, node_budget: int):
    """Decide whether a 4-colouring of K_n with no red/blue/green rainbow
    triangle and no t-clique on <= 3 colours exists, by a first-use search
    over edges in colex order.

    Red, blue and green are interchangeable (both constraints are invariant
    under permuting them) and enter in first-use order; yellow is always
    offered.  Returns (status, witness) with status one of "found", "none",
    "budget".
    """
    pairs = [(a, b) for b in range(n) for a in range(b)]
    # the colours of the edges coloured so far; an entry left by an undone
    # step is overwritten before any later step reads it
    mat = [[0] * n for _ in range(n)]

    def place(step: int, c: int) -> bool:
        a, b = pairs[step]
        if _obstructions(mat, a, b, c, range(a), t, first=True):
            return False
        mat[a][b] = mat[b][a] = c
        return True

    status, assignment, _ = first_use_search(
        len(pairs), 4, YELLOW, place, lambda step, c: None, node_budget
    )
    if status != "found":
        return status, None
    col = CompleteColouring(n, 2, 4, np.array(assignment, dtype=np.uint8))
    witness = verify_f_witness(col, t)
    if not witness.valid:
        raise ToolkitError("exhaustive search produced an invalid witness")
    return "found", col


def _search_f_witness_local(
    t: int, n: int, seed: int, restarts: int = 8, steps: int = 4000
):
    """Seeded local search for an F(t) > n witness: greedily recolour edges
    of violated structures; success is certified by the exact checks."""
    rng = random.Random(seed)
    edges = [
        (u, v, [w for w in range(n) if w not in (u, v)])
        for u, v in combinations(range(n), 2)
    ]
    for _ in range(restarts):
        mat = random_matrix(rng, n, range(4))
        for _ in range(steps):
            bad = [
                (u, v, others)
                for u, v, others in edges
                if _obstructions(mat, u, v, mat[u][v], others, t, first=True)
            ]
            if not bad:
                break
            u, v, others = bad[rng.randrange(len(bad))]
            if rng.random() < 0.1:
                mat[u][v] = mat[v][u] = rng.randrange(4)
                continue
            base = mat[u][v]
            best_c, best_score = base, _obstructions(mat, u, v, base, others, t)
            order = [c for c in range(4) if c != base]
            rng.shuffle(order)
            for c in order:
                score = _obstructions(mat, u, v, c, others, t)
                if score < best_score:
                    best_c, best_score = c, score
            mat[u][v] = mat[v][u] = best_c
        else:
            continue
        col = matrix_colouring(mat, 4)
        if verify_f_witness(col, t).valid:
            return col
    return None


# the largest n that f_oracle decides exhaustively; above it, local search
EXHAUSTIVE_CAP = 8


@dataclass
class FOracleResult:
    t: int
    cap: int
    value: int | None  # F(t) when decided exactly
    lower_bound: int  # F(t) >= lower_bound, certified by witnesses
    statuses: dict[int, str]
    witnesses: dict[int, CompleteColouring] = field(default_factory=dict)
    mode: str = "auto"

    def __str__(self):
        if self.value is not None:
            return f"F({self.t}) = {self.value}"
        return f"F({self.t}) >= {self.lower_bound} (cap {self.cap})"


def f_oracle(
    t: int,
    n_cap: int,
    mode: str = "auto",
    seed: int = 0,
    node_budget: int = DEFAULT_NODE_BUDGET,
    restarts: int = 8,
    steps: int = 4000,
) -> FOracleResult:
    """Compute F(t) exactly when feasible, else certify a lower bound.

    Witness existence is monotone decreasing in n (restricting a witness
    stays a witness), so the scan stops at the first n with provably no
    witness; that n equals F(t) exactly when every smaller n produced one.
    Exhaustive decisions run for n <= EXHAUSTIVE_CAP under a node budget;
    "witness" mode only ever certifies lower bounds.
    """
    if t < 2:
        raise InvalidArgument("t must be at least 2")
    if mode not in ("auto", "exhaustive", "witness"):
        raise InvalidArgument(f"unknown mode {mode!r}")
    if node_budget < 0:
        raise InvalidArgument(f"node budget {node_budget} is negative")
    statuses: dict[int, str] = {}
    witnesses: dict[int, CompleteColouring] = {}
    value = None
    lower = 2
    all_below_witnessed = True
    for n in range(2, n_cap + 1):
        if n < t:
            # all-yellow has no rainbow triangle and no t-clique at all
            col = CompleteColouring(
                n, 2, 4, np.full(math.comb(n, 2), YELLOW, dtype=np.uint8)
            )
            statuses[n] = "found"
            witnesses[n] = col
            lower = n + 1
            continue
        status = "unknown"
        witness = None
        if mode in ("auto", "exhaustive") and n <= EXHAUSTIVE_CAP:
            status, witness = _search_f_witness_exhaustive(t, n, node_budget)
        elif mode in ("auto", "witness"):
            witness = _search_f_witness_local(t, n, seed, restarts, steps)
            status = "found" if witness is not None else "unknown"
        statuses[n] = status
        if status == "found":
            witnesses[n] = witness
            lower = n + 1
        elif status == "none":
            if all_below_witnessed:
                value = n
            break
        else:
            all_below_witnessed = False
    return FOracleResult(
        t=t,
        cap=n_cap,
        value=value,
        lower_bound=lower,
        statuses=statuses,
        witnesses=witnesses,
        mode=mode,
    )


# ---------------------------------------------------------------------------
# three-colour pipeline

# labels carry at most the three bits red, blue and green
_POPCOUNT = np.array([bin(m).count("1") for m in range(8)], dtype=np.intp)
# the graph colour a label stands for: its lowest colour, yellow when none
_SINGLE_LABEL = np.array([YELLOW, 0, 1, 0, 2, 0, 1, 0], dtype=np.uint8)


def triangle_count_bounds(t: int, n: int) -> tuple[int, int | None]:
    """Upper bounds on the number of label-triangles carrying all of red,
    blue and green: always 3*(C(t,2)+t)*C(n,2), and t^2*n^2 once t >= 3."""
    theta = finder.pair_threshold(t)
    loose = 3 * theta * math.comb(n, 2)
    return loose, (t * t * n * n if t >= 3 else None)


def rbg_label_hypergraph(
    aux: finder.AuxiliaryGraphColouring,
) -> TriangleHypergraph:
    """Triangles whose three label sets jointly cover red, blue and green."""
    n = aux.n
    labels = aux.labels & 0b111
    rows = []
    for top, _, (a, b) in iter_slabs(n, 3):
        m = len(a)
        row = labels[m : m + top]
        hit = (labels[:m] | row[a] | row[b]) == 0b111
        if hit.any():
            x, y = a[hit], b[hit]
            rows.append(np.stack([x, y, np.full_like(x, top)], axis=1))
    edges = (
        np.concatenate(rows, axis=0) if rows else np.empty((0, 3), dtype=np.int32)
    )
    return TriangleHypergraph(n=n, edges=edges)


@dataclass
class PipelineTrace:
    stages: list[tuple[str, dict]] = field(default_factory=list)

    def add(self, name: str, **info):
        self.stages.append((name, info))

    def to_text(self) -> str:
        lines = ["PIPELINE-TRACE v1"]
        for name, info in self.stages:
            detail = " ".join(f"{k}={v}" for k, v in sorted(info.items()))
            lines.append(f"stage {name} {detail}".rstrip())
        return "\n".join(lines) + "\n"


def three_colour_pipeline(
    colouring: CompleteColouring,
    t: int,
    seed: int,
    clique_target: int | None = None,
    gallai_target: int | None = None,
    spencer_trials: int = 8,
) -> tuple[HedgehogEmbedding, PipelineTrace]:
    """Monochromatic hedgehog from a 3-coloured complete 3-uniform
    hypergraph, via auxiliary labels, a sparse-triangle independent set, and
    clique extraction.

    At the asymptotic scale every stage is guaranteed; at desk scale the
    stage targets are parameters (clique_target defaults to t^3,
    gallai_target to t) and any stage that falls short raises StagedFailure
    naming itself and carrying its counterexample object.  Every embedding
    returned has been verified against the input colouring.
    """
    if colouring.k != 3 or colouring.q != 3:
        raise InvalidArgument("pipeline expects a 3-coloured k=3 colouring")
    hedgehog_shape(t, 3)
    n = colouring.n
    if clique_target is None:
        clique_target = t**3
    if gallai_target is None:
        gallai_target = t
    if clique_target < t:
        raise InvalidArgument("clique_target below body size t")
    check_seed(seed)
    trace = PipelineTrace()

    # stage 1: label the graph edges by scarce triple colours, yellow = none
    aux = finder.pair_profile(colouring, t)
    labels = aux.labels
    label_size = _POPCOUNT[labels]
    sizes = np.bincount(label_size, minlength=4)
    trace.add(
        "aux-labels",
        theta=aux.theta,
        yellow=int(sizes[0]),
        single=int(sizes[1]),
        double=int(sizes[2]),
        triple=int(sizes[3]),
    )

    # stage 2: triangles carrying all three labels form a sparse hypergraph
    hyper = rbg_label_hypergraph(aux)
    loose, tight = triangle_count_bounds(t, n)
    if hyper.edge_count > loose or (tight is not None and hyper.edge_count > tight):
        raise StagedFailure(
            "triangle-bound",
            f"{hyper.edge_count} label triangles exceed the counting bound",
            witness=hyper,
        )
    trace.add("triangle-hypergraph", edges=hyper.edge_count, loose_bound=loose)

    # stage 3: independent set avoiding all such triangles
    u_set = spencer_independent_set(hyper, seed, trials=spencer_trials)
    trace.add("independent-set", size=len(u_set))

    # stage 4: doubly-labelled edges inside U; a high-degree vertex gives an
    # immediate hedgehog in the colour its label pair excludes
    label_mat = graph_colour_matrix(CompleteColouring(n, 2, 1 << aux.q, labels))
    lab = label_mat.tolist()
    neighbours = [[v for v in u_set if lab[u][v].bit_count() == 2] for u in u_set]
    heavy = next((i for i, nb in enumerate(neighbours) if len(nb) >= t), None)
    if heavy is not None:
        u = u_set[heavy]
        masks = {lab[u][v] for v in neighbours[heavy]}
        if len(masks) != 1:
            raise StagedFailure(
                "double-label-degree",
                f"vertex {u} has doubly-labelled edges with different label pairs",
                witness=(u, sorted(masks)),
            )
        pair_mask = masks.pop()
        excluded = next(c for c in RBG if not pair_mask >> c & 1)
        body = neighbours[heavy][:t]
        for x, y in combinations(body, 2):
            if lab[x][y] >> excluded & 1:
                raise StagedFailure(
                    "double-label-degree",
                    f"neighbourhood pair {(x, y)} carries the excluded label",
                    witness=(x, y),
                )
        emb = finder.embed_spines(colouring, body, excluded)
        problem = verifiers.verify_embedding(emb, colouring)
        if problem is not None:
            raise ToolkitError(f"pipeline produced an invalid embedding: {problem}")
        trace.add("double-label-degree", short_circuit=u, colour=excluded)
        return emb, trace
    trace.add("double-label-degree", max_degree=max(map(len, neighbours), default=0))

    # stage 5: peel U to a set V with no doubly-labelled edges
    v_set = finder._greedy_peel(u_set, n, label_size == 2)
    trace.add("peel", size=len(v_set))

    # stage 6: on V every edge has at most one label; colour unlabelled
    # edges yellow and look for a clique with at most three colours
    single = _SINGLE_LABEL[label_mat]
    if clique_target > len(v_set):
        raise StagedFailure(
            "three-colour-clique",
            f"peeled set of {len(v_set)} cannot hold a clique of {clique_target}",
            witness=trace,
        )
    chi_v = matrix_colouring(single[np.ix_(v_set, v_set)], 4)
    witness = three_colour_clique_search(chi_v, clique_target)
    if witness is None:
        raise StagedFailure(
            "three-colour-clique",
            f"no {clique_target}-clique with at most 3 colours in the peeled set",
            witness=chi_v,
        )
    missing = min(set(range(4)) - set(witness.colours))
    w_set = [v_set[i] for i in witness.vertices]
    trace.add(
        "three-colour-clique",
        size=len(w_set),
        colours=sorted(witness.colours),
        missing=missing,
    )

    if missing != YELLOW:
        body = w_set[:t]
        emb = finder.embed_spines(colouring, body, missing)
    else:
        # stage 7: all labels on W are single and in {red, blue, green}; the
        # restriction is rainbow-free, so extract a two-coloured clique and
        # embed in its missing colour
        chi_w = matrix_colouring(single[np.ix_(w_set, w_set)], 3)
        gallai = verify_gallai(chi_w)
        if not gallai.verified:
            raise StagedFailure(
                "gallai-clique",
                "restriction to the clique is not rainbow-free",
                witness=chi_w,
            )
        two_col = gallai_two_coloured_clique(gallai)
        if two_col.size < gallai_target:
            raise StagedFailure(
                "gallai-clique",
                f"two-coloured clique of {two_col.size} below target {gallai_target}",
                witness=two_col,
            )
        colour = min(set(RBG) - set(two_col.colours))
        body = [w_set[i] for i in two_col.vertices][:t]
        emb = finder.embed_spines(colouring, body, colour)
        trace.add("gallai-clique", size=two_col.size, colour=colour)

    problem = verifiers.verify_embedding(emb, colouring)
    if problem is not None:
        raise ToolkitError(f"pipeline produced an invalid embedding: {problem}")
    trace.add("embed", colour=emb.colour, body=",".join(map(str, emb.body)))
    return emb, trace
