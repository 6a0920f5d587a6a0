"""Combinatorial substrate for complete-hypergraph colouring experiments.

Vertices are 0-based everywhere.  A k-subset of the vertex set is identified
with its colex (combinadic) rank, and a colouring of the complete k-uniform
hypergraph on [n] is a dense byte array indexed by that rank.  Everything
downstream (generators, finders, verifiers) works on this representation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

RED, BLUE, GREEN, YELLOW = 0, 1, 2, 3
COLOUR_NAMES = ("red", "blue", "green", "yellow")

# the binomial tables and the pair arrays cover at most this many vertices
MAX_VERTICES = 1024


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgument(ToolkitError):
    pass


class InfeasibleSpec(InvalidArgument):
    pass


class PreconditionViolated(ToolkitError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class StagedFailure(ToolkitError):
    """A staged algorithm gave up; names the stage and carries a witness."""

    def __init__(self, stage, message, witness=None):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.witness = witness


class GuaranteeViolated(ToolkitError):
    """An extraction fell short of a size its contract promises.

    This cannot happen on inputs that satisfy the contract's hypotheses, so it
    is surfaced loudly: it means either a bug or a genuinely interesting
    instance, never something to swallow.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RefusedInstance(ToolkitError):
    pass


# ---------------------------------------------------------------------------
# binomials and colex ranking


@lru_cache(maxsize=None)
def binomial_column(k: int, n_max: int = MAX_VERTICES) -> np.ndarray:
    """C(x, k) for x = 0 .. n_max, as a readonly int64 array."""
    col = np.array([math.comb(x, k) for x in range(n_max + 1)], dtype=np.int64)
    col.setflags(write=False)
    return col


def rank_subset(subset, n: int | None = None) -> int:
    """Colex rank of a strictly increasing k-subset of [n]."""
    sub = list(subset)
    prev = -1
    for v in sub:
        if v <= prev:
            raise InvalidArgument(f"subset {sub} is not strictly increasing")
        if n is not None and not 0 <= v < n:
            raise InvalidArgument(f"subset entry {v} out of range [0, {n})")
        prev = v
    if sub and sub[0] < 0:
        raise InvalidArgument(f"subset entry {sub[0]} is negative")
    return sum(math.comb(v, i + 1) for i, v in enumerate(sub))


def unrank_subset(r: int, n: int, k: int) -> list[int]:
    """Inverse of rank_subset: the k-subset of [n] with colex rank r."""
    if not 0 <= r < math.comb(n, k):
        raise InvalidArgument(f"rank {r} out of range [0, C({n},{k}))")
    out = [0] * k
    nn, kk, rr = n, k, r
    while kk > 0:
        nn -= 1
        c = math.comb(nn, kk)
        if rr >= c:
            rr -= c
            kk -= 1
            out[kk] = nn
    return out


def pair_rank(a: int, b: int) -> int:
    """Colex rank of {a, b} with a < b."""
    return math.comb(b, 2) + a


def triple_rank(a: int, b: int, c: int) -> int:
    """Colex rank of {a, b, c} with a < b < c."""
    return math.comb(c, 3) + math.comb(b, 2) + a


# ---------------------------------------------------------------------------
# colex slabs
#
# In colex order the k-subsets of [n] with top vertex x fill the contiguous
# rank range [C(x,k), C(x+1,k)), and inside that slab they are ordered by the
# rank of their lower (k-1)-subset, which runs over all (k-1)-subsets of [x].
# So one pass over the complete k-graph is one loop over top vertices, and
# the slab of top x is indexed by lower rank:
#   - the lower subsets are a prefix of length C(x,k-1) of the vertex arrays
#     of the (k-1)-subsets of [n-1], and their own colours (in a colouring
#     of uniformity k-1) are the same prefix of its colour array;
#   - the edges through x are the pairs C(x,2) + a for a < x, one row.


@lru_cache(maxsize=16)
def pair_arrays(n: int):
    """(a, b) arrays over all 2-subsets of [n] in colex rank order.

    Both are read-only np.intp arrays: they index every slab gather, and
    numpy casts an index array of any other type on each use."""
    if n > MAX_VERTICES:
        raise InvalidArgument(f"n={n} exceeds MAX_VERTICES={MAX_VERTICES}")
    b = np.repeat(np.arange(n, dtype=np.intp), np.arange(n))
    a = np.arange(len(b), dtype=np.intp) - binomial_column(2)[b]
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def iter_slabs(n: int, k: int):
    """Yield (top, start, lower) for each top vertex of the k-subsets of [n].

    The k-subsets with top vertex `top` have colex ranks start + i for
    i < C(top, k-1); subset i is lower[0][i] < ... < lower[k-2][i] < top.
    `lower` holds read-only prefix views of one set of np.intp vertex
    arrays (numpy casts any other index type on every gather), so a slab
    costs no allocation: for k=3 the arrays of pair_arrays(n), for k=4 the
    triple arrays of [n-1], built once per call.
    """
    if k == 3:
        full = pair_arrays(n)
    elif k == 4:
        # the triples of [n-1]: top c once for each pair of [c], and those
        # pairs are a prefix of the pairs of [n]
        tops = np.arange(n - 1, dtype=np.intp)
        c = np.repeat(tops, binomial_column(2)[tops])
        local = np.arange(len(c), dtype=np.intp) - binomial_column(3)[c]
        full = tuple(arr[local] for arr in pair_arrays(n)) + (c,)
        # the suspended walk would otherwise keep the rank offsets alive
        del local
        for arr in full:
            arr.setflags(write=False)
    else:
        raise InvalidArgument(f"unsupported uniformity k={k}")
    low_count = binomial_column(k - 1)
    starts = binomial_column(k)
    for top in range(k - 1, n):
        m = int(low_count[top])
        yield top, int(starts[top]), tuple(arr[:m] for arr in full)


# ---------------------------------------------------------------------------
# colourings


def check_colouring_shape(n: int, k: int, q: int) -> None:
    """Raise InvalidArgument unless (n, k, q) is the shape of a colouring."""
    if k not in (2, 3, 4):
        raise InvalidArgument(f"uniformity k={k} not in (2, 3, 4)")
    if not 1 <= q <= 256:
        raise InvalidArgument(f"colour count q={q} not in [1, 256]")
    if n < 0 or n > MAX_VERTICES:
        raise InvalidArgument(f"vertex count n={n} out of range")


def check_seed(seed) -> None:
    """Raise InvalidArgument unless seed is a non-negative integer, the
    seeds numpy's generators accept."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidArgument(f"seed {seed!r} is not a non-negative integer")


@dataclass(frozen=True, eq=False)
class CompleteColouring:
    """A q-colouring of all k-subsets of [n].

    colours[r] is the colour of the k-subset with colex rank r.  Instances
    are immutable after construction and safe to share across workers.
    """

    n: int
    k: int
    q: int
    colours: np.ndarray

    def __post_init__(self):
        check_colouring_shape(self.n, self.k, self.q)
        arr = np.ascontiguousarray(self.colours, dtype=np.uint8)
        expect = math.comb(self.n, self.k)
        if arr.shape != (expect,):
            raise InvalidArgument(
                f"colour array has length {arr.shape}, expected C({self.n},{self.k})={expect}"
            )
        if arr.size and int(arr.max()) >= self.q:
            raise InvalidArgument(
                f"colour {int(arr.max())} out of range for q={self.q}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "colours", arr)

    @property
    def edge_count(self) -> int:
        return int(self.colours.size)

    def colour_of(self, subset) -> int:
        sub = sorted(subset)
        if len(sub) != self.k:
            raise InvalidArgument(f"subset {sub} is not a {self.k}-subset")
        return int(self.colours[rank_subset(sub, self.n)])

    def used_colours(self) -> set[int]:
        return set(np.unique(self.colours).tolist())

    def equals(self, other: "CompleteColouring") -> bool:
        return (
            self.n == other.n
            and self.k == other.k
            and self.q == other.q
            and np.array_equal(self.colours, other.colours)
        )


def graph_colour_matrix(col: CompleteColouring) -> np.ndarray:
    """n x n uint8 matrix of edge colours for a k=2 colouring (diagonal 0)."""
    if col.k != 2:
        raise InvalidArgument("graph_colour_matrix needs a k=2 colouring")
    mat = np.zeros((col.n, col.n), dtype=np.uint8)
    a, b = pair_arrays(col.n)
    mat[a, b] = col.colours
    mat[b, a] = col.colours
    return mat


def matrix_colouring(mat, q: int) -> CompleteColouring:
    """The k=2 colouring whose pair {a, b} has colour mat[a][b], for a
    symmetric n x n matrix (nested lists or an array); the inverse of
    graph_colour_matrix."""
    n = len(mat)
    a, b = pair_arrays(n)
    return CompleteColouring(n, 2, q, np.asarray(mat, dtype=np.uint8).reshape(n, n)[a, b])


def random_matrix(rng, n: int, palette) -> list[list[int]]:
    """Symmetric n x n nested list of edge colours with zero diagonal, one
    palette[rng.randrange(len(palette))] draw per pair in colex order (b
    outer, a inner), so a seeded random.Random gives a fixed matrix."""
    mat = [[0] * n for _ in range(n)]
    for b in range(n):
        for a in range(b):
            mat[a][b] = mat[b][a] = palette[rng.randrange(len(palette))]
    return mat


def pair_colour_counts(col: CompleteColouring) -> np.ndarray:
    """For a k=3 colouring: per-pair counts of triples of each colour.

    Returns an int64 array of shape (C(n,2), q): entry [p, c] is the number
    of triples of colour c containing the pair with colex rank p.  One walk
    over the slabs; the last colour's counts come for free since the q
    counts at a pair sum to n-2.

    In the slab of top c, the triple over lower pair j = C(b,2) + a counts
    for the pairs j, C(c,2) + a and C(c,2) + b.  The first is the slab
    itself, the third a sum over the segment [C(b,2), C(b+1,2)) of the slab,
    and only the second needs a bincount.
    """
    if col.k != 3:
        raise InvalidArgument("pair_colour_counts needs a k=3 colouring")
    n, q = col.n, col.q
    # a count is at most n - 2, so int32 holds it and halves the traffic
    counts = np.zeros((q, math.comb(n, 2)), dtype=np.int32)
    c2 = binomial_column(2)
    for top, start, (a, _) in iter_slabs(n, 3):
        m = len(a)
        slab = col.colours[start : start + m]
        for colour in range(q - 1):
            hit = slab == colour
            row = counts[colour]
            row[:m] += hit
            # pairs with b = 0 have no segment; b >= 1 owns [C(b,2), C(b+1,2))
            row[m + 1 : m + top] += np.add.reduceat(hit, c2[1:top], dtype=np.int32)
            row[m : m + top] += np.bincount(a, weights=hit, minlength=top).astype(np.int32)
    if q >= 2 and n >= 2:
        counts[q - 1] = (n - 2) - counts[: q - 1].sum(axis=0)
    elif q == 1:
        counts[0] = max(n - 2, 0)
    return counts.T.astype(np.int64, order="C")


# ---------------------------------------------------------------------------
# hedgehogs


@dataclass(frozen=True)
class HedgehogShape:
    """Vertex/edge arithmetic of the k-uniform hedgehog with body size t."""

    t: int
    k: int

    @property
    def edge_count(self) -> int:
        return math.comb(self.t, self.k - 1)

    @property
    def vertex_count(self) -> int:
        return self.t + self.edge_count


def hedgehog_shape(t: int, k: int = 3) -> HedgehogShape:
    if k < 2:
        raise InvalidArgument(f"uniformity k={k} must be at least 2")
    if t < k - 1:
        raise InvalidArgument(f"body size t={t} must be at least k-1={k - 1}")
    return HedgehogShape(t, k)


def hedgehog_edges(t: int, k: int = 3) -> list[tuple[int, ...]]:
    """Edge list of the k-uniform hedgehog: body [0, t), one private spine
    vertex per (k-1)-subset of the body, spines numbered t, t+1, ... in colex
    order of their subsets."""
    hedgehog_shape(t, k)  # raises on a bad (t, k)
    edges = []
    for i, sub in enumerate(
        sorted(combinations(range(t), k - 1), key=lambda s: rank_subset(s))
    ):
        edges.append(tuple(sorted(sub + (t + i,))))
    return edges


@dataclass
class HedgehogEmbedding:
    """Certificate for a monochromatic hedgehog inside a host colouring.

    spines maps each (k-1)-subset of the body (as a sorted tuple) to its
    spine vertex; verify_embedding in the verifiers module checks all of the
    invariants against the host.
    """

    colour: int
    body: tuple[int, ...]
    spines: dict[tuple[int, ...], int]

    @property
    def t(self) -> int:
        return len(self.body)

    @property
    def k(self) -> int:
        if not self.spines:
            raise InvalidArgument("embedding has no spines; uniformity unknown")
        return len(next(iter(self.spines))) + 1

    def vertices(self) -> set[int]:
        return set(self.body) | set(self.spines.values())

    def to_text(self) -> str:
        lines = [
            "HEDGEHOG v1",
            f"k {self.k}",
            f"t {self.t}",
            f"colour {self.colour}",
            "body " + " ".join(str(v) for v in self.body),
        ]
        for sub in sorted(self.spines, key=rank_subset):
            lines.append(
                "spine " + " ".join(str(v) for v in sub) + f" -> {self.spines[sub]}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "HedgehogEmbedding":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "HEDGEHOG v1":
            raise InvalidArgument("not a HEDGEHOG v1 certificate")
        fields = {}
        spines = {}
        try:
            for ln in lines[1:]:
                if ln.startswith("spine "):
                    left, _, right = ln[len("spine "):].partition("->")
                    sub = tuple(int(x) for x in left.split())
                    if sub in spines:
                        raise InvalidArgument(f"spine {sub} is given twice")
                    spines[sub] = int(right.strip())
                else:
                    key, _, val = ln.partition(" ")
                    fields[key] = val
            colour = int(fields["colour"])
            body = tuple(int(x) for x in fields["body"].split())
            t = int(fields.get("t", len(body)))
        except (KeyError, ValueError) as exc:
            raise InvalidArgument(f"malformed certificate: {exc}") from exc
        if t != len(body):
            raise InvalidArgument("certificate t does not match body length")
        return cls(colour=colour, body=body, spines=spines)


@dataclass(frozen=True)
class CliqueWitness:
    """A vertex set together with the colours on its internal edges."""

    vertices: tuple[int, ...]
    colours: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.vertices)

    def to_text(self) -> str:
        return (
            "CLIQUE v1\n"
            + "vertices " + " ".join(str(v) for v in self.vertices) + "\n"
            + "colours " + " ".join(str(c) for c in sorted(self.colours)) + "\n"
        )

    @classmethod
    def from_text(cls, text: str) -> "CliqueWitness":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "CLIQUE v1":
            raise InvalidArgument("not a CLIQUE v1 certificate")
        fields = dict(ln.partition(" ")[::2] for ln in lines[1:])
        try:
            return cls(
                vertices=tuple(int(v) for v in fields["vertices"].split()),
                colours=frozenset(int(c) for c in fields["colours"].split()),
            )
        except (KeyError, ValueError) as exc:
            raise InvalidArgument(f"malformed certificate: {exc}") from exc


@dataclass
class SearchReport:
    """Deterministic record of a randomized or backtracking run."""

    operation: str
    seed: int
    outcome: str
    tries: int = 0
    steps: int = 0
    params: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            "SEARCH-REPORT v1",
            f"operation {self.operation}",
            f"seed {self.seed}",
            f"outcome {self.outcome}",
            f"tries {self.tries}",
            f"steps {self.steps}",
        ]
        for key in sorted(self.params):
            lines.append(f"param {key}={self.params[key]}")
        for key in sorted(self.details):
            lines.append(f"detail {key}={self.details[key]}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exhaustive colouring search

# the node budget of both exhaustive deciders unless a caller gives one
DEFAULT_NODE_BUDGET = 2_000_000


def first_use_search(
    steps: int, q: int, interchangeable: int, place, unplace, node_budget: int | None = None
) -> tuple[str, list[int] | None, int]:
    """Depth-first search for a colouring of steps 0 .. steps-1, in order.

    Colours below `interchangeable` are symmetric, so they enter in
    first-use order: colour c is offered only once 0 .. c-1 are in use.
    Colours from `interchangeable` to q-1 are always offered, after those.
    place(step, c) records a colour and returns True, or returns False,
    leaving no trace, when that step completes an obstruction; unplace(step,
    c) undoes a recorded colour.  Each internal node counts once, before its
    colours are tried, and the search gives up once the count passes
    node_budget.  Returns (status, colours, nodes) with status "found" (and
    the first complete colouring in depth-first order), "none" or "budget".
    """
    # the colours offered while `used` interchangeable colours are in use
    offers = [
        (*range(min(used + 1, interchangeable)), *range(interchangeable, q))
        for used in range(interchangeable + 1)
    ]
    colours: list[int] = []
    nodes = 0

    def rec(step: int, used: int) -> str:
        nonlocal nodes
        if step == steps:
            return "found"
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            return "budget"
        for c in offers[used]:
            if place(step, c):
                colours.append(c)
                status = rec(step + 1, used + 1 if c == used < interchangeable else used)
                if status != "none":
                    return status
                colours.pop()
                unplace(step, c)
        return "none"

    status = rec(0, 0)
    return status, colours if status == "found" else None, nodes


# ---------------------------------------------------------------------------
# degeneracy


def degeneracy(edges, n: int | None = None) -> int:
    """Exact degeneracy of a k-uniform hypergraph by min-degree peeling.

    Returns the maximum, over peeling steps, of the removed vertex's degree
    at removal time; removing a vertex deletes every edge containing it.
    """
    edge_list = [tuple(sorted(e)) for e in edges]
    verts = set()
    for e in edge_list:
        verts.update(e)
    if n is not None:
        verts.update(range(n))
    if not verts:
        return 0
    incident: dict[int, set[int]] = {v: set() for v in verts}
    for idx, e in enumerate(edge_list):
        for v in e:
            incident[v].add(idx)
    alive_edges = [True] * len(edge_list)
    remaining = set(verts)
    worst = 0
    while remaining:
        v = min(remaining, key=lambda u: (len(incident[u]), u))
        worst = max(worst, len(incident[v]))
        for idx in list(incident[v]):
            if not alive_edges[idx]:
                continue
            alive_edges[idx] = False
            for u in edge_list[idx]:
                incident[u].discard(idx)
        remaining.remove(v)
    return worst


# ---------------------------------------------------------------------------
# HCOL v1 file format
#
#   HCOL v1 n=<n> k=<k> q=<q>\n
#   <body>\n
#
# For q <= 16 the body is one lowercase hex digit per edge in rank order;
# otherwise it is whitespace-separated decimal.  Readers reject any length
# mismatch, and the writer's output is canonical so write/read/write
# round-trips are byte-identical.  Files are parsed and written as bytes,
# so the locale never matters and a non-ASCII byte is an InvalidArgument;
# the text functions wrap the byte ones.  A q <= 10 body as the writer
# emits it, decimal digits only, is read by one subtraction of b"0"; any
# other hex body goes through a byte translation table.

_HCOL_HEADER = re.compile(rb"HCOL v1 n=(\d+) k=(\d+) q=(\d+)$")
# byte translation tables for the hex body, colour -> digit to write and
# digit -> colour to read; the read table maps every other byte to 255, an
# invalid digit, since no colour of a q <= 16 colouring is that large
_HEX_ENCODE = b"0123456789abcdef".ljust(256, b"?")
_HEX_DECODE = bytes(b"0123456789abcdef".find(ch) % 256 for ch in range(256))


def _hcol_parts(col: CompleteColouring) -> tuple[bytes, bytes, bytes]:
    head = f"HCOL v1 n={col.n} k={col.k} q={col.q}\n".encode("ascii")
    if col.q <= 16:
        body = col.colours.tobytes().translate(_HEX_ENCODE)
    else:
        body = " ".join(str(int(c)) for c in col.colours).encode("ascii")
    return head, body, b"\n"


def colouring_to_bytes(col: CompleteColouring) -> bytes:
    return b"".join(_hcol_parts(col))


def _digit_body(data: bytes, offset: int, count: int, q: int) -> np.ndarray | None:
    """The colours of a body of exactly `count` decimal digits below q from
    data[offset:], followed by at most one final newline: the body
    write_colouring emits for q <= 10.  None for any other body or q."""
    if q > 10 or not count or len(data) - offset - data.endswith(b"\n") != count:
        return None
    vals = np.frombuffer(data, dtype=np.uint8, offset=offset, count=count) - 48
    return vals if int(vals.max()) < q else None


def colouring_from_bytes(data: bytes) -> CompleteColouring:
    """Parse HCOL v1 from raw bytes; any malformed input is InvalidArgument."""
    newline = data.find(b"\n")
    if newline < 0:
        raise InvalidArgument("missing HCOL header line")
    header = _HCOL_HEADER.match(data[:newline])
    if header is None:
        line = data[:newline].decode("utf-8", errors="replace")
        raise InvalidArgument(f"bad HCOL header: {line!r}")
    n, k, q = (int(g) for g in header.groups())
    expect = math.comb(n, k)
    # a canonical q <= 10 body is one subtraction; every other body, faulty
    # ones included, takes the general path, which finds and reports the fault
    vals = _digit_body(data, newline + 1, expect, q)
    if vals is not None:
        return CompleteColouring(n=n, k=k, q=q, colours=vals)
    if q <= 16:
        # one pass over the whole file drops the blanks and maps digits to
        # colours, so the body is never sliced out; the header's surviving
        # bytes are skipped, and the readonly uint8 view is kept by the
        # colouring without a copy
        skip = len(header.group(0).translate(None, b" \t\r\n"))
        vals = np.frombuffer(
            data.translate(_HEX_DECODE, b" \t\r\n"), dtype=np.uint8, offset=skip
        )
        top = int(vals.max()) if vals.size else 0
        if top == 255:
            bad = int(np.argmax(vals == 255))
            raise InvalidArgument(f"invalid hex digit at body position {bad}")
    else:
        try:
            # a non-ASCII token fails its decode, a ValueError like any other
            # bad token; an integer beyond int64 fails the array build
            vals = np.array(
                [int(tok.decode("ascii")) for tok in data[newline + 1 :].split()],
                dtype=np.int64,
            )
        except (ValueError, OverflowError) as exc:
            raise InvalidArgument(f"invalid decimal colour: {exc}") from exc
        top = int(vals.max()) if vals.size else 0
    if vals.size != expect:
        raise InvalidArgument(
            f"body has {vals.size} colours, expected C({n},{k})={expect}"
        )
    if vals.size and top >= q:
        raise InvalidArgument(f"colour {top} out of range for q={q}")
    if vals.size and int(vals.min()) < 0:
        raise InvalidArgument(f"colour {int(vals.min())} out of range for q={q}")
    return CompleteColouring(n=n, k=k, q=q, colours=vals)


def colouring_to_text(col: CompleteColouring) -> str:
    return colouring_to_bytes(col).decode("ascii")


def colouring_from_text(text: str) -> CompleteColouring:
    return colouring_from_bytes(text.encode("utf-8", errors="surrogatepass"))


def write_colouring(col: CompleteColouring, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_hcol_parts(col))


def read_colouring(path) -> CompleteColouring:
    with open(path, "rb") as fh:
        return colouring_from_bytes(fh.read())
