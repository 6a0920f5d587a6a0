"""Reference oracles for the tests: plain, slow second opinions that share
only the core substrate (and, to check a found F-witness, the verifiers)
with the package code they cross-check."""

import math
from itertools import combinations

import networkx as nx
import numpy as np

from hedgehog.core import (
    _HCOL_HEADER,
    CompleteColouring,
    InvalidArgument,
    ToolkitError,
    hedgehog_shape,
    rank_subset,
)
from hedgehog.verifiers import verify_f_witness


def has_monochromatic_hedgehog_slow(
    colouring: CompleteColouring, t: int, colour: int
) -> bool:
    """Naive second opinion: try every body and every injective spine
    assignment directly.  Exponential; only for cross-checking at tiny n."""
    n, k = colouring.n, colouring.k
    shape = hedgehog_shape(t, k)
    if n < shape.vertex_count:
        return False

    for body in combinations(range(n), t):
        body_set = set(body)
        subsets = list(combinations(body, k - 1))
        options = []
        for sub in subsets:
            opts = [
                w
                for w in range(n)
                if w not in body_set
                and colouring.colour_of(sorted(sub + (w,))) == colour
            ]
            options.append(opts)

        def assign(i: int, used: set[int]) -> bool:
            if i == len(subsets):
                return True
            for w in options[i]:
                if w not in used:
                    if assign(i + 1, used | {w}):
                        return True
            return False

        if assign(0, set()):
            return True
    return False


# The fancy-index HCOL codec: a digit array indexed by colour to write, a
# 256-entry value array indexed by byte to read (255 marks a non-digit).

_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_HEX_VALUES = np.full(256, 255, dtype=np.uint8)
for _i, _ch in enumerate(b"0123456789abcdef"):
    _HEX_VALUES[_ch] = _i


def colouring_to_bytes_reference(col: CompleteColouring) -> bytes:
    head = f"HCOL v1 n={col.n} k={col.k} q={col.q}\n".encode("ascii")
    if col.q <= 16:
        body = _HEX_DIGITS[col.colours].tobytes()
    else:
        body = " ".join(str(int(c)) for c in col.colours).encode("ascii")
    return head + body + b"\n"


def colouring_from_bytes_reference(data: bytes) -> CompleteColouring:
    newline = data.find(b"\n")
    if newline < 0:
        raise InvalidArgument("missing HCOL header line")
    header = _HCOL_HEADER.match(data[:newline])
    if header is None:
        line = data[:newline].decode("utf-8", errors="replace")
        raise InvalidArgument(f"bad HCOL header: {line!r}")
    n, k, q = (int(g) for g in header.groups())
    expect = math.comb(n, k)
    body = data[newline + 1 :]
    if q <= 16:
        raw = body.translate(None, b" \t\r\n")
        vals = _HEX_VALUES[np.frombuffer(raw, dtype=np.uint8)]
        if vals.size and int(vals.max()) == 255:
            bad = int(np.argmax(vals == 255))
            raise InvalidArgument(f"invalid hex digit at body position {bad}")
    else:
        try:
            vals = np.array(
                [int(tok.decode("ascii")) for tok in body.split()], dtype=np.int64
            )
        except (ValueError, OverflowError) as exc:
            raise InvalidArgument(f"invalid decimal colour: {exc}") from exc
    if vals.size != expect:
        raise InvalidArgument(
            f"body has {vals.size} colours, expected C({n},{k})={expect}"
        )
    if vals.size and int(vals.max()) >= q:
        raise InvalidArgument(f"colour {int(vals.max())} out of range for q={q}")
    if vals.size and int(vals.min()) < 0:
        raise InvalidArgument(f"colour {int(vals.min())} out of range for q={q}")
    return CompleteColouring(n=n, k=k, q=q, colours=vals.astype(np.uint8))


# The brute small-Ramsey scan: colouring i of the scan has the colour of the
# triple with colex rank r as its base-q digit r.  For q = 2 a bit-parallel
# kernel decides many colourings at once.


def _ge2(x: np.ndarray) -> np.ndarray:
    return (x & (x - 1)) != 0


def _ge3(x: np.ndarray) -> np.ndarray:
    y = x & (x - 1)
    return (y & (y - 1)) != 0


def _bulk_feasible(idx: np.ndarray, n: int, t: int) -> np.ndarray:
    """Bit-parallel hedgehog existence over many 2-colourings at once.

    idx holds colouring indices; bit r of an index is the colour of the
    triple with colex rank r.  Returns a boolean array: colouring contains a
    monochromatic body-size-t hedgehog in some colour.
    """
    any_hedgehog = np.zeros(idx.shape, dtype=bool)
    for body in combinations(range(n), t):
        body_set = set(body)
        others = [w for w in range(n) if w not in body_set]
        pos_of = {w: i for i, w in enumerate(others)}
        for colour in (0, 1):
            masks = []
            for pair in combinations(body, 2):
                s = np.zeros(idx.shape, dtype=np.uint64)
                for w in others:
                    r = rank_subset(sorted(pair + (w,)))
                    bit = (idx >> np.uint64(r)) & np.uint64(1)
                    if colour == 0:
                        bit = bit ^ np.uint64(1)
                    s |= bit << np.uint64(pos_of[w])
                masks.append(s)
            if t == 2:
                ok = masks[0] != 0
            elif t == 3:
                s1, s2, s3 = masks
                ok = (
                    (s1 != 0)
                    & (s2 != 0)
                    & (s3 != 0)
                    & _ge2(s1 | s2)
                    & _ge2(s1 | s3)
                    & _ge2(s2 | s3)
                    & _ge3(s1 | s2 | s3)
                )
            else:  # pragma: no cover - guarded by caller
                raise InvalidArgument("bulk path supports t in (2, 3)")
            any_hedgehog |= ok
        if any_hedgehog.all():
            break
    return any_hedgehog


def brute_ramsey_scan(t: int, q: int, n: int, chunk: int = 1 << 16):
    """(holds, first hedgehog-free colouring or None, colourings checked) of
    the plain scan in index order.  For q = 2 only indices with top digit 0
    are scanned, one per colour-swap class.  q = 2 with t in (2, 3) goes
    through the bit-parallel kernel, anything else colouring by colouring
    through the naive hedgehog oracle."""
    m = math.comb(n, 3)
    scan = q**m // 2 if q == 2 and m > 0 else q**m
    if q == 2 and t in (2, 3):
        for lo in range(0, scan, chunk):
            idx = np.arange(lo, min(lo + chunk, scan), dtype=np.uint64)
            feasible = _bulk_feasible(idx, n, t)
            if not feasible.all():
                i = lo + int(np.argmax(~feasible))
                colours = np.array([(i >> r) & 1 for r in range(m)], dtype=np.uint8)
                return False, CompleteColouring(n, 3, q, colours), i + 1
        return True, None, scan
    for i in range(scan):
        digits = []
        x = i
        for _ in range(m):
            digits.append(x % q)
            x //= q
        col = CompleteColouring(n, 3, q, np.array(digits, dtype=np.uint8))
        if not any(has_monochromatic_hedgehog_slow(col, t, c) for c in range(q)):
            return False, col, i + 1
    return True, None, scan


# The F(t) search as a backtracker of its own: edges in colex order, red,
# blue and green forced to first appear in index order, yellow always tried.

YELLOW = 3


class _BudgetExceeded(Exception):
    pass


def search_f_witness_reference(t: int, n: int, node_budget: int):
    """Decide whether a 4-colouring of K_n with no red/blue/green rainbow
    triangle and no t-clique on <= 3 colours exists, by backtracking over
    edges in colex order.

    Enumeration is exhaustive up to permutations of {red, blue, green}: the
    first occurrences of those colours are forced to appear in index order,
    which is sound because both constraints are invariant under permuting
    them (yellow is distinguished).  Returns (status, witness) with status
    one of "found", "none", "budget".
    """
    pairs = [(a, b) for b in range(n) for a in range(b)]
    mat = [[0] * n for _ in range(n)]
    nodes = 0

    def rec(idx: int, rbg_used: int):
        nonlocal nodes
        if idx == len(pairs):
            return []
        nodes += 1
        if nodes > node_budget:
            raise _BudgetExceeded
        a, b = pairs[idx]
        for c in [*range(min(rbg_used + 1, 3)), YELLOW]:
            ok = True
            for x in range(a):
                if {mat[x][a], mat[x][b], c} == {0, 1, 2}:
                    ok = False
                    break
            if ok and a >= t - 2:
                for rest in combinations(range(a), t - 2):
                    census = 1 << c
                    for u, v in combinations(rest + (a, b), 2):
                        if (u, v) != (a, b):
                            census |= 1 << mat[u][v]
                    if census.bit_count() <= 3:
                        ok = False
                        break
            if not ok:
                continue
            mat[a][b] = mat[b][a] = c
            tail = rec(idx + 1, rbg_used + (1 if c == rbg_used and c < 3 else 0))
            if tail is not None:
                return [c] + tail
        return None

    try:
        assignment = rec(0, 0)
    except _BudgetExceeded:
        return "budget", None
    if assignment is None:
        return "none", None
    col = CompleteColouring(n, 2, 4, np.array(assignment, dtype=np.uint8))
    witness = verify_f_witness(col, t)
    if not witness.valid:
        raise ToolkitError("exhaustive search produced an invalid witness")
    return "found", col


def move_delta_reference(
    cols: list[int],
    rank_of_pair: dict[tuple[int, int], int],
    n: int,
    t: int,
    u: int,
    v: int,
    new_colour: int,
) -> int:
    """Deficiencies created minus removed among t-cliques through {u, v} if
    that edge is recoloured: cliques where the old colour appeared only here
    become deficient, cliques missing the new colour stop being so."""
    old = cols[rank_of_pair[(u, v)]]
    others = [w for w in range(n) if w not in (u, v)]
    subsets = list(combinations(others, t - 2))
    delta = 0
    for rest in subsets:
        members = rest + (u, v)
        old_count = 0
        new_count = 0
        for x, y in combinations(sorted(members), 2):
            c = cols[rank_of_pair[(x, y)]]
            if c == old:
                old_count += 1
            if c == new_colour:
                new_count += 1
        if old_count == 1:
            delta += 1
        if new_count == 0:
            delta -= 1
    return delta


def violation_count_at_reference(mat, n: int, t: int, u: int, v: int) -> int:
    """Rainbow triangles plus bad t-cliques through the edge {u, v}."""
    bad = 0
    others = [w for w in range(n) if w not in (u, v)]
    for w in others:
        if {mat[u][v], mat[u][w], mat[v][w]} == {0, 1, 2}:
            bad += 1
    for rest in combinations(others, t - 2):
        census = 0
        for x, y in combinations(rest + (u, v), 2):
            census |= 1 << mat[x][y]
        if census.bit_count() <= 3:
            bad += 1
    return bad


def f_clique_prune_reference(mat, t: int, a: int, b: int, c: int) -> bool:
    """Whether colouring the edge {a, b} with c completes a t-clique on at
    most 3 colours whose other vertices lie below a (the t-clique check of
    the exhaustive F search)."""
    if a >= t - 2:
        for rest in combinations(range(a), t - 2):
            census = 1 << c
            for u, v in combinations(rest + (a, b), 2):
                if (u, v) != (a, b):
                    census |= 1 << mat[u][v]
            if census.bit_count() <= 3:
                return True
    return False


def gallai_product_clique_reference(product: CompleteColouring) -> int:
    """The largest clique using at most 3 of the 4 colours, by networkx's
    exact maximum-clique search on each 3-colour union graph of the whole
    product: the number `gallai_lower_bound_witness` reads off its factors."""
    pairs = [(a, b) for b in range(product.n) for a in range(b)]
    largest = 0
    for triple in combinations(range(4), 3):
        g = nx.Graph()
        g.add_nodes_from(range(product.n))
        g.add_edges_from(p for p, c in zip(pairs, product.colours.tolist()) if c in triple)
        largest = max(largest, nx.max_weight_clique(g, weight=None)[1])
    return largest
