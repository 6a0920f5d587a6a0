import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from hedgehog import constructions, core, extractors, verifiers
from reference_oracles import gallai_product_clique_reference


def test_random_colouring_deterministic():
    a = constructions.random_colouring(5, 2, 4, 7)
    b = constructions.random_colouring(5, 2, 4, 7)
    assert core.colouring_to_text(a) == core.colouring_to_text(b)
    c = constructions.random_colouring(5, 2, 4, 8)
    assert not a.equals(c)


def test_random_colouring_fails_closed():
    bad = (
        dict(n=-1, k=3, q=2, seed=0),
        dict(n=5, k=3, q=2, seed=-1),
        dict(n=5, k=3, q=0, seed=0),
        dict(n=5, k=3, q=300, seed=0),
        dict(n=5, k=5, q=2, seed=0),
        dict(n=core.MAX_VERTICES + 1, k=4, q=2, seed=0),
        dict(n=5, k=3, q=2, seed=None),
        dict(n=5, k=3, q=2, seed=1.5),
    )
    for kwargs in bad:
        with pytest.raises(core.InvalidArgument):
            constructions.random_colouring(**kwargs)


def test_random_colouring_single_colour():
    col = constructions.random_colouring(4, 3, 1, 123)
    assert col.colours.tolist() == [0, 0, 0, 0]


def test_random_colouring_balance():
    # binomial tails put the colour-0 frequency well inside [0.45, 0.55]
    col = constructions.random_colouring(30, 3, 2, 1)
    m = math.comb(30, 3)
    zero = int((col.colours == 0).sum())
    assert 0.45 * m <= zero <= 0.55 * m


def test_scattered_single_clique():
    spec = constructions.ScatteredColouringSpec(n=4, t=4, q=4, seed=1)
    col, report = constructions.find_scattered_colouring(spec)
    assert col is not None and report.outcome == "found"
    assert verifiers.every_clique_all_colours(col, 4, 4) is None


def test_scattered_infeasible():
    with pytest.raises(core.InfeasibleSpec):
        constructions.find_scattered_colouring(
            constructions.ScatteredColouringSpec(n=5, t=2, q=4, seed=1)
        )


def test_scattered_local_search_cross_checked():
    spec = constructions.ScatteredColouringSpec(n=6, t=4, q=4, seed=3)
    col, report = constructions.find_scattered_colouring(spec)
    assert col is not None
    assert verifiers.every_clique_all_colours(col, 4, 4) is None
    # exhaustive double check against plain enumeration
    for sub in combinations(range(6), 4):
        cen = {col.colour_of(p) for p in combinations(sub, 2)}
        assert cen == {0, 1, 2, 3}


def test_scattered_rejection_mode_reproducible():
    spec = constructions.ScatteredColouringSpec(
        n=5, t=4, q=4, seed=9, max_tries=200, search_mode="rejection"
    )
    col1, rep1 = constructions.find_scattered_colouring(spec)
    col2, rep2 = constructions.find_scattered_colouring(spec)
    assert rep1.tries == rep2.tries and rep1.outcome == rep2.outcome
    if col1 is not None:
        assert col1.equals(col2)


def test_deficient_clique_is_colour_major_lex_first():
    rng = np.random.default_rng(12)
    found = 0
    for _ in range(400):
        n = int(rng.integers(0, 10))
        q = int(rng.integers(1, 5))
        t = int(rng.integers(1, 6))
        cols = rng.integers(0, q, size=math.comb(n, 2)).tolist()
        colour_of = {pair: cols[core.pair_rank(*pair)] for pair in combinations(range(n), 2)}
        mat = [[0] * n for _ in range(n)]
        for (u, v), c in colour_of.items():
            mat[u][v] = mat[v][u] = c
        expect = None
        for colour in range(q):
            clique = next(
                (
                    sub
                    for sub in combinations(range(n), t)
                    if all(colour_of[p] != colour for p in combinations(sub, 2))
                ),
                None,
            )
            if clique is not None:
                expect = (colour, list(clique))
                break
        found += expect is not None and expect[0] > 0
        assert constructions._CountTable(mat, t, q).deficient() == expect, (n, q, t)
    assert found > 0  # some answers come from a colour after the first


def test_scattered_search_refuses_an_oversized_table_before_drawing(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a colouring")

    monkeypatch.setattr(constructions, "random_matrix", no_draw)
    monkeypatch.setattr(constructions, "_block_seed", no_draw)
    for n, t, mode in ((48, 5, "local-search"), (34, 6, "rejection"), (200, 6, "local-search")):
        spec = constructions.ScatteredColouringSpec(n=n, t=t, q=4, seed=0, search_mode=mode)
        with pytest.raises(core.RefusedInstance, match="above the limit 16777216"):
            constructions.find_scattered_colouring(spec)


def test_scattered_search_admits_the_largest_tables():
    # the largest n under the limit at t = 5 and t = 6: the search is not
    # refused (no tries, so no draw), and the table builds with every
    # t-set's counts summing to its C(t, 2) edges
    try:
        for n, t in ((47, 5), (33, 6)):
            assert math.comb(n + 1, t) * math.comb(t, 2) > constructions.SCATTERED_TABLE_LIMIT
            spec = constructions.ScatteredColouringSpec(n=n, t=t, q=4, seed=0, max_tries=0)
            col, report = constructions.find_scattered_colouring(spec)
            assert col is None and report.tries == 0
            mat = core.random_matrix(random.Random(n), n, range(4))
            table = constructions._CountTable(mat, t, 4)
            assert table.counts.shape == (math.comb(n, t), 4)
            assert (table.counts.sum(axis=1) == math.comb(t, 2)).all()
            # the first and last t-sets in lexicographic order
            for row, sub in ((0, range(t)), (-1, range(n - t, n))):
                edges = [mat[u][v] for u, v in combinations(sub, 2)]
                assert table.counts[row].tolist() == [edges.count(c) for c in range(4)]
    finally:
        constructions._pair_rows.cache_clear()


def test_complement_lift_examples():
    g = core.CompleteColouring(3, 2, 4, np.array([0, 1, 2], dtype=np.uint8))
    lift = constructions.complement_lift(g, (0, 1, 2, 3))
    assert lift.colour_of((0, 1, 2)) == 3

    g = core.CompleteColouring(3, 2, 4, np.zeros(3, dtype=np.uint8))
    lift = constructions.complement_lift(g, (0, 1, 2, 3))
    assert lift.colour_of((0, 1, 2)) == 1

    g = core.CompleteColouring(3, 2, 3, np.array([0, 0, 1], dtype=np.uint8))
    lift = constructions.complement_lift(g, (0, 1, 2))
    assert lift.colour_of((0, 1, 2)) == 2


def test_complement_lift_reports_full_palette_triangle():
    g = core.CompleteColouring(3, 2, 3, np.array([0, 1, 2], dtype=np.uint8))
    with pytest.raises(core.PreconditionViolated) as info:
        constructions.complement_lift(g, (0, 1, 2))
    assert info.value.witness[0] == (0, 1, 2)


def test_complement_lift_never_reuses_edge_colours():
    for seed in range(5):
        g = constructions.random_colouring(14, 2, 4, seed)
        lift = constructions.complement_lift(g, (0, 1, 2, 3))
        for a, b, c in combinations(range(14), 3):
            edges = {
                g.colour_of((a, b)), g.colour_of((a, c)), g.colour_of((b, c))
            }
            assert lift.colour_of((a, b, c)) not in edges


def test_scattered_lift_is_hedgehog_free():
    spec = constructions.ScatteredColouringSpec(n=8, t=4, q=4, seed=2)
    base, _ = constructions.find_scattered_colouring(spec)
    assert base is not None
    lift = constructions.complement_lift(base, (0, 1, 2, 3))
    for colour in range(4):
        assert verifiers.has_monochromatic_hedgehog(lift, 4, colour) is None


def test_kr_quad_lift_examples():
    all_red = core.CompleteColouring(4, 2, 2, np.zeros(6, dtype=np.uint8))
    assert constructions.kr_quad_lift(all_red).colour_of((0, 1, 2, 3)) == 0

    cols = np.zeros(6, dtype=np.uint8)
    for pr in (core.pair_rank(0, 1), core.pair_rank(0, 2), core.pair_rank(1, 2)):
        cols[pr] = 1  # blue triangle on {0,1,2}, remaining edges red
    g = core.CompleteColouring(4, 2, 2, cols)
    tri_cols = [
        {g.colour_of(p) for p in combinations(tri, 2)}
        for tri in combinations(range(4), 3)
    ]
    assert {1} in tri_cols and {0} not in tri_cols
    assert constructions.kr_quad_lift(g).colour_of((0, 1, 2, 3)) == 1

    cols = np.zeros(6, dtype=np.uint8)
    cols[core.pair_rank(0, 2)] = 1
    cols[core.pair_rank(1, 3)] = 1  # C4 plus coloured diagonals
    g = core.CompleteColouring(4, 2, 2, cols)
    for tri in combinations(range(4), 3):
        assert len({g.colour_of(p) for p in combinations(tri, 2)}) == 2
    assert constructions.kr_quad_lift(g).colour_of((0, 1, 2, 3)) == 0


@pytest.mark.parametrize("n", [0, 3, 4, 9])
def test_kr_quad_lift_matches_brute_force(n):
    rng = np.random.default_rng(9)
    for density in (0.2, 0.5, 0.8):
        cols = (rng.random(math.comb(n, 2)) < density).astype(np.uint8)
        g = core.CompleteColouring(n, 2, 2, cols)
        lifted = constructions.kr_quad_lift(g)
        for quad in combinations(range(n), 4):
            mono = set()
            for tri in combinations(quad, 3):
                edge_colours = {g.colour_of(e) for e in combinations(tri, 2)}
                if len(edge_colours) == 1:
                    mono |= edge_colours
            expect = 1 if 1 in mono and 0 not in mono else 0
            assert lifted.colour_of(quad) == expect, (density, quad)


def both_triangles_in_every(base, t):
    for sub in combinations(range(base.n), t):
        seen = set()
        for tri in combinations(sub, 3):
            cols = {base.colour_of(p) for p in combinations(tri, 2)}
            if len(cols) == 1:
                seen.add(cols.pop())
        if seen != {0, 1}:
            return sub
    return None


def test_kr_lift_soundness_with_block_base():
    # red inside three triples, blue across: every 7-subset of 9 vertices
    # contains monochromatic triangles of both colours
    n = 9
    blocks = [set(range(0, 3)), set(range(3, 6)), set(range(6, 9))]
    cols = np.zeros(math.comb(n, 2), dtype=np.uint8)
    a, b = core.pair_arrays(n)
    for r in range(len(cols)):
        same = any(int(a[r]) in blk and int(b[r]) in blk for blk in blocks)
        cols[r] = 0 if same else 1
    base = core.CompleteColouring(n, 2, 2, cols)
    t = 7
    assert both_triangles_in_every(base, t) is None
    lifted = constructions.kr_quad_lift(base)
    for colour in range(2):
        assert verifiers.has_monochromatic_hedgehog(lifted, t, colour) is None


def test_kr_lift_negative_control():
    # an all-red base lifts to all-red quads, which do contain hedgehogs,
    # so the exact k=4 oracle is not vacuously returning none
    n = 8
    base = core.CompleteColouring(n, 2, 2, np.zeros(math.comb(n, 2), dtype=np.uint8))
    lifted = constructions.kr_quad_lift(base)
    assert lifted.colours.tolist() == [0] * math.comb(n, 4)
    emb = verifiers.has_monochromatic_hedgehog(lifted, 4, 0)
    assert emb is not None
    assert verifiers.verify_embedding(emb, lifted) is None


def test_quad_set_lift_examples():
    tr = core.CompleteColouring(4, 3, 4, np.array([2, 2, 2, 2], dtype=np.uint8))
    lifted = constructions.quad_set_lift(tr)
    assert lifted.q == 15
    assert constructions.quad_set_lift_colour_count(4) == 15
    assert lifted.colour_of((0, 1, 2, 3)) == 2  # the singleton {2}

    tr = core.CompleteColouring(4, 3, 4, np.array([0, 1, 2, 3], dtype=np.uint8))
    assert constructions.quad_set_lift(tr).colour_of((0, 1, 2, 3)) == 14

    # the last subset of q = 8, {4, 5, 6, 7}, is the highest mask four
    # triples can show, 0b11110000
    tr = core.CompleteColouring(4, 3, 8, np.array([4, 5, 6, 7], dtype=np.uint8))
    assert constructions.quad_set_lift(tr).colour_of((0, 1, 2, 3)) == 161

    with pytest.raises(core.InvalidArgument):
        constructions.quad_set_lift(
            core.CompleteColouring(4, 3, 9, np.zeros(4, dtype=np.uint8))
        )


@pytest.mark.parametrize("n", [0, 3, 4, 7])
@pytest.mark.parametrize("q", [1, 2, 3, 8])
def test_quad_set_lift_matches_direct_subset_rank(q, n):
    # at q = 8 the masks can run up to 0b11110000, into the top of the 256-byte
    # subset-rank table
    rng = np.random.default_rng(4)
    tr = core.CompleteColouring(
        n, 3, q, rng.integers(0, q, size=math.comb(n, 3), dtype=np.uint8)
    )
    lifted = constructions.quad_set_lift(tr)
    ordered = sorted(
        (frozenset(s) for size in range(1, 5)
         for s in combinations(range(q), size)),
        key=lambda s: (len(s), sorted(s)[::-1]),
    )
    # colex order within a size class equals numeric bitmask order
    index_of = {}
    masks = sorted(
        (m for m in range(1, 1 << q) if bin(m).count("1") <= 4),
        key=lambda m: (bin(m).count("1"), m),
    )
    for i, m in enumerate(masks):
        index_of[frozenset(c for c in range(q) if m >> c & 1)] = i
    for quad in combinations(range(n), 4):
        got = lifted.colour_of(quad)
        want = index_of[
            frozenset(tr.colour_of(t) for t in combinations(quad, 3))
        ]
        assert got == want


@pytest.mark.parametrize("lift", ["kr_quad_lift", "quad_set_lift"])
def test_quad_lifts_peak_memory(lift):
    # a lift holds its output and the pair ranks of every triple, three
    # np.intp per triple, plus per-slab temporaries: no whole-output mask
    # and no vertex arrays of the 4-sets
    n = 72
    rng = np.random.default_rng(8)
    k, q = (2, 2) if lift == "kr_quad_lift" else (3, 4)
    src = core.CompleteColouring(
        n, k, q, rng.integers(0, q, size=math.comb(n, k), dtype=np.uint8)
    )
    run = getattr(constructions, lift)
    run(src)  # fill the size-keyed caches the walk reads
    tracemalloc.start()
    try:
        out = run(src)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (out.edge_count + 24 * math.comb(n, 3))


def test_lex_product_identities():
    inner = constructions.random_colouring(5, 2, 3, 1)
    one = core.CompleteColouring(1, 2, 3, np.empty(0, dtype=np.uint8))
    assert constructions.lex_product(one, inner).equals(inner)
    assert constructions.lex_product(inner, one).equals(inner)


def test_lex_product_hand_checked():
    outer = core.CompleteColouring(2, 2, 2, np.array([0], dtype=np.uint8))
    inner = core.CompleteColouring(2, 2, 2, np.array([1], dtype=np.uint8))
    prod = constructions.lex_product(outer, inner)
    assert prod.colour_of((0, 1)) == 1
    assert prod.colour_of((2, 3)) == 1
    for e in ((0, 2), (0, 3), (1, 2), (1, 3)):
        assert prod.colour_of(e) == 0


def test_lex_product_associative():
    a = constructions.random_colouring(2, 2, 3, 5)
    b = constructions.random_colouring(3, 2, 3, 6)
    c = constructions.random_colouring(2, 2, 3, 7)
    left = constructions.lex_product(constructions.lex_product(a, b), c)
    right = constructions.lex_product(a, constructions.lex_product(b, c))
    assert left.equals(right)


def test_lex_product_preserves_rainbow_freeness():
    rng = np.random.default_rng(8)
    for seed in range(5):
        f1 = core.CompleteColouring(
            3, 2, 3, rng.choice([0, 1], size=3).astype(np.uint8)
        )
        f2 = core.CompleteColouring(
            3, 2, 3, rng.choice([1, 2], size=3).astype(np.uint8)
        )
        prod = constructions.lex_product(f1, f2)
        assert verifiers.rainbow_triangle_free(prod, (0, 1, 2)) is None


def test_gallai_lower_bound_witness():
    col, report = constructions.gallai_lower_bound_witness(8, seed=4)
    assert col is not None and report.outcome == "found"
    assert col.n == 8 and col.q == 4
    assert verifiers.rainbow_triangle_free(col, (0, 1, 2)) is None
    # the reported bound is exact: no clique of that order on <= 3 colours
    bound = report.details["clique_free_order"]
    assert extractors.three_colour_clique_search(col, bound) is None
    if report.details["max_three_colour_clique"] >= 1:
        assert (
            extractors.three_colour_clique_search(
                col, report.details["max_three_colour_clique"]
            )
            is not None
        )


@pytest.mark.parametrize("t", [2, 8, 64, 3000, 4000, 5000])
def test_gallai_clique_number_equals_networkx(t):
    # base sizes 2, 3 and 4; every seed, including t = 5000 seeds 1, 6 and
    # 10, on which an exact search on the whole 64-vertex product ran for minutes
    for seed in range(20):
        col, report = constructions.gallai_lower_bound_witness(t, seed)
        assert report.details["max_three_colour_clique"] == gallai_product_clique_reference(col)


def brute_clique_number(col, colours):
    """Largest vertex set whose internal edges all take a colour in `colours`."""
    for size in range(col.n, 0, -1):
        for verts in combinations(range(col.n), size):
            if all(col.colour_of(pair) in colours for pair in combinations(verts, 2)):
                return size
    return 0


def test_gallai_clique_number_is_the_product_of_factor_clique_numbers():
    # t = 8000 has 6-vertex bases and a 216-vertex product; read the factors
    # back off the product's block structure, v = 36 a + 6 b + c
    for seed in range(20):
        col, report = constructions.gallai_lower_bound_witness(8000, seed)
        assert col.n == 216
        factors = []
        for step in (36, 6, 1):
            pairs = [(step * a, step * b) for b in range(6) for a in range(b)]
            colours = np.array([col.colour_of(pair) for pair in pairs], dtype=np.uint8)
            factors.append(core.CompleteColouring(6, 2, 4, colours))
        rebuilt = constructions.lex_product(
            factors[0], constructions.lex_product(factors[1], factors[2])
        )
        assert rebuilt.equals(col)
        omega = max(
            math.prod(brute_clique_number(f, triple) for f in factors)
            for triple in combinations(range(4), 3)
        )
        assert report.details["max_three_colour_clique"] == omega
        assert report.details["clique_free_order"] == omega + 1


def test_gallai_witness_factor_surjectivity_census():
    # with surjective factors all four colours appear in the product
    col, report = constructions.gallai_lower_bound_witness(64, seed=1)
    assert col is not None
    assert report.details["colours_used"] >= 3
