import math
from itertools import combinations

import numpy as np
import pytest

from hedgehog import core, verifiers


def random_colouring_array(rng, n, k, q):
    return core.CompleteColouring(
        n, k, q, rng.integers(0, q, size=math.comb(n, k), dtype=np.uint8)
    )


def test_verify_embedding_round_trip():
    col = core.CompleteColouring(8, 3, 2, np.zeros(56, dtype=np.uint8))
    emb = verifiers.has_monochromatic_hedgehog(col, 3, 0)
    assert emb is not None
    assert verifiers.verify_embedding(emb, col) is None


def test_verify_embedding_names_failures():
    col = core.CompleteColouring(8, 3, 2, np.zeros(56, dtype=np.uint8))
    good = core.HedgehogEmbedding(
        colour=0, body=(0, 1, 2), spines={(0, 1): 3, (0, 2): 4, (1, 2): 5}
    )
    assert verifiers.verify_embedding(good, col) is None

    shared = core.HedgehogEmbedding(
        colour=0, body=(0, 1, 2), spines={(0, 1): 3, (0, 2): 3, (1, 2): 5}
    )
    v = verifiers.verify_embedding(shared, col)
    assert v is not None and v.kind == "injectivity"

    inside = core.HedgehogEmbedding(
        colour=0, body=(0, 1, 2), spines={(0, 1): 2, (0, 2): 4, (1, 2): 5}
    )
    assert verifiers.verify_embedding(inside, col).kind == "disjointness"

    dup = core.HedgehogEmbedding(
        colour=0, body=(0, 1, 1), spines={(0, 1): 3, (0, 2): 4, (1, 2): 5}
    )
    assert verifiers.verify_embedding(dup, col).kind == "body"

    wrong_keys = core.HedgehogEmbedding(
        colour=0, body=(0, 1, 2), spines={(0, 1): 3, (0, 2): 4, (1, 3): 5}
    )
    assert verifiers.verify_embedding(wrong_keys, col).kind == "spine-map"


def test_verify_embedding_recoloured_triple_names_pair():
    # recolour exactly one spine triple and check the violation points at it
    col = core.CompleteColouring(9, 3, 2, np.zeros(84, dtype=np.uint8))
    emb = core.HedgehogEmbedding(
        colour=0, body=(0, 1, 2), spines={(0, 1): 3, (0, 2): 4, (1, 2): 5}
    )
    assert verifiers.verify_embedding(emb, col) is None
    colours = col.colours.copy()
    colours[core.rank_subset((0, 2, 4))] = 1
    mutated = core.CompleteColouring(9, 3, 2, colours)
    v = verifiers.verify_embedding(emb, mutated)
    assert v is not None and v.kind == "colour" and v.pair == (0, 2)


def test_hedgehog_oracle_agrees_with_naive():
    rng = np.random.default_rng(7)
    for trial in range(1200):
        n = int(rng.integers(6, 10))
        q = 2 if trial % 2 == 0 else 3
        col = random_colouring_array(rng, n, 3, q)
        for colour in range(q):
            fast = verifiers.has_monochromatic_hedgehog(col, 3, colour)
            slow = verifiers.has_monochromatic_hedgehog_slow(col, 3, colour)
            assert (fast is not None) == slow
            if fast is not None:
                assert verifiers.verify_embedding(fast, col) is None


def test_hedgehog_oracle_pigeonhole():
    col = core.CompleteColouring(5, 3, 2, np.zeros(10, dtype=np.uint8))
    assert verifiers.has_monochromatic_hedgehog(col, 3, 0) is None


def test_hedgehog_oracle_k4():
    col = core.CompleteColouring(8, 4, 2, np.zeros(70, dtype=np.uint8))
    emb = verifiers.has_monochromatic_hedgehog(col, 4, 0)
    assert emb is not None and emb.k == 4
    assert verifiers.verify_embedding(emb, col) is None
    assert verifiers.has_monochromatic_hedgehog(col, 4, 1) is None


def test_matching_feasibility_monotone():
    # recolouring any triple to the target colour never flips yes -> no
    rng = np.random.default_rng(9)
    flips = 0
    for _ in range(100):
        n = 8
        col = random_colouring_array(rng, n, 3, 2)
        before = verifiers.has_monochromatic_hedgehog(col, 3, 0)
        if before is None:
            continue
        colours = col.colours.copy()
        colours[int(rng.integers(0, len(colours)))] = 0
        mutated = core.CompleteColouring(n, 3, 2, colours)
        after = verifiers.has_monochromatic_hedgehog(mutated, 3, 0)
        if after is None:
            flips += 1
    assert flips == 0


def test_rainbow_triangle_free():
    col = core.CompleteColouring(3, 2, 3, np.array([0, 1, 2], dtype=np.uint8))
    assert verifiers.rainbow_triangle_free(col, (0, 1, 2)) == (0, 1, 2)
    rng = np.random.default_rng(3)
    two = random_colouring_array(rng, 10, 2, 2)
    assert verifiers.rainbow_triangle_free(two, (0, 1, 2)) is None
    with pytest.raises(core.InvalidArgument):
        verifiers.rainbow_triangle_free(two, (0, 1))


def test_rainbow_triangle_free_returns_colex_first():
    rng = np.random.default_rng(5)
    for n in (9, 16, 30):
        col = random_colouring_array(rng, n, 2, 4)
        rainbow = [
            tri
            for tri in sorted(combinations(range(n), 3), key=lambda s: s[::-1])
            if {col.colour_of(e) for e in combinations(tri, 2)} == {1, 2, 3}
        ]
        assert len(rainbow) >= 2
        assert verifiers.rainbow_triangle_free(col, (3, 1, 2)) == rainbow[0]
    # two rainbow triangles, where colex and lexicographic order disagree
    cols = np.zeros(10, dtype=np.uint8)
    edges = {(1, 2): 1, (1, 3): 2, (2, 3): 3, (0, 3): 1, (0, 4): 2, (3, 4): 3}
    for (u, v), c in edges.items():
        cols[core.pair_rank(u, v)] = c
    col = core.CompleteColouring(5, 2, 4, cols)
    assert verifiers.rainbow_triangle_free(col, (1, 2, 3)) == (1, 2, 3)


def test_every_clique_all_colours_examples():
    mono = core.CompleteColouring(6, 2, 2, np.zeros(15, dtype=np.uint8))
    w = verifiers.every_clique_all_colours(mono, 3, 2)
    assert w is not None and w.colours == frozenset({0})
    # n = t with all colours present: single clique, ok
    col = core.CompleteColouring(4, 2, 4, np.array([0, 1, 2, 3, 0, 1], dtype=np.uint8))
    assert verifiers.every_clique_all_colours(col, 4, 4) is None


def test_every_clique_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(150):
        n = int(rng.integers(4, 15))
        t = int(rng.integers(2, 6))
        if t > n:
            continue
        q = int(rng.integers(2, 5))
        col = random_colouring_array(rng, n, 2, q)
        got = verifiers.every_clique_all_colours(col, t, q)
        brute = None
        for sub in combinations(range(n), t):
            cen = {col.colour_of(p) for p in combinations(sub, 2)}
            if cen != set(range(q)):
                brute = sub
                break
        assert (got is None) == (brute is None)
        if got is not None:
            cen = {col.colour_of(p) for p in combinations(got.vertices, 2)}
            assert cen == set(got.colours) and len(cen) < q


def test_verify_clique_census():
    col = core.CompleteColouring(5, 2, 3, np.array(
        [0, 0, 1, 0, 1, 2, 0, 1, 2, 2], dtype=np.uint8))
    verts = (0, 1, 2)
    census = frozenset(
        col.colour_of(p) for p in combinations(verts, 2)
    )
    ok = core.CliqueWitness(verts, census)
    assert verifiers.verify_clique_census(ok, col) is None
    bad = core.CliqueWitness(verts, census | {2})
    assert verifiers.verify_clique_census(bad, col).kind == "census"
    dup = core.CliqueWitness((0, 0, 2), census)
    assert verifiers.verify_clique_census(dup, col).kind == "vertices"


def test_verify_complement_lift_structure():
    from hedgehog import constructions

    rng = np.random.default_rng(5)
    base = random_colouring_array(rng, 9, 2, 4)
    lifted = constructions.complement_lift(base, (0, 1, 2, 3))
    assert verifiers.verify_complement_lift(lifted, base, (0, 1, 2, 3)) is None
    colours = lifted.colours.copy()
    colours[7] = (colours[7] + 1) % 4
    broken = core.CompleteColouring(9, 3, 4, colours)
    v = verifiers.verify_complement_lift(broken, base, (0, 1, 2, 3))
    assert v is not None


def test_exhaustive_ramsey_tiny():
    assert verifiers.exhaustive_ramsey_check(2, 2, 3).holds
    r = verifiers.exhaustive_ramsey_check(2, 2, 2)
    assert not r.holds and r.counterexample.edge_count == 0


def test_exhaustive_ramsey_cross_check_is_not_an_assert(monkeypatch):
    # an oracle that finds a hedgehog everywhere disagrees with the fast
    # path's counterexample; the disagreement must raise under python -O too
    monkeypatch.setattr(verifiers, "has_monochromatic_hedgehog", lambda *args: object())
    with pytest.raises(core.ToolkitError, match="disagree"):
        verifiers.exhaustive_ramsey_check(3, 2, 5)


def test_exhaustive_ramsey_refuses_large():
    with pytest.raises(core.RefusedInstance):
        verifiers.exhaustive_ramsey_check(3, 2, 12)


def test_exhaustive_fast_path_agrees_with_oracle_per_colouring():
    # compare the bit-parallel feasibility with the matching oracle
    rng = np.random.default_rng(13)
    n, t = 6, 3
    m = math.comb(n, 3)
    idx = rng.integers(0, 2**m, size=500, dtype=np.uint64)
    bulk = verifiers._bulk_feasible(idx, n, t)
    for i, feas in zip(idx.tolist(), bulk.tolist()):
        colours = np.array([(i >> r) & 1 for r in range(m)], dtype=np.uint8)
        col = core.CompleteColouring(n, 3, 2, colours)
        oracle = any(
            verifiers.has_monochromatic_hedgehog(col, t, c) is not None
            for c in range(2)
        )
        assert oracle == feas


def test_exhaustive_ramsey_q3_loop_path():
    # q=3 goes through the per-colouring loop; t=2, n=3 has one triple
    r = verifiers.exhaustive_ramsey_check(2, 3, 3)
    assert r.holds and r.total == 3
