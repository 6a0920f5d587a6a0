import math
import time
from itertools import combinations

import numpy as np
import pytest

from hedgehog import constructions, core, finder, verifiers


def random_two_colouring(n, seed):
    rng = np.random.default_rng(seed)
    return core.CompleteColouring(
        n, 3, 2, rng.integers(0, 2, size=math.comb(n, 3), dtype=np.uint8)
    )


def recount_labels(col, t):
    theta = finder.pair_threshold(t)
    n = col.n
    out = {}
    for u, v in combinations(range(n), 2):
        red = sum(
            1
            for w in range(n)
            if w not in (u, v) and col.colour_of(sorted((u, v, w))) == 0
        )
        blue = (n - 2) - red
        out[(u, v)] = (red < theta, blue < theta)
    return out


def test_pair_profile_all_red():
    t = 3
    n = 2 * finder.pair_threshold(t) + 2
    col = core.CompleteColouring(
        n, 3, 2, np.zeros(math.comb(n, 3), dtype=np.uint8)
    )
    aux = finder.pair_profile(col, t)
    assert all(mask == 0b10 for mask in aux.labels.tolist())


def test_pair_profile_small_n_dual_labels():
    # n=3, one red triple, t=2: both counts below theta=3, so both labels;
    # this is the regime where the disjointness claim's precondition fails
    col = core.CompleteColouring(3, 3, 2, np.array([0], dtype=np.uint8))
    aux = finder.pair_profile(col, 2)
    assert all(mask == 0b11 for mask in aux.labels.tolist())


def test_pair_profile_matches_recount():
    for seed in range(3):
        col = random_two_colouring(60, seed)
        aux = finder.pair_profile(col, 3)
        expect = recount_labels(col, 3)
        for (u, v), (red_scarce, blue_scarce) in expect.items():
            mask = int(aux.labels[core.pair_rank(u, v)])
            assert (mask & 1 == 1) == red_scarce
            assert (mask >> 1 & 1 == 1) == blue_scarce


def test_pair_profile_three_colours_matches_hand_built():
    # the pipeline's stage 1 and `extract spencer` once built this by hand
    for n, t in ((12, 2), (14, 3), (30, 4)):
        col = constructions.random_colouring(n, 3, 3, n)
        theta = finder.pair_threshold(t)
        counts = core.pair_colour_counts(col)
        aux = finder.pair_profile(col, t)
        assert (aux.n, aux.t, aux.q, aux.theta) == (n, t, 3, theta)
        assert np.array_equal(aux.counts, counts)
        assert np.array_equal(aux.labels, finder.label_pairs(counts, theta))
        for u, v in combinations(range(n), 2):
            seen = [0, 0, 0]
            for w in range(n):
                if w not in (u, v):
                    seen[col.colour_of((u, v, w))] += 1
            expect = sum(1 << c for c in range(3) if seen[c] < theta)
            assert int(aux.labels[core.pair_rank(u, v)]) == expect
    for bad in (constructions.random_colouring(8, 3, 4, 0), constructions.random_colouring(8, 2, 3, 0)):
        with pytest.raises(core.InvalidArgument):
            finder.pair_profile(bad, 2)
    # a body below k - 1 = 2 is refused before any binomial is taken
    for t in (1, 0, -3):
        with pytest.raises(core.InvalidArgument, match=f"body size t={t} must be at least"):
            finder.pair_profile(constructions.random_colouring(8, 3, 3, 0), t)


def test_label_disjointness_at_scale():
    t = 3
    n = 2 * finder.pair_threshold(t) + 2
    for seed in range(20):
        aux = finder.pair_profile(random_two_colouring(n, seed), t)
        assert not any(mask == 0b11 for mask in aux.labels.tolist())


def test_classify_vertices_no_labels():
    n = 30
    col = core.CompleteColouring(
        n, 3, 2, np.zeros(math.comb(n, 3), dtype=np.uint8)
    )
    aux = finder.pair_profile(col, 3)
    # all-red leaves only blue labels; red degrees are zero
    cls = finder.classify_vertices(aux)
    assert (cls.tags == 0).all()
    assert cls.violation is None


def test_classify_vertices_violation_verified_by_recount():
    # adversarial small case: one red triple on 3 vertices with t=2 labels
    # every edge both ways, so every vertex is heavy in both at delta=8
    col = core.CompleteColouring(3, 3, 2, np.array([0], dtype=np.uint8))
    aux = finder.pair_profile(col, 2)
    delta = finder.degree_threshold(2)
    cls = finder.classify_vertices(aux)
    for v in range(3):
        red_deg = sum(
            1
            for u in range(3)
            if u != v and int(aux.labels[core.pair_rank(*sorted((u, v)))]) & 1
        )
        assert red_deg == cls.label_degrees[v, 0]
    # delta = 8 > degree 2, so no violation despite dual labels here
    assert cls.violation is None or cls.label_degrees[cls.violation].min() >= delta


def test_classify_no_violation_at_guaranteed_scale():
    t = 3
    n = finder.guaranteed_order(t)
    for seed in range(25):
        aux = finder.pair_profile(random_two_colouring(n, seed), t)
        assert finder.classify_vertices(aux).violation is None


def test_classify_no_violation_larger_t_spot_checks():
    # the bulk of the seeds run at t in {3, 4} inside the acceptance suite;
    # here a handful at t=4 and t=5 cover the larger thresholds
    for t, seeds in ((4, range(5)), (5, range(2))):
        n = finder.guaranteed_order(t)
        for seed in seeds:
            aux = finder.pair_profile(random_two_colouring(n, seed), t)
            assert finder.classify_vertices(aux).violation is None


def test_low_degree_body_no_labels():
    n = 20
    counts = np.full((math.comb(n, 2), 2), 99, dtype=np.int64)
    aux = finder.AuxiliaryGraphColouring(
        n=n, t=3, q=2, theta=9,
        labels=np.zeros(math.comb(n, 2), dtype=np.uint8), counts=counts,
    )
    cls = finder.classify_vertices(aux)
    majority, body = finder.low_degree_body(aux, cls, 3)
    assert majority == 0 and body == [0, 1, 2]


def test_low_degree_body_perfect_matching():
    # red labels form a perfect matching on 8 vertices: peeling takes every
    # other vertex
    n = 8
    labels = np.zeros(math.comb(n, 2), dtype=np.uint8)
    for u, v in ((0, 1), (2, 3), (4, 5), (6, 7)):
        labels[core.pair_rank(u, v)] = 0b01
    counts = np.full((math.comb(n, 2), 2), 99, dtype=np.int64)
    aux = finder.AuxiliaryGraphColouring(
        n=n, t=4, q=2, theta=10, labels=labels, counts=counts
    )
    cls = finder.classify_vertices(aux)
    majority, body = finder.low_degree_body(aux, cls, 4)
    assert majority == 0 and body == [0, 2, 4, 6]


def test_peel_failures_keep_stage_and_witness():
    # red labels on every pair but (0, 2): the peel keeps 0, drops 1 and 3,
    # keeps 2, and the majority class of 4 peels to 2 of the required 3
    n = 4
    labels = np.ones(math.comb(n, 2), dtype=np.uint8)
    labels[core.pair_rank(0, 2)] = 0
    counts = np.full((math.comb(n, 2), 2), 99, dtype=np.int64)
    aux = finder.AuxiliaryGraphColouring(n=n, t=3, q=2, theta=9, labels=labels, counts=counts)
    with pytest.raises(core.StagedFailure) as info:
        finder.low_degree_body(aux, finder.classify_vertices(aux), 3)
    assert info.value.stage == "low-degree-body"
    assert str(info.value) == (
        "[low-degree-body] majority class of 4 vertices peeled to only 2 of the required 3"
    )
    assert info.value.witness == {"majority": 0, "body": [0, 2], "class_size": 4}
    # the same graph as zero-count pairs: the fallback peel finds 2 of 3
    zero = np.where(labels[:, None] == 1, 0, 5).repeat(2, axis=1)
    aux.counts = zero
    assert finder._peel_zero_count_body(aux, 0, 3) is None
    assert finder._peel_zero_count_body(aux, 1, 2) == [0, 2]
    # forced blue on an all-red colouring: every pair is blue-labelled
    mono = core.CompleteColouring(30, 3, 2, np.zeros(math.comb(30, 3), dtype=np.uint8))
    with pytest.raises(core.StagedFailure) as info:
        finder.find_hedgehog_in_colour(mono, 3, 1)
    assert info.value.stage == "low-degree-body"
    assert str(info.value) == "[low-degree-body] no size-3 body avoids edges labelled 1"
    assert info.value.witness == {"colour": 1, "body": [0]}


def test_low_degree_body_label_free_at_scale():
    t = 3
    n = finder.guaranteed_order(t)
    for seed in range(5):
        col = random_two_colouring(n, seed)
        aux = finder.pair_profile(col, t)
        cls = finder.classify_vertices(aux)
        majority, body = finder.low_degree_body(aux, cls, t)
        for u, v in combinations(body, 2):
            assert not int(aux.labels[core.pair_rank(u, v)]) >> majority & 1


def test_embed_spines_all_one_colour():
    col = core.CompleteColouring(12, 3, 2, np.zeros(220, dtype=np.uint8))
    emb = finder.embed_spines(col, [0, 1, 2, 3], 0)
    assert sorted(emb.spines.values()) == [4, 5, 6, 7, 8, 9]
    assert verifiers.verify_embedding(emb, col) is None


def test_embed_spines_single_pair():
    col = core.CompleteColouring(4, 3, 2, np.array([0, 1, 1, 1], dtype=np.uint8))
    emb = finder.embed_spines(col, [0, 1], 0)
    assert emb.spines == {(0, 1): 2}
    emb = finder.embed_spines(col, [0, 3], 1)
    assert emb.spines[(0, 3)] in (1, 2)
    assert verifiers.verify_embedding(emb, col) is None


def test_embed_spines_failure_names_pair():
    col = core.CompleteColouring(6, 3, 2, np.zeros(20, dtype=np.uint8))
    with pytest.raises(core.StagedFailure) as info:
        finder.embed_spines(col, [0, 1, 2], 1)  # no blue triples anywhere
    assert info.value.stage == "embed-spines"
    assert info.value.witness == (0, 1)


def test_find_hedgehog_at_guaranteed_scale():
    t = 3
    n = finder.guaranteed_order(t)
    for seed in range(10):
        col = random_two_colouring(n, seed)
        start = time.time()
        emb = finder.find_monochromatic_hedgehog(col, t)
        assert time.time() - start < 10.0
        assert verifiers.verify_embedding(emb, col) is None


def test_find_hedgehog_t5_large_instance():
    # one pass at the next size up, exercising the blockwise counting path
    t = 5
    n = finder.guaranteed_order(t)
    col = random_two_colouring(n, 0)
    emb = finder.find_monochromatic_hedgehog(col, t)
    assert verifiers.verify_embedding(emb, col) is None


def test_find_hedgehog_all_red_minimum_size():
    shape = core.hedgehog_shape(3, 3)
    col = core.CompleteColouring(
        shape.vertex_count, 3, 2,
        np.zeros(math.comb(shape.vertex_count, 3), dtype=np.uint8),
    )
    emb = finder.find_monochromatic_hedgehog(col, 3)
    assert emb.colour == 0
    assert verifiers.verify_embedding(emb, col) is None


def test_find_hedgehog_too_small_fails():
    col = core.CompleteColouring(5, 3, 2, np.zeros(10, dtype=np.uint8))
    with pytest.raises(core.StagedFailure):
        finder.find_monochromatic_hedgehog(col, 3)


def test_find_hedgehog_forced_colour():
    t = 3
    n = finder.guaranteed_order(t)
    col = random_two_colouring(n, 4)
    for colour in (0, 1):
        emb = finder.find_hedgehog_in_colour(col, t, colour)
        assert emb.colour == colour
        assert verifiers.verify_embedding(emb, col) is None
    # all-red colouring has no blue body at all
    mono = core.CompleteColouring(30, 3, 2, np.zeros(math.comb(30, 3), dtype=np.uint8))
    emb = finder.find_hedgehog_in_colour(mono, 3, 0)
    assert emb.colour == 0
    with pytest.raises(core.StagedFailure):
        finder.find_hedgehog_in_colour(mono, 3, 1)
