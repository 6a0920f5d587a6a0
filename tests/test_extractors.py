import math
from itertools import combinations

import numpy as np
import pytest

from hedgehog import constructions, core, extractors, finder, verifiers
from reference_oracles import search_f_witness_reference


def random_graph_colouring(rng, n, q):
    return core.CompleteColouring(
        n, 2, q, rng.integers(0, q, size=math.comb(n, 2), dtype=np.uint8)
    )


def brute_max_clique(adj, n):
    for size in range(n, 0, -1):
        for sub in combinations(range(n), size):
            if all(adj[u] >> v & 1 for u, v in combinations(sub, 2)):
                return size
    return 0


def test_max_clique_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(150):
        n = int(rng.integers(1, 13))
        adj = [0] * n
        for u, v in combinations(range(n), 2):
            if rng.random() < rng.random():
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        got = extractors.max_clique(adj, n)
        for u, v in combinations(got, 2):
            assert adj[u] >> v & 1
        assert len(got) == brute_max_clique(adj, n)


def random_hypergraph(seed, n, e):
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < e:
        tri = tuple(sorted(rng.choice(n, size=3, replace=False).tolist()))
        edges.add(tri)
    return extractors.TriangleHypergraph.from_edge_list(n, sorted(edges))


def test_spencer_trivial_cases():
    empty = extractors.TriangleHypergraph(5, np.empty((0, 3), dtype=np.int32))
    assert extractors.spencer_independent_set(empty, 0) == [0, 1, 2, 3, 4]
    single = extractors.TriangleHypergraph.from_edge_list(3, [(0, 1, 2)])
    assert len(extractors.spencer_independent_set(single, 0)) == 2


def test_spencer_guarantee_values():
    assert extractors.spencer_guarantee(200, 2000) == 24
    assert extractors.spencer_guarantee(10, 0) == 10
    assert extractors.spencer_guarantee(10, 2) == 8  # full-set regime


def test_spencer_independence_and_guarantee():
    for seed in range(5):
        h = random_hypergraph(seed, 200, 2000)
        chosen = set(extractors.spencer_independent_set(h, seed))
        assert len(chosen) >= 24
        for row in h.edges.tolist():
            assert not all(v in chosen for v in row)


def test_spencer_never_beats_brute_force():
    for seed in range(25):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(4, 13))
        e = int(rng.integers(1, 16))
        edges = set()
        for _ in range(e):
            edges.add(tuple(sorted(rng.choice(n, size=3, replace=False).tolist())))
        h = extractors.TriangleHypergraph.from_edge_list(n, sorted(edges))
        got = len(extractors.spencer_independent_set(h, seed))
        best = 0
        for size in range(n, 0, -1):
            hit = False
            for sub in combinations(range(n), size):
                inside = set(sub)
                if not any(all(v in inside for v in tri) for tri in edges):
                    hit = True
                    break
            if hit:
                best = size
                break
        assert extractors.spencer_guarantee(n, len(edges)) <= got <= best


def test_gallai_clique_monochromatic_and_two_coloured():
    mono = core.CompleteColouring(7, 2, 3, np.zeros(21, dtype=np.uint8))
    w = extractors.gallai_two_coloured_clique(extractors.verify_gallai(mono))
    assert w.size == 7 and w.colours == frozenset({0})

    rng = np.random.default_rng(5)
    two = core.CompleteColouring(
        6, 2, 3, rng.integers(0, 2, size=15, dtype=np.uint8)
    )
    w = extractors.gallai_two_coloured_clique(extractors.verify_gallai(two))
    assert w.size == 6


def test_gallai_clique_requires_verified_flag():
    rainbow = core.CompleteColouring(3, 2, 3, np.array([0, 1, 2], dtype=np.uint8))
    g = extractors.verify_gallai(rainbow)
    assert not g.verified
    with pytest.raises(core.InvalidArgument):
        extractors.gallai_two_coloured_clique(g)


def test_gallai_clique_on_lex_product_confirmed_by_networkx():
    networkx = pytest.importorskip("networkx")
    rng = np.random.default_rng(6)
    f = [
        core.CompleteColouring(3, 2, 3, rng.choice(pair, size=3).astype(np.uint8))
        for pair in ([0, 1], [1, 2], [0, 2])
    ]
    prod = constructions.lex_product(f[0], constructions.lex_product(f[1], f[2]))
    assert prod.n == 27
    g = extractors.verify_gallai(prod)
    assert g.verified
    w = extractors.gallai_two_coloured_clique(g)
    assert w.size >= extractors.ceil_cuberoot(27) == 3
    assert len(w.colours) <= 2
    # confirmed maximum: best clique over the three pair-union graphs
    best = 0
    for pair in combinations(range(3), 2):
        graph = networkx.Graph()
        graph.add_nodes_from(range(27))
        for u, v in combinations(range(27), 2):
            if prod.colour_of((u, v)) in pair:
                graph.add_edge(u, v)
        best = max(
            best, max(len(c) for c in networkx.find_cliques(graph))
        )
    assert w.size == best


def test_ceil_cuberoot_exact():
    assert extractors.ceil_cuberoot(0) == 0
    assert extractors.ceil_cuberoot(1) == 1
    assert extractors.ceil_cuberoot(8) == 2
    assert extractors.ceil_cuberoot(9) == 3
    assert extractors.ceil_cuberoot(27) == 3
    assert extractors.ceil_cuberoot(28) == 4


def test_three_colour_clique_search_trivial():
    rng = np.random.default_rng(7)
    col = random_graph_colouring(rng, 6, 4)
    w = extractors.three_colour_clique_search(col, 2)
    assert w is not None and len(w.colours) == 1
    w = extractors.three_colour_clique_search(col, 3)
    assert w is not None and len(w.colours) <= 3


def test_union_of_colour_classes_is_the_palette_graph():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(0, 10))
        q = int(rng.integers(1, 5))
        mat = core.graph_colour_matrix(random_graph_colouring(rng, n, q)).tolist()
        classes = extractors.colour_adjacency(mat, q)
        assert len(classes) == q
        for size in range(q + 1):
            for palette in combinations(range(q), size):
                expect = [
                    sum(1 << u for u in range(n) if u != v and mat[u][v] in palette)
                    for v in range(n)
                ]
                assert extractors.union_adjacency(classes, palette) == expect


def test_three_colour_clique_search_matches_enumeration():
    # the answer is the lex-first s-set on at most 3 colours, with its census
    rng = np.random.default_rng(8)
    outcomes = set()
    for trial in range(360):
        q = 1 + trial % 6
        n = int(rng.integers(5, 13))
        s = int(rng.integers(1, 7))
        col = random_graph_colouring(rng, n, q)
        mat = core.graph_colour_matrix(col).tolist()

        def census(sub):
            return {mat[u][v] for u, v in combinations(sub, 2)}

        brute = next(
            (sub for sub in combinations(range(n), s) if len(census(sub)) <= 3), None
        )
        got = extractors.three_colour_clique_search(col, s)
        outcomes.add((q > 3, brute is None))
        if brute is None:
            assert got is None, (n, q, s)
            continue
        assert got.vertices == brute, (n, q, s)
        assert set(got.colours) == census(brute)
    assert {(False, False), (True, False), (True, True)} <= outcomes


def test_f_oracle_base_values():
    assert extractors.f_oracle(2, 4).value == 2
    assert extractors.f_oracle(3, 5).value == 3


def test_f_oracle_monotone_lower_bounds():
    r2 = extractors.f_oracle(2, 4)
    r3 = extractors.f_oracle(3, 5)
    r4 = extractors.f_oracle(4, 8)
    v2 = r2.value
    v3 = r3.value
    assert v2 <= v3
    assert v3 <= (r4.value if r4.value is not None else r4.lower_bound)


def test_f_oracle_witnesses_are_valid():
    r4 = extractors.f_oracle(4, 7)
    for n, col in r4.witnesses.items():
        w = extractors.verify_f_witness(col, 4)
        assert w.valid, n


def test_f_oracle_modes_agree_where_both_apply():
    exh = extractors.f_oracle(4, 7, mode="exhaustive")
    for n in range(4, 8):
        local = extractors._search_f_witness_local(4, n, seed=5, restarts=6, steps=3000)
        if exh.statuses.get(n) == "found":
            assert local is not None
        if exh.statuses.get(n) == "none":
            assert local is None


def _budget_boundary(search, t, n):
    # the least budget under which the search does not run out: its node count
    lo, hi = 0, 1
    while search(t, n, hi)[0] == "budget":
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if search(t, n, mid)[0] == "budget":
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("t", [2, 3, 4])
def test_f_search_matches_reference_backtracker(t):
    for n in range(2, 8):
        # equal statuses on both sides of the boundary mean equal node counts
        nodes = _budget_boundary(extractors._search_f_witness_exhaustive, t, n)
        for budget in (nodes - 1, nodes, 2_000_000):
            status, witness = extractors._search_f_witness_exhaustive(t, n, budget)
            ref_status, ref_witness = search_f_witness_reference(t, n, budget)
            assert status == ref_status, (n, budget)
            assert (witness is None) == (ref_witness is None)
            if witness is not None:
                assert witness.equals(ref_witness)


def test_verify_f_witness_agrees_with_clique_search():
    # the verifier composes the rainbow check with the all-colours clique
    # check; the extractors' own clique search must give the same flags
    def old_flags(col, t):
        return (
            verifiers.rainbow_triangle_free(col, extractors.RBG) is None,
            extractors.three_colour_clique_search(col, t) is None,
        )

    cases = [(col, 4) for col in extractors.f_oracle(4, 7).witnesses.values()]
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(0, 10))
        palette = rng.choice(4, size=int(rng.integers(1, 5)), replace=False)
        colours = palette[rng.integers(0, len(palette), size=math.comb(n, 2))]
        cases.append((core.CompleteColouring(n, 2, 4, colours), int(rng.integers(1, 6))))
    seen = set()
    for col, t in cases:
        got = verifiers.verify_f_witness(col, t)
        flags = (got.rainbow_free, got.no_small_palette_clique)
        assert flags == old_flags(col, t)
        seen.add(flags)
    assert extractors.verify_f_witness is verifiers.verify_f_witness
    assert len(seen) >= 3  # the sample reaches more than one verdict


def test_pipeline_all_red_short_circuits():
    n = 20
    col = core.CompleteColouring(n, 3, 3, np.zeros(math.comb(n, 3), dtype=np.uint8))
    emb, trace = extractors.three_colour_pipeline(col, 3, seed=0, clique_target=3)
    assert emb.colour == 0
    assert verifiers.verify_embedding(emb, col) is None
    assert trace.stages[-1][0] == "double-label-degree"


def test_pipeline_random_inputs_end_to_end():
    for seed in range(3):
        col = constructions.random_colouring(60, 3, 3, seed)
        emb, trace = extractors.three_colour_pipeline(
            col, 3, seed=seed, clique_target=4
        )
        assert verifiers.verify_embedding(emb, col) is None


def test_pipeline_gallai_branch():
    rng = np.random.default_rng(2)
    f = [
        core.CompleteColouring(
            4, 2, 3, rng.choice(pair, size=6).astype(np.uint8)
        )
        for pair in ([0, 1], [1, 2], [0, 2])
    ]
    chi = constructions.lex_product(f[0], constructions.lex_product(f[1], f[2]))
    lifted = constructions.complement_lift(chi, (0, 1, 2))
    emb, trace = extractors.three_colour_pipeline(
        lifted, 3, seed=0, clique_target=12
    )
    names = [name for name, _ in trace.stages]
    assert "gallai-clique" in names
    assert verifiers.verify_embedding(emb, lifted) is None


def test_pipeline_staged_failure_names_stage():
    col = constructions.random_colouring(12, 3, 3, 0)
    with pytest.raises(core.StagedFailure) as info:
        extractors.three_colour_pipeline(col, 3, seed=0, clique_target=12)
    assert info.value.stage in ("three-colour-clique", "gallai-clique")


def test_rbg_label_hypergraph_matches_brute_force():
    rng = np.random.default_rng(20)
    n = 20
    for t in (2, 3):
        col = core.CompleteColouring(
            n, 3, 3, rng.integers(0, 3, size=math.comb(n, 3), dtype=np.uint8)
        )
        aux = finder.pair_profile(col, t)
        labels = aux.labels
        expect = [
            tri
            for tri in sorted(combinations(range(n), 3), key=lambda s: s[::-1])
            if (
                int(labels[core.pair_rank(tri[0], tri[1])])
                | int(labels[core.pair_rank(tri[0], tri[2])])
                | int(labels[core.pair_rank(tri[1], tri[2])])
            ) & 0b111 == 0b111
        ]
        hyper = extractors.rbg_label_hypergraph(aux)
        assert hyper.n == n and hyper.edges.dtype == np.int32
        assert [tuple(row) for row in hyper.edges.tolist()] == expect
        assert 0 < len(expect) < math.comb(n, 3), t


def test_pipeline_triangle_count_bound_property():
    rng = np.random.default_rng(10)
    for _ in range(20):
        t = int(rng.integers(3, 6))
        n = int(rng.integers(12, 60))
        col = core.CompleteColouring(
            n, 3, 3, rng.integers(0, 3, size=math.comb(n, 3), dtype=np.uint8)
        )
        aux = finder.pair_profile(col, t)
        labels = aux.labels
        hyper = extractors.rbg_label_hypergraph(aux)
        loose, tight = extractors.triangle_count_bounds(t, n)
        assert hyper.edge_count <= loose
        assert tight is None or hyper.edge_count <= tight
        # recount a sample of triangles directly
        for row in hyper.edges[:: max(1, hyper.edge_count // 20)].tolist():
            a, b, c = row
            union = (
                int(labels[core.pair_rank(a, b)])
                | int(labels[core.pair_rank(a, c)])
                | int(labels[core.pair_rank(b, c)])
            )
            assert union & 0b111 == 0b111
