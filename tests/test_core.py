import math
import random
from itertools import combinations

import numpy as np
import pytest

from hedgehog import constructions, core, extractors, finder


def colex_sorted(n, k):
    return sorted(combinations(range(n), k), key=lambda s: tuple(reversed(s)))


def test_rank_against_colex_oracle_small():
    for n in (4, 5, 7, 9):
        for k in (2, 3, 4):
            for r, sub in enumerate(colex_sorted(n, k)):
                assert core.rank_subset(sub, n) == r
                assert tuple(core.unrank_subset(r, n, k)) == sub


def test_rank_examples():
    assert core.rank_subset((0, 1, 2), 5) == 0
    n = 9
    assert core.rank_subset((n - 3, n - 2, n - 1), n) == math.comb(n, 3) - 1
    assert core.rank_subset((0, 1, 3), 5) == 1


def test_rank_rejects_bad_input():
    with pytest.raises(core.InvalidArgument):
        core.rank_subset((2, 1, 3))
    with pytest.raises(core.InvalidArgument):
        core.rank_subset((0, 1, 7), n=5)
    with pytest.raises(core.InvalidArgument):
        core.unrank_subset(math.comb(6, 3), 6, 3)
    with pytest.raises(core.InvalidArgument):
        core.unrank_subset(-1, 6, 3)


def test_rank_unrank_identity_exhaustive_to_64():
    # the slab walker lays subsets out by top vertex and lower rank; the
    # combinadic rank formula is evaluated independently, so comparing them
    # to arange is a real check
    for k in (3, 4):
        for n in range(k, 65, 3):
            total = 0
            for top, start, lower in core.iter_slabs(n, k):
                cols = lower + (np.full(len(lower[0]), top, dtype=np.int32),)
                for low, high in zip(cols, cols[1:]):
                    assert (low < high).all(), (n, k, top)
                rank = np.zeros(len(cols[0]), dtype=np.int64)
                for i, col in enumerate(cols):
                    rank += core.binomial_column(i + 1)[col]
                assert np.array_equal(
                    rank, np.arange(start, start + len(rank))
                ), (n, k)
                total += len(rank)
            assert total == math.comb(n, k)
    # spot-check scalar unrank inverts on the largest case
    rng = np.random.default_rng(0)
    for r in rng.integers(0, math.comb(64, 4), size=200).tolist():
        sub = core.unrank_subset(int(r), 64, 4)
        assert core.rank_subset(sub, 64) == r


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 9, 40])
def test_slab_index_arrays_are_native_width_and_read_only(n):
    # numpy casts an index array of any other type on every gather
    arrays = list(core.pair_arrays(n))
    for k in (3, 4):
        for _, _, lower in core.iter_slabs(n, k):
            arrays.extend(lower)
    for arr in arrays:
        assert arr.dtype == np.intp and not arr.flags.writeable
    # the label-triangle hypergraph, gathered through them, keeps int32 edges
    triples = constructions.random_colouring(n, 3, 3, seed=n)
    hyper = extractors.rbg_label_hypergraph(finder.pair_profile(triples, 3))
    assert hyper.edges.dtype == np.int32


def test_pair_and_triple_rank_helpers():
    assert core.pair_rank(0, 1) == 0
    assert core.pair_rank(2, 5) == math.comb(5, 2) + 2
    assert core.triple_rank(0, 1, 2) == 0
    assert core.triple_rank(1, 3, 6) == math.comb(6, 3) + math.comb(3, 2) + 1


def test_hedgehog_shape_examples():
    s = core.hedgehog_shape(3, 3)
    assert (s.vertex_count, s.edge_count) == (6, 3)
    s = core.hedgehog_shape(2, 3)
    assert (s.vertex_count, s.edge_count) == (3, 1)
    s = core.hedgehog_shape(4, 4)
    assert (s.vertex_count, s.edge_count) == (8, 4)
    with pytest.raises(core.InvalidArgument):
        core.hedgehog_shape(1, 3)
    with pytest.raises(core.InvalidArgument):
        core.hedgehog_shape(2, 4)


def test_degeneracy_hedgehogs_and_cliques():
    assert core.degeneracy([], n=4) == 0
    assert core.degeneracy(combinations(range(7), 2)) == 6
    for t in range(2, 13):
        assert core.degeneracy(core.hedgehog_edges(t, 3)) == 1
    for t in range(3, 13):
        assert core.degeneracy(core.hedgehog_edges(t, 4)) == 1


def test_degeneracy_mixed_structure():
    # one dense triple cluster: all triples on 5 vertices, degeneracy C(4,2)
    edges = list(combinations(range(5), 3))
    assert core.degeneracy(edges) == math.comb(4, 2)


def test_colouring_validation():
    with pytest.raises(core.InvalidArgument):
        core.CompleteColouring(5, 3, 2, np.zeros(9, dtype=np.uint8))
    with pytest.raises(core.InvalidArgument):
        core.CompleteColouring(5, 3, 2, np.full(10, 2, dtype=np.uint8))
    with pytest.raises(core.InvalidArgument):
        core.CompleteColouring(5, 5, 2, np.zeros(1, dtype=np.uint8))
    col = core.CompleteColouring(5, 3, 2, np.zeros(10, dtype=np.uint8))
    assert col.colour_of((0, 1, 2)) == 0
    with pytest.raises(ValueError):
        col.colours[0] = 1  # immutable


def test_pair_colour_counts_matches_brute_force():
    rng = np.random.default_rng(1)
    cases = [(n, q) for n in (2, 3, 4) for q in (1, 2, 3)]
    for n, q in cases + [(8, 1), (8, 2), (10, 3), (12, 4)]:
        col = core.CompleteColouring(
            n, 3, q, rng.integers(0, q, size=math.comb(n, 3), dtype=np.uint8)
        )
        counts = core.pair_colour_counts(col)
        for u, v in combinations(range(n), 2):
            for colour in range(q):
                brute = sum(
                    1
                    for w in range(n)
                    if w not in (u, v)
                    and col.colour_of(sorted((u, v, w))) == colour
                )
                assert counts[core.pair_rank(u, v), colour] == brute


def test_hcol_round_trip_bit_exact():
    rng = np.random.default_rng(2)
    for q in (1, 2, 15, 16, 17, 200):
        col = core.CompleteColouring(
            7, 3, q, rng.integers(0, q, size=35, dtype=np.uint8)
        )
        text = core.colouring_to_text(col)
        again = core.colouring_from_text(text)
        assert col.equals(again)
        assert core.colouring_to_text(again) == text


def test_hcol_file_io(tmp_path):
    col = core.CompleteColouring(6, 2, 4, np.arange(15, dtype=np.uint8) % 4)
    path = tmp_path / "c.hcol"
    core.write_colouring(col, path)
    assert core.read_colouring(path).equals(col)
    raw = path.read_bytes()
    core.write_colouring(core.read_colouring(path), path)
    assert path.read_bytes() == raw


def test_hcol_rejects_corruption():
    col = core.CompleteColouring(5, 3, 2, np.zeros(10, dtype=np.uint8))
    text = core.colouring_to_text(col)
    with pytest.raises(core.InvalidArgument):
        core.colouring_from_text(text.replace("HCOL v1", "HCOL v2"))
    head, _, body = text.partition("\n")
    with pytest.raises(core.InvalidArgument):
        core.colouring_from_text(head + "\n" + body[1:])  # short body
    with pytest.raises(core.InvalidArgument):
        core.colouring_from_text(head + "\n" + "x" + body[1:])  # bad digit
    with pytest.raises(core.InvalidArgument):
        # colour value out of range for declared q
        core.colouring_from_text(head + "\n" + "5" + body[1:])
    big = core.CompleteColouring(4, 2, 20, np.full(6, 19, dtype=np.uint8))
    btext = core.colouring_to_text(big)
    with pytest.raises(core.InvalidArgument):
        core.colouring_from_text(btext.replace("19", "21", 1))


def test_hcol_bytes_and_text_share_one_format(tmp_path):
    rng = np.random.default_rng(4)
    for q in (2, 16, 17, 256):
        col = core.CompleteColouring(6, 3, q, rng.integers(0, q, size=20, dtype=np.uint8))
        data = core.colouring_to_bytes(col)
        assert data == core.colouring_to_text(col).encode("ascii")
        assert core.colouring_from_bytes(data).equals(col)
        path = tmp_path / f"q{q}.hcol"
        core.write_colouring(col, path)
        assert path.read_bytes() == data


def test_hcol_rejects_non_ascii_bytes(tmp_path):
    cases = (
        b"HCOL v1 n=3 k=2 q=2\n01\xff0\n",  # bad byte in a hex body
        b"HCOL v1 n=3 k=2 q=20\n1 \xff 2\n",  # bad byte in a decimal body
        b"HCOL v1 n=\xff k=2 q=2\n011\n",  # bad byte in the header
        b"\xfe\xff",  # no header line at all
    )
    for data in cases:
        with pytest.raises(core.InvalidArgument):
            core.colouring_from_bytes(data)
        path = tmp_path / "bad.hcol"
        path.write_bytes(data)
        with pytest.raises(core.InvalidArgument):
            core.read_colouring(path)
    with pytest.raises(core.InvalidArgument, match="invalid hex digit at body position 2"):
        core.colouring_from_bytes(cases[0])
    with pytest.raises(core.InvalidArgument, match=r"bad HCOL header: 'HCOL v1 n=\ufffd"):
        core.colouring_from_bytes(cases[2])
    # the text wrapper reports a non-ASCII character at its own position
    with pytest.raises(core.InvalidArgument, match="body position 1"):
        core.colouring_from_text("HCOL v1 n=3 k=2 q=2\n0\u00e91\n")


def test_hcol_decimal_body_fails_closed():
    for body in (b"1 -1 2", b"1 99999999999999999999999 2", b"1 x 2"):
        with pytest.raises(core.InvalidArgument):
            core.colouring_from_bytes(b"HCOL v1 n=3 k=2 q=256\n" + body + b"\n")


def test_graph_colour_matrix_matches_colour_of():
    rng = np.random.default_rng(8)
    for n in range(13):
        q = int(rng.integers(1, 6))
        col = core.CompleteColouring(
            n, 2, q, rng.integers(0, q, size=math.comb(n, 2), dtype=np.uint8)
        )
        mat = core.graph_colour_matrix(col)
        assert mat.shape == (n, n) and mat.dtype == np.uint8
        for u in range(n):
            assert mat[u, u] == 0
            for v in range(u + 1, n):
                assert mat[u, v] == mat[v, u] == col.colour_of((u, v))
    with pytest.raises(core.InvalidArgument):
        core.graph_colour_matrix(core.CompleteColouring(4, 3, 1, np.zeros(4, dtype=np.uint8)))


def test_matrix_colouring_inverts_graph_colour_matrix():
    rng = np.random.default_rng(9)
    for n in range(13):
        q = int(rng.integers(1, 6))
        col = core.CompleteColouring(
            n, 2, q, rng.integers(0, q, size=math.comb(n, 2), dtype=np.uint8)
        )
        mat = core.graph_colour_matrix(col)
        assert core.matrix_colouring(mat, q).equals(col)
        assert core.matrix_colouring(mat.tolist(), q).equals(col)
    with pytest.raises(core.InvalidArgument):
        core.matrix_colouring([[0, 2], [2, 0]], 2)


def test_random_matrix_draws_one_palette_colour_per_pair_in_colex_order():
    for n in range(8):
        for palette in (range(3), (0, 1, 3), (2,)):
            mat = core.random_matrix(random.Random(n), n, palette)
            rng = random.Random(n)
            draws = [palette[rng.randrange(len(palette))] for _ in range(math.comb(n, 2))]
            assert core.matrix_colouring(mat, 4).colours.tolist() == draws
            assert all(mat[v][v] == 0 for v in range(n))
            assert all(mat[u][v] == mat[v][u] for u, v in combinations(range(n), 2))


def test_embedding_certificate_round_trip():
    emb = core.HedgehogEmbedding(
        colour=1, body=(0, 2, 5), spines={(0, 2): 7, (0, 5): 3, (2, 5): 9}
    )
    again = core.HedgehogEmbedding.from_text(emb.to_text())
    assert again == emb
    assert again.t == 3 and again.k == 3
    with pytest.raises(core.InvalidArgument):
        core.HedgehogEmbedding.from_text("garbage\n")


def test_embedding_certificate_parse_fails_closed():
    text = core.HedgehogEmbedding(
        colour=0, body=(0, 1, 2), spines={(0, 1): 3, (0, 2): 4, (1, 2): 5}
    ).to_text()
    bad_lines = (
        "spine 0 1 -> x",
        "spine 0 y -> 3",
        "spine 0 1 -> ",
        "t three",
    )
    for bad in bad_lines:
        with pytest.raises(core.InvalidArgument):
            core.HedgehogEmbedding.from_text(text + bad + "\n")
    with pytest.raises(core.InvalidArgument, match="twice"):
        core.HedgehogEmbedding.from_text(text + "spine 0 1 -> 6\n")


def test_clique_witness_round_trip():
    w = core.CliqueWitness((1, 4, 6), frozenset({0, 2}))
    again = core.CliqueWitness.from_text(w.to_text())
    assert again == w


def test_search_report_text():
    rep = core.SearchReport(
        operation="demo", seed=3, outcome="found", tries=2, params={"n": 5}
    )
    text = rep.to_text()
    assert "operation demo" in text and "param n=5" in text
