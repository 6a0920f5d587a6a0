"""The clique-census kernel and its caller, the F(t) obstruction count,
which scores the F local search's moves, lists its bad edges and prunes the
exhaustive F search; and the scattered search's colour-count table, whose
move delta and deficient-clique lookup replaced a census scan.  Each is
pinned to the loops it replaced and to recorded trajectories."""

import hashlib
import math
from itertools import combinations

import numpy as np
import pytest

from hedgehog import cli, constructions, core, extractors
from reference_oracles import (
    f_clique_prune_reference,
    move_delta_reference,
    violation_count_at_reference,
)


def random_matrix(rng, n, q):
    mat = [[0] * n for _ in range(n)]
    for u, v in combinations(range(n), 2):
        mat[u][v] = mat[v][u] = int(rng.integers(0, q))
    return mat


def brute_censuses(mat, u, v, pool, size):
    # every subset of the pool by bitmask, sorted into lexicographic order
    pool = list(pool)
    rests = sorted(
        tuple(x for i, x in enumerate(pool) if mask >> i & 1)
        for mask in range(1 << len(pool))
        if bin(mask).count("1") == size - 2
    )
    out = []
    for rest in rests:
        census = 0
        for x, y in combinations(sorted(rest + (u, v)), 2):
            if {x, y} != {u, v}:
                census |= 1 << mat[x][y]
        out.append(census)
    return out


def test_clique_censuses_match_brute_force_in_order():
    rng = np.random.default_rng(90)
    for _ in range(300):
        n = int(rng.integers(2, 11))
        q = int(rng.integers(1, 5))
        mat = random_matrix(rng, n, q)
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        others = [w for w in range(n) if w not in (u, v)]
        pool = [w for w in others if rng.random() < 0.7]
        size = int(rng.integers(2, 7))
        got = list(extractors.clique_censuses(mat, u, v, pool, size))
        assert got == brute_censuses(mat, u, v, pool, size), (n, u, v, pool, size)


def test_clique_censuses_leave_out_the_edge_itself():
    mat = [[0, 3, 1], [3, 0, 2], [1, 2, 0]]
    assert list(extractors.clique_censuses(mat, 0, 1, [2], 3)) == [0b110]
    assert list(extractors.clique_censuses(mat, 0, 1, [2], 2)) == [0]
    assert list(extractors.clique_censuses(mat, 0, 1, [], 3)) == []


def _instances(seed, q_range):
    rng = np.random.default_rng(seed)
    for n in range(2, 11):
        for t in range(2, 6):
            for _ in range(2):
                q = int(rng.integers(*q_range))
                yield n, t, q, random_matrix(rng, n, q)


def test_pair_rows_list_the_t_sets_through_each_pair():
    for n in range(11):
        for t in range(1, 7):
            rows = constructions._pair_rows(n, t)
            subsets = list(combinations(range(n), t))
            assert len(rows) == math.comb(n, 2), (n, t)
            for u, v in combinations(range(n), 2):
                expect = [i for i, sub in enumerate(subsets) if u in sub and v in sub]
                assert rows[core.pair_rank(u, v)].tolist() == expect, (n, t, u, v)


def test_move_delta_matches_reference():
    for n, t, q, mat in _instances(91, (1, 5)):
        cols = [mat[a][b] for b in range(n) for a in range(b)]
        rank_of_pair = {p: core.pair_rank(*p) for p in combinations(range(n), 2)}
        table = constructions._CountTable(mat, t, q)
        pairs = list(combinations(range(n), 2))
        for new in range(q):  # includes each edge's own colour
            got = table.deltas(mat, pairs, new).tolist() if pairs else []
            expect = [
                move_delta_reference(cols, rank_of_pair, n, t, u, v, new) for u, v in pairs
            ]
            assert got == expect, (n, t, new)


def test_count_table_updates_match_a_fresh_build():
    rng = np.random.default_rng(94)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        t = int(rng.integers(2, min(n, 6) + 1))
        q = int(rng.integers(1, 5))
        mat = random_matrix(rng, n, q)
        table = constructions._CountTable(mat, t, q)
        for _ in range(30):
            u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
            table.recolour(mat, u, v, int(rng.integers(0, q)))  # may keep the colour
            assert mat[u][v] == mat[v][u]
        fresh = constructions._CountTable(mat, t, q)
        assert np.array_equal(table.counts, fresh.counts), (n, t, q)


def test_violation_count_matches_reference():
    # the full count over all other vertices, as the local search scores a
    # move; the edge itself holds another colour, since the count never reads it
    for n, t, _, mat in _instances(92, (4, 5)):
        for u, v in combinations(range(n), 2):
            others = [w for w in range(n) if w not in (u, v)]
            for c in range(4):
                mat[u][v] = mat[v][u] = c
                expect = violation_count_at_reference(mat, n, t, u, v)
                mat[u][v] = mat[v][u] = (c + 1) % 4
                got = extractors._obstructions(mat, u, v, c, others, t)
                assert got == expect, (n, t, u, v, c)
                first = extractors._obstructions(mat, u, v, c, others, t, first=True)
                assert first == min(expect, 1), (n, t, u, v, c)


def test_f_clique_prune_matches_reference():
    # the whole predicate of the exhaustive F search's place: a rainbow
    # triangle or a t-clique on at most 3 colours through {a, b} below a; the
    # search as a whole is pinned to the reference backtracker by its node
    # counts
    for n, t, _, mat in _instances(93, (4, 5)):
        for a, b in combinations(range(n), 2):
            for c in range(4):
                rainbow = any({mat[w][a], mat[w][b], c} == {0, 1, 2} for w in range(a))
                expect = rainbow or f_clique_prune_reference(mat, t, a, b, c)
                got = extractors._obstructions(mat, a, b, c, range(a), t, first=True)
                assert got == int(expect), (n, t, a, b, c)
                count = extractors._obstructions(mat, a, b, c, range(a), t)
                assert got == min(count, 1), (n, t, a, b, c)


# SHA-256 of the HCOL file (none when the search is exhausted) followed by
# the search report, keyed by (n, t, seed, max_tries, max_steps) at q = 4.
# The default-budget cases were recorded before the searches shared the
# census kernel, the others before the scattered search kept a count table:
# the benchmark's search size, and a 20-step budget that reaches both
# restart kinds and an exhausted search
SCATTERED_DIGESTS = {
    (9, 4, 2, 20, 20000): "299e0c070de7837bc6da963405be37c33fd6ed2d003c6dc03ecfd2ab240e981c",
    (13, 5, 0, 20, 20000): "a2ebc4529fbe57257e3be134e7395a5c6b6034e67ad0832dc0f46ef6cbdf2eca",
    (12, 5, 1, 8, 4000): "b896f2b6d2c1fbe1f305232c2d8a4d7a0237e031bf29a8360616b34d478f27fc",
    (12, 5, 2, 8, 4000): "4da6b41e06041ceca26f3071d950f68b393b4c940e184519b6764643898c2d86",
    (12, 5, 3, 8, 4000): "19375760b7a19e4dae39c003936002ad9cca0322845a305ea290d94183dee702",
    (12, 5, 12, 8, 4000): "05244400c427fcc3a5a9b71ed27fc3d62c638d7f3fca8d370c4a7eb1a47ccc4b",
    (12, 5, 0, 4, 20): "f052581f8df58e6273e05b3cbfc8e7cb02aebab468985f85ecbbd23c7ac53f12",
    (12, 5, 6, 4, 20): "68ebb94b7b19b4ba2fa950b8bf310a1f87a7007b166e4c47b6d234e390a8c978",
    (12, 5, 10, 4, 20): "cc9889b46064221aa3b1133495728cebd79c73c8eb59b3c3896dd844bcace452",
}
# SHA-256 of the HCOL bytes of _search_f_witness_local(4, n, seed=5,
# restarts=6, steps=3000), or of b"none"
F_LOCAL_DIGESTS = {
    4: "c25246128b190fc5be0f4168af01ae59a0ea957983981748d195cd3378fc9295",
    5: "4ad7d2009220027db61fd9daaaee15e2b7192fa258557f457d9ea524388a8812",
    6: "9d79c85bdb22d69c785e5391df7aedadeca38b9ef008625dcd60e09e9c62672d",
}


@pytest.mark.parametrize("n,t,seed,tries,steps", sorted(SCATTERED_DIGESTS))
def test_scattered_trajectory_is_pinned(tmp_path, n, t, seed, tries, steps):
    out, rep = tmp_path / "s.hcol", tmp_path / "r.txt"
    argv = ["generate", "scattered", "-n", str(n), "--t", str(t), "-q", "4",
            "--seed", str(seed), "--max-tries", str(tries), "--max-steps", str(steps),
            "--out", str(out), "--report", str(rep)]
    code = cli.main(argv)
    assert code == (0 if out.exists() else 1)
    data = (out.read_bytes() if out.exists() else b"") + rep.read_bytes()
    assert hashlib.sha256(data).hexdigest() == SCATTERED_DIGESTS[(n, t, seed, tries, steps)]


@pytest.mark.parametrize("n", sorted(F_LOCAL_DIGESTS))
def test_f_local_trajectory_is_pinned(n):
    col = extractors._search_f_witness_local(4, n, seed=5, restarts=6, steps=3000)
    data = b"none" if col is None else core.colouring_to_bytes(col)
    assert hashlib.sha256(data).hexdigest() == F_LOCAL_DIGESTS[n]
