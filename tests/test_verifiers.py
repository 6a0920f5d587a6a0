import hashlib
import math
from itertools import combinations, product

import numpy as np
import pytest

from hedgehog import core, verifiers
from reference_oracles import (
    _bulk_feasible,
    brute_ramsey_scan,
    has_monochromatic_hedgehog_slow,
)


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
            slow = has_monochromatic_hedgehog_slow(col, 3, colour)
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


def test_every_clique_all_colours_rejects_colour_count_below_one():
    col = core.CompleteColouring(4, 2, 2, np.zeros(6, dtype=np.uint8))
    for q in (0, -1):
        with pytest.raises(core.InvalidArgument):
            verifiers.every_clique_all_colours(col, 3, q)


def test_every_clique_all_colours_rejects_clique_size_below_one():
    col = core.CompleteColouring(4, 2, 2, np.zeros(6, dtype=np.uint8))
    for t in (0, -1):
        with pytest.raises(core.InvalidArgument, match=f"clique size t={t}"):
            verifiers.every_clique_all_colours(col, t, 2)


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


def scalar_verify_complement_lift(lifted, base, palette):
    """Reference oracle: the per-triple loop the vectorised check replaced."""
    if base.k != 2 or lifted.k != 3 or lifted.n != base.n:
        return verifiers.Violation("input", "lift/base shapes do not match")
    pal = sorted(set(palette))
    if lifted.q != len(pal):
        return verifiers.Violation(
            "input", f"lift q={lifted.q} != palette size {len(pal)}"
        )
    idx = 0
    cols = lifted.colours
    for c in range(2, base.n):
        for b in range(1, c):
            for a in range(b):
                edges = {
                    base.colour_of((a, b)),
                    base.colour_of((a, c)),
                    base.colour_of((b, c)),
                }
                want = None
                for pos, pc in enumerate(pal):
                    if pc not in edges:
                        want = pos
                        break
                if want is None:
                    return verifiers.Violation(
                        "palette", f"triangle {(a, b, c)} uses the whole palette",
                        (a, b, c),
                    )
                if int(cols[idx]) != want:
                    return verifiers.Violation(
                        "lift",
                        f"triple {(a, b, c)} coloured {int(cols[idx])}, expected {want}",
                        (a, b, c),
                    )
                idx += 1
    return None


def reference_lift_colours(base, pal, rng):
    """Smallest absent palette position per triple; a random colour where
    the triangle shows the whole palette."""
    out = []
    for a, b, c in sorted(combinations(range(base.n), 3), key=lambda s: s[::-1]):
        edges = {base.colour_of((a, b)), base.colour_of((a, c)), base.colour_of((b, c))}
        absent = [pos for pos, pc in enumerate(pal) if pc not in edges]
        out.append(absent[0] if absent else int(rng.integers(len(pal))))
    return np.array(out, dtype=np.uint8)


def complement_lift_corpus():
    rng = np.random.default_rng(31)
    palettes = [
        (0,), (1,), (-1,), (300,), (0, 1), (1, 3), (-1, 0), (0, 300),
        (0, 1, 2), (2, 0, 1), (0, 1, 300), (-1, 1, 2), (0, 1, 2, 3),
        (-1, 0, 1, 300), (0, 1, 2, 3, 4), (0, 2, 3, 300, 4),
        (0, 1, 2, 3, 4, 5), (-1, 0, 1, 2, 300, 7),
    ]
    sizes = [0, 1, 2, 3] + [int(x) for x in rng.integers(4, 14, size=12)]
    for n in sizes:
        for palette in palettes:
            pal = sorted(set(palette))
            base = random_colouring_array(rng, n, 2, int(rng.integers(1, 7)))
            exact = reference_lift_colours(base, pal, rng)
            yield base, core.CompleteColouring(n, 3, len(pal), exact), palette
            if exact.size and len(pal) > 1:
                broken = exact.copy()
                hit = rng.choice(exact.size, size=min(3, exact.size), replace=False)
                broken[hit] = (broken[hit] + rng.integers(1, len(pal), size=hit.size)) % len(pal)
                yield base, core.CompleteColouring(n, 3, len(pal), broken), palette
                noise = rng.integers(0, len(pal), size=exact.size, dtype=np.uint8)
                yield base, core.CompleteColouring(n, 3, len(pal), noise), palette
    base = random_colouring_array(rng, 5, 2, 3)
    yield base, random_colouring_array(rng, 5, 3, 2), (0, 1, 2)  # q mismatch
    yield base, random_colouring_array(rng, 6, 3, 3), (0, 1, 2)  # n mismatch
    yield base, random_colouring_array(rng, 5, 2, 3), (0, 1, 2)  # k mismatch


def test_verify_complement_lift_matches_scalar_reference():
    kinds = {}
    for base, lifted, palette in complement_lift_corpus():
        want = scalar_verify_complement_lift(lifted, base, palette)
        got = verifiers.verify_complement_lift(lifted, base, palette)
        assert got == want, (base.n, palette, got, want)
        kind = None if want is None else want.kind
        kinds[kind] = kinds.get(kind, 0) + 1
    # the corpus reaches every outcome, not only the first-triple failures
    assert set(kinds) == {None, "input", "palette", "lift"}
    assert min(kinds.values()) >= 3


def test_verify_complement_lift_full_palette_triangle():
    # the triangle (0, 1, 2) shows 0, 1, 2; the earlier lift error at the
    # same triple is not reached because the palette is checked first
    base = core.CompleteColouring(4, 2, 3, np.array([0, 1, 2, 0, 0, 0], dtype=np.uint8))
    lifted = core.CompleteColouring(4, 3, 3, np.full(4, 2, dtype=np.uint8))
    v = verifiers.verify_complement_lift(lifted, base, (0, 1, 2))
    assert (v.kind, v.message, v.pair) == (
        "palette", "triangle (0, 1, 2) uses the whole palette", (0, 1, 2)
    )
    # an out-of-range palette entry is absent from every triangle: (0, 1, 2)
    # wants it, so the first bad triple is (0, 1, 3), whose edges are all 0
    v = verifiers.verify_complement_lift(
        core.CompleteColouring(4, 3, 4, np.full(4, 3, dtype=np.uint8)), base, (0, 1, 2, 300)
    )
    assert (v.kind, v.message, v.pair) == (
        "lift", "triple (0, 1, 3) coloured 3, expected 1", (0, 1, 3)
    )


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
    tri = tuple(core.unrank_subset(7, 9, 3))
    assert v.kind == "lift"
    assert v.pair == tri
    assert v.message == (
        f"triple {tri} coloured {colours[7]}, expected {lifted.colours[7]}"
    )


def test_verifiers_import_only_core():
    # the certificate checks must stay independent of the code they police
    import ast
    from pathlib import Path

    tree = ast.parse(Path(verifiers.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "hedgehog" + ("." + module if module else "")
            if node.module is None:
                imported.update(f"{module}.{alias.name}" for alias in node.names)
            else:
                imported.add(module)
    package = {name for name in imported if name.split(".")[0] == "hedgehog"}
    assert package == {"hedgehog.core"}, package
    for forbidden in ("constructions", "finder", "extractors"):
        assert not any(forbidden in name.split(".") for name in imported)


def test_package_has_no_assert_statements():
    # runtime cross-checks must raise a real error: python -O strips asserts
    import ast
    from pathlib import Path

    package = Path(verifiers.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_exhaustive_ramsey_tiny():
    assert verifiers.exhaustive_ramsey_check(2, 2, 3).holds
    r = verifiers.exhaustive_ramsey_check(2, 2, 2)
    assert not r.holds and r.counterexample.edge_count == 0


def test_exhaustive_ramsey_cross_check_is_not_an_assert(monkeypatch):
    # an oracle that finds a hedgehog everywhere disagrees with the search's
    # counterexample; the disagreement must raise under python -O too
    monkeypatch.setattr(verifiers, "has_monochromatic_hedgehog", lambda *args: object())
    with pytest.raises(core.ToolkitError, match="disagree"):
        verifiers.exhaustive_ramsey_check(3, 2, 5)


def test_exhaustive_ramsey_refuses_large():
    message = r"^node budget 2000 exhausted after 2001 search nodes \(t=3 q=2 n=12\)$"
    with pytest.raises(core.RefusedInstance, match=message):
        verifiers.exhaustive_ramsey_check(3, 2, 12, node_budget=2000)


def test_exhaustive_ramsey_budget_boundary():
    # the n = 6 counterexample takes 20 search nodes; a negative budget is a usage error
    with pytest.raises(core.RefusedInstance, match="after 20 search nodes"):
        verifiers.exhaustive_ramsey_check(3, 2, 6, node_budget=19)
    assert verifiers.exhaustive_ramsey_check(3, 2, 6, node_budget=20).checked == 1024
    with pytest.raises(core.InvalidArgument, match="node budget -1 is negative"):
        verifiers.exhaustive_ramsey_check(3, 2, 6, node_budget=-1)


def test_exhaustive_ramsey_refuses_more_triples_than_its_cap():
    # refused before q**m, the triple list or the first node: n = 20 has
    # 1140 triples, and q = 1200 > 1140 would never backtrack
    message = r"^1140 triples on n=20 vertices exceed the search's 816 \(n <= 18\)$"
    with pytest.raises(core.RefusedInstance, match=message):
        verifiers.exhaustive_ramsey_check(3, 1200, 20)
    with pytest.raises(core.RefusedInstance, match="4495501000 triples"):
        verifiers.exhaustive_ramsey_check(3, 2, 3000)
    with pytest.raises(core.InvalidArgument, match="colour count q=300"):
        verifiers.exhaustive_ramsey_check(3, 300, 5)


def test_exhaustive_ramsey_runs_as_deep_as_its_cap():
    # a fresh colour is always free, so the search colours all 816 triples of
    # n = 18 without backtracking: one stack frame each, and no RecursionError
    r = verifiers.exhaustive_ramsey_check(3, 256, 18)
    assert r.counterexample.edge_count == verifiers.MAX_RAMSEY_TRIPLES == 816
    assert int(r.counterexample.colours.max()) < 256
    # no hedgehog of body 9 fits in 18 vertices: the all-zero colouring is first
    r = verifiers.exhaustive_ramsey_check(9, 2, 18)
    assert r.checked == 1 and not r.counterexample.colours.any()


def test_exhaustive_fast_path_agrees_with_oracle_per_colouring():
    # compare the reference bit-parallel feasibility with the matching oracle
    rng = np.random.default_rng(13)
    n, t = 6, 3
    m = math.comb(n, 3)
    idx = rng.integers(0, 2**m, size=500, dtype=np.uint64)
    bulk = _bulk_feasible(idx, n, t)
    for i, feas in zip(idx.tolist(), bulk.tolist()):
        colours = np.array([(i >> r) & 1 for r in range(m)], dtype=np.uint8)
        col = core.CompleteColouring(n, 3, 2, colours)
        oracle = any(
            verifiers.has_monochromatic_hedgehog(col, t, c) is not None
            for c in range(2)
        )
        assert oracle == feas


def test_exhaustive_ramsey_q3_loop_path():
    # q=3 offers every colour to the first triple; t=2, n=3 has one triple
    r = verifiers.exhaustive_ramsey_check(2, 3, 3)
    assert r.holds and r.total == 3


def test_first_use_search_enumerates_first_use_colourings():
    # rejecting every last step makes the search visit every leaf: the
    # colourings whose interchangeable colours appear in first-use order
    for steps, q, inter in [(4, 3, 3), (3, 4, 3), (3, 3, 1), (4, 2, 2), (0, 2, 2)]:
        leaves = []
        trail = []

        def place(step, c):
            if step == steps - 1:
                leaves.append(tuple(trail) + (c,))
                return False
            trail.append(c)
            return True

        def unplace(step, c):
            trail.pop()

        status, colours, nodes = core.first_use_search(steps, q, inter, place, unplace)
        expected = []
        for cand in product(range(q), repeat=steps):
            seen = [c for c in dict.fromkeys(cand) if c < inter]
            if seen == list(range(len(seen))):
                expected.append(cand)
        if steps == 0:
            assert (status, colours, nodes) == ("found", [], 0)
            continue
        assert status == "none" and colours is None
        assert leaves == expected  # depth-first, smallest colour first
        # internal nodes: one per first-use prefix shorter than steps
        assert nodes == len({cand[:i] for cand in expected for i in range(steps)})


def test_first_use_search_budget_and_found():
    status, colours, nodes = core.first_use_search(5, 2, 2, lambda s, c: True, lambda s, c: None)
    assert (status, colours, nodes) == ("found", [0, 0, 0, 0, 0], 5)
    assert core.first_use_search(5, 2, 2, lambda s, c: True, lambda s, c: None, 4)[0] == "budget"
    assert core.first_use_search(5, 2, 2, lambda s, c: True, lambda s, c: None, 5)[0] == "found"
    # a colour at or above `interchangeable` is always offered, after the others
    status, colours, _ = core.first_use_search(
        3, 3, 1, lambda s, c: c != 0 or s == 0, lambda s, c: None
    )
    assert (status, colours) == ("found", [0, 1, 1])


@pytest.mark.parametrize(
    "t, q, n",
    [(t, 2, n) for t in (2, 3) for n in range(7)]
    + [(t, 3, n) for t in (2, 3) for n in range(6)],
)
def test_exhaustive_ramsey_equals_brute_scan(t, q, n):
    # verdict, counterexample and count all match the plain scan in index
    # order (bit-parallel for q = 2, colouring by colouring for q = 3)
    result = verifiers.exhaustive_ramsey_check(t, q, n)
    holds, counterexample, checked = brute_ramsey_scan(t, q, n)
    assert result.holds == holds
    assert result.checked == checked
    if holds:
        assert result.counterexample is None
    else:
        assert result.counterexample.equals(counterexample)


def test_fixed_pair_search_equals_slow_oracle_at_t4():
    # t = 4 leaves two free body vertices beside the fixed pair, so the
    # search's fail-first prune on partial bodies runs; a colouring has a
    # hedgehog of colour c exactly when some edge of colour c, oriented as a
    # body pair (x, y) and its spine z, extends to one; a sparse colour 1
    # gives colourings where it does not
    n, t = 10, 4
    outcomes = set()
    for seed in range(16):
        rng = np.random.default_rng(seed)
        density = (0.5, 0.3, 0.2, 0.15)[seed % 4]
        colours = (rng.random(math.comb(n, 3)) < density).astype(np.uint8)
        col = core.CompleteColouring(n, 3, 2, colours)
        for c in range(2):
            cand = dict.fromkeys(combinations(range(n), 2), 0)
            edges = [e for e in combinations(range(n), 3) if col.colour_of(e) == c]
            for a, b, d in edges:
                cand[(a, b)] |= 1 << d
                cand[(a, d)] |= 1 << b
                cand[(b, d)] |= 1 << a
            found = any(
                verifiers._first_hedgehog(cand, n, t, 3, (x, y), 1 << z) is not None
                for a, b, d in edges
                for x, y, z in ((a, b, d), (a, d, b), (b, d, a))
            )
            slow = has_monochromatic_hedgehog_slow(col, t, c)
            assert found == slow, (seed, c)
            outcomes.add(slow)
    assert outcomes == {False, True}


@pytest.mark.parametrize(
    "n, text, digest",
    [
        (
            10,
            "ramsey-check t=4 q=2 n=10: counterexample (72057594037927936 of "
            "1329227995784915872903807060280344576 colourings checked)",
            "8ad2cd5d07f60e460fd0bce08800930a7a3f57e7a321f06b6ed83bc4244542e5",
        ),
        (
            11,
            "ramsey-check t=4 q=2 n=11: counterexample (19342813113834066795298816 of "
            "46768052394588893382517914646921056628989841375232 colourings checked)",
            "d4109f2ebb7317d2f29ff817c6456ff01cd4880eb8e93c2b4880b6eb060d8eeb",
        ),
    ],
)
def test_exhaustive_ramsey_t4_is_pinned(n, text, digest):
    # at t = 4 the decider's prune searches two free body vertices; the
    # verdict, count and counterexample bytes were recorded before the
    # decider and the oracle shared one body search
    result = verifiers.exhaustive_ramsey_check(4, 2, n)
    assert str(result) == text
    body = core.colouring_to_bytes(result.counterexample)
    assert hashlib.sha256(body).hexdigest() == digest
