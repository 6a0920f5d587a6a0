"""Byte-for-byte pins of the pure-Python graph searches: the three-colour
pipeline, the clique searches, the Gallai lower-bound witness and the
scattered search in both modes.  Each test hashes every output of a fixed
corpus; the digests were recorded before the searches shared one colour
matrix and one colour-class adjacency pass.  The F(4) oracle's bytes are
also checked against the digest the benchmark compares them with.

The slab kernels (the lifts, their checks, the pair colour counts and the
label-triangle hypergraph) are pinned the same way, with digests recorded
while the slab walk still gathered through int32 vertex arrays."""

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

import numpy as np

from hedgehog import constructions, core, extractors, finder, verifiers


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else chunk.encode())
        h.update(b"\x00")
    return h.hexdigest()


def random_gallai(rng: random.Random, n: int) -> core.CompleteColouring:
    """A rainbow-free 3-colouring of K_n by Gallai substitution: split the
    vertices into blocks, give each pair of blocks one colour from a random
    two-colour palette, and recurse inside the blocks."""
    mat = [[0] * n for _ in range(n)]

    def fill(verts):
        if len(verts) < 2:
            return
        parts = rng.randrange(2, len(verts) + 1)
        blocks = [verts[i::parts] for i in range(parts)]
        palette = rng.sample(range(3), 2)
        for i, j in combinations(range(parts), 2):
            c = rng.choice(palette)
            for x in blocks[i]:
                for y in blocks[j]:
                    mat[x][y] = mat[y][x] = c
        for block in blocks:
            fill(block)

    fill(list(range(n)))
    colours = np.array([mat[a][b] for b in range(n) for a in range(b)], dtype=np.uint8)
    return core.CompleteColouring(n, 2, 3, colours)


def pipeline_outputs():
    # t = 3 with clique targets 3..5 reaches the double-label short-circuit,
    # every missing colour, the Gallai branch and both three-colour-clique
    # failures
    for n in range(4, 40):
        for s in range(6):
            col = constructions.random_colouring(n, 3, 3, seed=1000 * n + s)
            for target in range(3, 6):
                try:
                    emb, trace = extractors.three_colour_pipeline(
                        col, 3, seed=s, clique_target=target
                    )
                    yield emb.to_text() + trace.to_text()
                except core.StagedFailure as exc:
                    yield f"{exc.stage}|{exc}"


def clique_outputs():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 15))
        q = int(rng.integers(1, 6))
        col = core.CompleteColouring(
            n, 2, q, rng.integers(0, q, size=n * (n - 1) // 2, dtype=np.uint8)
        )
        for s in range(1, n + 2):
            w = extractors.three_colour_clique_search(col, s)
            yield "none" if w is None else w.to_text()
    rng = random.Random(7)
    for n in list(range(1, 30)) * 2:
        g = extractors.verify_gallai(random_gallai(rng, n))
        assert g.verified
        yield extractors.gallai_two_coloured_clique(g).to_text()


# base sizes 2, 3 and 4; seed 1 at t = 5000 is left out of this digest,
# recorded when an exact search on the 64-vertex product ran for minutes
# on it; test_gallai_clique_number_equals_networkx in test_constructions.py
# covers it and every other seed at t = 4000 and 5000
GALLAI_RUNS = [(2, 0), (2, 1), (5, 0), (5, 1)] + [(4000, s) for s in range(6)] + [
    (5000, s) for s in (0, 2, 3, 4, 5)
]


def gallai_witness_outputs():
    for t, seed in GALLAI_RUNS:
        col, rep = constructions.gallai_lower_bound_witness(t, seed)
        yield rep.to_text()
        yield core.colouring_to_bytes(col)


# (n, t, q) per mode; most rejection runs succeed, and (6, 3, 2), a
# 2-colouring of K_6 with no monochromatic triangle, never can
SCATTERED_SPECS = {
    "rejection": [
        (4, 3, 2), (4, 3, 3), (5, 4, 3), (6, 4, 3),
        (6, 5, 4), (7, 5, 4), (8, 6, 4), (6, 3, 2),
    ],
    "local-search": [
        (4, 3, 2), (5, 3, 3), (6, 3, 3), (6, 4, 4),
        (7, 3, 2), (7, 4, 3), (8, 4, 4), (9, 4, 4),
    ],
}


def scattered_outputs(mode):
    for n, t, q in SCATTERED_SPECS[mode]:
        for seed in range(4):
            tries = 40 if mode == "rejection" else 6
            spec = constructions.ScatteredColouringSpec(
                n=n, t=t, q=q, seed=seed, max_tries=tries, search_mode=mode, max_steps=300
            )
            col, rep = constructions.find_scattered_colouring(spec)
            yield rep.to_text()
            yield b"none" if col is None else core.colouring_to_bytes(col)


def f_oracle_outputs():
    for mode in ("auto", "exhaustive", "witness"):
        res = extractors.f_oracle(3, 6, mode=mode, seed=2, restarts=3, steps=400)
        yield f"{res} {sorted(res.statuses.items())}"
        for n in sorted(res.witnesses):
            yield core.colouring_to_bytes(res.witnesses[n])


SLAB_SIZES = (0, 1, 2, 3, 4, 5, 57, 72)


def slab_kernel_outputs():
    palette = (0, 1, 2, 3)
    for n in SLAB_SIZES:
        base = constructions.random_colouring(n, 2, 4, seed=100 * n)
        lift = constructions.complement_lift(base, palette)
        fold = core.CompleteColouring(n, 2, 2, (base.colours >= 2).astype(np.uint8))
        for col in (lift, constructions.kr_quad_lift(fold), constructions.quad_set_lift(lift)):
            yield core.colouring_to_bytes(col)
        yield repr(verifiers.verify_complement_lift(lift, base, palette))
        if lift.edge_count:
            # one recoloured triple, so the check has a violation to report
            bad = lift.colours.copy()
            bad[lift.edge_count // 2] = (bad[lift.edge_count // 2] + 1) % 4
            tampered = core.CompleteColouring(n, 3, 4, bad)
            yield repr(verifiers.verify_complement_lift(tampered, base, palette))
        yield repr(verifiers.rainbow_triangle_free(base, (0, 1, 2)))
        yield repr(verifiers.rainbow_triangle_free(base, (1, 2, 3)))
        yield repr(verifiers.rainbow_triangle_free(fold, (0, 1, 2)))
        for q in (2, 3):
            triples = constructions.random_colouring(n, 3, q, seed=100 * n + q)
            counts = core.pair_colour_counts(triples)
            yield counts.astype(np.int64).tobytes()
            t = 3 + n % 3
            theta = finder.pair_threshold(t)
            aux = finder.AuxiliaryGraphColouring(
                n=n, t=t, q=q, theta=theta, labels=finder.label_pairs(counts, theta),
                counts=counts,
            )
            yield extractors.rbg_label_hypergraph(aux).edges.tobytes()


def test_slab_kernel_outputs_are_pinned():
    assert digest(slab_kernel_outputs()) == (
        "55111f24887652f786cbcd86d73db6c7aaaa8c79574303ae974721fd25ca34df"
    )


def test_pipeline_outputs_are_pinned():
    assert digest(pipeline_outputs()) == (
        "103605c1dca449d4f9d1ef018803368250f79d0ce03541d1112909ceada76e60"
    )


def test_clique_search_outputs_are_pinned():
    assert digest(clique_outputs()) == (
        "7d69e5b74de59ca03a897968da06c74d6e4ca1629fc38f302c2a005013d0c323"
    )


def test_gallai_witness_outputs_are_pinned():
    assert digest(gallai_witness_outputs()) == (
        "f281a58f76fe3977c5e3dc97f48a2483b3c46ce6b7fa171fd37a234c80be9c32"
    )


def test_rejection_scattered_outputs_are_pinned():
    assert digest(scattered_outputs("rejection")) == (
        "c2d1a21a2da6261be717de24654ea47ddc0ee11763350fc0ba09947ba4e5c8bd"
    )


def test_local_search_scattered_outputs_are_pinned():
    assert digest(scattered_outputs("local-search")) == (
        "b9a560ce2a0693b880adf9ea3c486e7ae1117bce32708e40e7b92548c9870572"
    )


def test_f_oracle_outputs_are_pinned():
    assert digest(f_oracle_outputs()) == (
        "ae3aa4014537a7a816c6cd913c52dc6eb35e7f5e35da00f9e5677032f484c06a"
    )


def test_benchmark_f_oracle_bytes_match_its_recorded_digest():
    # the benchmark's main-size search round compares these bytes with the
    # digest it recorded; this reads that file and leaves it as it is
    path = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"
    want = json.loads(path.read_text())["search"]["main"]["exact"]
    res = extractors.f_oracle(4, 8, "exhaustive")
    data = str(res).encode() + b"".join(
        core.colouring_to_bytes(res.witnesses[n]) for n in sorted(res.witnesses)
    )
    assert hashlib.sha256(data).hexdigest() == want
