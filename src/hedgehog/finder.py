"""Two-colour hedgehog finder.

Given a 2-colouring of the complete 3-uniform hypergraph on n >= 4t^3
vertices, produces a verified monochromatic hedgehog with body size t.  The
stages: label graph edges by scarce triple counts, classify vertices by
labelled degree, peel a label-free body out of the majority class, then
embed spines greedily.  Each stage is usable (and testable) on its own and
fails loudly with a witness when run below the guaranteed scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import verifiers
from .core import (
    CompleteColouring,
    HedgehogEmbedding,
    InvalidArgument,
    StagedFailure,
    ToolkitError,
    binomial_column,
    hedgehog_shape,
    pair_arrays,
    pair_colour_counts,
    rank_subset,
)


def pair_threshold(t: int) -> int:
    """An edge gets a colour label when fewer than this many triples of that
    colour contain it: C(t,2) + t."""
    hedgehog_shape(t, 3)
    return math.comb(t, 2) + t


def degree_threshold(t: int) -> int:
    """Vertex classification cutoff on labelled degree: 2t^2."""
    return 2 * t * t


@dataclass
class AuxiliaryGraphColouring:
    """Per-edge label subsets derived from scarce triple counts.

    labels[p] is a bitmask over the host's colours; bit c is set when the
    pair with colex rank p lies in fewer than theta triples of colour c.
    For 2-colourings with n - 2 >= 2*theta the two counts sum to n - 2, so
    no edge can carry both labels.
    """

    n: int
    t: int
    q: int
    theta: int
    labels: np.ndarray  # uint8 bitmasks, length C(n,2)
    counts: np.ndarray  # int64, shape (C(n,2), q)


@dataclass
class VertexClass:
    """Vertex tags from labelled degrees: tag c means the vertex has fewer
    than delta incident c-labelled edges (class red wins ties).

    violation records a vertex with delta or more labelled edges in both
    colours, which the counting argument rules out at n >= 4t^3; it can only
    be non-None when the finder runs below that scale.
    """

    delta: int
    tags: np.ndarray  # uint8, 0 = red, 1 = blue
    label_degrees: np.ndarray  # int64, shape (n, q)
    violation: int | None


def label_pairs(counts: np.ndarray, theta: int) -> np.ndarray:
    masks = np.zeros(counts.shape[0], dtype=np.uint8)
    for colour in range(counts.shape[1]):
        masks |= (counts[:, colour] < theta).astype(np.uint8) << colour
    return masks


def pair_profile(colouring: CompleteColouring, t: int) -> AuxiliaryGraphColouring:
    """Label every graph edge by which triple colours are scarce on it; the
    finder runs on 2-colourings, the three-colour pipeline on 3-colourings."""
    theta = pair_threshold(t)
    if colouring.k != 3 or colouring.q not in (2, 3):
        raise InvalidArgument("pair_profile expects a 2- or 3-coloured k=3 colouring")
    counts = pair_colour_counts(colouring)
    return AuxiliaryGraphColouring(
        n=colouring.n,
        t=t,
        q=colouring.q,
        theta=theta,
        labels=label_pairs(counts, theta),
        counts=counts,
    )


def _greedy_peel(order, n: int, avoid: np.ndarray) -> list[int]:
    """Greedy independent set in the graph on [n] whose edges are the pairs
    flagged in avoid (a boolean array over colex pair ranks): walk the given
    vertex order and keep each vertex no kept vertex is joined to.  The
    choice is online, so the first t vertices kept are those a walk stopping
    at t would keep."""
    a, b = pair_arrays(n)
    neighbours: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(a[avoid].tolist(), b[avoid].tolist()):
        neighbours[u].append(v)
        neighbours[v].append(u)
    kept: list[int] = []
    dropped: set[int] = set()
    for v in order:
        if v not in dropped:
            kept.append(v)
            dropped.update(neighbours[v])
    return kept


def _labelled(aux: AuxiliaryGraphColouring, colour: int) -> np.ndarray:
    return (aux.labels >> colour & 1).astype(bool)


def classify_vertices(aux: AuxiliaryGraphColouring) -> VertexClass:
    """Tag each vertex red when its red-labelled degree is below 2t^2, else
    blue, and report any vertex that is heavy in both labels."""
    n, q = aux.n, aux.q
    delta = degree_threshold(aux.t)
    a, b = pair_arrays(n)
    degrees = np.zeros((n, q), dtype=np.int64)
    for colour in range(q):
        sel = _labelled(aux, colour)
        if sel.any():
            degrees[:, colour] += np.bincount(a[sel], minlength=n)
            degrees[:, colour] += np.bincount(b[sel], minlength=n)
    tags = (degrees[:, 0] >= delta).astype(np.uint8)
    heavy_both = (degrees[:, 0] >= delta) & (degrees[:, 1] >= delta)
    violation = int(np.argmax(heavy_both)) if heavy_both.any() else None
    return VertexClass(
        delta=delta, tags=tags, label_degrees=degrees, violation=violation
    )


def low_degree_body(
    aux: AuxiliaryGraphColouring, cls: VertexClass, t: int
) -> tuple[int, list[int]]:
    """Peel a size-t vertex set spanning no majority-labelled edge.

    The majority class (ties go to red) has at least n/2 vertices, each in
    fewer than 2t^2 edges labelled with its own colour, so greedily taking a
    vertex and discarding its labelled neighbours yields an independent set
    of size at least (n/2) / (2t^2) >= t once n >= 4t^3.  Returns the
    majority colour and the first t vertices chosen.
    """
    red_count = int((cls.tags == 0).sum())
    majority = 0 if 2 * red_count >= aux.n else 1
    members = np.flatnonzero(cls.tags == majority).tolist()
    body = _greedy_peel(members, aux.n, _labelled(aux, majority))[:t]
    if len(body) < t:
        raise StagedFailure(
            "low-degree-body",
            f"majority class of {len(members)} vertices peeled to only "
            f"{len(body)} of the required {t}",
            witness={"majority": majority, "body": body, "class_size": len(members)},
        )
    return majority, body


def embed_spines(
    colouring: CompleteColouring, body, colour: int
) -> HedgehogEmbedding:
    """Greedily assign each body pair the smallest unused non-body vertex
    forming a triple of the requested colour.

    Succeeds whenever every body pair lies in at least C(t,2) + t triples of
    that colour: each assignment excludes at most t - 2 body vertices and
    C(t,2) - 1 earlier spines, leaving slack.
    """
    n = colouring.n
    body = sorted(body)
    body_set = set(body)
    if len(body_set) != len(body):
        raise InvalidArgument("body vertices must be distinct")
    used: set[int] = set()
    spines: dict[tuple[int, ...], int] = {}
    pairs = sorted(
        ((u, v) for i, u in enumerate(body) for v in body[i + 1 :]),
        key=rank_subset,
    )
    c3 = binomial_column(3)
    c2 = binomial_column(2)
    cols = colouring.colours
    for u, v in pairs:
        found = None
        for w in range(n):
            if w in body_set or w in used:
                continue
            x, y, z = sorted((u, v, w))
            if cols[c3[z] + c2[y] + x] == colour:
                found = w
                break
        if found is None:
            raise StagedFailure(
                "embed-spines",
                f"no spine candidate left for body pair {(u, v)}",
                witness=(u, v),
            )
        used.add(found)
        spines[(u, v)] = found
    return HedgehogEmbedding(colour=colour, body=tuple(body), spines=spines)


def guaranteed_order(t: int) -> int:
    """Vertex count from which the finder always succeeds: 4t^3."""
    return 4 * t**3


def _peel_zero_count_body(
    aux: AuxiliaryGraphColouring, colour: int, t: int
) -> list[int] | None:
    """Greedy independent set in the graph of pairs with no triple of the
    given colour at all (the weakest scarcity labelling)."""
    body = _greedy_peel(range(aux.n), aux.n, aux.counts[:, colour] == 0)[:t]
    return body if len(body) == t else None


def find_hedgehog_in_colour(
    colouring: CompleteColouring, t: int, colour: int
) -> HedgehogEmbedding:
    """Finder variant with the hedgehog colour forced: peel a body spanning
    no edge labelled with that colour, embed greedily, verify."""
    if colour not in (0, 1):
        raise InvalidArgument("forced colour must be 0 or 1")
    return _find(colouring, t, colour)


def find_monochromatic_hedgehog(
    colouring: CompleteColouring, t: int
) -> HedgehogEmbedding:
    """Full pipeline: profile pairs, classify vertices, peel a body in the
    majority colour, embed spines, and verify the result before returning.

    Guaranteed to succeed for n >= 4t^3.  Below that scale the scarcity
    threshold C(t,2) + t can exceed n - 2 and mislabel everything, so on a
    stage failure the finder retries each colour with the weakest labelling
    (pairs hosting zero triples of the colour) before propagating the
    original failure; any embedding returned is verified either way.
    """
    return _find(colouring, t, None)


def _find(
    colouring: CompleteColouring, t: int, forced: int | None
) -> HedgehogEmbedding:
    """The finder's size check, profile and verify-before-return, around the
    majority-class search or, when forced names a colour, a body peeled in
    vertex order from the edges without that colour's label."""
    shape = hedgehog_shape(t, colouring.k)
    if colouring.n < shape.vertex_count:
        raise StagedFailure(
            "size",
            f"n={colouring.n} cannot host a hedgehog on {shape.vertex_count} vertices",
        )
    if colouring.k != 3 or colouring.q != 2:
        raise InvalidArgument("pair_profile expects a 2-coloured k=3 colouring")
    aux = pair_profile(colouring, t)
    if forced is None:
        emb = _majority_hedgehog(colouring, aux, t)
    else:
        body = _greedy_peel(range(aux.n), aux.n, _labelled(aux, forced))[:t]
        if len(body) < t:
            raise StagedFailure(
                "low-degree-body",
                f"no size-{t} body avoids edges labelled {forced}",
                witness={"colour": forced, "body": body},
            )
        emb = embed_spines(colouring, body, forced)
    problem = verifiers.verify_embedding(emb, colouring)
    if problem is not None:
        raise ToolkitError(f"finder produced an invalid embedding: {problem}")
    return emb


def _majority_hedgehog(
    colouring: CompleteColouring, aux: AuxiliaryGraphColouring, t: int
) -> HedgehogEmbedding:
    cls = classify_vertices(aux)
    try:
        majority, body = low_degree_body(aux, cls, t)
        # the body spans no majority-labelled edge, so every body pair lies
        # in at least theta triples of the majority colour
        return embed_spines(colouring, body, majority)
    except StagedFailure as failure:
        if colouring.n >= guaranteed_order(t):
            raise
        for colour in (0, 1):
            body = _peel_zero_count_body(aux, colour, t)
            if body is None:
                continue
            try:
                return embed_spines(colouring, body, colour)
            except StagedFailure:
                continue
        raise failure
