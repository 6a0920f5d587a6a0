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
    """Label every graph edge by which triple colours are scarce on it."""
    if colouring.k != 3 or colouring.q != 2:
        raise InvalidArgument("pair_profile expects a 2-coloured k=3 colouring")
    if colouring.n < 3:
        raise InvalidArgument("need at least 3 vertices")
    theta = pair_threshold(t)
    counts = pair_colour_counts(colouring)
    return AuxiliaryGraphColouring(
        n=colouring.n,
        t=t,
        q=colouring.q,
        theta=theta,
        labels=label_pairs(counts, theta),
        counts=counts,
    )


def classify_vertices(aux: AuxiliaryGraphColouring) -> VertexClass:
    """Tag each vertex red when its red-labelled degree is below 2t^2, else
    blue, and report any vertex that is heavy in both labels."""
    n, q = aux.n, aux.q
    delta = degree_threshold(aux.t)
    a, b = pair_arrays(n)
    degrees = np.zeros((n, q), dtype=np.int64)
    for colour in range(q):
        sel = (aux.labels >> colour & 1).astype(bool)
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
    n = aux.n
    red_count = int((cls.tags == 0).sum())
    majority = 0 if 2 * red_count >= n else 1
    members = np.flatnonzero(cls.tags == majority)
    member_set = set(members.tolist())

    sel = (aux.labels >> majority & 1).astype(bool)
    a, b = pair_arrays(n)
    adjacency: dict[int, list[int]] = {v: [] for v in member_set}
    for u, v in zip(a[sel].tolist(), b[sel].tolist()):
        if u in member_set and v in member_set:
            adjacency[u].append(v)
            adjacency[v].append(u)

    body: list[int] = []
    discarded: set[int] = set()
    for v in members.tolist():
        if v in discarded:
            continue
        body.append(v)
        if len(body) == t:
            return majority, body
        discarded.update(adjacency[v])
    raise StagedFailure(
        "low-degree-body",
        f"majority class of {len(member_set)} vertices peeled to only "
        f"{len(body)} of the required {t}",
        witness={"majority": majority, "body": body, "class_size": len(member_set)},
    )


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
    n = aux.n
    bad = aux.counts[:, colour] == 0
    a, b = pair_arrays(n)
    adjacency: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in zip(a[bad].tolist(), b[bad].tolist()):
        adjacency[u].append(v)
        adjacency[v].append(u)
    body: list[int] = []
    discarded: set[int] = set()
    for v in range(n):
        if v in discarded:
            continue
        body.append(v)
        if len(body) == t:
            return body
        discarded.update(adjacency[v])
    return None


def find_hedgehog_in_colour(
    colouring: CompleteColouring, t: int, colour: int
) -> HedgehogEmbedding:
    """Finder variant with the hedgehog colour forced: peel a body spanning
    no edge labelled with that colour, embed greedily, verify."""
    if colour not in (0, 1):
        raise InvalidArgument("forced colour must be 0 or 1")
    shape = hedgehog_shape(t, colouring.k)
    if colouring.n < shape.vertex_count:
        raise StagedFailure(
            "size",
            f"n={colouring.n} cannot host a hedgehog on {shape.vertex_count} vertices",
        )
    aux = pair_profile(colouring, t)
    n = aux.n
    sel = (aux.labels >> colour & 1).astype(bool)
    a, b = pair_arrays(n)
    adjacency: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in zip(a[sel].tolist(), b[sel].tolist()):
        adjacency[u].append(v)
        adjacency[v].append(u)
    body: list[int] = []
    discarded: set[int] = set()
    for v in range(n):
        if v in discarded:
            continue
        body.append(v)
        if len(body) == t:
            break
        discarded.update(adjacency[v])
    if len(body) < t:
        raise StagedFailure(
            "low-degree-body",
            f"no size-{t} body avoids edges labelled {colour}",
            witness={"colour": colour, "body": body},
        )
    emb = embed_spines(colouring, body, colour)
    problem = verifiers.verify_embedding(emb, colouring)
    if problem is not None:
        raise ToolkitError(f"finder produced an invalid embedding: {problem}")
    return emb


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
    shape = hedgehog_shape(t, colouring.k)
    if colouring.n < shape.vertex_count:
        raise StagedFailure(
            "size",
            f"n={colouring.n} cannot host a hedgehog on {shape.vertex_count} vertices",
        )
    aux = pair_profile(colouring, t)
    cls = classify_vertices(aux)
    emb: HedgehogEmbedding | None = None
    try:
        majority, body = low_degree_body(aux, cls, t)
        # the body spans no majority-labelled edge, so every body pair lies
        # in at least theta triples of the majority colour
        emb = embed_spines(colouring, body, majority)
    except StagedFailure as failure:
        if colouring.n >= guaranteed_order(t):
            raise
        for colour in (0, 1):
            body2 = _peel_zero_count_body(aux, colour, t)
            if body2 is None:
                continue
            try:
                emb = embed_spines(colouring, body2, colour)
                break
            except StagedFailure:
                continue
        if emb is None:
            raise failure
    problem = verifiers.verify_embedding(emb, colouring)
    if problem is not None:
        raise ToolkitError(f"finder produced an invalid embedding: {problem}")
    return emb
