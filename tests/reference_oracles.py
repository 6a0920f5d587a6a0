"""Reference oracles for the tests: plain, slow second opinions that share
only the core substrate with the package code they cross-check."""

from itertools import combinations

from hedgehog.core import CompleteColouring, hedgehog_shape


def has_monochromatic_hedgehog_slow(
    colouring: CompleteColouring, t: int, colour: int
) -> bool:
    """Naive second opinion: try every body and every injective spine
    assignment directly.  Exponential; only for cross-checking at tiny n."""
    n, k = colouring.n, colouring.k
    shape = hedgehog_shape(t, k)
    if n < shape.vertex_count:
        return False

    for body in combinations(range(n), t):
        body_set = set(body)
        subsets = list(combinations(body, k - 1))
        options = []
        for sub in subsets:
            opts = [
                w
                for w in range(n)
                if w not in body_set
                and colouring.colour_of(sorted(sub + (w,))) == colour
            ]
            options.append(opts)

        def assign(i: int, used: set[int]) -> bool:
            if i == len(subsets):
                return True
            for w in options[i]:
                if w not in used:
                    if assign(i + 1, used | {w}):
                        return True
            return False

        if assign(0, set()):
            return True
    return False
