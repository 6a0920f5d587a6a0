"""Reference oracles for the tests: plain, slow second opinions that share
only the core substrate with the package code they cross-check."""

import math
from itertools import combinations

import numpy as np

from hedgehog.core import (
    _HCOL_HEADER,
    CompleteColouring,
    InvalidArgument,
    hedgehog_shape,
)


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


# The fancy-index HCOL codec: a digit array indexed by colour to write, a
# 256-entry value array indexed by byte to read (255 marks a non-digit).

_HEX_DIGITS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_HEX_VALUES = np.full(256, 255, dtype=np.uint8)
for _i, _ch in enumerate(b"0123456789abcdef"):
    _HEX_VALUES[_ch] = _i


def colouring_to_bytes_reference(col: CompleteColouring) -> bytes:
    head = f"HCOL v1 n={col.n} k={col.k} q={col.q}\n".encode("ascii")
    if col.q <= 16:
        body = _HEX_DIGITS[col.colours].tobytes()
    else:
        body = " ".join(str(int(c)) for c in col.colours).encode("ascii")
    return head + body + b"\n"


def colouring_from_bytes_reference(data: bytes) -> CompleteColouring:
    newline = data.find(b"\n")
    if newline < 0:
        raise InvalidArgument("missing HCOL header line")
    header = _HCOL_HEADER.match(data[:newline])
    if header is None:
        line = data[:newline].decode("utf-8", errors="replace")
        raise InvalidArgument(f"bad HCOL header: {line!r}")
    n, k, q = (int(g) for g in header.groups())
    expect = math.comb(n, k)
    body = data[newline + 1 :]
    if q <= 16:
        raw = body.translate(None, b" \t\r\n")
        vals = _HEX_VALUES[np.frombuffer(raw, dtype=np.uint8)]
        if vals.size and int(vals.max()) == 255:
            bad = int(np.argmax(vals == 255))
            raise InvalidArgument(f"invalid hex digit at body position {bad}")
    else:
        try:
            vals = np.array(
                [int(tok.decode("ascii")) for tok in body.split()], dtype=np.int64
            )
        except (ValueError, OverflowError) as exc:
            raise InvalidArgument(f"invalid decimal colour: {exc}") from exc
    if vals.size != expect:
        raise InvalidArgument(
            f"body has {vals.size} colours, expected C({n},{k})={expect}"
        )
    if vals.size and int(vals.max()) >= q:
        raise InvalidArgument(f"colour {int(vals.max())} out of range for q={q}")
    if vals.size and int(vals.min()) < 0:
        raise InvalidArgument(f"colour {int(vals.min())} out of range for q={q}")
    return CompleteColouring(n=n, k=k, q=q, colours=vals.astype(np.uint8))
