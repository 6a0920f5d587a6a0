"""Property tests of the HCOL codec against the fancy-index reference codec
in reference_oracles: the same colouring or exactly the same error, and
byte-identical output."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgehog import core
from reference_oracles import colouring_from_bytes_reference, colouring_to_bytes_reference

CODEC = settings(max_examples=300, deadline=None, database=None)


@st.composite
def colourings(draw, ks=(2, 3, 4), qs=st.integers(1, 16), max_n=12):
    k = draw(st.sampled_from(ks))
    n = draw(st.integers(0, max_n))
    q = draw(qs)
    colours = draw(
        st.lists(st.integers(0, q - 1), min_size=math.comb(n, k), max_size=math.comb(n, k))
    )
    return core.CompleteColouring(n, k, q, np.array(colours, dtype=np.uint8))


# bytes a body edit may put in: blanks, uppercase and other non-digits,
# non-ASCII bytes, and any single byte at all
_NOISE = st.one_of(
    st.sampled_from([b" ", b"\t", b"\r", b"\n", b"A", b"F", b"g", b"-", b"\xff", b"\xc3\xa9"]),
    st.binary(min_size=1, max_size=3),
    st.integers(0, 255).map(lambda c: b"%x" % c),
    st.integers(-1, 300).map(lambda c: b"%d" % c),
)


@st.composite
def hcol_files(draw):
    """A valid header over a body that starts canonical and then takes a few
    inserts, deletes and replacements anywhere, so it may come out short,
    long, padded with whitespace or holding bytes that are no digit."""
    col = draw(colourings(ks=(2, 3), qs=st.sampled_from([1, 2, 3, 9, 10, 15, 16, 17, 200]), max_n=8))
    data = bytearray(colouring_to_bytes_reference(col))
    body_start = data.index(b"\n") + 1
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(body_start, len(data)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "delete":
            del data[at : at + draw(st.integers(1, 3))]
        else:
            end = at + (edit == "replace")
            data[at:end] = draw(_NOISE)
    return bytes(data)


def _outcome(parse, data):
    try:
        col = parse(data)
    except core.InvalidArgument as exc:
        return "error", str(exc)
    return "ok", (col.n, col.k, col.q, col.colours.tobytes())


@CODEC
@given(hcol_files())
def test_reader_agrees_with_reference_on_arbitrary_bodies(data):
    assert _outcome(core.colouring_from_bytes, data) == _outcome(
        colouring_from_bytes_reference, data
    )


# q <= 10 files around the decimal path's edges: each either is the
# writer's canonical form (one line of digits) or must fall through to the
# general path and fail, or succeed, exactly as the reference does
_HEAD = b"HCOL v1 n=4 k=2 q=10\n"
DECIMAL_EDGE_CASES = {
    "canonical": _HEAD + b"012349\n",
    "n below k": b"HCOL v1 n=2 k=3 q=2\n\n",
    "n below k, no body line": b"HCOL v1 n=2 k=3 q=2\n",
    "empty body": _HEAD + b"\n",
    "crlf": _HEAD + b"012349\r\n",
    "no final newline": _HEAD + b"012349",
    "blanks": _HEAD + b"0 1 2 3 4 9\n",
    "blank inside, length kept": _HEAD + b"01 349\n",
    "hex letter at q=10": _HEAD + b"01234a\n",
    "digit >= q": b"HCOL v1 n=4 k=2 q=3\n012012\n",
    "overlong body": _HEAD + b"0123490\n",
    "short body": _HEAD + b"01234\n",
    "two final newlines": _HEAD + b"012349\n\n",
    "nul byte": _HEAD + b"0123\x009\n",
    "q=1": b"HCOL v1 n=3 k=2 q=1\n000\n",
}


def _assert_matches_reference(data):
    want = _outcome(colouring_from_bytes_reference, data)
    try:
        col = core.colouring_from_bytes(data)
    except core.InvalidArgument as exc:
        assert ("error", str(exc)) == want
        return
    assert ("ok", (col.n, col.k, col.q, col.colours.tobytes())) == want
    assert not col.colours.flags.writeable


@pytest.mark.parametrize("name", sorted(DECIMAL_EDGE_CASES))
def test_decimal_edge_cases_match_reference(name):
    _assert_matches_reference(DECIMAL_EDGE_CASES[name])


@st.composite
def edited_decimal_files(draw):
    """A canonical q <= 10 file with one insert, delete or replacement
    anywhere after the header line."""
    col = draw(colourings(ks=(2, 3), qs=st.integers(1, 10), max_n=8))
    data = bytearray(colouring_to_bytes_reference(col))
    at = draw(st.integers(data.index(b"\n") + 1, len(data)))
    edit = draw(st.sampled_from(["none", "insert", "delete", "replace"]))
    if edit == "delete":
        del data[at : at + 1]
    elif edit != "none":
        data[at : at + (edit == "replace")] = draw(
            st.one_of(_NOISE, st.integers(0, 9).map(lambda c: b"%d" % c))
        )
    return bytes(data)


@CODEC
@given(edited_decimal_files())
def test_reader_agrees_with_reference_on_edited_decimal_files(data):
    _assert_matches_reference(data)


@pytest.mark.parametrize("q", [1, 2, 9, 10, 11, 16])
def test_only_canonical_q10_bodies_take_the_decimal_path(q):
    col = core.CompleteColouring(
        9, 3, q, np.random.default_rng(q).integers(0, q, size=84, dtype=np.uint8)
    )
    data = core.colouring_to_bytes(col)
    offset = data.index(b"\n") + 1
    decimal = core._digit_body(data, offset, col.edge_count, q)
    assert (decimal is not None) == (q <= 10)
    if q <= 10:
        assert np.array_equal(decimal, col.colours)
        assert core._digit_body(data[:-1], offset, col.edge_count, q) is not None
        assert core._digit_body(data + b"\n", offset, col.edge_count, q) is None


@CODEC
@given(colourings())
def test_hex_round_trip_matches_reference(col):
    data = core.colouring_to_bytes(col)
    assert data == colouring_to_bytes_reference(col)
    again = core.colouring_from_bytes(data)
    assert again.equals(col)
    assert core.colouring_to_bytes(again) == data


@settings(max_examples=60, deadline=None, database=None)
@given(colourings(ks=(2, 3), qs=st.sampled_from([2, 16, 17, 200]), max_n=9))
def test_written_file_equals_colouring_to_bytes(tmp_path_factory, col):
    path = tmp_path_factory.mktemp("hcol") / "c.hcol"
    core.write_colouring(col, path)
    assert path.read_bytes() == core.colouring_to_bytes(col)
    assert core.read_colouring(path).equals(col)


@pytest.mark.parametrize("n, k, q", [(0, 3, 2), (1, 2, 16), (72, 3, 16), (256, 3, 2)])
def test_codec_matches_reference_at_size(n, k, q):
    rng = np.random.default_rng(n)
    col = core.CompleteColouring(
        n, k, q, rng.integers(0, q, size=math.comb(n, k), dtype=np.uint8)
    )
    data = core.colouring_to_bytes(col)
    assert data == colouring_to_bytes_reference(col)
    assert core.colouring_from_bytes(data).equals(colouring_from_bytes_reference(data))


def test_hex_read_peak_memory_is_two_bodies(tmp_path):
    # the read holds the file bytes and one translated copy, never a third
    # slice of the body
    n = 200
    rng = np.random.default_rng(5)
    col = core.CompleteColouring(
        n, 3, 16, rng.integers(0, 16, size=math.comb(n, 3), dtype=np.uint8)
    )
    path = tmp_path / "big.hcol"
    core.write_colouring(col, path)
    tracemalloc.start()
    try:
        got = core.read_colouring(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.equals(col)
    assert peak <= 2.2 * col.edge_count


def test_decimal_write_peak_memory_is_one_body(tmp_path):
    # a q <= 10 write holds one body, the colours plus b"0", and no
    # translated second copy
    n = 200
    rng = np.random.default_rng(7)
    col = core.CompleteColouring(
        n, 3, 2, rng.integers(0, 2, size=math.comb(n, 3), dtype=np.uint8)
    )
    path = tmp_path / "big.hcol"
    tracemalloc.start()
    try:
        core.write_colouring(col, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert core.read_colouring(path).equals(col)
    assert peak <= 1.1 * col.edge_count


def test_decimal_read_peak_memory_is_two_bodies(tmp_path):
    # the decimal path holds the file bytes and the colours, nothing more
    n = 200
    rng = np.random.default_rng(6)
    col = core.CompleteColouring(
        n, 3, 10, rng.integers(0, 10, size=math.comb(n, 3), dtype=np.uint8)
    )
    path = tmp_path / "big.hcol"
    core.write_colouring(col, path)
    tracemalloc.start()
    try:
        got = core.read_colouring(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.equals(col)
    assert peak <= 2.2 * col.edge_count
