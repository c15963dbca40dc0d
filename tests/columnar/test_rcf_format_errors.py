"""Damaged RCF structure is a typed error, never a builtin one or a
silently different table.

The reader checks what it walks — magics, the footer's place, group
offsets, each group header against the footer and its own extent,
every chunk's dtype tokens against the tokens the writer writes, a
PLAIN chunk's token against its extent and every decoded chunk's length
against its group's rows — and raises :class:`RcfFormatError`.  Other
payload bytes are not checked: a flipped payload bit still decodes to
wrong values, and so does a token swapped for another writable one.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnTable
from repro.columnar.file_format import (
    RcfFormatError,
    RcfReader,
    read_table,
    write_table,
)

ROWS = 100
GROUP = 32  # four groups: 32, 32, 32, 4 rows


def small_table():
    rng = np.random.default_rng(5)
    return ColumnTable(
        {
            "host": np.array([f"nid{i % 3}" for i in range(ROWS)], dtype=object),
            "timestamp": np.arange(ROWS, dtype=np.float64),
            "node": rng.integers(0, 8, ROWS).astype(np.int64),
            "power": rng.normal(500.0, 30.0, ROWS),
        }
    )


BLOB = write_table(small_table(), row_group_size=GROUP)
(FOOTER_START,) = struct.unpack_from("<Q", BLOB, len(BLOB) - 12)
#: Byte offsets of every footer field: each group's offset and row
#: count, then ``footer_start`` itself.
FOOTER_FIELDS = list(range(FOOTER_START, len(BLOB) - 12, 8)) + [len(BLOB) - 12]
GROUP0 = struct.unpack_from("<Q", BLOB, FOOTER_START)[0]


def patched(at, fmt, value, blob=BLOB):
    buf = bytearray(blob)
    struct.pack_into(fmt, buf, at, value)
    return bytes(buf)


def read_or_none(buf):
    """The table ``buf`` holds, or None for a typed format error; any
    other exception fails the test."""
    try:
        return read_table(buf)
    except RcfFormatError:
        return None


def assert_original(out):
    want = small_table()
    assert out.column_names == want.column_names
    for n in want.column_names:
        assert out[n].dtype == want[n].dtype
        assert out[n].tolist() == want[n].tolist()


def test_the_blob_has_four_groups_and_a_string_first_column():
    reader = RcfReader(BLOB)
    assert reader.num_row_groups == 4
    assert reader.schema[0] == ("host", True)
    assert len(FOOTER_FIELDS) == 2 * 4 + 1


@pytest.mark.parametrize(
    "buf",
    [
        BLOB[:10],  # shorter than any file
        BLOB[:4] + BLOB[-4:],  # both magics, nothing between
        b"RCF1" + BLOB[4:],  # the retired v1 magic
        BLOB[:-1],  # tail magic cut
        patched(len(BLOB) - 12, "<Q", len(BLOB) + 5),  # footer past the end
        patched(len(BLOB) - 12, "<Q", FOOTER_START - 16),  # footer moved
        patched(FOOTER_START, "<Q", 9),  # group 0 inside the schema
        patched(FOOTER_START + 16, "<Q", GROUP0),  # offsets not increasing
        patched(FOOTER_START + 48, "<Q", FOOTER_START),  # group 3 at the footer
    ],
    ids=[
        "cut-to-10",
        "magics-only",
        "v1-magic",
        "tail-cut",
        "footer-past-end",
        "footer-moved",
        "offset-into-schema",
        "offsets-repeat",
        "offset-at-footer",
    ],
)
def test_structure_that_does_not_fit_fails_the_open(buf):
    with pytest.raises(RcfFormatError):
        RcfReader(buf)


@pytest.mark.parametrize(
    "at, fmt, value",
    [
        (FOOTER_START + 8, "<Q", 5),  # group 0's footer rows: 32 -> 5
        (GROUP0, "<Q", 31),  # group 0's own row count
        (GROUP0 + 8, "<B", 9),  # encoding id
        (GROUP0 + 8, "<B", 4),  # the retired dictionary back-reference
        (GROUP0 + 9, "<B", 7),  # codec id
        (GROUP0 + 10, "<B", 4),  # stats flags
        (GROUP0 + 15, "<B", 0xFF),  # the string min's first byte
        (GROUP0 + 11, "<I", 1 << 30),  # the string min's length
    ],
    ids=[
        "footer-rows",
        "header-rows",
        "encoding",
        "encoding-4",
        "codec",
        "flags",
        "stats-utf8",
        "stats-length",
    ],
)
def test_a_group_header_that_does_not_fit_fails_its_parse(at, fmt, value):
    reader = RcfReader(patched(at, fmt, value))  # the footer still fits
    with pytest.raises(RcfFormatError):
        reader.group_stats(0)
    with pytest.raises(RcfFormatError):
        reader.read()


def test_a_payload_off_its_group_end_fails_the_parse():
    reader = RcfReader(BLOB)
    meta = reader._group(0).chunks["power"]  # the group's last chunk
    length_at = meta.payload_offset - 8
    for length in (meta.payload_len + 1, 1 << 40, meta.payload_len - 1):
        with pytest.raises(RcfFormatError, match="does not end where"):
            RcfReader(patched(length_at, "<Q", length)).group_stats(0)


#: ``(group, column)`` of every PLAIN chunk stored raw, so that its
#: 8-byte dtype token sits in the blob as written.
PLAIN_RAW = [
    (g, n)
    for g in range(4)
    for n, meta in RcfReader(BLOB)._group(g).chunks.items()
    if (meta.encoding, meta.codec) == (0, "none")
]


def with_token(group, name, token):
    at = RcfReader(BLOB)._group(group).chunks[name].payload_offset
    return BLOB[:at] + token + BLOB[at + 8 :]


def same_width_swap(token, original):
    """The values ``token`` reinterprets the original chunk as, when it
    names another dtype of the original's width — payload damage the
    reader cannot see — else None."""
    width = original.dtype.itemsize
    swaps = {
        f"{order}{kind}{width}".encode().ljust(8): np.dtype(f"{order}{kind}{width}")
        for order in "<>"
        for kind in "iuf"
    }
    dtype = swaps.get(token)
    return None if dtype is None else original.view(dtype)


def test_the_blob_has_six_plain_chunks_stored_raw():
    assert PLAIN_RAW == [
        (0, "power"), (1, "power"), (2, "power"),
        (3, "timestamp"), (3, "node"), (3, "power"),
    ]  # fmt: skip


@pytest.mark.parametrize(
    "token",
    [b"garbage!", b"<f3     ", b"|O      ", b"<U3     ", b"<i4     "],
    ids=lambda token: token.decode().strip(),
)
@pytest.mark.parametrize("where", PLAIN_RAW[:1] + PLAIN_RAW[-1:], ids=str)
def test_a_damaged_plain_token_is_a_format_error(where, token):
    buf = with_token(*where, token)
    with pytest.raises(RcfFormatError):
        RcfReader(buf).raw_view(*where)
    with pytest.raises(RcfFormatError):
        RcfReader(buf).decode_group_column(*where)
    with pytest.raises(RcfFormatError):
        read_table(buf)


def decode_or_none(buf, group, name, method):
    try:
        return getattr(RcfReader(buf), method)(group, name)
    except RcfFormatError:
        return None


@settings(deadline=None)
@given(where=st.sampled_from(PLAIN_RAW), token=st.binary(min_size=8, max_size=8))
def test_every_plain_token_overwritten_is_an_error_or_the_table(where, token):
    original = RcfReader(BLOB).decode_group_column(*where)
    buf = with_token(*where, token)
    chunk = decode_or_none(buf, *where, "decode_group_column")
    view = decode_or_none(buf, *where, "raw_view")
    out = read_or_none(buf)
    assert (chunk is None) == (view is None) == (out is None)
    if chunk is None:
        return
    want = same_width_swap(token, original)
    if want is None:
        want = original
        assert_original(out)
    assert chunk.dtype == view.dtype == want.dtype
    assert chunk.tobytes() == view.tobytes() == want.tobytes()


def test_format_errors_are_value_errors():
    # Callers that caught the reader's old ValueError keep catching it.
    assert issubclass(RcfFormatError, ValueError)


@settings(deadline=None)
@given(cut=st.integers(0, len(BLOB)))
def test_every_prefix_is_an_error_or_the_table(cut):
    out = read_or_none(BLOB[:cut])
    assert (out is None) == (cut < len(BLOB))
    if out is not None:
        assert_original(out)


@settings(deadline=None)
@given(field=st.sampled_from(FOOTER_FIELDS), value=st.integers(0, 2**64 - 1))
def test_every_footer_field_overwritten_is_an_error_or_the_table(field, value):
    out = read_or_none(patched(field, "<Q", value))
    if out is not None:
        assert_original(out)


# -- the dtype tokens of every encoding ----------------------------------------


#: Every token the writer can write: the fixed-width numeric and bool
#: dtypes in either byte order, padded to eight bytes.
WRITABLE = {
    np.dtype(c).newbyteorder(order).str.encode().ljust(8)
    for c in "?bBhHiIlLqQefdg"
    for order in "<>"
}
#: Group 0 of this blob holds one chunk of each encoding, all stored
#: raw, so that every token sits in the blob as written.
TOKEN_BLOB = write_table(
    ColumnTable(
        {
            "timestamp": np.arange(ROWS, dtype=np.float64),
            "rack": np.repeat(np.arange(4, dtype=np.int64), ROWS // 4),
            "node": np.random.default_rng(5).integers(0, 8, ROWS),
            "power": np.random.default_rng(6).normal(500.0, 30.0, ROWS),
        }
    ),
    codec="none",
    row_group_size=GROUP,
)
#: ``(column, offset in the payload)`` of each token in group 0: the
#: DELTA chunk's own and that of the RLE run of its deltas, the RLE and
#: numeric DICTIONARY chunks' and the PLAIN chunk's.
TOKEN_SITES = [
    ("timestamp", 0), ("timestamp", 24), ("rack", 0), ("node", 1), ("power", 0),
]  # fmt: skip


def with_token_at(name, at, token):
    where = RcfReader(TOKEN_BLOB)._group(0).chunks[name].payload_offset + at
    return TOKEN_BLOB[:where] + token + TOKEN_BLOB[where + 8 :]


def test_the_token_blob_holds_every_encoding_raw():
    chunks = RcfReader(TOKEN_BLOB)._group(0).chunks
    assert {n: (m.encoding, m.codec) for n, m in chunks.items()} == {
        "timestamp": (2, "none"), "rack": (1, "none"),
        "node": (3, "none"), "power": (0, "none"),
    }  # fmt: skip
    for name, at in TOKEN_SITES:
        start = chunks[name].payload_offset + at
        assert TOKEN_BLOB[start : start + 8] in WRITABLE


@pytest.mark.parametrize(
    "token", [b"garbage!", b"<f3     ", b"|O      ", b"<U3     "],
    ids=lambda token: token.decode().strip(),
)  # fmt: skip
@pytest.mark.parametrize("site", TOKEN_SITES, ids=lambda s: f"{s[0]}@{s[1]}")
def test_a_damaged_token_of_any_encoding_is_a_format_error(site, token):
    buf = with_token_at(*site, token)
    with pytest.raises(RcfFormatError):
        RcfReader(buf).decode_group_column(0, site[0])
    with pytest.raises(RcfFormatError):
        read_table(buf)


@settings(deadline=None)
@given(site=st.sampled_from(TOKEN_SITES), token=st.binary(min_size=8, max_size=8))
def test_every_token_overwritten_is_an_error_or_the_table(site, token):
    name, at = site
    meta = RcfReader(TOKEN_BLOB)._group(0).chunks[name]
    written = TOKEN_BLOB[meta.payload_offset + at :][:8]
    if token != written and token in WRITABLE:
        return  # another writable token: payload damage (DESIGN.md §13)
    buf = with_token_at(name, at, token)
    try:
        chunk = RcfReader(buf).decode_group_column(0, name)
    except RcfFormatError:
        chunk = None
    out = read_or_none(buf)
    assert (chunk is None) == (out is None) == (token != written)
    if out is not None:
        want = read_table(TOKEN_BLOB)
        for n in want.column_names:
            assert out[n].dtype == want[n].dtype
            assert out[n].tobytes() == want[n].tobytes()
        assert chunk.tobytes() == want[name][:GROUP].tobytes()
