"""Codec framework: encode a ``pyarrow.Array`` → (payload bytes, JSON meta).

Every codec is lossless and deterministic (requirement for bit-identical
round-trip under Ray task retries — SURVEY.md §4.2). The reference engine
hard-codes parquet-mr's encoding (Writer.java:20-36); here each column
chunk picks its own codec (BASELINE.json north_rule).

Framing: a payload may hold several sections (validity bitmap, child
payloads, ...) packed with :func:`pack_sections`. Meta is a plain
JSON-serializable dict so it can live in the lineage manifest.
"""

from __future__ import annotations

import base64
import sys

import numpy as np
import pyarrow as pa

# ------------------------------------------------------------- section framing


def pack_sections(sections: list[bytes]) -> bytes:
    head = np.array([len(sections)] + [len(s) for s in sections], dtype="<u8").tobytes()
    return head + b"".join(sections)


def unpack_sections(buf: bytes) -> list[bytes]:
    (count,) = np.frombuffer(buf, dtype="<u8", count=1)
    lens = np.frombuffer(buf, dtype="<u8", count=int(count), offset=8)
    out, off = [], 8 + 8 * int(count)
    for ln in lens:
        out.append(buf[off : off + int(ln)])
        off += int(ln)
    return out


# ------------------------------------------------------------- type round-trip


def type_to_b64(t: pa.DataType) -> str:
    return base64.b64encode(pa.schema([pa.field("v", t)]).serialize().to_pybytes()).decode()


def type_from_b64(s: str) -> pa.DataType:
    return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(s))).field("v").type


# ------------------------------------------------------------------- null mask


def pack_validity(arr: pa.Array) -> bytes:
    """Little-endian bit-packed validity (1 = valid). Empty bytes if no nulls."""
    if arr.null_count == 0:
        return b""
    valid = arr.is_valid().to_numpy(zero_copy_only=False)
    return np.packbits(valid, bitorder="little").tobytes()


def unpack_validity(buf: bytes, n: int) -> np.ndarray | None:
    """Return bool ndarray of valid slots, or None when there were no nulls."""
    if not buf:
        return None
    return np.unpackbits(np.frombuffer(buf, np.uint8), count=n, bitorder="little").astype(bool)


# ------------------------------------------------------------------ IPC helper


def ipc_write(arr: pa.Array | pa.ChunkedArray, compression: str | None = None) -> bytes:
    """Serialize one array via Arrow IPC (handles every type incl. nested)."""
    t = pa.table({"v": arr})
    sink = pa.BufferOutputStream()
    opts = pa.ipc.IpcWriteOptions(compression=compression)
    with pa.ipc.new_stream(sink, t.schema, options=opts) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def ipc_read(buf: bytes) -> pa.Array:
    return ipc_read_chunked(buf).combine_chunks()


def ipc_read_chunked(buf: bytes) -> pa.ChunkedArray:
    """The stream's column with one chunk per record batch: a paged
    payload's pages stay apart, with no copy into one array."""
    return pa.ipc.open_stream(pa.py_buffer(buf)).read_all().column("v")


# ------------------------------------------------------------- IPC pages

# Raw bytes per page of a long string/binary column — Parquet's default
# data-page size. A filtered read decodes only the pages holding selected
# rows; each page is its own compression frame, so smaller pages cost
# size and larger ones cost decode time per selected page. On one
# 2,500-row CC html chunk under zstd3 (shared 4-vCPU VM): 1 MiB pages
# +1.0% size, 2.1 ms to decode one row; 4 MiB +0.2%, 8.9 ms; unpaged
# 38 ms.
PAGE_BYTES = 1 << 20

_PAGED_TYPES = (pa.types.is_string, pa.types.is_large_string,
                pa.types.is_binary, pa.types.is_large_binary)


def ipc_write_pages(arr: pa.Array, compression=None) -> tuple[bytes, dict]:
    """:func:`ipc_write` plus the codec meta. A string/binary array over
    ``PAGE_BYTES`` is written as pages of ``page_rows`` rows, one record
    batch each, in the same stream; meta records ``page_rows`` and each
    page message's byte offset (``page_offsets``). Any other array gets
    today's single-batch bytes and empty meta. Old readers still decode
    a paged payload: :func:`ipc_read` reads every batch of the stream."""
    nbytes = arr.nbytes
    if nbytes <= PAGE_BYTES or not any(f(arr.type) for f in _PAGED_TYPES):
        return ipc_write(arr, compression), {}
    n = len(arr)
    page_rows = max(1, n * PAGE_BYTES // nbytes)
    schema = pa.schema([pa.field("v", arr.type)])
    sink = pa.BufferOutputStream()
    offsets = []
    opts = pa.ipc.IpcWriteOptions(compression=compression)
    with pa.ipc.new_stream(sink, schema, options=opts) as w:
        for start in range(0, n, page_rows):
            offsets.append(sink.tell())
            w.write_batch(pa.record_batch([arr.slice(start, page_rows)],
                                          schema=schema))
    buf = sink.getvalue()
    # the writer emits the schema message with the first batch, so page
    # 0 starts where that message ends, not at the position before it
    head = pa.BufferReader(buf)
    pa.ipc.read_message(head)
    offsets[0] = head.tell()
    return buf.to_pybytes(), {"page_rows": page_rows,
                              "page_offsets": offsets}


def ipc_read_page(buf: pa.Buffer, schema: pa.Schema, offset: int) -> pa.Array:
    """Decode the one page whose record-batch message starts at
    ``offset`` of a paged IPC payload."""
    msg = pa.ipc.read_message(buf.slice(offset))
    return pa.ipc.read_record_batch(msg, schema).column(0)


def _selected_pages(meta: dict, rows: np.ndarray) -> list:
    """(page, positions within it) of each page of a paged payload that
    holds some of ``rows`` (sorted positions), in page order."""
    page_rows, offsets = meta["page_rows"], meta["page_offsets"]
    # rows are sorted: page p's rows are rows[cut[p]:cut[p + 1]]
    cut = np.searchsorted(rows, np.arange(len(offsets) + 1) * page_rows)
    return [(p, rows[cut[p]:cut[p + 1]] - p * page_rows)
            for p in range(len(offsets)) if cut[p] < cut[p + 1]]


def ipc_page_spans(meta: dict, rows: np.ndarray,
                   size: int) -> list[tuple[int, int]]:
    """The byte ranges of a paged payload of ``size`` bytes that
    :func:`ipc_read_rows` reads for ``rows``: the schema message, then
    each selected page up to the next page's offset (the last one up to
    the payload end). Other bytes of the payload are never read."""
    ends = meta["page_offsets"][1:] + [size]
    return [(0, meta["page_offsets"][0])] + [
        (meta["page_offsets"][p], ends[p])
        for p, _ in _selected_pages(meta, rows)]


def ipc_read_rows(payload: bytes, meta: dict, rows: np.ndarray) -> pa.Array:
    """Rows ``rows`` (sorted positions) of an IPC payload. A paged payload
    decodes only the pages holding them, and reads only its
    :func:`ipc_page_spans`; a single-batch one (no ``page_rows`` in meta:
    every store written before pages) decodes whole and is taken."""
    if "page_rows" not in meta:
        return ipc_read(payload).take(rows)
    buf = pa.py_buffer(payload)
    schema = pa.ipc.read_schema(buf)
    parts = [ipc_read_page(buf, schema, meta["page_offsets"][p]).take(
                 pa.array(at))
             for p, at in _selected_pages(meta, rows)]
    if not parts:
        return pa.array([], schema.field("v").type)
    return pa.concat_arrays(parts)


# ------------------------------------------------------- general compression


def compress(buf: bytes, codec: str = "zstd") -> bytes:
    return pa.Codec(codec).compress(buf, asbytes=True)


def decompress(buf: bytes, decompressed_size: int, codec: str = "zstd") -> bytes:
    return pa.Codec(codec).decompress(buf, decompressed_size=decompressed_size, asbytes=True)


# ------------------------------------------------------------------ bit-packing


def bit_width(max_val: int) -> int:
    return int(max_val).bit_length()


def pack_bits(vals: np.ndarray, width: int) -> bytes:
    """Pack uint64 values into ``width``-bit little-endian codes.

    Word-based: each value ORs its bits into one 64-bit word plus an
    optional spill into the next — no (n × width) bit-matrix
    intermediate (the previous ``packbits`` formulation allocated
    n*width uint64s: 272 MB and ~7 s for 2M values at width 17; this
    is ~0.1 s). The byte stream is identical to the old layout — a
    little-endian bit stream — so existing stores decode unchanged.
    """
    if width == 0 or len(vals) == 0:
        return b""
    n = len(vals)
    v = vals.astype(np.uint64, copy=False)
    if width == 1:
        # packbits alone: 15x faster than the word scatter and the same
        # small memory footprint. Wider matrix variants (w2-6) win ~2x
        # on an idle box but their n×width uint64 intermediate is
        # memory-bandwidth-bound and measured 30x SLOWER than the word
        # path under a bandwidth-saturating co-tenant — robustness wins
        return np.packbits((v & np.uint64(1)).astype(np.uint8),
                           bitorder="little").tobytes()
    if width < 64:
        # truncate each value to its bit slot like the old bit-matrix
        # form did — without this, a value >= 2^width (a caller bug,
        # e.g. a stale sampled max) would OR its excess bits into the
        # NEXT value's slot: silent neighbor corruption vs local loss
        v = v & np.uint64((1 << width) - 1)
    total_bits = n * width
    out = np.zeros((total_bits + 63) // 64 + 1, np.uint64)  # +1 spill pad
    pos = np.arange(n, dtype=np.uint64) * np.uint64(width)
    word = (pos >> np.uint64(6)).astype(np.int64)
    off = pos & np.uint64(63)
    # each value's bit range is disjoint, so unbuffered OR never clashes
    np.bitwise_or.at(out, word, v << off)
    # spill lanes have off > 0, so the used shifts are 1..63; the &63
    # only keeps the unused off==0 lanes (shift 64 is UB) deterministic
    spill = np.where(off.astype(np.int64) + width > 64,
                     v >> ((np.uint64(64) - off) & np.uint64(63)),
                     np.uint64(0))
    np.bitwise_or.at(out, word + 1, spill)
    if sys.byteorder == "big":  # pragma: no cover — stream is defined LE
        out = out.astype("<u8")
    return out.tobytes()[: (total_bits + 7) // 8]


def unpack_bits(buf: bytes, n: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack_bits` — same word-gather formulation."""
    if width == 0 or n == 0:
        return np.zeros(n, dtype=np.uint64)
    if width == 1:  # unpackbits alone beats the word gather here
        return np.unpackbits(np.frombuffer(buf, np.uint8), count=n,
                             bitorder="little").astype(np.uint64)
    total_words = (n * width + 63) // 64 + 1
    padded = buf + b"\0" * (total_words * 8 - len(buf))
    w = np.frombuffer(padded, "<u8")
    pos = np.arange(n, dtype=np.uint64) * np.uint64(width)
    word = (pos >> np.uint64(6)).astype(np.int64)
    off = pos & np.uint64(63)
    vals = w[word] >> off
    hi = np.where(off.astype(np.int64) + width > 64,
                  w[word + 1] << ((np.uint64(64) - off) & np.uint64(63)),
                  np.uint64(0))
    vals = vals | hi
    if width < 64:
        vals &= np.uint64((1 << width) - 1)
    return vals


def zigzag_encode(d: np.ndarray) -> np.ndarray:
    d = d.astype(np.int64, copy=False)
    return ((d << 1) ^ (d >> 63)).view(np.uint64)


def zigzag_decode(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=False)
    return ((z >> np.uint64(1)).astype(np.int64)) ^ -((z & np.uint64(1)).astype(np.int64))


# ------------------------------------------------------------- numeric helpers

_INT_TYPES = {
    pa.int8(), pa.int16(), pa.int32(), pa.int64(),
    pa.uint8(), pa.uint16(), pa.uint32(), pa.uint64(),
}


def is_int_like(t: pa.DataType) -> bool:
    """Integer, timestamp, date, time, duration, bool. Caveat: uint64
    VALUES above 2^63-1 don't fit the int64 working dtype — the int
    codecs raise on such chunks and encode_table falls back to plain
    (logged); the planner's trial encode rejects them up front when the
    sample contains one."""
    return (
        t in _INT_TYPES
        or pa.types.is_timestamp(t)
        or pa.types.is_date(t)
        or pa.types.is_time(t)
        or pa.types.is_duration(t)
        or pa.types.is_boolean(t)
    )


def _storage_int(t: pa.DataType) -> pa.DataType | None:
    """32/64-bit storage int for temporal types that don't cast to int64 directly."""
    if pa.types.is_date32(t) or pa.types.is_time32(t):
        return pa.int32()
    if pa.types.is_date64(t) or pa.types.is_time64(t):
        return pa.int64()
    return None


def to_int64_values(arr: pa.Array) -> tuple[np.ndarray, np.ndarray | None]:
    """(int64 values with nulls replaced by 0/False, valid mask or None)."""
    valid = None
    if arr.null_count:
        valid = arr.is_valid().to_numpy(zero_copy_only=False)
    if pa.types.is_boolean(arr.type):
        filled = arr.fill_null(False)
        return filled.to_numpy(zero_copy_only=False).astype(np.int64), valid
    storage = _storage_int(arr.type)
    if storage is not None:
        arr = arr.view(storage)
    ints = arr.cast(pa.int64()) if arr.type != pa.int64() else arr
    if ints.null_count:
        ints = ints.fill_null(0)
    return ints.to_numpy(zero_copy_only=False).astype(np.int64, copy=False), valid


def from_int64_values(vals: np.ndarray, valid: np.ndarray | None, t: pa.DataType) -> pa.Array:
    mask = None if valid is None else ~valid
    if pa.types.is_boolean(t):
        return pa.array(vals.astype(bool), type=t, mask=mask)
    a = pa.array(vals.astype(np.int64, copy=False), type=pa.int64(), mask=mask)
    storage = _storage_int(t)
    if storage is not None:
        return a.cast(storage).view(t)
    return a.cast(t) if t != pa.int64() else a


class Codec:
    """Interface. Subclasses are stateless; all methods are classmethods."""

    name: str = "abstract"

    @classmethod
    def can_encode(cls, t: pa.DataType) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    @classmethod
    def encode(cls, arr: pa.Array) -> tuple[bytes, dict]:  # pragma: no cover
        raise NotImplementedError

    @classmethod
    def decode(cls, payload: bytes, meta: dict) -> pa.Array:  # pragma: no cover
        raise NotImplementedError

    @classmethod
    def decode_column(cls, payload: bytes,
                      meta: dict) -> pa.Array | pa.ChunkedArray:
        """The whole column for a table. Codecs whose payload holds pages
        override this to return them as chunks, with no copy into one
        array; :meth:`decode` always returns one array."""
        return cls.decode(payload, meta)

    @classmethod
    def decode_rows(cls, payload: bytes, meta: dict,
                    rows: np.ndarray) -> pa.Array:
        """Rows ``rows`` (sorted positions) of the chunk. Codecs whose
        payload can be read in parts override this to decode less."""
        return cls.decode(payload, meta).take(rows)
