"""Plain / compressed-plain / constant / byte-stream-split codecs.

``plain`` is the universal fallback (every Arrow type, incl. nested):
Arrow IPC stream of the single column. ``zstd``/``lz4`` are the same
stream with IPC buffer compression — these are the "general compression"
candidates the auto-selector must keep available so lightweight codecs are
only chosen when they actually win (SURVEY.md §7.5). A string/binary
column over ``base.PAGE_BYTES`` is written as 1 MiB pages (one record
batch each) that ``decode_rows`` can decode one at a time and
``decode_column`` keeps as chunks.

``constant`` covers degenerate chunks (all-equal or all-null — the
near-constant ``lang`` column's best case after partitioning).

``bss`` is byte-stream-split for float32/float64 (transpose the byte
planes, then zstd) — the standard lightweight float encoding.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .base import (
    Codec,
    compress,
    decompress,
    ipc_read,
    ipc_read_chunked,
    ipc_read_rows,
    ipc_write,
    ipc_write_pages,
    pack_sections,
    pack_validity,
    type_from_b64,
    type_to_b64,
    unpack_sections,
    unpack_validity,
)


class PlainCodec(Codec):
    name = "plain"
    _compression: str | None = None

    @classmethod
    def can_encode(cls, t: pa.DataType) -> bool:
        return True

    @classmethod
    def _ipc_compression(cls):
        return cls._compression

    @classmethod
    def encode(cls, arr: pa.Array) -> tuple[bytes, dict]:
        return ipc_write_pages(arr, compression=cls._ipc_compression())

    @classmethod
    def decode(cls, payload: bytes, meta: dict) -> pa.Array:
        return ipc_read(payload)

    @classmethod
    def decode_column(cls, payload: bytes, meta: dict) -> pa.ChunkedArray:
        return ipc_read_chunked(payload)

    @classmethod
    def decode_rows(cls, payload: bytes, meta: dict,
                    rows: np.ndarray) -> pa.Array:
        return ipc_read_rows(payload, meta, rows)


class ZstdCodec(PlainCodec):
    name = "zstd"
    _compression = "zstd"


class ZstdHiCodec(PlainCodec):
    """IPC + zstd level 9 — slower encode, better ratio; the planner's
    cost weight decides when the extra CPU is worth it."""

    name = "zstd9"
    _level = 9

    @classmethod
    def _ipc_compression(cls):
        return pa.Codec("zstd", compression_level=cls._level)


class Zstd3Codec(ZstdHiCodec):
    """IPC + zstd level 3 (zstd's own default). Measured on CC text it
    compresses slightly BETTER than level 1 (larger match window) at
    ~4x level-9 throughput — the planner's sweet spot for long text."""

    name = "zstd3"
    _level = 3


class Zstd6Codec(ZstdHiCodec):
    name = "zstd6"
    _level = 6


class Zstd19Codec(ZstdHiCodec):
    """IPC + zstd level 19 — the archival point: ~0.21-0.23 ratio on CC
    text/html (vs 0.27-0.30 at level 3) at ~1.6-1.8 MB/s/core encode.
    Offered as a plan candidate only in size-optimized mode
    (``plan_column(optimize="size")``); decode speed is unaffected."""

    name = "zstd19"
    _level = 19


class Lz4Codec(PlainCodec):
    name = "lz4"
    _compression = "lz4"


class ConstantCodec(Codec):
    """All-null or all-one-value chunks → a single value + length."""

    name = "constant"

    @classmethod
    def can_encode(cls, t: pa.DataType) -> bool:
        return True

    @classmethod
    def is_applicable(cls, arr: pa.Array) -> bool:
        if len(arr) == 0:
            return False
        if arr.null_count == len(arr):
            return True
        if arr.null_count:
            return False
        try:
            return len(pc.unique(arr)) == 1
        except pa.ArrowNotImplementedError:
            return False

    @classmethod
    def encode(cls, arr: pa.Array) -> tuple[bytes, dict]:
        # Guard against stale/external plans marking a non-constant column
        # 'constant' — storing only row 0 would silently decode wrong data.
        # encode_table's exception fallback re-encodes as plain instead.
        if not cls.is_applicable(arr):
            raise ValueError("ConstantCodec: array is not constant")
        n = len(arr)
        if arr.null_count == n:
            return b"", {"n": n, "all_null": True, "type": type_to_b64(arr.type)}
        return ipc_write(arr.slice(0, 1)), {"n": n, "all_null": False}

    @classmethod
    def decode(cls, payload: bytes, meta: dict) -> pa.Array:
        n = meta["n"]
        if meta["all_null"]:
            return pa.nulls(n, type_from_b64(meta["type"]))
        one = ipc_read(payload)
        if n == 1:
            return one
        if n == 0:
            return one.slice(0, 0)
        # gather n copies with one vectorized take — concat of n
        # single-element arrays costs ~0.3 s per 500k rows
        return pc.take(one, pa.array(np.zeros(n, np.int64)))


class BssCodec(Codec):
    """Byte-stream-split + zstd for float32/float64."""

    name = "bss"

    @classmethod
    def can_encode(cls, t: pa.DataType) -> bool:
        return pa.types.is_float32(t) or pa.types.is_float64(t)

    @classmethod
    def encode(cls, arr: pa.Array) -> tuple[bytes, dict]:
        validity = pack_validity(arr)
        filled = arr.fill_null(0.0) if arr.null_count else arr
        vals = filled.to_numpy(zero_copy_only=False)
        width = vals.dtype.itemsize
        planes = vals.view(np.uint8).reshape(-1, width).T.copy()  # width planes of n bytes
        raw = planes.tobytes()
        comp = compress(raw, "zstd")
        payload = pack_sections([validity, comp])
        return payload, {"n": len(arr), "width": width, "raw_len": len(raw),
                         "type": type_to_b64(arr.type)}

    @classmethod
    def decode(cls, payload: bytes, meta: dict) -> pa.Array:
        validity, comp = unpack_sections(payload)
        n, width = meta["n"], meta["width"]
        raw = decompress(comp, meta["raw_len"], "zstd")
        planes = np.frombuffer(raw, np.uint8).reshape(width, n)
        vals = planes.T.copy().view(np.float32 if width == 4 else np.float64).ravel()
        valid = unpack_validity(validity, n)
        mask = None if valid is None else ~valid
        return pa.array(vals, type=type_from_b64(meta["type"]), mask=mask)
