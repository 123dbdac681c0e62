"""Codec registry — the user-extension surface the reference lacks
(SURVEY.md §2.2 "User-extension surface: none").

``encode_array`` / ``decode_array`` are the uniform entry points used by
the chunk writer; ``register`` lets downstream users add codecs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .alp import AlpCodec
from .base import Codec
from .dictionary import DictCodec
from .forbp import DeltaCodec, ForBitPackCodec
from .fsst import FsstCodec, FsstEncoder, fsst_decode, train
from .plain import (
    BssCodec,
    ConstantCodec,
    Lz4Codec,
    PlainCodec,
    Zstd3Codec,
    Zstd6Codec,
    Zstd19Codec,
    ZstdCodec,
    ZstdHiCodec,
)
from .rle import RleCodec

_REGISTRY: dict[str, type[Codec]] = {}


def register(codec: type[Codec]) -> None:
    _REGISTRY[codec.name] = codec


for _c in (PlainCodec, ZstdCodec, ZstdHiCodec, Zstd3Codec, Zstd6Codec,
           Zstd19Codec, Lz4Codec, ConstantCodec,
           BssCodec, AlpCodec, ForBitPackCodec, DeltaCodec, RleCodec,
           DictCodec, FsstCodec):
    register(_c)


def get_codec(name: str) -> type[Codec]:
    return _REGISTRY[name]


def codec_names() -> list[str]:
    return sorted(_REGISTRY)


def encode_array(arr: pa.Array | pa.ChunkedArray, name: str, **kwargs) -> tuple[bytes, dict]:
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    payload, meta = get_codec(name).encode(arr, **kwargs)
    meta["codec"] = name
    return payload, meta


def decode_array(payload: bytes, meta: dict) -> pa.Array:
    return get_codec(meta["codec"]).decode(payload, meta)


def decode_column(payload: bytes, meta: dict) -> pa.Array | pa.ChunkedArray:
    """The whole column for a table — equal to ``decode_array``; a paged
    payload keeps its pages as chunks (no copy into one array)."""
    return get_codec(meta["codec"]).decode_column(payload, meta)


def decode_rows(payload: bytes, meta: dict, rows: np.ndarray) -> pa.Array:
    """Rows ``rows`` (sorted positions) of the chunk — equal to
    ``decode_array(...).take(rows)``; a paged payload decodes only the
    pages holding them."""
    return get_codec(meta["codec"]).decode_rows(payload, meta, rows)


__all__ = [
    "Codec", "register", "get_codec", "codec_names", "encode_array",
    "decode_array", "decode_column", "decode_rows", "FsstEncoder",
    "fsst_decode", "train",
]
