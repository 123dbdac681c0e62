"""Dictionary encoding: first-occurrence-ordered dictionary + packed codes.

``pyarrow``'s ``dictionary_encode`` yields a deterministic
first-occurrence dictionary (required for bit-identical retries,
SURVEY.md §7.5). Codes are frame-of-reference bit-packed; dictionary
values go through a child codec (``plain`` default; the planner picks
``fsst`` for long-ish string dictionaries so medium-cardinality text
columns get both wins).

This is the expected winner for host-heavy ``url`` partitions and for
``lang`` (BASELINE.json north_star).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .base import (
    Codec,
    bit_width,
    pack_bits,
    pack_sections,
    pack_validity,
    type_from_b64,
    type_to_b64,
    unpack_bits,
    unpack_sections,
    unpack_validity,
)


class DictCodec(Codec):
    name = "dict"

    @classmethod
    def can_encode(cls, t: pa.DataType) -> bool:
        try:
            pa.array([], type=t).dictionary_encode()
            return True
        except (pa.ArrowNotImplementedError, pa.ArrowInvalid):
            return False

    @classmethod
    def encode(cls, arr: pa.Array, values_codec: str = "plain",
               dictionary: pa.Array | None = None) -> tuple[bytes, dict]:
        from . import get_codec

        if dictionary is not None and dictionary.null_count:
            # A null inside a shared dictionary would let one missing value
            # plus one genuine null cancel out in the null-count comparison
            # below and decode the missing value as null. Reject outright —
            # in-repo dictionary builders strip nulls before sharing.
            raise ValueError("shared dictionary must not contain nulls")
        if dictionary is not None:
            # Shared (e.g. partition-global) dictionary: map values to codes.
            idx = pc.index_in(arr, value_set=dictionary)
            if idx.null_count != arr.null_count:
                # a value is missing from the shared dictionary → fall back
                # to a chunk-local dictionary rather than corrupt
                dictionary = None
            else:
                indices = idx.cast(pa.int64())
                dict_values = dictionary
        if dictionary is None:
            d = arr.dictionary_encode()
            indices = d.indices.cast(pa.int64())
            dict_values = d.dictionary

        validity = pack_validity(indices)
        filled = indices.fill_null(0) if indices.null_count else indices
        codes = filled.to_numpy(zero_copy_only=False).astype(np.uint64)
        width = bit_width(int(codes.max())) if len(codes) else 0
        vals_payload, vals_meta = get_codec(values_codec).encode(dict_values)
        payload = pack_sections([validity, pack_bits(codes, width), vals_payload])
        meta = {
            "n": len(arr),
            "width": width,
            "cardinality": len(dict_values),
            "values_codec": values_codec,
            "values_meta": vals_meta,
            # the COLUMN's type, not the dictionary's: a shared string
            # dictionary is pa.string() (encode_job._shared_dictionaries),
            # so a large_string column would otherwise decode as string
            "type": type_to_b64(arr.type),
        }
        return payload, meta

    @classmethod
    def decode(cls, payload: bytes, meta: dict) -> pa.Array:
        from . import get_codec

        validity, packed, vals_payload = unpack_sections(payload)
        n, width = meta["n"], meta["width"]
        codes = unpack_bits(packed, n, width).astype(np.int64)
        valid = unpack_validity(validity, n)
        mask = None if valid is None else ~valid
        indices = pa.array(codes, type=pa.int64(), mask=mask)
        dict_values = get_codec(meta["values_codec"]).decode(vals_payload, meta["values_meta"])
        out = pc.take(dict_values, indices)
        # pre-round-4 metas lack "type": keep their historical behavior
        # (the dictionary's own type)
        want = meta.get("type")
        if want is not None:
            t = type_from_b64(want)
            if out.type != t:
                out = out.cast(t)
        return out
