"""Column-chunk encode/decode and the chunk file format.

One encoded *chunk file* per partition (input parquet row group):

    MAGIC "RDE1" | uint64 header_len | header JSON | concatenated payloads

The header carries the Arrow schema (IPC, base64), row count, and per
column: codec name, codec meta, payload offset/size and CRC32 — enough
to decode any single column without touching the others (column pruning
at the byte level), and enough for the manifest to verify integrity.

Pages: under the IPC-framed codecs (``plain``, ``zstd*``, ``lz4``) a
string/binary column whose raw size exceeds ``codecs.base.PAGE_BYTES``
(1 MiB) is one Arrow IPC stream of several record batches (pages) of
``page_rows`` rows each; codec meta records ``page_rows`` and
``page_offsets`` (byte offset of each page message in the payload).
Every other payload is a single batch with no page keys, byte-identical
to chunks written before pages. Compatibility holds both ways: a reader
without pages decodes a paged payload whole (the IPC stream reader reads
every batch), and this reader decodes an unpaged payload whole.

Late materialization: ``read_chunk_file(..., row_filter=(cols, mask_fn))``
decodes the filter columns, evaluates the exact mask, then decodes only
the pages holding selected rows (unpaged columns decode whole and are
taken); when no row is selected, no other payload is read.

Supersedes the reference's single parquet-mr writer (Writer.java:20-36):
instead of one hardcoded encoder for the whole file, every column chunk
gets the codec chosen by the planner, and decode is bit-identical.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .codecs import decode_array, decode_rows, encode_array
from .plan import CodecPlan, ColumnPlan, plan_from_stats
from .stats import compute_stats_table

MAGIC = b"RDE1"


def schema_to_b64(schema: pa.Schema) -> str:
    return base64.b64encode(schema.serialize().to_pybytes()).decode()


def schema_from_b64(s: str) -> pa.Schema:
    return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(s)))


def encode_table(table: pa.Table, plan: CodecPlan | None = None,
                 bloom_columns: list[str] | None = None) -> tuple[bytes, dict]:
    """Encode all columns of ``table`` → (chunk file bytes, header dict).

    When ``plan`` is None the per-chunk planner runs on this chunk's own
    statistics — per-column-chunk codec selection (BASELINE.json); so is
    a column whose planned codec fails here (``_encode_column``).

    ``bloom_columns`` appends a split-block Bloom filter section per
    listed column (codecs.bloom) after the payloads, recorded in the
    header as ``bloom_offset``/``bloom_size``/``bloom_crc32``/
    ``bloom_algo`` — point lookups then test a few KB per chunk instead
    of decoding it. Ineligible columns (type, all-null, values too long)
    silently get no filter; readers without bloom support ignore the
    extra bytes.
    """
    if plan is None:
        stats = compute_stats_table(table)
        plan = plan_from_stats(stats, table.schema)
    payloads: list[bytes] = []
    columns: list[dict] = []
    offset = 0
    for name in table.column_names:
        arr = table.column(name).combine_chunks()
        try:
            payload, meta = _encode_column(table, name, arr,
                                           plan.codec_for(name))
        except Exception as ex:
            # last resort keeps the job alive and bit-identical, but a
            # SYSTEMATIC failure must not silently degrade columns to plain
            logging.getLogger(__name__).warning(
                "re-planning failed on column %r (%s: %s) — falling back "
                "to plain", name, type(ex).__name__, ex)
            payload, meta = encode_array(arr, "plain")
        columns.append({
            "name": name,
            "codec": meta["codec"],
            "meta": meta,
            "offset": offset,
            "size": len(payload),
            "crc32": zlib.crc32(payload),
        })
        payloads.append(payload)
        offset += len(payload)
    if bloom_columns:
        from .codecs.bloom import BLOOM_ALGO, build_bloom

        by_name = {c["name"]: c for c in columns}
        for name in bloom_columns:
            c = by_name.get(name)
            if c is None:
                continue
            filt = build_bloom(table.column(name))
            if filt is None:
                continue
            c.update(bloom_offset=offset, bloom_size=len(filt),
                     bloom_crc32=zlib.crc32(filt), bloom_algo=BLOOM_ALGO)
            payloads.append(filt)
            offset += len(filt)
    header = {
        "schema": schema_to_b64(table.schema),
        "num_rows": table.num_rows,
        "columns": columns,
    }
    hbuf = json.dumps(header, sort_keys=True).encode()
    blob = MAGIC + len(hbuf).to_bytes(8, "little") + hbuf + b"".join(payloads)
    return blob, header


def _encode_column(table: pa.Table, name: str, arr: pa.Array,
                   cp: ColumnPlan) -> tuple[bytes, dict]:
    """Encode one column under ``cp``. A plan made on other rows can fail
    here (uint64 >= 2^63 under ``forbp``/``delta``/``rle``, a value missing
    from a shared dictionary), so the column is then planned again, in
    balanced mode, from this chunk's own statistics."""
    try:
        return encode_array(arr, cp.codec, **cp.kwargs)
    except Exception as ex:
        logging.getLogger(__name__).warning(
            "codec %r failed on column %r (%s: %s) — re-planning from the "
            "chunk's statistics", cp.codec, name, type(ex).__name__, ex)
    sub = table.select([name])
    cp = plan_from_stats(compute_stats_table(sub), sub.schema).codec_for(name)
    return encode_array(arr, cp.codec, **cp.kwargs)


def read_chunk_header(blob: bytes) -> tuple[dict, int]:
    import io

    # one preamble parser for bytes and files alike — see _read_header
    return _read_header(io.BytesIO(blob))


def _bloom_rejects(f, header: dict, base: int, schema: pa.Schema,
                   eq: dict) -> bool:
    """True iff, for some column, EVERY candidate value is DEFINITELY
    absent per the chunk's Bloom filter (reads only the filter byte
    ranges). ``eq`` maps column → value or list of values (equality /
    IN-list). Filter bytes are ALWAYS CRC-checked: a bit-flipped filter
    that wrongly answered "absent" would silently drop real rows, so a
    corrupt filter instead conservatively never prunes."""
    from .codecs.bloom import BLOOM_ALGO, bloom_might_contain

    by_name = {c["name"]: c for c in header["columns"]}
    for col, v in eq.items():
        vals = v if isinstance(v, list) else [v]
        c = by_name.get(col)
        if (not c or "bloom_offset" not in c
                or c.get("bloom_algo") != BLOOM_ALGO):
            continue
        f.seek(base + c["bloom_offset"])
        filt = f.read(c["bloom_size"])
        if zlib.crc32(filt) != c.get("bloom_crc32"):
            import logging

            logging.getLogger(__name__).warning(
                "corrupt bloom filter for column %r — not pruning", col)
            continue
        typ = schema.field(col).type
        if not any(bloom_might_contain(filt, x, typ) for x in vals):
            return True
    return False


def _read_header(f) -> tuple[dict, int]:
    """Parse MAGIC + header length + header JSON from an open file
    positioned at 0; returns (header, payload base offset). The single
    shared implementation for every file-based reader — a format change
    happens here once."""
    head = f.read(12)
    if head[:4] != MAGIC:
        raise ValueError("not an RDE1 chunk file")
    hlen = int.from_bytes(head[4:12], "little")
    return json.loads(f.read(hlen)), 12 + hlen


def chunk_bloom_rejects(path: str, eq: dict) -> bool:
    """Standalone probe: does this chunk's Bloom section reject the
    equality predicates? Reads header + filter bytes only (a few KB) —
    the distributed observability hook for bloom-pruned scans."""
    with open(path, "rb") as f:
        header, base = _read_header(f)
        return _bloom_rejects(f, header, base,
                              schema_from_b64(header["schema"]), eq)


def read_chunk_file(path: str, columns: list[str] | None = None,
                    verify_crc: bool = False,
                    missing_ok: bool = False,
                    eq_prune: dict | None = None,
                    row_filter: tuple | None = None) -> pa.Table:
    """Decode a chunk file from disk; with ``columns`` given, only the
    header and the selected columns' byte ranges are read (seek-based) —
    column pruning at the I/O level, not just the decode level.
    ``missing_ok`` skips requested columns absent from the chunk (old
    chunks under read-time schema evolution) instead of raising.
    ``eq_prune`` {col: value} consults the chunk's Bloom filters first:
    when some value is definitely absent, the selected columns come back
    as 0-row arrays WITHOUT reading or decoding any payload — the exact
    result an equality row-filter would produce, at header+filter I/O
    cost.

    ``row_filter`` (filter_columns, mask_fn) keeps only the rows where
    ``mask_fn`` is true, with late materialization: the filter columns
    present in the chunk decode first (absent ones are left out of the
    table ``mask_fn`` gets), then each other column decodes only the
    pages holding selected rows (``codecs.decode_rows``). When no row
    is selected, no other payload is read. The result equals a full
    decode filtered by the mask."""
    with open(path, "rb") as f:
        if columns is None and not eq_prune and row_filter is None:
            # full decode: one sequential read beats per-column seeks
            return decode_table(f.read(), verify_crc=verify_crc)
        header, base = _read_header(f)
        schema = schema_from_b64(header["schema"])
        rejected = bool(eq_prune) and _bloom_rejects(
            f, header, base, schema, eq_prune)
        if columns is None and not rejected and row_filter is None:
            # surviving full-projection decode: fall back to the single
            # sequential read, reusing the already-parsed header
            f.seek(0)
            return decode_table(f.read(), verify_crc=verify_crc,
                                header_base=(header, base))
        by_name = {c["name"]: c for c in header["columns"]}
        want = (list(columns) if columns is not None
                else [c["name"] for c in header["columns"]])
        absent = [name for name in want if name not in by_name]
        if absent and not missing_ok:
            raise KeyError(f"column(s) {absent} absent from chunk "
                           f"{os.path.basename(path)}")
        want = [name for name in want if name in by_name]

        def decode(name: str, rows: np.ndarray | None = None) -> pa.Array:
            col = by_name[name]
            f.seek(base + col["offset"])
            payload = f.read(col["size"])
            if verify_crc and zlib.crc32(payload) != col["crc32"]:
                raise IOError(f"CRC mismatch for column {name}")
            if rows is None:
                return decode_array(payload, col["meta"])
            return decode_rows(payload, col["meta"], rows)

        num_rows = header.get("num_rows", 0)
        rows = None  # positions of the selected rows; None = every row
        decoded: dict[str, pa.Array] = {}
        if rejected:
            rows = np.empty(0, np.int64)
        elif row_filter is not None:
            filter_columns, mask_fn = row_filter
            decoded = {c: decode(c) for c in filter_columns if c in by_name}
            mask = mask_fn(pa.table(decoded) if decoded
                           else _rows_only(num_rows))
            if isinstance(mask, pa.ChunkedArray):
                mask = mask.combine_chunks()
            # a null mask slot (null compared) selects nothing
            rows = np.flatnonzero(pc.fill_null(mask, False).to_numpy(
                zero_copy_only=False))
            if len(rows) == num_rows:
                rows = None
            else:
                decoded = {c: a.take(rows) for c, a in decoded.items()}
        arrays = []
        for name in want:
            if name in decoded:
                arrays.append(decoded[name])
            elif rows is None:
                arrays.append(decode(name))
            elif len(rows) == 0:
                arrays.append(pa.array([], schema.field(name).type))
            else:
                arrays.append(decode(name, rows))
        if not arrays:
            return _rows_only(num_rows if rows is None else len(rows))
        return pa.Table.from_arrays(
            arrays, schema=pa.schema([schema.field(n) for n in want]))


def _rows_only(n: int) -> pa.Table:
    """0-column table that still CARRIES its row count — an empty (or
    all-missing under schema evolution) projection must not collapse the
    chunk's rows to zero; align_table can then null-fill n rows. ONE
    implementation, shared with schema inference."""
    from .schema_infer import _rows_only_table

    return _rows_only_table(n)


def decode_table(blob: bytes, columns: list[str] | None = None,
                 verify_crc: bool = False,
                 header_base: tuple | None = None) -> pa.Table:
    """Decode a chunk file back to an Arrow table (optionally a column
    subset). ``header_base`` lets a caller that already ran
    read_chunk_header pass (header, base) instead of re-parsing."""
    header, base = (header_base if header_base is not None
                    else read_chunk_header(blob))
    schema = schema_from_b64(header["schema"])
    # columns=[] is an explicit empty projection (0 columns), NOT "all" —
    # a falsy check would silently decode the full chunk
    want = (list(columns) if columns is not None
            else [c["name"] for c in header["columns"]])
    by_name = {c["name"]: c for c in header["columns"]}
    arrays, fields = [], []
    for name in want:
        col = by_name[name]
        payload = blob[base + col["offset"] : base + col["offset"] + col["size"]]
        if verify_crc and zlib.crc32(payload) != col["crc32"]:
            raise IOError(f"CRC mismatch for column {col['name']}")
        arrays.append(decode_array(payload, col["meta"]))
        fields.append(schema.field(name))
    if not arrays:
        return _rows_only(header.get("num_rows", 0))
    return pa.Table.from_arrays(arrays, schema=pa.schema(fields))
