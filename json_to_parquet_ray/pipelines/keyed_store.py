"""Key-partitioned encoded store: rows shuffle-partitioned by a column,
HOT keys salted across sub-partitions, one encoded chunk per partition.

This is the north rule's skew handling applied at the storage layer
(BASELINE.json: "salted groupby/repartition" for heavy-hitter keys):

1. an exact, skew-safe per-key count (``salted_group_count`` combiner)
   finds hot keys,
2. every row gets a partition key ``key`` or ``key#s<salt>`` (salt =
   deterministic hash of ``salt_col`` — retry-stable), so a hot key's
   rows spread over several reducers/chunks instead of one giant group,
3. ``groupby(_pkey)`` co-locates each partition; the group encodes as
   one chunk (rows sorted by ``salt_col`` for byte-deterministic
   retries) committed by ``EncodePartition.commit`` with a record whose
   fragment carries the key value.

Each encode writes a standard encoded store, ``out_dir/gen-N``, and
commits it by writing the pointer ``out_dir/_keyed.json`` last. Reads
prune at the manifest: ``keyed_read(out_dir, keys=[...])`` opens ONLY
the requested keys' chunks of the generation the pointer names.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pyarrow as pa

from ..encode import read_chunk_file
from ..manifest import (
    consolidate,
    effective_records,
    manifest_dir,
    write_atomic,
)
from .encode_job import PKEY_PATH, EncodePartition

_SALT_MUL = np.uint64(0x9E3779B97F4A7C15)


def _pointer(out_dir: str) -> str:
    return os.path.join(out_dir, "_keyed.json")


def live_generation(out_dir: str) -> str:
    """The committed generation's store directory, as the pointer names
    it. A directory without a pointer is not a keyed store."""
    try:
        with open(_pointer(out_dir)) as f:
            gen = json.load(f)["generation"]
    except FileNotFoundError:
        raise ValueError(f"{out_dir!r} is not a keyed store (no "
                         f"_keyed.json)") from None
    return os.path.join(out_dir, gen)


def keyed_encode(ds, out_dir: str, key_col: str, salt_col: str,
                 hot_threshold: int = 1_000_000, salt_buckets: int = 8) -> dict:
    """Encode ``ds`` into one chunk per (key[, salt]) partition.

    ``salt_col`` must be a numeric id column; it drives both the
    deterministic hot-key salt and the within-chunk row order (so Ray
    task retries produce byte-identical chunks)."""
    import ray

    from ..shuffle import salted_group_count

    import pyarrow.compute as pc

    if "_pkey" in ds.schema().names:
        # append_column would create a DUPLICATE _pkey; the groupby then
        # becomes ambiguous and drop_columns(["_pkey"]) removes BOTH,
        # silently losing the user's column from every chunk
        raise ValueError("input dataset already has a '_pkey' column — "
                         "rename it before keyed_encode")
    if os.path.isdir(manifest_dir(out_dir)):
        raise ValueError(f"{out_dir!r} holds an encoded store (_manifest) "
                         f"— keyed_encode needs a directory of its own")

    # every encode writes a fresh gen-N store and the pointer names it
    # only once the store is complete: partition ids derive from pkeys
    # alone, so writing into the live generation would overwrite its
    # chunks and mix two generations' records; a job killed mid-encode
    # leaves the previous generation live and readable. `gc_job` reclaims
    # the generations the pointer does not name.
    gens = [int(d[4:]) for d in os.listdir(out_dir)
            if d.startswith("gen-") and d[4:].isdigit()] \
        if os.path.isdir(out_dir) else []
    gen = f"gen-{max(gens, default=-1) + 1}"
    gen_dir = os.path.join(out_dir, gen)
    # an empty input commits an empty store, not a missing one
    os.makedirs(manifest_dir(gen_dir))
    commit = EncodePartition(gen_dir).commit

    counts = salted_group_count(ds, key_col)
    # filter to HOT keys distributed: the driver sees at most
    # total_rows/hot_threshold keys, never the full distinct-key census
    # (a url-grained key column would otherwise materialize every
    # distinct value here)
    hot_parts = list(counts.map_batches(
        lambda b: b.filter(pc.greater(b.column("count"), hot_threshold)),
        batch_format="pyarrow").iter_batches(batch_format="pyarrow"))
    # stringify with the SAME Arrow cast add_pkey uses (str(k) renders
    # 5.0/'True'/timestamps differently and would silently disable
    # salting for non-string keys); a hot NULL key becomes "None", the
    # literal its rows partition under
    if hot_parts:
        hot_vals = pa.concat_tables(hot_parts).column("value").combine_chunks()
        hot_arr = pc.fill_null(pc.cast(hot_vals, pa.string()), "None")
        # the SUMMARY (and keyed_read lookups) use Python str() rendering
        # — the same rendering encode_group records in the manifest — so
        # keyed_read(out, keys=summary["hot_keys"]) round-trips for
        # float/bool/timestamp keys too (Arrow renders 5.0 as '5',
        # str() as '5.0')
        hot = sorted(str(v) if v is not None else "None"
                     for v in hot_vals.to_pylist())
    else:
        hot_arr = pa.array([], pa.string())
        hot = []
    # broadcast the Arrow value_set ONCE — tasks fetch it plasma-cached
    # instead of rebuilding a pa.array per batch
    hot_ref = ray.put(hot_arr)

    salt_suffixes = np.array([f"#s{s}" for s in range(salt_buckets)])

    def add_pkey(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # null keys partition as the literal string "None" (matching the
        # pre-round-3 str() behavior and keyed_read's str(k) lookups)
        keys = pc.fill_null(pc.cast(b.column(key_col), pa.string()), "None")
        # injective pkey: "<len>:<key>[#s<salt>]". The length prefix makes
        # a literal key value "en#s3" partition differently from hot key
        # "en"'s salt-3 sub-partition ("5:en#s3" vs "2:en#s3"), so one
        # chunk can never mix rows of two distinct keys.
        base = pc.binary_join_element_wise(
            pc.cast(pc.utf8_length(keys), pa.string()), keys, ":")
        # fill nulls + modular int64 cast at the ARROW level: a null id
        # would otherwise go through float64 NaN -> uint64, which is
        # C-undefined and architecture-dependent — a task retried on a
        # different node could place the row in a different salt
        # sub-chunk, breaking the byte-identical-retry contract
        sv = (pc.fill_null(pc.cast(b.column(salt_col), pa.int64(),
                                   safe=False), 0)
              .to_numpy(zero_copy_only=False).astype(np.uint64, copy=False))
        salt = ((sv * _SALT_MUL) >> np.uint64(32)).astype(np.int64) % salt_buckets
        hot_mask = pc.is_in(keys, value_set=ray.get(hot_ref)).to_numpy(
            zero_copy_only=False)
        suffix = np.where(hot_mask, salt_suffixes[salt], "")
        pkey = pc.binary_join_element_wise(
            base, pa.array(suffix, pa.string()), "")
        return b.append_column("_pkey", pkey)

    keyed = ds.map_batches(add_pkey, batch_format="pyarrow")

    def encode_group(g: pa.Table) -> pa.Table:
        pkey = g.column("_pkey")[0].as_py()
        # recover the key from the DATA, not by parsing pkey (a key value
        # containing the salt separator must not corrupt key recovery)
        key = str(g.column(key_col)[0].as_py())
        body = (g.drop_columns(["_pkey"])
                .sort_by([(salt_col, "ascending")]).combine_chunks())
        pid = hashlib.sha1(pkey.encode()).hexdigest()[:16]
        # the fragment names no input file: each pkey claims a key of its
        # own, and records sort in pkey order
        rec = commit(pid, {"path": PKEY_PATH + pkey, "row_group": 0,
                           "row_start": 0, "num_rows": body.num_rows,
                           "key": key}, body, time.time())
        return pa.table({"num_rows": pa.array([body.num_rows], pa.int64()),
                         "chunk_bytes": pa.array([rec.chunk_size],
                                                 pa.int64())})

    summary = keyed.groupby("_pkey").map_groups(
        encode_group, batch_format="pyarrow").to_pandas()
    # no two records claim one key, so the index comes out sealed: reads
    # of the generation open one parquet file at 10^6+ keys
    consolidate(gen_dir)
    # the commit: one small object names the complete generation
    write_atomic(_pointer(out_dir), json.dumps({"generation": gen}).encode())
    empty = len(summary) == 0  # empty input: zero partitions, no crash
    return {"partitions": len(summary),
            "hot_keys": hot,
            "rows": 0 if empty else int(summary["num_rows"].sum()),
            "chunk_bytes": 0 if empty else int(summary["chunk_bytes"].sum())}


def keyed_read(out_dir: str, keys: list | None = None):
    """Ray Dataset over the live generation; with ``keys`` given, only
    those keys' chunks are OPENED (manifest-level pruning). Returns
    (dataset, io).

    Chunks that fit one block (``_dispatch_blocks``) are decoded at call
    time by one task, in key order, into a finished one-block Dataset
    (``encode_job._one_block``), so consuming it starts no streaming
    executor and a bad chunk raises from this call; a read of no chunk
    is such a Dataset too, made with no task. A larger read stays lazy
    and raises when consumed."""
    import ray
    from ray.data._internal.remote_fn import cached_remote_fn
    from ray.data._internal.util import get_table_block_metadata_schema

    from .encode_job import (
        _dispatch_blocks,
        _item_dataset,
        _items_block,
        _one_block,
        _preserve_order,
    )

    gen_dir = live_generation(out_dir)
    all_recs = effective_records(gen_dir)  # in pkey order
    recs = all_recs
    if keys is not None:
        want = {str(k) for k in keys}
        recs = [r for r in recs if r.fragment["key"] in want]
    io = {"chunks_read": len(recs), "chunks_total": len(all_recs)}

    def decode_item(batch: pa.Table) -> pa.Table:
        return pa.concat_tables(
            [read_chunk_file(p, verify_crc=True)
             for p in batch.column("path").to_pylist()])

    if not recs:
        table = pa.table({})
        if all_recs:
            # no key matched, but the store has a schema: return a TYPED
            # empty dataset (from any chunk's header — a few bytes) so
            # callers can still select/union the store's columns
            from ..encode import _read_header, schema_from_b64

            with open(os.path.join(gen_dir, all_recs[0].chunk_file),
                      "rb") as f:
                hdr, _ = _read_header(f)
            table = schema_from_b64(hdr["schema"]).empty_table()
        return _one_block(ray.put(table),
                          get_table_block_metadata_schema(table)), io
    items = pa.table({"path": [os.path.join(gen_dir, r.chunk_file)
                               for r in recs]})
    work = sum(r.chunk_size for r in recs)
    if _dispatch_blocks(len(recs), work) == 1:
        meta, block = cached_remote_fn(_items_block, num_returns=2).remote(
            decode_item, items)
        return _one_block(block, ray.get(meta)), io
    with _preserve_order():
        return _item_dataset(items.to_pylist(), work).map_batches(
            decode_item, batch_size=1, batch_format="pyarrow"), io
