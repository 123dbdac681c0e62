"""Sequence packing (concat-and-chunk): assign every document to a
fixed-token-budget training bin, deterministically, at any scale.

The rule is the standard concat-and-chunk: lay all documents out in one
deterministic pseudo-random order (md5-low64 of the key — the repo's
established DuckDB-parity hash, see dedup._md5_low64), then cut the
concatenated token stream into ``budget``-token bins:

    seq_id(doc) = tokens_before(doc) // budget

``tokens_before`` is a GLOBAL exclusive prefix sum — the interesting
distributed part. Shape:

1. one ``map_batches`` pass computes (key, n_tokens, order_hash): token
   counts are vectorized, but the md5 order hash runs per row in
   Python (``_order_hash``) for DuckDB parity;
2. one ``Dataset.sort`` on (order_hash, key) — the only shuffle;
3. per-block summaries (first row's sort key + token sum — two ints per
   block) come to the driver, which computes per-block offsets: driver
   state is O(#blocks), never O(rows);
4. a second whole-block ``map_batches`` over the SAME materialized sort
   adds block offset + within-block cumsum and emits bin ids.

Docs longer than ``budget`` simply span bins (their id is where they
START), exactly like the SQL window-function replica the oracle runs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _order_hash(keys: pa.Array) -> np.ndarray:
    """md5-low64 of the key's string form — matches DuckDB
    ``md5_number_lower(CAST(k AS VARCHAR))`` (UBIGINT) bit-for-bit.
    Delegates to the repo's ONE definition of that parity hash."""
    from .dedup import _md5_low64

    return np.array([_md5_low64(str(k).encode()) for k in keys.to_pylist()],
                    np.uint64)


def pack_sequences(ds, budget: int = 2048, key: str = "doc_id",
                   text_col: str = "text"):
    """Returns a Dataset of (key, n_tokens, seq_id) — whitespace token
    counts and the doc's bin under deterministic concat-and-chunk."""
    import ray

    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")

    def prep(b: pa.Table) -> pa.Table:
        text = b.column(text_col)
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        tok = pc.count_substring_regex(text.fill_null(""),
                                       r"\S+").cast(pa.int64())
        ok = _order_hash(b.column(key))
        return pa.table({key: b.column(key), "n_tokens": tok,
                         "okey": pa.array(ok, pa.uint64())})

    srt = (ds.map_batches(prep, batch_format="pyarrow")
             .sort(["okey", key]).materialize())

    # one batch == one block (batch_size=None), and rows inside a sorted
    # block are sorted, so (okey[0], key[0]) identifies the block and
    # orders blocks globally — key0 keeps the column's own type (string
    # keys work; nothing casts to int64)
    def summarize(b: pa.Table) -> pa.Table:
        n = min(b.num_rows, 1)
        return pa.table({
            "okey0": b.column("okey").slice(0, n),
            "key0": b.column(key).slice(0, n),
            "tok_sum": pa.array(
                [pc.sum(b.column("n_tokens")).as_py() or 0][:n], pa.int64()),
        })

    rows = (srt.map_batches(summarize, batch_size=None,
                            batch_format="pyarrow").take_all())
    rows.sort(key=lambda r: (r["okey0"], r["key0"]))
    offsets: dict[tuple, int] = {}
    acc = 0
    for r in rows:
        bk = (int(r["okey0"]), r["key0"])
        if bk in offsets:
            # two blocks starting with the same (hash, key) means
            # duplicate keys straddle a block boundary — the offset
            # lookup would be ambiguous; fail loudly rather than bin
            # a whole block wrong
            raise ValueError(
                f"pack_sequences: duplicate key {r['key0']!r} at a block "
                "boundary — keys must be unique (dedup first)")
        offsets[bk] = acc
        acc += int(r["tok_sum"])
    off_ref = ray.put(offsets)

    def assign(b: pa.Table, _off_cache={}) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({key: b.column(key),
                             "n_tokens": b.column("n_tokens"),
                             "seq_id": pa.array([], pa.int64())})
        off = _off_cache.get("o")
        if off is None:
            off = _off_cache["o"] = ray.get(off_ref)
        base = off[(int(b.column("okey")[0].as_py()),
                    b.column(key)[0].as_py())]
        tok = b.column("n_tokens").to_numpy(zero_copy_only=False)
        before = base + np.cumsum(tok) - tok
        return pa.table({key: b.column(key), "n_tokens": b.column("n_tokens"),
                         "seq_id": pa.array(before // budget, pa.int64())})

    # the assign closure holds off_ref, which pins the broadcast object
    # through Ray's reference counting until the (lazy) result is consumed
    return srt.map_batches(assign, batch_size=None, batch_format="pyarrow")
