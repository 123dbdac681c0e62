"""Driver-contract queries: one entry per implemented operator/pipeline
(SURVEY.md §2), each with a DuckDB oracle where SQL can express it.

Every callable takes ``sf_dir`` and returns a Dataset / DataFrame /
pyarrow Table. Column names match the oracle SQL aliases exactly (the
driver hash-compares values after sorting columns by name).

Ray is initialised by the driver — nothing here calls ``ray.init``.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .encode import decode_table, encode_table
from .pipelines import ann, dedup, multimodal, text
from .schema_infer import infer_json_schema
from . import shuffle
from .shuffle import heavy_hitters, salted_group_count
from .stats import compute_stats


def _read(sf_dir: str, table: str, columns=None, filter=None):
    import pyarrow.parquet as pq
    import ray

    path = os.path.join(sf_dir, f"{table}.parquet")
    # strip the pandas footer metadata: schemas carrying a metadata dict are
    # unhashable, which defeats Ray's schema-dedup fast path and spams
    # "Failed to hash the schemas" warnings on every block unification
    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    # `filter` is a pyarrow.dataset expression pushed into the scan —
    # row-group/page-level pruning at the read, not a post-read filter
    return ray.data.read_parquet(path, columns=columns, schema=schema,
                                 filter=filter)



def _tmp_dir(tag: str, sf_dir: str) -> str:
    """Per-(tag, sf_dir, pid) scratch path. The pid suffix keeps two
    concurrent harnesses (bench + oracle check on the same sf_dir) from
    rmtree-ing each other's store mid-read; stale siblings from dead
    processes are swept opportunistically so /tmp doesn't accumulate
    orphans (Python's salted hash() would never even match a previous
    run's name)."""
    import glob
    import hashlib
    import shutil
    import tempfile
    import time as _time

    h = hashlib.sha1(os.path.abspath(sf_dir).encode()).hexdigest()[:8]
    base = os.path.join(tempfile.gettempdir(), f"jtpr_{tag}_{h}")
    for old in glob.glob(base + "_p*"):
        try:
            # only sweep stale dirs whose OWNING PROCESS is dead — a
            # harness running >2h must not have its live store deleted
            # by a concurrently started process (dir mtime does not
            # refresh on reads, so age alone is not liveness)
            pid = int(old.rsplit("_p", 1)[1])
            if _time.time() - os.path.getmtime(old) > 7200:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    shutil.rmtree(old, ignore_errors=True)
                except PermissionError:
                    pass  # pid alive under another uid — leave it
        except (OSError, ValueError):
            pass
    return f"{base}_p{os.getpid()}"


# ------------------------------------------------------------ codec roundtrips


def _roundtrip_ds(sf_dir: str, table: str):
    """Distributed per-batch encode→decode: proves bit-identical codecs on
    real tables; the oracle is simply SELECT * FROM table."""
    ds = _read(sf_dir, table)

    def rt(batch: pa.Table) -> pa.Table:
        blob, _ = encode_table(batch)
        return decode_table(blob, verify_crc=True)

    return ds.map_batches(rt, batch_format="pyarrow")


def q_roundtrip_documents(sf_dir: str):
    return _roundtrip_ds(sf_dir, "documents")


def q_roundtrip_events(sf_dir: str):
    return _roundtrip_ds(sf_dir, "events")


def q_roundtrip_lineitem(sf_dir: str):
    return _roundtrip_ds(sf_dir, "lineitem")


def q_roundtrip_embeddings(sf_dir: str):
    return _roundtrip_ds(sf_dir, "embeddings")


def q_roundtrip_orders(sf_dir: str):
    return _roundtrip_ds(sf_dir, "orders")  # timestamp + mixed-type coverage


def q_roundtrip_part(sf_dir: str):
    return _roundtrip_ds(sf_dir, "part")  # int32 + double + string coverage


def q_roundtrip_documents_pruned(sf_dir: str):
    """Encode the full table, decode ONLY two columns via seek-based
    byte-range reads — proves I/O-level column pruning is lossless."""
    import tempfile

    from .encode import read_chunk_file
    from .manifest import write_atomic

    ds = _read(sf_dir, "documents")

    def rt(batch: pa.Table) -> pa.Table:
        blob, _ = encode_table(batch)
        with tempfile.NamedTemporaryFile(suffix=".rde", delete=False) as f:
            path = f.name
        write_atomic(path, blob)
        try:
            return read_chunk_file(path, columns=["doc_id", "lang"],
                                   verify_crc=True)
        finally:
            os.unlink(path)

    return ds.map_batches(rt, batch_format="pyarrow")


# ------------------------------------------------------------------ statistics


def q_stats_documents(sf_dir: str):
    stats = compute_stats(_read(sf_dir, "documents"))
    return pa.table({
        "n_rows": pa.array([stats["doc_id"].n], pa.int64()),
        "lang_card": pa.array([int(round(stats["lang"].cardinality))], pa.int64()),
        "source_card": pa.array([int(round(stats["source"].cardinality))], pa.int64()),
        "min_n_chars": pa.array([stats["n_chars"].min_val], pa.int64()),
        "max_n_chars": pa.array([stats["n_chars"].max_val], pa.int64()),
    })


# codec → family, the SCALE-INVARIANT part of a plan: which family wins
# per column is a property of the column's shape (sequential ints, low-card
# strings, long text), while the concrete pick inside a family (delta vs
# forbp) and the sampled est_ratio legitimately drift with scale — the
# round-3/4 sf0.01-pinned golden failed the sf0.1 robustness sweep for
# exactly that reason.
_CODEC_FAMILY = {
    "delta": "int-light", "forbp": "int-light", "rle": "int-light",
    "constant": "int-light", "alp": "float", "bss": "float",
    "dict": "dict", "fsst": "fsst", "fsst+z": "fsst",
    "zstd": "general", "zstd9": "general", "zstd3": "general",
    "zstd6": "general", "lz4": "general",
    "plain": "plain",
}


def q_codec_plan_documents(sf_dir: str):
    """Codec auto-selection, asserted on scale-invariant properties:
    each column's chosen codec FAMILY (sequential ids → an int codec,
    low-cardinality strings → dict, long text → a general compressor) and
    that every choice beats plain (est_ratio < 1). The exact codec within
    a family and the sampled ratio vary with scale by design and are NOT
    part of the golden."""
    from .plan import plan_from_stats

    ds = _read(sf_dir, "documents")
    stats = compute_stats(ds)
    schema = pa.schema([pa.field(n, ds.schema().base_schema.field(n).type)
                        for n in ds.schema().names])
    plan = plan_from_stats(stats, schema)
    rows = [{"column": c,
             "codec_family": _CODEC_FAMILY.get(p.codec, p.codec),
             "beats_plain": bool(p.est_ratio < 1.0)}
            for c, p in plan.columns.items()]
    return pa.Table.from_pylist(sorted(rows, key=lambda r: r["column"]))


# ---------------------------------------------------------- shuffle/skew ops


def q_source_counts(sf_dir: str):
    """Salted two-level group-count (skew-safe aggregation)."""
    out = salted_group_count(_read(sf_dir, "documents", ["source"]), "source")
    df = out.to_pandas().rename(columns={"value": "source"})
    return df[["source", "count"]]


def q_heavy_sources(sf_dir: str):
    t = heavy_hitters(_read(sf_dir, "documents", ["source"]), "source", k=5)
    df = t.to_pandas().rename(columns={"value": "source"})
    df = df.sort_values(["count", "source"], ascending=[False, True]).reset_index(drop=True)
    return df[["source", "count"]]


def q_distinct_lang(sf_dir: str):
    from .shuffle import distinct_values

    vals = distinct_values(_read(sf_dir, "documents", ["lang"]), ["lang"])
    return pa.table(vals)


# ----------------------------------------------------------------- text ops


def q_token_counts(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(lambda b: text.token_count_batch(b), batch_format="pyarrow")
    return out.select_columns(["doc_id", "ws_tokens"])


def q_quality_scores(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(lambda b: text.quality_score_batch(b), batch_format="pyarrow")
    return out.select_columns(["doc_id", "n_chars", "punct_ratio", "upper_ratio"])


def q_lang_id(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(text.LangId, batch_format="pyarrow", concurrency=(1, 4))
    return out.select_columns(["doc_id", "lang_pred"])


def q_top_words(sf_dir: str):
    """Vocabulary building: explode documents into tokens (vectorized
    regex split), per-batch partial counts (combiner), salted groupby,
    global top-20. The canonical wordcount-at-scale shape."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text"])

    def token_counts(batch: pa.Table) -> pa.Table:
        lowered = pc.utf8_lower(batch.column("text"))
        toks = pc.split_pattern_regex(lowered, "[^a-z0-9_]+")
        flat = toks.combine_chunks().flatten()
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        return pa.table({"word": vc.field("values"),
                         "partial": vc.field("counts").cast(pa.int64())})

    parts = ds.map_batches(token_counts, batch_format="pyarrow")
    agg = parts.groupby("word").aggregate(Sum("partial", alias_name="count"))
    # distributed top-k: only 20 rows ever reach the driver — the full
    # vocabulary (billions of distinct tokens at CC scale) stays in the
    # cluster (same shape as shuffle.heavy_hitters)
    top = agg.sort(["count", "word"], descending=[True, False]).limit(20)
    df = top.to_pandas()
    df["count"] = df["count"].astype("int64")
    return df.reset_index(drop=True)[["word", "count"]]


def q_fingerprints(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(lambda b: text.fingerprint_batch(b), batch_format="pyarrow")
    return out.select_columns(["doc_id", "fp_md5"])


# -------------------------------------------------------------------- dedup


def q_exact_dedup(sf_dir: str):
    kept = dedup.exact_dedup(_read(sf_dir, "documents", ["doc_id", "text"]))
    return kept.select_columns(["doc_id"])


def q_minhash_dedup(sf_dir: str):
    kept, dropped = dedup.minhash_dedup(
        _read(sf_dir, "documents", ["doc_id", "text"]), threshold=0.8)
    return kept.select_columns(["doc_id"])


def q_simhash_pairs(sf_dir: str):
    """Pairs stay a Dataset end to end — only the driver's result
    comparison materializes them (gate scale)."""
    pairs = dedup.simhash_near_dup_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]))
    return _sorted_pairs(pairs, ["a", "b"],
                         {"a": "int64", "b": "int64", "hamming": "int64"})


def _sorted_pairs(pairs, keys: list[str], cols: dict[str, str]):
    """Sort a (possibly empty) pair Dataset for the gate. Ray's sort drops
    the schema of a 0-row dataset (``from_pandas(typed_empty).sort(...)``
    comes back with NO columns), so the empty case short-circuits to a
    typed empty DataFrame; ``materialize()`` holds blocks in the object
    store (bounded by TRUE pairs) so count + sort don't re-execute."""
    pairs = pairs.materialize()
    if pairs.count() == 0:
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})
    return pairs.sort(keys)


def q_jaccard_pairs(sf_dir: str):
    """Verified pairs stay a Dataset end to end — only the driver's
    result comparison materializes them (gate scale)."""
    pairs = dedup.ngram_jaccard_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]), threshold=0.5)
    return _sorted_pairs(pairs, ["a", "b"],
                         {"a": "int64", "b": "int64", "jaccard": "float64"})


def q_embedding_near_dup(sf_dir: str):
    """Embedding-cosine near-dup with deterministically PLANTED near-dups:
    the raw synthetic embeddings contain no pairs above cosine 0.52, so the
    query augments every vec_id % 7 == 0 row with a perturbed copy
    (v + 0.02, id + 100000; planted cosine ≥ 0.987) — the identical
    augmentation is expressed in the SQL oracle, making the LSH + exact
    verify pipeline hard-checked end to end."""
    from .pipelines.ann import embedding_matrix

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def augment(b: pa.Table) -> pa.Table:
        emb = embedding_matrix(b.column("embedding"))
        ids = b.column("vec_id").to_numpy(zero_copy_only=False)
        sel = ids % 7 == 0
        allm = np.vstack([emb, emb[sel] + 0.02])
        allids = np.concatenate([ids, ids[sel] + 100000])
        return pa.table({
            "vec_id": pa.array(allids, pa.int64()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(allm.ravel(), pa.float64()), emb.shape[1]),
        })

    aug = ds.map_batches(augment, batch_format="pyarrow")
    pairs = dedup.embedding_near_dup_pairs(aug, threshold=0.9)
    # pair list stays a Dataset — select/sort distributed, driver only
    # materializes for the gate's result comparison
    return _sorted_pairs(pairs.select_columns(["a", "b"]), ["a", "b"],
                         {"a": "int64", "b": "int64"})


# ---------------------------------------------------------------------- ann


def _first_queries(sf_dir: str, nq: int = 3) -> np.ndarray:
    """The ``nq`` lowest-vec_id vectors, WITHOUT a full-table driver read:
    a ``vec_id < bound`` predicate is pushed down to parquet row-group
    statistics, so only the row groups that can contain the answer are
    read (constant I/O at any table size); the bound widens geometrically
    in the degenerate case of sparse low ids."""
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, "embeddings.parquet")
    total = pq.ParquetFile(path).metadata.num_rows
    bound = max(nq, 8)
    while True:
        t = pq.read_table(path, columns=["vec_id", "embedding"],
                          filters=[("vec_id", "<", bound)])
        if t.num_rows >= min(nq, total) or t.num_rows >= total:
            break
        bound *= 16
    df = t.to_pandas().sort_values("vec_id").head(nq)
    return np.asarray(df["embedding"].tolist(), np.float64)


def q_ann_topk(sf_dir: str):
    qs = _first_queries(sf_dir, 3)
    df = ann.brute_force_topk(
        _read(sf_dir, "embeddings", ["vec_id", "embedding"]), qs, k=5)
    out = df[["query_id", "vec_id"]].astype("int64")
    return out.sort_values(["query_id", "vec_id"]).reset_index(drop=True)


def q_ann_ivf_recall(sf_dir: str):
    """Partition-pruned IVF: the index is written with one parquet
    partition per bucket; the probe opens ONLY nprobe bucket dirs (checked
    at runtime) and must recover top-5 with recall above a floor.

    The golden asserts SCALE-INVARIANT properties — per-query recall ≥ 0.5
    and real pruning — not the exact recall value: with nprobe=3 of 8
    buckets the probe misses true neighbors whose home bucket isn't
    probed at a rate that depends on the data's cluster structure, so the
    exact recall legitimately drifts with scale (1.0 at sf0.01, 0.6-1.0
    at sf0.1; the round-3/4 sf0.01-pinned golden failed the sf0.1
    robustness sweep for exactly that reason)."""
    import shutil

    qs = _first_queries(sf_dir, 3)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    exact = ann.brute_force_topk(ds, qs, k=5)
    idx = _tmp_dir("ivf", sf_dir)
    shutil.rmtree(idx, ignore_errors=True)
    ann.ivf_build(_read(sf_dir, "embeddings", ["vec_id", "embedding"]), idx,
                  n_clusters=8)
    approx, io = ann.ivf_probe_topk(idx, qs, k=5, nprobe=3)
    pruned = bool(io["buckets_read"] < io["buckets_total"])
    assert pruned, io  # pruning is real — loud, not just a golden column
    qids = sorted(exact["query_id"].unique())
    recalls = []
    for qi in qids:
        e = set(exact[exact.query_id == qi]["vec_id"])
        a = set(approx[approx.query_id == qi]["vec_id"])
        recalls.append(len(e & a) / len(e))
    return pd.DataFrame({"query_id": qids,
                         "recall_ge_floor": [r >= 0.5 for r in recalls],
                         "pruned": [pruned] * len(qids)})


# -------------------------------------------------------------- json / schema


def q_json_roundtrip_documents(sf_dir: str):
    """documents rows → JSON strings → engine JSON parser+inference →
    Arrow table. Oracle: SELECT * FROM documents (proves parser parity)."""
    from .json_source import parse_documents
    from .schema_infer import align_table

    ds = _read(sf_dir, "documents")
    schema = pa.schema([
        ("doc_id", pa.int64()), ("text", pa.string()), ("lang", pa.string()),
        ("source", pa.string()), ("n_chars", pa.int64()),
    ])

    def via_json(batch: pa.Table) -> pa.Table:
        docs = [json.dumps(r) for r in batch.to_pylist()]
        parsed = parse_documents(docs)
        t = pa.Table.from_pylist(parsed)
        return align_table(t, schema)

    return ds.map_batches(via_json, batch_format="pyarrow")


def q_schema_infer_conformance(sf_dir: str):
    corpus = [
        '{"a":1,"b":2.5,"c":"s","d":true}',
        '{"xs":[{"v":1},{"v":2.5}]}',
        '{"a":[[1,2],[3]]}',
        '{"a":null,"b":1}',
        '{"o":{"p":{"q":"deep"}}}',              # nested groups (R-group)
        '{"m":[{"k":1},{"j":"s"}]}',             # key union across peers (N1)
        '{"s":"he said \\"hi\\" {brace}"}',      # escapes + brace-in-string (Q6)
    ]
    rows = []
    for doc in corpus:
        s = infer_json_schema([doc], mode="conformance")
        rows.append({"doc": doc, "schema": str(s).replace("\n", "; ")})
    return pa.Table.from_pylist(rows)


# ------------------------------------------------------- classic aggregation


def q_lineitem_agg(sf_dir: str):
    """Pre-aggregated wide groupby (partial sums per batch → tiny groupby)."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"])

    def partial(batch: pa.Table) -> pa.Table:
        # pure-Arrow combiner — no pandas conversion in the hot path
        g = batch.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("l_extendedprice", "sum"),
             ([], "count_all")])  # count_all == COUNT(*) (rows, not non-null)
        return pa.table({
            "l_returnflag": g.column("l_returnflag"),
            "l_linestatus": g.column("l_linestatus"),
            "sum_qty": g.column("l_quantity_sum"),
            "sum_price": g.column("l_extendedprice_sum"),
            "n": g.column("count_all").cast(pa.int64()),
        })

    from ray.data.aggregate import Sum

    parts = ds.map_batches(partial, batch_format="pyarrow")
    out = parts.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_price", alias_name="sum_price"),
        Sum("n", alias_name="count_rows"),
    )
    df = out.to_pandas().sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)
    df["count_rows"] = df["count_rows"].astype("int64")
    # float sums are rounded in BOTH the Ray result and the oracle SQL so
    # the value-hash is insensitive to summation order
    df["sum_qty"] = df["sum_qty"].round(2)
    df["sum_price"] = df["sum_price"].round(2)
    return df


def q_events_by_type(sf_dir: str):
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("event_type").aggregate(
            [("value", "sum"), ([], "count_all")])
        return pa.table({
            "event_type": g.column("event_type"),
            "sum_value": g.column("value_sum"),
            "n": g.column("count_all").cast(pa.int64()),
        })

    from ray.data.aggregate import Sum

    parts = ds.map_batches(partial, batch_format="pyarrow")
    out = parts.groupby("event_type").aggregate(
        Sum("sum_value", alias_name="sum_value"),
        Sum("n", alias_name="count_rows"))
    df = out.to_pandas().sort_values("event_type").reset_index(drop=True)
    df["count_rows"] = df["count_rows"].astype("int64")
    df["sum_value"] = df["sum_value"].round(2)
    return df


def q_grouped_topk(sf_dir: str):
    """Top-2 documents per source by n_chars (grouped top-k / window fn)."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def top2(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["n_chars", "doc_id"],
                             ascending=[False, True]).head(2)

    out = ds.groupby("source").map_groups(top2, batch_format="pandas")
    df = out.to_pandas().sort_values(["source", "doc_id"]).reset_index(drop=True)
    return df[["source", "doc_id", "n_chars"]]


def q_asof_latest_order(sf_dir: str):
    """As-of join: for each event, the latest order of the same customer
    with o_orderdate <= ts. LARGE-LARGE shape: both sides co-partition by
    hash(customer) and a per-bucket sorted ``pd.merge_asof`` runs inside
    ``groupby(bucket).map_groups`` — one all-to-all exchange, neither
    side materialized on the driver (``shuffle.asof_join``)."""
    from .shuffle import asof_join

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])
    joined = asof_join(events, orders, by="user_id", on="ts",
                       right_by="o_custkey", right_on="o_orderdate",
                       direction="backward")

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        m = b.dropna(subset=["o_orderdate"])
        return (m[["event_id", "o_orderdate"]]
                .rename(columns={"o_orderdate": "order_date"}))

    out = joined.map_batches(finish, batch_format="pandas")
    df = out.to_pandas().sort_values("event_id").reset_index(drop=True)
    return df


def q_sessionize(sf_dir: str):
    """Gap-based session windows per user (streaming-shaped, SURVEY §2.2):
    events hash-partition into key BUCKETS (shuffle.keyed_window — one
    Python callback per bucket, not per user, so 10^8 users stay cheap);
    inside a bucket a vectorized pandas sort + shifted-gap mask counts
    >30-minute session splits per user. Partitioning contract: all events
    of a user land in one bucket."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"])
        # null==null counts as the same user (keyed_window co-locates null
        # keys; SQL GROUP BY keeps one NULL group) — plain .eq() is False
        # for NaN vs NaN and default groupby(dropna=True) would drop them
        prev = g["user_id"].shift()
        same_user = g["user_id"].eq(prev) | (g["user_id"].isna()
                                             & prev.isna())
        gap = (g["ts"].diff().dt.total_seconds() > 1800) & same_user
        cnt = gap.groupby(g["user_id"], sort=False, dropna=False).sum() + 1
        return pd.DataFrame({"user_id": cnt.index.to_numpy(),
                             "session_count": cnt.to_numpy().astype("int64")})

    out = shuffle.keyed_window(ds, "user_id", sessions, num_buckets=32)
    df = out.to_pandas().sort_values("user_id").reset_index(drop=True)
    df["session_count"] = df["session_count"].astype("int64")
    return df


def q_union_distinct_nations(sf_dir: str):
    """Union + distinct across two tables (set ops coverage)."""
    import ray  # noqa: F401

    c = _read(sf_dir, "customer", ["c_nationkey"]).map_batches(
        lambda b: pa.table({"nationkey": b.column("c_nationkey").cast(pa.int32())}),
        batch_format="pyarrow")
    s = _read(sf_dir, "supplier", ["s_nationkey"]).map_batches(
        lambda b: pa.table({"nationkey": b.column("s_nationkey").cast(pa.int32())}),
        batch_format="pyarrow")
    u = c.union(s)
    vals = sorted(u.unique("nationkey"))
    return pa.table({"nationkey": pa.array(vals, pa.int32())})


def q_events_hourly(sf_dir: str):
    """Tumbling 1-hour window counts (streaming-shaped workload)."""
    ds = _read(sf_dir, "events", ["ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        # pure-Arrow combiner: no pandas round-trip in the hot path
        hour = pc.floor_temporal(batch.column("ts"), unit="hour")
        g = pa.table({"hour": hour}).group_by("hour").aggregate(
            [([], "count_all")])
        return pa.table({"hour": g.column("hour"),
                         "n": g.column("count_all").cast(pa.int64())})

    from ray.data.aggregate import Sum

    parts = ds.map_batches(partial, batch_format="pyarrow")
    out = parts.groupby("hour").aggregate(Sum("n", alias_name="count_rows"))
    df = out.to_pandas().sort_values("hour").reset_index(drop=True)
    df["count_rows"] = df["count_rows"].astype("int64")
    return df


# -------------------------------------------------- relational basics


def q_filter_docs_en(sf_dir: str):
    """Predicate pushed into the parquet scan (row-group/page pruning at
    the read — only matching data leaves storage), not a post-read map."""
    import pyarrow.dataset as pads

    return _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"],
                 filter=pads.field("lang") == "en")


def q_top_docs_by_chars(sf_dir: str):
    """Distributed sort + limit (top-k)."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    top = ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(10)
    return top.to_pandas()


def _broadcast_table(ds, cap: int = 10_000_000) -> pa.Table:
    """Materialize the SMALL side of a broadcast join; fails LOUDLY when
    it exceeds the cap — ``take_batch`` alone silently truncates, which
    would turn the truncated keys into null join results and silently
    wrong counts. Past the cap the right tool is ``shuffle.hash_join``."""
    t = ds.take_batch(cap + 1, batch_format="pyarrow")
    if t.num_rows > cap:
        raise ValueError(
            f"broadcast side has more than {cap} rows — use "
            f"shuffle.hash_join (distributed) instead of a broadcast join")
    return t


def q_orders_by_segment(sf_dir: str):
    """Broadcast hash join: small customer side shipped once via ray.put,
    probed per batch — no shuffle of the fact table."""
    import ray

    cust = _broadcast_table(
        _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]))
    cust_ref = ray.put(cust)  # broadcast the small side ONCE as an Arrow table

    def join_batch(batch: pa.Table) -> pa.Table:
        c = ray.get(cust_ref)
        idx = pc.index_in(batch.column("o_custkey"), value_set=c.column("c_custkey"))
        seg = pc.take(c.column("c_mktsegment"), idx)  # vectorized probe
        return pa.table({"c_mktsegment": seg.combine_chunks()})

    joined = _read(sf_dir, "orders", ["o_custkey"]).map_batches(
        join_batch, batch_format="pyarrow")

    from ray.data.aggregate import Count

    out = joined.groupby("c_mktsegment").aggregate(Count(alias_name="order_count"))
    df = out.to_pandas().sort_values("c_mktsegment").reset_index(drop=True)
    df["order_count"] = df["order_count"].astype("int64")
    return df


def q_sample_docs(sf_dir: str):
    """Deterministic 1-in-10 sample (stable under retries, unlike RNG)."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def pick(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % 10 == 0))

    return ds.map_batches(pick, batch_format="pyarrow")


def q_normalize_text(sf_dir: str):
    """Text normalization: lowercase, collapse whitespace runs, trim —
    pure Arrow kernels, exact SQL parity."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def norm(b: pa.Table) -> pa.Table:
        t = pc.utf8_lower(b.column("text"))
        t = pc.replace_substring_regex(t, r"\s+", " ")
        t = pc.utf8_trim_whitespace(t)
        return pa.table({"doc_id": b.column("doc_id"), "norm_text": t})

    return ds.map_batches(norm, batch_format="pyarrow")


def q_semi_anti_customers(sf_dir: str):
    """Semi/anti join: customers with vs without orders. The order-key set
    is collected distinct (distributed) and broadcast; each customer batch
    is masked vectorized — no shuffle of either table."""
    import ray

    okeys = _read(sf_dir, "orders", ["o_custkey"]).unique("o_custkey")
    okeys_ref = ray.put(pa.array(sorted(okeys), pa.int64()))

    def partial(b: pa.Table) -> pa.Table:
        m = pc.is_in(b.column("c_custkey"), value_set=ray.get(okeys_ref))
        n_with = pc.sum(m.cast(pa.int64())).as_py() or 0
        return pa.table({"with_orders": pa.array([n_with], pa.int64()),
                         "without_orders": pa.array([len(b) - n_with], pa.int64())})

    from ray.data.aggregate import Sum

    parts = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        partial, batch_format="pyarrow")
    agg = parts.aggregate(Sum("with_orders", alias_name="with_orders"),
                          Sum("without_orders", alias_name="without_orders"))
    return pa.table({"with_orders": pa.array([int(agg["with_orders"])], pa.int64()),
                     "without_orders": pa.array([int(agg["without_orders"])], pa.int64())})


def q_quantiles_n_chars(sf_dir: str):
    """Exact discrete quantiles via distributed value-counts (combiner →
    tiny groupby) + driver cumsum over the bounded-cardinality histogram.
    Index convention floor((n-1)*q) matches DuckDB quantile_disc."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["n_chars"])

    def vc(b: pa.Table) -> pa.Table:
        # drop nulls BEFORE counting: quantile_disc ignores NULLs, so a
        # null bucket would shift every quantile index (and int(NaN)
        # crashes if a quantile lands on it)
        c = b.column("n_chars").drop_null().value_counts()
        return pa.table({"v": c.field("values"),
                         "n": c.field("counts").cast(pa.int64())})

    hist = (ds.map_batches(vc, batch_format="pyarrow")
            .groupby("v").aggregate(Sum("n", alias_name="n"))).to_pandas()
    hist = hist.sort_values("v").reset_index(drop=True)
    total = int(hist["n"].sum())
    cum = hist["n"].cumsum().to_numpy()
    qs = [0.25, 0.5, 0.75, 0.95]
    out_v = []
    for q in qs:
        idx = int(np.floor((total - 1) * q))
        pos = int(np.searchsorted(cum, idx + 1))
        out_v.append(int(hist["v"].iloc[pos]))
    return pa.table({"q": pa.array(qs, pa.float64()),
                     "value": pa.array(out_v, pa.int64())})


def q_orders_per_nation(sf_dir: str):
    """Two-hop broadcast join: orders → customer → nation, counted per
    nation name. Both small sides are broadcast Arrow tables probed with
    index_in/take — the fact table is never shuffled."""
    import ray

    cust = _broadcast_table(
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]))
    nation = _broadcast_table(
        _read(sf_dir, "nation", ["n_nationkey", "n_name"]))
    c_ref, n_ref = ray.put(cust), ray.put(nation)

    def probe(b: pa.Table) -> pa.Table:
        c, n = ray.get(c_ref), ray.get(n_ref)
        i1 = pc.index_in(b.column("o_custkey"), value_set=c.column("c_custkey"))
        nk = pc.take(c.column("c_nationkey"), i1)
        i2 = pc.index_in(nk, value_set=n.column("n_nationkey"))
        name = pc.take(n.column("n_name"), i2)
        return pa.table({"n_name": name.combine_chunks()})

    from ray.data.aggregate import Count

    joined = _read(sf_dir, "orders", ["o_custkey"]).map_batches(
        probe, batch_format="pyarrow")
    out = joined.groupby("n_name").aggregate(Count(alias_name="order_count"))
    df = out.to_pandas().sort_values("n_name").reset_index(drop=True)
    df["order_count"] = df["order_count"].astype("int64")
    return df


def q_events_sliding_window(sf_dir: str):
    """Sliding 1-hour window advancing by 15 minutes: each event lands in
    4 windows (combiner emits per-batch window partials → tiny groupby).
    Window key = its START time."""
    import datetime as _dt

    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["ts"])

    def partial(batch: pa.Table) -> pa.Table:
        base = pc.floor_temporal(batch.column("ts"), multiple=15, unit="minute")
        tables = []
        for k in range(4):
            w = pc.subtract(base, pa.scalar(_dt.timedelta(minutes=15 * k)))
            tables.append(pa.table({"w": w}))
        t = pa.concat_tables(tables)
        g = t.group_by("w").aggregate([("w", "count")])
        return pa.table({"w": g.column("w"),
                         "n": g.column("w_count").cast(pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    out = parts.groupby("w").aggregate(Sum("n", alias_name="event_count"))
    df = out.to_pandas().sort_values("w").reset_index(drop=True)
    df = df.rename(columns={"w": "window_start"})
    df["event_count"] = df["event_count"].astype("int64")
    return df


def q_events_type_stats(sf_dir: str):
    """Per-type mean/stddev via the moments combiner (sum, sumsq, n per
    batch → tiny groupby merge); rounding keeps the hash insensitive to
    summation order."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(b: pa.Table) -> pa.Table:
        # pure-Arrow moments combiner (sum, sum-of-squares, count)
        v = b.column("value")
        g = pa.table({
            "event_type": b.column("event_type"),
            "v": v, "sq": pc.multiply(v, v),
        }).group_by("event_type").aggregate(
            [("v", "sum"), ("sq", "sum"), ([], "count_all")])
        return pa.table({"event_type": g.column("event_type"),
                         "s": g.column("v_sum"),
                         "sq": g.column("sq_sum"),
                         "n": g.column("count_all").cast(pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    out = parts.groupby("event_type").aggregate(
        Sum("s", alias_name="s"), Sum("sq", alias_name="sq"),
        Sum("n", alias_name="n")).to_pandas()
    out["mean_value"] = (out["s"] / out["n"]).round(4)
    # sample stddev: sqrt((sumsq - n*mean^2) / (n-1)). Clamp the variance
    # at 0 (catastrophic cancellation can drive it epsilon-negative) and
    # return NULL for single-row groups — STDDEV_SAMP semantics, where
    # the raw formula gives 0/0 = NaN and the hash compare would diverge
    var = (out["sq"] - out["s"] ** 2 / out["n"]) / (out["n"] - 1)
    std = np.sqrt(np.maximum(var, 0.0)).round(4)
    out["std_value"] = pd.array(
        np.where(out["n"] > 1, std, np.nan), dtype="Float64")
    out.loc[out["n"] <= 1, "std_value"] = pd.NA
    out = out.sort_values("event_type").reset_index(drop=True)
    return out[["event_type", "mean_value", "std_value"]]


def q_doc_length_histogram(sf_dir: str):
    """Fixed-width histogram of document lengths (100-char buckets) —
    vectorized bucketing + combiner counts."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        bucket = (b.column("n_chars").to_numpy(zero_copy_only=False)
                  // 100).astype(np.int64)
        v, c = np.unique(bucket, return_counts=True)
        return pa.table({"bucket": pa.array(v),
                         "n": pa.array(c.astype(np.int64))})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    out = parts.groupby("bucket").aggregate(Sum("n", alias_name="n_docs"))
    df = out.to_pandas().sort_values("bucket").reset_index(drop=True)
    df["n_docs"] = df["n_docs"].astype("int64")
    return df


def q_top_bigrams(sf_dir: str):
    """Top-20 word bigrams: vectorized token split, per-doc adjacent
    pairing via the flattened token stream (boundary pairs excluded),
    combiner counts → salted-style tiny groupby."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text"])

    def partial(b: pa.Table) -> pa.Table:
        from .pipelines.text import token_stream

        flat, _counts, kept_ends = token_stream(
            pc.utf8_lower(b.column("text").fill_null("")), "[^a-z0-9_]+")
        words = flat.to_pandas().to_numpy()
        if len(words) < 2:
            return pa.table({"bigram": pa.array([], pa.string()),
                             "partial": pa.array([], pa.int64())})
        left, right = words[:-1], words[1:]
        # exclude pairs spanning a document boundary
        boundary = np.zeros(len(words) - 1, bool)
        inner = kept_ends[:-1] if len(kept_ends) else np.zeros(0, np.int64)
        inner = inner[(inner > 0) & (inner < len(words))]
        boundary[inner - 1] = True
        keep = ~boundary
        bg = pd.Series(np.char.add(np.char.add(
            left[keep].astype(str), " "), right[keep].astype(str)))
        vc = bg.value_counts()
        return pa.table({"bigram": pa.array(vc.index.to_numpy(), pa.string()),
                         "partial": pa.array(vc.to_numpy().astype(np.int64))})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    agg = parts.groupby("bigram").aggregate(Sum("partial", alias_name="count"))
    # distributed top-k — the bigram vocabulary never reaches the driver
    top = agg.sort(["count", "bigram"], descending=[True, False]).limit(20)
    df = top.to_pandas()
    df["count"] = df["count"].astype("int64")
    return df.reset_index(drop=True)[["bigram", "count"]]


def q_bpe_tokenize(sf_dir: str):
    """From-scratch distributed BPE (SURVEY §2.2 tokenizer family):
    distributed word census → merge-pair training → actor-pool encode
    emitting exact token ids. Iterative merges are not SQL-expressible
    over an arbitrary corpus, so the hash oracle runs the pipeline on a
    FIXED conformance corpus (scale-invariant, like
    schema_infer_conformance) against a golden computed by an
    INDEPENDENT naive implementation (tools/naive_bpe_reference.py:
    from-scratch pair recount per round + sequential in-order merge
    application, vs the engine's incremental trainer + rank-greedy
    encode). Documents-scale BPE stays covered by bench.py and the
    pytest parity test (test_ops::test_bpe_tokenize_distributed)."""
    import ray

    from .pipelines.bpe import (
        BPE_CONFORMANCE_CORPUS,
        BPE_CONFORMANCE_VOCAB,
        bpe_tokenize,
    )

    items = [{"doc_id": i, "text": t}
             for i, t in enumerate(BPE_CONFORMANCE_CORPUS)]
    # multi-block so the census groupby and actor-pool encode really run
    # distributed, not as a single-block degenerate case
    ds = ray.data.from_items(items).repartition(4)
    out, _merges = bpe_tokenize(ds, vocab_size=BPE_CONFORMANCE_VOCAB,
                                concurrency=2, emit_ids=True)
    df = out.select_columns(
        ["doc_id", "bpe_token_count", "bpe_token_ids"]).to_pandas()
    df["doc_id"] = df["doc_id"].astype("int64")
    df["bpe_token_count"] = df["bpe_token_count"].astype("int64")
    return df.sort_values("doc_id").reset_index(drop=True)


def q_order_lineitem_join(sf_dir: str):
    """Distributed partitioned hash join (both sides 'large' — neither is
    broadcast): orders ⋈ lineitem on orderkey, then quantity totals per
    order priority. One all-to-all exchange; per-bucket C-speed merges."""
    from ray.data.aggregate import Sum

    from .shuffle import hash_join

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    items = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    joined = hash_join(orders, items, on="o_orderkey", right_on="l_orderkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_orderpriority", as_index=False).agg(
            sum_qty=("l_quantity", "sum"), n=("l_quantity", "size"))
        return g

    parts = joined.map_batches(partial, batch_format="pandas")
    out = parts.groupby("o_orderpriority").aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("n", alias_name="n_items"))
    df = out.to_pandas().sort_values("o_orderpriority").reset_index(drop=True)
    df["sum_qty"] = df["sum_qty"].round(2)
    df["n_items"] = df["n_items"].astype("int64")
    return df


def q_keyed_store_en(sf_dir: str):
    """Key-partitioned encoded store: documents shuffle-partitioned by
    lang with hot keys ('en' at this scale) SALTED across sub-chunks;
    reading key='en' opens only that key's chunks (asserted) and matches
    a plain SQL predicate."""
    import shutil
    import tempfile

    from .pipelines import keyed_store

    out = _tmp_dir("ks", sf_dir)
    shutil.rmtree(out, ignore_errors=True)
    ds = _read(sf_dir, "documents")
    s = keyed_store.keyed_encode(ds, out, key_col="lang", salt_col="doc_id",
                                 hot_threshold=100, salt_buckets=4)
    assert "en" in s["hot_keys"], s  # 'en' dominates → must be salted
    sub, io = keyed_store.keyed_read(out, keys=["en"])
    assert 1 < io["chunks_read"] < io["chunks_total"], io  # salted + pruned
    return sub


def q_redact_emails(sf_dir: str):
    """Email redaction over text with deterministically PLANTED emails
    (the synthetic corpus has none): both sides append
    ' contact: user<doc_id>@example.com' before redacting, so the regex
    replacement is genuinely exercised."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def plant_and_redact(b: pa.Table) -> pa.Table:
        planted = pc.binary_join_element_wise(
            b.column("text").cast(pa.string()),
            pc.binary_join_element_wise(
                pa.array(["contact: user"] * len(b)),
                b.column("doc_id").cast(pa.string()), "@example.com", ""),
            " ")
        t = pa.table({"doc_id": b.column("doc_id"), "text": planted})
        return text.redact_batch(t)

    return ds.map_batches(plant_and_redact, batch_format="pyarrow")


_BOILERPLATE = (
    "subscribe to our newsletter today",
    "all rights reserved worldwide",
    "click here to accept cookies",
    "share this article on social media",
)


def q_paragraph_dedup(sf_dir: str):
    """C4-style boilerplate removal: drop every paragraph whose global
    occurrence count >= 2, rejoin survivors in order. The synthetic
    corpus is single-paragraph with no cross-doc duplicates, so both
    sides PLANT the duplication deterministically (the redact_emails
    pattern): a boilerplate header chosen by doc_id % 4 (each ~n/4
    occurrences → removed) and a per-doc unique footer (kept), around
    the original text."""
    from .pipelines.dedup import paragraph_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def plant(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id")
        boiler = pc.take(pa.array(list(_BOILERPLATE)),
                         pc.bit_wise_and(ids, 3))  # doc_id % 4, ids >= 0
        footer = pc.binary_join_element_wise(
            pa.array(["footer "] * len(b)), ids.cast(pa.string()), "")
        planted = pc.binary_join_element_wise(
            boiler, b.column("text").cast(pa.string()), footer, "\n\n")
        return pa.table({"doc_id": ids, "text": planted})

    return paragraph_dedup(ds.map_batches(plant, batch_format="pyarrow"))


def q_extract_text(sf_dir: str):
    """HTML→text extraction (the input_hint's html→text relationship).
    The testdata documents table has no html column, so both sides WRAP
    text in an identical synthetic page (script + heading with entities
    + comment) and extract — the strip/decode/collapse kernels are
    genuinely exercised and the oracle value-checks full output text."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def plant(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").cast(pa.string())
        n = len(b)
        html = pc.binary_join_element_wise(
            pa.array(['<html><head><script type="text/javascript">var t = '
                      '"<p>";</script></head><body><h1>Doc '] * n),
            ids,
            pa.array([" &amp; more</h1><p>"] * n),
            b.column("text").cast(pa.string()),
            pa.array(["</p><!-- trailer\n--></body></html>"] * n),
            "")
        return pa.table({"doc_id": b.column("doc_id"), "html": html})

    return (ds.map_batches(plant, batch_format="pyarrow")
              .map_batches(text.extract_text_batch, batch_format="pyarrow"))


_EVAL_SPAN = ("alpha bravo charlie delta echo foxtrot golf hotel "
              "india juliet")
_EVAL_TEXTS = [_EVAL_SPAN + " extra trailing context"]


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination: the corpus has no natural eval-set
    overlap, so both sides append the eval span to every 16th doc
    (doc_id % 16 == 5) — those docs then share exactly the span's three
    8-grams with the eval text (its grams crossing into the trailing
    context never appear in a doc) and everything else stays clean."""
    from .pipelines.text import decontaminate

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def plant(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id")
        hit = pc.equal(pc.bit_wise_and(ids, 15), 5)  # doc_id % 16 == 5
        planted = pc.binary_join_element_wise(
            b.column("text").cast(pa.string()),
            pc.if_else(hit, pa.scalar(" " + _EVAL_SPAN), pa.scalar("")), "")
        return pa.table({"doc_id": ids, "text": planted})

    return decontaminate(ds.map_batches(plant, batch_format="pyarrow"),
                         _EVAL_TEXTS, n=8)


def q_canonical_urls(sf_dir: str):
    """URL canonicalization over deterministically PLANTED messy urls
    (the documents table has no url column): mixed-case scheme/host,
    mixed-case userinfo, tracking params interleaved with real ones (one
    of them merely ending in ``fbclid``), fragments on even ids — so
    every rule (lowercase scheme and host, strip fragment/tracking, tidy
    ?&) is exercised and the oracle value-checks the full canonical
    form."""
    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def plant(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").cast(pa.string())
        frag = pc.if_else(
            pc.equal(pc.bit_wise_and(b.column("doc_id"), 1), 0),
            pa.scalar("#Section-2"), pa.scalar(""))
        url = pc.binary_join_element_wise(
            pa.array(["HTTPS://Ann:Pw@WWW.Example"] * len(b)), ids,
            ".COM/", b.column("source").cast(pa.string()),
            "/Doc-", ids, "?utm_source=Feed&id=", ids,
            "&fbclid=AbC&myfbclid=Kp&ref=Home", frag, "")
        return pa.table({"doc_id": b.column("doc_id"), "url": url})

    return (ds.map_batches(plant, batch_format="pyarrow")
              .map_batches(text.canonicalize_urls_batch,
                           batch_format="pyarrow"))


def q_stratified_sample(sf_dir: str):
    """Per-lang rebalancing: en down to 25%, fr to 50%, others whole —
    md5 hash family so DuckDB replicates the keep predicate exactly."""
    from .pipelines.mix import stratified_sample

    ds = _read(sf_dir, "documents", ["doc_id", "lang"])
    return stratified_sample(ds, {"en": 0.25, "fr": 0.5},
                             group_col="lang", key_col="doc_id",
                             hash_fn="md5")


def q_pack_sequences(sf_dir: str):
    """Concat-and-chunk sequence packing into 512-token bins; the oracle
    replicates the deterministic order (md5_number_lower) and the global
    prefix sum with one SQL window function."""
    from .pipelines.pack import pack_sequences

    return pack_sequences(_read(sf_dir, "documents", ["doc_id", "text"]),
                          budget=512)


def q_embedding_quantize(sf_dir: str):
    """Symmetric int8 quantization of the embeddings table (the 4x
    memory/storage scale path for vector stores). Codes hash-compare
    bit-exact against the DuckDB DOUBLE replica — the kernel computes
    in float64 precisely so IEEE determinism makes the oracle exact."""
    from .pipelines.ann import quantize_embeddings

    return quantize_embeddings(_read(sf_dir, "embeddings",
                                     ["vec_id", "embedding"]))


def q_corpus_prepare(sf_dir: str):
    """The composite training-corpus pipeline (pipelines/prepare.py) —
    lang filter → length gate → paragraph dedup → exact dedup → token
    count — value-checked END TO END by one chained DuckDB oracle. The
    plant makes every stage do real work: a boilerplate header by
    doc_id % 4 (paragraph-removed), and every 64th doc's body replaced
    by one long duplicated body (long enough to pass the length gate,
    then paragraph-removed as a corpus-wide dup, leaving several
    empty-text docs for the exact-dedup stage to collapse)."""
    from .pipelines.prepare import prepare_corpus

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    dup_body = "duplicate body " * 20

    def plant(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id")
        boiler = pc.take(pa.array(list(_BOILERPLATE)),
                         pc.bit_wise_and(ids, 3))  # doc_id % 4, ids >= 0
        body = pc.if_else(
            pc.equal(pc.bit_wise_and(ids, 63), 0),  # doc_id % 64 == 0
            pa.scalar(dup_body), b.column("text").cast(pa.string()))
        planted = pc.binary_join_element_wise(boiler, body, "\n\n")
        return pa.table({"doc_id": ids, "text": planted,
                         "lang": b.column("lang")})

    return prepare_corpus(ds.map_batches(plant, batch_format="pyarrow"))


def q_repetition_ratio(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(text.repetition_ratio_batch, batch_format="pyarrow")
    return out.select_columns(["doc_id", "rep_ratio"])


def q_lang_source_pivot(sf_dir: str):
    """Pivot: documents counted per source x lang as wide columns —
    conditional-sum combiner per batch, tiny groupby merge."""
    from ray.data.aggregate import Sum

    langs = ["de", "en", "es", "fr", "zh"]
    ds = _read(sf_dir, "documents", ["source", "lang"])

    def partial(b: pa.Table) -> pa.Table:
        # Arrow (source, lang) count over the full batch; the pivot to
        # wide columns runs on the TINY grouped result (|sources|x|langs|
        # rows), not per input row — no per-group Python loop
        g = pa.table({"source": b.column("source"),
                      "lang": b.column("lang")}) \
            .group_by(["source", "lang"]).aggregate([([], "count_all")])
        wide = (g.to_pandas()
                 .pivot_table(index="source", columns="lang",
                              values="count_all", aggfunc="sum",
                              fill_value=0))
        out = {"source": pa.array(wide.index.to_numpy())}
        for l in langs:
            col = (wide[l] if l in wide.columns
                   else pd.Series(0, index=wide.index))
            out[f"n_{l}"] = pa.array(col.to_numpy().astype("int64"),
                                     pa.int64())
        return pa.table(out)

    parts = ds.map_batches(partial, batch_format="pyarrow")
    out = parts.groupby("source").aggregate(
        *[Sum(f"n_{l}", alias_name=f"n_{l}") for l in langs])
    df = out.to_pandas().sort_values("source").reset_index(drop=True)
    for l in langs:
        df[f"n_{l}"] = df[f"n_{l}"].astype("int64")
    return df


def q_user_running_value(sf_dir: str):
    """Per-user running total of event values ordered by time (window
    cumulative sum): hash-partition into key buckets
    (shuffle.keyed_window), then ONE vectorized pandas
    ``groupby(user).cumsum()`` per bucket — per-bucket, not per-key,
    Python granularity. Contract: all events of a user in one bucket."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        # dropna=False: null-key rows still get a real running sum (the
        # SQL window PARTITION BY keeps one NULL partition)
        rv = (g.groupby("user_id", sort=False, dropna=False)["value"]
              .cumsum().round(2))
        return pd.DataFrame({
            "event_id": g["event_id"].astype("int64"),
            "running_value": rv.astype("float64"),
        })

    out = shuffle.keyed_window(ds, "user_id", running, num_buckets=32)
    return out.to_pandas().sort_values("event_id").reset_index(drop=True)


def q_zonemap_pruned_scan(sf_dir: str):
    """Predicate-pruned decode, numeric AND string zones: documents are
    encoded into row-sliced partitions; (1) a doc_id range scan consults
    the manifest zone maps and OPENS only overlapping chunks (asserted at
    runtime); (2) a second store, lang-clustered via a distributed sort,
    is scanned with a STRING equality predicate — the truncated-min/max
    string zones must also skip chunks (asserted). Oracle: UNION ALL of
    the two SQL filters in (segment, doc_id) order."""
    import shutil

    from .pipelines.encode_job import (
        cluster_job,
        decode_dataset,
        encode_job,
        zone_prune,
    )

    src = os.path.join(sf_dir, "documents.parquet")
    out = _tmp_dir("zm", sf_dir)
    shutil.rmtree(out, ignore_errors=True)
    encode_job(src, out, shared_dict_columns=None, max_rows_per_partition=64)
    zf = {"doc_id": (100, 163)}
    kept, skipped = zone_prune(out, zf)
    assert skipped > 0 and len(kept) > 0, (len(kept), skipped)
    seg0 = (decode_dataset(out, zone_filter=zf).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))

    # string-zone path: cluster_job (distributed sort → staged encode),
    # then an equality predicate must prune non-'en' chunks by zone alone
    out_s = _tmp_dir("zmso", sf_dir)
    shutil.rmtree(out_s, ignore_errors=True)
    # cluster_job owns its staging lifecycle (fingerprinted reuse /
    # regeneration) — no caller-side cleanup of the derived _staged path
    cluster_job(src, out_s, by=["lang", "doc_id"],
                shared_dict_columns=None, max_rows_per_partition=64)
    zfs = {"lang": ("en", "en")}
    kept_s, skipped_s = zone_prune(out_s, zfs)
    assert skipped_s > 0 and len(kept_s) > 0, (len(kept_s), skipped_s)
    seg1 = (decode_dataset(out_s, zone_filter=zfs).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))
    assert (seg1["lang"] == "en").all()
    return pd.concat([seg0, seg1], ignore_index=True)


def q_bloom_pruned_lookup(sf_dir: str):
    """Point lookup via per-chunk Bloom filters (codecs.bloom): documents
    gain a synthetic high-cardinality ``url`` (source || '/doc-' || id —
    unsorted, so every chunk's string ZONE spans the value space and
    min/max pruning is useless), are encoded with ``bloom_columns`` and
    batch-fetched with a 3-value IN-list. A distributed probe asserts at
    runtime that
    Bloom sections reject chunks zone maps could not; the decode then
    reads header+filter bytes for pruned chunks instead of their bodies.
    Oracle: the same lookup, with the url derived in SQL."""
    import shutil

    from .pipelines.encode_job import (
        bloom_reject_count,
        decode_dataset,
        effective_records,
        encode_job,
        zone_prune,
    )

    def add_url(b: pa.Table) -> pa.Table:
        # url = source || '/doc-' || doc_id (the last argument of
        # binary_join_element_wise is the separator)
        url = pc.binary_join_element_wise(
            b.column("source").cast(pa.string()),
            pc.cast(b.column("doc_id"), pa.string()), "/doc-")
        return b.append_column("url", url)

    src_dir = _tmp_dir("blsrc", sf_dir)
    out = _tmp_dir("blenc", sf_dir)
    shutil.rmtree(src_dir, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    (_read(sf_dir, "documents", ["doc_id", "source", "lang"])
     .map_batches(add_url, batch_format="pyarrow").write_parquet(src_dir))
    encode_job(src_dir, out, bloom_columns=["url"],
               max_rows_per_partition=64)

    # the target urls (doc_ids 7, 211, 413 — a batch point-fetch),
    # fetched with a pushed-down row filter — never a full-table driver
    # read
    import pyarrow.parquet as pq

    ids = [7, 211, 413]
    tt = pq.ParquetDataset(
        src_dir, filters=[("doc_id", "in", ids)]).read(columns=["url"])
    targets = sorted(tt.column("url").to_pylist())
    assert len(targets) == len(ids), targets

    # runtime contract: zones alone prune nothing (unsorted urls), blooms
    # prune almost everything; the probe reads header+filter bytes only
    # and runs DISTRIBUTED (one task per item batch)
    recs = effective_records(out)
    _, zone_skipped = zone_prune(out, {"url": targets}, recs=recs)
    bloom_skipped = bloom_reject_count(out, recs, {"url": targets})
    assert bloom_skipped > max(1, zone_skipped), (
        f"bloom pruning ineffective: {bloom_skipped} rejected "
        f"(zones: {zone_skipped}) of {len(recs)} chunks")

    df = (decode_dataset(out, columns=["doc_id", "url", "lang"],
                         zone_filter={"url": targets})
          .to_pandas().sort_values("doc_id").reset_index(drop=True))
    df["doc_id"] = df["doc_id"].astype("int64")
    return df


# ---------------------------------------------------------------- multimodal


def q_multimodal_decode(sf_dir: str):
    """Binary-payload decode plumbing (stubbed decode, real schema/actors)."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def to_media(batch: pa.Table) -> pa.Table:
        payload = pc.cast(batch.column("text"), pa.binary())
        return pa.table({"media_id": batch.column("doc_id"),
                         "payload": payload})

    media = ds.map_batches(to_media, batch_format="pyarrow")
    # force_stub: the golden SQL below asserts the deterministic fake, so
    # the query must not flip behavior if an image library appears
    out = media.map_batches(multimodal.DecodeMedia, batch_size=64,
                            batch_format="pyarrow", concurrency=(1, 4),
                            fn_constructor_kwargs={"force_stub": True})
    return out.select_columns(["media_id", "n_bytes", "decode_ok"])


def q_multimodal_features(sf_dir: str):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def to_media(batch: pa.Table) -> pa.Table:
        return pa.table({"media_id": batch.column("doc_id"),
                         "payload": pc.cast(batch.column("text"), pa.binary())})

    media = ds.map_batches(to_media, batch_format="pyarrow")
    out = media.map_batches(multimodal.ExtractFeatures, batch_size=64,
                            batch_format="pyarrow", concurrency=(1, 4))
    # the float32 feature vector is exercised by pytest; the driver compare
    # uses the integer features, which have an exact SQL equivalent
    return out.select_columns(["media_id", "feat_nnz", "feat_argmax"])


# ----------------------------------------------------------------- registry


QUERIES = {
    "roundtrip_documents": q_roundtrip_documents,
    "roundtrip_embeddings": q_roundtrip_embeddings,
    "top_bigrams": q_top_bigrams,
    "bpe_tokenize": q_bpe_tokenize,
    "stats_documents": q_stats_documents,
    "codec_plan_documents": q_codec_plan_documents,
    "source_counts": q_source_counts,
    "heavy_sources": q_heavy_sources,
    "bloom_pruned_lookup": q_bloom_pruned_lookup,
    "token_counts": q_token_counts,
    "quality_scores": q_quality_scores,
    "lang_id": q_lang_id,
    "fingerprints": q_fingerprints,
    "top_words": q_top_words,
    "exact_dedup": q_exact_dedup,
    "minhash_dedup": q_minhash_dedup,
    "simhash_pairs": q_simhash_pairs,
    "jaccard_pairs": q_jaccard_pairs,
    "embedding_near_dup": q_embedding_near_dup,
    "ann_topk": q_ann_topk,
    "ann_ivf_recall": q_ann_ivf_recall,
    "json_roundtrip_documents": q_json_roundtrip_documents,
    "schema_infer_conformance": q_schema_infer_conformance,
    "filter_docs_en": q_filter_docs_en,
    "paragraph_dedup": q_paragraph_dedup,
    "orders_by_segment": q_orders_by_segment,
    "sample_docs": q_sample_docs,
    "lineitem_agg": q_lineitem_agg,
    "events_by_type": q_events_by_type,
    "events_hourly": q_events_hourly,
    "sessionize": q_sessionize,
    "grouped_topk": q_grouped_topk,
    "asof_latest_order": q_asof_latest_order,
    "union_distinct_nations": q_union_distinct_nations,
    "events_type_stats": q_events_type_stats,
    "doc_length_histogram": q_doc_length_histogram,
    "order_lineitem_join": q_order_lineitem_join,
    "keyed_store_en": q_keyed_store_en,
    # registered round 4 when the alp codec landed: the four decimal
    # lineitem columns are the only float encode/decode the driver's
    # correctness gate can see (documents has no floats)
    "roundtrip_lineitem": q_roundtrip_lineitem,
    "repetition_ratio": q_repetition_ratio,
    "lang_source_pivot": q_lang_source_pivot,
    "user_running_value": q_user_running_value,
    "normalize_text": q_normalize_text,
    "semi_anti_customers": q_semi_anti_customers,
    "quantiles_n_chars": q_quantiles_n_chars,
    "orders_per_nation": q_orders_per_nation,
    "events_sliding_window": q_events_sliding_window,
    "zonemap_pruned_scan": q_zonemap_pruned_scan,
    "multimodal_decode": q_multimodal_decode,
    "multimodal_features": q_multimodal_features,
}

# The driver's correctness harness records at most 50 queries per round;
# round 2 registered 54 and the newest operators fell off the report
# despite passing locally. The entries here are REDUNDANT family members
# — encode/decode roundtrip coverage stays inside the cap via
# roundtrip_documents/embeddings/_pruned — so they live here: still
# runnable, still oracled by tools/check_oracles.py, just not registered
# with the driver. Round 4 swapped roundtrip_orders and
# roundtrip_documents_pruned out (pruning coverage remains in the
# registered zonemap_pruned_scan + keyed_store_en) to make room for
# top_bigrams (hard oracle) and bpe_tokenize (rows-only then; round 5
# gave it the golden-table oracle below), the one
# operator family that previously had no CORRECTNESS row.
RETIRED_QUERIES = {
    # distinct_lang retired round 4 for bloom_pruned_lookup: distinct-set
    # coverage remains via union_distinct_nations (same operator family)
    "distinct_lang": q_distinct_lang,
    # redact_emails retired round 4 for roundtrip_lineitem (the alp
    # codec's only driver-visible float coverage); its vectorized
    # regex-rewrite class stays covered by normalize_text
    "redact_emails": q_redact_emails,
    # top_docs_by_chars retired round 5 for paragraph_dedup (boilerplate
    # removal, a first-class LLM-data op with no prior coverage); its
    # sort+limit family stays driver-visible via grouped_topk, top_words
    # and top_bigrams
    "top_docs_by_chars": q_top_docs_by_chars,
    # extract_text lives in the reserve from birth (round 5): the html →
    # text stage is pytest- and check_oracles-covered; the driver's 50
    # slots stay with the ops that have no overlapping family member
    "extract_text": q_extract_text,
    # corpus_prepare also reserve-born (round 5): the composite pipeline
    # whose five stages each already hold a driver slot individually
    "corpus_prepare": q_corpus_prepare,
    # embedding_quantize reserve-born (round 5): the vector family holds
    # three driver slots already (ann_topk/ann_ivf_recall/near_dup)
    "embedding_quantize": q_embedding_quantize,
    # decontaminate reserve-born (round 5): n-gram overlap machinery is
    # driver-visible via jaccard_pairs/top_bigrams
    "decontaminate": q_decontaminate,
    # pack_sequences reserve-born (round 5): its window-function family
    # is driver-visible via user_running_value/events_sliding_window
    "pack_sequences": q_pack_sequences,
    # stratified_sample reserve-born (round 5): its hash-Bernoulli family
    # is driver-visible via sample_docs and pytest-oracled via mix.py
    "stratified_sample": q_stratified_sample,
    # canonical_urls reserve-born (round 5): the regex-rewrite family is
    # driver-visible via normalize_text
    "canonical_urls": q_canonical_urls,
    "roundtrip_events": q_roundtrip_events,
    "roundtrip_part": q_roundtrip_part,
    "roundtrip_orders": q_roundtrip_orders,
    "roundtrip_documents_pruned": q_roundtrip_documents_pruned,
}

ORACLE_SQL = {
    "roundtrip_documents": "SELECT * FROM documents",
    "roundtrip_embeddings": "SELECT * FROM embeddings",
    "top_bigrams": (
        "SELECT bg AS bigram, COUNT(*) AS count FROM ("
        "  SELECT unnest(list_transform(range(1, len(t)),"
        "    i -> t[i] || ' ' || t[i+1])) AS bg FROM ("
        "    SELECT list_filter(regexp_split_to_array(lower(text),"
        "      '[^a-z0-9_]+'), x -> x <> '') AS t FROM documents)"
        ") GROUP BY bg ORDER BY count DESC, bigram ASC LIMIT 20"
    ),
    # bpe_tokenize: golden computed by the INDEPENDENT naive reference
    # (tools/naive_bpe_reference.py — rerun it to regenerate after any
    # deliberate corpus/vocab change). Scale-invariant: the query runs
    # the distributed pipeline on the fixed conformance corpus.
    "bpe_tokenize": (
        "SELECT CAST(doc_id AS BIGINT) AS doc_id, "
        "CAST(bpe_token_count AS BIGINT) AS bpe_token_count, "
        "bpe_token_ids FROM (VALUES "
        "(0, 12, '258,32,99,267,279,267,32,263,261,32,109,267'), "
        "(1, 11, '258,269,111,103,279,267,32,263,261,268,103'), "
        "(2, 31, '100,263,278,32,262,111,112,44,32,264,39,114,101,32,"
        "116,101,262,105,110,103,269,263,278,45,262,111,112,268,103,"
        "105,99'), "
        "(3, 30, '259,119,268,264,114,268,264,262,32,110,101,264,114,"
        "32,110,101,264,262,32,119,105,100,101,114,32,119,105,100,101,"
        "262'), "
        "(4, 24, '49,50,51,52,53,54,55,56,57,48,32,49,50,51,52,53,32,"
        "57,57,57,32,48,48,55'), "
        "(5, 19, '276,44,32,276,46,46,46,32,72,69,76,76,79,63,33,32,"
        "40,276,41'), "
        "(6, 26, '99,97,102,266,32,114,266,115,117,109,266,32,110,97,"
        "195,175,118,101,269,266,106,195,160,32,118,117'), "
        "(7, 18, '274,229,136,134,232,175,141,32,274,32,229,136,134,"
        "232,175,141,32,274'), "
        "(8, 8, '265,32,265,265,32,256,32,265'), "
        "(9, 9, '277,32,277,32,98,260,97,32,277'), "
        "(10, 6, '258,261,261,261,261,261'), "
        "(11, 31, '109,105,120,101,100,32,52,50,32,116,111,107,101,"
        "110,115,58,269,263,278,32,99,111,117,110,116,32,263,32,105,"
        "116,33'), "
        "(12, 0, ''), "
        "(13, 27, '32,108,101,97,100,105,110,103,32,97,110,100,32,109,"
        "117,108,116,105,112,108,101,279,112,97,99,101,115'), "
        "(14, 4, '116,97,105,108')"
        ") AS t(doc_id, bpe_token_count, bpe_token_ids)"
    ),
    "stats_documents": (
        "SELECT COUNT(*) AS n_rows, COUNT(DISTINCT lang) AS lang_card, "
        "COUNT(DISTINCT source) AS source_card, MIN(n_chars) AS min_n_chars, "
        "MAX(n_chars) AS max_n_chars FROM documents"
    ),
    "source_counts": (
        "SELECT source, COUNT(*) AS count FROM documents GROUP BY source"
    ),
    "heavy_sources": (
        "SELECT source, COUNT(*) AS count FROM documents GROUP BY source "
        "ORDER BY count DESC, source ASC LIMIT 5"
    ),
    "bloom_pruned_lookup": (
        "SELECT doc_id, source || '/doc-' || CAST(doc_id AS VARCHAR) AS url,"
        " lang FROM documents"
        " WHERE source || '/doc-' || CAST(doc_id AS VARCHAR) IN"
        "   (SELECT source || '/doc-' || CAST(doc_id AS VARCHAR)"
        "    FROM documents WHERE doc_id IN (7, 211, 413))"
        " ORDER BY doc_id"
    ),
    "token_counts": (
        "SELECT doc_id, CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT)"
        " AS ws_tokens FROM documents"
    ),
    "quality_scores": (
        "SELECT doc_id, CAST(length(text) AS BIGINT) AS n_chars, "
        "CAST(length(regexp_extract_all(text, '[!-/:-@\\[-`{-~]')) AS DOUBLE)"
        " / GREATEST(length(text), 1) AS punct_ratio, "
        "CAST(length(regexp_extract_all(text, '[A-Z]')) AS DOUBLE)"
        " / GREATEST(length(text), 1) AS upper_ratio "
        "FROM documents"
    ),
    "fingerprints": "SELECT doc_id, md5(text) AS fp_md5 FROM documents",
    "top_words": (
        "SELECT w AS word, COUNT(*) AS count FROM ("
        "  SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9_]+')) AS w"
        "  FROM documents"
        ") GROUP BY w ORDER BY count DESC, word ASC LIMIT 20"
    ),
    "exact_dedup": "SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text",
    "json_roundtrip_documents": "SELECT * FROM documents",
    "filter_docs_en": (
        "SELECT doc_id, lang, n_chars FROM documents WHERE lang = 'en'"
    ),
    "paragraph_dedup": (
        "WITH planted AS ("
        "  SELECT doc_id,"
        "         (CASE CAST(doc_id % 4 AS INTEGER)"
        "            WHEN 0 THEN 'subscribe to our newsletter today'"
        "            WHEN 1 THEN 'all rights reserved worldwide'"
        "            WHEN 2 THEN 'click here to accept cookies'"
        "            ELSE 'share this article on social media' END)"
        "         || chr(10) || chr(10) || text"
        "         || chr(10) || chr(10) || 'footer ' || CAST(doc_id AS VARCHAR)"
        "         AS t"
        "  FROM documents),"
        " paras AS ("
        "  SELECT doc_id, unnest(ps) AS p, unnest(range(1, len(ps) + 1)) AS idx"
        "  FROM (SELECT doc_id, string_split(t, chr(10) || chr(10)) AS ps"
        "        FROM planted)),"
        " dup AS (SELECT p FROM paras GROUP BY p HAVING COUNT(*) >= 2)"
        " SELECT p2.doc_id AS doc_id,"
        "        COALESCE(string_agg(CASE WHEN d.p IS NULL THEN p2.p END,"
        "                            chr(10) || chr(10) ORDER BY p2.idx), '')"
        "          AS text,"
        "        CAST(COUNT(d.p) AS BIGINT) AS n_removed"
        " FROM paras p2 LEFT JOIN dup d ON p2.p = d.p"
        " GROUP BY p2.doc_id ORDER BY doc_id"
    ),
    "orders_by_segment": (
        "SELECT c.c_mktsegment, COUNT(*) AS order_count FROM orders o "
        "JOIN customer c ON o.o_custkey = c.c_custkey "
        "GROUP BY c.c_mktsegment ORDER BY c.c_mktsegment"
    ),
    "sample_docs": (
        "SELECT doc_id, lang FROM documents WHERE doc_id % 10 = 0"
    ),
    "lineitem_agg": (
        "SELECT l_returnflag, l_linestatus, ROUND(SUM(l_quantity), 2) AS sum_qty, "
        "ROUND(SUM(l_extendedprice), 2) AS sum_price, COUNT(*) AS count_rows "
        "FROM lineitem GROUP BY l_returnflag, l_linestatus "
        "ORDER BY l_returnflag, l_linestatus"
    ),
    "events_by_type": (
        "SELECT event_type, ROUND(SUM(value), 2) AS sum_value, COUNT(*) AS count_rows "
        "FROM events GROUP BY event_type ORDER BY event_type"
    ),
    "events_hourly": (
        "SELECT date_trunc('hour', ts) AS hour, COUNT(*) AS count_rows "
        "FROM events GROUP BY 1 ORDER BY 1"
    ),
    "grouped_topk": (
        "SELECT source, doc_id, n_chars FROM documents "
        "QUALIFY ROW_NUMBER() OVER (PARTITION BY source "
        "  ORDER BY n_chars DESC, doc_id ASC) <= 2 "
        "ORDER BY source, doc_id"
    ),
    "asof_latest_order": (
        "SELECT e.event_id, o.o_orderdate AS order_date "
        "FROM events e ASOF JOIN orders o "
        "  ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate "
        "ORDER BY e.event_id"
    ),
    "sessionize": (
        "SELECT user_id, CAST(1 + SUM(CASE WHEN gap_s > 1800 THEN 1 ELSE 0 END)"
        " AS BIGINT) AS session_count FROM ("
        "  SELECT user_id, EXTRACT(EPOCH FROM ts - LAG(ts) OVER ("
        "    PARTITION BY user_id ORDER BY ts)) AS gap_s FROM events"
        ") GROUP BY user_id ORDER BY user_id"
    ),
    "union_distinct_nations": (
        "SELECT DISTINCT nationkey FROM ("
        "  SELECT c_nationkey AS nationkey FROM customer"
        "  UNION ALL SELECT s_nationkey FROM supplier"
        ") ORDER BY nationkey"
    ),
    "ann_topk": (
        "WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings "
        "           WHERE vec_id IN (SELECT vec_id FROM embeddings ORDER BY vec_id LIMIT 3)), "
        "qn AS (SELECT qid, ROW_NUMBER() OVER (ORDER BY qid) - 1 AS query_id, qe FROM q), "
        "sims AS (SELECT qn.query_id, e.vec_id, "
        "         list_cosine_similarity(qn.qe, e.embedding) AS sim "
        "         FROM qn CROSS JOIN embeddings e), "
        "ranked AS (SELECT query_id, vec_id, "
        "           ROW_NUMBER() OVER (PARTITION BY query_id "
        "               ORDER BY sim DESC, vec_id ASC) AS rk FROM sims) "
        "SELECT query_id, vec_id FROM ranked WHERE rk <= 5 "
        "ORDER BY query_id, vec_id"
    ),
    # The stub feature extractor is a 64-bin byte histogram over the
    # (ASCII) text payload: feat_nnz = occupied bins, feat_argmax =
    # dominant bin (ties → smallest) — both exactly computable in SQL.
    "multimodal_features": (
        "WITH b AS ("
        "  SELECT doc_id, unnest(list_transform(range(1, length(text)+1),"
        "    j -> ascii(substr(text, j, 1)) % 64)) AS bucket FROM documents), "
        "c AS (SELECT doc_id, bucket, COUNT(*) AS cnt FROM b GROUP BY doc_id, bucket), "
        "nn AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS feat_nnz FROM c GROUP BY doc_id), "
        "am AS (SELECT doc_id, CAST(bucket AS BIGINT) AS feat_argmax FROM c"
        "       QUALIFY ROW_NUMBER() OVER (PARTITION BY doc_id"
        "         ORDER BY cnt DESC, bucket ASC) = 1) "
        "SELECT d.doc_id AS media_id, COALESCE(nn.feat_nnz, 0) AS feat_nnz, "
        "       am.feat_argmax "
        "FROM documents d LEFT JOIN nn ON nn.doc_id = d.doc_id "
        "LEFT JOIN am ON am.doc_id = d.doc_id"
    ),
    # Golden assertion (scale-invariant): with nprobe=3 of 8 IVF buckets
    # every query's top-5 recall clears the 0.5 floor AND the probe read
    # strictly fewer buckets than exist (pruning is real). The exact
    # recall value drifts with scale by design; the exact side is itself
    # oracle-checked via ann_topk. A recall collapse or a pruning
    # regression → hash mismatch at ANY scale.
    "ann_ivf_recall": (
        "SELECT CAST(query_id AS BIGINT) AS query_id, "
        "recall_ge_floor, pruned FROM (VALUES "
        "(0, true, true), (1, true, true), (2, true, true)"
        ") AS t(query_id, recall_ge_floor, pruned)"
    ),
    # Golden plan (scale-invariant): codec auto-selection must put each
    # column in the right codec FAMILY (sequential ids → int codec,
    # low-card strings → dict, long text → general compressor) and every
    # choice must beat plain. The concrete pick inside a family (delta vs
    # forbp for n_chars) and the sampled est_ratio drift with scale by
    # design and are asserted no longer.
    "codec_plan_documents": (
        "SELECT * FROM (VALUES "
        "('doc_id', 'int-light', true), "
        "('lang', 'dict', true), "
        "('n_chars', 'int-light', true), "
        "('source', 'dict', true), "
        "('text', 'general', true)"
        ') AS t("column", codec_family, beats_plain)'
    ),
    # Golden schemas: the conformance corpus exercises the reference's
    # inference semantics (R1-R8); expected Arrow schemas are fixed.
    "schema_infer_conformance": (
        "SELECT * FROM (VALUES "
        "('{\"a\":1,\"b\":2.5,\"c\":\"s\",\"d\":true}', "
        " 'a: int32; b: float; c: string; d: bool'), "
        "('{\"xs\":[{\"v\":1},{\"v\":2.5}]}', "
        " 'xs: list<item: struct<v: float>>;   child 0, item: struct<v: float>;       child 0, v: float'), "
        "('{\"a\":[[1,2],[3]]}', "
        " 'a: list<item: int32>;   child 0, item: int32'), "
        "('{\"a\":null,\"b\":1}', 'b: int32'), "
        "('{\"o\":{\"p\":{\"q\":\"deep\"}}}', "
        " 'o: struct<p: struct<q: string>>;   child 0, p: struct<q: string>;       child 0, q: string'), "
        "('{\"m\":[{\"k\":1},{\"j\":\"s\"}]}', "
        " 'm: list<item: struct<j: string, k: int32>>;   child 0, item: struct<j: string, k: int32>;       child 0, j: string;       child 1, k: int32'), "
        "('{\"s\":\"he said \\\"hi\\\" {brace}\"}', 's: string')"
        ") AS t(doc, schema)"
    ),
    # Same planted-near-dup augmentation as the Ray side (v + 0.02 for
    # vec_id % 7 == 0), then brute-force cosine ≥ 0.9. Margin is wide
    # (planted ≥ 0.987, background ≤ 0.513) so numpy-vs-DuckDB summation
    # order cannot flip a threshold decision.
    "embedding_near_dup": (
        "WITH aug AS ("
        "  SELECT vec_id, list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v"
        "  FROM embeddings"
        "  UNION ALL"
        "  SELECT vec_id + 100000, list_transform(embedding,"
        "    x -> CAST(x AS DOUBLE) + 0.02)"
        "  FROM embeddings WHERE vec_id % 7 = 0) "
        "SELECT x.vec_id AS a, y.vec_id AS b FROM aug x JOIN aug y"
        "  ON x.vec_id < y.vec_id "
        "WHERE list_cosine_similarity(x.v, y.v) >= 0.9 ORDER BY a, b"
    ),
    # The language-ID heuristic is pure regex-count scoring (LangId's
    # profiles, text.py), so the oracle replicates it: per-language match
    # counts (common denominator max(len,1) cancels in the argmax), CJK
    # weighted 5x, first-wins tie-break in profile order en,de,fr,es,zh,
    # 'unknown' when all scores are zero.
    "lang_id": (
        "WITH c AS (SELECT doc_id, "
        " len(regexp_extract_all(text, '(?i)\\b(?:the|and|of|to|is|that|you|with|for|this)\\b')) AS en, "
        " len(regexp_extract_all(text, '(?i)\\b(?:der|die|und|das|ist|nicht|ein|mit|für|ich)\\b')) AS de, "
        " len(regexp_extract_all(text, '(?i)\\b(?:le|la|les|et|est|une|pour|que|dans|vous)\\b')) AS fr, "
        " len(regexp_extract_all(text, '(?i)\\b(?:el|los|las|es|una|para|que|con|por|como)\\b')) AS es, "
        " 5 * len(regexp_extract_all(text, '[一-鿿]')) AS zh "
        "FROM documents) "
        "SELECT doc_id, CASE "
        # NULL text: every count is NULL, so without this arm the CASE
        # would fall through to 'zh' while the engine says 'unknown'
        " WHEN en IS NULL OR greatest(en, de, fr, es, zh) <= 0 THEN 'unknown' "
        " WHEN en >= de AND en >= fr AND en >= es AND en >= zh THEN 'en' "
        " WHEN de >= fr AND de >= es AND de >= zh THEN 'de' "
        " WHEN fr >= es AND fr >= zh THEN 'fr' "
        " WHEN es >= zh THEN 'es' "
        " ELSE 'zh' END AS lang_pred FROM c"
    ),
    # Brute-force 5-gram character-shingle Jaccard over all pairs. The Ray
    # side (MinHash-LSH candidates → exact verify) computes the identical
    # set as long as LSH recall is 1 on this deterministic input —
    # verified: both sides produce the same 25 pairs at sf0.01. floor()
    # rounding matches the Python `math.floor(j*1e6)/1e6` exactly.
    "jaccard_pairs": (
        "WITH sh AS ("
        "  SELECT doc_id, list_distinct(list_transform("
        "    range(1, greatest(length(text)-4, 1)+1), i -> substr(text, i, 5))) AS s"
        "  FROM documents), "
        "p AS ("
        "  SELECT x.doc_id AS a, y.doc_id AS b, "
        "         len(list_intersect(x.s, y.s)) AS i, len(x.s) AS la, len(y.s) AS lb"
        "  FROM sh x JOIN sh y ON x.doc_id < y.doc_id) "
        "SELECT a, b, floor((CAST(i AS DOUBLE) / (la + lb - i)) * 1e6) / 1e6 AS jaccard "
        "FROM p WHERE CAST(i AS DOUBLE) / (la + lb - i) >= 0.5 ORDER BY a, b"
    ),
    # Connected-component near-dup removal: edges = pairs with exact
    # 5-gram Jaccard ≥ 0.8; keep the min doc_id of each component
    # (singletons keep themselves). The recursive CTE propagates reachable
    # labels; MIN(label) per node is the component min — identical to the
    # engine's union-find/label-propagation clustering.
    "minhash_dedup": (
        "WITH RECURSIVE sh AS ("
        "  SELECT doc_id, list_distinct(list_transform("
        "    range(1, greatest(length(text)-4, 1)+1), i -> substr(text, i, 5))) AS s"
        "  FROM documents), "
        "e AS ("
        "  SELECT x.doc_id AS a, y.doc_id AS b"
        "  FROM sh x JOIN sh y ON x.doc_id < y.doc_id"
        "  WHERE CAST(len(list_intersect(x.s, y.s)) AS DOUBLE)"
        "      / (len(x.s) + len(y.s) - len(list_intersect(x.s, y.s))) >= 0.8), "
        "sym AS (SELECT a, b FROM e UNION ALL SELECT b, a FROM e), "
        "reach(node, label) AS ("
        "  SELECT doc_id, doc_id FROM documents"
        "  UNION"
        "  SELECT s.b, r.label FROM reach r JOIN sym s ON s.a = r.node) "
        "SELECT node AS doc_id FROM reach GROUP BY node HAVING node = MIN(label)"
    ),
    # SimHash is exactly expressible in SQL because the token hash is
    # md5_number_lower (DuckDB builtin): tokenize → per-bit vote → pack →
    # all pairs with Hamming ≤ 3. The Ray side's 4-band bucketing has
    # recall EXACTLY 1 for Hamming ≤ 3 by pigeonhole, so both sides
    # compute the identical pair set.
    "simhash_pairs": (
        "WITH toks AS ("
        "  SELECT doc_id, unnest(list_filter("
        "    regexp_split_to_array(lower(text), '\\s+'), t -> t <> '')) AS tok"
        "  FROM documents), "
        "th AS (SELECT doc_id, md5_number_lower(tok) AS h FROM toks), "
        "bits AS ("
        "  SELECT doc_id, b.bit, "
        "    SUM(CASE WHEN (h >> b.bit) & 1 = 1 THEN 1 ELSE -1 END) AS vote"
        "  FROM th, (SELECT unnest(range(0,64)) AS bit) b"
        "  GROUP BY doc_id, b.bit), "
        "sig AS ("
        "  SELECT doc_id, CAST(SUM(CASE WHEN vote > 0 THEN"
        "    (1::UBIGINT << CAST(bit AS INTEGER))::HUGEINT ELSE 0 END)"
        "    AS UBIGINT) AS s"
        "  FROM bits GROUP BY doc_id), "
        "allsig AS ("
        "  SELECT d.doc_id, COALESCE(s.s, 0::UBIGINT) AS s"
        "  FROM documents d LEFT JOIN sig s USING (doc_id)) "
        "SELECT x.doc_id AS a, y.doc_id AS b, "
        "  CAST(bit_count(xor(x.s, y.s)) AS BIGINT) AS hamming "
        "FROM allsig x JOIN allsig y ON x.doc_id < y.doc_id "
        "WHERE bit_count(xor(x.s, y.s)) <= 3 ORDER BY a, b"
    ),
    "events_type_stats": (
        "SELECT event_type, ROUND(AVG(value), 4) AS mean_value, "
        "ROUND(STDDEV_SAMP(value), 4) AS std_value "
        "FROM events GROUP BY event_type ORDER BY event_type"
    ),
    "doc_length_histogram": (
        "SELECT CAST(n_chars // 100 AS BIGINT) AS bucket, "
        "COUNT(*) AS n_docs FROM documents GROUP BY 1 ORDER BY 1"
    ),
    "order_lineitem_join": (
        "SELECT o.o_orderpriority, ROUND(SUM(l.l_quantity), 2) AS sum_qty, "
        "COUNT(*) AS n_items FROM orders o JOIN lineitem l "
        "ON o.o_orderkey = l.l_orderkey "
        "GROUP BY o.o_orderpriority ORDER BY o.o_orderpriority"
    ),
    "keyed_store_en": "SELECT * FROM documents WHERE lang = 'en'",
    "roundtrip_lineitem": "SELECT * FROM lineitem",
    "repetition_ratio": (
        "SELECT doc_id, CASE WHEN toks IS NULL OR len(toks) = 0 THEN 0.0 ELSE"
        "  1.0 - CAST(len(list_distinct(toks)) AS DOUBLE) / len(toks) END"
        " AS rep_ratio FROM ("
        "  SELECT doc_id, list_filter("
        "    regexp_split_to_array(text, '\\s+'), t -> t <> '') AS toks"
        "  FROM documents)"
    ),
    "lang_source_pivot": (
        "SELECT source, "
        "CAST(COUNT(*) FILTER (WHERE lang = 'de') AS BIGINT) AS n_de, "
        "CAST(COUNT(*) FILTER (WHERE lang = 'en') AS BIGINT) AS n_en, "
        "CAST(COUNT(*) FILTER (WHERE lang = 'es') AS BIGINT) AS n_es, "
        "CAST(COUNT(*) FILTER (WHERE lang = 'fr') AS BIGINT) AS n_fr, "
        "CAST(COUNT(*) FILTER (WHERE lang = 'zh') AS BIGINT) AS n_zh "
        "FROM documents GROUP BY source ORDER BY source"
    ),
    "user_running_value": (
        "SELECT event_id, ROUND(SUM(value) OVER ("
        "  PARTITION BY user_id ORDER BY ts, event_id"
        "  ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), 2)"
        " AS running_value FROM events ORDER BY event_id"
    ),
    "normalize_text": (
        "SELECT doc_id, trim(regexp_replace(lower(text), '\\s+', ' ', 'g'))"
        " AS norm_text FROM documents"
    ),
    "semi_anti_customers": (
        "SELECT "
        "CAST(COUNT(*) FILTER (WHERE EXISTS (SELECT 1 FROM orders o"
        "  WHERE o.o_custkey = c.c_custkey)) AS BIGINT) AS with_orders, "
        "CAST(COUNT(*) FILTER (WHERE NOT EXISTS (SELECT 1 FROM orders o"
        "  WHERE o.o_custkey = c.c_custkey)) AS BIGINT) AS without_orders "
        "FROM customer c"
    ),
    "quantiles_n_chars": (
        "SELECT unnest([0.25, 0.5, 0.75, 0.95]) AS q, "
        "unnest(quantile_disc(n_chars, [0.25, 0.5, 0.75, 0.95])) AS value "
        "FROM documents"
    ),
    "orders_per_nation": (
        "SELECT n.n_name, COUNT(*) AS order_count FROM orders o "
        "JOIN customer c ON o.o_custkey = c.c_custkey "
        "JOIN nation n ON c.c_nationkey = n.n_nationkey "
        "GROUP BY n.n_name ORDER BY n.n_name"
    ),
    "events_sliding_window": (
        "SELECT time_bucket(INTERVAL '15 minutes', ts)"
        "   - k.k * INTERVAL '15 minutes' AS window_start, "
        "COUNT(*) AS event_count "
        "FROM events, (SELECT unnest(range(0, 4)) AS k) k "
        "GROUP BY 1 ORDER BY 1"
    ),
    "zonemap_pruned_scan": (
        "SELECT doc_id, text, lang, source, n_chars FROM ("
        " SELECT 0 AS seg, * FROM documents WHERE doc_id BETWEEN 100 AND 163"
        " UNION ALL"
        " SELECT 1 AS seg, * FROM documents WHERE lang = 'en'"
        ") ORDER BY seg, doc_id"
    ),
    "multimodal_decode": (
        "SELECT doc_id AS media_id, CAST(octet_length(CAST(text AS BLOB)) AS BIGINT)"
        " AS n_bytes, TRUE AS decode_ok FROM documents"
    ),
}

# Oracles for RETIRED_QUERIES — checked by tools/check_oracles.py and
# tests, not registered with the driver (50-row report cap; see
# RETIRED_QUERIES).
RETIRED_ORACLE_SQL = {
    "distinct_lang": "SELECT DISTINCT lang FROM documents ORDER BY lang",
    "redact_emails": (
        "SELECT doc_id, regexp_replace("
        "  text || ' contact: user' || CAST(doc_id AS VARCHAR) || '@example.com',"
        "  '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g')"
        " AS text FROM documents"
    ),
    "top_docs_by_chars": (
        "SELECT doc_id, n_chars FROM documents "
        "ORDER BY n_chars DESC, doc_id ASC LIMIT 10"
    ),
    "extract_text": (
        "SELECT doc_id, trim(regexp_replace("
        "  replace(replace(replace(replace(replace(replace("
        "    regexp_replace(regexp_replace(regexp_replace(regexp_replace("
        "      '<html><head><script type=\"text/javascript\">var t = "
        "\"<p>\";</script></head><body><h1>Doc ' || CAST(doc_id AS VARCHAR)"
        "      || ' &amp; more</h1><p>' || text"
        "      || '</p><!-- trailer' || chr(10) || '--></body></html>',"
        "      '<script\\b[^>]*>.*?</script\\s*>', ' ', 'gis'),"
        "    '<style\\b[^>]*>.*?</style\\s*>', ' ', 'gis'),"
        "    '<!--.*?-->', ' ', 'gs'),"
        "    '<[^>]*>', ' ', 'gs'),"
        "  '&lt;','<'),'&gt;','>'),'&quot;',chr(34)),"
        "  '&#39;',chr(39)),'&nbsp;',' '),'&amp;','&'),"
        "  '\\s+', ' ', 'g')) AS text"
        " FROM documents ORDER BY doc_id"
    ),
    "corpus_prepare": (
        "WITH planted AS ("
        "  SELECT doc_id, lang,"
        "         (CASE CAST(doc_id % 4 AS INTEGER)"
        "            WHEN 0 THEN 'subscribe to our newsletter today'"
        "            WHEN 1 THEN 'all rights reserved worldwide'"
        "            WHEN 2 THEN 'click here to accept cookies'"
        "            ELSE 'share this article on social media' END)"
        "         || chr(10) || chr(10) ||"
        "         (CASE WHEN doc_id % 64 = 0"
        "               THEN repeat('duplicate body ', 20) ELSE text END)"
        "         AS t"
        "  FROM documents),"
        " gated AS (SELECT doc_id, t FROM planted"
        "           WHERE lang = 'en' AND length(t) >= 150),"
        " paras AS ("
        "  SELECT doc_id, unnest(ps) AS p, unnest(range(1, len(ps) + 1)) AS idx"
        "  FROM (SELECT doc_id, string_split(t, chr(10) || chr(10)) AS ps"
        "        FROM gated)),"
        " dup AS (SELECT p FROM paras GROUP BY p HAVING COUNT(*) >= 2),"
        " clean AS ("
        "  SELECT p2.doc_id AS doc_id,"
        "         COALESCE(string_agg(CASE WHEN d.p IS NULL THEN p2.p END,"
        "                             chr(10) || chr(10) ORDER BY p2.idx), '')"
        "           AS text,"
        "         CAST(COUNT(d.p) AS BIGINT) AS n_removed"
        "  FROM paras p2 LEFT JOIN dup d ON p2.p = d.p"
        "  GROUP BY p2.doc_id),"
        " keep AS (SELECT MIN(doc_id) AS doc_id FROM clean GROUP BY text)"
        " SELECT c.doc_id, c.text, c.n_removed,"
        "        CAST(length(regexp_extract_all(c.text, '\\S+')) AS BIGINT)"
        "          AS ws_tokens"
        " FROM clean c JOIN keep k USING (doc_id) ORDER BY c.doc_id"
    ),
    "canonical_urls": (
        "WITH planted AS ("
        "  SELECT doc_id,"
        "    'HTTPS://Ann:Pw@WWW.Example' || CAST(doc_id AS VARCHAR)"
        "    || '.COM/' || source || '/Doc-' || CAST(doc_id AS VARCHAR)"
        "    || '?utm_source=Feed&id=' || CAST(doc_id AS VARCHAR)"
        "    || '&fbclid=AbC&myfbclid=Kp&ref=Home'"
        "    || (CASE WHEN doc_id % 2 = 0 THEN '#Section-2' ELSE '' END)"
        "    AS u"
        "  FROM documents),"
        " parts AS ("
        "  SELECT doc_id, u,"
        "    regexp_extract(u, '^([A-Za-z][A-Za-z0-9+.\\-]*://)"
        "([^/?#@]*@)?([^/?#]*)([^?#]*)([^#]*)',"
        "      ['scheme', 'usr', 'host', 'path', 'query']) AS p"
        "  FROM planted)"
        " SELECT doc_id,"
        "   CASE WHEN regexp_matches(u, '^[A-Za-z][A-Za-z0-9+.\\-]*://')"
        "   THEN lower(p.scheme) || p.usr || lower(p.host) || p.path ||"
        "     regexp_replace(regexp_replace(regexp_replace(regexp_replace("
        "       p.query,"
        "       '[?&](?:utm_[A-Za-z0-9_]+|fbclid|gclid)=[^&]*', '', 'g'),"
        "       '^&', '?'),"
        "       '\\?&', '?', 'g'),"
        "       '[?&]+$', '', 'g')"
        "   ELSE u END AS url"
        " FROM parts ORDER BY doc_id"
    ),
    "stratified_sample": (
        "SELECT doc_id, lang FROM documents"
        " WHERE CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))"
        "       AS BIGINT) % 4294967296 <"
        "   (CASE lang WHEN 'en' THEN CAST(floor(0.25 * 4294967296) AS BIGINT)"
        "              WHEN 'fr' THEN CAST(floor(0.5 * 4294967296) AS BIGINT)"
        "              ELSE 4294967296 END)"
        " ORDER BY doc_id"
    ),
    "pack_sequences": (
        "WITH t AS ("
        "  SELECT doc_id,"
        "         CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT)"
        "           AS n_tokens,"
        "         md5_number_lower(CAST(doc_id AS VARCHAR)) AS ok"
        "  FROM documents)"
        " SELECT doc_id, n_tokens,"
        "        CAST((SUM(n_tokens) OVER (ORDER BY ok, doc_id"
        "              ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)"
        "              - n_tokens) // 512 AS BIGINT) AS seq_id"
        " FROM t ORDER BY doc_id"
    ),
    "decontaminate": (
        "WITH planted AS ("
        "  SELECT doc_id, text ||"
        "         (CASE WHEN doc_id % 16 = 5"
        "               THEN ' alpha bravo charlie delta echo foxtrot golf"
        " hotel india juliet' ELSE '' END) AS t"
        "  FROM documents),"
        " toks AS (SELECT doc_id, regexp_extract_all(t, '\\S+') AS w"
        "          FROM planted),"
        " grams AS ("
        "  SELECT doc_id, array_to_string(list_slice(w, i, i + 7), ' ') AS g"
        "  FROM (SELECT doc_id, w, unnest(range(1, len(w) - 6)) AS i"
        "        FROM toks)),"
        " eval_grams AS ("
        "  SELECT DISTINCT array_to_string(list_slice(w, i, i + 7), ' ') AS g"
        "  FROM (SELECT w, unnest(range(1, len(w) - 6)) AS i"
        "        FROM (SELECT regexp_extract_all("
        "          'alpha bravo charlie delta echo foxtrot golf hotel india"
        " juliet extra trailing context', '\\S+') AS w))),"
        " m AS (SELECT doc_id, COUNT(DISTINCT g) AS cnt FROM grams"
        "       WHERE g IN (SELECT g FROM eval_grams) GROUP BY doc_id)"
        " SELECT d.doc_id, COALESCE(m.cnt, 0) > 0 AS contaminated,"
        "        CAST(COALESCE(m.cnt, 0) AS BIGINT) AS ngram_hits"
        " FROM documents d LEFT JOIN m USING (doc_id) ORDER BY d.doc_id"
    ),
    "embedding_quantize": (
        "SELECT vec_id,"
        "  CASE WHEN mx = 0 THEN list_transform(emb, x -> CAST(0 AS TINYINT))"
        "       ELSE list_transform(emb, x -> CAST(LEAST(GREATEST("
        "         floor(CAST(x AS DOUBLE) / (mx / 127.0) + 0.5),"
        "         -127), 127) AS TINYINT)) END AS q_vec,"
        "  mx / 127.0 AS q_scale"
        " FROM (SELECT vec_id, embedding AS emb,"
        "         list_max(list_transform(embedding,"
        "                                 x -> abs(CAST(x AS DOUBLE)))) AS mx"
        "       FROM embeddings)"
        " ORDER BY vec_id"
    ),
    "roundtrip_events": "SELECT * FROM events",
    "roundtrip_part": "SELECT * FROM part",
    "roundtrip_orders": "SELECT * FROM orders",
    "roundtrip_documents_pruned": "SELECT doc_id, lang FROM documents",
}
