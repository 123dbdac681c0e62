"""Skew-aware wide operations: salted group-count, distributed distinct,
heavy hitters, and url-host extraction.

The north rule calls for "skewed columns (e.g., heavy-hitter hostnames in
url, near-constant lang) ... handled by salted groupby/repartition before
dictionary build" (BASELINE.json). The pattern implemented here:

1. pre-aggregate inside ``map_batches`` (one partial row per distinct
   value per batch — the combiner), and
2. attach a salt ``hash(value) % S`` so a heavy-hitter value's partials
   spread over S reducers in the first (wide) groupby,
3. a second, tiny groupby over ≤ S rows per value merges the salted
   partials.

Because step 1 bounds the data entering the shuffle by (cardinality x
batches), the all-to-all exchange moves partial counts, never raw rows.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .stats import binary_view


def extract_host(batch: pa.Table, url_col: str = "url",
                 out_col: str = "host") -> pa.Table:
    """Vectorized url → hostname: case-insensitive scheme or
    scheme-relative ``//host``, userinfo / port / path / query / fragment
    stripped, host lowercased (DNS names are case-insensitive — a
    skew census must not split one real host across case variants).
    Bracketed IPv6 authorities keep their whole bracket (the host
    capture previously stopped at the first ':' INSIDE the bracket,
    splintering every IPv6 host into a junk census token). Values with
    no ``//`` authority pass through lowercased."""
    host = pc.replace_substring_regex(
        batch.column(url_col),
        pattern=(r"^(?:[A-Za-z][A-Za-z0-9+.-]*:)?//"
                 r"(?:[^/?#@]*@)?(\[[^\]]*\]|[^/?#:]*).*$"),
        replacement=r"\1", max_replacements=1,
    )
    return batch.append_column(out_col, pc.utf8_lower(host))


def _salts(values: pa.Array, salt_buckets: int) -> pa.Array:
    """``hash(value) % salt_buckets`` per value, deterministic across
    processes (pandas' C siphash over the values as objects, strings
    through their binary view)."""
    salts = pd.util.hash_array(
        np.asarray(binary_view(values).to_pandas(), dtype=object),
        categorize=False) % salt_buckets
    return pa.array(salts.astype(np.int64), pa.int64())


def _partial_counts(batch: pa.Table, col: str, salt_buckets: int) -> pa.Table:
    arr = batch.column(col)
    vc = arr.value_counts()
    values = vc.field("values")
    counts = vc.field("counts")
    return pa.table({
        "value": values,
        "partial_count": counts.cast(pa.int64()),
        "salt": _salts(values, salt_buckets),
    })


def salted_group_count(ds, col: str, salt_buckets: int = 8):
    """Exact per-value counts via combiner + two-level salted groupby.

    Returns a Ray Dataset with columns (value, count).
    """
    partials = ds.map_batches(
        lambda b: _partial_counts(b, col, salt_buckets), batch_format="pyarrow"
    )
    # wide (salted) aggregation: heavy values spread over salt_buckets groups
    from ray.data.aggregate import Sum

    salted = partials.groupby(["value", "salt"]).aggregate(
        Sum("partial_count", alias_name="salted_count")
    )
    # final merge: ≤ salt_buckets rows per value
    out = salted.groupby("value").aggregate(Sum("salted_count", alias_name="count"))
    return out


_NULLABLE_INT_MAP = None


def _exact_pandas(t: pa.Table) -> pd.DataFrame:
    """Arrow → pandas preserving int exactness: an int64 column holding a
    null otherwise round-trips through float64, silently merging distinct
    keys >= 2^53 inside the per-bucket joins."""
    global _NULLABLE_INT_MAP
    if _NULLABLE_INT_MAP is None:
        _NULLABLE_INT_MAP = {
            pa.int64(): pd.Int64Dtype(), pa.int32(): pd.Int32Dtype(),
            pa.int16(): pd.Int16Dtype(), pa.int8(): pd.Int8Dtype(),
            pa.uint64(): pd.UInt64Dtype(), pa.uint32(): pd.UInt32Dtype(),
            pa.uint16(): pd.UInt16Dtype(), pa.uint8(): pd.UInt8Dtype(),
        }
    return t.to_pandas(types_mapper=_NULLABLE_INT_MAP.get)


def _pad_to(all_cols: list):
    """Batch transform padding a tagged side of an exchange union to the
    combined column set (missing columns null-filled) — the ONE
    implementation of the union-padding invariant shared by hash_join
    and asof_join (it was duplicated with a misleading unused param)."""
    def fn(b: pa.Table) -> pa.Table:
        out = {}
        for c in all_cols:
            out[c] = (b.column(c) if c in b.column_names
                      else pa.nulls(len(b)))
        out["_bucket"] = b.column("_bucket")
        out["_side"] = b.column("_side")
        return pa.table(out)
    return fn


def _avalanche64(x: np.ndarray) -> np.ndarray:
    """Splitmix64 finalizer: every input bit affects every output bit.
    The previous single Fibonacci multiply left bits 33+ all-zero for
    keys with ≥ 30 trailing zero bits — integer-VALUED float64 ids
    (ints stored as float because the column carries nulls) all landed
    in bucket 0, sending the whole dataset to one reducer."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def key_buckets(col: pa.ChunkedArray | pa.Array,
                num_partitions: int) -> np.ndarray:
    """Deterministic key → bucket hash shared by every co-partitioning
    operator (hash join, as-of join): both sides of an exchange MUST use
    this exact function or matching keys land in different buckets."""
    t = col.type
    if pa.types.is_null(t):
        # Ray emits NULL-typed blocks for all-null slices of a column
        # other blocks carry as int64/string — such rows must land in
        # the SAME bucket as typed nulls (see the override below; the
        # old code co-bucketed them only by the accident that both the
        # int-null and string-null hashes bucketed to 0)
        return np.full(len(col),
                       int(_avalanche64(np.zeros(1, np.uint64))[0]
                           % np.uint64(num_partitions)), np.int64)
    if pa.types.is_integer(t) or pa.types.is_temporal(t):
        # fill nulls at the Arrow level BEFORE to_numpy: a null key
        # would otherwise force a float64 round-trip that corrupts
        # keys >= 2^53, so the two sides hash the same key to
        # different buckets and matching rows silently vanish.
        # safe=False: uint64 ids above 2^63 (hash ids) wrap modularly
        # instead of raising — the wrap is deterministic, and both sides
        # of an exchange wrap identically
        filled = pc.fill_null(pc.cast(col, pa.int64(), safe=False), 0)
        a = filled.to_numpy(zero_copy_only=False).astype(np.uint64, copy=False)
        h = _avalanche64(a)
    elif pa.types.is_floating(t):
        # Float keys: INTEGER-valued floats hash by VALUE through the
        # same path as int keys, so a join of an int64 column against
        # its float64 twin (ints + nulls) co-buckets 5 with 5.0 — the
        # per-bucket pandas merge matches them, so the exchange must
        # too. Non-integral floats hash by canonical BIT PATTERN, never
        # a value cast: casting NaN/negative floats to uint64 is
        # C-undefined (x86 and ARM disagree). Canonicalize -0.0 → +0.0
        # (they compare equal and must co-bucket) and all NaN payloads
        # → one quiet NaN first.
        filled = pc.fill_null(col, 0.0)
        a = filled.to_numpy(zero_copy_only=False).astype(np.float64,
                                                         copy=False)
        a = np.where(a == 0.0, 0.0, a)
        a = np.where(np.isnan(a), np.float64("nan"), a)
        a = np.ascontiguousarray(a)
        with np.errstate(invalid="ignore"):
            integral = (np.isfinite(a) & (np.floor(a) == a)
                        & (np.abs(a) < float(1 << 63)))
        iv = np.zeros(len(a), np.int64)
        iv[integral] = a[integral].astype(np.int64)
        bits = np.where(integral, iv.view(np.uint64), a.view(np.uint64))
        h = _avalanche64(bits)
    else:  # strings/binary: pandas' C siphash over bytes objects
        h = pd.util.hash_array(
            np.asarray(binary_view(col).to_pandas(), dtype=object),
            categorize=False)
        if col.null_count:
            # ONE null convention across all type paths (int/float fill
            # nulls with 0 pre-hash): a null in a string-typed block
            # must co-bucket with the same row arriving in a NULL-typed
            # block, or null-key pandas-merge matches silently vanish
            valid = (col.combine_chunks() if isinstance(
                col, pa.ChunkedArray) else col).is_valid() \
                .to_numpy(zero_copy_only=False)
            h = np.where(valid, h, _avalanche64(np.zeros(1, np.uint64))[0])
    return (h % np.uint64(num_partitions)).astype(np.int64)


def keyed_window(ds, key: str, bucket_fn, num_buckets: int = 64,
                 batch_format: str = "pandas"):
    """Keyed-window execution at BUCKET granularity: rows hash-partition
    into ``num_buckets`` key groups (via ``key_buckets`` — every row of a
    key lands in exactly one bucket) and ``bucket_fn`` runs ONCE per
    bucket over all keys in it. The callback must itself be
    keyed-vectorized (e.g. pandas ``sort_values([key, ts])`` then
    ``groupby(key)...cumsum()/diff()``) — so 10^8 distinct keys cost
    ``num_buckets`` Python callbacks, not 10^8 (one ``map_groups`` call
    per key is THE keyed-window scale anti-pattern this exists to avoid).
    Partitioning contract: all rows of a key fit in one bucket's memory;
    size num_buckets so corpus/num_buckets fits a worker heap."""
    def tag(b: pa.Table) -> pa.Table:
        bk = key_buckets(b.column(key), num_buckets)
        return b.append_column("__bucket", pa.array(bk, pa.int64()))

    tagged = ds.map_batches(tag, batch_format="pyarrow")

    def run(g: pd.DataFrame) -> pd.DataFrame:
        return bucket_fn(g.drop(columns="__bucket"))

    return tagged.groupby("__bucket").map_groups(run,
                                                 batch_format=batch_format)


def asof_join(left, right, by: str, on: str, right_by: str | None = None,
              right_on: str | None = None, direction: str = "backward",
              num_partitions: int | None = None):
    """Distributed LARGE-LARGE as-of join: for each left row, the nearest
    right row of the same ``by`` key with ``right_on`` <= ``on``
    (direction="backward"; "forward"/"nearest" as in ``pd.merge_asof``).

    Both sides co-partition by ``hash(by) % num_partitions``
    (``key_buckets``) — ONE all-to-all exchange, no broadcast, neither
    side ever materializes on the driver. Inside each bucket both sides
    sort by the ordering column and a C-speed ``pd.merge_asof`` runs.
    Partitioning assumption: all rows of a key share a bucket, which the
    hash guarantees; per-bucket memory is bounded by the bucket's rows,
    so size ``num_partitions`` to the cluster as for any hash join."""
    import ray

    right_by = right_by or by
    right_on = right_on or on
    if num_partitions is None:
        num_partitions = max(2, int(ray.cluster_resources().get("CPU", 4)))

    def drop_null_on(key: str):
        # a null ORDERING value can never match under as-of semantics,
        # and pd.merge_asof refuses it outright ('Merge keys contain
        # null values') — drop such rows on both sides instead of
        # crashing the job three frames deep inside a bucket task
        def fn(b: pa.Table) -> pa.Table:
            col = b.column(key)
            return b.filter(col.is_valid()) if col.null_count else b
        return fn

    left = left.map_batches(drop_null_on(on), batch_format="pyarrow")
    right = right.map_batches(drop_null_on(right_on),
                              batch_format="pyarrow")

    def tag(side: int, key: str):
        def fn(b: pa.Table) -> pa.Table:
            return (b.append_column("_bucket", pa.array(
                        key_buckets(b.column(key), num_partitions)))
                    .append_column("_side", pa.array(
                        np.full(len(b), side, np.int8))))
        return fn

    lt = left.map_batches(tag(0, by), batch_format="pyarrow")
    rt = right.map_batches(tag(1, right_by), batch_format="pyarrow")

    lcols = list(left.schema().names)
    rcols = list(right.schema().names)
    all_cols = lcols + [c for c in rcols if c not in lcols]
    pad = _pad_to(all_cols)

    # typed empty frames, computed ONCE on the driver: a one-sided bucket
    # produces null-typed padding columns whose to_pandas comes out as
    # object dtype and breaks merge_asof / makes block schemas disagree
    def _empty_frame(ray_schema) -> pd.DataFrame:
        sch = pa.schema([pa.field(n, t) for n, t in
                         zip(ray_schema.names, ray_schema.types)])
        return _exact_pandas(sch.empty_table())

    l_empty = _empty_frame(left.schema())
    r_empty = _empty_frame(right.schema())
    out_template = pd.merge_asof(l_empty, r_empty, left_on=on,
                                 right_on=right_on, left_by=by,
                                 right_by=right_by, direction=direction)

    def merge(g: pa.Table) -> pd.DataFrame:
        side = pc.equal(g.column("_side"), 0)
        lg = (_exact_pandas(g.filter(side).select(lcols))
              .sort_values(on, kind="mergesort").reset_index(drop=True))
        rg = (_exact_pandas(g.filter(pc.invert(side)).select(rcols))
              .sort_values(right_on, kind="mergesort").reset_index(drop=True))
        if not len(lg):
            return out_template.iloc[0:0].copy()
        if not len(rg):
            rg = r_empty
        return pd.merge_asof(lg, rg, left_on=on, right_on=right_on,
                             left_by=by, right_by=right_by,
                             direction=direction)

    u = lt.map_batches(pad, batch_format="pyarrow").union(
        rt.map_batches(pad, batch_format="pyarrow"))
    return u.groupby("_bucket").map_groups(merge, batch_format="pyarrow")


def hash_join(left, right, on: str, right_on: str | None = None,
              how: str = "inner", num_partitions: int | None = None,
              salt_threshold: int | str | None = "auto",
              salt_buckets: int = 8, _return_tagged: bool = False):
    """Distributed partitioned hash join for two LARGE datasets.

    Both sides are tagged and bucketed by a deterministic hash of the
    join key; one ``groupby(bucket)`` co-locates matching keys; inside
    each bucket a C-speed ``pd.merge`` joins the sides. One all-to-all
    exchange total (the groupby); per-bucket Python cost is O(buckets),
    not O(rows). Use a broadcast join instead when one side is small.

    Skew: hot join keys are SALTED. A combiner census of the left
    (probe) side finds keys whose row count exceeds ``salt_threshold``
    ("auto" = 2x a reducer's fair share); hot-key probe rows spread over
    ``salt_buckets`` sub-buckets and the matching right (build) rows are
    replicated into each, so one pathological key can no longer land on
    a single reducer. Applied for inner/left joins (replicating build
    rows would duplicate unmatched rows under right/outer); pass
    ``salt_threshold=None`` to disable.

    Ray's native ``Dataset.join`` fails on empty right partitions (as of
    2.49), which is why this exists. Column-name collisions aside from
    the key get pandas' _x/_y suffixes."""
    import ray

    right_on = right_on or on
    if num_partitions is None:
        num_partitions = max(2, int(ray.cluster_resources().get("CPU", 4)))

    hot_ref = None
    if salt_threshold is not None and how in ("inner", "left"):
        # LOCALLY-HEAVY census (one cheap pass, near-empty exchange): a
        # batch emits a key only if it holds ≥ 1/(4*num_partitions) of
        # that batch — a globally hot key (≥ 2x a reducer's fair share)
        # is locally heavy in almost every batch, so the tiny groupby
        # sums only true-skew candidates, never the full key space.
        # Detection is a pure optimization: a missed hot key just means
        # the unsalted (previous) placement — results are identical.
        from ray.data.aggregate import Sum

        min_frac = 1.0 / (4 * num_partitions)

        def heavy_partials(b: pa.Table) -> pa.Table:
            vc = b.column(on).value_counts()
            counts = vc.field("counts").cast(pa.int64())
            floor = max(int(min_frac * len(b)), 4)
            # null keys never salt: they already co-locate via the cold
            # fill_null(0) hash, and a null in the hot set would poison
            # the census groupby and the is_in mask
            keep = pc.and_(pc.greater_equal(counts, floor),
                           pc.is_valid(vc.field("values")))
            return pa.table({
                "value": vc.field("values").filter(keep),
                "partial": counts.filter(keep),
                "batch_rows": pa.array(
                    np.full(int(pc.sum(keep).as_py() or 0), len(b),
                            np.int64)),
            })

        partials = left.map_batches(heavy_partials, batch_format="pyarrow")
        agg = partials.groupby("value").aggregate(
            Sum("partial", alias_name="count"),
            Sum("batch_rows", alias_name="rows_seen"))
        if salt_threshold == "auto":
            # compare each candidate against its OWN observed denominator
            # (sum of batch sizes it was heavy in) — no extra count pass
            def hot_filter(b: pa.Table) -> pa.Table:
                share = pc.divide(
                    pc.cast(b.column("count"), pa.float64()),
                    pc.cast(pc.max_element_wise(
                        b.column("rows_seen"), 1), pa.float64()))
                return b.filter(pc.greater(share, 2.0 / num_partitions))
        else:
            thr = int(salt_threshold)

            def hot_filter(b: pa.Table) -> pa.Table:
                return b.filter(pc.greater(b.column("count"), thr))

        hot_df = agg.map_batches(hot_filter, batch_format="pyarrow").to_pandas()
        if len(hot_df):
            hot_ref = ray.put(pa.Array.from_pandas(hot_df["value"]))

    def bucket_of(col):
        return key_buckets(col, num_partitions)

    def tag(side: int, key: str):
        cast_cache: dict = {}  # per-task: cast the value_set once per type

        def fn(b: pa.Table) -> pa.Table:
            base = bucket_of(b.column(key))
            if hot_ref is None:
                bucket = base
            else:
                col = b.column(key)
                vs = cast_cache.get(str(col.type))
                if vs is None:
                    vs = ray.get(hot_ref)
                    try:
                        vs = vs.cast(col.type)
                    except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                        pass
                    cast_cache[str(col.type)] = vs
                hotmask = pc.is_in(col, value_set=vs).to_numpy(
                    zero_copy_only=False)
                if side == 0:
                    # probe rows of a hot key fan out over salt_buckets
                    salt = np.arange(len(b), dtype=np.int64) % salt_buckets
                    bucket = base * salt_buckets + np.where(hotmask, salt, 0)
                else:
                    # build rows of a hot key replicate into every
                    # sub-bucket so each probe shard can match locally
                    cold_idx = np.nonzero(~hotmask)[0]
                    hot_idx = np.nonzero(hotmask)[0]
                    idx = np.concatenate(
                        [cold_idx] + [hot_idx] * salt_buckets)
                    bucket = np.concatenate(
                        [base[cold_idx] * salt_buckets]
                        + [base[hot_idx] * salt_buckets + s
                           for s in range(salt_buckets)])
                    b = b.take(pa.array(idx, pa.int64()))
            return (b.append_column("_bucket",
                                    pa.array(bucket.astype(np.int64)))
                    .append_column("_side", pa.array(
                        np.full(len(b), side, np.int8))))
        return fn

    lt = left.map_batches(tag(0, on), batch_format="pyarrow")
    rt = right.map_batches(tag(1, right_on), batch_format="pyarrow")

    lcols = [c for c in left.schema().names]
    rcols = [c for c in right.schema().names]

    def merge(g: pa.Table) -> pd.DataFrame:
        # split sides while STILL Arrow (padding nulls never touch a
        # side's own columns), and convert with nullable-Int dtypes: a
        # GENUINE null in an int64 key column would otherwise force
        # float64, silently merging distinct keys above 2^53
        side = pc.equal(g.column("_side"), 0)
        lg = _exact_pandas(g.filter(side).select(lcols))
        rg = _exact_pandas(g.filter(pc.invert(side)).select(rcols))
        # always merge (even empty) so the output frame keeps its columns
        return lg.merge(rg, left_on=on, right_on=right_on, how=how)

    # union of differently-schemed sides: pad each with the other's columns
    all_cols = lcols + [c for c in rcols if c not in lcols]
    pad = _pad_to(all_cols)

    u = lt.map_batches(pad, batch_format="pyarrow").union(
        rt.map_batches(pad, batch_format="pyarrow"))
    if _return_tagged:  # test hook: expose per-bucket row placement
        return u
    return u.groupby("_bucket").map_groups(merge, batch_format="pyarrow")


def heavy_hitters(ds, col: str, k: int = 20, salt_buckets: int = 8) -> pa.Table:
    """Top-k values by count (small result → materialized on the driver).

    The sort is (count DESC, value ASC): without the value tie-break the
    k survivors of a tied count would be whatever rows Ray emits first —
    nondeterministic under parallelism and unverifiable against an
    ORDER BY oracle."""
    counts = salted_group_count(ds, col, salt_buckets)
    top = counts.sort(["count", "value"], descending=[True, False]).limit(k)
    # stay Arrow end-to-end: a pandas hop would round-trip a null-bearing
    # int column through float64, corrupting values >= 2^53 and changing
    # the output type to double
    tbls = list(top.iter_batches(batch_size=None, batch_format="pyarrow"))
    if tbls:
        return pa.concat_tables(tbls)
    base = getattr(top.schema(), "base_schema", None)
    return base.empty_table() if base is not None else pa.table({})


DRIVER_MERGE_CAP = 100_000  # partial rows distinct_values merges on the
# driver; past it they dedup in a salted groupby


def distinct_values(ds, cols: list[str], salt_buckets: int = 8,
                    batch_cap: int | None = None) -> dict[str, pa.Array]:
    """Global distinct values of each of ``cols`` in ONE pass over ``ds``:
    {column: its non-null values, sorted}, of any Arrow type, the type
    kept.

    Each batch ships its uniques long-form, one row per value, typed in
    that value's own column (the other columns null). A batch lacking a
    column adds nothing to it. If the partials are few (≤
    ``DRIVER_MERGE_CAP`` rows — the common case for dictionary columns)
    they merge on the driver with NO shuffle. Past the cap, each row
    gets a salt ``hash(value) % salt_buckets`` and a salted groupby
    dedups them, so the exchange stays bounded by per-batch uniques and
    no reducer sees a whole hot value. No pandas hop: int exactness and
    types survive.

    ``batch_cap`` ships at most ``batch_cap + 1`` uniques per batch and
    column. A column with at most ``batch_cap`` distinct values then
    comes back whole; one with more comes back with more than
    ``batch_cap`` of them, not all."""

    def batch_unique(b: pa.Table) -> pa.Table:
        parts = [pa.table({})]
        for c in cols:
            if c not in b.column_names:
                continue
            u = pc.unique(b.column(c)).drop_null()
            if batch_cap is not None:
                u = u.slice(0, batch_cap + 1)
            parts.append(pa.table({c: u}))
        return pa.concat_tables(parts, promote_options="default")

    def salted(b: pa.Table) -> pa.Table:
        salt = np.zeros(b.num_rows, np.int64)
        for c in cols:  # a row's salt hashes its one non-null value
            if c in b.column_names:
                valid = pc.is_valid(b.column(c))
                values = b.column(c).filter(valid).combine_chunks()
                salt[valid.to_numpy()] = _salts(values, salt_buckets).to_numpy()
        return b.append_column("salt", pa.array(salt))

    partials = ds.map_batches(batch_unique, batch_size=None,
                              batch_format="pyarrow").materialize()
    if partials.count() > DRIVER_MERGE_CAP:
        partials = partials.map_batches(
            salted, batch_size=None, batch_format="pyarrow"
        ).groupby("salt").map_groups(batch_unique, batch_format="pyarrow")
    tbls = list(partials.iter_batches(batch_size=None,
                                      batch_format="pyarrow"))
    merged = (pa.concat_tables(tbls, promote_options="permissive")
              if tbls else pa.table({}))
    out: dict[str, pa.Array] = {}
    for c in cols:
        u = (pc.unique(merged.column(c)).drop_null()
             if c in merged.column_names else pa.array([]))
        out[c] = u.take(pc.array_sort_indices(u))
    return out
