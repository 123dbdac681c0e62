"""Unit tests for the stats pass (SURVEY M2: per-stat tests) and the
codec planner, including the distributed-merge mode."""

import pickle

import numpy as np
import pyarrow as pa
import pytest

from json_to_parquet_ray.fixtures import make_cc_table
from json_to_parquet_ray.plan import plan_column, plan_from_stats
from json_to_parquet_ray.stats import (
    ColumnStats,
    column_stats_partial,
    compute_stats,
    compute_stats_table,
    entropy_of_bytes,
)


def test_counts_and_nulls():
    st = column_stats_partial(pa.array([1, None, 3, None], pa.int64()), "x")
    assert st.n == 4 and st.null_count == 2
    assert st.null_frac == 0.5


def test_min_max_range():
    st = column_stats_partial(pa.array([5, 1, 9], pa.int64()), "x")
    assert st.min_val == 1 and st.max_val == 9 and st.value_range == 8


def test_run_length():
    st = column_stats_partial(pa.array(["a"] * 10 + ["b"] * 10), "x")
    assert st.runs == 2
    assert st.avg_run_len == 10.0


def test_sortedness():
    sorted_st = column_stats_partial(pa.array([1, 2, 2, 5], pa.int64()), "x")
    unsorted_st = column_stats_partial(pa.array([3, 1, 2], pa.int64()), "x")
    assert sorted_st.sorted_frac == 1.0
    assert unsorted_st.sorted_frac == 0.0


def test_cardinality_exact_small():
    st = column_stats_partial(pa.array(list("abcab")), "x")
    assert round(st.cardinality) == 3


def test_cardinality_estimate_large():
    vals = pa.array([f"v{i}" for i in range(50_000)])
    st = column_stats_partial(vals, "x")
    assert abs(st.cardinality - 50_000) / 50_000 < 0.1  # KMV ~1/sqrt(2048)


def test_entropy():
    assert entropy_of_bytes(b"aaaa") == 0.0
    assert 7.9 < entropy_of_bytes(bytes(range(256)) * 4) <= 8.0
    st = column_stats_partial(pa.array(["aaaa"] * 4), "x")
    assert st.entropy == 0.0


def test_merge_associativity():
    a = column_stats_partial(pa.array([1, 2, 2], pa.int64()), "x")
    b = column_stats_partial(pa.array([2, 3, None], pa.int64()), "x")
    m = a.merge(b)
    assert m.n == 6 and m.null_count == 1
    assert m.min_val == 1 and m.max_val == 3
    assert round(m.cardinality) == 3


def test_plan_constant_column():
    st = column_stats_partial(pa.array(["en"] * 100), "lang")
    p = plan_column(st, pa.string())
    assert p.codec == "constant"


def test_plan_includes_plain_candidates():
    t = make_cc_table(500, seed=1)
    stats = compute_stats_table(t)
    plan = plan_from_stats(stats, t.schema)
    for cp in plan.columns.values():
        if cp.codec != "constant":
            assert "plain" in cp.candidates and "zstd" in cp.candidates


def test_plan_json_roundtrip():
    from json_to_parquet_ray.plan import CodecPlan

    t = make_cc_table(200, seed=2)
    plan = plan_from_stats(compute_stats_table(t), t.schema)
    back = CodecPlan.loads(plan.dumps())
    assert {c: p.codec for c, p in back.columns.items()} == \
        {c: p.codec for c, p in plan.columns.items()}


def test_compute_stats_ray_and_distributed_merge(ray_session):
    import ray

    t = make_cc_table(2000, seed=5)
    ds = ray.data.from_arrow(t)
    st1 = compute_stats(ds)
    st2 = compute_stats(ray.data.from_arrow(t), distributed_merge=True,
                        sample_gate=4)
    assert st1["lang"].n == st2["lang"].n == 2000
    assert round(st1["lang"].cardinality) == round(st2["lang"].cardinality)
    assert st1["warc_ts"].min_val == st2["warc_ts"].min_val
    # distributed merge must still carry some sample for the planner
    assert st2["text"].sample or st2["lang"].sample


def test_sample_gate_counters_isolated_per_epoch():
    """Regression (round-4 review F4): two stats jobs interleaving batches
    on one worker must each keep their own gate counter — a shared slot
    reset on every epoch flip, disabling gating for both."""
    import pickle

    from json_to_parquet_ray import stats

    b = pa.table({"x": pa.array([1, 2, 3])})
    kept = {"A": 0, "B": 0}
    for _ in range(40):
        for ep in ("A", "B"):
            t = stats.stats_partial_batch(b, sample_gate=10, gate_epoch=ep)
            if pickle.loads(t.column("partial")[0].as_py()).sample:
                kept[ep] += 1
    assert kept == {"A": 4, "B": 4}, kept
    # eviction keeps the table bounded without touching the live epoch
    for i in range(200):
        stats.stats_partial_batch(b, sample_gate=2, gate_epoch=f"e{i}")
    assert len(stats._GATE_CTRS) <= stats._GATE_MAX_EPOCHS


def test_null_runs_count_as_one_run():
    """Regression (round-4 review): consecutive nulls are ONE run, so a
    null-run-heavy column is RLE-eligible (avg_run_len >= 2)."""
    arr = pa.array([1, 1] + [None] * 1000 + [2, 2], pa.int64())
    st = column_stats_partial(arr, "x")
    assert st.runs == 3
    assert st.avg_run_len > 300


def test_sample_cap_bounds_nested_and_huge_values():
    """Regression (round-4 review): the sample byte cap must hold for
    nested values (recursive weight) and for a single huge first value
    (truncated, not shipped whole); long string min/max are bounded."""
    import pickle

    from json_to_parquet_ray import stats as S

    big_lists = pa.array([["x" * 100_000] * 10] * 50,
                         pa.list_(pa.string()))
    st = column_stats_partial(big_lists, "l")
    assert len(pickle.dumps(st)) < 4 * S.SAMPLE_BYTES_CAP

    huge = pa.array(["y" * 10_000_000, "a"])
    st2 = column_stats_partial(huge, "s")
    assert len(pickle.dumps(st2)) < 4 * S.SAMPLE_BYTES_CAP
    assert len(st2.max_val) <= S._STAT_VALUE_CAP


def test_dict_values_codec_gate_uses_value_bytes():
    """Regression (round-4 review): avg-len for the dict values_codec
    gate uses VALUE bytes, not nbytes (offsets+validity) — 12-byte
    values stay on the plain dictionary path."""
    vals = pa.array([f"v{i % 40:010d}" for i in range(5000)])  # 11 chars
    st = column_stats_partial(vals, "s")
    assert st.char_bytes == 11 * 5000
    plan = plan_column(st, pa.string())
    if plan.codec == "dict":
        assert plan.kwargs.get("values_codec", "plain") == "plain"


def test_hash_unsupported_type_never_plans_constant():
    """A decimal column (no stable hash → empty KMV → cardinality 0.0)
    whose stride sample is constant must NOT plan 'constant' — that
    plan failed encode-time re-verification and fell back to
    uncompressed plain on every chunk."""
    from decimal import Decimal

    import pyarrow as pa

    from json_to_parquet_ray.plan import plan_column
    from json_to_parquet_ray.stats import column_stats_partial

    vals = [Decimal("1.00")] * 100_000
    vals[77_777] = Decimal("2.00")  # off-stride: the sample misses it
    arr = pa.array(vals, pa.decimal128(10, 2))
    st = column_stats_partial(arr, "d")
    plan = plan_column(st, arr.type)
    assert plan.codec != "constant", plan


def test_sample_merge_interleaves():
    """Merged samples draw from BOTH partials, not first-wins."""
    import pyarrow as pa

    from json_to_parquet_ray.stats import SAMPLE_CAP, column_stats_partial

    a = column_stats_partial(pa.array(["a"] * 2000, pa.string()), "s")
    b = column_stats_partial(pa.array(["b"] * 2000, pa.string()), "s")
    assert len(a.sample) == SAMPLE_CAP  # precondition: a alone fills the cap
    merged = a.merge(b)
    assert "b" in merged.sample and "a" in merged.sample


def test_sample_byte_cap_counts_utf8_bytes():
    """CJK strings must be capped by UTF-8 bytes, not characters."""
    from json_to_parquet_ray.stats import SAMPLE_BYTES_CAP, _cap_sample

    cjk = "中" * 10_000  # 30 KB utf-8, 10k chars
    capped = _cap_sample([cjk] * 100)
    total = sum(len(v.encode("utf-8")) for v in capped)
    assert total <= SAMPLE_BYTES_CAP + len(cjk.encode("utf-8"))
    assert len(capped) <= SAMPLE_BYTES_CAP // len(cjk.encode("utf-8")) + 1


def _reference_partial(col, name: str) -> ColumnStats:
    """A column's partial stats the obvious way: chunks combined, KMV
    hashes over ``str`` objects, and the whole stride sample converted
    before ``_cap_sample`` cuts it."""
    import pandas as pd

    from json_to_parquet_ray import stats as S

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    ref = column_stats_partial(arr, name)
    vals = arr.drop_null().to_pandas()
    hashes = pd.util.hash_array(np.asarray(vals, dtype=object),
                                categorize=False) if len(vals) else []
    ref.kmv = np.unique(np.asarray(hashes, np.uint64))[:S.KMV_K]
    stride = max(1, len(arr) // S.SAMPLE_CAP)
    picked = arr.take(pa.array(range(0, len(arr), stride))).to_pylist()
    ref.sample = S._cap_sample(picked[:S.SAMPLE_CAP])
    return ref


def test_string_stats_equal_the_reference():
    """Binary-view hashing, a sample converted only as far as the byte
    cap keeps, and a single chunk used as it is give every field of
    the obvious computation: on string, large_string and binary columns
    with multibyte values and nulls, a first sampled value over the cap,
    a total that reaches the cap exactly before an empty value, a slice
    at a nonzero offset, and a multi-chunk column."""
    from json_to_parquet_ray import stats as S

    cap = S.SAMPLE_BYTES_CAP
    rng = np.random.default_rng(5)
    words = ["é", "中文", "naïve", "", "x" * 300, "✓✓", None]
    mixed = [words[i] for i in rng.integers(0, len(words), 3000)]
    cc = make_cc_table(2500, seed=401)
    columns = {
        "string": pa.array(mixed, pa.string()),
        "large_string": pa.array(mixed, pa.large_string()),
        "binary": pa.array([None if v is None else v.encode() for v in mixed],
                           pa.binary()),
        "first_over_cap": pa.array(["ü" * cap, "a", None] * 300),
        "binary_over_cap": pa.array([b"\xff" * (cap + 9), None, b"q"] * 5),
        "exact_cap": pa.array(["x" * (cap - 8), None, "", "y"]),
        "offset_slice": cc.column("text").slice(777, 1400),
        "multi_chunk": pa.chunked_array([cc.column("url").chunk(0)[:900],
                                         pa.array(mixed[:600])]),
        "cc_url": cc.column("url"),
        "cc_lang": cc.column("lang"),
    }
    fields = ("n", "null_count", "nbytes", "runs", "min_val", "max_val",
              "char_bytes", "sample", "sorted_batches", "type_str")
    for name, col in columns.items():
        ref = _reference_partial(col, name)
        table = pa.table({name: col})
        got = [compute_stats_table(table)[name],
               pickle.loads(S.stats_partial_batch(table)["partial"][0].as_py())]
        for st in got:
            for f in fields:
                assert getattr(st, f) == getattr(ref, f), (name, f)
            assert st.kmv.tobytes() == ref.kmv.tobytes(), name
    assert len(_reference_partial(columns["exact_cap"], "e").sample) == 2


def test_plan_optimize_size_mode():
    """optimize='size' scores on sampled ratio alone and offers zstd-19;
    on repetitive long text it must choose a codec whose sampled ratio
    beats the balanced pick's, and the encoded column must round-trip
    exactly. Balanced mode must never pick zstd19 (weighted out and not
    even offered as a candidate there)."""
    import numpy as np

    from json_to_parquet_ray.codecs import decode_array, encode_array
    from json_to_parquet_ray.stats import column_stats_partial

    rng = np.random.default_rng(3)
    words = ["the quick", "brown fox", "jumps over", "lazy dogs",
             "compression", "paragraph about spark and ray data"]
    arr = pa.array([" ".join(words[j] for j in rng.integers(0, 6, 40))
                    for _ in range(400)])
    st = column_stats_partial(arr, "text")

    bal = plan_column(st, arr.type)  # default = balanced
    siz = plan_column(st, arr.type, optimize="size")
    assert bal.codec != "zstd19" and "zstd19" not in bal.candidates
    assert "zstd19" in siz.candidates
    assert siz.est_ratio <= bal.est_ratio + 1e-9
    payload, meta = encode_array(arr, siz.codec, **siz.kwargs)
    back = decode_array(payload, meta)
    assert back.equals(arr.cast(back.type))

    import pytest

    with pytest.raises(ValueError):
        plan_column(st, arr.type, optimize="fastest")


def test_planner_frontier_consistency():
    """COST_WEIGHT holds exactly the labels ``_candidates_for`` can emit
    in either mode: a dead weight or an unweighted candidate fails here
    instead of scoring silently. The general-purpose points are plain,
    zstd and zstd3 (plus zstd19 in size mode); on strings zstd is tried
    before fsst, whose skip gate reads zstd's ratio; and CC chunks of
    both partition sizes plan the known picks."""
    from json_to_parquet_ray.plan import (COST_WEIGHT, _candidates_for,
                                          _resolve_weights)

    _resolve_weights()
    arrays = [pa.array([1] * 50 + [2] * 50, pa.int64()),
              pa.array([1.5] * 50 + [2.5] * 50),
              pa.array(["ab"] * 50 + ["cd"] * 50)]
    generic = {"plain", "zstd", "zstd3", "zstd6", "zstd9", "zstd19", "lz4"}
    emitted = set()
    for mode in ("balanced", "size"):
        for arr in arrays:
            labels = [label for label, _, _ in _candidates_for(
                arr.type, column_stats_partial(arr, "x"), mode)]
            emitted.update(labels)
            assert [lb for lb in labels if lb in generic] == (
                ["plain", "zstd", "zstd3"]
                + (["zstd19"] if mode == "size" else []))
            if pa.types.is_string(arr.type):
                assert labels.index("zstd") < labels.index("fsst")
    assert emitted == set(COST_WEIGHT)

    t = make_cc_table(5000, seed=401)
    for rows in (500, 2500):
        for off in range(0, t.num_rows, rows):
            chunk = t.slice(off, rows)
            plan = plan_from_stats(compute_stats_table(chunk), chunk.schema)
            assert {c: p.codec for c, p in plan.columns.items()} == {
                "html": "zstd3", "text": "zstd3", "url": "zstd",
                "lang": "fsst", "warc_ts": "delta"}, (rows, off)


def test_plan_column_shared_candidates_win_only_strictly():
    """Shared candidates are scored after the chunk's own on the same
    sample and weights: a shared dictionary wins a chunk whose own stats
    offer no dictionary (40 distinct values in 60 rows), and loses the
    tie to the chunk's own dictionary when both encode to the same size.
    A shared FSST table is skipped by the same plausibility gate."""
    from json_to_parquet_ray.codecs import encode_array
    from json_to_parquet_ray.codecs.fsst import FsstEncoder, train

    rng = np.random.default_rng(3)
    pool = [bytes(rng.integers(0, 256, 40, dtype=np.uint8))
            for _ in range(40)]
    rows = pool + [pool[i] for i in rng.integers(0, 40, 20)]
    arr = pa.array([rows[i] for i in rng.permutation(60)], pa.binary())
    st = compute_stats_table(pa.table({"b": arr}))["b"]
    shared = [("dict", "dict", {"values_codec": "plain",
                                "dictionary": pa.array(pool, pa.binary())})]
    own = plan_column(st, arr.type)
    assert own.codec != "dict" and "dict" not in own.candidates
    won = plan_column(st, arr.type, shared=shared)
    assert won.codec == "dict" and won.kwargs is shared[0][2]
    assert won.est_ratio == won.candidates["dict"] < own.est_ratio

    langs = ["en", "de", "fr", "es", "it"]
    arr = pa.array([langs[i] for i in rng.integers(0, 5, 400)])
    st = compute_stats_table(pa.table({"l": arr}))["l"]
    own = plan_column(st, arr.type)
    assert own.codec == "dict" and own.kwargs == {"values_codec": "plain"}
    dictionary = pa.array(sorted(langs))
    assert (len(encode_array(arr, "dict", values_codec="plain",
                             dictionary=dictionary)[0])
            == len(encode_array(arr, "dict", values_codec="plain")[0]))
    tied = plan_column(st, arr.type, shared=[
        ("dict", "dict", {"values_codec": "plain",
                          "dictionary": dictionary})])
    assert (tied.codec, tied.kwargs, tied.est_ratio) == (
        own.codec, own.kwargs, own.est_ratio)

    text = pa.array(["the same sentence, again and again"] * 400)
    st = compute_stats_table(pa.table({"t": text}))["t"]
    enc = FsstEncoder(train(b"the same sentence, again and again"))
    gated = plan_column(st, text.type, shared=[
        ("fsst", "fsst", {"encoder": enc}),
        ("fsst+z", "fsst", {"encoder": enc, "post_zstd": True})])
    assert "fsst" not in gated.candidates
    assert gated.codec == plan_column(st, text.type).codec
