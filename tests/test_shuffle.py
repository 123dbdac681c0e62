"""Unit tests for the skew-aware wide operations (shuffle.py)."""

import pyarrow as pa

from json_to_parquet_ray.shuffle import (
    distinct_values,
    extract_host,
    heavy_hitters,
    salted_group_count,
)


def _skewed_table(n=1000):
    # heavy-hitter value "hot" takes ~60% of rows
    vals = ["hot"] * (n * 6 // 10) + [f"v{i % 37}" for i in range(n * 4 // 10)]
    return pa.table({"k": pa.array(vals, pa.string())})


def test_extract_host():
    t = pa.table({"url": pa.array([
        "https://example.com/a/b", "http://x.org/", "https://y.net",
    ])})
    out = extract_host(t)
    assert out.column("host").to_pylist() == ["example.com", "x.org", "y.net"]


def test_salted_group_count_exact(ray_session):
    import ray

    t = _skewed_table()
    out = salted_group_count(ray.data.from_arrow(t), "k", salt_buckets=4)
    df = out.to_pandas().set_index("value")["count"]
    assert df["hot"] == 600
    assert int(df.sum()) == 1000


def test_heavy_hitters(ray_session):
    import ray

    top = heavy_hitters(ray.data.from_arrow(_skewed_table()), "k", k=3)
    assert top.column("value").to_pylist()[0] == "hot"
    assert top.column("count").to_pylist()[0] == 600


def test_distinct_values_sorted_deterministic(ray_session):
    import ray

    t = pa.table({"k": pa.array(["b", "a", "b", "c", "a"])})
    v1 = distinct_values(ray.data.from_arrow(t), ["k"])["k"]
    v2 = distinct_values(ray.data.from_arrow(t), ["k"])["k"]
    assert v1.to_pylist() == ["a", "b", "c"]
    assert v1.equals(v2)


def test_hash_join_inner_and_left(ray_session):
    import pandas as pd
    import ray

    from json_to_parquet_ray.shuffle import hash_join

    left = pd.DataFrame({"k": [1, 2, 3, 4], "a": ["w", "x", "y", "z"]})
    right = pd.DataFrame({"rk": [2, 2, 3, 9], "b": [20, 21, 30, 90]})
    l_ds, r_ds = ray.data.from_pandas(left), ray.data.from_pandas(right)

    inner = hash_join(l_ds, r_ds, on="k", right_on="rk",
                      num_partitions=4).to_pandas()
    got = sorted(zip(inner["k"], inner["b"]))
    assert got == [(2, 20), (2, 21), (3, 30)]

    lj = hash_join(l_ds, r_ds, on="k", right_on="rk", how="left",
                   num_partitions=4).to_pandas()
    assert len(lj) == 5  # 1 and 4 survive unmatched
    unmatched = lj[lj["b"].isna()]["k"].tolist()
    assert sorted(unmatched) == [1, 4]


def test_hash_join_string_keys(ray_session):
    import pandas as pd
    import ray

    from json_to_parquet_ray.shuffle import hash_join

    left = pd.DataFrame({"name": ["ann", "bob", "cat"], "x": [1, 2, 3]})
    right = pd.DataFrame({"who": ["bob", "cat", "cat", "dan"],
                          "y": [20, 30, 31, 40]})
    out = hash_join(ray.data.from_pandas(left), ray.data.from_pandas(right),
                    on="name", right_on="who", num_partitions=4).to_pandas()
    got = sorted(zip(out["name"], out["y"]))
    assert got == [("bob", 20), ("cat", 30), ("cat", 31)]


def test_hash_join_big_int64_keys_exact(ray_session):
    """Keys above 2^53 must not merge through float64 — distinct int64
    keys differing by 1 ulp-of-float53 stay distinct."""
    import pandas as pd
    import ray

    from json_to_parquet_ray.shuffle import hash_join

    k1, k2 = 2**53, 2**53 + 1  # equal as float64, distinct as int64
    left = pd.DataFrame({"k": [k1, k2], "a": ["one", "two"]})
    right = pd.DataFrame({"rk": [k2], "b": [99]})
    out = hash_join(ray.data.from_pandas(left), ray.data.from_pandas(right),
                    on="k", right_on="rk", num_partitions=2).to_pandas()
    assert len(out) == 1 and out.iloc[0]["a"] == "two"
    assert str(out["k"].dtype) in ("int64", "Int64")  # exact, never float
    assert int(out.iloc[0]["k"]) == k2


def test_hash_join_null_key_does_not_corrupt_big_int64(ray_session):
    """A null in an int64 key column must not force a float64 round-trip:
    keys >= 2^53 have to hash identically on both sides even when one
    side's column carries a null (regression: the float64 path bucketed
    2^60+7 differently per side and the match silently vanished)."""
    import pandas as pd
    import ray

    from json_to_parquet_ray.shuffle import hash_join

    big = 2**60 + 7
    left = pd.DataFrame({"k": pd.array([big, None, 5], dtype="Int64"),
                         "a": ["hit", "null", "five"]})
    right = pd.DataFrame({"rk": pd.array([big], dtype="Int64"), "b": [1]})
    out = hash_join(ray.data.from_pandas(left), ray.data.from_pandas(right),
                    on="k", right_on="rk", num_partitions=4).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["a"] == "hit" and int(out.iloc[0]["k"]) == big


def test_hash_join_hot_key_salting_balances_reducers(ray_session):
    """A 90%-one-key probe side must not land on a single reducer: hot
    keys salt across sub-buckets (build rows replicated), and the join
    output still matches pandas exactly."""
    import pandas as pd
    import ray

    from json_to_parquet_ray.shuffle import hash_join

    n = 4000
    keys = [7] * (9 * n // 10) + list(range(100, 100 + n // 10))
    left = pd.DataFrame({"k": keys, "a": range(n)})
    right = pd.DataFrame({"k": [7] + list(range(100, 100 + n // 10)),
                          "b": range(1 + n // 10)})
    lds = ray.data.from_pandas(left).repartition(8)
    rds = ray.data.from_pandas(right)

    out = hash_join(lds, rds, on="k", num_partitions=4,
                    salt_threshold=100, salt_buckets=4).to_pandas()
    want = left.merge(right, on="k")
    assert len(out) == len(want)
    assert out["a"].sum() == want["a"].sum()
    assert sorted(out.columns) == sorted(want.columns)

    # reducer balance: the hot key's PROBE rows spread over 4 sub-buckets
    tagged = hash_join(lds, rds, on="k", num_partitions=4,
                       salt_threshold=100, salt_buckets=4,
                       _return_tagged=True).to_pandas()
    probe_hot = tagged[(tagged["_side"] == 0) & (tagged["k"] == 7)]
    sizes = probe_hot.groupby("_bucket").size()
    assert len(sizes) == 4  # spread, not one giant bucket
    assert sizes.max() <= 2 * sizes.min()
    # and every sub-bucket got its replica of the matching build row
    build_hot = tagged[(tagged["_side"] == 1) & (tagged["k"] == 7)]
    assert set(build_hot["_bucket"]) == set(probe_hot["_bucket"])


def test_asof_join_matches_pandas(ray_session):
    """Distributed co-partitioned as-of join == global pd.merge_asof,
    including keys that exist on only one side (empty per-bucket sides)."""
    import numpy as np
    import pandas as pd
    import ray

    from json_to_parquet_ray.shuffle import asof_join

    rng = np.random.default_rng(11)
    left = pd.DataFrame({
        "uid": rng.integers(0, 12, 300),
        "t": rng.integers(0, 1000, 300).astype("int64"),
        "ev": range(300),
    })
    right = pd.DataFrame({
        "cid": rng.integers(5, 20, 80),  # uids 0-4 have no right rows
        "ot": rng.integers(0, 1000, 80).astype("int64"),
        "o": range(80),
    })
    got = asof_join(ray.data.from_pandas(left).repartition(5),
                    ray.data.from_pandas(right).repartition(3),
                    by="uid", on="t", right_by="cid", right_on="ot",
                    num_partitions=4).to_pandas()
    want = pd.merge_asof(left.sort_values("t", kind="mergesort"),
                         right.sort_values("ot", kind="mergesort"),
                         left_on="t", right_on="ot",
                         left_by="uid", right_by="cid",
                         direction="backward")
    got = got.sort_values("ev").reset_index(drop=True)
    want = want.sort_values("ev").reset_index(drop=True)
    assert len(got) == len(want) == 300
    pd.testing.assert_series_equal(
        got["o"].astype("float64"), want["o"].astype("float64"),
        check_names=False)


def test_hash_join_randomized_vs_pandas(ray_session):
    """Randomized equivalence: salted distributed join == pd.merge over
    mixed-skew int keys, across join types and partition counts."""
    import numpy as np
    import pandas as pd
    import ray

    from json_to_parquet_ray.shuffle import hash_join

    rng = np.random.default_rng(21)
    for trial, how in [(0, "inner"), (1, "left"), (2, "inner")]:
        n = int(rng.integers(200, 1500))
        # zipf-ish skew: a few hot keys + a long tail
        keys = np.where(rng.random(n) < 0.4, rng.integers(0, 3, n),
                        rng.integers(0, n, n))
        left = pd.DataFrame({"k": keys, "a": rng.integers(0, 100, n)})
        m = int(rng.integers(50, 400))
        right = pd.DataFrame({"k": rng.integers(0, max(n // 2, 5), m),
                              "b": rng.integers(0, 100, m)})
        got = hash_join(
            ray.data.from_pandas(left).repartition(int(rng.integers(1, 7))),
            ray.data.from_pandas(right),
            on="k", how=how, num_partitions=int(rng.integers(2, 9)),
            salt_threshold=50, salt_buckets=int(rng.integers(2, 5))
        ).to_pandas()
        want = left.merge(right, on="k", how=how)
        assert len(got) == len(want), (trial, how)

        def canon(df):
            df = df.fillna(-1)
            return (df.astype({c: "int64" for c in ("k", "a", "b")})
                    .groupby(["k", "a", "b"]).size().sort_index())

        assert canon(got).equals(canon(want)), (trial, how)


def test_asof_join_forward_direction(ray_session):
    import numpy as np
    import pandas as pd
    import ray

    from json_to_parquet_ray.shuffle import asof_join

    rng = np.random.default_rng(3)
    left = pd.DataFrame({"u": rng.integers(0, 6, 150),
                         "t": rng.integers(0, 500, 150).astype("int64"),
                         "i": range(150)})
    right = pd.DataFrame({"u": rng.integers(0, 6, 60),
                          "t2": rng.integers(0, 500, 60).astype("int64"),
                          "v": range(60)})
    got = asof_join(ray.data.from_pandas(left),
                    ray.data.from_pandas(right), by="u", on="t",
                    right_on="t2", direction="forward",
                    num_partitions=3).to_pandas()
    want = pd.merge_asof(left.sort_values("t", kind="mergesort"),
                         right.sort_values("t2", kind="mergesort"),
                         left_on="t", right_on="t2", by="u",
                         direction="forward")
    got = got.sort_values("i").reset_index(drop=True)
    want = want.sort_values("i").reset_index(drop=True)
    pd.testing.assert_series_equal(got["v"].astype("float64"),
                                   want["v"].astype("float64"),
                                   check_names=False)


def test_hash_join_mostly_null_keys_with_salting(ray_session):
    """A mostly-null key column must not poison the hot-key census or the
    salting path; null keys keep pandas merge semantics."""
    import pandas as pd
    import ray

    from json_to_parquet_ray.shuffle import hash_join

    left = pd.DataFrame({"k": pd.array([None] * 900 + [1] * 100,
                                       dtype="Int64"),
                         "a": range(1000)})
    right = pd.DataFrame({"k": pd.array([1, 2, None], dtype="Int64"),
                          "b": [10, 20, 30]})
    got = hash_join(ray.data.from_pandas(left).repartition(4),
                    ray.data.from_pandas(right), on="k",
                    num_partitions=4, salt_threshold=50,
                    salt_buckets=4).to_pandas()
    want = left.merge(right, on="k")
    assert len(got) == len(want)
    assert got["b"].sum() == want["b"].sum()


def test_hash_join_null_cobucketed_with_big_keys(ray_session):
    """A genuine null sharing a bucket with int64 keys >= 2^53 must not
    force a float64 round-trip inside the per-bucket merge (distinct
    keys silently merged; key values corrupted)."""
    import pandas as pd
    import ray

    from json_to_parquet_ray.shuffle import hash_join

    k1, k2 = 2**53, 2**53 + 1
    left = pd.DataFrame({"k": pd.array([k1, k2, None], dtype="Int64"),
                         "a": [1, 2, 3]})
    right = pd.DataFrame({"k": pd.array([k2], dtype="Int64"), "b": [9]})
    # num_partitions=1 co-buckets everything, nulls included
    out = hash_join(ray.data.from_pandas(left),
                    ray.data.from_pandas(right), on="k",
                    num_partitions=1, salt_threshold=None).to_pandas()
    assert len(out) == 1
    assert int(out.iloc[0]["k"]) == k2 and out.iloc[0]["a"] == 2


def test_keyed_window_bucket_granularity_and_equivalence(ray_session):
    """keyed_window: (a) result equals a driver-side pandas groupby
    cumsum regardless of num_buckets; (b) ALL rows of a key reach ONE
    callback invocation (the partitioning contract); (c) null keys
    co-locate instead of crashing."""
    import numpy as np
    import pandas as pd
    import ray

    from json_to_parquet_ray.shuffle import keyed_window

    rng = np.random.default_rng(7)
    n = 5000
    df = pd.DataFrame({
        "user": rng.integers(0, 197, n).astype("float64"),
        "ts": rng.permutation(n).astype("int64"),
        "v": rng.integers(-50, 50, n).astype("int64"),
    })
    df.loc[df.index % 97 == 0, "user"] = None  # null keys
    want = df.sort_values(["ts"]).copy()
    want["run"] = want.groupby("user", dropna=False)["v"].cumsum()
    want = want.sort_values(["ts"]).reset_index(drop=True)

    def running(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user", "ts"])
        g["run"] = g.groupby("user", dropna=False)["v"].cumsum()
        # stamp the callback's identity: every row in this frame shares it
        g["cb"] = int(g["ts"].min())
        return g

    for nb in (1, 5, 32):
        out = keyed_window(ray.data.from_pandas(df), "user", running,
                           num_buckets=nb).to_pandas()
        got = out.sort_values(["ts"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got[["user", "ts", "v", "run"]],
            want[["user", "ts", "v", "run"]], check_like=True)
        # contract: a key's rows never split across two callbacks
        split = got.groupby("user", dropna=False)["cb"].nunique()
        assert (split == 1).all(), split[split > 1]


def test_distinct_values_one_pass_over_every_type(ray_session):
    """One call builds the distinct set of a string column with nulls, a
    binary column and an int64 column holding 2^53, 2^53+1 and nulls.
    Each equals its sorted ``pc.unique().drop_null()``, type included,
    on both the driver-merge path and the salted-groupby path.
    ``batch_cap`` bounds what one batch ships."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    rng = np.random.default_rng(11)
    big = 2**53
    n = 3000
    t = pa.table({
        "s": pa.array([None if i % 17 == 0 else f"u{int(v)}"
                       for i, v in enumerate(rng.integers(0, 40, n))]),
        "b": pa.array([bytes([int(v)]) * 3 for v in rng.integers(0, 30, n)],
                      pa.binary()),
        "i": pa.array([[big, big + 1, None, int(v)][i % 4]
                       for i, v in enumerate(rng.integers(0, 9, n))],
                      pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(6)
    # a cap of 1 partial row forces the salted dedup
    for cap in (100_000, 1):
        got = distinct_values(ds, ["s", "b", "i"], driver_merge_cap=cap)
        for c in t.column_names:
            u = pc.unique(t.column(c)).drop_null()
            assert got[c].equals(u.take(pc.array_sort_indices(u))), (cap, c)
            assert got[c].type == t.schema.field(c).type
    assert got["i"].to_pylist()[-2:] == [big, big + 1]
    # one batch ships batch_cap + 1 uniques of each column
    capped = distinct_values(ray.data.from_arrow(t), ["s", "b", "i"],
                             batch_cap=3)
    assert {c: len(v) for c, v in capped.items()} == {"s": 4, "b": 4, "i": 4}


def test_distinct_values_salts_only_past_the_merge_cap(ray_session,
                                                       monkeypatch, tmp_path):
    """Salts feed only the salted groupby: a driver-merge call never
    calls ``_salts``, a call past ``driver_merge_cap`` does, and both
    return the same values. A batch holding none of the columns adds
    nothing."""
    import pyarrow.compute as pc
    import ray

    from json_to_parquet_ray import shuffle

    calls = tmp_path / "salts"
    real = shuffle._salts

    def spy(values, salt_buckets):  # runs in Ray workers: log to a file
        with open(calls, "a") as f:
            f.write(f"{len(values)}\n")
        return real(values, salt_buckets)

    monkeypatch.setattr(shuffle, "_salts", spy)
    t = pa.table({"s": pa.array(["é", None, "a", "中文", "a"] * 40),
                  "b": pa.array([b"\xff", b"", None, b"x", b"x"] * 40)})
    ds = ray.data.from_arrow([t.slice(0, 100), pa.table({"z": [1, 2]}),
                              t.slice(100)])
    got = distinct_values(ds, ["s", "b"])
    assert not calls.exists()
    salted = distinct_values(ds, ["s", "b"], driver_merge_cap=1)
    assert calls.exists()
    for c in ("s", "b"):
        u = pc.unique(t.column(c)).drop_null()
        assert got[c].equals(u.take(pc.array_sort_indices(u)))
        assert salted[c].equals(got[c])


def test_window_queries_null_user_oracle_parity(ray_session, tmp_path):
    """Regression (round-4 review F3): events with NULL user_id must get
    real session counts / running sums — SQL window PARTITION BY and
    GROUP BY keep one NULL group, so the pandas callbacks inside
    q_sessionize / q_user_running_value must use dropna=False and
    null-aware same-user masks, not silently drop or NaN those rows."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from json_to_parquet_ray.queries import ORACLE_SQL, QUERIES

    rng = np.random.default_rng(13)
    n = 800
    ts0 = pd.Timestamp("2024-01-01")
    ev = pd.DataFrame({
        "event_id": np.arange(n, dtype="int64"),
        "ts": ts0 + pd.to_timedelta(
            np.cumsum(rng.integers(1, 4000, n)), unit="s"),
        "user_id": pd.array(
            [None if i % 11 == 0 else int(rng.integers(0, 23))
             for i in range(n)], dtype="Int64"),
        "event_type": "click",
        "value": np.round(rng.uniform(-5, 5, n), 2),
        "props": "{}",
    })
    pq.write_table(pa.Table.from_pandas(ev, preserve_index=False),
                   str(tmp_path / "events.parquet"))

    con = duckdb.connect()
    con.register("events", ev)
    for qname in ("sessionize", "user_running_value"):
        got = QUERIES[qname](str(tmp_path))
        want = con.execute(ORACLE_SQL[qname]).df()
        got = got[sorted(got.columns)].reset_index(drop=True)
        want = want[sorted(want.columns)].reset_index(drop=True)
        for c in got.columns:
            if got[c].dtype != want[c].dtype:
                want[c] = want[c].astype(got[c].dtype)
        pd.testing.assert_frame_equal(got, want, check_like=True), qname


def test_extract_host_edge_forms():
    """Round-4 review: userinfo/port/query must not leak into the host,
    uppercase schemes and scheme-relative urls must parse, and hosts
    lowercase (one real host must not split across census variants)."""
    t = pa.table({"url": pa.array([
        "https://example.com?q=1",
        "https://user:pw@example.com:8080/x",
        "HTTP://X.org/",
        "//cdn.example.com/a",
        "https://MiXeD.Case.NET/p",
        "not a url",
    ])})
    out = extract_host(t)
    assert out.column("host").to_pylist() == [
        "example.com", "example.com", "x.org", "cdn.example.com",
        "mixed.case.net", "not a url"]


def test_distinct_and_heavy_hitters_exact_big_ints(ray_session):
    """Round-4 review: null-bearing int64 columns must survive the
    driver merge WITHOUT a float64 round-trip — 2^53 and 2^53+1 stay
    distinct and the output type stays int64."""
    import ray

    from json_to_parquet_ray.shuffle import distinct_values, heavy_hitters

    big = 2**53
    vals = [big, big + 1, None, 7] * 50
    ds = ray.data.from_arrow(pa.table({"k": pa.array(vals, pa.int64())}))
    d = distinct_values(ds, ["k"])["k"]
    assert d.type == pa.int64()
    assert d.to_pylist() == [7, big, big + 1]
    # overflow path (cap forces the salted-groupby dedup)
    d2 = distinct_values(ds.repartition(4), ["k"], driver_merge_cap=1)["k"]
    assert d2.equals(d)
    top = heavy_hitters(ds, "k", k=4)
    got = {r["value"]: r["count"] for r in top.to_pylist()}
    assert got[big] == 50 and got[big + 1] == 50
    assert top.column("value").type == pa.int64()


def test_key_buckets_uint64_and_float_edges(ray_session):
    """Round-4 review: uint64 ids above 2^63 must hash (modular wrap,
    not ArrowInvalid), and float keys bucket by canonical bits:
    0.0 == -0.0 co-bucket, NaNs co-bucket."""
    from json_to_parquet_ray.shuffle import key_buckets

    u = pa.chunked_array([pa.array([2**63 + 5, 1, 2**64 - 1], pa.uint64())])
    b = key_buckets(u, 16)
    assert len(b) == 3 and ((0 <= b) & (b < 16)).all()
    f = pa.chunked_array([pa.array(
        [0.0, -0.0, float("nan"), float("nan"), -1.5, None])])
    bf = key_buckets(f, 16)
    assert bf[0] == bf[1]  # ±0 compare equal -> same bucket
    assert bf[2] == bf[3]  # canonical NaN
    assert ((0 <= bf) & (bf < 16)).all()


def test_keyed_encode_empty_and_rerun_atomicity(ray_session, tmp_path):
    """Round-4 review: empty input returns a zero summary (no KeyError,
    and the previous generation is REPLACED only at commit time);
    keyed_read on a missing key returns a TYPED empty dataset."""
    import ray

    from json_to_parquet_ray.pipelines.keyed_store import (
        keyed_encode,
        keyed_read,
    )

    out = str(tmp_path / "ks")
    t = pa.table({"k": pa.array(["a", "b", "a"]),
                  "id": pa.array([1, 2, 3], pa.int64())})
    s1 = keyed_encode(ray.data.from_arrow(t), out, "k", "id")
    assert s1["rows"] == 3
    # missing-key read: typed empty DATASET — schema carries the store's
    # columns (Ray's to_pandas drops columns for zero-row datasets, so
    # the schema is the level of the contract)
    ds0, io0 = keyed_read(out, keys=["zz"])
    assert ds0.count() == 0
    assert set(ds0.schema().names) == {"k", "id"}
    assert io0 == {"chunks_read": 0, "chunks_total": 2}
    # empty re-encode: no crash, store is now the (empty) new generation
    empty = ray.data.from_arrow(t.slice(0, 0))
    s2 = keyed_encode(empty, out, "k", "id")
    assert s2 == {"partitions": 0, "hot_keys": [], "rows": 0,
                  "chunk_bytes": 0}


def test_keyed_manifest_is_consolidated(ray_session, tmp_path):
    """keyed_encode commits its generation as ONE index file (no
    per-partition JSONs), and an unreadable index raises instead of
    reading as an empty store."""
    import glob as _glob
    import os

    import pytest
    import ray

    from json_to_parquet_ray.pipelines.keyed_store import (
        _manifest_dir,
        keyed_encode,
        keyed_manifest,
    )

    out = str(tmp_path / "ks_idx")
    t = pa.table({"id": pa.array(range(60), pa.int64()),
                  "k": pa.array(["a", "b", "c"] * 20)})
    keyed_encode(ray.data.from_arrow(t), out, "k", "id")
    mdir = _manifest_dir(out)
    assert os.path.exists(os.path.join(mdir, "index.parquet"))
    assert not _glob.glob(os.path.join(mdir, "*.json"))
    assert {r["key"] for r in keyed_manifest(out)} == {"a", "b", "c"}

    with open(os.path.join(mdir, "index.parquet"), "wb") as f:
        f.write(b"garbage")
    with pytest.raises(ValueError, match="cannot be read"):
        keyed_manifest(out)


def test_key_buckets_integer_floats_distribute_and_cobucket(ray_session):
    """Integer-valued float64 keys (int ids stored as float because the
    column carries nulls) must spread across buckets — the old single
    multiply left bits 33+ zero and sent 100% of them to bucket 0 —
    and must co-bucket with their int64 twins so mixed-type joins keep
    their matches."""
    from collections import Counter

    import numpy as np

    from json_to_parquet_ray.shuffle import key_buckets

    b = key_buckets(pa.array(np.arange(20_000).astype(float)), 8)
    counts = Counter(b.tolist())
    assert len(counts) == 8
    assert max(counts.values()) < 20_000 * 0.25  # no collapsed bucket
    ints = pa.array([5, 17, 2**40 + 3], pa.int64())
    floats = pa.array([5.0, 17.0, float(2**40 + 3)], pa.float64())
    assert (key_buckets(ints, 16) == key_buckets(floats, 16)).all()


def test_asof_join_null_ordering_rows_dropped(ray_session):
    """A null ordering value can never match as-of; such rows drop
    instead of crashing pd.merge_asof inside a bucket task."""
    import ray

    from json_to_parquet_ray.shuffle import asof_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 1, 2], pa.int64()),
        "ts": pa.array([10, None, 20], pa.int64())}))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 2], pa.int64()),
        "rts": pa.array([5, None, 15], pa.int64()),
        "v": pa.array(["a", "b", "c"], pa.string())}))
    out = asof_join(left, right, on="ts", right_on="rts", by="k",
                    right_by="k").to_pandas().sort_values("k")
    assert out["ts"].tolist() == [10, 20]
    assert out["v"].tolist() == ["a", "c"]


def test_extract_host_ipv6_brackets():
    t = pa.table({"url": pa.array([
        "https://[2001:db8::1]:443/p",
        "http://[::1]/x",
    ])})
    out = extract_host(t)
    assert out.column("host").to_pylist() == ["[2001:db8::1]", "[::1]"]
