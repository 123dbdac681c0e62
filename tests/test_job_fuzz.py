"""Property-based fuzz of the WHOLE encode job (not just the chunk
codec layer, which tests/test_chunk_fuzz.py covers): arbitrary small
tables go parquet → ``encode_job`` (fragment slicing, per-chunk codec
auto-selection, manifest, zone maps) → ``decode_dataset`` and must come
back value-identical; string/int zone filters must equal a post-filter
of the source (pruning changes I/O, never answers)."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from json_to_parquet_ray.pipelines.encode_job import decode_dataset, encode_job

# no surrogates (not valid UTF-8); lengths past the 64-char zone-map
# truncation to exercise _string_upper_bound rounding
_text = st.text(max_size=120)
# deeper runs: FUZZ_EXAMPLES=75 python -m pytest tests/test_job_fuzz.py
_EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES", "8"))
_n = st.integers(min_value=0, max_value=120)


@st.composite
def job_tables(draw):
    n = draw(_n)
    cols = {"rid": pa.array(range(n), pa.int64())}
    cols["i"] = pa.array(
        draw(st.lists(st.one_of(st.none(), st.integers(-(2**60), 2**60)),
                      min_size=n, max_size=n)), pa.int64())
    cols["s"] = pa.array(
        draw(st.lists(st.one_of(st.none(), _text), min_size=n, max_size=n)),
        pa.string())
    # near-constant column to push the planner at dict/rle/constant
    cols["k"] = pa.array(
        draw(st.lists(st.sampled_from(["en", "en", "en", "de", None]),
                      min_size=n, max_size=n)), pa.string())
    if draw(st.booleans()):
        # mix raw doubles with 2-decimal values so the planner's alp
        # candidate wins some chunks and loses others
        cols["f"] = pa.array(
            draw(st.lists(st.one_of(
                st.none(),
                st.floats(allow_nan=False, width=64),
                st.integers(-10**6, 10**6).map(lambda v: v / 100.0)),
                min_size=n, max_size=n)), pa.float64())
    if draw(st.booleans()):
        cols["t"] = pa.array(
            draw(st.lists(st.one_of(st.none(), st.integers(0, 2**48)),
                          min_size=n, max_size=n)), pa.timestamp("us"))
    return pa.table(cols)


def _roundtrip(tmp_base, tag, t, row_group_size, max_rows_per_partition,
               consolidated=False, both_sides=None):
    src = os.path.join(tmp_base, f"{tag}.parquet")
    out = os.path.join(tmp_base, f"{tag}_enc")
    pq.write_table(t, src, row_group_size=row_group_size)
    # bloom_columns="auto": every fuzz case also exercises filter build
    # over arbitrary unicode/ints/nulls, decode-compat with filter
    # sections present, and (in the zone/eq fuzz) bloom pruning —
    # pruning must change I/O only, never answers
    encode_job(src, out, shared_dict_columns=None, bloom_columns="auto",
               max_rows_per_partition=max_rows_per_partition)
    if consolidated:
        # sealed-index reads must be answer-identical for arbitrary
        # schemas
        from json_to_parquet_ray.manifest import consolidate

        consolidate(out)
    if not t.num_rows:
        return src, out, decode_dataset(out)

    def read():
        return pa.Table.from_pylist(
            sorted(decode_dataset(out).take_all(), key=lambda r: r["rid"]),
            schema=t.schema)

    if both_sides is None:
        return src, out, read()
    # the one-task case and the distributed scan give the same rows
    one, scan = both_sides(read)
    assert scan.equals(one)
    return src, out, one


@settings(max_examples=_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(t=job_tables(), rgs=st.sampled_from([7, 50, 128]),
       mrpp=st.sampled_from([None, 13, 64]), con=st.booleans())
def test_encode_job_roundtrip_fuzz(ray_session, tmp_path_factory,
                                   both_sides, t, rgs, mrpp, con):
    base = str(tmp_path_factory.mktemp("jobfuzz"))
    if t.num_rows == 0:
        # empty input: nothing to encode, decode of an empty store is empty
        src = os.path.join(base, "e.parquet")
        out = os.path.join(base, "e_enc")
        pq.write_table(t, src, row_group_size=rgs)
        encode_job(src, out, shared_dict_columns=None,
                   max_rows_per_partition=mrpp)
        assert decode_dataset(out).count() == 0
        return
    _, _, got = _roundtrip(base, "t", t, rgs, mrpp, consolidated=con,
                           both_sides=both_sides if con else None)
    assert got.equals(t)


@settings(max_examples=_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(t=job_tables(), data=st.data())
def test_zone_filter_fuzz_matches_post_filter(ray_session, tmp_path_factory,
                                              t, data):
    if t.num_rows == 0:
        return
    base = str(tmp_path_factory.mktemp("zonefuzz"))
    _, out, _ = _roundtrip(base, "z", t, 16, None,
                           consolidated=data.draw(st.booleans()))
    col = data.draw(st.sampled_from(["i", "s", "k"]))
    vals = [v for v in t.column(col).to_pylist() if v is not None]
    pool = st.sampled_from(sorted(set(vals))) if vals else st.nothing()
    lo = data.draw(st.one_of(st.none(), pool)) if vals else None
    hi = data.draw(st.one_of(st.none(), pool)) if vals else None
    if lo is None and hi is None:
        return
    rows = decode_dataset(out, zone_filter={col: (lo, hi)}).take_all()
    got = sorted(r["rid"] for r in rows)
    want = sorted(
        rid for rid, v in zip(t.column("rid").to_pylist(),
                              t.column(col).to_pylist())
        if v is not None
        and (lo is None or v >= lo) and (hi is None or v <= hi))
    assert got == want, (col, lo, hi)


@settings(max_examples=_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(t=job_tables(), data=st.data())
def test_bloom_eq_lookup_fuzz_matches_post_filter(ray_session,
                                                  tmp_path_factory, t, data):
    """Equality decode (the bloom-consulting path) over arbitrary fuzz
    values — present ones (chunk survives or FPs through, rows exact)
    and absent ones (usually every chunk bloom-rejects, zero rows). The
    invariant: identical answers to a driver-side post-filter."""
    if t.num_rows == 0:
        return
    base = str(tmp_path_factory.mktemp("bloomfuzz"))
    _, out, _ = _roundtrip(base, "b", t, 16, None)
    col = data.draw(st.sampled_from(["i", "s", "k"]))
    vals = [v for v in t.column(col).to_pylist() if v is not None]
    absent = (st.integers(-(2**60), 2**60) if col == "i" else _text)
    pool = st.one_of(st.sampled_from(sorted(set(vals))), absent) \
        if vals else absent
    if data.draw(st.booleans()):
        # single-value equality: (v, v) range form
        v = data.draw(pool)
        zf, wanted = (v, v), {v}
    else:
        # IN-list form: mixed present/absent values (list = value set)
        vs = data.draw(st.lists(pool, min_size=1, max_size=5))
        zf, wanted = list(vs), set(vs)
    rows = decode_dataset(out, zone_filter={col: zf}).take_all()
    got = sorted(r["rid"] for r in rows)
    want = sorted(rid for rid, x in zip(t.column("rid").to_pylist(),
                                        t.column(col).to_pylist())
                  if x in wanted and x is not None)
    assert got == want, (col, zf)


# ------------------------------------------------- text-op fuzz vs naive

_para_vocab = st.sampled_from(
    ["dup one", "dup two", "unique %d", "", "x", "multi word paragraph"])


@settings(max_examples=_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_paragraph_dedup_vs_naive(ray_session, data):
    """Random paragraph corpora (dup-heavy tiny vocab + uniques + empties)
    must match the naive counter reference for random min_count."""
    import ray

    from json_to_parquet_ray.pipelines.dedup import paragraph_dedup

    n = data.draw(st.integers(0, 40))
    docs = []
    for i in range(n):
        ps = data.draw(st.lists(_para_vocab, min_size=1, max_size=5))
        ps = [p % i if "%d" in p else p for p in ps]
        docs.append({"doc_id": i, "text": "\n\n".join(ps)})
    mc = data.draw(st.integers(2, 4))
    nb = data.draw(st.sampled_from([1, 3, 7]))
    if n == 0:
        return  # from_items requires rows; empty corpus covered elsewhere
    out = (paragraph_dedup(ray.data.from_items(docs).repartition(nb),
                           min_count=mc)
           .to_pandas().set_index("doc_id"))

    from collections import Counter
    counts = Counter()
    for d in docs:
        counts.update(d["text"].split("\n\n"))
    for d in docs:
        ps = d["text"].split("\n\n")
        kept = [p for p in ps if counts[p] < mc]
        assert out.loc[d["doc_id"], "text"] == "\n\n".join(kept)
        assert out.loc[d["doc_id"], "n_removed"] == len(ps) - len(kept)


@settings(max_examples=_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_pack_sequences_vs_naive(ray_session, data):
    """Random token counts, budgets and block layouts must equal naive
    sequential concat-and-chunk under the deterministic md5 order."""
    import hashlib

    import ray

    from json_to_parquet_ray.pipelines.pack import pack_sequences

    n = data.draw(st.integers(1, 60))
    docs = [{"doc_id": i,
             "text": " ".join("w" for _ in range(data.draw(
                 st.integers(0, 12))))}
            for i in range(n)]
    budget = data.draw(st.integers(1, 30))
    nb = data.draw(st.sampled_from([1, 4, 9]))
    out = (pack_sequences(ray.data.from_items(docs).repartition(nb),
                          budget=budget)
           .to_pandas().set_index("doc_id"))

    def low64(k):
        return int.from_bytes(hashlib.md5(str(k).encode()).digest()[8:16],
                              "little")

    acc = 0
    for d in sorted(docs, key=lambda d: (low64(d["doc_id"]), d["doc_id"])):
        tok = len(d["text"].split())
        assert out.loc[d["doc_id"], "n_tokens"] == tok
        assert out.loc[d["doc_id"], "seq_id"] == acc // budget
        acc += tok
