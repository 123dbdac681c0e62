"""End-to-end encode pipeline tests: bit-identical round-trip, column
pruning, resume-from-manifest, shared dictionaries, size gate vs the
pyarrow Parquet default writer (SURVEY.md §5.2 items 1, 4, 6)."""

import glob
import io
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from conftest import completed_partitions
from json_to_parquet_ray.encode import (
    decode_table,
    encode_table,
    read_chunk_header,
)
from json_to_parquet_ray.fixtures import make_cc_table, stress_tables, write_cc_parquet
from json_to_parquet_ray.manifest import effective_records, load_manifest
from json_to_parquet_ray.pipelines.encode_job import (
    decode_dataset,
    encode_job,
    list_fragments,
    verify_job,
)


def test_encode_table_roundtrip_and_pruning():
    t = make_cc_table(800, seed=3)
    blob, header = encode_table(t)
    assert decode_table(blob, verify_crc=True).equals(t)
    sub = decode_table(blob, columns=["lang", "warc_ts"])
    assert sub.equals(t.select(["lang", "warc_ts"]))


@pytest.mark.parametrize("codec", ["zstd6", "zstd9", "lz4"])
def test_retired_generic_codecs_still_decode(codec):
    """zstd6, zstd9 and lz4 left the planner's frontier but stay
    registered: a chunk written with them, as older stores hold, decodes
    bit-identically."""
    from json_to_parquet_ray.plan import CodecPlan, ColumnPlan

    t = make_cc_table(600, seed=5)
    blob, header = encode_table(t, CodecPlan(
        {c: ColumnPlan(c, codec) for c in t.column_names}))
    assert {c["codec"] for c in header["columns"]} == {codec}
    assert decode_table(blob, verify_crc=True).equals(t)


def test_encode_stress_tables():
    for name, t in stress_tables().items():
        blob, _ = encode_table(t)
        assert decode_table(blob).equals(t), name


def test_size_gate_vs_pyarrow_parquet_default():
    """North-rule size gate: ≤ the reference Parquet encoder's output
    (pyarrow default writer is the sandbox stand-in, BASELINE.md)."""
    t = make_cc_table(3000, seed=42)
    blob, _ = encode_table(t)
    buf = io.BytesIO()
    pq.write_table(t, buf)
    assert len(blob) <= buf.tell()


@pytest.fixture()
def cc_parquet(tmp_path):
    path = str(tmp_path / "cc.parquet")
    write_cc_parquet(path, 2000, seed=42, row_group_size=500)  # 4 row groups
    return path


def test_encode_job_roundtrip(ray_session, cc_parquet, tmp_path):
    out = str(tmp_path / "enc")
    summary = encode_job(cc_parquet, out, shared_dict_columns=None)
    assert summary["partitions_encoded"] == 4
    assert summary["shared_plan"] is None  # 4 fragments: no sample to take
    assert summary["ratio"] < 0.7
    ver = verify_job(out)
    assert ver == {"partitions": 4, "ok": 4, "failed": []}
    # streaming decode matches the source
    decoded = decode_dataset(out).take_all()
    src = pq.read_table(cc_parquet)
    assert len(decoded) == src.num_rows


def test_encode_job_resume(ray_session, cc_parquet, tmp_path):
    from json_to_parquet_ray.manifest import load_manifest as lm
    from json_to_parquet_ray.manifest import record_path

    out = str(tmp_path / "enc")
    encode_job(cc_parquet, out, shared_dict_columns=None)
    # simulate a killed job: delete two chunk files + their manifest records
    recs = lm(out)
    victims = sorted(recs)[:2]
    for pid in victims:
        os.remove(os.path.join(out, recs[pid].chunk_file))
        os.remove(record_path(out, pid))
    assert completed_partitions(out) == set(sorted(recs)[2:])
    summary = encode_job(cc_parquet, out, shared_dict_columns=None)
    assert summary["partitions_skipped_resume"] == 2
    assert summary["partitions_encoded"] == 2
    assert verify_job(out)["failed"] == []


def test_encode_job_resume_across_optimize_modes(ray_session, cc_parquet,
                                                 tmp_path):
    """A killed balanced-mode job resumed with optimize='size' must keep
    completed partitions' recorded codecs (no re-encode) and encode only
    the missing ones under the new mode — and verify bit-identical
    either way (the mode can change SIZE, never values)."""
    from json_to_parquet_ray.manifest import load_manifest as lm
    from json_to_parquet_ray.manifest import record_path

    out = str(tmp_path / "enc")
    encode_job(cc_parquet, out, shared_dict_columns=None)
    recs = lm(out)
    survivors = {pid: recs[pid].chunk_file for pid in sorted(recs)[2:]}
    for pid in sorted(recs)[:2]:
        os.remove(os.path.join(out, recs[pid].chunk_file))
        os.remove(record_path(out, pid))
    summary = encode_job(cc_parquet, out, shared_dict_columns=None,
                         optimize="size")
    assert summary["partitions_skipped_resume"] == len(survivors)
    assert summary["partitions_encoded"] == 2
    after = lm(out)
    for pid, chunk in survivors.items():
        assert after[pid].chunk_file == chunk  # untouched, not re-encoded
    assert verify_job(out)["failed"] == []


def test_encode_job_torn_chunk_detected(ray_session, cc_parquet, tmp_path):
    out = str(tmp_path / "enc")
    encode_job(cc_parquet, out, shared_dict_columns=None)
    # truncate one chunk → completeness check must catch the size mismatch
    from json_to_parquet_ray.manifest import load_manifest as lm

    victim = sorted(lm(out))[2]
    p = os.path.join(out, lm(out)[victim].chunk_file)
    with open(p, "r+b") as f:
        f.truncate(100)
    assert victim not in completed_partitions(out)
    summary = encode_job(cc_parquet, out, shared_dict_columns=None)
    assert summary["partitions_encoded"] == 1
    assert verify_job(out)["failed"] == []


def _spy_broadcast(monkeypatch) -> list:
    """Record every (sampled plan, shared candidates) pair an encode job
    broadcasts through ``ray.put``."""
    import ray

    from json_to_parquet_ray.plan import CodecPlan

    seen, put = [], ray.put

    def spy(obj, *args, **kwargs):
        if isinstance(obj, tuple) and isinstance(obj[0], CodecPlan):
            seen.append(obj)
        return put(obj, *args, **kwargs)

    monkeypatch.setattr(ray, "put", spy)
    return seen


def _replanned_chunks(out: str, frags, broadcast) -> list[dict]:
    """Plan each fragment of ``frags`` in-process as an encode task does
    from the job's ``broadcast`` pair, assert that its chunk in ``out``
    records those codecs and holds exactly those bytes, and return the
    ColumnPlans per fragment."""
    from json_to_parquet_ray.pipelines.encode_job import read_fragment
    from json_to_parquet_ray.plan import CodecPlan, plan_from_stats
    from json_to_parquet_ray.stats import compute_stats_table

    plan, shared = broadcast
    recs = load_manifest(out)
    out_plans = []
    for f in frags:
        t = read_fragment(f.path, f.row_group, f.num_rows, f.row_start)
        rest = t.select([c for c in t.column_names
                         if c not in plan.columns])
        plans = {**plan.columns,
                 **plan_from_stats(compute_stats_table(rest), rest.schema,
                                   shared=shared).columns}
        rec = recs[f.frag_hash]
        assert {c["name"]: c["codec"] for c in rec.columns} == {
            c: p.codec for c, p in plans.items()}
        with open(os.path.join(out, rec.chunk_file), "rb") as fh:
            assert fh.read() == encode_table(t, CodecPlan(plans))[0]
        out_plans.append(plans)
    return out_plans


def test_encode_job_shared_dicts(ray_session, tmp_path, monkeypatch):
    """A shared dictionary is a planner candidate, not an override. The
    broadcast carries the column's dictionary (the input's distinct
    values) and plans it per chunk. Each 60-row fragment holds all 40
    distinct 40-byte values, too many for the chunk's own dictionary
    candidate, so the shared dictionary wins every chunk on size; per
    chunk planning without it picks no dictionary."""
    import numpy as np

    rng = np.random.default_rng(3)
    pool = [bytes(rng.integers(0, 256, 40, dtype=np.uint8))
            for _ in range(40)]
    frags = []
    for _ in range(3):
        rows = pool + [pool[i] for i in rng.integers(0, 40, 20)]
        frags.append([rows[i] for i in rng.permutation(60)])
    t = pa.table({"id": pa.array(range(180), pa.int64()),
                  "b": pa.array(sum(frags, []), pa.binary())})
    src = str(tmp_path / "pool.parquet")
    pq.write_table(t, src, row_group_size=60)

    seen = _spy_broadcast(monkeypatch)
    out = str(tmp_path / "enc_sd")
    summary = encode_job(src, out, shared_dict_columns=["b"])
    assert summary["shared_dict_columns"] == ["b"]
    assert verify_job(out)["failed"] == []
    [(plan, shared)] = seen
    assert plan.columns == {}
    [(label, codec, kwargs)] = shared["b"]
    assert (label, codec, kwargs["values_codec"]) == ("dict", "dict", "plain")
    assert sorted(kwargs["dictionary"].to_pylist()) == sorted(pool)
    recs = load_manifest(out)
    for f in list_fragments(src):
        assert {c["name"]: c["codec"]
                for c in recs[f.frag_hash].columns}["b"] == "dict"
        assert _per_chunk_codecs(f)["b"] != "dict"
    assert pa.concat_tables(decode_dataset(out).iter_batches(
        batch_format="pyarrow", batch_size=None)).equals(t)


def test_encode_job_shared_fsst(ray_session, cc_parquet, tmp_path,
                                monkeypatch):
    """Shared FSST tables are trained from the sampled fragments, with no
    full-input read, and compete per chunk as ``fsst`` and ``fsst+z``
    over one table. text keeps its own zstd3 pick (a forced shared table
    made CC stores about half again larger); lang takes the shared
    table on chunks where it scores lower."""
    import ray

    reads = []
    monkeypatch.setattr(ray.data, "read_parquet",
                        lambda *a, **kw: reads.append(a))
    seen = _spy_broadcast(monkeypatch)
    out = str(tmp_path / "enc_sf")
    summary = encode_job(cc_parquet, out, shared_dict_columns=None,
                         shared_fsst_columns=["text", "lang"])
    assert reads == []
    assert summary["partitions_encoded"] == 4
    assert summary["shared_fsst_columns"] == ["lang", "text"]
    assert verify_job(out)["failed"] == []
    [broadcast] = seen
    for col in ("text", "lang"):
        (l1, c1, k1), (l2, c2, k2) = broadcast[1][col]
        assert (l1, c1, l2, c2) == ("fsst", "fsst", "fsst+z", "fsst")
        assert k2 == {"encoder": k1["encoder"], "post_zstd": True}
    plans = _replanned_chunks(out, list_fragments(cc_parquet), broadcast)
    assert all(p["text"].codec == "zstd3" for p in plans)
    assert any("encoder" in p["lang"].kwargs for p in plans)


def test_list_fragments_deterministic(cc_parquet):
    a = list_fragments(cc_parquet)
    b = list_fragments(cc_parquet)
    assert [f.fragment_id for f in a] == [f.fragment_id for f in b]
    assert len(a) == 4


def test_encode_job_pinned_columns(ray_session, cc_parquet, tmp_path,
                                   monkeypatch):
    """A column with a shared dictionary and a shared FSST table is
    planned per chunk with both as candidates, in that order, from the
    job's one broadcast. Replaying the partitions in-process from that
    broadcast trial-encodes the column and writes the same chunks, and
    at least one chunk takes a shared candidate."""
    import ray

    import json_to_parquet_ray.plan as plan_mod
    from json_to_parquet_ray.manifest import manifest_dir
    from json_to_parquet_ray.pipelines.encode_job import EncodePartition

    seen = _spy_broadcast(monkeypatch)
    out = str(tmp_path / "enc_pin")
    encode_job(cc_parquet, out, shared_dict_columns=["lang"],
               shared_fsst_columns=["lang"])
    [broadcast] = seen
    assert broadcast[0].columns == {}
    assert [lb for lb, _, _ in broadcast[1]["lang"]] == [
        "dict", "fsst", "fsst+z"]

    trials = []
    trial_encode = plan_mod.encode_array

    def trial_spy(arr, *args, **kwargs):
        trials.append(arr)
        return trial_encode(arr, *args, **kwargs)

    monkeypatch.setattr(plan_mod, "encode_array", trial_spy)
    replay = str(tmp_path / "replay")
    os.makedirs(manifest_dir(replay))
    enc = EncodePartition(replay, ray.put(broadcast))
    frags = list_fragments(cc_parquet)
    for f in frags:
        enc(pa.Table.from_pylist([{
            "partition_id": f.frag_hash, "path": f.path,
            "row_group": f.row_group, "num_rows": f.num_rows,
            "row_start": f.row_start}]))
    langs = set(pq.read_table(cc_parquet, columns=["lang"])["lang"]
                .to_pylist())
    assert any(set(a.to_pylist()) <= langs for a in trials)
    recs = load_manifest(out)
    for rec in recs.values():
        with open(os.path.join(out, rec.chunk_file), "rb") as a, \
                open(os.path.join(replay, rec.chunk_file), "rb") as b:
            assert a.read() == b.read()
    assert any(set(p["lang"].kwargs) & {"dictionary", "encoder"}
               for p in _replanned_chunks(out, frags, broadcast))


def test_manifest_torn_record_skipped(tmp_path):
    import os

    from json_to_parquet_ray.manifest import (
        PartitionRecord, load_manifest, write_record,
    )

    from json_to_parquet_ray.manifest import record_path

    out = str(tmp_path / "m")
    rec = PartitionRecord(partition_id="aaa0000000000000",
                          fragment={"path": "x", "row_group": 0,
                                    "num_rows": 1, "row_start": 0},
                          num_rows=1, chunk_file="part-00000.rde", chunk_size=3)
    write_record(out, rec)
    with open(os.path.join(out, "part-00000.rde"), "wb") as f:
        f.write(b"abc")
    # torn (half-written) record must be ignored
    os.makedirs(os.path.dirname(record_path(out, "bbb0000000000000")),
                exist_ok=True)
    with open(record_path(out, "bbb0000000000000"), "w") as f:
        f.write('{"partition_id": "bbb0000000000000", "frag')
    # stray tmp file must be ignored too
    os.makedirs(os.path.dirname(record_path(out, "ccc0000000000000")),
                exist_ok=True)
    with open(record_path(out, "ccc0000000000000") + ".tmp.123", "w") as f:
        f.write("junk")
    assert set(load_manifest(out)) == {"aaa0000000000000"}
    assert completed_partitions(out) == {"aaa0000000000000"}


def test_per_row_invariant_byte_identical_text_per_url():
    """BASELINE.json input_hint: 'byte-identical extracted text per url'."""
    t = make_cc_table(400, seed=9)
    blob, _ = encode_table(t)
    back = decode_table(blob)
    src = {u: tx for u, tx in zip(t.column("url").to_pylist(),
                                  t.column("text").to_pylist())}
    for u, tx in zip(back.column("url").to_pylist(),
                     back.column("text").to_pylist()):
        assert src[u].encode() == tx.encode()
    # html binary payloads byte-identical as well
    assert back.column("html").combine_chunks().equals(
        t.column("html").combine_chunks())


def test_encode_job_sliced_partitions(ray_session, tmp_path):
    """A single-row-group file still parallelizes via row-range slices."""
    src = str(tmp_path / "one_rg.parquet")
    write_cc_parquet(src, 1200, seed=5, row_group_size=1200)  # 1 row group
    out = str(tmp_path / "enc_sliced")
    summary = encode_job(src, out, shared_dict_columns=None,
                         max_rows_per_partition=300)
    assert summary["partitions_total"] == 4
    assert verify_job(out)["failed"] == []
    decoded = pa.concat_tables(
        [t for t in [decode_dataset(out).take_batch(2000, batch_format="pyarrow")]])
    assert decoded.num_rows == 1200


def test_resume_rejects_changed_input(ray_session, cc_parquet, tmp_path):
    """If the input fragment set changes between runs, stale completed
    partitions must NOT be reused (fragment identity check)."""
    out = str(tmp_path / "enc_chg")
    encode_job(cc_parquet, out, shared_dict_columns=None)
    # second input: different file → partition ids map to different fragments
    src2 = str(tmp_path / "cc2.parquet")
    write_cc_parquet(src2, 1000, seed=77, row_group_size=250)
    summary = encode_job(src2, out, shared_dict_columns=None)
    assert summary["partitions_skipped_resume"] == 0
    assert summary["partitions_encoded"] == summary["partitions_total"]
    assert verify_job(out)["failed"] == []


def test_encode_job_stress_variants(ray_session, tmp_path):
    """Codec-stress distributions (FIXTURES.md F1) through the FULL
    partitioned pipeline: constant columns, all-null columns, all-unique
    urls, weird strings — each must verify bit-identical."""
    import pyarrow.parquet as pq2

    from json_to_parquet_ray.fixtures import stress_tables

    for name, t in stress_tables().items():
        if t.num_rows == 0:
            continue  # parquet row group of 0 rows → no partitions
        src = str(tmp_path / f"{name}.parquet")
        pq2.write_table(t, src, row_group_size=max(t.num_rows // 2, 1))
        out = str(tmp_path / f"enc_{name}")
        encode_job(src, out, shared_dict_columns=None)
        assert verify_job(out)["failed"] == [], name


def test_corrupt_chunk_raises_cleanly(tmp_path):
    import pytest as _pytest

    t = make_cc_table(50, seed=1)
    blob, _ = encode_table(t)
    with _pytest.raises(ValueError):
        decode_table(b"XXXX" + blob[4:])  # bad magic (explicit, -O safe)
    # flipped payload byte → CRC mismatch
    bad = bytearray(blob)
    bad[-1] ^= 0xFF
    with _pytest.raises(IOError):
        decode_table(bytes(bad), verify_crc=True)


def test_encode_determinism_byte_identical():
    """Retry determinism (north rule): encoding the same partition twice
    must produce BYTE-identical chunk files (stable checksums under Ray
    task retries)."""
    t = make_cc_table(500, seed=21)
    blob1, h1 = encode_table(t)
    blob2, h2 = encode_table(t)
    assert blob1 == blob2
    assert h1 == h2


def test_plan_determinism():
    from json_to_parquet_ray.plan import plan_from_stats
    from json_to_parquet_ray.stats import compute_stats_table

    t = make_cc_table(400, seed=8)
    p1 = plan_from_stats(compute_stats_table(t), t.schema).dumps()
    p2 = plan_from_stats(compute_stats_table(t), t.schema).dumps()
    assert p1 == p2


def test_decode_dataset_column_pruning(ray_session, cc_parquet, tmp_path):
    out = str(tmp_path / "enc_prune")
    encode_job(cc_parquet, out, shared_dict_columns=None)
    sub = decode_dataset(out, columns=["lang", "url"]).take_batch(
        5000, batch_format="pyarrow")
    assert sub.column_names == ["lang", "url"]
    src = pq.read_table(cc_parquet, columns=["lang"])
    assert sorted(sub.column("lang").to_pylist()) == sorted(
        src.column("lang").to_pylist())


def test_append_safe_partition_identity(ray_session, tmp_path):
    """Appending a lexically-EARLY input file must not re-encode any
    existing partition: ids are content-addressed (frag_hash), not
    positional, and decode order derives from fragment identity."""
    indir = tmp_path / "in"
    indir.mkdir()
    write_cc_parquet(str(indir / "b.parquet"), 1000, seed=1, row_group_size=250)
    out = str(tmp_path / "enc_append")
    s1 = encode_job(str(indir), out, shared_dict_columns=None)
    assert s1["partitions_encoded"] == 4
    # append a file that sorts BEFORE the existing one
    write_cc_parquet(str(indir / "a.parquet"), 500, seed=2, row_group_size=250)
    s2 = encode_job(str(indir), out, shared_dict_columns=None)
    assert s2["partitions_skipped_resume"] == 4   # all prior work reused
    assert s2["partitions_encoded"] == 2          # only the new fragments
    assert verify_job(out)["failed"] == []
    # decode order == input order (files lexical, row groups in order)
    decoded = decode_dataset(out, columns=["url"]).take_all()
    expect = pa.concat_tables([
        pq.read_table(str(indir / "a.parquet"), columns=["url"]),
        pq.read_table(str(indir / "b.parquet"), columns=["url"]),
    ])
    assert [r["url"] for r in decoded] == expect.column("url").to_pylist()


def test_shared_fsst_stratified_on_skewed_corpus(ray_session, tmp_path):
    """Two-regime corpus (URL-ish rows first, DNA-ish rows second): the
    stratified sample trains the shared FSST table on BOTH regimes, so the
    shared-table encode stays near per-chunk-table size parity. A head
    sample would never see regime B."""
    import numpy as np

    rng = np.random.default_rng(11)
    rega = ["GET /index/page/" + "".join(rng.choice(list("abcdef"), 24))
            + " HTTP/1.1 host=www.example.com" for _ in range(2000)]
    regb = ["".join(rng.choice(list("ACGT"), 60)) for _ in range(2000)]
    t = pa.table({"doc_id": pa.array(range(4000), pa.int64()),
                  "text": pa.array(rega + regb)})
    src = str(tmp_path / "skew.parquet")
    pq.write_table(t, src, row_group_size=1000)  # rg 0-1 = A, rg 2-3 = B

    shared_out = str(tmp_path / "enc_shared")
    s_shared = encode_job(src, shared_out, shared_dict_columns=None,
                          shared_fsst_columns=["text"])
    per_out = str(tmp_path / "enc_per")
    s_per = encode_job(src, per_out, shared_dict_columns=None)
    assert verify_job(shared_out)["failed"] == []
    # ratio parity: shared-stratified within 30% of the per-chunk plans
    assert s_shared["chunk_bytes"] <= 1.3 * s_per["chunk_bytes"], (
        s_shared["chunk_bytes"], s_per["chunk_bytes"])


def test_zone_map_pruned_decode(ray_session, tmp_path):
    """Manifest zone maps skip non-overlapping chunks entirely; the
    surviving chunks row-filter to the exact range."""
    from json_to_parquet_ray.pipelines.encode_job import zone_prune

    t = pa.table({"id": pa.array(range(2000), pa.int64()),
                  "val": pa.array([f"v{i}" for i in range(2000)])})
    src = str(tmp_path / "zm.parquet")
    pq.write_table(t, src, row_group_size=500)  # zones: [0,499],[500,999],...
    out = str(tmp_path / "enc_zm")
    encode_job(src, out, shared_dict_columns=None)
    recs, skipped = zone_prune(out, {"id": (600, 899)})
    assert (len(recs), skipped) == (1, 3)  # only row group 1 overlaps
    got = decode_dataset(out, zone_filter={"id": (600, 899)}).take_all()
    assert [r["id"] for r in got] == list(range(600, 900))
    # open-ended ranges and no-op filters keep everything
    recs2, skipped2 = zone_prune(out, {"id": (None, None)})
    assert (len(recs2), skipped2) == (4, 0)
    recs3, skipped3 = zone_prune(out, {"id": (1500, None)})
    assert (len(recs3), skipped3) == (1, 3)


def test_decode_schema_evolution(ray_session, tmp_path):
    """Old chunks stay readable after the logical schema evolves: decode
    aligns to a target schema (new null-filled column, widened int type)."""
    t = pa.table({"id": pa.array(range(100), pa.int32()),
                  "text": pa.array([f"t{i}" for i in range(100)])})
    src = str(tmp_path / "evo.parquet")
    pq.write_table(t, src)
    out = str(tmp_path / "enc_evo")
    encode_job(src, out, shared_dict_columns=None)
    target = pa.schema([("id", pa.int64()), ("text", pa.string()),
                        ("score", pa.float64())])
    got = decode_dataset(out, schema=target).take_batch(1000, batch_format="pyarrow")
    assert got.schema.equals(target)
    assert got.column("id").to_pylist() == list(range(100))
    assert got.column("score").null_count == 100


def test_verify_job_reports_corrupt_chunk(ray_session, cc_parquet, tmp_path):
    """A corrupt chunk is reported in `failed` with a reason — the verify
    job completes instead of crashing."""
    out = str(tmp_path / "enc_bad")
    encode_job(cc_parquet, out, shared_dict_columns=None)
    victim = sorted(load_manifest(out))[1]
    p = os.path.join(out, load_manifest(out)[victim].chunk_file)
    with open(p, "r+b") as f:
        f.write(b"XXXX")  # clobber the RDE1 magic
    ver = verify_job(out)
    assert ver["partitions"] == 4 and ver["ok"] == 3
    assert len(ver["failed"]) == 1
    assert ver["failed"][0]["partition_id"] == victim
    assert "RDE1" in ver["failed"][0]["err"]


def test_compact_job_merges_small_chunks(ray_session, tmp_path):
    """Compaction merges consecutive small chunks; verify, decode order,
    and resume (all covered fragments count as done) keep working."""
    from json_to_parquet_ray.pipelines.encode_job import compact_job

    src = str(tmp_path / "many_rg.parquet")
    write_cc_parquet(src, 2000, seed=17, row_group_size=250)  # 8 small rgs
    out = str(tmp_path / "enc_cmp")
    encode_job(src, out, shared_dict_columns=None)
    assert len(load_manifest(out)) == 8

    res = compact_job(out, min_rows=1000)  # 4 chunks of 250 per group
    assert res["groups"] == 2 and res["chunks_after"] == 2
    assert len(load_manifest(out)) == 2
    assert verify_job(out)["failed"] == []

    # decode order still equals input order
    got = decode_dataset(out, columns=["url"]).take_all()
    exp = pq.read_table(src, columns=["url"]).column("url").to_pylist()
    assert [r["url"] for r in got] == exp

    # resume: every source fragment is covered by the merged chunks
    s = encode_job(src, out, shared_dict_columns=None)
    assert s["partitions_skipped_resume"] == 8
    assert s["partitions_encoded"] == 0


def test_compact_job_keeps_store_optimize_mode(ray_session, tmp_path):
    """Compacting a size-optimized store must re-plan merged chunks under
    the RECORDED size mode — not silently revert the archival store's
    text columns to balanced codecs. The mode is persisted at encode
    time and read back by compact_job."""
    from json_to_parquet_ray.pipelines.encode_job import (
        compact_job, load_store_optimize, store_stats,
    )

    src = str(tmp_path / "many_rg.parquet")
    write_cc_parquet(src, 2000, seed=17, row_group_size=250)
    out = str(tmp_path / "enc_size")
    encode_job(src, out, shared_dict_columns=None, optimize="size")
    assert load_store_optimize(out) == "size"
    text_codecs = store_stats(out)["columns"]["text"]["codecs"]
    assert set(text_codecs) == {"zstd19"}, text_codecs  # size pick on CC text

    res = compact_job(out, min_rows=1000)
    assert res["chunks_after"] < 8
    merged_codecs = store_stats(out)["columns"]["text"]["codecs"]
    assert set(merged_codecs) == {"zstd19"}, merged_codecs
    assert verify_job(out)["failed"] == []


def test_resume_without_optimize_keeps_store_mode(ray_session, tmp_path):
    """Resuming a size-optimized store without passing ``optimize`` must
    keep the recorded size mode — both for the partitions it re-encodes
    and for later compaction — instead of flipping it to balanced."""
    from json_to_parquet_ray.manifest import record_path
    from json_to_parquet_ray.pipelines.encode_job import (
        load_store_optimize, store_stats,
    )

    src = str(tmp_path / "many_rg.parquet")
    write_cc_parquet(src, 1000, seed=17, row_group_size=250)
    out = str(tmp_path / "enc_size")
    encode_job(src, out, shared_dict_columns=None, optimize="size")
    recs = load_manifest(out)
    victim = sorted(recs)[0]
    os.remove(os.path.join(out, recs[victim].chunk_file))
    os.remove(record_path(out, victim))

    summary = encode_job(src, out, shared_dict_columns=None)
    assert summary["partitions_encoded"] == 1
    assert load_store_optimize(out) == "size"
    text_codecs = store_stats(out)["columns"]["text"]["codecs"]
    assert set(text_codecs) == {"zstd19"}, text_codecs
    assert verify_job(out)["failed"] == []


def test_compaction_crash_window_no_duplicates(ray_session, tmp_path):
    """If a crash leaves BOTH a merged record and its covered plain
    records in the manifest, decode/verify must not duplicate rows
    (effective_records prefers the merged record)."""
    import shutil as _sh

    from json_to_parquet_ray.manifest import effective_records, record_path
    from json_to_parquet_ray.pipelines.encode_job import compact_job

    src = str(tmp_path / "cw.parquet")
    write_cc_parquet(src, 1000, seed=23, row_group_size=250)  # 4 chunks
    out = str(tmp_path / "enc_cw")
    encode_job(src, out, shared_dict_columns=None)
    before = load_manifest(out)
    # stash copies of all plain records + chunks, then compact
    stash = {pid: (record_path(out, pid), os.path.join(out, r.chunk_file))
             for pid, r in before.items()}
    backup = {}
    for pid, (rp, cp) in stash.items():
        backup[pid] = (open(rp, "rb").read(), open(cp, "rb").read())
    compact_job(out, min_rows=1000)
    # simulate the crash window: restore two of the retired plain records
    for pid in sorted(backup)[:2]:
        rp, cp = stash[pid]
        os.makedirs(os.path.dirname(rp), exist_ok=True)
        os.makedirs(os.path.dirname(cp), exist_ok=True)
        open(rp, "wb").write(backup[pid][0])
        open(cp, "wb").write(backup[pid][1])
    assert len(load_manifest(out)) > len(effective_records(out))
    got = decode_dataset(out, columns=["url"]).take_all()
    exp = pq.read_table(src, columns=["url"]).column("url").to_pylist()
    assert [r["url"] for r in got] == exp  # no duplication, order intact
    assert verify_job(out)["failed"] == []
    # and if the MERGED chunk is torn, the plain records take over
    merged = [r for r in effective_records(out) if "merged" in r.fragment]
    if merged:
        mp = os.path.join(out, merged[0].chunk_file)
        with open(mp, "r+b") as f:
            f.truncate(50)
        eff = effective_records(out)
        assert all("merged" not in r.fragment or
                   os.path.join(out, r.chunk_file) != mp for r in eff)


def test_keyed_store_salting_pruning_determinism(ray_session, tmp_path):
    """Keyed store: hot keys salt into multiple chunks, key reads prune,
    and re-encoding produces byte-identical chunks (retry safety)."""
    import ray

    from json_to_parquet_ray.pipelines import keyed_store

    n = 1200
    langs = ["en"] * 900 + ["de"] * 200 + ["fr"] * 100  # 'en' is hot
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "lang": pa.array(langs),
                  "text": pa.array([f"doc {i}" for i in range(n)])})
    out = str(tmp_path / "ks")
    s = keyed_store.keyed_encode(ray.data.from_arrow(t), out,
                                 key_col="lang", salt_col="doc_id",
                                 hot_threshold=300, salt_buckets=4)
    assert s["hot_keys"] == ["en"]
    assert s["rows"] == n
    gen = keyed_store.live_generation(out)
    recs = effective_records(gen)
    en_chunks = [r for r in recs if r.fragment["key"] == "en"]
    assert len(en_chunks) == 4          # salted across 4 sub-chunks
    assert len([r for r in recs if r.fragment["key"] == "de"]) == 1

    sub, io = keyed_store.keyed_read(out, keys=["de"])
    got = sub.to_pandas()
    assert io == {"chunks_read": 1, "chunks_total": 6}
    assert sorted(got["doc_id"]) == list(range(900, 1100))

    # retry determinism: a second encode into a fresh dir yields
    # byte-identical chunk files
    out2 = str(tmp_path / "ks2")
    keyed_store.keyed_encode(ray.data.from_arrow(t), out2,
                             key_col="lang", salt_col="doc_id",
                             hot_threshold=300, salt_buckets=4)
    gen2 = keyed_store.live_generation(out2)
    for r in recs:
        a = open(os.path.join(gen, r.chunk_file), "rb").read()
        b = open(os.path.join(gen2, r.chunk_file), "rb").read()
        assert a == b


def test_same_basename_shards_do_not_collide(ray_session, tmp_path):
    """Two input files with the SAME basename in different directories
    (normal sharded-writer layout) must encode as distinct partitions."""
    d1, d2 = tmp_path / "s1", tmp_path / "s2"
    d1.mkdir(), d2.mkdir()
    write_cc_parquet(str(d1 / "part-0.parquet"), 500, seed=1, row_group_size=500)
    write_cc_parquet(str(d2 / "part-0.parquet"), 500, seed=2, row_group_size=500)
    out = str(tmp_path / "enc_bn")
    s = encode_job([str(d1 / "part-0.parquet"), str(d2 / "part-0.parquet")],
                   out, shared_dict_columns=None)
    assert s["partitions_encoded"] == 2
    assert len(load_manifest(out)) == 2
    assert verify_job(out)["failed"] == []
    assert decode_dataset(out).count() == 1000


def test_zone_filter_equals_post_filter_property(ray_session, tmp_path):
    """Invariant: decode(zone_filter=R) == full decode filtered by R, for
    randomized inclusive ranges (seeded) — chunk pruning must never change
    the answer, only the I/O."""
    import random

    t = pa.table({"id": pa.array(range(1000), pa.int64()),
                  "v": pa.array([i * 3 % 97 for i in range(1000)], pa.int64())})
    src = str(tmp_path / "prop.parquet")
    pq.write_table(t, src, row_group_size=125)  # 8 chunks
    out = str(tmp_path / "enc_prop")
    encode_job(src, out, shared_dict_columns=None)
    full = decode_dataset(out).take_all()
    rng = random.Random(5)
    for _ in range(12):
        lo = rng.choice([None, rng.randint(-50, 1050)])
        hi = rng.choice([None, rng.randint(-50, 1050)])
        col = rng.choice(["id", "v"])
        got = sorted(r["id"] for r in
                     decode_dataset(out, zone_filter={col: (lo, hi)}).take_all())
        want = sorted(r["id"] for r in full
                      if (lo is None or r[col] >= lo)
                      and (hi is None or r[col] <= hi))
        assert got == want, (col, lo, hi)


def test_effective_records_recompaction_superset_wins(tmp_path):
    """A re-compaction writes a superset merged record M2 = [M1's
    fragments + fillers] and retires the filler plain records. M1 and M2
    share a sort_key, so load order must not decide: the superset has to
    win or the filler fragments silently vanish from decode."""
    from json_to_parquet_ray.manifest import (
        PartitionRecord, effective_records, write_record,
    )

    out = str(tmp_path / "m")
    os.makedirs(out, exist_ok=True)
    frags = [{"path": "in.parquet", "row_group": i} for i in range(3)]

    def mk(pid, covered):
        chunk = f"chunk-{pid}.rde"
        with open(os.path.join(out, chunk), "wb") as f:
            f.write(b"x" * 10)
        return PartitionRecord(partition_id=pid,
                               fragment={"merged": covered},
                               num_rows=1, chunk_file=chunk, chunk_size=10)

    m1 = mk("aa0", frags[:2])          # earlier compaction: frags 0-1
    m2 = mk("bb0", frags)              # re-compaction: frags 0-2
    assert m1.sort_key == m2.sort_key  # same first fragment
    write_record(out, m1)
    write_record(out, m2)
    eff = effective_records(out)
    assert [r.partition_id for r in eff] == ["bb0"]
    covered = [f["row_group"] for r in eff for f in r.source_fragments]
    assert sorted(covered) == [0, 1, 2]  # no fragment dropped


def test_keyed_store_literal_salt_suffix_key_no_collision(ray_session, tmp_path):
    """A literal key value 'en#s<d>' must not land in hot key 'en's salted
    sub-partition: the injective pkey keeps every chunk single-key and
    keyed_read returns exactly the right rows for both keys."""
    import pandas as pd
    import ray

    from json_to_parquet_ray.pipelines.keyed_store import (
        keyed_encode, keyed_read, live_generation,
    )

    n_hot = 400
    rows = pd.DataFrame({
        "lang": ["en"] * n_hot + ["en#s0", "en#s1", "en#s2", "en#s3"] * 5,
        "doc_id": range(n_hot + 20),
    })
    out = str(tmp_path / "ks")
    keyed_encode(ray.data.from_pandas(rows), out, key_col="lang",
                 salt_col="doc_id", hot_threshold=100, salt_buckets=4)
    # every chunk's manifest key must match ALL the rows inside it — the
    # exact mixed-key corruption the injective pkey prevents
    from json_to_parquet_ray.encode import decode_table

    gen = live_generation(out)
    for rec in effective_records(gen):
        with open(os.path.join(gen, rec.chunk_file), "rb") as f:
            body = decode_table(f.read())
        assert set(body.column("lang").to_pylist()) == \
            {rec.fragment["key"]}, rec
    ds, _ = keyed_read(out, keys=["en#s3"])
    got = ds.to_pandas()
    assert set(got["lang"]) == {"en#s3"} and len(got) == 5
    ds, _ = keyed_read(out, keys=["en"])
    got = ds.to_pandas()
    assert set(got["lang"]) == {"en"} and len(got) == n_hot


def test_zone_filter_numeric_bound_on_timestamp_errors_cleanly(
        ray_session, cc_parquet, tmp_path):
    """decode --zone-filter ts=2024,2025: a numeric-looking bound against
    a timestamp column must raise a usable ValueError, not crash deep in
    pyarrow.compute with a type mismatch."""
    out = str(tmp_path / "zf")
    encode_job(cc_parquet, out, shared_dict_columns=None)
    with pytest.raises(ValueError, match="zone-filter bound"):
        # 2025..2026 passes the lexical zone prune (fixture data is in
        # 2025) so the exact row filter actually runs
        decode_dataset(out, zone_filter={"warc_ts": (2025, 2026)}).take_all()
    with pytest.raises(ValueError, match="zone-filter bound"):
        # 2024..2025 lexically prunes EVERY chunk — the bad bound must
        # still error, not silently return an empty dataset
        decode_dataset(out, zone_filter={"warc_ts": (2024, 2025)}).take_all()
    # a full ISO literal still filters fine
    res = decode_dataset(
        out, zone_filter={"warc_ts": ("2000-01-01", "2100-01-01")}).take_all()
    assert len(res) > 0


def test_reencode_with_different_partitioning_no_duplication(
        ray_session, tmp_path):
    """Re-running encode on an existing store with a different
    max_rows_per_partition writes overlapping records; decode must
    produce exactly one generation (row-range claims), never doubled
    rows."""
    src = str(tmp_path / "re.parquet")
    write_cc_parquet(src, 200, seed=2, row_group_size=100)
    out = str(tmp_path / "re_out")
    encode_job(src, out)
    encode_job(src, out, max_rows_per_partition=50)
    got = decode_dataset(out, columns=["url"]).take_all()
    exp = pq.read_table(src, columns=["url"]).column("url").to_pylist()
    assert [r["url"] for r in got] == exp  # one generation, input order
    assert verify_job(out)["failed"] == []


def test_zone_filter_exact_even_when_column_not_projected(
        ray_session, tmp_path):
    """The exact row filter must apply even when the filter column is not
    in the caller's projection (it used to silently return whole
    surviving chunks)."""
    src = str(tmp_path / "zdoc.parquet")
    t = pa.table({
        "doc_id": pa.array(range(400), pa.int64()),
        "url": pa.array([f"u{i}" for i in range(400)], pa.string()),
    })
    pq.write_table(t, src, row_group_size=100)
    out = str(tmp_path / "zp")
    encode_job(src, out, shared_dict_columns=None)
    full = decode_dataset(out, zone_filter={"doc_id": (60, 70)}).take_all()
    proj = decode_dataset(out, columns=["url"],
                          zone_filter={"doc_id": (60, 70)}).take_all()
    assert len(proj) == len(full) == 11
    assert all(set(r) == {"url"} for r in proj[:3])
    assert sorted(r["url"] for r in proj) == [f"u{i}" for i in range(60, 71)]
    # non-numeric bound against a numeric zone errors usably
    with pytest.raises(ValueError, match="zone-filter bound"):
        decode_dataset(out, zone_filter={"doc_id": (10, "abc")}).take_all()


def test_empty_projection_keeps_row_count(tmp_path):
    """A projection with no decodable columns (explicit [] or all columns
    missing under schema evolution) must keep the chunk's ROW COUNT —
    null-filling via align_table then yields n null rows, not zero."""
    from json_to_parquet_ray.encode import read_chunk_file

    t = make_cc_table(30, seed=1)
    blob, _ = encode_table(t)
    assert decode_table(blob, columns=[]).num_rows == 30
    p = str(tmp_path / "c.rde")
    with open(p, "wb") as f:
        f.write(blob)
    got = read_chunk_file(p, columns=["not_there"], missing_ok=True)
    assert got.num_rows == 30 and got.num_columns == 0
    import pyarrow as _pa

    from json_to_parquet_ray.schema_infer import align_table

    aligned = align_table(got, _pa.schema([_pa.field("not_there",
                                                     _pa.int64())]))
    assert aligned.num_rows == 30
    assert aligned.column("not_there").null_count == 30


def test_reencode_then_compact_torture(ray_session, tmp_path):
    """Generations + compaction together: encode, re-encode with a
    different partitioning, then compact — decode must stay exactly one
    copy of the input, in order, through every step."""
    from json_to_parquet_ray.pipelines.encode_job import compact_job

    src = str(tmp_path / "t.parquet")
    write_cc_parquet(src, 600, seed=7, row_group_size=150)  # 4 row groups
    out = str(tmp_path / "t_out")
    exp = pq.read_table(src, columns=["url"]).column("url").to_pylist()

    encode_job(src, out)
    encode_job(src, out, max_rows_per_partition=75)
    got = decode_dataset(out, columns=["url"]).take_all()
    assert [r["url"] for r in got] == exp
    compact_job(out, min_rows=600)
    got = decode_dataset(out, columns=["url"]).take_all()
    assert [r["url"] for r in got] == exp
    assert verify_job(out)["failed"] == []
    # zone-filtered read still exact after all of it
    rows = decode_dataset(out, zone_filter={"warc_ts": ("2000-01-01",
                                                        "2100-01-01")}
                          ).take_all()
    assert len(rows) == 600


def test_effective_records_legacy_record_without_num_rows(tmp_path):
    """A legacy manifest record whose fragments lack ``num_rows`` must not
    crash effective_records (the tie-break sort used f["num_rows"]
    directly while intervals() tolerated the absence via .get): it claims
    its whole row group, and coexists with modern records."""
    from json_to_parquet_ray.manifest import (
        PartitionRecord, effective_records, write_record,
    )

    out = str(tmp_path / "legacy")
    os.makedirs(out, exist_ok=True)

    def mk(pid, frag):
        chunk = f"chunk-{pid}.rde"
        with open(os.path.join(out, chunk), "wb") as f:
            f.write(b"x" * 10)
        return PartitionRecord(partition_id=pid, fragment=frag,
                               num_rows=1, chunk_file=chunk, chunk_size=10)

    # legacy: no num_rows / row_start in the fragment dict
    write_record(out, mk("aa1", {"path": "in.parquet", "row_group": 0}))
    # modern record on another row group
    write_record(out, mk("bb2", {"path": "in.parquet", "row_group": 1,
                                 "num_rows": 100, "row_start": 0}))
    # a slice of row group 0 — must LOSE to the legacy whole-group claim
    write_record(out, mk("cc3", {"path": "in.parquet", "row_group": 0,
                                 "num_rows": 50, "row_start": 0}))
    eff = effective_records(out)
    assert [r.partition_id for r in eff] == ["aa1", "bb2"]


def test_typod_projection_fails_loudly_with_zone_filter(
        ray_session, tmp_path):
    """With both columns= and zone_filter= given, a typo'd projected
    column must still raise (missing_ok covers only the filter-added
    columns), and a filter column missing from a chunk excludes that
    chunk's rows (missing == all-null under schema evolution)."""
    import ray

    src = str(tmp_path / "tp.parquet")
    t = pa.table({"doc_id": pa.array(range(200), pa.int64()),
                  "url": pa.array([f"u{i}" for i in range(200)])})
    pq.write_table(t, src, row_group_size=100)
    out = str(tmp_path / "tp_out")
    encode_job(src, out, shared_dict_columns=None)

    with pytest.raises((KeyError, ray.exceptions.RayTaskError)):
        decode_dataset(out, columns=["urll"],
                       zone_filter={"doc_id": (0, 10)}).take_all()

    # filter column absent from every chunk → zero rows, not whole chunks
    rows = decode_dataset(out, columns=["url"],
                          zone_filter={"new_col": (0, 10)}).take_all()
    assert rows == []


def test_string_zone_maps_prune_and_bounds(ray_session, tmp_path):
    """String zone maps: truncated min stays a lower bound, truncated max
    rounds UP (never understates), disjoint string ranges prune chunks,
    and overlapping ones never lose rows."""
    from json_to_parquet_ray.pipelines.encode_job import (
        _string_upper_bound, _zone_maps, zone_prune,
    )

    # upper-bound property on tricky strings
    for s in ["a" * 100, "z" * 100, "\U0010FFFF" * 65, "abc",
              "prefix" + "퟿" + "x" * 100, "\U0010FFFF" * 64 + "a"]:
        ub = _string_upper_bound(s)
        if ub is not None:
            assert ub >= s, (s[:10], ub[:10])
            assert len(ub) <= 65
    assert _string_upper_bound("\U0010FFFF" * 70) is None

    # zone maps carry truncated string zones
    t = pa.table({"u": pa.array(["https://" + "a" * 100,
                                 "https://" + "z" * 100])})
    z = _zone_maps(t)["u"]
    assert z["str"] and len(z["min"]) <= 64 and z["max"] >= "https://" + "z" * 100

    # end-to-end: lang-clustered store, equality predicate prunes chunks
    langs = ["de"] * 100 + ["en"] * 100 + ["fr"] * 100
    src = str(tmp_path / "s.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(range(300), pa.int64()),
        "lang": pa.array(langs),
    }), src, row_group_size=100)
    out = str(tmp_path / "s_out")
    encode_job(src, out, shared_dict_columns=None)
    kept, skipped = zone_prune(out, {"lang": ("en", "en")})
    assert skipped == 2 and len(kept) == 1
    from json_to_parquet_ray.pipelines.encode_job import decode_dataset

    rows = decode_dataset(out, zone_filter={"lang": ("en", "en")}).take_all()
    assert len(rows) == 100 and all(r["lang"] == "en" for r in rows)


def test_encode_job_shared_dict_schema_evolution(ray_session, tmp_path,
                                                 monkeypatch):
    """Regression (round-4 review F2): shared_dict_columns='auto' over a
    directory where a string column exists only in LATER files must build
    that column's dictionary from the files that have it instead of
    crashing — ray.data.read_parquet infers its schema from the first
    fragment and raises on a projected column the fragment lacks. The
    dictionary is a candidate of the new file's chunks."""
    import numpy as np

    src = tmp_path / "evolved"
    src.mkdir()
    rng = np.random.default_rng(3)
    langs = [f"l{int(i)}" for i in rng.integers(0, 8, 600)]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(600), pa.int64())}),
        str(src / "a_old.parquet"))
    pq.write_table(
        pa.table({"doc_id": pa.array(range(600, 1200), pa.int64()),
                  "lang": pa.array(langs)}),
        str(src / "b_new.parquet"))

    seen = _spy_broadcast(monkeypatch)
    out = str(tmp_path / "enc_evo")
    summary = encode_job(str(src), out, shared_dict_columns="auto")
    assert "lang" in summary["shared_dict_columns"]
    assert verify_job(out)["failed"] == []
    [broadcast] = seen
    [(_, _, kwargs)] = broadcast[1]["lang"]
    assert sorted(kwargs["dictionary"].to_pylist()) == sorted(set(langs))
    frags = list_fragments(str(src))
    assert any(f.path.endswith("b_new.parquet") for f in frags)
    _replanned_chunks(out, frags, broadcast)
    dec = pa.concat_tables(decode_dataset(out).iter_batches(
        batch_format="pyarrow", batch_size=None), promote_options="default")
    assert dec.column("lang").to_pylist() == [None] * 600 + langs


def _spy_dict_pass(monkeypatch) -> tuple[list, list]:
    """Record the columns of every ``distinct_values`` call an encode job
    makes, and the work items of every ``_item_dataset`` it builds, on
    the driver; ``ray.data.read_parquet`` raises."""
    import ray

    from json_to_parquet_ray.pipelines import encode_job as ej

    calls, item_lists = [], []
    dv, item_ds = ej.distinct_values, ej._item_dataset

    def spy_dv(ds, cols, **kwargs):
        calls.append(list(cols))
        return dv(ds, cols, **kwargs)

    def spy_items(items, work_bytes):
        item_lists.append(items)
        return item_ds(items, work_bytes)

    def no_read(*a, **kw):
        raise AssertionError("read_parquet")

    monkeypatch.setattr(ej, "distinct_values", spy_dv)
    monkeypatch.setattr(ej, "_item_dataset", spy_items)
    monkeypatch.setattr(ray.data, "read_parquet", no_read)
    return calls, item_lists


def test_auto_shared_dicts_in_one_pass(ray_session, cc_parquet, tmp_path,
                                       monkeypatch):
    """``shared_dict_columns="auto"`` reads the input once, through one
    ``distinct_values`` call over the string columns, with no
    ``read_parquet``, and picks lang only (url and text hold more than
    ``SHARED_DICT_MAX_CARD`` distinct values)."""
    calls, _ = _spy_dict_pass(monkeypatch)
    seen = _spy_broadcast(monkeypatch)
    summary = encode_job(cc_parquet, str(tmp_path / "enc"),
                         shared_dict_columns="auto")
    assert calls == [["lang", "text", "url"]]
    assert summary["shared_dict_columns"] == ["lang"]
    [(_, shared)] = seen
    langs = pq.read_table(cc_parquet, columns=["lang"])["lang"]
    assert (shared["lang"][0][2]["dictionary"].to_pylist()
            == sorted(set(langs.to_pylist())))


def test_auto_picks_by_exact_distinct_count(ray_session, tmp_path,
                                            monkeypatch):
    """``auto`` counts a column's distinct values over the whole input,
    not per row group: with at most 600 per row group, a column of 1,025
    distinct values is not picked and one of exactly 1,024 is, with all
    of them in its dictionary. A constant column is not picked."""
    from json_to_parquet_ray.pipelines.encode_job import SHARED_DICT_MAX_CARD

    assert SHARED_DICT_MAX_CARD == 1024
    n = 1800
    t = pa.table({"over": [f"o{i % 1025:04d}" for i in range(n)],
                  "at": [f"a{i % 1024:04d}" for i in range(n)],
                  "one": ["x"] * n})
    src = str(tmp_path / "card.parquet")
    pq.write_table(t, src, row_group_size=600)
    seen = _spy_broadcast(monkeypatch)
    summary = encode_job(src, str(tmp_path / "enc"),
                         shared_dict_columns="auto")
    assert summary["shared_dict_columns"] == ["at"]
    [(_, shared)] = seen
    assert (shared["at"][0][2]["dictionary"].to_pylist()
            == [f"a{i:04d}" for i in range(1024)])


def test_shared_dict_pass_reads_each_row_group_once(ray_session, cc_parquet,
                                                    tmp_path, monkeypatch):
    """Partitions smaller than a row group still give the dictionary pass
    one work item per row group, reading only the dictionary column."""
    _, item_lists = _spy_dict_pass(monkeypatch)
    summary = encode_job(cc_parquet, str(tmp_path / "enc"),
                         shared_dict_columns=["lang"],
                         max_rows_per_partition=200)
    assert summary["partitions_encoded"] == 12
    [dict_items] = [items for items in item_lists if "columns" in items[0]]
    assert sorted((i["row_group"], i["columns"]) for i in dict_items) == [
        (rg, ["lang"]) for rg in range(4)]


def test_named_shared_dicts_of_every_type_in_one_pass(ray_session, tmp_path,
                                                      monkeypatch):
    """Named binary, int64, string and large_string columns get their
    dictionaries from one ``distinct_values`` call, each holding the
    column's sorted non-null distinct values, of the column's own type
    except that a large_string dictionary is a string one."""
    import pyarrow.compute as pc

    n = 600
    t = pa.table({
        "b": pa.array([bytes([i % 7]) * 4 for i in range(n)], pa.binary()),
        "i": pa.array([None if i % 5 == 0 else 2**53 + i % 9
                       for i in range(n)], pa.int64()),
        "l": pa.array([f"l{i % 13}" for i in range(n)], pa.large_string()),
        "s": pa.array([f"s{i % 11}" for i in range(n)]),
    })
    src = str(tmp_path / "typed.parquet")
    pq.write_table(t, src, row_group_size=200)
    calls, _ = _spy_dict_pass(monkeypatch)
    seen = _spy_broadcast(monkeypatch)
    out = str(tmp_path / "enc")
    summary = encode_job(src, out, shared_dict_columns=t.column_names)
    assert calls == [t.column_names]
    assert summary["shared_dict_columns"] == t.column_names
    assert verify_job(out)["failed"] == []
    [(_, shared)] = seen
    for c in t.column_names:
        u = pc.unique(t.column(c)).drop_null()
        want = u.take(pc.array_sort_indices(u))
        if c == "l":
            want = want.cast(pa.string())
        assert shared[c][0][2]["dictionary"].equals(want), c


def test_cluster_job_zone_disjoint_and_verified(ray_session, tmp_path):
    """cluster_job: distributed sort → staged encode makes the cluster
    column's zones disjoint (equality prunes chunks), the store verifies
    bit-identical against its staging, and rows survive exactly."""
    from json_to_parquet_ray.pipelines.encode_job import (
        cluster_job,
        decode_dataset,
        zone_prune,
    )

    src = str(tmp_path / "cc.parquet")
    write_cc_parquet(src, 2000, seed=5, row_group_size=500)
    out = str(tmp_path / "clu")
    summary = cluster_job(src, out, by=["lang", "url"],
                          max_rows_per_partition=250)
    assert summary["clustered_by"] == ["lang", "url"]
    assert verify_job(out)["failed"] == []
    langs = pq.read_table(src, columns=["lang"]).column("lang").to_pylist()
    target = sorted(set(langs))[0]
    kept, skipped = zone_prune(out, {"lang": (target, target)})
    assert skipped > 0 and len(kept) > 0
    df = decode_dataset(out, columns=["lang"],
                        zone_filter={"lang": (target, target)}).to_pandas()
    assert len(df) == sum(1 for l in langs if l == target)
    assert (df["lang"] == target).all()


def test_cluster_job_rerun_no_duplicate_rows(ray_session, tmp_path):
    """Regression: re-running cluster_job into the same out_dir must not
    leave two manifest generations alive (Ray names staging shards
    per-execution, so identity-based resume can't claim the old ones —
    the prior run's records would DUPLICATE every row on decode). A
    completed staging is fingerprint-reused (true resume); a changed
    sort key regenerates staging AND clears the stale manifest."""
    from json_to_parquet_ray.pipelines.encode_job import (
        cluster_job,
        decode_dataset,
    )

    src = str(tmp_path / "cc.parquet")
    write_cc_parquet(src, 1000, seed=3, row_group_size=250)
    out = str(tmp_path / "clu")
    cluster_job(src, out, by=["lang", "url"], max_rows_per_partition=250)
    n = decode_dataset(out).count()
    assert n == 1000
    # same args: staging reused, resume skips everything, rows unchanged
    s2 = cluster_job(src, out, by=["lang", "url"],
                     max_rows_per_partition=250)
    assert s2["partitions_skipped_resume"] == s2["partitions_total"] > 0
    assert decode_dataset(out).count() == 1000
    # different sort key: fresh staging + cleared manifest, still 1000
    cluster_job(src, out, by=["url"], max_rows_per_partition=250)
    assert decode_dataset(out).count() == 1000
    assert verify_job(out)["failed"] == []


def test_in_list_uncastable_value_matches_sql_semantics(ray_session,
                                                        tmp_path):
    """Regression: an IN-list value the column type can't represent
    (2.5 against int64) must simply never match — not kill the read
    task with a lossy-cast ArrowInvalid."""
    from json_to_parquet_ray.pipelines.encode_job import (
        decode_dataset,
        encode_job,
    )

    src = str(tmp_path / "t.parquet")
    pq.write_table(pa.table({"id": pa.array(range(20), pa.int64())}), src)
    out = str(tmp_path / "enc")
    encode_job(src, out)
    df = decode_dataset(out, zone_filter={"id": [1, 2.5, 7.0]}).to_pandas()
    assert sorted(df["id"].tolist()) == [1, 7]  # 2.5 never present, 7.0 casts


def test_validate_zone_bounds_rejects_partial_ts_literal(ray_session,
                                                         tmp_path):
    """The shared fail-fast (decode AND scan-stats) must reject bounds a
    timestamp column can't parse — in range and IN-list form — instead
    of letting a lexical prune of every chunk masquerade as success."""
    import pytest as _pytest

    from json_to_parquet_ray.pipelines.encode_job import (
        effective_records,
        encode_job,
        validate_zone_bounds,
    )

    src = str(tmp_path / "cc.parquet")
    write_cc_parquet(src, 200, seed=2, row_group_size=100)
    out = str(tmp_path / "enc")
    encode_job(src, out)
    recs = effective_records(out)
    for bad in [{"warc_ts": (2024, 2025)}, {"warc_ts": ["2024"]}]:
        with _pytest.raises(ValueError, match="full literal"):
            validate_zone_bounds(recs, bad)
    validate_zone_bounds(recs, {"warc_ts": ("2024-01-01T00:00:00", None)})


def test_gc_job_reclaims_orphans(ray_session, cc_parquet, tmp_path):
    """gc: stale-generation records retire, unclaimed chunks and torn
    write temps are deleted, and verify/decode stay green."""
    from json_to_parquet_ray.manifest import (
        PartitionRecord,
        effective_records,
        record_path,
        write_atomic,
    )
    from json_to_parquet_ray.pipelines.encode_job import gc_job

    out = str(tmp_path / "enc_gc")
    encode_job(cc_parquet, out, shared_dict_columns=None)
    rows_before = decode_dataset(out).count()

    # (a) an unreferenced chunk (compaction-crash leftover)
    orphan = os.path.join(out, "shard-0ab", "part-0abcdef.rde")
    write_atomic(orphan, b"x" * 1024)
    # (b) a torn atomic-write temp
    tmp = os.path.join(out, "shard-0ab", "part-zzz.rde.tmp.123")
    with open(tmp, "wb") as f:
        f.write(b"y" * 10)
    # (c) a stale plain record losing manifest reconciliation: same
    # fragment as a live record but smaller row coverage
    live = effective_records(out)[0]
    stale_frag = dict(live.fragment)
    stale_frag["num_rows"] = max(1, live.num_rows // 2)
    stale = PartitionRecord(
        partition_id="deadbeefdeadbeef", fragment=stale_frag,
        num_rows=stale_frag["num_rows"],
        chunk_file=os.path.join("shard-dea", "part-dead.rde"),
        chunk_size=4)
    write_atomic(os.path.join(out, stale.chunk_file), b"abcd")
    write_atomic(record_path(out, stale.partition_id),
                 stale.to_json().encode())
    assert stale.partition_id in load_manifest(out)

    # dry run first: identical counts, nothing touched
    dry = gc_job(out, dry_run=True)
    assert dry["dry_run"] is True
    assert dry["records_retired"] == 1 and dry["chunks_deleted"] == 2
    assert dry["tmps_deleted"] == 1
    assert os.path.exists(orphan) and os.path.exists(tmp)
    assert stale.partition_id in load_manifest(out)

    res = gc_job(out)
    assert res["records_retired"] == 1
    assert res["chunks_deleted"] == 2   # the orphan + the stale chunk
    assert res["tmps_deleted"] == 1
    assert res["bytes_reclaimed"] >= 1024 + 10 + 4
    assert not os.path.exists(orphan) and not os.path.exists(tmp)
    assert stale.partition_id not in load_manifest(out)

    assert verify_job(out)["failed"] == []
    assert decode_dataset(out).count() == rows_before
    res2 = gc_job(out)  # idempotent: nothing left to reclaim
    assert res2["chunks_deleted"] == 0 and res2["records_retired"] == 0


def test_gc_job_keyed_store_re_encode(ray_session, tmp_path):
    """gc on a keyed store: a re-encode's previous generation (a gen-N
    dir the pointer does not name) is reclaimed, chunks and bytes
    counted; the current generation stays readable."""
    import ray

    from json_to_parquet_ray.pipelines import keyed_store
    from json_to_parquet_ray.pipelines.encode_job import gc_job

    out = str(tmp_path / "ks_gc")
    t1 = pa.table({"id": pa.array(range(100), pa.int64()),
                   "k": pa.array(["a"] * 50 + ["b"] * 50)})
    keyed_store.keyed_encode(ray.data.from_arrow(t1), out, "k", "id")
    g1 = keyed_store.live_generation(out)
    gen1 = {os.path.join(g1, r.chunk_file) for r in effective_records(g1)}
    assert len(gen1) == 2

    t2 = pa.table({"id": pa.array(range(100), pa.int64()),
                   "k": pa.array(["c"] * 50 + ["d"] * 50)})
    keyed_store.keyed_encode(ray.data.from_arrow(t2), out, "k", "id")

    gen1_bytes = sum(os.path.getsize(p) for p in gen1)
    dry = gc_job(out, dry_run=True)
    res = gc_job(out)
    assert res["chunks_deleted"] == dry["chunks_deleted"] == len(gen1)
    assert res["bytes_reclaimed"] == dry["bytes_reclaimed"] > gen1_bytes
    assert not os.path.exists(g1)
    ds, _ = keyed_store.keyed_read(out)
    got = ds.to_pandas()
    assert len(got) == 100
    assert sorted(got["k"].unique()) == ["c", "d"]


def test_gc_job_refuses_non_store(tmp_path):
    from json_to_parquet_ray.pipelines.encode_job import gc_job

    with pytest.raises(ValueError, match="neither"):
        gc_job(str(tmp_path))


def test_manifest_consolidate_lifecycle(ray_session, tmp_path):
    """Consolidated manifest index: one parquet file replaces the
    per-partition JSONs (one driver read instead of 10^7 file opens at
    scale); resume, appends (JSON deltas overlay the index), compaction
    retirement of index-resident records, and gc all keep working."""
    import glob as _glob

    from json_to_parquet_ray.manifest import (
        consolidate,
        effective_records,
        index_path,
    )
    from json_to_parquet_ray.pipelines.encode_job import compact_job, gc_job

    d = tmp_path / "src"
    d.mkdir()
    write_cc_parquet(str(d / "a.parquet"), 1000, seed=1, row_group_size=250)
    out = str(tmp_path / "enc")
    encode_job(str(d), out, shared_dict_columns=None)
    before = load_manifest(out)
    assert len(before) == 4

    res = consolidate(out)
    assert res == {"records_indexed": 4, "delta_files_removed": 4,
                   "sealed": True}
    assert os.path.exists(index_path(out))
    assert not _glob.glob(os.path.join(out, "_manifest",
                                       "shard-*", "part-*.json"))
    after = load_manifest(out)
    assert {p: r.to_json() for p, r in after.items()} == \
           {p: r.to_json() for p, r in before.items()}
    assert verify_job(out)["failed"] == []

    # resume reads the index: a second encode re-encodes nothing
    s2 = encode_job(str(d), out, shared_dict_columns=None)
    assert s2["partitions_skipped_resume"] == 4
    assert s2["partitions_encoded"] == 0

    # append: a new input file encodes as JSON deltas over the index
    write_cc_parquet(str(d / "b.parquet"), 500, seed=2, row_group_size=250)
    s3 = encode_job(str(d), out, shared_dict_columns=None)
    assert s3["partitions_encoded"] == 2
    assert s3["partitions_skipped_resume"] == 4
    assert len(load_manifest(out)) == 6
    assert decode_dataset(out).count() == 1500
    assert consolidate(out)["records_indexed"] == 6  # folds deltas in

    # compaction retires INDEX-resident records (one index rewrite)
    c = compact_job(out, min_rows=10_000)
    assert c["groups"] == 1 and c["chunks_after"] == 1
    eff = effective_records(out)
    assert len(eff) == 1 and "merged" in eff[0].fragment
    assert len(load_manifest(out)) == 1
    assert verify_job(out)["failed"] == []
    assert decode_dataset(out).count() == 1500

    # gc on the indexed store: nothing live is touched, idempotent
    g = gc_job(out)
    assert g["chunks_deleted"] == 0 and g["records_retired"] == 0
    assert decode_dataset(out).count() == 1500


def test_store_stats_metrics(ray_session, cc_parquet, tmp_path):
    """store_stats: per-column codec distribution and encoded bytes come
    from manifest records alone, and survive consolidation."""
    from json_to_parquet_ray.manifest import consolidate
    from json_to_parquet_ray.pipelines.encode_job import store_stats

    out = str(tmp_path / "enc_ss")
    encode_job(cc_parquet, out, shared_dict_columns=None)
    s = store_stats(out)
    assert s["chunks"] == 4 and s["rows"] == 2000
    assert set(s["columns"]) == {"url", "warc_ts", "html", "text", "lang"}
    for st in s["columns"].values():
        assert sum(st["codecs"].values()) == 4      # every chunk counted
        assert st["encoded_bytes"] > 0
    # column bytes are part of (never exceed) the chunk files' bytes
    assert sum(st["encoded_bytes"] for st in s["columns"].values()) \
        <= s["chunk_bytes"]
    assert s["encode_wall_s"] > 0
    consolidate(out)
    assert store_stats(out) == s


def test_corrupt_index_fails_loudly_and_gc_refuses(ray_session, cc_parquet,
                                                   tmp_path, both_sides):
    """An index that exists but cannot be read must RAISE, not read as an
    empty store — gc would otherwise sweep every live chunk, decode
    would return no row and verify would pass vacuously."""
    from json_to_parquet_ray.manifest import (
        consolidate,
        index_path,
    )
    from json_to_parquet_ray.pipelines.encode_job import gc_job

    out = str(tmp_path / "enc_ci")
    encode_job(cc_parquet, out, shared_dict_columns=None)
    consolidate(out)
    with open(index_path(out), "wb") as f:
        f.write(b"not a parquet file")
    with pytest.raises(ValueError, match="cannot be read"):
        load_manifest(out)
    with pytest.raises(ValueError, match="cannot be read"):
        gc_job(out)
    assert glob.glob(os.path.join(out, "shard-*", "*.rde"))  # untouched

    def unreadable():
        with pytest.raises(ValueError, match="cannot be read"):
            decode_dataset(out)
        with pytest.raises(ValueError, match="cannot be read"):
            verify_job(out)

    both_sides(unreadable)


def test_keyed_reencode_same_keys_fresh_generation(ray_session, tmp_path):
    """Re-encoding the SAME key set with changed data writes a fresh
    gen-N dir — live chunks are never overwritten before the pointer
    write; gc reclaims the superseded generation afterwards."""
    import ray

    from json_to_parquet_ray.pipelines import keyed_store
    from json_to_parquet_ray.pipelines.encode_job import gc_job

    out = str(tmp_path / "ks_gen")
    t1 = pa.table({"id": pa.array(range(20), pa.int64()),
                   "k": pa.array(["a", "b"] * 10),
                   "v": pa.array([1] * 20, pa.int64())})
    def chunk_files() -> set:
        gen = keyed_store.live_generation(out)
        return {os.path.relpath(os.path.join(gen, r.chunk_file), out)
                for r in effective_records(gen)}

    keyed_store.keyed_encode(ray.data.from_arrow(t1), out, "k", "id")
    gen1 = chunk_files()
    assert gen1 and all(cf.startswith("gen-0/") for cf in gen1)

    t2 = t1.set_column(2, "v", pa.array([2] * 20, pa.int64()))
    keyed_store.keyed_encode(ray.data.from_arrow(t2), out, "k", "id")
    gen2 = chunk_files()
    assert all(cf.startswith("gen-1/") for cf in gen2)
    assert gen1.isdisjoint(gen2)
    for cf in gen1:  # old bytes intact until gc (crash-window safety)
        assert os.path.exists(os.path.join(out, cf))

    g = gc_job(out)
    assert g["chunks_deleted"] == len(gen1)
    assert not os.path.isdir(os.path.join(out, "gen-0"))  # dir swept too
    ds, _ = keyed_store.keyed_read(out)
    assert set(ds.to_pandas()["v"]) == {2}


def test_store_stats_and_consolidate_refuse_non_store(tmp_path):
    from json_to_parquet_ray.manifest import consolidate
    from json_to_parquet_ray.pipelines.encode_job import store_stats

    with pytest.raises(ValueError, match="not an encoded store"):
        store_stats(str(tmp_path))
    with pytest.raises(ValueError, match="not an encoded store"):
        consolidate(str(tmp_path))


def test_encode_job_consolidate_manifest_flag(ray_session, cc_parquet,
                                              tmp_path):
    """encode_job(consolidate_manifest=True) finishes with one index and
    zero JSON deltas; resume and verify read it transparently."""
    import glob as _glob

    from json_to_parquet_ray.manifest import index_path

    out = str(tmp_path / "enc_cm")
    s = encode_job(cc_parquet, out, shared_dict_columns=None,
                   consolidate_manifest=True)
    assert s["consolidated"]["records_indexed"] == 4
    assert os.path.exists(index_path(out))
    assert not _glob.glob(os.path.join(out, "_manifest",
                                       "shard-*", "part-*.json"))
    s2 = encode_job(cc_parquet, out, shared_dict_columns=None)
    assert s2["partitions_skipped_resume"] == 4
    assert verify_job(out)["failed"] == []


def test_sealed_index_fast_path(ray_session, cc_parquet, tmp_path,
                                both_sides):
    """A sealed index with no deltas skips interval reconciliation but
    returns the identical effective set; any delta or conflict unseals."""
    from json_to_parquet_ray.manifest import (
        PartitionRecord,
        _record_sources,
        consolidate,
        effective_records,
        record_path,
        write_atomic,
    )

    out = str(tmp_path / "enc_seal")
    encode_job(cc_parquet, out, shared_dict_columns=None)
    slow = [r.to_json() for r in effective_records(out)]

    res = consolidate(out)
    assert res["sealed"] is True
    _, sealed, shortcut, _ = _record_sources(out)
    assert sealed and shortcut
    # fast path (manifest=None) == full reconciliation result
    assert [r.to_json() for r in effective_records(out)] == slow

    # a JSON delta unseals the READ (flag stays, delta check catches it)
    extra = encode_job(cc_parquet, str(tmp_path / "other"),
                       shared_dict_columns=None)  # noqa: F841
    live = effective_records(out)[0]
    stale_frag = dict(live.fragment)
    stale_frag["num_rows"] = 1
    stale = PartitionRecord(
        partition_id="feedfacefeedface", fragment=stale_frag, num_rows=1,
        chunk_file=os.path.join("shard-fee", "part-feed.rde"),
        chunk_size=3)
    write_atomic(os.path.join(out, stale.chunk_file), b"abc")
    write_atomic(record_path(out, stale.partition_id),
                 stale.to_json().encode())
    _, sealed, shortcut, _ = _record_sources(out)
    assert sealed and not shortcut
    # reconciliation still wins: the conflicting delta is dropped
    assert [r.to_json() for r in effective_records(out)] == slow
    # re-consolidating with the conflict folded in must NOT seal
    res2 = consolidate(out)
    assert res2["sealed"] is False
    assert [r.to_json() for r in effective_records(out)] == slow
    assert verify_job(out)["failed"] == []
    # the distributed scan checks every row of an UNSEALED index for
    # overlap, so the stale record loses there too
    one, scan = both_sides(lambda: verify_job(out))
    assert one == scan and one["failed"] == []
    one, scan = both_sides(lambda: decode_dataset(out).take_all())
    assert one == scan


def _table(ds) -> pa.Table:
    return pa.concat_tables(
        ds.iter_batches(batch_format="pyarrow", batch_size=4096))


def test_sealed_index_streamed_decode_order_identical(ray_session,
                                                      tmp_path,
                                                      both_sides):
    """Decoding a sealed store reads work items off the index row groups
    and yields byte-identical rows, in the same order as before
    consolidation, through both the one-task case and the distributed
    scan."""
    from json_to_parquet_ray.manifest import consolidate

    d = tmp_path / "src"
    d.mkdir()
    write_cc_parquet(str(d / "a.parquet"), 1500, seed=3, row_group_size=250)
    write_cc_parquet(str(d / "b.parquet"), 500, seed=4, row_group_size=250)
    out = str(tmp_path / "enc_stream")
    encode_job(str(d), out, shared_dict_columns=None)

    before = _table(decode_dataset(out))
    res = consolidate(out)
    assert res["sealed"] is True
    for after in both_sides(lambda: _table(decode_dataset(out))):
        assert after.equals(before)          # values AND row order
    for proj in both_sides(lambda: _table(
            decode_dataset(out, columns=["url", "lang"]))):
        assert proj.equals(before.select(["url", "lang"]))
    one, scan = both_sides(lambda: verify_job(out))
    assert one == scan and one["failed"] == []


def test_unsealed_overlay_streamed_decode_and_verify(ray_session, tmp_path,
                                                     both_sides):
    """A sealed index OVERLAID by JSON deltas decodes/verifies through the
    distributed scan — index rows stream off the parquet row groups, only
    the small delta set reconciles on the driver — with rows AND order
    identical to the one-task case's full reconciliation. Covers both
    delta shapes: (A) plain append deltas, (B) a crashed compaction's
    merged delta superseding index-resident plain records."""
    from json_to_parquet_ray.manifest import (
        _record_sources,
        consolidate,
        index_path,
    )
    from json_to_parquet_ray.pipelines.encode_job import compact_job

    d = tmp_path / "src"
    d.mkdir()
    write_cc_parquet(str(d / "a.parquet"), 1000, seed=5, row_group_size=250)
    out = str(tmp_path / "enc_ovl")
    encode_job(str(d), out, shared_dict_columns=None)
    assert consolidate(out)["sealed"] is True

    # (A) append: two JSON deltas over the sealed 4-record index
    write_cc_parquet(str(d / "b.parquet"), 500, seed=6, row_group_size=250)
    encode_job(str(d), out, shared_dict_columns=None)
    # the overlay shape: a sealed index with JSON deltas over it
    _, sealed, shortcut, _ = _record_sources(out)
    assert sealed and not shortcut

    slow, fast = both_sides(lambda: _table(decode_dataset(out)))
    assert fast.equals(slow)             # values AND row order
    assert slow.num_rows == 1500
    one, v = both_sides(lambda: verify_job(out))
    assert one == v == {"partitions": 6, "ok": 6, "failed": []}

    # (B) crashed compaction: fold the deltas in, compact (merged record
    # lands as a JSON delta, retirement rewrites the index), then restore
    # the pre-compaction index and chunks — the crash window where the
    # merged delta and its covered index-resident plains coexist
    assert consolidate(out)["records_indexed"] == 6
    idx_bytes = open(index_path(out), "rb").read()
    chunks = {os.path.join(out, r.chunk_file): None
              for r in load_manifest(out).values()}
    for p in chunks:
        chunks[p] = open(p, "rb").read()
    c = compact_job(out, min_rows=10_000)
    assert c["groups"] == 1
    open(index_path(out), "wb").write(idx_bytes)
    for p, blob in chunks.items():
        os.makedirs(os.path.dirname(p), exist_ok=True)
        open(p, "wb").write(blob)

    slow_b, fast_b = both_sides(lambda: _table(decode_dataset(out)))
    assert fast_b.equals(slow_b)         # merged wins, no duplication
    assert fast_b.num_rows == 1500
    one, v = both_sides(lambda: verify_job(out))
    assert one == v
    assert v["failed"] == [] and v["partitions"] == 1  # the merged record


def test_unsealed_store_streamed_decode_and_verify(ray_session, tmp_path,
                                                   both_sides):
    """A NEVER-consolidated store (sharded JSON records, no index)
    decodes/verifies through the distributed scan — record files are
    read and classified inside tasks, only contested records reconcile
    on the driver — with rows AND order identical to the one-task case's
    full reconciliation. Covers: (A) the clean fresh-encode shape, (B) a
    crashed compaction (merged record + its covered plain records
    coexisting — every one of them contested), (C) a torn JSON record
    skipped identically by both shapes."""
    import shutil

    from json_to_parquet_ray.manifest import index_path, manifest_dir
    from json_to_parquet_ray.pipelines.encode_job import compact_job

    d = tmp_path / "src"
    d.mkdir()
    write_cc_parquet(str(d / "a.parquet"), 1000, seed=11, row_group_size=250)
    out = str(tmp_path / "enc_uns")
    encode_job(str(d), out, shared_dict_columns=None)
    assert not os.path.exists(index_path(out))  # no index at all

    # (A) clean store: parity of rows AND order, verify all-ok
    slow, fast = both_sides(lambda: _table(decode_dataset(out)))
    assert fast.equals(slow)
    assert slow.num_rows == 1000
    assert both_sides(lambda: verify_job(out)) == [
        {"partitions": 4, "ok": 4, "failed": []}] * 2

    # (B) crashed compaction: snapshot records+chunks, compact (merged
    # record lands, old records/chunks retired), then restore the old
    # plain records and chunks — merged + covered plains coexist
    mdir = manifest_dir(out)
    snap = str(tmp_path / "msnap")
    shutil.copytree(mdir, snap)
    chunks = {os.path.join(out, r.chunk_file): None
              for r in load_manifest(out).values()}
    for p in chunks:
        chunks[p] = open(p, "rb").read()
    c = compact_job(out, min_rows=10_000)
    assert c["groups"] == 1
    for root, _, names in os.walk(snap):
        for name in names:
            src_p = os.path.join(root, name)
            dst_p = os.path.join(mdir, os.path.relpath(src_p, snap))
            if not os.path.exists(dst_p):
                os.makedirs(os.path.dirname(dst_p), exist_ok=True)
                shutil.copyfile(src_p, dst_p)
    for p, blob in chunks.items():
        if not os.path.exists(p):
            os.makedirs(os.path.dirname(p), exist_ok=True)
            open(p, "wb").write(blob)

    slow_b, fast_b = both_sides(lambda: _table(decode_dataset(out)))
    assert fast_b.equals(slow_b)        # merged wins, no duplication
    assert fast_b.num_rows == 1000
    one, v = both_sides(lambda: verify_job(out))
    assert one == v
    assert v["failed"] == [] and v["partitions"] == 1  # the merged record

    # (C) a torn record is skipped in-task, the same way by both shapes
    shard = sorted(p for p in os.listdir(mdir) if p.startswith("shard-"))[0]
    torn = os.path.join(mdir, shard, "part-deadbeef.json")
    open(torn, "w").write('{"partition_id": "deadbeef", "trunca')
    for got in both_sides(lambda: _table(decode_dataset(out))):
        assert got.equals(slow_b)


def test_sealed_store_zone_filter_streams(ray_session, tmp_path,
                                          both_sides):
    """zone_filter on a sealed store prunes INSIDE the distributed index
    scan — rows and order identical to the one-task case's prune, and
    bad timestamp bounds fail loudly on both shapes."""
    from json_to_parquet_ray.manifest import consolidate

    d = tmp_path / "src"
    d.mkdir()
    write_cc_parquet(str(d / "a.parquet"), 1000, seed=17, row_group_size=125)
    out = str(tmp_path / "enc_zone")
    encode_job(str(d), out, shared_dict_columns=None)
    assert consolidate(out)["sealed"] is True

    zf = {"lang": ("de", "en")}
    slow, fast = both_sides(
        lambda: _table(decode_dataset(out, zone_filter=zf)))
    assert fast.equals(slow)             # values AND row order
    assert 0 < fast.num_rows <= 1000

    def bad_bounds():
        with pytest.raises(ValueError, match="not a full literal"):
            decode_dataset(out, zone_filter={"warc_ts": ("2024", None)})
        # an incomparable bound on a non-timestamp column must ALSO
        # raise a clean ValueError from the call (not an opaque
        # RayTaskError mid-stream) — int bounds against lang's string
        # zones
        with pytest.raises(ValueError, match="not comparable") as e:
            decode_dataset(out, zone_filter={"lang": (0, 9)})
        assert type(e.value) is ValueError

    both_sides(bad_bounds)
    # a column no record carries validates vacuously; the exact filter
    # then excludes every chunk's rows — identical on both shapes
    assert both_sides(lambda: decode_dataset(
        out, zone_filter={"nope": (0, 1)}).count()) == [0, 0]


def test_streamed_zone_validation_skips_null_slice_sample(ray_session,
                                                          tmp_path,
                                                          both_sides):
    """A first chunk whose timestamp column is ALL NULL carries no zone
    info for it — the streamed validation must not let that zone-less
    entry shadow real ts zones, or a partial literal would slip through
    and lexically prune every chunk (empty result masquerading as
    success)."""
    from json_to_parquet_ray.fixtures import make_cc_table
    from json_to_parquet_ray.manifest import consolidate

    d = tmp_path / "src"
    d.mkdir()
    t = make_cc_table(300, seed=19)
    nullts = t.set_column(t.schema.get_field_index("warc_ts"), "warc_ts",
                          pa.nulls(300, t.schema.field("warc_ts").type))
    pq.write_table(nullts, str(d / "a.parquet"), row_group_size=300)
    pq.write_table(make_cc_table(300, seed=23), str(d / "b.parquet"),
                   row_group_size=300)
    out = str(tmp_path / "enc_nullts")
    encode_job(str(d), out, shared_dict_columns=None)
    assert consolidate(out)["sealed"] is True

    # record 0 (a.parquet) has NO warc_ts zone; the partial literal must
    # still be rejected from the call, by both shapes
    def bad_bound():
        with pytest.raises(ValueError, match="not a full literal"):
            decode_dataset(out, zone_filter={"warc_ts": ("2024", None)})

    both_sides(bad_bound)


def test_streamed_zone_validation_finds_mid_store_column(ray_session,
                                                         tmp_path,
                                                         both_sides):
    """A zone-filter column that exists ONLY in mid-store records (schema
    evolution) is absent from the index's first AND last row groups, so
    the streamed validation's fallback scan is its only chance: it must
    find the column's ts-flagged zone and reject a partial literal with
    the clean driver ValueError — a starved/vacuous fallback would defer
    the error to an opaque mid-stream task failure (or prune silently).
    Layout: 256 base records, 2 evolved records carrying ``crawl_ts``,
    256 base records → 3 index row groups (256 rows each), evolved rows
    strictly inside the middle one."""
    from json_to_parquet_ray.manifest import consolidate, index_path

    src = tmp_path / "evo_mid"
    src.mkdir()
    pq.write_table(make_cc_table(256, seed=7),
                   str(src / "a_base.parquet"))
    mid = make_cc_table(2, seed=8).append_column(
        "crawl_ts", pa.array([1_700_000_000_000_000,
                              1_700_000_001_000_000],
                             pa.timestamp("us")))
    pq.write_table(mid, str(src / "m_mid.parquet"))
    pq.write_table(make_cc_table(256, seed=9),
                   str(src / "z_base.parquet"))

    out = str(tmp_path / "enc_evo_mid")
    encode_job(str(src), out, shared_dict_columns=None,
               max_rows_per_partition=1)
    assert consolidate(out)["sealed"] is True
    # 514 records at 256 rows/row-group → first and last row groups are
    # base-schema only (the precondition that forces the fallback scan)
    pf = pq.ParquetFile(index_path(out))
    assert pf.num_row_groups >= 3

    import json as _json
    for rg in (0, pf.num_row_groups - 1):
        names = {c["name"]
                 for raw in pf.read_row_group(rg).column("json").to_pylist()
                 for c in _json.loads(raw)["columns"]}
        assert "crawl_ts" not in names

    def bad_bound():
        with pytest.raises(ValueError, match="not a full literal"):
            decode_dataset(out, zone_filter={"crawl_ts": ("2024", None)})

    both_sides(bad_bound)


def test_streamed_zone_validation_mid_store_type_flip(ray_session,
                                                     tmp_path,
                                                     both_sides):
    """A zone-filter bound that compares fine with the first and last
    records' zones but NOT with a mid-store record's (the column's type
    differs only there) must raise the clean driver ValueError from
    ``decode_dataset`` itself on both shapes of the record scan — not
    later as a task failure mid-stream. Layout as in the mid-store
    column test: the flipped records sit strictly inside the middle
    index row group."""
    from json_to_parquet_ray.manifest import consolidate

    src = tmp_path / "flip_mid"
    src.mkdir()

    def with_score(t, values, typ):
        return t.append_column("score", pa.array(values, typ))

    pq.write_table(with_score(make_cc_table(256, seed=7), range(256),
                              pa.int64()), str(src / "a_base.parquet"))
    pq.write_table(with_score(make_cc_table(2, seed=8), ["x", "y"],
                              pa.string()), str(src / "m_mid.parquet"))
    pq.write_table(with_score(make_cc_table(256, seed=9), range(256),
                              pa.int64()), str(src / "z_base.parquet"))
    out = str(tmp_path / "enc_flip_mid")
    encode_job(str(src), out, shared_dict_columns=None,
               max_rows_per_partition=1)
    assert consolidate(out)["sealed"] is True

    def bad_bound():
        with pytest.raises(ValueError, match="not comparable"):
            decode_dataset(out, zone_filter={"score": (0, 9)})

    both_sides(bad_bound)


def test_zone_filtered_overlay_and_unsealed_reads_stream(ray_session,
                                                         tmp_path,
                                                         monkeypatch,
                                                         both_sides):
    """A zone-filtered read of an overlay store (sealed index + JSON
    deltas) and of a never-consolidated store prunes in the record scan
    — the driver never builds the effective record list — and returns
    the same rows in the same order from the one-task case and the
    distributed scan."""
    from json_to_parquet_ray.manifest import consolidate
    from json_to_parquet_ray.pipelines import encode_job as ej

    d = tmp_path / "src"
    d.mkdir()
    write_cc_parquet(str(d / "a.parquet"), 1000, seed=29, row_group_size=125)
    unsealed = str(tmp_path / "unsealed")
    encode_job(str(d), unsealed, shared_dict_columns=None)
    overlay = str(tmp_path / "overlay")
    encode_job(str(d), overlay, shared_dict_columns=None)
    assert consolidate(overlay)["sealed"] is True
    write_cc_parquet(str(d / "b.parquet"), 500, seed=31, row_group_size=250)
    encode_job(str(d), overlay, shared_dict_columns=None)

    src = pq.read_table(str(d / "a.parquet"))
    ts = sorted(src.column("warc_ts").to_pylist())
    filters = [{"warc_ts": (ts[200].isoformat(), ts[600].isoformat())},
               {"url": src.column("url").to_pylist()[::97] + ["absent"]}]

    want = {(out, i): _table(decode_dataset(out, zone_filter=zf))
            for out in (unsealed, overlay) for i, zf in enumerate(filters)}

    def no_driver_list(*a, **k):
        raise AssertionError("effective_records called on the driver")

    monkeypatch.setattr(ej, "effective_records", no_driver_list)
    for (out, i), slow in want.items():
        assert slow.num_rows > 0
        for got in both_sides(lambda: _table(
                decode_dataset(out, zone_filter=filters[i]))):
            assert got.equals(slow), (out, i)


def test_overlap_keys_boundary_stitching(ray_session):
    """_overlap_keys must find overlaps wherever the sorted blocks split
    a key — including ones visible only through the cross-block running
    cummax — and report none for fully disjoint claims. Deliberately run
    WITHOUT preserve_order: the stitching reorders block summaries by
    their own first sort key, so executor emission order must not
    matter."""
    import pandas as pd
    import ray

    from json_to_parquet_ray.pipelines.encode_job import _overlap_keys

    # A: 64 disjoint tiles + one hidden mid-key overlap; B: disjoint;
    # C: a wide early interval that swallows every later C row (only
    # the running cummax sees it across block boundaries)
    rows = []
    for i in range(64):
        for k in ("A", "B", "C"):
            rows.append({"fkey": k, "f_rs": i * 10,
                         "f_end": i * 10 + 10})
    rows.append({"fkey": "A", "f_rs": 315, "f_end": 316})
    rows.append({"fkey": "C", "f_rs": 0, "f_end": 1000})
    ds = ray.data.from_pandas(pd.DataFrame(rows)).repartition(37)
    assert _overlap_keys(ds) == {"A", "C"}

    clean = ray.data.from_pandas(pd.DataFrame(
        [{"fkey": "K", "f_rs": i * 10, "f_end": i * 10 + 10}
         for i in range(64)])).repartition(19)
    assert _overlap_keys(clean) == set()


def test_unsealed_streamed_parity_fuzz(ray_session, tmp_path, both_sides):
    """Randomized unsealed stores — random partition slicing, plus a
    second generation re-encoded with DIFFERENT slicing over the same
    input (whole-group vs slice claims on every row group) — must decode
    identically (rows AND order, no duplication) through the distributed
    scan and the one-task case's reconciliation."""
    import random

    rng = random.Random(20260819)
    for trial in range(3):
        d = tmp_path / f"src{trial}"
        d.mkdir()
        nrows = rng.choice([400, 600, 1000])
        write_cc_parquet(str(d / "a.parquet"), nrows,
                         seed=100 + trial,
                         row_group_size=rng.choice([100, 200, 250]))
        out = str(tmp_path / f"enc{trial}")
        slicings = rng.sample([None, 40, 60, 100, 170], 2)
        encode_job(str(d), out, shared_dict_columns=None,
                   max_rows_per_partition=slicings[0])
        # second generation: same input, different slicing, no resume —
        # every row group now has overlapping claims from two
        # generations; exactly one generation must decode
        encode_job(str(d), out, shared_dict_columns=None,
                   max_rows_per_partition=slicings[1], resume=False)

        slow, fast = both_sides(lambda: _table(decode_dataset(out)))
        assert fast.equals(slow), (trial, slicings)
        assert fast.num_rows == nrows, (trial, slicings, fast.num_rows)
        one, v = both_sides(lambda: verify_job(out))
        assert one == v and v["failed"] == [], (trial, slicings, v)

        # now the OVERLAY shape with real conflicts: consolidate (seals
        # the reconciled generation), then a third generation with yet
        # another slicing lands as JSON deltas whose fragment keys
        # collide with index records — the distributed scan must
        # reconcile them identically to the one-task case
        from json_to_parquet_ray.manifest import consolidate
        from json_to_parquet_ray.pipelines.encode_job import gc_job

        gc_job(out)  # retire the losing generation so consolidate seals
        assert consolidate(out)["sealed"] is True
        third = rng.choice([s for s in [None, 40, 60, 100, 170]
                            if s not in slicings])
        encode_job(str(d), out, shared_dict_columns=None,
                   max_rows_per_partition=third, resume=False)
        slow_o, fast_o = both_sides(lambda: _table(decode_dataset(out)))
        assert fast_o.equals(slow_o), (trial, slicings, third)
        assert fast_o.num_rows == nrows, (trial, slicings, third)
        one, v = both_sides(lambda: verify_job(out))
        assert one == v and v["failed"] == []

    # one MIXED store holding every record shape at once: a sealed index,
    # appended JSON deltas, a crashed compaction's merged delta over
    # index-resident plain records, a delta sharing a partition_id with
    # an index record, and a torn record
    import shutil
    from dataclasses import asdict

    from json_to_parquet_ray.manifest import (
        PartitionRecord,
        consolidate,
        effective_records,
        manifest_dir,
        shard_of,
        write_record,
    )
    from json_to_parquet_ray.pipelines.encode_job import compact_job

    d = tmp_path / "mixed_src"
    d.mkdir()
    write_cc_parquet(str(d / "a.parquet"), 1000, seed=41, row_group_size=125)
    out = str(tmp_path / "mixed")
    encode_job(str(d), out, shared_dict_columns=None)
    assert consolidate(out)["sealed"] is True
    index_recs = effective_records(out)
    write_cc_parquet(str(d / "b.parquet"), 500, seed=42, row_group_size=250)
    encode_job(str(d), out, shared_dict_columns=None)     # 2 JSON deltas

    # crashed compaction: merge the first three index-resident records in
    # a side store, then land only the merged record + chunk here
    side = str(tmp_path / "mixed_side")
    for r in index_recs[:3]:
        os.makedirs(os.path.dirname(os.path.join(side, r.chunk_file)),
                    exist_ok=True)
        shutil.copyfile(os.path.join(out, r.chunk_file),
                        os.path.join(side, r.chunk_file))
        write_record(side, r)
    assert compact_job(side, min_rows=10_000)["groups"] == 1
    (merged,) = load_manifest(side).values()
    os.makedirs(os.path.dirname(os.path.join(out, merged.chunk_file)),
                exist_ok=True)
    shutil.copyfile(os.path.join(side, merged.chunk_file),
                    os.path.join(out, merged.chunk_file))
    write_record(out, merged)

    # partition_id collision: a delta for an index record whose chunk
    # moved — only the delta (which wins) still points at a real chunk
    victim = index_recs[5]
    moved = PartitionRecord(**{
        **asdict(victim), "chunk_file": os.path.join(
            shard_of(victim.partition_id),
            f"part-{victim.partition_id}-v2.rde")})
    os.replace(os.path.join(out, victim.chunk_file),
               os.path.join(out, moved.chunk_file))
    write_record(out, moved)

    shard = sorted(p for p in os.listdir(manifest_dir(out))
                   if p.startswith("shard-"))[0]
    with open(os.path.join(manifest_dir(out), shard,
                           "part-deadbeef.json"), "w") as f:
        f.write('{"partition_id": "deadbeef", "trunca')

    def both(**kw):
        return both_sides(lambda: _table(decode_dataset(out, **kw)))

    slow_m, fast_m = both()
    assert fast_m.equals(slow_m)                 # rows AND order
    assert slow_m.num_rows == 1500
    ts = sorted(slow_m.column("warc_ts").to_pylist())
    urls = slow_m.column("url").to_pylist()
    for zf in ({"warc_ts": (ts[300].isoformat(), ts[700].isoformat())},
               {"url": [urls[10], urls[620], urls[1400], "absent"]}):
        slow_z, fast_z = both(zone_filter=zf)
        assert fast_z.equals(slow_z), zf
        assert slow_z.num_rows > 0, zf
    v_slow, v_fast = both_sides(lambda: verify_job(out))
    assert v_fast == v_slow
    assert v_fast["failed"] == [] and v_fast["partitions"] == 8


def test_overlap_keys_fuzz_vs_bruteforce(ray_session):
    """Randomized interval sets (zero-length claims, duplicate starts,
    wide spans, many keys) across randomized block splits must match a
    brute-force O(n²) overlap oracle exactly."""
    import random

    import pandas as pd
    import ray

    from json_to_parquet_ray.pipelines.encode_job import _overlap_keys

    rng = random.Random(20260819)
    for trial in range(12):
        rows = []
        nkeys = rng.randint(1, 6)
        for ki in range(nkeys):
            for _ in range(rng.randint(1, 40)):
                rs = rng.randrange(0, 300)
                ln = rng.choice([0, 1, rng.randrange(0, 50),
                                 rng.randrange(0, 500)])
                rows.append({"fkey": f"k{ki}", "f_rs": rs,
                             "f_end": rs + ln})
        expect = set()
        by_key: dict = {}
        for r in rows:
            by_key.setdefault(r["fkey"], []).append(
                (r["f_rs"], r["f_end"]))
        for k, iv in by_key.items():
            if any(a != b and s1 < e2 and s2 < e1
                   for a, (s1, e1) in enumerate(iv)
                   for b, (s2, e2) in enumerate(iv)):
                expect.add(k)
        ds = ray.data.from_pandas(pd.DataFrame(rows)).repartition(
            rng.randint(1, len(rows)))
        got = _overlap_keys(ds)
        assert got == expect, (trial, sorted(got), sorted(expect))


def test_unsealed_sliced_store_streams_clean(ray_session, tmp_path,
                                             monkeypatch, both_sides):
    """max_rows_per_partition slices every row group into several
    interval-DISJOINT records sharing a (path, row_group) key — claim
    counting would call the whole store contested and pull every record
    to the driver. The interval-exact contest detection must keep such a
    store fully streamed (zero driver-reconciled records) and parity must
    hold; a genuinely OVERLAPPING pair (re-encode with a different slice
    size — whole-group record vs slices) must still be contested."""
    from json_to_parquet_ray import manifest
    from json_to_parquet_ray.pipelines import encode_job as ej

    reconciled = []
    real_reconcile = manifest.overlay_reconcile

    def spy(out_dir, contested):
        chosen = real_reconcile(out_dir, contested)
        reconciled.append(chosen)
        return chosen

    monkeypatch.setattr(manifest, "overlay_reconcile", spy)

    d = tmp_path / "src"
    d.mkdir()
    write_cc_parquet(str(d / "a.parquet"), 1000, seed=13, row_group_size=500)
    out = str(tmp_path / "enc_sliced")
    # 2 row groups × 5 slices each = 10 interval-disjoint records
    encode_job(str(d), out, shared_dict_columns=None,
               max_rows_per_partition=100)

    def scanned_items():
        # the items the distributed scan maps over
        return both_sides(lambda: ej._record_scan(
            out, None, ["partition_id"], lambda b: b))[1].take_all()

    assert len(scanned_items()) == 10
    assert reconciled == []                 # disjoint slices: all clean

    slow, fast = both_sides(lambda: _table(decode_dataset(out)))
    assert fast.equals(slow) and fast.num_rows == 1000

    # true overlap: re-encode the same input UNSLICED without resume —
    # whole-row-group records land alongside the slice records
    encode_job(str(d), out, shared_dict_columns=None, resume=False)
    reconciled.clear()
    items = scanned_items()
    (extra2,) = reconciled
    assert len(extra2) == 2                 # reconciliation picked one
    # generation: 2 whole-group records (larger coverage wins the tie)
    assert all(len(r.source_fragments) == 1
               and r.num_rows == 500 for r in extra2)
    # every record was contested: nothing streamed clean
    assert sorted(i["partition_id"] for i in items) == sorted(
        r.partition_id for r in extra2)
    slow2, fast2 = both_sides(lambda: _table(decode_dataset(out)))
    assert fast2.equals(slow2) and fast2.num_rows == 1000


def test_sealed_store_verify_reports_corruption(ray_session, cc_parquet,
                                                tmp_path, both_sides):
    """verify on a sealed store (index-row items; through the distributed
    scan only failures reach the driver) surfaces a corrupted chunk with
    its reason, the same way in the one-task case and the scan."""
    from json_to_parquet_ray.manifest import consolidate

    out = str(tmp_path / "enc_vs")
    encode_job(cc_parquet, out, shared_dict_columns=None)
    assert consolidate(out)["sealed"] is True
    assert both_sides(lambda: verify_job(out)) == [
        {"partitions": 4, "ok": 4, "failed": []}] * 2

    victim = sorted(load_manifest(out).values(),
                    key=lambda r: r.partition_id)[0]
    p = os.path.join(out, victim.chunk_file)
    blob = bytearray(open(p, "rb").read())
    blob[len(blob) // 2] ^= 0xFF      # same size: flips payload bytes
    with open(p, "wb") as f:
        f.write(bytes(blob))
    one, res = both_sides(lambda: verify_job(out))
    assert one == res
    assert res["partitions"] == 4 and res["ok"] == 3
    assert len(res["failed"]) == 1
    assert res["failed"][0]["partition_id"] == victim.partition_id
    assert res["failed"][0]["err"]


def test_streamed_decode_multi_rowgroup_index_order(ray_session, tmp_path,
                                                    both_sides):
    """The record scan's ordering guarantee across MULTIPLE index row
    groups (>256 records → several read fragments): decode order must
    still equal the order before consolidation, in the one-task case and
    the distributed scan."""
    from json_to_parquet_ray.manifest import consolidate, index_path

    src = str(tmp_path / "src.parquet")
    write_cc_parquet(src, 3000, seed=11, row_group_size=1000)
    out = str(tmp_path / "enc_mrg")
    encode_job(src, out, shared_dict_columns=None,
               max_rows_per_partition=10)          # 300 partitions
    before = pa.concat_tables(
        decode_dataset(out).iter_batches(batch_format="pyarrow",
                                         batch_size=8192))
    assert consolidate(out)["sealed"] is True
    assert pq.read_metadata(index_path(out)).num_row_groups >= 2
    for after in both_sides(lambda: _table(decode_dataset(out))):
        assert after.equals(before)


def test_flat_layout_store_decodes_and_verifies(ray_session, tmp_path,
                                                both_sides):
    """A store whose records sit directly under ``_manifest/`` (the flat
    legacy layout, no shard dirs) decodes in input order and verifies
    through the one-task case and the distributed scan — also with two
    overlapping generations, whose contested records the scan reads back
    from the flat layout."""
    from json_to_parquet_ray.manifest import manifest_dir

    d = tmp_path / "src"
    d.mkdir()
    write_cc_parquet(str(d / "a.parquet"), 600, seed=37, row_group_size=300)
    write_cc_parquet(str(d / "b.parquet"), 400, seed=38, row_group_size=200)
    want = pa.concat_tables([pq.read_table(str(d / f"{n}.parquet"))
                             for n in ("a", "b")]).to_pylist()
    out = str(tmp_path / "enc_flat")
    mdir = manifest_dir(out)

    def flatten():
        for sd in [os.path.join(mdir, n) for n in os.listdir(mdir)
                   if n.startswith("shard-")]:
            for name in os.listdir(sd):
                os.replace(os.path.join(sd, name), os.path.join(mdir, name))
            os.rmdir(sd)

    encode_job(str(d), out, shared_dict_columns=None)
    flatten()
    assert len(load_manifest(out)) == 4
    ok = {"partitions": 4, "ok": 4, "failed": []}
    assert both_sides(lambda: decode_dataset(out).take_all()) == [want] * 2
    assert both_sides(lambda: verify_job(out)) == [ok] * 2

    # a second generation with other slicing: every record is contested,
    # and the whole-row-group generation wins (larger coverage)
    encode_job(str(d), out, shared_dict_columns=None,
               max_rows_per_partition=100, resume=False)
    flatten()
    assert len(load_manifest(out)) == 14
    assert both_sides(lambda: decode_dataset(out).take_all()) == [want] * 2
    assert both_sides(lambda: verify_job(out)) == [ok] * 2


def test_flat_records_survive_a_sharded_record(ray_session, tmp_path):
    """A flat-layout store that gains one sharded record (a resumed
    encode of one more input file, through write_record) keeps its flat
    records in load_manifest and completed_partitions, and gc keeps
    their chunks."""
    from json_to_parquet_ray.manifest import manifest_dir
    from json_to_parquet_ray.pipelines.encode_job import gc_job

    d = tmp_path / "src"
    d.mkdir()
    write_cc_parquet(str(d / "a.parquet"), 600, seed=39, row_group_size=300)
    out = str(tmp_path / "enc_flat")
    encode_job(str(d), out, shared_dict_columns=None)
    mdir = manifest_dir(out)
    for sd in [os.path.join(mdir, n) for n in os.listdir(mdir)
               if n.startswith("shard-")]:
        for name in os.listdir(sd):
            os.replace(os.path.join(sd, name), os.path.join(mdir, name))
        os.rmdir(sd)
    flat = load_manifest(out)
    assert len(flat) == 2

    write_cc_parquet(str(d / "b.parquet"), 300, seed=40, row_group_size=300)
    encode_job(str(d), out, shared_dict_columns=None)
    assert any(n.startswith("shard-") for n in os.listdir(mdir))
    recs = load_manifest(out)
    assert len(recs) == 3 and set(flat) < set(recs)
    assert completed_partitions(out) == set(recs)
    assert gc_job(out)["chunks_deleted"] == 0
    for rec in flat.values():
        assert os.path.exists(os.path.join(out, rec.chunk_file))
    assert verify_job(out)["ok"] == 3


def test_decode_and_verify_read_no_records_on_the_driver(
        ray_session, tmp_path, monkeypatch, both_sides):
    """decode_dataset (full, projected, url point, warc_ts range) and
    verify_job read no manifest record on the driver: with the record
    readers patched to raise there, a 2-partition store — unsealed, then
    consolidated — reads as it does unpatched, through both shapes of
    the record scan."""
    from json_to_parquet_ray import manifest
    from json_to_parquet_ray.manifest import consolidate
    from json_to_parquet_ray.pipelines import encode_job as ej

    src = str(tmp_path / "cc.parquet")
    write_cc_parquet(src, 600, seed=43, row_group_size=300)
    out = str(tmp_path / "enc")
    encode_job(src, out, shared_dict_columns=None, bloom_columns=["url"])
    t = pq.read_table(src)
    ts, url = t.column("warc_ts"), t.column("url")
    lo, hi = sorted([ts[100].as_py(), ts[400].as_py()])
    reads = {
        "full": lambda: decode_dataset(out).take_all(),
        "projected": lambda: decode_dataset(
            out, columns=["url", "lang"]).take_all(),
        "point": lambda: decode_dataset(
            out, zone_filter={"url": [url[450].as_py()]}).take_all(),
        "range": lambda: decode_dataset(out, zone_filter={
            "warc_ts": (lo.isoformat(), hi.isoformat())}).take_all(),
        "verify": lambda: verify_job(out),
    }

    driver = os.getpid()

    def driver_only_fails(real):
        # a scan task's closure pickles the patched name by value; in a
        # worker process it reads as it does unpatched
        def reader(*a, **k):
            if os.getpid() == driver:
                raise AssertionError("the driver read manifest records")
            return real(*a, **k)
        return reader

    patched = {manifest: ("effective_records", "load_manifest", "_records"),
               ej: ("effective_records", "load_manifest", "_records")}
    for mod, names in patched.items():
        for name in names:
            assert hasattr(mod, name), (mod.__name__, name)

    for shape in ("unsealed", "sealed"):
        if shape == "sealed":
            assert consolidate(out)["sealed"] is True
        want = {k: f() for k, f in reads.items()}
        assert want["point"] and want["range"], shape
        with monkeypatch.context() as m:
            for mod, names in patched.items():
                for name in names:
                    m.setattr(mod, name,
                              driver_only_fails(getattr(mod, name)))
            for k, f in reads.items():
                assert both_sides(f) == [want[k]] * 2, (shape, k)


def test_keyed_crash_before_pointer_write(ray_session, tmp_path):
    """An encode killed before its pointer write leaves a partial
    gen-(N+1), a record and its chunk: reads stay on generation N, and
    gc deletes the partial generation."""
    import time

    import ray

    from json_to_parquet_ray.pipelines.encode_job import (
        EncodePartition, gc_job)
    from json_to_parquet_ray.pipelines.keyed_store import (
        keyed_encode, keyed_read, live_generation)

    out = str(tmp_path / "ks_crash")
    t = pa.table({"id": pa.array(range(30), pa.int64()),
                  "k": pa.array(["a", "b", "c"] * 10)})
    keyed_encode(ray.data.from_arrow(t), out, "k", "id")
    assert live_generation(out) == os.path.join(out, "gen-0")
    partial = os.path.join(out, "gen-1")
    EncodePartition(partial).commit(
        "0123456789abcdef", {"path": "_pkey/1:a", "row_group": 0,
                             "row_start": 0, "num_rows": 2, "key": "a"},
        t.slice(0, 2), time.time())

    ds, io = keyed_read(out, keys=["a"])
    assert sorted(ds.to_pandas()["id"]) == list(range(0, 30, 3))
    assert io == {"chunks_read": 1, "chunks_total": 3}
    torn = os.path.join(out, "_keyed.json.tmp.999")  # a torn pointer write
    with open(torn, "w") as f:
        f.write('{"generation": "ge')
    res = gc_job(out)
    assert res["chunks_deleted"] == 1 and res["chunks_live"] == 3
    assert res["tmps_deleted"] == 1
    assert not os.path.exists(partial) and not os.path.exists(torn)
    assert keyed_read(out)[0].count() == 30
    # the next encode still gets a fresh generation
    keyed_encode(ray.data.from_arrow(t), out, "k", "id")
    assert live_generation(out) == os.path.join(out, "gen-1")


def test_keyed_null_none_and_int_keys(ray_session, tmp_path):
    """Null keys and the literal string "None" share the "None" key, as
    keyed_read has always answered; int keys read back by str() or
    int."""
    import ray

    from json_to_parquet_ray.pipelines.keyed_store import (
        keyed_encode, keyed_read)

    out = str(tmp_path / "ks_none")
    t = pa.table({"id": pa.array(range(9), pa.int64()),
                  "k": pa.array(["x", None, "None"] * 3)})
    keyed_encode(ray.data.from_arrow(t), out, "k", "id")
    got = keyed_read(out, keys=[None])[0].to_pandas()
    assert sorted(got["id"]) == [1, 2, 4, 5, 7, 8]
    assert keyed_read(out, keys=["None"])[0].count() == 6
    assert keyed_read(out, keys=["x"])[0].count() == 3

    out = str(tmp_path / "ks_int")
    t = pa.table({"id": pa.array(range(12), pa.int64()),
                  "k": pa.array([5, 7, 11] * 4, pa.int64())})
    s = keyed_encode(ray.data.from_arrow(t), out, "k", "id",
                     hot_threshold=3, salt_buckets=2)
    assert s["hot_keys"] == ["11", "5", "7"]
    for k in (5, "7", 11):
        ds, io = keyed_read(out, keys=[k])
        got = ds.to_pandas()
        assert set(got["k"]) == {int(k)} and len(got) == 4
        assert io["chunks_total"] == s["partitions"] > 3
    assert keyed_read(out, keys=[5, 7])[0].count() == 8


def test_flat_layout_records_consolidate_and_retire(ray_session, tmp_path):
    """Legacy FLAT-layout JSONs (directly under _manifest/, the
    load_manifest fallback): consolidate must remove them (else they
    resurrect as deltas and unseal every read) and retire_records must
    reach them too."""
    from json_to_parquet_ray.manifest import (
        PartitionRecord,
        _record_sources,
        consolidate,
        effective_records,
        retire_records,
        write_atomic,
    )

    out = str(tmp_path / "flat")
    recs = []
    for i in range(3):
        rec = PartitionRecord(
            partition_id=f"{i:016x}",
            fragment={"path": f"in-{i}.parquet", "row_group": 0,
                      "num_rows": 5, "row_start": 0},
            num_rows=5, chunk_file=f"part-{i}.rde", chunk_size=4)
        write_atomic(os.path.join(out, rec.chunk_file), b"abcd")
        # FLAT layout: record sits directly under _manifest/
        write_atomic(os.path.join(out, "_manifest",
                                  f"part-{rec.partition_id}.json"),
                     rec.to_json().encode())
        recs.append(rec)
    assert len(load_manifest(out)) == 3
    sources, sealed, shortcut, _ = _record_sources(out)
    assert sources == [{"rg": -1, "shard": os.path.join(out, "_manifest")}]
    assert not sealed and not shortcut

    res = consolidate(out)
    assert res["records_indexed"] == 3
    assert res["delta_files_removed"] == 3
    assert res["sealed"] is True
    _, sealed, shortcut, _ = _record_sources(out)
    assert sealed and shortcut             # flat JSONs actually gone

    retire_records(out, {recs[0].partition_id})
    assert {r.partition_id for r in effective_records(out)} == \
           {r.partition_id for r in recs[1:]}


def test_store_stats_keyed_store(ray_session, tmp_path):
    """A keyed generation is a standard encoded store: verify passes,
    store_stats shows per-column codecs, and the salted hot key spans
    salt_buckets records."""
    import ray

    from json_to_parquet_ray.pipelines.encode_job import store_stats
    from json_to_parquet_ray.pipelines.keyed_store import (
        keyed_encode, live_generation)

    out = str(tmp_path / "ks_ss")
    n = 600
    t = pa.table({"id": pa.array(range(n), pa.int64()),
                  "k": pa.array(["hot"] * 500 + ["cold"] * 100)})
    keyed_encode(ray.data.from_arrow(t), out, "k", "id",
                 hot_threshold=200, salt_buckets=4)
    gen = live_generation(out)
    assert verify_job(gen) == {"partitions": 5, "ok": 5, "failed": []}
    s = store_stats(gen)
    assert s["rows"] == n and s["chunks"] == 5
    assert set(s["columns"]) == {"id", "k"}
    assert all(sum(c["codecs"].values()) == 5 for c in s["columns"].values())
    recs = effective_records(gen)
    hot = [r for r in recs if r.fragment["key"] == "hot"]
    assert len(hot) == 4 and sum(r.num_rows for r in hot) == 500
    assert all(c["codec"] and "min" in c for r in recs for c in r.columns
               if c["name"] == "id")


def test_corrupt_index_row_raises(ray_session, cc_parquet, tmp_path):
    """An index whose parquet structure is intact but holds an
    unparseable record row must raise — a skipped row would silently
    drop a partition from decode/verify/gc."""
    from json_to_parquet_ray.manifest import consolidate, index_path
    from json_to_parquet_ray.manifest import write_index_file

    out = str(tmp_path / "enc_cr")
    encode_job(cc_parquet, out, shared_dict_columns=None)
    consolidate(out)
    from json_to_parquet_ray.manifest import read_index_rows

    rows = read_index_rows(index_path(out))
    rows[1] = rows[1][:-5]          # truncated JSON, valid parquet
    write_index_file(index_path(out), rows, {"sealed": "1"})
    with pytest.raises(ValueError, match="unparseable record"):
        load_manifest(out)
    with pytest.raises(ValueError, match="unparseable record"):
        decode_dataset(out)  # 4 records: the record scan's one task


def test_encode_consolidate_empty_input_and_noop_reconsolidate(
        ray_session, cc_parquet, tmp_path):
    """consolidate_manifest on a zero-fragment input must not crash the
    job; re-consolidating an already-sealed store with no deltas is a
    no-op (no index rewrite, counts preserved)."""
    from json_to_parquet_ray.manifest import consolidate, index_path

    empty_dir = tmp_path / "empty_src"
    empty_dir.mkdir()
    out0 = str(tmp_path / "enc_empty")
    s = encode_job(str(empty_dir), out0, shared_dict_columns=None,
                   consolidate_manifest=True)
    assert s["partitions_total"] == 0
    assert s["consolidated"] == {"records_indexed": 0,
                                 "delta_files_removed": 0, "sealed": False}

    out = str(tmp_path / "enc_noop")
    encode_job(cc_parquet, out, shared_dict_columns=None,
               consolidate_manifest=True)
    mtime = os.path.getmtime(index_path(out))
    res = consolidate(out)          # sealed, no deltas → no rewrite
    assert res == {"records_indexed": 4, "delta_files_removed": 0,
                   "sealed": True}
    assert os.path.getmtime(index_path(out)) == mtime


def test_keyed_encode_refuses_main_store(ray_session, cc_parquet,
                                         tmp_path):
    """A directory is one kind of store: keyed_encode refuses one that
    holds a main store's _manifest, and leaves it untouched."""
    import ray

    from json_to_parquet_ray.pipelines.keyed_store import keyed_encode

    out = str(tmp_path / "mixed")
    encode_job(cc_parquet, out, shared_dict_columns=None)
    t = pa.table({"id": pa.array(range(30), pa.int64()),
                  "k": pa.array(["a", "b", "c"] * 10)})
    with pytest.raises(ValueError, match="_manifest"):
        keyed_encode(ray.data.from_arrow(t), out, "k", "id")
    assert not any(n.startswith(("gen-", "_keyed")) for n in os.listdir(out))
    assert verify_job(out)["failed"] == []


def test_verify_decode_refuse_non_store(ray_session, tmp_path):
    """verify/decode on a typo'd path must raise, never read as a
    healthy EMPTY store (vacuous verify pass / empty decode) — the same
    policy gc/store-stats/consolidate enforce."""
    import pytest

    from json_to_parquet_ray.pipelines.encode_job import (
        decode_dataset, verify_job)

    bogus = str(tmp_path / "no_such_store")
    os.makedirs(bogus)
    with pytest.raises(ValueError, match="not an encoded store"):
        verify_job(bogus)
    with pytest.raises(ValueError, match="not an encoded store"):
        decode_dataset(bogus)


def test_empty_encode_is_still_a_store(ray_session, tmp_path):
    """A zero-fragment encode marks the output as a store, so verify
    passes vacuously-but-honestly instead of refusing."""
    from json_to_parquet_ray.pipelines.encode_job import (
        encode_job, verify_job)

    src = tmp_path / "empty_src"
    src.mkdir()
    out = str(tmp_path / "enc")
    s = encode_job(str(src), out, shared_dict_columns=None)
    assert s["partitions_total"] == 0
    assert verify_job(out) == {"partitions": 0, "ok": 0, "failed": []}


def test_keyed_encode_rejects_pkey_collision(ray_session, tmp_path):
    import pyarrow as pa
    import pytest
    import ray

    from json_to_parquet_ray.pipelines.keyed_store import keyed_encode

    t = pa.table({"lang": ["en", "de"], "doc_id": [1, 2],
                  "_pkey": ["x", "y"]})
    with pytest.raises(ValueError, match="_pkey"):
        keyed_encode(ray.data.from_arrow(t), str(tmp_path / "ks"),
                     key_col="lang", salt_col="doc_id")


def test_cluster_job_staging_invalidated_by_mtime(ray_session, tmp_path):
    """A same-size in-place rewrite of an input (content changed, byte
    size unchanged) must regenerate the staged sort — the fingerprint
    includes mtime_ns, so stale staging is never silently reused."""
    import os

    from json_to_parquet_ray.pipelines.encode_job import (
        cluster_job,
        decode_dataset,
    )

    src = str(tmp_path / "cc.parquet")
    write_cc_parquet(src, 500, seed=3, row_group_size=250)
    out = str(tmp_path / "clu")
    cluster_job(src, out, by=["lang", "url"], max_rows_per_partition=250)
    assert decode_dataset(out).count() == 500
    # rewrite the input byte-for-byte-same-SIZE with different content:
    # simplest deterministic stand-in is the identical bytes with a
    # bumped mtime — the fingerprint must treat it as changed
    os.utime(src, ns=(os.stat(src).st_atime_ns,
                      os.stat(src).st_mtime_ns + 1_000_000_000))
    s2 = cluster_job(src, out, by=["lang", "url"],
                     max_rows_per_partition=250)
    assert s2.get("partitions_skipped_resume", 0) == 0
    assert decode_dataset(out).count() == 500


def _per_chunk_codecs(frag) -> dict:
    """The codec per column that per-chunk planning picks for ``frag``."""
    from json_to_parquet_ray.pipelines.encode_job import read_fragment
    from json_to_parquet_ray.plan import plan_from_stats
    from json_to_parquet_ray.stats import compute_stats_table

    t = read_fragment(frag.path, frag.row_group, frag.num_rows,
                      frag.row_start)
    return {c: p.codec for c, p in
            plan_from_stats(compute_stats_table(t), t.schema).columns.items()}


def test_encode_job_shared_plan_roundtrip(ray_session, tmp_path,
                                          monkeypatch):
    """An input with more fragments than the sample takes the sampled
    plan by default. On a homogeneous CC input the plan is every chunk's
    own per-chunk pick (warc_ts stays delta: planning each sampled
    fragment on its own rows keeps the monotone column ordered), decode
    is bit-identical, and a resume that re-encodes fewer fragments than
    the sample loads the plan stored with the store (the planner is never
    called) and writes the same chunk bytes. Once a sampled input's mtime
    changes, the stored plan no longer matches and is rebuilt."""
    import hashlib

    import json_to_parquet_ray.pipelines.encode_job as ej
    from json_to_parquet_ray.manifest import record_path
    from json_to_parquet_ray.pipelines.encode_job import PLAN_SAMPLE_FRAGS

    src = str(tmp_path / "cc32.parquet")
    write_cc_parquet(src, 16000, seed=401, row_group_size=500)
    frags = list_fragments(src)
    assert len(frags) == 2 * PLAN_SAMPLE_FRAGS
    out = str(tmp_path / "enc_sp")
    summary = encode_job(src, out, bloom_columns=["url"])
    plan = summary["shared_plan"]
    assert set(plan) == {"url", "warc_ts", "html", "text", "lang"}
    assert plan["warc_ts"] == "delta"
    recs = load_manifest(out)
    for f in frags:
        codecs = {c["name"]: c["codec"] for c in recs[f.frag_hash].columns}
        assert codecs == _per_chunk_codecs(f)
        for col, codec in plan.items():
            assert codecs[col] == codec, (col, codecs[col], codec)
    assert verify_job(out)["failed"] == []
    import pandas as pd

    dec = decode_dataset(out).to_pandas()
    pd.testing.assert_frame_equal(dec, pq.read_table(src).to_pandas())

    def sha(pid):
        with open(os.path.join(out, recs[pid].chunk_file), "rb") as fh:
            return hashlib.sha1(fh.read()).hexdigest()

    victims = [f.frag_hash for f in frags[-5:]]
    before = {pid: sha(pid) for pid in victims}

    def resume() -> dict:
        for pid in victims:
            os.remove(os.path.join(out, recs[pid].chunk_file))
            os.remove(record_path(out, pid))
        return encode_job(src, out, bloom_columns=["url"])

    build = ej.build_shared_plan

    def no_build(*args, **kwargs):
        raise AssertionError("the stored sampled plan was not reused")

    monkeypatch.setattr(ej, "build_shared_plan", no_build)
    again = resume()
    assert again["partitions_encoded"] == 5
    assert again["shared_plan"] == plan
    assert {pid: sha(pid) for pid in victims} == before

    builds = []

    def counted(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(ej, "build_shared_plan", counted)
    st = os.stat(src)
    os.utime(src, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    again = resume()
    assert builds == [1]
    assert again["shared_plan"] == plan
    assert {pid: sha(pid) for pid in victims} == before


def test_resume_plans_shared_column_per_chunk(ray_session, tmp_path,
                                             monkeypatch):
    """A resume that names a shared dictionary for a column the store's
    stored sampled plan covers loads that plan unchanged, leaves the
    column out of the broadcast plan, and plans it per chunk with the
    shared candidate: each re-encoded chunk records the codec that per
    chunk planning with the candidate picks."""
    import json_to_parquet_ray.pipelines.encode_job as ej
    from json_to_parquet_ray.manifest import record_path
    from json_to_parquet_ray.pipelines.encode_job import PLAN_SAMPLE_FRAGS

    src = str(tmp_path / "cc17.parquet")
    write_cc_parquet(src, 500 * (PLAN_SAMPLE_FRAGS + 1), seed=401,
                     row_group_size=500)
    out = str(tmp_path / "enc")
    first = encode_job(src, out)
    assert "lang" in first["shared_plan"]
    stored = ej._store_record(out)["sampled_plan"]
    recs = load_manifest(out)
    frags = list_fragments(src)
    victims = frags[-3:]
    for f in victims:
        os.remove(os.path.join(out, recs[f.frag_hash].chunk_file))
        os.remove(record_path(out, f.frag_hash))

    def no_build(*args, **kwargs):
        raise AssertionError("the stored sampled plan was not reused")

    monkeypatch.setattr(ej, "build_shared_plan", no_build)
    seen = _spy_broadcast(monkeypatch)
    again = encode_job(src, out, shared_dict_columns=["lang"])
    assert again["partitions_encoded"] == 3
    assert again["shared_plan"] == first["shared_plan"]
    assert ej._store_record(out)["sampled_plan"] == stored
    [(plan, shared)] = seen
    assert set(plan.columns) == set(first["shared_plan"]) - {"lang"}
    assert list(shared) == ["lang"]
    _replanned_chunks(out, victims, (plan, shared))
    assert verify_job(out)["failed"] == []


def test_shared_columns_validated_on_driver(ray_session, cc_parquet,
                                           tmp_path, monkeypatch):
    """A shared dictionary or FSST column that no input file has raises a
    ValueError naming it before any read or output."""
    import ray

    reads = []
    monkeypatch.setattr(ray.data, "read_parquet",
                        lambda *a, **kw: reads.append(a))
    for kwargs in ({"shared_dict_columns": ["lang", "langg"]},
                   {"shared_fsst_columns": ["txet"]}):
        out = str(tmp_path / "enc")
        bad = [c for v in kwargs.values() for c in v if c != "lang"]
        with pytest.raises(ValueError, match=bad[0]):
            encode_job(cc_parquet, out, **kwargs)
        assert not os.path.exists(out)
    assert reads == []


@pytest.mark.parametrize("n_random", [16, 15])
def test_shared_plan_keeps_drifting_column_per_chunk(ray_session, tmp_path,
                                                     n_random):
    """A column whose sampled fragments disagree stays out of the plan:
    sorted in the first 16 row groups and random in the rest, each chunk
    records its own per-chunk codec. With 31 row groups the sample must
    still reach past the first 16."""
    import numpy as np

    from json_to_parquet_ray.pipelines.encode_job import PLAN_SAMPLE_FRAGS

    rows = 500
    n_sorted = PLAN_SAMPLE_FRAGS * rows
    rng = np.random.default_rng(7)
    k = np.concatenate([np.arange(n_sorted, dtype=np.int64),
                        rng.integers(-2**62, 2**62, n_random * rows,
                                     dtype=np.int64)])
    t = pa.table({"k": k, "id": pa.array(range(len(k)), pa.int64())})
    src = str(tmp_path / "drift.parquet")
    pq.write_table(t, src, row_group_size=rows)
    out = str(tmp_path / "enc_drift")
    summary = encode_job(src, out)
    assert "k" not in summary["shared_plan"]
    assert summary["shared_plan"]["id"] == "delta"
    recs = load_manifest(out)
    picks = set()
    for f in list_fragments(src):
        codec = {c["name"]: c["codec"]
                 for c in recs[f.frag_hash].columns}["k"]
        assert codec == _per_chunk_codecs(f)["k"]
        picks.add(codec)
    assert len(picks) == 2, picks
    assert verify_job(out)["failed"] == []


def test_shared_plan_constant_sanitized(ray_session, tmp_path):
    """A column constant in every sampled fragment's first
    PLAN_SAMPLE_ROWS rows, but not in the whole fragment, must not be
    planned 'constant' store-wide (chunk-local evidence only): the
    sampled plan drops it and per-chunk planning takes over — roundtrip
    stays bit-identical."""
    from json_to_parquet_ray.pipelines.encode_job import (
        PLAN_SAMPLE_FRAGS,
        PLAN_SAMPLE_ROWS,
    )

    n_rg, rows = PLAN_SAMPLE_FRAGS + 1, PLAN_SAMPLE_ROWS + 4
    t = pa.table({
        "k": pa.array(range(n_rg * rows), pa.int64()),
        "c": pa.array((["x"] * PLAN_SAMPLE_ROWS
                       + [f"y{i}" for i in range(4)]) * n_rg),
    })
    src = str(tmp_path / "const.parquet")
    pq.write_table(t, src, row_group_size=rows)
    out = str(tmp_path / "enc_const")
    summary = encode_job(src, out)
    assert summary["shared_plan"] is not None
    assert "c" not in summary["shared_plan"]  # sanitized, not 'constant'
    assert verify_job(out)["failed"] == []
    dec = decode_dataset(out).to_pandas().sort_values("k")
    assert dec["c"].tolist() == t.column("c").to_pylist()


def test_shared_plan_type_fallback(ray_session, tmp_path):
    """A chunk whose column type the sampled plan's codec cannot encode
    (schema evolution / type drift across files) plans that column per
    chunk, as it does a column the plan does not cover — no failure,
    bit-identical decode."""
    from json_to_parquet_ray.codecs import get_codec
    from json_to_parquet_ray.encode import read_chunk_file
    from json_to_parquet_ray.pipelines.encode_job import PLAN_SAMPLE_FRAGS

    indir = tmp_path / "in"
    indir.mkdir()
    n_rg, rows = 2 * PLAN_SAMPLE_FRAGS, 200
    pq.write_table(pa.table({"v": pa.array(range(n_rg * rows), pa.int64())}),
                   str(indir / "a.parquet"), row_group_size=rows)
    # sorts after a.parquet, so the strided sample never reaches it
    drift = pa.table({"v": pa.array(["a", "b", "b"]),
                      "extra": pa.array([1, 2, 3], pa.int64())})
    pq.write_table(drift, str(indir / "b.parquet"))
    out = str(tmp_path / "enc_type")
    summary = encode_job(str(indir), out)
    planned = summary["shared_plan"]["v"]
    assert not get_codec(planned).can_encode(pa.string())
    recs = load_manifest(out)
    for f in list_fragments(str(indir)):
        codecs = {c["name"]: c["codec"] for c in recs[f.frag_hash].columns}
        if f.path.endswith("b.parquet"):
            assert codecs == _per_chunk_codecs(f)
            assert codecs["v"] != planned
            got = read_chunk_file(os.path.join(out,
                                               recs[f.frag_hash].chunk_file))
            assert got.equals(drift)
        else:
            assert codecs["v"] == planned
    assert verify_job(out)["failed"] == []


def test_read_fragment_cache_slices_evictions_invalidation(tmp_path):
    """The per-worker row-group cache: slices of one group share one
    decode; whole-group reads bypass the cache; an in-place rewrite
    (new mtime/size) never serves stale rows; the byte bound evicts."""
    import json_to_parquet_ray.pipelines.encode_job as ej

    src = str(tmp_path / "one_rg.parquet")
    write_cc_parquet(src, 100, seed=11, row_group_size=100)  # 1 row group
    full = pq.read_table(src)

    ej._RG_CACHE.clear()
    ej._RG_CACHE_BYTES = 0

    # whole-group read: correct, and NOT cached (read exactly once)
    got = ej.read_fragment(src, 0, 100)
    assert got.equals(full)
    assert len(ej._RG_CACHE) == 0

    # sliced reads: cached once, every slice bit-identical to a slice
    # of the file
    a = ej.read_fragment(src, 0, 40, row_start=0)
    b = ej.read_fragment(src, 0, 40, row_start=40)
    c = ej.read_fragment(src, 0, 20, row_start=80)
    assert len(ej._RG_CACHE) == 1
    assert pa.concat_tables([a, b, c]).combine_chunks().equals(
        full.combine_chunks())

    # in-place rewrite → different (mtime, size) key → fresh read
    os.remove(src)
    write_cc_parquet(src, 100, seed=99, row_group_size=100)
    new_full = pq.read_table(src)
    assert not new_full.equals(full)
    d = ej.read_fragment(src, 0, 40, row_start=0)
    assert d.equals(new_full.slice(0, 40))
    assert len(ej._RG_CACHE) == 2  # old entry still there until evicted

    # byte bound: shrink the cap and force an eviction pass
    old_max = ej._RG_CACHE_MAX
    try:
        # cap sized so the new group is cacheable (nbytes <= max//2)
        # but three entries overflow the bound → oldest is evicted
        ej._RG_CACHE_MAX = int(new_full.nbytes * 2.5)
        src2 = str(tmp_path / "two.parquet")
        write_cc_parquet(src2, 100, seed=7, row_group_size=100)
        ej.read_fragment(src2, 0, 40, row_start=0)
        assert len(ej._RG_CACHE) == 2  # oldest (seed=11) evicted
        assert ej._RG_CACHE_BYTES <= ej._RG_CACHE_MAX
        assert sum(t.nbytes for t in ej._RG_CACHE.values()) == ej._RG_CACHE_BYTES
    finally:
        ej._RG_CACHE_MAX = old_max
        ej._RG_CACHE.clear()
        ej._RG_CACHE_BYTES = 0


def test_dispatch_blocks_caps_tasks_not_partitions(ray_session):
    """Work-item blocking is sized by work bytes: never more blocks than
    items, never fewer than min(items, CPUs), 8 blocks/CPU at any scale,
    and a job of at most TASK_BYTES runs as one task per CPU — the
    per-partition records are asserted by the packing test below and the
    300/514-partition roundtrip tests above."""
    import ray

    from json_to_parquet_ray.pipelines.encode_job import (
        TASK_BYTES, _dispatch_blocks,
    )

    cpus = int(ray.cluster_resources().get("CPU", 4))
    for n in (1, 2, cpus, 10, 64, 1000, 10**5):
        for work in (0, 1 << 10, TASK_BYTES, 50 * TASK_BYTES, 10**15):
            k = _dispatch_blocks(n, work)
            assert min(n, cpus) <= k <= n, (n, work, k)
            assert k <= 8 * cpus, (n, work, k)
    for work in (0, 10**7, 10**7 * (1 << 20)):
        assert _dispatch_blocks(10**7, work) == 8 * cpus  # any item size
    for n in (1, 3, cpus, 10, 64):
        for work in (0, 1 << 20, TASK_BYTES):
            assert _dispatch_blocks(n, work) == min(n, cpus), (n, work)
    # in between, one task per TASK_BYTES of work
    assert _dispatch_blocks(1000, (cpus + 2) * TASK_BYTES) == cpus + 2


def test_run_bounds_balance_bytes_not_items(monkeypatch):
    """Runs are cut at prefix sums of the items' bytes: 8 adjacent 40 MiB
    items followed by 56 of 4 MiB give no run above max(largest item,
    2 x mean run) (item-count cuts put 4 heavy items, 160 MiB, in one
    run). Every run is contiguous and non-empty, and the run count is
    the dispatch rule's."""
    from json_to_parquet_ray.pipelines import encode_job as ej

    mib = 1 << 20
    sizes = [40 * mib] * 8 + [4 * mib] * 56
    for cpus in (4, 16):
        monkeypatch.setattr(ej, "_dispatch_blocks", ej._BlockRule(cpus))
        bounds = ej._run_bounds(sizes)
        k = ej._dispatch_blocks(len(sizes), sum(sizes))
        assert len(bounds) == k + 1
        assert bounds[0] == 0 and bounds[-1] == len(sizes)
        assert all(a < b for a, b in zip(bounds, bounds[1:]))
        runs = [sum(sizes[a:b]) for a, b in zip(bounds, bounds[1:])]
        assert max(runs) <= max(max(sizes), 2 * sum(sizes) / k), cpus
        assert max(runs) == 40 * mib
    # below ITEM_BYTES every item weighs the same: equal-item runs
    monkeypatch.setattr(ej, "_dispatch_blocks", lambda n, w: 3)
    assert ej._run_bounds([0] * 10) == [0, 4, 7, 10]
    assert ej._run_bounds([0] * 2) == [0, 1, 2]   # never an empty run
    assert ej._run_bounds([]) == [0]


def test_packed_work_items_keep_per_partition_results(ray_session,
                                                      tmp_path):
    """Several partitions share one task on a 10-partition store: decode
    (full and zone-filtered) returns the input rows in input order,
    verify pins a corrupt chunk on exactly its own partition, and a
    compaction over packed groups keeps decode bit-identical."""
    import shutil

    import pyarrow.compute as pc

    from json_to_parquet_ray.manifest import effective_records
    from json_to_parquet_ray.pipelines.encode_job import (
        _dispatch_blocks, compact_job,
    )

    src = str(tmp_path / "ten.parquet")
    write_cc_parquet(src, 1000, seed=31, row_group_size=500)
    out = str(tmp_path / "enc_packed")
    summary = encode_job(src, out, shared_dict_columns=None,
                         max_rows_per_partition=100)
    assert summary["partitions_encoded"] == 10
    recs = effective_records(out)
    assert _dispatch_blocks(10, sum(r.chunk_size for r in recs)) < 10

    want = pq.read_table(src)
    assert decode_dataset(out).take_all() == want.to_pylist()
    ts = want.column("warc_ts")
    lo, hi = pc.min(ts).as_py(), pc.max(ts).as_py()
    lo, hi = lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3
    hits = want.filter(pc.and_(pc.greater_equal(ts, pa.scalar(lo, ts.type)),
                               pc.less_equal(ts, pa.scalar(hi, ts.type))))
    assert 0 < hits.num_rows < want.num_rows
    got = decode_dataset(out, zone_filter={
        "warc_ts": (lo.isoformat(), hi.isoformat())}).take_all()
    assert got == hits.to_pylist()

    compacted = str(tmp_path / "enc_packed_compacted")
    shutil.copytree(out, compacted)
    res = compact_job(compacted, min_rows=200)  # 5 groups of 2
    assert res["groups"] == 5 and res["chunks_after"] == 5
    assert _dispatch_blocks(5, sum(r.chunk_size for r in recs)) < 5
    assert decode_dataset(compacted).take_all() == want.to_pylist()

    victim = recs[1]  # shares its block with its neighbours
    with open(os.path.join(out, victim.chunk_file), "r+b") as f:
        f.seek(-1, os.SEEK_END)
        last = f.read(1)
        f.seek(-1, os.SEEK_END)
        f.write(bytes([last[0] ^ 0xFF]))  # payload bit rot
    ver = verify_job(out)
    assert ver["partitions"] == 10 and ver["ok"] == 9
    assert [f["partition_id"] for f in ver["failed"]] == [
        victim.partition_id]


def _chunk_bytes(out: str) -> dict:
    """{chunk file: its bytes} over a store's manifest records."""
    chunks = {}
    for rec in load_manifest(out).values():
        with open(os.path.join(out, rec.chunk_file), "rb") as f:
            chunks[rec.chunk_file] = f.read()
    return chunks


def test_driver_jobs_build_no_dataset(ray_session, tmp_path, monkeypatch):
    """Encode (past ``PLAN_SAMPLE_FRAGS``, so the sample pass runs too),
    compaction and the Bloom probe run as plain tasks: with
    ``_item_dataset``, ``ray.data.from_items`` and ``Dataset`` itself
    raising on the driver they still complete, and the store verifies."""
    import ray

    from json_to_parquet_ray.manifest import effective_records
    from json_to_parquet_ray.pipelines import encode_job as ej
    from json_to_parquet_ray.pipelines.encode_job import compact_job

    src = str(tmp_path / "cc.parquet")
    write_cc_parquet(src, 1800, seed=19, row_group_size=100)  # 18 frags

    def no_dataset(*a, **k):
        raise AssertionError("a Ray Data Dataset was built")

    with monkeypatch.context() as m:
        m.setattr(ej, "_item_dataset", no_dataset)
        m.setattr(ray.data, "from_items", no_dataset)
        m.setattr(ray.data.Dataset, "__init__", no_dataset)
        out = str(tmp_path / "enc")
        summary = encode_job(src, out, shared_dict_columns=None,
                             bloom_columns=["url"])
        assert summary["partitions_encoded"] == 18
        assert summary["shared_plan"] is not None
        recs = effective_records(out)
        miss = "https://no.such.host/absent"
        assert ej.bloom_reject_count(out, recs, {"url": [miss]}) == 18
        res = compact_job(out, min_rows=300)
        assert res["groups"] == 6 and res["chunks_after"] == 6
    assert verify_job(out)["failed"] == []
    assert decode_dataset(out).take_all() == pq.read_table(src).to_pylist()


def test_multi_run_encode_sums_and_bytes_match_one_run(ray_session, tmp_path,
                                                       monkeypatch):
    """Three runs of plain tasks over an 18-fragment input (the sampled
    plan's broadcast ref reaches every task) give the summary the
    manifest gives and a one-run encode gives: partitions, input bytes
    and chunk bytes, with byte-identical chunks. The runs are the
    contiguous, in-order runs ``from_items`` makes of as many blocks."""
    import ray

    from json_to_parquet_ray.pipelines import encode_job as ej

    items = [{"i": i} for i in range(10)]
    monkeypatch.setattr(ej, "_dispatch_blocks", lambda n, w: 3)
    runs = ej._map_runs(lambda t: t.column("i").to_pylist(), items,
                        [0] * len(items))
    assert runs == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
    blocks = ray.data.from_items(items, override_num_blocks=3)
    assert [b["i"].tolist() for b in blocks.iter_batches(
        batch_size=None, batch_format="numpy")] == runs

    src = str(tmp_path / "cc.parquet")
    write_cc_parquet(src, 1800, seed=23, row_group_size=100)  # 18 frags
    want_input = sum(
        ej.read_fragment(f.path, f.row_group, f.num_rows,
                         f.row_start).nbytes
        for f in list_fragments(src))
    got = {}
    for k in (3, 1):
        monkeypatch.setattr(ej, "_dispatch_blocks", lambda n, w, k=k: k)
        out = str(tmp_path / f"enc{k}")
        got[k] = encode_job(src, out, bloom_columns=["url"])
        assert got[k]["shared_plan"], "the sampled plan is broadcast"
        recs = load_manifest(out).values()
        assert got[k]["partitions_encoded"] == len(recs) == 18
        assert got[k]["chunk_bytes"] == sum(r.chunk_size for r in recs)
        assert got[k]["input_bytes"] == want_input
    keys = ("partitions_encoded", "input_bytes", "chunk_bytes", "ratio")
    assert [got[3][c] for c in keys] == [got[1][c] for c in keys]
    assert _chunk_bytes(str(tmp_path / "enc3")) == _chunk_bytes(
        str(tmp_path / "enc1"))


def test_failed_partition_raises_then_resume_completes(ray_session, tmp_path,
                                                       monkeypatch):
    """A partition whose chunk cannot be written (a file sits where its
    shard directory goes) makes ``encode_job`` raise that error; with
    the file gone, a resume encodes only what is missing, and the store
    verifies with the chunks of a clean encode."""
    from json_to_parquet_ray.manifest import shard_of
    from json_to_parquet_ray.pipelines import encode_job as ej

    src = str(tmp_path / "cc.parquet")
    write_cc_parquet(src, 1200, seed=29, row_group_size=200)  # 6 frags
    frags = list_fragments(src)
    out = str(tmp_path / "enc")
    os.makedirs(out)
    blocker = os.path.join(out, shard_of(frags[4].frag_hash))
    with open(blocker, "w") as f:
        f.write("not a directory")
    monkeypatch.setattr(ej, "_dispatch_blocks", lambda n, w: 3)
    with pytest.raises(OSError):
        encode_job(src, out, shared_dict_columns=None)
    done = completed_partitions(out)
    assert frags[4].frag_hash not in done and len(done) < 6

    os.remove(blocker)
    summary = encode_job(src, out, shared_dict_columns=None)
    assert summary["partitions_skipped_resume"] == len(done)
    assert summary["partitions_encoded"] == 6 - len(done)
    assert verify_job(out)["failed"] == []
    ref = str(tmp_path / "ref")
    encode_job(src, ref, shared_dict_columns=None)
    assert _chunk_bytes(out) == _chunk_bytes(ref)


def _spy_from_items(monkeypatch) -> list:
    """Record every ``ray.data.from_items`` call (the Dataset path)."""
    import ray

    calls, real = [], ray.data.from_items

    def spy(*a, **k):
        calls.append(1)
        return real(*a, **k)

    monkeypatch.setattr(ray.data, "from_items", spy)
    return calls


def test_one_task_reads_match_block_reads(ray_session, tmp_path,
                                          monkeypatch):
    """A read sized as one block runs in one plain task (for decode and
    verify, the record scan's one task) and gives the rows, in order, of
    the map_batches Dataset over two blocks: full and projected decode, a
    warc_ts range, a url IN-list hit, a miss every Bloom filter rejects,
    schema= alignment, the Bloom reject count, and verify verdicts on a
    store with a clobbered magic and a flipped Bloom byte. At one block
    no from_items Dataset is built; the Bloom probe, plain tasks at any
    block count, never builds one."""
    import pyarrow.compute as pc

    from json_to_parquet_ray.manifest import effective_records
    from json_to_parquet_ray.pipelines import encode_job as ej

    src = str(tmp_path / "cc.parquet")
    write_cc_parquet(src, 1200, seed=71, row_group_size=300)
    out = str(tmp_path / "enc")
    encode_job(src, out, shared_dict_columns=None, bloom_columns=["url"])
    evo_src = str(tmp_path / "evo.parquet")
    pq.write_table(pa.table({"id": pa.array(range(100), pa.int32()),
                             "text": [f"t{i}" for i in range(100)]}),
                   evo_src, row_group_size=25)
    evo = str(tmp_path / "enc_evo")
    encode_job(evo_src, evo, shared_dict_columns=None)
    target = pa.schema([("id", pa.int64()), ("text", pa.string()),
                        ("score", pa.float64())])

    want = pq.read_table(src)
    recs = effective_records(out)
    assert len(recs) == 4
    ts, url = want.column("warc_ts"), want.column("url")
    lo, hi = ts[200].as_py(), ts[700].as_py()
    in_range = want.filter(pc.and_(
        pc.greater_equal(ts, pa.scalar(lo, ts.type)),
        pc.less_equal(ts, pa.scalar(hi, ts.type))))
    assert 0 < in_range.num_rows < want.num_rows
    hits = [url[17].as_py(), url[1000].as_py()]
    miss = "https://no.such.host/absent"
    # the miss survives the zone prune, so the Bloom filters reject it
    assert ej.zone_prune(out, {"url": [miss]}, recs=recs)[0]

    reads = {
        "full": lambda: decode_dataset(out).take_all(),
        "projected": lambda: decode_dataset(
            out, columns=["url", "lang"]).take_all(),
        "range": lambda: decode_dataset(out, zone_filter={
            "warc_ts": (lo.isoformat(), hi.isoformat())}).take_all(),
        "hit": lambda: decode_dataset(
            out, zone_filter={"url": hits + [miss]}).take_all(),
        "miss": lambda: decode_dataset(
            out, zone_filter={"url": [miss]}).take_all(),
        "schema": lambda: decode_dataset(evo, schema=target).take_all(),
        "bloom": lambda: ej.bloom_reject_count(out, recs, {"url": [miss]}),
    }
    calls = _spy_from_items(monkeypatch)
    got = {}
    for blocks in (1, 2):
        monkeypatch.setattr(ej, "_dispatch_blocks", lambda n, w, b=blocks: b)
        calls.clear()
        got[blocks] = {k: f() for k, f in reads.items()}
        assert len(calls) == (0 if blocks == 1 else len(reads) - 1), blocks
    assert got[1] == got[2]
    assert got[1]["full"] == want.to_pylist()
    assert got[1]["projected"] == want.select(["url", "lang"]).to_pylist()
    assert got[1]["range"] == in_range.to_pylist()
    assert [r["url"] for r in got[1]["hit"]] == hits
    assert got[1]["miss"] == []
    assert got[1]["schema"] == [{"id": i, "text": f"t{i}", "score": None}
                                for i in range(100)]
    assert got[1]["bloom"] == len(recs)

    with open(os.path.join(out, recs[1].chunk_file), "r+b") as f:
        f.write(b"XXXX")  # clobber the RDE1 magic
    path = os.path.join(out, recs[2].chunk_file)
    with open(path, "rb") as f:
        blob = bytearray(f.read())
    hdr, base = read_chunk_header(bytes(blob))
    c = next(c for c in hdr["columns"] if "bloom_offset" in c)
    blob[base + c["bloom_offset"]] ^= 0xFF
    with open(path, "wb") as f:
        f.write(bytes(blob))
    vers = {}
    for blocks in (1, 2):
        monkeypatch.setattr(ej, "_dispatch_blocks", lambda n, w, b=blocks: b)
        calls.clear()
        ver = verify_job(out)
        assert len(calls) == blocks - 1
        vers[blocks] = (ver["partitions"], ver["ok"], sorted(
            (f["partition_id"], f["err"]) for f in ver["failed"]))
    assert vers[1] == vers[2]
    total, ok, failed = vers[1]
    assert (total, ok) == (4, 2)
    assert [pid for pid, _ in failed] == sorted(
        [recs[1].partition_id, recs[2].partition_id])
    errs = dict(failed)
    assert "RDE1" in errs[recs[1].partition_id]
    assert "bloom CRC" in errs[recs[2].partition_id]


def test_one_task_decode_keeps_heterogeneous_chunk_schemas(
        ray_session, tmp_path, monkeypatch, both_sides):
    """Chunks that decode to different schemas (an appended encode adds a
    column and widens int32 to int64), read without schema= under the
    one-block rule: the one task merges them into its one block as
    map_batches merges its output blocks, builds no Dataset, does not
    raise, and returns the record scan's rows."""
    from json_to_parquet_ray.pipelines import encode_job as ej

    indir = tmp_path / "in"
    indir.mkdir()
    pq.write_table(pa.table({"id": pa.array(range(50), pa.int32()),
                             "text": [f"a{i}" for i in range(50)]}),
                   str(indir / "a.parquet"), row_group_size=25)
    out = str(tmp_path / "enc_het")
    encode_job(str(indir), out, shared_dict_columns=None)
    pq.write_table(pa.table({"id": pa.array(range(50, 100), pa.int64()),
                             "text": [f"b{i}" for i in range(50)],
                             "score": [i / 4 for i in range(50)]}),
                   str(indir / "b.parquet"), row_group_size=25)
    encode_job(str(indir / "b.parquet"), out, shared_dict_columns=None)

    calls = _spy_from_items(monkeypatch)
    monkeypatch.setattr(ej, "_dispatch_blocks", lambda n, w: 1)
    one, scan = both_sides(lambda: decode_dataset(out).take_all())
    assert len(calls) == 1  # the scan's source list only
    assert one == scan
    assert [r["id"] for r in one] == list(range(100))


def _two_chunk_bloom_store(tmp_path) -> tuple[str, str]:
    src = str(tmp_path / "cc.parquet")
    write_cc_parquet(src, 600, seed=47, row_group_size=300)
    out = str(tmp_path / "enc")
    encode_job(src, out, shared_dict_columns=None, bloom_columns=["url"])
    return src, out


def test_one_block_reads_launch_no_metadata_task(ray_session, tmp_path,
                                                 monkeypatch, both_sides):
    """Sized as one block (a driver that sees 1 CPU), full, projected,
    url point and warc_ts range decodes of a 2-chunk Bloom store, and a
    warc_ts range outside every zone, give the same rows with
    ``ray.data.from_arrow_refs`` and ``from_pandas`` patched to raise on
    the driver as unpatched, on both shapes of the record scan: the one
    task's block comes back with its metadata, and an empty result needs
    no Ray call of its own."""
    import ray

    from json_to_parquet_ray.pipelines import encode_job as ej

    src, out = _two_chunk_bloom_store(tmp_path)
    t = pq.read_table(src)
    ts, url = t.column("warc_ts"), t.column("url")
    lo, hi = sorted([ts[100].as_py(), ts[400].as_py()])
    late = max(ts.to_pylist()) + (max(ts.to_pylist()) - min(ts.to_pylist()))
    reads = {
        "full": lambda: decode_dataset(out).take_all(),
        "projected": lambda: decode_dataset(
            out, columns=["url", "lang"]).take_all(),
        "point": lambda: decode_dataset(
            out, zone_filter={"url": [url[450].as_py()]}).take_all(),
        "range": lambda: decode_dataset(out, zone_filter={
            "warc_ts": (lo.isoformat(), hi.isoformat())}).take_all(),
    }
    monkeypatch.setattr(ej, "_dispatch_blocks", ej._BlockRule(1))
    want = {k: f() for k, f in reads.items()}
    assert want["full"] == t.to_pylist()
    assert want["point"] and want["range"]

    def no_task(*a, **k):
        raise AssertionError("a Dataset was built from refs or pandas")

    monkeypatch.setattr(ray.data, "from_arrow_refs", no_task)
    monkeypatch.setattr(ray.data, "from_pandas", no_task)
    for k, f in reads.items():
        assert both_sides(f) == [want[k]] * 2, k

    def empty():
        ds = decode_dataset(out, zone_filter={
            "warc_ts": (late.isoformat(), None)})
        return ds.count(), ds.take_all()

    assert both_sides(empty) == [(0, [])] * 2


def _consume(ds) -> dict:
    """Every way a caller reads a Dataset's rows, as comparable values."""
    import ray

    return {
        "iter_batches": [r for b in ds.iter_batches(batch_format="pyarrow")
                         for r in b.to_pylist()],
        "take_all": ds.take_all(),
        "to_pandas": ds.to_pandas(),
        "to_arrow_refs": [r for ref in ds.to_arrow_refs()
                          for r in ray.get(ref).to_pylist()],
        "count": ds.count(),
    }


def _same_consumption(got: dict, want: dict) -> bool:
    return (got.keys() == want.keys()
            and got["to_pandas"].equals(want["to_pandas"])
            and all(got[k] == want[k] for k in got if k != "to_pandas"))


def _no_executor(*a, **k):
    raise AssertionError("a streaming executor was started")


def test_consuming_one_block_reads_starts_no_executor(ray_session, tmp_path,
                                                      monkeypatch,
                                                      both_sides):
    """Sized as one block, the full, projected, url point, warc_ts range
    and empty decodes of a 2-chunk Bloom store are finished Datasets:
    consumed by ``iter_batches``, ``take_all``, ``to_pandas``,
    ``to_arrow_refs`` and ``count`` with
    ``ExecutionPlan.create_executor`` patched to raise, each gives the
    rows it gives unpatched, and its ``schema()`` and ``stats()`` work.
    Unpatched, the distributed scan gives the same rows, and
    ``map_batches``, ``union`` and ``write_parquet`` chained onto a
    one-task read give its rows."""
    from ray.data._internal.plan import ExecutionPlan

    from json_to_parquet_ray.pipelines import encode_job as ej

    src, out = _two_chunk_bloom_store(tmp_path)
    t = pq.read_table(src)
    ts, url = t.column("warc_ts"), t.column("url")
    lo, hi = sorted([ts[100].as_py(), ts[400].as_py()])
    late = max(ts.to_pylist()) + (max(ts.to_pylist()) - min(ts.to_pylist()))
    reads = {
        "full": lambda: decode_dataset(out),
        "projected": lambda: decode_dataset(out, columns=["url", "lang"]),
        "point": lambda: decode_dataset(
            out, zone_filter={"url": [url[450].as_py()]}),
        "range": lambda: decode_dataset(out, zone_filter={
            "warc_ts": (lo.isoformat(), hi.isoformat())}),
        "empty": lambda: decode_dataset(out, zone_filter={
            "warc_ts": (late.isoformat(), None)}),
    }
    monkeypatch.setattr(ej, "_dispatch_blocks", ej._BlockRule(1))
    want = {k: _consume(f()) for k, f in reads.items()}
    assert want["full"]["take_all"] == t.to_pylist()
    assert want["point"]["count"] and want["range"]["count"]
    assert want["empty"]["count"] == 0

    with monkeypatch.context() as m:
        m.setattr(ExecutionPlan, "create_executor", _no_executor)
        for k, f in reads.items():
            ds = f()
            assert _same_consumption(_consume(ds), want[k]), k
            names = ds.schema().names
            assert names == ([] if k == "empty" else
                             list(want[k]["take_all"][0])), k
            assert "FromArrow" in ds.stats(), k
    for k, f in reads.items():
        one, scan = both_sides(lambda: _consume(f()))
        assert _same_consumption(one, want[k]), k
        assert scan["take_all"] == want[k]["take_all"], k

    ds = reads["projected"]()
    rows = want["projected"]["take_all"]
    assert ds.map_batches(lambda b: b, batch_format="pyarrow").take_all() \
        == rows
    assert ds.union(reads["projected"]()).take_all() == rows * 2
    ds.write_parquet(str(tmp_path / "pq"))
    assert pq.read_table(str(tmp_path / "pq")).to_pylist() == rows


def test_keyed_read_one_task_shapes(ray_session, tmp_path, monkeypatch):
    """keyed_read sized as one block: a salted hot key (4 chunks), a key
    no chunk holds (a typed empty Dataset) and a generation with no
    records are finished Datasets, consumed with
    ``ExecutionPlan.create_executor`` patched to raise; the hot key's
    rows, in key order, and schema are the lazy path's (forced by a
    2-block rule), each ``io`` counts the chunks opened, and a chunk
    that fails its CRC raises from the ``keyed_read`` call."""
    import ray
    from ray.data._internal.plan import ExecutionPlan

    from json_to_parquet_ray.pipelines import encode_job as ej
    from json_to_parquet_ray.pipelines.keyed_store import (
        keyed_encode,
        keyed_read,
        live_generation,
    )

    t = pa.table({"lang": ["en"] * 300 + ["de"] * 40 + [None] * 10,
                  "doc_id": pa.array(range(350), pa.int64()),
                  "text": [f"t{i}" for i in range(350)]})
    out, bare = str(tmp_path / "ks"), str(tmp_path / "bare")
    keyed_encode(ray.data.from_arrow(t), out, key_col="lang",
                 salt_col="doc_id", hot_threshold=100, salt_buckets=4)
    keyed_encode(ray.data.from_arrow(t.slice(0, 0)), bare, key_col="lang",
                 salt_col="doc_id")

    monkeypatch.setattr(ej, "_dispatch_blocks", lambda n, work: 2)
    lazy, lazy_io = keyed_read(out, keys=["en"])
    assert lazy_io == {"chunks_read": 4, "chunks_total": 6}
    want = _consume(lazy)
    assert sorted(r["doc_id"] for r in want["take_all"]) == list(range(300))
    assert {r["lang"] for r in want["take_all"]} == {"en"}

    monkeypatch.setattr(ej, "_dispatch_blocks", ej._BlockRule(1))
    with monkeypatch.context() as m:
        m.setattr(ExecutionPlan, "create_executor", _no_executor)
        ds, io = keyed_read(out, keys=["en"])
        assert io == lazy_io
        assert _same_consumption(_consume(ds), want)
        assert ds.schema() == lazy.schema()

        ds, io = keyed_read(out, keys=["zz"])
        assert io == {"chunks_read": 0, "chunks_total": 6}
        got = _consume(ds)
        assert got["count"] == 0 and got["take_all"] == []
        assert got["iter_batches"] == got["to_arrow_refs"] == []
        assert dict(zip(ds.schema().names, ds.schema().types)) == {
            "lang": pa.string(), "doc_id": pa.int64(), "text": pa.string()}

        ds, io = keyed_read(bare)
        assert io == {"chunks_read": 0, "chunks_total": 0}
        got = _consume(ds)
        assert got["count"] == 0 and got["take_all"] == []
        assert got["to_pandas"].shape == (0, 0)

    # decoded at call time: a bad chunk raises from keyed_read itself
    gen = live_generation(out)
    path = next(os.path.join(gen, r.chunk_file) for r in effective_records(gen)
                if r.fragment["key"] == "en")
    with open(path, "r+b") as f:
        f.seek(-1, os.SEEK_END)
        last = f.read(1)[0]
        f.seek(-1, os.SEEK_END)
        f.write(bytes([last ^ 0xFF]))
    with pytest.raises(OSError, match="CRC mismatch"):
        keyed_read(out, keys=["en"])


def test_scan_task_sizes_without_a_cluster_query(ray_session, tmp_path,
                                                 monkeypatch):
    """The block rule the record scan's task gets carries the driver's
    CPU count: run in-process with ``ray.cluster_resources`` patched to
    raise, ``_scan_one`` still decides one block for a 2-chunk store
    sent from a 1-CPU driver, and returns that block's metadata."""
    import ray
    from ray import cloudpickle

    from json_to_parquet_ray.encode import read_chunk_file
    from json_to_parquet_ray.manifest import _record_sources
    from json_to_parquet_ray.pipelines import encode_job as ej

    src, out = _two_chunk_bloom_store(tmp_path)
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 1.0})
    rule = cloudpickle.loads(cloudpickle.dumps(ej._dispatch_blocks))

    def no_query():
        raise AssertionError("the task queried the cluster")

    monkeypatch.setattr(ray, "cluster_resources", no_query)

    def decode(b: pa.Table) -> pa.Table:
        return pa.concat_tables([read_chunk_file(p)
                                 for p in b.column("path").to_pylist()])

    sources, _, shortcut, _ = _record_sources(out)
    (err, _, meta), body = ej._scan_one(
        out, sources, shortcut, None, ["path"], decode, rule)
    assert err is None and meta is not None
    assert meta.num_rows == body.num_rows == 600
    assert body.equals(pq.read_table(src))


def test_worker_encoder_cache_keying(ray_session, tmp_path):
    """Per-worker encoder cache keyed on out_dir, broadcast ref, bloom
    columns and optimize: the same key → one cached instance; any changed
    part (a new job) → a fresh encoder that unpacks the broadcast's
    sampled plan and shared candidates; bounded size."""
    import ray

    import json_to_parquet_ray.pipelines.encode_job as ej
    from json_to_parquet_ray.plan import CodecPlan, ColumnPlan

    def shared_dict(value: str):
        return ray.put((CodecPlan({"url": ColumnPlan("url", "zstd")}),
                        {"lang": [("dict", "dict", {
                            "values_codec": "plain",
                            "dictionary": pa.array([value])})]}))

    ej._ENC_CACHE.clear()
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    r1, r2 = shared_dict("en"), shared_dict("de")

    e1 = ej._worker_encoder(d1, r1, ["lang"])
    assert ej._worker_encoder(d1, r1, ["lang"]) is e1
    assert ej._worker_encoder(d1, r2, ["lang"]) is not e1
    assert ej._worker_encoder(d2, r1, ["lang"]) is not e1
    assert ej._worker_encoder(d1, r1, ["url"]) is not e1
    assert ej._worker_encoder(d1, r1, ["lang"], "size") is not e1
    assert e1.plan.columns["url"].codec == "zstd"
    assert e1.shared["lang"][0][2]["dictionary"].to_pylist() == ["en"]

    # bound: a burst of distinct keys never grows past _ENC_CACHE_MAX
    for i in range(ej._ENC_CACHE_MAX + 3):
        ej._worker_encoder(str(tmp_path / f"x{i}"), r1, [])
    assert len(ej._ENC_CACHE) <= ej._ENC_CACHE_MAX
    ej._ENC_CACHE.clear()


@pytest.fixture(scope="module")
def paged_cc_store(ray_session, tmp_path_factory):
    """Two 2,500-row CC chunks with a url Bloom filter; html and text are
    over PAGE_BYTES per chunk, so they are written as pages."""
    tmp = tmp_path_factory.mktemp("paged")
    src = write_cc_parquet(str(tmp / "cc.parquet"), 5000, seed=61,
                           row_group_size=2500)
    out = str(tmp / "enc")
    encode_job(src, out, shared_dict_columns=None, bloom_columns=["url"])
    return src, out


def _ds_table(ds, schema: pa.Schema) -> pa.Table:
    batches = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    batches = [b for b in batches if b.num_rows]
    if not batches:
        return schema.empty_table()
    return pa.concat_tables(batches).combine_chunks()


def test_filtered_decode_equals_decode_then_filter_on_paged_store(
        paged_cc_store):
    """decode_dataset(zone_filter=...) on a multi-page store equals the
    full decode filtered by pyarrow — range, IN-list hit and miss, a
    range inside the zone with no matching row, a projection without the
    filter column, and a filter column missing from every chunk under
    schema=."""
    import datetime as dt

    import pyarrow.compute as pc

    src, out = paged_cc_store
    headers = [read_chunk_header(open(p, "rb").read())[0]
               for p in sorted(glob.glob(os.path.join(out, "**", "*.rde"),
                                         recursive=True))]
    for h in headers:
        paged = {c["name"] for c in h["columns"]
                 if "page_rows" in c["meta"]}
        assert paged == {"html", "text"}, paged
    full = _ds_table(decode_dataset(out), pq.read_schema(src))
    assert full.equals(pq.read_table(src))
    ts, url = full.column("warc_ts"), full.column("url")
    us = dt.timedelta(microseconds=1)

    def iso(v):
        return v.isoformat()

    def in_range(t, col, lo, hi):
        c = t.column(col)
        return pc.and_(pc.greater_equal(c, pa.scalar(lo, c.type)),
                       pc.less_equal(c, pa.scalar(hi, c.type)))

    t0, t1 = ts[2300].as_py(), ts[2800].as_py()
    gap_lo, gap_hi = ts[1000].as_py() + us, ts[1001].as_py() - us
    hits = [url[17].as_py(), url[4321].as_py()]
    miss = "https://no.such.host/absent"
    target = pq.read_schema(src).append(pa.field("new_col", pa.int64()))
    cases = [
        ({"warc_ts": (iso(t0), iso(t1))}, None, None,
         in_range(full, "warc_ts", t0, t1)),
        ({"url": hits + [miss]}, None, None,
         pc.is_in(url, value_set=pa.array(hits + [miss]))),
        ({"url": [miss]}, None, None,
         pc.is_in(url, value_set=pa.array([miss]))),
        ({"warc_ts": (iso(gap_lo), iso(gap_hi))}, None, None,
         in_range(full, "warc_ts", gap_lo, gap_hi)),
        ({"warc_ts": (iso(t0), iso(t1))}, ["html", "lang"], None,
         in_range(full, "warc_ts", t0, t1)),
        ({"new_col": (0, 10)}, None, target,
         pa.array([False] * full.num_rows)),
    ]
    for zf, cols, schema, mask in cases:
        want = full.filter(mask)
        if schema is not None:
            want = want.append_column(
                "new_col", pa.nulls(want.num_rows, pa.int64()))
        if cols is not None:
            want = want.select(cols)
        got = _ds_table(decode_dataset(out, columns=cols, zone_filter=zf,
                                       schema=schema), want.schema)
        assert got.equals(want), (zf, cols, got.num_rows, want.num_rows)
    assert full.filter(cases[0][3]).num_rows == 501
    assert full.filter(cases[1][3]).num_rows == 2


def test_filtered_read_decodes_only_selected_pages(paged_cc_store,
                                                   monkeypatch):
    """Late materialization by count: a url hit decodes exactly one page
    each of html and text, and reads fewer bytes of the chunk file than
    the payloads it decodes hold (a paged payload is read only at its
    schema message and selected page); a chunk where no row is selected
    decodes no page and no payload but the filter column's."""
    import datetime as dt
    import functools

    from json_to_parquet_ray import encode
    from json_to_parquet_ray.codecs import base
    from json_to_parquet_ray.pipelines.encode_job import _zone_mask

    src, out = paged_cc_store
    chunks = sorted(glob.glob(os.path.join(out, "**", "*.rde"),
                              recursive=True))
    sizes = {}
    for p in chunks:
        for c in read_chunk_header(open(p, "rb").read())[0]["columns"]:
            sizes[c["size"]] = c["name"]
    pages, whole, parts, got_bytes = [], [], [], []
    read_page = base.ipc_read_page
    decode_array, decode_rows = encode.decode_array, encode.decode_rows
    real_open = open

    class CountingFile:
        def __init__(self, path, mode):
            self.f = real_open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def seek(self, *a):
            return self.f.seek(*a)

        def read(self, *a):
            b = self.f.read(*a)
            got_bytes.append(len(b))
            return b

    def counting_page(buf, schema, offset):
        pages.append(sizes[buf.size])
        return read_page(buf, schema, offset)

    def counting_whole(payload, meta):
        whole.append(sizes[len(payload)])
        return decode_array(payload, meta)

    def counting_rows(payload, meta, rows):
        parts.append(sizes[len(payload)])
        return decode_rows(payload, meta, rows)

    monkeypatch.setattr(base, "ipc_read_page", counting_page)
    monkeypatch.setattr(encode, "decode_array", counting_whole)
    monkeypatch.setattr(encode, "decode_rows", counting_rows)
    monkeypatch.setattr(encode, "open", CountingFile, raising=False)

    def read(path, zf):
        for seen in (pages, whole, parts, got_bytes):
            seen.clear()
        return encode.read_chunk_file(
            path, eq_prune={c: b for c, b in zf.items()
                            if isinstance(b, list)} or None,
            row_filter=(list(zf), functools.partial(_zone_mask,
                                                    zone_filter=zf)))

    src_t = pq.read_table(src)
    key = src_t.column("url")[123].as_py()
    hits = 0
    for p in chunks:
        if read(p, {"url": [key]}).num_rows:
            hits += 1
            assert sorted(pages) == ["html", "text"] and whole == ["url"]
            assert sorted(parts) == ["html", "lang", "text", "warc_ts"]
            header = read_chunk_header(open(p, "rb").read())[0]
            decoded = sum(c["size"] for c in header["columns"]
                          if c["name"] in whole + parts)
            assert 0 < sum(got_bytes) < decoded, (sum(got_bytes), decoded)
        else:  # a Bloom reject reads no payload at all
            assert pages == parts == [] and whole in ([], ["url"])
    assert hits == 1
    ts = src_t.column("warc_ts")
    us = dt.timedelta(microseconds=1)
    gap = {"warc_ts": ((ts[100].as_py() + us).isoformat(),
                       (ts[101].as_py() - us).isoformat())}
    for p in chunks:
        assert read(p, gap).num_rows == 0
        assert pages == parts == [] and whole == ["warc_ts"]


def test_single_batch_chunk_filtered_read_matches_full(tmp_path):
    """A chunk written before pages existed (every column one batch, no
    page keys in meta) reads the same through the filtered path as a
    full decode filtered afterwards."""
    import functools
    from unittest import mock

    from json_to_parquet_ray.codecs import base
    from json_to_parquet_ray.encode import read_chunk_file
    from json_to_parquet_ray.pipelines.encode_job import _zone_mask

    t = make_cc_table(2500, seed=5)
    with mock.patch.object(base, "PAGE_BYTES", 1 << 40):
        blob, header = encode_table(t)
    assert not any("page_rows" in c["meta"] for c in header["columns"])
    p = str(tmp_path / "old.rde")
    with open(p, "wb") as f:
        f.write(blob)
    zf = {"url": t.column("url").to_pylist()[40:45]}
    got = read_chunk_file(p, columns=["text", "url"], row_filter=(
        ["url"], functools.partial(_zone_mask, zone_filter=zf)))
    want = t.filter(_zone_mask(t, zf)).select(["text", "url"])
    assert got.num_rows >= 5 and got.equals(want)
