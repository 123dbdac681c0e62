"""The manifest's one reader (``_record_sources`` + ``_records``): parity
with the two-reader logic it replaced on every store shape, its error
messages, and one whole-manifest read per encode job."""

import json
import os
import re
import shutil
from dataclasses import asdict

import pytest

from json_to_parquet_ray import manifest
from json_to_parquet_ray.fixtures import write_cc_parquet
from json_to_parquet_ray.manifest import (
    PartitionRecord,
    _unreadable_index,
    consolidate,
    effective_records,
    index_path,
    index_record,
    load_manifest,
    manifest_dir,
    record_path,
    write_atomic,
    write_index_file,
    write_record,
)
from json_to_parquet_ray.pipelines.encode_job import compact_job, encode_job


def _reference_load_manifest(out_dir: str) -> dict[str, PartitionRecord]:
    """The manifest read as two readers did it: the whole index in one
    ``read_table``, then the JSON records — flat ``_manifest/part-*.json``
    first, then the ``shard-*`` dirs — each later one winning a
    partition_id collision; torn JSON skipped, missing dirs skipped."""
    import pyarrow.parquet as pq

    mdir = manifest_dir(out_dir)
    out: dict[str, PartitionRecord] = {}
    if not os.path.isdir(mdir):
        return out
    p = index_path(out_dir)
    if os.path.exists(p):
        try:
            rows = pq.read_table(p, columns=["json"]).column(
                "json").to_pylist()
        except Exception as e:
            raise _unreadable_index(p, e) from e
        for raw in rows:
            rec = index_record(p, raw)
            out[rec.partition_id] = rec
    shard_dirs = [os.path.join(mdir, d) for d in sorted(os.listdir(mdir))
                  if d.startswith("shard-")]
    for sd in [mdir] + shard_dirs:
        if not os.path.isdir(sd):
            continue
        for name in sorted(os.listdir(sd)):
            if not (name.startswith("part-") and name.endswith(".json")):
                continue
            try:
                with open(os.path.join(sd, name)) as f:
                    raw = json.load(f)
                rec = PartitionRecord(**raw)
            except (json.JSONDecodeError, TypeError):
                continue
            out[rec.partition_id] = rec
    return out


def _flatten(out: str) -> None:
    """Move every sharded record to the flat layout (``_manifest/``)."""
    mdir = manifest_dir(out)
    for sd in [os.path.join(mdir, n) for n in os.listdir(mdir)
               if n.startswith("shard-")]:
        for name in os.listdir(sd):
            os.replace(os.path.join(sd, name), os.path.join(mdir, name))
        os.rmdir(sd)


REWRITTEN = 1234.5


def _rewritten(rec: PartitionRecord) -> PartitionRecord:
    """``rec`` under the same partition_id with other content, so the
    source that wins a collision shows in the read."""
    return PartitionRecord(**{**asdict(rec), "wall_time_s": REWRITTEN})


def _copy(src: str, dst: str) -> str:
    shutil.copytree(src, dst)
    return dst


@pytest.fixture(scope="module")
def stores(ray_session, tmp_path_factory) -> dict[str, str]:
    tmp = tmp_path_factory.mktemp("manifest_shapes")
    a = write_cc_parquet(str(tmp / "src" / "a.parquet"), 600, seed=61,
                         row_group_size=100)
    b = write_cc_parquet(str(tmp / "src" / "b.parquet"), 200, seed=62,
                         row_group_size=100)
    s = {"fresh": str(tmp / "fresh")}
    encode_job(a, s["fresh"], shared_dict_columns=None)

    s["sealed"] = _copy(s["fresh"], str(tmp / "sealed"))
    assert consolidate(s["sealed"])["sealed"] is True

    # two appended JSON deltas, and a delta sharing an index record's id
    s["sealed_deltas"] = _copy(s["sealed"], str(tmp / "sealed_deltas"))
    encode_job([a, b], s["sealed_deltas"], shared_dict_columns=None)
    write_record(s["sealed_deltas"],
                 _rewritten(effective_records(s["sealed"])[2]))

    # a stale record overlapping a live one, folded in: the index is
    # written unsealed
    s["unsealed_index"] = _copy(s["sealed"], str(tmp / "unsealed_index"))
    live = effective_records(s["sealed"])[0]
    stale = PartitionRecord(
        partition_id="feedfacefeedface",
        fragment={**live.fragment, "num_rows": 1}, num_rows=1,
        chunk_file=os.path.join("shard-fee", "part-feed.rde"), chunk_size=3)
    write_atomic(os.path.join(s["unsealed_index"], stale.chunk_file), b"abc")
    write_record(s["unsealed_index"], stale)
    assert consolidate(s["unsealed_index"])["sealed"] is False

    s["flat"] = _copy(s["fresh"], str(tmp / "flat"))
    _flatten(s["flat"])

    # the store of test_flat_records_survive_a_sharded_record, plus one
    # record in both layouts (the sharded copy wins)
    s["flat_sharded"] = _copy(s["flat"], str(tmp / "flat_sharded"))
    encode_job([a, b], s["flat_sharded"], shared_dict_columns=None)
    write_record(s["flat_sharded"],
                 _rewritten(effective_records(s["flat"])[1]))

    # a compaction killed after its merged record committed: the merged
    # JSON record and chunk, and the index-resident records it covers
    s["crashed_compaction"] = _copy(s["sealed"],
                                    str(tmp / "crashed_compaction"))
    side = str(tmp / "side")
    for r in effective_records(s["sealed"])[:3]:
        dst = os.path.join(side, r.chunk_file)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copyfile(os.path.join(s["sealed"], r.chunk_file), dst)
        write_record(side, r)
    assert compact_job(side, min_rows=10_000)["groups"] == 1
    (merged,) = load_manifest(side).values()
    dst = os.path.join(s["crashed_compaction"], merged.chunk_file)
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    shutil.copyfile(os.path.join(side, merged.chunk_file), dst)
    write_record(s["crashed_compaction"], merged)

    # torn records in a shard dir and in the flat layout
    s["torn"] = _copy(s["sealed_deltas"], str(tmp / "torn"))
    mdir = manifest_dir(s["torn"])
    shard = sorted(n for n in os.listdir(mdir) if n.startswith("shard-")
                   and os.listdir(os.path.join(mdir, n)))[0]
    for d in (os.path.join(mdir, shard), mdir):
        with open(os.path.join(d, "part-deadbeef.json"), "w") as f:
            f.write('{"partition_id": "deadbeef", "trunca')
    return s


SHAPES = ["fresh", "sealed", "sealed_deltas", "unsealed_index", "flat",
          "flat_sharded", "crashed_compaction", "torn"]


@pytest.mark.parametrize("shape", SHAPES)
def test_one_reader_matches_reference(stores, shape):
    """load_manifest returns the reference's records, record for record
    and in the same order; effective_records equals reconciling the
    reference's records."""
    out = stores[shape]
    want = _reference_load_manifest(out)
    got = load_manifest(out)
    assert len(want) >= 6
    assert [(pid, r.to_json()) for pid, r in got.items()] == \
        [(pid, r.to_json()) for pid, r in want.items()]
    assert [r.to_json() for r in effective_records(out)] == \
        [r.to_json() for r in effective_records(out, manifest=want)]


def test_store_shapes_hold_what_they_name(stores):
    """The parity shapes exercise what they are named for: the sources
    the listing finds and the collisions a later source wins."""
    def listing(shape):
        sources, sealed, shortcut, _ = manifest._record_sources(stores[shape])
        return ({s["rg"] >= 0 for s in sources}, sealed, shortcut)

    assert listing("fresh") == ({False}, False, False)
    assert listing("sealed") == ({True}, True, True)
    assert listing("sealed_deltas") == ({True, False}, True, False)
    assert listing("unsealed_index") == ({True}, False, False)
    assert listing("flat") == ({False}, False, False)
    flat = stores["flat"]
    assert manifest._record_sources(flat)[0] == [
        {"rg": -1, "shard": manifest_dir(flat)}]
    for shape in ("sealed_deltas", "flat_sharded"):
        got = load_manifest(stores[shape])
        assert sum(r.wall_time_s == REWRITTEN for r in got.values()) == 1, \
            shape
    m = load_manifest(stores["crashed_compaction"])
    assert sum("merged" in r.fragment for r in m.values()) == 1
    assert len(effective_records(stores["crashed_compaction"])) == len(m) - 3


def _message(e: BaseException) -> str:
    """A read error's message without the pyarrow cause in it."""
    return re.sub(r"cannot be read \(.*\); ", "cannot be read (...); ",
                  str(e), flags=re.S)


def _raises_like_reference(out: str, match: str) -> None:
    with pytest.raises(ValueError, match=match) as ref:
        _reference_load_manifest(out)
    for read in (load_manifest, effective_records):
        with pytest.raises(ValueError, match=match) as got:
            read(out)
        assert _message(got.value) == _message(ref.value), read


def _indexed_store(out: str, n: int = 600) -> list[PartitionRecord]:
    recs = [PartitionRecord(
        partition_id=f"{i:016x}",
        fragment={"path": "in.parquet", "row_group": i, "num_rows": 5,
                  "row_start": 0},
        num_rows=5, chunk_file=f"part-{i}.rde", chunk_size=4)
        for i in range(n)]
    write_index_file(index_path(out), [r.to_json() for r in recs],
                     {"sealed": "1"})
    return recs


def test_multi_row_group_index_matches_reference(tmp_path):
    """An index of several row groups, overlaid by a flat and a sharded
    JSON record that collide with index rows: the driver's one-call read
    and the scan's one-row-group-per-source reads both match the
    reference."""
    out = str(tmp_path / "store")
    recs = _indexed_store(out)
    write_atomic(os.path.join(manifest_dir(out),
                              f"part-{recs[300].partition_id}.json"),
                 _rewritten(recs[300]).to_json().encode())
    write_record(out, _rewritten(recs[5]))
    sources, sealed, shortcut, _ = manifest._record_sources(out)
    assert len(sources) == 5 and sealed and not shortcut
    want = _reference_load_manifest(out)
    assert [r.to_json() for r in load_manifest(out).values()] == \
        [r.to_json() for r in want.values()]
    per_source = {}
    for s in sources:
        per_source.update((r.partition_id, r)
                          for r in manifest._records(out, [s]))
    assert [(pid, r.to_json()) for pid, r in per_source.items()] == \
        [(pid, r.to_json()) for pid, r in want.items()]
    assert [r.to_json() for r in effective_records(out)] == \
        [r.to_json() for r in effective_records(out, manifest=want)]


def test_one_reader_error_messages_match_reference(tmp_path):
    """A corrupt index file (bad footer, bad data pages) raises "cannot
    be read" and a bad index row "unparseable record", as the reference
    does; a torn JSON record alone is skipped."""
    out = str(tmp_path / "store")
    _indexed_store(out)
    with open(index_path(out), "wb") as f:
        f.write(b"not a parquet file")
    _raises_like_reference(out, "cannot be read")

    _indexed_store(out)
    with open(index_path(out), "r+b") as f:
        f.seek(8)
        page = f.read(192)
        f.seek(8)
        f.write(bytes(x ^ 0xFF for x in page))
    _raises_like_reference(out, "cannot be read")

    recs = _indexed_store(out, 3)
    rows = [r.to_json() for r in recs]
    rows[1] = rows[1][:-5]
    write_index_file(index_path(out), rows, {"sealed": "1"})
    _raises_like_reference(out, "unparseable record")
    with pytest.raises(ValueError) as ref:
        _reference_load_manifest(out)
    with pytest.raises(ValueError) as got:
        load_manifest(out)
    assert str(got.value) == str(ref.value)

    _indexed_store(out, 3)
    torn = record_path(out, "deadbeefdeadbeef")
    os.makedirs(os.path.dirname(torn))
    with open(torn, "w") as f:
        f.write('{"partition_id": "deadbeefdeadbeef", "trunca')
    assert list(load_manifest(out)) == list(_reference_load_manifest(out))
    assert len(load_manifest(out)) == 3


def test_encode_job_reads_the_manifest_once(ray_session, tmp_path,
                                            monkeypatch):
    """One whole-manifest read per encode job, with and without resume,
    and ``manifest_records`` equals the records load_manifest finds on a
    fresh store, a resume after deleting records, an appended input and
    a resume of a compacted store."""
    listings = []
    real = manifest._record_sources

    def spy(out_dir):
        listings.append(out_dir)
        return real(out_dir)

    def run(inputs, out, **kw):
        listings.clear()
        with monkeypatch.context() as m:
            m.setattr(manifest, "_record_sources", spy)
            summary = encode_job(inputs, out, shared_dict_columns=None, **kw)
        assert listings == [out], kw
        assert summary["manifest_records"] == len(load_manifest(out))
        return summary

    a = write_cc_parquet(str(tmp_path / "src" / "a.parquet"), 600, seed=63,
                         row_group_size=100)
    b = write_cc_parquet(str(tmp_path / "src" / "b.parquet"), 200, seed=64,
                         row_group_size=100)
    out = str(tmp_path / "enc")
    assert run(a, out)["manifest_records"] == 6
    assert run(a, out, resume=False)["partitions_encoded"] == 6

    for rec in list(load_manifest(out).values())[:2]:
        os.remove(record_path(out, rec.partition_id))
    s = run(a, out)
    assert (s["partitions_encoded"], s["manifest_records"]) == (2, 6)

    s = run([a, b], out)
    assert (s["partitions_encoded"], s["manifest_records"]) == (2, 8)

    assert compact_job(out, min_rows=300)["groups"] >= 1
    s = run([a, b], out)
    assert s["partitions_encoded"] == 0
    assert s["manifest_records"] < 8
