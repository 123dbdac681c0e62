"""End-to-end CLI test: JSON docs → parquet (reference capability C1) →
partitioned encode → bit-identical verify → decode back to parquet.
Each CLI call is a fresh process owning its own Ray session."""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, timeout=240):
    res = subprocess.run(
        [sys.executable, "-m", "json_to_parquet_ray.cli", *args],
        cwd=REPO, capture_output=True, text=True, timeout=timeout,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_cli_json_to_encoded_and_back(tmp_path):
    docs = tmp_path / "docs.jsonl"
    docs.write_text(
        '{"id":1,"text":"hello world","tags":["a","b"],"score":0.5}\n'
        '{"id":2,"text":"second doc","tags":[],"meta":{"k":"v"}}\n'
        '{"id":3,"text":"third","score":2}\n'
    )
    pq_dir = str(tmp_path / "pq")
    out = run_cli("json2parquet", str(docs), pq_dir)
    assert any(s.startswith("id:int64") for s in out["schema"])
    assert any(s.startswith("score:double") for s in out["schema"])  # 0.5+2 widened

    t = pq.read_table(pq_dir)
    assert t.num_rows == 3
    by_id = {r["id"]: r for r in t.to_pylist()}
    assert by_id[1]["tags"] == ["a", "b"]
    assert by_id[2]["meta"] == {"k": "v"}
    assert by_id[3]["score"] == 2.0

    enc_dir = str(tmp_path / "enc")
    summary = run_cli("encode", pq_dir, enc_dir)
    assert summary["partitions_encoded"] >= 1

    ver = run_cli("verify", enc_dir)
    assert ver["failed"] == []

    dec_dir = str(tmp_path / "dec")
    run_cli("decode", enc_dir, dec_dir)
    t2 = pq.read_table(dec_dir)
    assert t2.num_rows == 3
    assert {r["id"] for r in t2.to_pylist()} == {1, 2, 3}


def test_cli_stats_plan_and_zone_decode(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table({"id": list(range(1000)),
                  "text": [f"text {i}" for i in range(1000)]})
    src = str(tmp_path / "t.parquet")
    pq.write_table(t, src, row_group_size=250)

    stats = run_cli("stats", src)
    assert stats["id"]["rows"] == 1000 and stats["id"]["min"] == "0"
    plan = run_cli("plan", src)
    assert "id" in plan and "codec" in plan["id"]

    enc = str(tmp_path / "enc")
    run_cli("encode", src, enc)
    dec = str(tmp_path / "dec")
    run_cli("decode", enc, dec, "--zone-filter", "id=300,499")
    back = pq.read_table(dec)
    assert sorted(back.column("id").to_pylist()) == list(range(300, 500))

    # gc: an orphaned chunk + torn temp are reclaimed, store stays green
    orphan = os.path.join(enc, "shard-fff", "part-fff.rde")
    os.makedirs(os.path.dirname(orphan), exist_ok=True)
    with open(orphan, "wb") as f:
        f.write(b"x" * 100)
    with open(os.path.join(enc, "part-a.rde.tmp.1"), "wb") as f:
        f.write(b"y")
    gc = run_cli("gc", enc)
    assert gc["chunks_deleted"] == 1 and gc["tmps_deleted"] == 1
    assert gc["bytes_reclaimed"] >= 101
    assert not os.path.exists(orphan)

    # consolidate: JSON records fold into one parquet index; verify and
    # projected decode below then run against the INDEXED store
    con = run_cli("consolidate", enc)
    assert con["records_indexed"] == 4 and con["delta_files_removed"] == 4
    st = run_cli("store-stats", enc)
    assert st["chunks"] == 4 and st["rows"] == 1000
    assert set(st["columns"]) == {"id", "text"}
    ver = run_cli("verify", enc)
    assert ver["failed"] == []

    # projected decode: only the requested column comes back
    dec2 = str(tmp_path / "dec2")
    run_cli("decode", enc, dec2, "--columns", "id",
            "--zone-filter", "id=0,99")
    back2 = pq.read_table(dec2)
    assert back2.column_names == ["id"]
    assert sorted(back2.column("id").to_pylist()) == list(range(100))


def test_cli_cluster_scan_stats_and_in_list_decode(tmp_path):
    """Round-4 CLI additions in one store: cluster (sort-cluster encode
    with blooms), scan-stats (pruning explain; bad ts bound fails), and
    IN-list decode syntax."""
    import pyarrow as pa

    # u is UNSORTED high-cardinality (zones useless, blooms prune);
    # the cluster key g gives disjoint zones
    n = 1000
    t = pa.table({
        "g": pa.array([f"g{i % 4}" for i in range(n)]),
        "id": pa.array(range(n), pa.int64()),
        "u": pa.array([f"u-{(i * 7919) % n:04d}" for i in range(n)]),
    })
    src = str(tmp_path / "t.parquet")
    pq.write_table(t, src, row_group_size=250)

    enc = str(tmp_path / "enc")
    summary = run_cli("cluster", src, enc, "--by", "g,id",
                      "--bloom-columns", "u",
                      "--max-rows-per-partition", "125")
    assert summary["clustered_by"] == ["g", "id"]

    # cluster-key equality: zones prune; explain shows it
    ss = run_cli("scan-stats", enc, "--zone-filter", "g=g0,g0")
    assert ss["zone_skipped"] > 0 and ss["to_decode"] > 0

    # unsorted-column point lookup: blooms reject chunks whose zones
    # (wide-but-not-covering here) survived, leaving almost nothing
    # to decode
    ss2 = run_cli("scan-stats", enc, "--zone-filter", "u=u-0007,u-0007")
    assert ss2["bloom_rejected"] >= 1
    assert 1 <= ss2["to_decode"] <= 3

    # IN-list decode syntax
    dec = str(tmp_path / "dec")
    run_cli("decode", enc, dec, "--zone-filter", "u=u-0007|u-0011")
    back = pq.read_table(dec)
    assert sorted(back.column("u").to_pylist()) == ["u-0007", "u-0011"]


def test_cli_shared_fsst_encode(tmp_path):
    """--shared-fsst reaches encode_job: the summary reports the shared
    columns, verify stays bit-identical and decode returns the input.
    Whether a chunk takes the shared table is the planner's call
    (tests/test_encode_job.py)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table({
        "id": list(range(800)),
        "text": [f"the quick brown fox number {i} jumps over the lazy dog"
                 for i in range(800)],
    })
    src = str(tmp_path / "t.parquet")
    pq.write_table(t, src, row_group_size=200)

    enc = str(tmp_path / "enc")
    summary = run_cli("encode", src, enc, "--shared-fsst", "text")
    assert summary["shared_fsst_columns"] == ["text"]
    assert summary["partitions_encoded"] == 4
    assert run_cli("verify", enc)["failed"] == []

    dec = str(tmp_path / "dec")
    run_cli("decode", enc, dec)
    assert pq.read_table(dec).sort_by("id").equals(t)


def test_cli_conformance_mode_no_resume_shared_dicts(tmp_path):
    """CLI plumbing for the remaining flags: --mode conformance keeps
    ISO-8601 strings as strings (reference semantics; engine mode lets
    Arrow infer timestamps), --shared-dicts reaches encode_job (the
    summary lists the column and the store decodes to the input), and
    --no-resume re-encodes partitions a resume would skip."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    docs = tmp_path / "docs.jsonl"
    docs.write_text(
        '{"id":1,"ts":"2026-01-01T00:00:00Z","n":3}\n'
        '{"id":2,"ts":"2026-01-02T12:30:00Z"}\n'
    )
    conf = run_cli("json2parquet", str(docs), str(tmp_path / "conf"),
                   "--mode", "conformance")
    assert any(s.startswith("ts:string") for s in conf["schema"]), conf
    eng = run_cli("json2parquet", str(docs), str(tmp_path / "eng"))
    assert any(s.startswith("ts:timestamp") for s in eng["schema"]), eng

    t = pa.table({"id": list(range(600)),
                  "lang": (["en"] * 500 + ["de", "fr"] * 50)})
    src = str(tmp_path / "t.parquet")
    pq.write_table(t, src, row_group_size=200)
    enc = str(tmp_path / "enc")
    s1 = run_cli("encode", src, enc, "--shared-dicts", "lang")
    assert s1["shared_dict_columns"] == ["lang"]
    assert s1["partitions_encoded"] == 3
    dec = str(tmp_path / "dec")
    run_cli("decode", enc, dec)
    assert pq.read_table(dec).sort_by("id").equals(t)

    s2 = run_cli("encode", src, enc, "--shared-dicts", "lang")
    assert s2["partitions_skipped_resume"] == 3  # default resume skips
    s3 = run_cli("encode", src, enc, "--shared-dicts", "lang",
                 "--no-resume")
    assert s3["partitions_skipped_resume"] == 0
    assert s3["partitions_encoded"] == 3
    assert run_cli("verify", enc)["failed"] == []


def test_cli_json2parquet_single_doc_and_replace(tmp_path):
    """A single-document (non-JSONL) file must fall back to the Python
    parse path instead of dying on Ray's whole-buffer json.load retry;
    and a rerun over the same out_dir REPLACES the previous rows on
    every path (appending depended on whether widening happened)."""
    import pyarrow.parquet as pq

    one = tmp_path / "one.json"
    one.write_text('{"a": [1, "x"]}\n')
    out = run_cli("json2parquet", str(one), str(tmp_path / "o1"))
    t = pq.read_table(str(tmp_path / "o1"))
    assert t.num_rows == 1
    assert t.column("a").to_pylist() == [["1", "x"]]

    a = tmp_path / "a.jsonl"
    a.write_text('{"id": 998}\n{"id": 999}\n')
    b = tmp_path / "b.jsonl"
    b.write_text('{"id": 1}\n{"id": 2}\n')
    dst = str(tmp_path / "o2")
    run_cli("json2parquet", str(a), dst)
    run_cli("json2parquet", str(b), dst)
    assert sorted(pq.read_table(dst).column("id").to_pylist()) == [1, 2]


def test_cli_zone_filter_empty_value_rejected(tmp_path):
    """--zone-filter 'col=' (an unset shell variable) must error, not
    silently decode the whole store as the open range."""
    import subprocess
    import sys

    res = subprocess.run(
        [sys.executable, "-m", "json_to_parquet_ray.cli", "decode",
         str(tmp_path / "whatever"), str(tmp_path / "out"),
         "--zone-filter", "id="],
        cwd=REPO, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert "empty value" in (res.stderr + res.stdout)


def test_cli_decode_matching_nothing_leaves_empty_dir(tmp_path):
    """A decode whose zone filter matches no row prints its output path,
    and that path is a directory holding no parquet file."""
    import pyarrow as pa

    t = pa.table({"id": list(range(300)),
                  "url": [f"https://example.org/{i}" for i in range(300)]})
    src = str(tmp_path / "t.parquet")
    pq.write_table(t, src, row_group_size=100)
    enc = str(tmp_path / "enc")
    run_cli("encode", src, enc)
    dec = str(tmp_path / "dec")
    # every url sorts below "zzz": the range is past every zone
    assert run_cli("decode", enc, dec,
                   "--zone-filter", "url=zzz,zzzz") == {"out": dec}
    assert os.path.isdir(dec)
    assert not [f for f in os.listdir(dec) if f.endswith(".parquet")]


def test_cli_dedup_paragraphs(tmp_path):
    """dedup-paragraphs drops cross-doc boilerplate, keeps unique text,
    and reports the total removed from the WRITTEN output."""
    import pyarrow as pa

    src = tmp_path / "docs.parquet"
    boiler = "all rights reserved"
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([f"{boiler}\n\nalpha one", f"{boiler}\n\nbeta two",
                          "gamma three"]),
    }), src)
    out = str(tmp_path / "clean")
    res = run_cli("dedup-paragraphs", str(src), out)
    assert res["paragraphs_removed"] == 2
    t = pq.read_table(out).sort_by("doc_id")
    assert t.column("text").to_pylist() == ["alpha one", "beta two",
                                            "gamma three"]
    assert t.column("n_removed").to_pylist() == [1, 1, 0]


def test_cli_encode_optimize_size(tmp_path):
    """--optimize size must produce a store no larger than balanced on
    the same repetitive-text input, and still verify bit-identical."""
    import pyarrow as pa

    src = tmp_path / "in.parquet"
    words = ["alpha beta", "gamma delta", "epsilon zeta", "long paragraph"]
    pq.write_table(pa.table({
        "id": pa.array(range(3000), pa.int64()),
        "text": pa.array([" ".join(words[(i + j) % 4] for j in range(30))
                          for i in range(3000)]),
    }), src)
    sizes = {}
    for mode in ("balanced", "size"):
        out = str(tmp_path / f"enc_{mode}")
        res = run_cli("encode", str(src), out, "--optimize", mode)
        sizes[mode] = res["chunk_bytes"]
        ver = run_cli("verify", out)
        assert ver["failed"] == []
    assert sizes["size"] <= sizes["balanced"]


def test_cli_decontaminate(tmp_path):
    """decontaminate flags exactly the docs sharing an n-gram with the
    eval file and reports the flagged count from the written output."""
    import pyarrow as pa

    src = tmp_path / "docs.parquet"
    span = "one two three four five six seven eight"
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([f"intro {span} outro", "totally clean doc here",
                          "short"]),
    }), src)
    ev = tmp_path / "eval.txt"
    ev.write_text(f"{span} and more\n\nanother eval line\n")
    out = str(tmp_path / "flags")
    res = run_cli("decontaminate", str(src), out, "--eval-file", str(ev))
    assert res == {"out": out, "eval_texts": 2, "contaminated_docs": 1}
    t = pq.read_table(out).sort_by("doc_id")
    assert t.column("contaminated").to_pylist() == [True, False, False]
