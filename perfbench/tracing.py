"""Per-layer tracing for the benchmark: in-process replays with spans.

The engine runs its partition work inside Ray workers, where a benchmark
cannot see individual calls. The traced run therefore replays the same work
in the benchmark process: ``EncodePartition`` over the job's own work items
(what each encode task does), and the job-side record scan plus
``read_chunk_file`` per surviving chunk (what ``decode_dataset`` and its
read tasks do). Module functions are wrapped from here; nothing in the
package changes. Spans stay in memory and are written out by the caller
when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import shutil
import statistics
import time
from collections import defaultdict

# codecs the planner picks on the CC table (url zstd, warc_ts delta,
# html/text zstd3, lang fsst); each gets its own per-layer metrics
CODECS = ("zstd", "zstd3", "delta", "fsst")

# direct children of a replayed partition that fall inside the record's
# wall_time_s interval (write_record runs after it is taken)
UDF_STAGES = ("encode_job.read_fragment", "stats.compute_stats_table",
              "plan.plan_from_stats", "encode.encode_table",
              "manifest.write_atomic", "encode_job.zone_maps")


class Tracer:
    """Span recorder: name, start, end, parent span and attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sp = {"name": name, "parent": self._stack[-1] if self._stack else None,
              "t0": time.perf_counter(), "t1": None, **attrs}
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp["t1"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Replace ``module.attr`` by a span-recording wrapper until
        ``unpatch``; ``after(span, args, kwargs, result)`` adds attributes."""
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                out = orig(*args, **kwargs)
                if after is not None:
                    after(sp, args, kwargs, out)
                return out

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, orig))

    def unpatch(self) -> None:
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def dump(self) -> list[dict]:
        base = self.spans[0]["t0"] if self.spans else 0.0
        return [{**sp, "t0": sp["t0"] - base, "t1": sp["t1"] - base}
                for sp in self.spans]


def _dur(sp: dict) -> float:
    return sp["t1"] - sp["t0"]


def install(tr: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    from json_to_parquet_ray import encode, manifest, plan
    from json_to_parquet_ray.codecs import bloom
    from json_to_parquet_ray.pipelines import encode_job

    def nbytes_out(sp, a, kw, out):
        sp["bytes"] = out.nbytes

    def nbytes_arg(sp, a, kw, out):
        sp["bytes"] = len(a[1])

    def codec_io(sp, a, kw, out):
        sp["codec"] = a[1]
        sp["in_bytes"] = a[0].nbytes
        sp["out_bytes"] = len(out[0])

    def codec_of_meta(sp, a, kw, out):
        sp["codec"] = a[1]["codec"]

    def ratio_errors(sp, a, kw, out):
        table, cplan = a[0], a[1]
        errs = []
        for c in out[1]["columns"]:
            cp = cplan.columns.get(c["name"])
            raw = table.column(c["name"]).nbytes
            if cp is not None and raw:
                errs.append(abs(cp.est_ratio - c["size"] / raw))
        sp["ratio_errors"] = errs

    tr.wrap(encode_job, "read_fragment", "encode_job.read_fragment",
            nbytes_out)
    tr.wrap(encode_job, "compute_stats_table", "stats.compute_stats_table")
    tr.wrap(encode_job, "plan_from_stats", "plan.plan_from_stats")
    tr.wrap(plan, "encode_array", "plan.trial_encode")
    tr.wrap(encode_job, "encode_table", "encode.encode_table", ratio_errors)
    tr.wrap(encode, "encode_array", "codecs.encode", codec_io)
    tr.wrap(bloom, "build_bloom", "codecs.bloom.build_bloom")
    tr.wrap(encode_job, "write_atomic", "manifest.write_atomic", nbytes_arg)
    tr.wrap(manifest, "write_atomic", "manifest.write_atomic", nbytes_arg)
    tr.wrap(encode_job, "write_record", "manifest.write_record")
    # private helper, but it runs inside the record's wall time: without
    # it the stage sum cannot be checked against the UDF wall
    tr.wrap(encode_job, "_zone_maps", "encode_job.zone_maps")
    tr.wrap(encode, "decode_array", "codecs.decode", codec_of_meta)


def work_items(input_dir: str, max_rows: int | None) -> list[dict]:
    """The encode work items exactly as ``encode_job`` builds them."""
    from json_to_parquet_ray.pipelines.encode_job import list_fragments

    return [{"partition_id": f.frag_hash, "path": f.path,
             "row_group": f.row_group, "num_rows": f.num_rows,
             "row_start": f.row_start}
            for f in list_fragments(input_dir, max_rows)]


def replay_encode(tr: Tracer, items: list[dict], out_dir: str,
                  bloom_columns: list[str]) -> None:
    """What each stateless encode task does, one partition at a time."""
    import pyarrow as pa

    from json_to_parquet_ray.manifest import manifest_dir
    from json_to_parquet_ray.pipelines.encode_job import EncodePartition

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(manifest_dir(out_dir))
    for item in items:
        with tr.span("partition", partition_id=item["partition_id"]):
            EncodePartition(out_dir, bloom_columns=bloom_columns)(
                pa.Table.from_pylist([item]))


def replay_read(tr: Tracer, store: str, *, columns=None, zone_filter=None,
                row_filter=None) -> dict:
    """Job-side half of ``decode_dataset`` (record scan, zone prune) and
    the body of its read tasks (``read_chunk_file`` with the Bloom equality
    probe, then the exact row filter). Returns row and chunk counts."""
    from json_to_parquet_ray.encode import read_chunk_file
    from json_to_parquet_ray.manifest import effective_records
    from json_to_parquet_ray.pipelines.encode_job import zone_prune

    with tr.span("manifest.effective_records"):
        recs = effective_records(store)
    skipped = 0
    if zone_filter:
        with tr.span("encode_job.zone_prune"):
            recs, skipped = zone_prune(store, zone_filter, recs=recs)
    eq = None
    if zone_filter:
        eq = {c: b for c, b in zone_filter.items() if isinstance(b, list)}
    rows = rejected = 0
    read_s = 0.0
    for rec in recs:
        with tr.span("encode.read_chunk_file") as sp:
            t = read_chunk_file(os.path.join(store, rec.chunk_file),
                                columns=columns, eq_prune=eq or None)
        read_s += _dur(sp)
        if eq and rec.num_rows and t.num_rows == 0:
            rejected += 1
        if row_filter is not None:
            t = t.filter(row_filter(t))
        rows += t.num_rows
    return {"rows": rows, "read_chunk_file_s": read_s,
            "chunks": len(recs) + skipped,
            "skipped": skipped, "probed": len(recs) if eq else 0,
            "rejected": rejected}


def pass_metrics(tr: Tracer, replay_recs: dict, ray_recs: dict,
                 reads: dict, ray_decode_s: float) -> dict:
    """Per-layer numbers of one traced pass (encode replay + read replay)."""
    spans = tr.spans
    child_s = defaultdict(float)
    for sp in spans:
        if sp["parent"] is not None:
            child_s[sp["parent"]] += _dur(sp)
    tot = defaultdict(float)
    calls = defaultdict(int)
    for i, sp in enumerate(spans):
        key = sp["name"]
        if "codec" in sp:
            key = f"{key}.{sp['codec']}"
            tot[key + ".in_bytes"] += sp.get("in_bytes", 0)
            tot[key + ".out_bytes"] += sp.get("out_bytes", 0)
        tot[key + ".s"] += _dur(sp)
        tot[key + ".self_s"] += _dur(sp) - child_s[i]
        tot[key + ".bytes"] += sp.get("bytes", 0)
        calls[key] += 1

    udf_s = sum(r.wall_time_s for r in replay_recs.values())
    covered = sum(_dur(sp) for sp in spans
                  if sp["parent"] is not None
                  and spans[sp["parent"]]["name"] == "partition"
                  and sp["name"] in UDF_STAGES)
    errs = [e for sp in spans for e in sp.get("ratio_errors", ())]
    codec_encode_s = sum(v for k, v in tot.items()
                         if k.startswith("codecs.encode.") and k.endswith(".s"))
    full = reads["full"]
    zone = reads["range"] + reads["point"]
    considered = sum(r["chunks"] for r in zone)
    probed = sum(r["probed"] for r in reads["point"])

    m = {
        "encode_job.read_fragment.s": tot["encode_job.read_fragment.s"],
        "encode_job.read_fragment.bytes": tot["encode_job.read_fragment.bytes"],
        "stats.compute_stats_table.s": tot["stats.compute_stats_table.s"],
        "plan.plan_from_stats.s": tot["plan.plan_from_stats.s"],
        "plan.trial_encode.s": tot["plan.trial_encode.s"],
        "plan.trial_encodes": calls["plan.trial_encode"],
        "plan.est_ratio_error": statistics.fmean(errs) if errs else 0.0,
        "codecs.bloom.build_bloom.s": tot["codecs.bloom.build_bloom.s"],
        "encode.encode_table.self_s": tot["encode.encode_table.self_s"],
        "encode_job.zone_maps.s": tot["encode_job.zone_maps.s"],
        "manifest.write_atomic.s": tot["manifest.write_atomic.s"],
        "manifest.write_atomic.calls": calls["manifest.write_atomic"],
        "manifest.write_atomic.bytes": tot["manifest.write_atomic.bytes"],
        "manifest.write_record.s": tot["manifest.write_record.s"],
        "manifest.write_record.calls": calls["manifest.write_record"],
        "encode_job.udf_s": udf_s,
        "encode.stage_coverage": covered / udf_s,
        "encode.share.plan": tot["plan.plan_from_stats.s"] / udf_s,
        "encode.share.codecs_encode": codec_encode_s / udf_s,
        "trace.overhead_s": udf_s - sum(r.wall_time_s
                                        for r in ray_recs.values()),
        "manifest.effective_records.s": tot["manifest.effective_records.s"],
        "encode.read_chunk_file.s": tot["encode.read_chunk_file.s"],
        "encode_job.zone_prune.skip_ratio": (
            sum(r["skipped"] for r in zone) / considered),
        "bloom.reject_ratio": (sum(r["rejected"] for r in reads["point"])
                               / probed if probed else 0.0),
        "decode.ray_overhead_s": ray_decode_s - full["read_chunk_file_s"],
    }
    for c in CODECS:
        for suffix in ("s", "in_bytes", "out_bytes"):
            m[f"codecs.encode.{c}.{suffix}"] = tot[f"codecs.encode.{c}.{suffix}"]
        m[f"codecs.decode.{c}.s"] = tot[f"codecs.decode.{c}.s"]
    m["_other_codecs"] = sorted(
        {k.split(".")[2] for k in tot
         if k.startswith(("codecs.encode.", "codecs.decode."))} - set(CODECS))
    return m
