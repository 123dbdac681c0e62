"""The flagship pipeline: partitioned, resumable, codec-auto-selected encode.

Shape (SURVEY.md §3.4):

    fragments = parquet row groups of the input            [partition unit]
    (pass 1)  shared dictionaries: one distinct pass over the input's
              row groups, which also decides ``auto``; shared FSST
              tables are trained on the sampled fragments, no pass
    (plan)    one broadcast per job: the sampled plan (> 16 fragments)
              and each shared column's dictionary/FSST candidates
    (pass 2)  plain Ray tasks over contiguous runs of fragment work
              items, one cached EncodePartition per worker process (the
              broadcast fetched once per worker) → one chunk file + one
              manifest record per partition (atomic commit); each task
              returns only its run's byte and partition sums
    resume:   completed partitions (manifest ∩ chunk files) are filtered
              out of the work-item list before any task is submitted.

Partition = parquet row group so that (a) each encode task reads only its
own byte range — a distributed read with no central bottleneck, and (b)
the partition↔input mapping is deterministic, which makes the manifest's
fragment ids stable across runs/retries (required for resume and for
bit-identical output under Ray task retry).
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
import zlib
from dataclasses import asdict

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..encode import decode_table, encode_table, read_chunk_header
from ..manifest import (
    FragmentRef,
    PartitionRecord,
    _json_records_in,
    _record_sources,
    _records,
    effective_records,
    is_complete,
    load_manifest,
    read_index_metadata,
    shard_of,
    write_atomic,
    write_record,
)
from ..plan import CodecPlan, ColumnPlan, plan_from_stats
from ..shuffle import distinct_values
from ..stats import compute_stats_table

SHARED_DICT_MAX_CARD = 1024

# store-level sampled plan (build_shared_plan): O(1) in the store size —
# the sample is a fixed number of fragments regardless of input scale.
PLAN_SAMPLE_FRAGS = 16
PLAN_SAMPLE_ROWS = 4096
# Fragment path prefix of a keyed store's partitions (``keyed_store``):
# their rows come from a shuffle, not from an input file verify can read.
PKEY_PATH = "_pkey/"


def _store_optimize_path(out_dir: str) -> str:
    from ..manifest import manifest_dir

    # top-level file in the manifest dir: record loaders only read
    # shard-*/part-*.json, so this can never be mistaken for a record
    return os.path.join(manifest_dir(out_dir), "store_optimize.json")


def _store_record(out_dir: str) -> dict:
    """The store's planner record; {} when absent or unreadable."""
    try:
        with open(_store_optimize_path(out_dir)) as f:
            return dict(json.load(f))
    except (OSError, ValueError, TypeError):
        return {}


def record_store_optimize(out_dir: str, mode: str,
                          sampled_plan: dict | None = None) -> None:
    """Persist the planner mode the store was (last) encoded with, so
    later maintenance jobs — compaction re-encodes merged chunks — plan
    under the SAME frontier instead of silently reverting an archival
    store to balanced codecs. Last writer wins: a resumed run that
    passes a different mode governs subsequent maintenance; one that
    passes none keeps the recorded mode (see ``encode_job``). Next to
    it sits the job's keyed ``sampled_plan`` (``_sampled_plan``)."""
    rec = {"optimize": mode}
    if sampled_plan is not None:
        rec["sampled_plan"] = sampled_plan
    write_atomic(_store_optimize_path(out_dir), json.dumps(rec).encode())


def load_store_optimize(out_dir: str) -> str:
    """The store's recorded planner mode; 'balanced' for stores written
    before the mode existed (their codecs ARE balanced picks)."""
    mode = _store_record(out_dir).get("optimize", "balanced")
    return mode if mode in ("balanced", "size") else "balanced"


def _sample_picks(frags: list[FragmentRef]) -> list[FragmentRef]:
    """Up to ``PLAN_SAMPLE_FRAGS`` evenly spaced fragments (even below
    2 x that many, where a stride of 1 would sample only the head)."""
    n = len(frags)
    return [frags[i] for i in sorted({i * n // PLAN_SAMPLE_FRAGS
                                      for i in range(PLAN_SAMPLE_FRAGS)})]


def _sampled_plan(out_dir: str, frags: list[FragmentRef],
                  frag_bytes: dict[str, int], optimize: str,
                  stored: dict | None) -> CodecPlan:
    """The plan of the ``_sample_picks`` fragments. The store's
    ``stored`` plan is reused when its key (mode, and each pick's
    ``frag_hash``, file size and ``mtime_ns``) matches; otherwise
    ``build_shared_plan`` runs and its plan is recorded."""
    picks = _sample_picks(frags)
    key = [optimize]
    for f in picks:
        st = os.stat(f.path)
        key.append([f.frag_hash, st.st_size, st.st_mtime_ns])
    if stored and stored.get("key") == key:
        return CodecPlan.loads(stored["plan"])
    plan = build_shared_plan(picks, frag_bytes, optimize=optimize)
    record_store_optimize(out_dir, optimize,
                          {"key": key, "plan": plan.dumps()})
    return plan


def build_shared_plan(picks: list[FragmentRef],
                      frag_bytes: dict[str, int],
                      optimize: str = "balanced") -> CodecPlan:
    """Plan codecs once for the whole store from the sampled fragments
    ``picks``; ``EncodePartition`` plans per chunk only the columns left
    out.

    Motivation (round-5 profile): ``plan_from_stats`` costs ~40-55 ms per
    partition *even on tiny partitions* — FSST trial training plus Arrow
    IPC writer setup dominate — which at 10^6+ partitions is pure
    redundant work when the corpus is homogeneous. Each pick is planned
    by the per-chunk planner on its first ``PLAN_SAMPLE_ROWS`` rows (not
    on merged stats, whose interleaved sample hides a monotone column's
    order from the trial encodes). A column is kept only when every
    sampled fragment picked the same codec and kwargs, so a column whose
    regime drifts across the input stays per-chunk adaptive, and never
    as ``constant``: that is chunk-local evidence by definition. A plan
    can change size, never decoded values. ``frag_bytes`` comes from
    ``_read_footers``. The result is JSON-safe (``CodecPlan.dumps``);
    ``encode_job`` leaves out of it the columns with shared candidates.
    """
    items = [{"path": f.path, "row_group": f.row_group,
              "num_rows": f.num_rows, "row_start": f.row_start}
             for f in picks]

    def sample_plan(batch: pa.Table) -> list[str]:
        out = []
        for item in batch.to_pylist():
            t = read_fragment(item["path"], item["row_group"],
                              item["num_rows"], item["row_start"]
                              ).slice(0, PLAN_SAMPLE_ROWS)
            out.append(plan_from_stats(compute_stats_table(t), t.schema,
                                       optimize=optimize).dumps())
        return out

    # each sample task reads its fragment's whole row group; bounded:
    # one small JSON plan per sampled fragment
    plans = [p for run in _map_runs(sample_plan, items,
                                    [frag_bytes[f.frag_hash] for f in picks])
             for p in run]
    # sorted: the kept ColumnPlans (est_ratio) must not depend on task order
    first, *rest = [CodecPlan.loads(p) for p in sorted(plans)]

    def agreed(c: str, cp: ColumnPlan) -> bool:
        return cp.codec != "constant" and all(
            c in p.columns
            and (p.columns[c].codec, p.columns[c].kwargs)
            == (cp.codec, cp.kwargs) for p in rest)

    return CodecPlan({c: cp for c, cp in first.columns.items()
                      if agreed(c, cp)})


_RG_CACHE: dict[tuple, pa.Table] = {}
_RG_CACHE_BYTES = 0
_RG_CACHE_MAX = 64 << 20  # per worker process; 32 workers → ≤2 GiB heap
_RG_CACHE_LOCK = threading.Lock()  # created at import: lazy creation
# would itself race when two threads read fragments at once


_ENC_CACHE: dict[tuple, "EncodePartition"] = {}
_ENC_CACHE_MAX = 4  # concurrent jobs sharing one worker is the rare case


def _worker_encoder(out_dir, plan_ref, bloom_columns,
                    optimize="balanced") -> "EncodePartition":
    """Per-worker-process EncodePartition cache: Ray task workers are
    long-lived, so the broadcast is fetched once per worker, not per
    partition. Keyed by the plan ref's id, which is unique per job, so a
    re-run with a new broadcast can never reuse a stale encoder. Ray
    task workers are single-threaded; no lock needed."""
    key = (out_dir, str(plan_ref), tuple(bloom_columns or ()), optimize)
    enc = _ENC_CACHE.get(key)
    if enc is None:
        while len(_ENC_CACHE) >= _ENC_CACHE_MAX:
            _ENC_CACHE.pop(next(iter(_ENC_CACHE)))
        enc = EncodePartition(out_dir, plan_ref, bloom_columns=bloom_columns,
                              optimize=optimize)
        _ENC_CACHE[key] = enc
    return enc


# Work-sized task packing. A Ray task costs ~20 ms fixed (SCALE.md); to
# keep that under ~10% of a task's wall the task must carry >= 200 ms of
# work. The fastest per-byte consumer of a work item is chunk decode, at
# ~160 MB/s of chunk bytes per core (12.9 MB of CC chunks decode in
# 62-85 ms in one process on a shared 4-vCPU VM), so 200 ms x 160 MB/s
# ~= 32 MB. Encode (~60-80 MB/s of input bytes per core) then runs
# >= 0.4 s per task.
TASK_BYTES = 32 << 20
# An item never counts as less than this much work: opening a chunk and
# parsing its header costs ~0.8 ms even on a 50 KB chunk, which is
# ~128 KiB at the same 160 MB/s.
ITEM_BYTES = 128 << 10
# The record scan's work per task, in manifest records: a smaller store
# is read in one plain task, a larger one by the distributed scan.
TASK_RECORDS = 4096


def _cluster_cpus() -> int:
    try:
        import ray

        return int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        return 4


class _BlockRule:
    """Task count for a list of work items (one PARTITION each), as
    ``_dispatch_blocks(n_items, work_bytes)``: the runs of ``_map_runs``,
    or the blocks of a work-item Dataset, where ``map_batches(...,
    batch_size=1)`` calls the UDF once per item but Ray dispatches one
    TASK per block. It is sized by work, not items:
    ``ceil(work / TASK_BYTES)`` tasks, never fewer than the CPUs (no
    core idles) nor more than 8 per CPU (8 waves of dynamic load
    balancing absorb partition-size skew at scale; more tasks only add
    dispatch), and never more than the items. ``work`` is the items'
    byte total, floored at ``ITEM_BYTES`` per item. Both split the list
    into contiguous runs, so packed items keep their order, and manifest
    records, resume claims and verdicts stay strictly per-partition. A
    read sized as one block runs as the record scan's one task, with no
    streaming executor.

    The CPU count is the cluster's (a GCS query) unless ``cpus`` is set.
    Pickled, the rule carries the CPU count read where it is pickled: the
    record scan's task gets the driver's rule, read once per read, and
    makes no cluster query of its own."""

    def __init__(self, cpus: int | None = None):
        self.cpus = cpus

    def __call__(self, n_items: int, work_bytes: int) -> int:
        cpus = self.cpus or _cluster_cpus()
        work = max(work_bytes, n_items * ITEM_BYTES)
        return max(1, min(n_items, 8 * cpus,
                          max(cpus, -(-work // TASK_BYTES))))

    def __reduce__(self):
        return _BlockRule, (self.cpus or _cluster_cpus(),)


_dispatch_blocks = _BlockRule()


def _item_dataset(items: list[dict], work_bytes: int):
    """``ray.data.from_items`` over a work-item list, packed into
    ``_dispatch_blocks`` contiguous blocks."""
    import ray

    return ray.data.from_items(
        items, override_num_blocks=_dispatch_blocks(len(items), work_bytes))


def _run_items(fn, items: pa.Table) -> pa.Table:
    """``fn`` once per item, in item order, in one task (``_scan_one``),
    built into one output block by the builder ``map_batches`` uses for
    its own output blocks: outputs of different schemas (per-chunk
    decode under schema evolution without a target schema) are merged
    as ``map_batches`` merges them, with types promoted and missing
    columns null. No item gives a 0-column table."""
    from ray.data._internal.arrow_block import ArrowBlockBuilder

    block = ArrowBlockBuilder()
    for i in range(items.num_rows):
        block.add_block(fn(items.slice(i, 1)))
    return block.build()


def _items_block(fn, items: pa.Table):
    """(block metadata, block) of ``_run_items(fn, items)``: the two
    returns of a task whose block becomes a Dataset by ``_one_block``."""
    from ray.data._internal.util import get_table_block_metadata_schema

    out = _run_items(fn, items)
    return get_table_block_metadata_schema(out), out


def _one_block(ref, meta):
    """The materialized one-block Dataset over the table at ``ref`` whose
    block metadata (``get_table_block_metadata_schema``, computed where
    the table is) is ``meta``, built as ``ray.data.from_arrow_refs``
    builds it but with no task to compute the metadata, and with its
    plan's output already set, as ``ExecutionPlan.execute`` sets it for a
    source operator. So consuming it (``iter_batches``, ``take_all``,
    ``to_pandas``, ``to_arrow_refs``) hands out the block as it is and
    starts no streaming executor; operators chained onto it run as on
    any materialized Dataset. ``execute`` itself is not called: even with
    nothing to run it makes two cluster queries (free CPUs, spill
    stats)."""
    from ray.data import DataContext
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats
    from ray.data.dataset import MaterializedDataset

    plan = ExecutionPlan(
        DatasetStats(metadata={"FromArrow": [meta]}, parent=None),
        DataContext.get_current().copy())
    source = FromArrow([ref], [meta])
    ds = MaterializedDataset(plan, LogicalPlan(source, plan._context))
    # _in_stats now carries the dataset_uuid the Dataset was given
    plan._snapshot_bundle = source.output_data()[0]
    plan._snapshot_operator = source
    plan._snapshot_stats = plan._in_stats
    return ds


def _run_fn(fn, run: list[dict]):
    """``fn`` over one run of work items, given as one table."""
    return fn(pa.Table.from_pylist(run))


def _run_bounds(item_bytes: list[int]) -> list[int]:
    """Bounds of the ``_dispatch_blocks`` contiguous, non-empty runs of
    items whose work is ``item_bytes``, each floored at ``ITEM_BYTES``:
    run ``j`` of ``k`` ends at the first item where the work's prefix sum
    reaches ``j / k`` of the total. No item, no run."""
    n = len(item_bytes)
    k = min(n, _dispatch_blocks(n, sum(item_bytes)))
    prefix = np.cumsum(np.maximum(np.asarray(item_bytes, np.int64),
                                  ITEM_BYTES))
    bounds = [0]
    for j in range(1, k):
        c = int(np.searchsorted(prefix, prefix[-1] * j / k)) + 1
        # at least one item per run, and one left for each later run
        bounds.append(min(max(c, bounds[-1] + 1), n - (k - j)))
    return bounds + [n] if n else bounds


def _map_runs(fn, items: list[dict], item_bytes: list[int]) -> list:
    """``fn`` once per contiguous run of ``items``, each in one plain Ray
    task with no Dataset; returns ``fn``'s outputs in item order. There
    are ``_dispatch_blocks`` runs (``_run_bounds``), cut at the prefix
    sums of ``item_bytes``, the items' work, so a run of heavy items is
    not as long as a run of light ones. For driver jobs whose tasks
    return a few small rows. The first failed task's error raises here
    once the other tasks are cancelled or done, so none outlives the
    call. A broadcast ref must travel inside ``fn`` (a closure): Ray
    resolves a top-level ``ObjectRef`` argument, and each task would get
    its own copy."""
    import ray
    from ray.data._internal.remote_fn import cached_remote_fn

    task = cached_remote_fn(_run_fn, scheduling_strategy="SPREAD")
    bounds = _run_bounds(item_bytes)
    refs = [task.remote(fn, items[a:b]) for a, b in zip(bounds, bounds[1:])]
    try:
        return ray.get(refs)
    except BaseException:
        for ref in refs:
            ray.cancel(ref)
        # a task that began as it was cancelled runs on: wait it out
        ray.wait(refs, num_returns=len(refs), fetch_local=False)
        raise


def read_fragment(path: str, row_group: int, num_rows: int,
                  row_start: int = 0) -> pa.Table:
    """Read one fragment (row group, or a row slice of one).

    Parquet's decode unit is the row group, so a SLICED fragment
    (``max_rows_per_partition`` splitting) re-decodes the whole group per
    slice — 63 re-reads of the same 22 MB group at the bench's 40-row
    slicing, ~75% of the per-partition cost once planning is shared. A
    worker-process LRU keyed by (path, mtime, size, row_group) caches the
    decoded group ONLY when the fragment is a slice (whole-group
    fragments are read exactly once — caching them would only evict
    useful entries). Byte-bounded; groups larger than half the bound are
    never cached (real-scale groups can exceed the whole bound). Tables
    are immutable, so sharing one across slices is safe.
    """
    global _RG_CACHE_BYTES
    st = os.stat(path)
    key = (path, st.st_mtime_ns, st.st_size, row_group)
    with _RG_CACHE_LOCK:
        table = _RG_CACHE.get(key)
        if table is not None:
            # move-to-end = LRU refresh (dict preserves insertion order)
            del _RG_CACHE[key]
            _RG_CACHE[key] = table
    if table is None:
        table = pq.ParquetFile(path).read_row_group(row_group)
        sliced = row_start or num_rows < table.num_rows
        if sliced and table.nbytes <= _RG_CACHE_MAX // 2:
            with _RG_CACHE_LOCK:
                if key not in _RG_CACHE:  # idempotent: a concurrent read
                    # of the same group must not double-count the bytes
                    _RG_CACHE[key] = table
                    _RG_CACHE_BYTES += table.nbytes
                while _RG_CACHE_BYTES > _RG_CACHE_MAX and len(_RG_CACHE) > 1:
                    old_key = next(iter(_RG_CACHE))
                    if old_key == key:
                        break
                    _RG_CACHE_BYTES -= _RG_CACHE.pop(old_key).nbytes
    if row_start or num_rows < table.num_rows:
        table = table.slice(row_start, num_rows)
    return table


def list_fragments(paths: list[str] | str,
                   max_rows_per_partition: int | None = None
                   ) -> list[FragmentRef]:
    """Deterministic fragment list: files sorted, row groups in order.

    A row group larger than ``max_rows_per_partition`` is split into row
    slices so CPU parallelism survives single-row-group inputs (the
    slicing task re-reads its row group but encodes only its slice)."""
    return _read_footers(paths, max_rows_per_partition)[0]


def _input_files(paths: list[str] | str) -> list[str]:
    """The input's parquet files, sorted: a directory contributes its
    ``*.parquet`` entries, any other path itself."""
    if isinstance(paths, str):
        paths = [paths]
    files: list[str] = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(os.path.join(p, f) for f in os.listdir(p)
                         if f.endswith(".parquet"))
        else:
            files.append(p)
    return sorted(files)


def _read_footers(paths: list[str] | str,
                  max_rows_per_partition: int | None
                  ) -> tuple[list[FragmentRef], dict[str, pa.Schema],
                             dict[str, int]]:
    """``list_fragments`` plus what the same footer pass yields for free:
    {path: arrow schema} (shared-dict column discovery under schema
    evolution) and {frag_hash: work bytes} (the row group's uncompressed
    size, prorated for slices) for task sizing — callers must not pay a
    second sequential driver footer pass over 10^5 files."""
    frags: list[FragmentRef] = []
    schemas: dict[str, pa.Schema] = {}
    frag_bytes: dict[str, int] = {}
    for f in _input_files(paths):
        md = pq.read_metadata(f)
        schemas[f] = md.schema.to_arrow_schema()
        for rg in range(md.num_row_groups):
            n = md.row_group(rg).num_rows
            size = md.row_group(rg).total_byte_size
            if max_rows_per_partition and n > max_rows_per_partition:
                slices = [FragmentRef(f, rg,
                                      min(max_rows_per_partition, n - start),
                                      start)
                          for start in range(0, n, max_rows_per_partition)]
            else:
                slices = [FragmentRef(f, rg, n)]
            for fr in slices:
                frags.append(fr)
                frag_bytes[fr.frag_hash] = size * fr.num_rows // max(n, 1)
    return frags, schemas, frag_bytes


_ZONE_STR_TRUNC = 64  # keep manifest records small on long url/text columns


def _string_upper_bound(s: str, n: int = _ZONE_STR_TRUNC) -> str | None:
    """A ≤ n+1-char string guaranteed >= every string with prefix s[:n]:
    truncating a MAX directly would understate it (s[:n] < s), so the
    last incrementable code point of the kept prefix is bumped (skipping
    the surrogate range). None = cannot bound (prefix all at U+10FFFF) —
    the caller then stores no max and the chunk conservatively survives
    upper-bound checks."""
    if len(s) <= n:
        return s
    p = s[:n]
    for i in range(len(p) - 1, -1, -1):
        c = ord(p[i])
        if c < 0x10FFFF:
            nxt = c + 1
            if 0xD800 <= nxt <= 0xDFFF:
                nxt = 0xE000
            return p[:i] + chr(nxt)
    return None


def _zone_maps(table: pa.Table) -> dict[str, dict]:
    """Per-column min/max zone maps for the manifest (numeric, temporal
    and string columns; JSON-serializable). At read time, a chunk whose
    zone is disjoint from the query range is skipped WITHOUT being
    opened. String zones truncate to _ZONE_STR_TRUNC chars: a truncated
    MIN is already a valid lower bound; a truncated MAX is rounded UP
    via _string_upper_bound so pruning stays conservative."""
    import pyarrow.compute as pc

    out: dict[str, dict] = {}
    for name in table.column_names:
        t = table.schema.field(name).type
        col = table.column(name)
        if col.null_count == len(col):
            continue
        if pa.types.is_integer(t) or pa.types.is_floating(t):
            mm = pc.min_max(col)
            out[name] = {"min": mm["min"].as_py(), "max": mm["max"].as_py()}
        elif pa.types.is_timestamp(t):
            mm = pc.min_max(col)
            out[name] = {"min": str(mm["min"].as_py()),
                         "max": str(mm["max"].as_py()), "ts": True}
        elif pa.types.is_string(t) or pa.types.is_large_string(t):
            mm = pc.min_max(col)
            zmin = mm["min"].as_py()[:_ZONE_STR_TRUNC]
            zmax = _string_upper_bound(mm["max"].as_py())
            z: dict = {"min": zmin, "str": True}
            if zmax is not None:
                z["max"] = zmax
            out[name] = z
    return out


def zone_prune(out_dir: str, zone_filter: dict,
               recs: list | None = None) -> tuple[list, int]:
    """Manifest-level chunk pruning: returns (surviving records in input
    order, number skipped). ``zone_filter``: {col: (lo, hi)} inclusive
    range, or {col: [v1, v2, ...]} IN-list (a LIST is a value set, a
    TUPLE is a range); a chunk survives iff every filtered column's zone
    overlaps the range / contains a possible value (chunks without a
    zone map for the column conservatively survive)."""
    if recs is None:
        recs = effective_records(out_dir)
    keep, skipped = [], 0
    for rec in recs:
        if _zones_alive(rec.columns, zone_filter):
            keep.append(rec)
        else:
            skipped += 1
    return keep, skipped


def _zone_hits(z: dict, lo, hi) -> bool:
    # a string zone may lack "max" (upper bound not representable
    # after truncation) — that side then conservatively survives
    zmin, zmax = z.get("min"), z.get("max")
    if z.get("ts"):
        # zones store str(datetime) ('YYYY-MM-DD HH:MM:SS');
        # normalize ISO 'T' separators so lexical order holds
        lo = None if lo is None else str(lo).replace("T", " ")
        hi = None if hi is None else str(hi).replace("T", " ")
    try:
        return not ((hi is not None and zmin is not None and zmin > hi)
                    or (lo is not None and zmax is not None
                        and zmax < lo))
    except TypeError:
        raise ValueError(
            f"zone-filter bound ({lo!r}, {hi!r}) is not comparable "
            f"with the column's {type(zmin).__name__} zone "
            f"values") from None


def _zones_alive(columns: list, zone_filter: dict) -> bool:
    """One record's zone-map survival check — shared by ``zone_prune``
    and the distributed record scan (same logic runs inside its tasks
    there)."""
    zones = {c["name"]: c for c in columns}
    for col, bound in zone_filter.items():
        z = zones.get(col)
        if z is None or "min" not in z:
            continue
        try:
            if isinstance(bound, list):
                alive = any(_zone_hits(z, v, v) for v in bound
                            if v is not None)
            else:
                lo, hi = bound
                alive = _zone_hits(z, lo, hi)
        except ValueError as e:
            raise ValueError(f"column {col!r}: {e}") from None
        if not alive:
            return False
    return True


class EncodePartition:
    """Encodes one partition (row group) per work item.

    ``plan_ref`` is the encode job's one broadcast, fetched from the
    object store once in ``__init__``: the pair (sampled plan, shared
    candidates). A column the sampled plan (``build_shared_plan``) covers
    takes its codec when that codec can encode the chunk's type. Every
    other column, and every column without a ref, is planned from the
    chunk's own stats, with the column's shared candidates (a shared
    dictionary, a shared FSST table with and without post-zstd) tried
    next to its own; see ``plan_column``.

    Encode tasks build it once per worker process (``_worker_encoder``);
    compaction commits its merged chunks through ``commit`` too.
    """

    def __init__(self, out_dir: str, plan_ref=None, bloom_columns=None,
                 optimize: str = "balanced"):
        import ray

        self.out_dir = out_dir
        self.optimize = optimize
        self.bloom_columns = list(bloom_columns or [])
        self.plan, self.shared = (ray.get(plan_ref) if plan_ref is not None
                                  else (CodecPlan({}), {}))

    def _plan_for(self, table: pa.Table) -> CodecPlan:
        from ..codecs import get_codec

        cols: dict[str, ColumnPlan] = {}
        rest: list[str] = []
        for field in table.schema:
            cp = self.plan.columns.get(field.name)
            if cp is not None and get_codec(cp.codec).can_encode(field.type):
                cols[field.name] = cp
            else:
                rest.append(field.name)
        if rest:
            sub = table.select(rest)
            cols.update(plan_from_stats(compute_stats_table(sub), sub.schema,
                                        optimize=self.optimize,
                                        shared=self.shared).columns)
        return CodecPlan(cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.Table.from_pylist(
            [self._encode_one(item) for item in batch.to_pylist()])

    def _encode_one(self, item: dict) -> dict:
        t0 = time.time()
        frag = FragmentRef(item["path"], item["row_group"], item["num_rows"],
                           item.get("row_start", 0))
        table = read_fragment(frag.path, frag.row_group, frag.num_rows,
                              frag.row_start)
        rec = self.commit(item["partition_id"], asdict(frag), table, t0)
        return {
            "partition_id": rec.partition_id,
            "num_rows": table.num_rows,
            "input_bytes": table.nbytes,
            "chunk_bytes": rec.chunk_size,
            "wall_time_s": rec.wall_time_s,
            "codecs": ",".join(f"{c['name']}={c['codec']}" for c in rec.columns),
        }

    def commit(self, pid: str, fragment: dict, table: pa.Table,
               t0: float) -> PartitionRecord:
        """Plan, encode and commit ``table`` as partition ``pid``: write
        its chunk file atomically, then its manifest record (header
        columns plus the table's zone maps; wall time since ``t0``). The
        record is written last — its presence is the partition's
        commit."""
        bloom = ([c for c in self.bloom_columns if c in table.column_names]
                 if self.bloom_columns != ["auto"] else
                 [f.name for f in table.schema
                  if pa.types.is_string(f.type)
                  or pa.types.is_large_string(f.type)
                  or pa.types.is_integer(f.type)])
        blob, header = encode_table(table, self._plan_for(table),
                                    bloom_columns=bloom)
        chunk_file = os.path.join(shard_of(pid), f"part-{pid}.rde")
        write_atomic(os.path.join(self.out_dir, chunk_file), blob)
        zone = _zone_maps(table)
        rec = PartitionRecord(
            partition_id=pid,
            fragment=fragment,
            num_rows=table.num_rows,
            chunk_file=chunk_file,
            chunk_size=len(blob),
            columns=[
                {"name": c["name"], "codec": c["codec"], "size": c["size"],
                 "offset": c["offset"], "crc32": c["crc32"],
                 **zone.get(c["name"], {})}
                for c in header["columns"]
            ],
            wall_time_s=time.time() - t0,
        )
        write_record(self.out_dir, rec)
        return rec


def _shared_dictionaries(frags: list[FragmentRef],
                         file_schemas: dict[str, pa.Schema],
                         frag_bytes: dict[str, int],
                         columns: list[str] | str) -> dict[str, pa.Array]:
    """{column: its distinct values over the whole input} for the shared
    dictionary ``columns``, from ONE pass: a work item per row group of
    ``frags`` reads only the dictionary columns its file has (a file
    without a column adds nothing to it), and ``distinct_values`` merges
    them. ``"auto"`` takes every string column whose exact distinct
    non-null count is in (1, ``SHARED_DICT_MAX_CARD``], counted in the
    same pass: a batch ships at most ``SHARED_DICT_MAX_CARD + 1`` values
    of a column, enough to show it is past the cap. A string dictionary
    is ``pa.string()``, also for large_string input."""
    auto = columns == "auto"
    if auto:
        columns = sorted({fld.name for sch in file_schemas.values()
                          for fld in sch
                          if pa.types.is_string(fld.type)
                          or pa.types.is_large_string(fld.type)})
    rg_bytes: dict[tuple[str, int], int] = {}
    for f in frags:  # slices of one row group make one item
        key = (f.path, f.row_group)
        rg_bytes[key] = rg_bytes.get(key, 0) + frag_bytes[f.frag_hash]
    items = []
    for path, rg in rg_bytes:
        cols = [c for c in columns if c in file_schemas[path].names]
        if cols:
            items.append({"path": path, "row_group": rg, "columns": cols})
    if not items:
        return {}

    def read_columns(batch: pa.Table) -> pa.Table:
        [item] = batch.to_pylist()
        with pq.ParquetFile(item["path"]) as pf:
            return pf.read_row_group(item["row_group"],
                                     columns=item["columns"])

    # sized by whole row groups: the footers give no per-column sizes
    ds = _item_dataset(items, sum(rg_bytes.values())).map_batches(
        read_columns, batch_size=1, batch_format="pyarrow")
    values = distinct_values(
        ds, columns, batch_cap=SHARED_DICT_MAX_CARD if auto else None)
    return {c: v.cast(pa.string()) if pa.types.is_large_string(v.type)
            else v for c, v in values.items()
            if not auto or 1 < len(v) <= SHARED_DICT_MAX_CARD}


def encode_job(
    input_paths: list[str] | str,
    out_dir: str,
    *,
    resume: bool = True,
    shared_dict_columns: list[str] | str | None = None,
    shared_fsst_columns: list[str] | None = None,
    bloom_columns: list[str] | str | None = None,
    max_rows_per_partition: int | None = None,
    consolidate_manifest: bool = False,
    optimize: str | None = None,
) -> dict:
    """Run the full encode pipeline; returns a summary dict.

    ``optimize`` selects the planner frontier: ``"balanced"`` (default)
    weighs sampled ratio by measured encode cost; ``"size"`` scores on
    ratio alone and adds the zstd-19 archival candidate (~20-25% fewer
    bytes on CC text at ~100x the encode CPU of zstd-3 — for write-once
    stores whose decode path, unaffected, dominates their life). Resume
    records codec choices per partition, so resuming with a DIFFERENT
    mode re-encodes only the missing partitions under the new mode —
    completed partitions keep their recorded codecs (bit-identical
    decode either way). A resume that passes no mode keeps the store's
    recorded one, so a size store stays a size store.

    Codecs are chosen per column chunk from the chunk's own statistics,
    except that an input of more than ``PLAN_SAMPLE_FRAGS`` fragments
    (resumed ones count too, so a resume plans alike) first fixes the
    columns its sampled fragments agree on (``build_shared_plan``,
    listed in ``summary["shared_plan"]``). Below that the sample would
    read every fragment, so per-chunk planning costs no more. The sampled
    plan is recorded with the store (``record_store_optimize``); a resume
    whose sample picks are unchanged loads it instead of re-planning.

    ``shared_dict_columns`` (list, or "auto") builds one dictionary per
    column over the whole input, all in one pass; "auto" picks every
    string column with more than 1 and at most ``SHARED_DICT_MAX_CARD``
    distinct non-null values. ``shared_fsst_columns`` builds one FSST
    table per column from the sampled fragments. Such a column is
    planned per chunk, with its shared state as candidates that win only
    on a strictly lower score (``plan_column``); a column no input file
    has raises ``ValueError`` before any output is touched. Partitions
    encode as plain Ray tasks from one broadcast of the sampled plan and
    the shared candidates.

    ``bloom_columns`` (list, or "auto" = every string/integer column)
    writes per-chunk split-block Bloom filters so later equality scans
    prune chunks whose zone maps cannot (unsorted high-cardinality
    columns — url, external ids). See codecs.bloom.

    ``consolidate_manifest`` folds the per-partition JSON records into
    one parquet index after the job completes (the job end is
    single-writer by construction, so the offline-only constraint on
    ``manifest.consolidate`` holds) — at 10^6+ partitions every later
    resume/decode/verify then reads ONE file instead of one per
    partition. A killed job leaves plain JSONs and consolidates on the
    resumed run's completion.

    Ray must already be initialised by the caller (driver contract).
    """
    import ray

    from ..manifest import manifest_dir

    stored = _store_record(out_dir).get("sampled_plan") if resume else None
    if optimize is None:
        optimize = load_store_optimize(out_dir) if resume else "balanced"
    elif optimize not in ("balanced", "size"):
        # fail before any output is touched, not inside the first worker
        raise ValueError(f"unknown optimize mode: {optimize!r}")
    frags, file_schemas, frag_bytes = _read_footers(
        input_paths, max_rows_per_partition)
    if frags:
        named = list(shared_fsst_columns or [])
        if shared_dict_columns != "auto":
            named += list(shared_dict_columns or [])
        known = {n for sch in file_schemas.values() for n in sch.names}
        missing = sorted(set(named) - known)
        if missing:
            raise ValueError(f"shared columns in no input file: {missing}")

    # mark the output as a store up front — a legitimately-EMPTY encode
    # (zero input fragments) must still satisfy require_store so verify
    # passes vacuously-but-honestly instead of 'not an encoded store'
    os.makedirs(manifest_dir(out_dir), exist_ok=True)
    # compaction plans same-mode; the stored plan is keyed on the mode
    record_store_optimize(out_dir, optimize, stored)
    total = len(frags)
    # the job's one whole-manifest read: resume's input and, with this
    # job's work ids, the record count of its summary
    prior = load_manifest(out_dir)
    done: set[str] = set()
    if resume:
        # partition ids are content-addressed (FragmentRef.frag_hash), so
        # appending input files never shifts existing ids; a completed
        # partition is reusable iff its FULL recorded fragment matches
        # this run's fragment (guards hash/basename collisions too).
        # Compacted records cover SEVERAL source fragments — all of them
        # count as done while the merged chunk is intact.
        by_frag = {json.dumps(asdict(f), sort_keys=True): f.frag_hash
                   for f in frags}
        for rec in prior.values():
            if not is_complete(out_dir, rec):
                continue
            for src in rec.source_fragments:
                h = by_frag.get(json.dumps(src, sort_keys=True))
                if h is not None:
                    done.add(h)
    prior = set(prior)  # only the ids outlive the resume check
    work = [
        {"partition_id": f.frag_hash, "path": f.path, "row_group": f.row_group,
         "num_rows": f.num_rows, "row_start": f.row_start}
        for f in frags
        if f.frag_hash not in done
    ]
    shared = (_shared_dictionaries(frags, file_schemas, frag_bytes,
                                   shared_dict_columns)
              if work and shared_dict_columns else {})
    # shared state competes in the planner: each shared column keeps
    # per-chunk planning, with its dictionary and FSST table as candidates
    cands: dict[str, list] = {
        c: [("dict", "dict", {"values_codec": "plain", "dictionary": v})]
        for c, v in shared.items()}
    if work and shared_fsst_columns:
        from ..codecs.fsst import FsstCodec, FsstEncoder, sample_share, train

        # trained on the sampled fragments, not the whole input: each
        # pick's column bytes are cut to an equal share of the trainer's
        # sample as it is read, so the driver holds one pick at a time
        picks = _sample_picks(frags)
        shares: dict[str, list[bytes]] = {c: [] for c in shared_fsst_columns}
        for f in picks:
            sch = file_schemas[f.path]
            cols = [c for c in shared_fsst_columns if c in sch.names
                    and FsstCodec.can_encode(sch.field(c).type)]
            with pq.ParquetFile(f.path) as pf:
                t = pf.read_row_group(f.row_group, columns=cols).slice(
                    f.row_start, f.num_rows)
            for c in cols:
                shares[c].append(sample_share(t.column(c), len(picks)))
        for c, parts in shares.items():
            if parts:
                enc = FsstEncoder(train(b"".join(parts)))
                cands.setdefault(c, []).extend([
                    ("fsst", "fsst", {"encoder": enc}),
                    ("fsst+z", "fsst", {"encoder": enc, "post_zstd": True})])

    plan_obj = None
    if work and total > PLAN_SAMPLE_FRAGS:
        plan_obj = _sampled_plan(out_dir, frags, frag_bytes, optimize, stored)
    job_plan = {c: cp for c, cp in
                (plan_obj.columns if plan_obj is not None else {}).items()
                if c not in cands}
    plan_ref = (ray.put((CodecPlan(job_plan), cands))
                if job_plan or cands else None)

    # EncodePartition takes the sentinel as a list
    _bc = ["auto"] if bloom_columns == "auto" else bloom_columns

    def encode_run(run: pa.Table) -> tuple[int, int, int]:
        rows = _worker_encoder(out_dir, plan_ref, _bc, optimize)(run)
        return (sum(rows.column("input_bytes").to_pylist()),
                sum(rows.column("chunk_bytes").to_pylist()), rows.num_rows)

    # each task sums its own run, so per-partition rows never reach the
    # driver (there may be millions at full scale), only one row per task
    input_bytes = chunk_bytes = encoded_n = 0
    if work:
        input_bytes, chunk_bytes, encoded_n = map(sum, zip(*_map_runs(
            encode_run, work,
            [frag_bytes[w["partition_id"]] for w in work])))
    plan_note = {
        "partitions_total": total,
        "partitions_skipped_resume": len(done),
        "partitions_encoded": encoded_n,
        "input_bytes": input_bytes,
        "chunk_bytes": chunk_bytes,
        "ratio": round(chunk_bytes / input_bytes, 4) if input_bytes else None,
        "shared_dict_columns": sorted(shared),
        "shared_fsst_columns": sorted(shared_fsst_columns or []),
        "bloom_columns": ("auto" if bloom_columns == "auto"
                          else sorted(bloom_columns or [])),
        # the sampled plan's codec per column, for observability (None
        # when every column planned per chunk) — kwargs/dictionaries are
        # deliberately not serialized into the job summary
        "shared_plan": ({c: p.codec for c, p in plan_obj.columns.items()}
                        if plan_obj is not None else None),
        # every work item committed its record, or _map_runs raised
        "manifest_records": len(prior | {w["partition_id"] for w in work}),
    }
    if consolidate_manifest:
        from ..manifest import consolidate, manifest_dir

        # before job.json, so the on-disk summary records the result
        # too. An empty input (zero fragments) never created _manifest —
        # nothing to consolidate, and consolidate's not-a-store guard
        # must not kill an otherwise-successful empty job.
        plan_note["consolidated"] = (
            consolidate(out_dir) if os.path.isdir(manifest_dir(out_dir))
            else {"records_indexed": 0, "delta_files_removed": 0,
                  "sealed": False})
    write_atomic(
        os.path.join(out_dir, "_manifest", "job.json"),
        json.dumps(plan_note, indent=1).encode(),
    )
    return plan_note


def validate_zone_bounds(recs: list, zone_filter: dict) -> None:
    """Fail fast, before any chunk is read, for bounds a temporal column
    can't parse (e.g. CLI ts=2024,2025): the zone prune compares zone
    STRINGS lexically so such bounds slip through it and can lexically
    prune EVERY chunk — an empty result must not masquerade as success.
    Shared by the record scan's one task and the CLI scan-stats explain
    path (the explain must error exactly where the decode would)."""
    validate_zone_bounds_cols(
        {c["name"] for rec in recs for c in rec.columns if c.get("ts")},
        zone_filter)


def validate_zone_bounds_cols(ts_cols: set, zone_filter: dict) -> None:
    """Core of ``validate_zone_bounds`` over a pre-computed timestamp
    column-name set (the distributed record scan collects it inside its
    tasks)."""
    for col, bound in zone_filter.items():
        if col not in ts_cols:
            continue
        for v in bound:  # tuple range and IN-list both iterate values
            if v is None:
                continue
            try:
                pa.scalar(str(v)).cast(pa.timestamp("us"))
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                raise ValueError(
                    f"zone-filter bound {v!r} is not a full literal "
                    f"for timestamp column {col!r} (use e.g. "
                    f"2024-01-01T00:00:00)") from None


def bloom_reject_count(out_dir: str, recs: list, eq: dict) -> int:
    """Distributed count of chunks whose Bloom sections reject ``eq``
    ({col: value | [values]}) — header+filter bytes only, counted by
    plain Ray tasks over runs of the chunks (``_map_runs``). The shared
    observability probe for the CLI scan-stats command and the
    bloom_pruned_lookup query."""
    from ..encode import chunk_bloom_rejects

    if not recs:
        return 0
    items = [{"path": os.path.join(out_dir, r.chunk_file)} for r in recs]

    def probe(b: pa.Table) -> int:
        return sum(chunk_bloom_rejects(p, eq)
                   for p in b.column("path").to_pylist())

    return sum(_map_runs(probe, items, [r.chunk_size for r in recs]))


def require_store(out_dir: str) -> None:
    """Loud-fail guard for READ-ONLY store consumers (verify / decode /
    scan-stats): a typo'd path must not read as a healthy EMPTY store —
    verify would pass vacuously and decode would write an empty parquet.
    Same policy gc/store-stats/consolidate already enforce. Encode does
    NOT call this: a fresh out_dir is its normal starting state."""
    from ..manifest import manifest_dir

    if not os.path.isdir(manifest_dir(out_dir)):
        raise ValueError(
            f"{out_dir!r} is not an encoded store (no _manifest) — "
            f"refusing to treat it as empty")


def _preserve_order():
    """Scoped preserve_order=True: Datasets SNAPSHOT the DataContext at
    creation, so every Dataset built inside this context keeps its block
    order through the streaming executor, while later pipelines in the
    process are untouched (a leaked True degrades every subsequent
    pipeline's throughput — the reason this is a try/finally scope, now
    single-sourced instead of hand-rolled per call site)."""
    import contextlib

    import ray

    @contextlib.contextmanager
    def cm():
        ctx = ray.data.DataContext.get_current()
        prev = ctx.execution_options.preserve_order
        ctx.execution_options.preserve_order = True
        try:
            yield
        finally:
            ctx.execution_options.preserve_order = prev

    return cm()


# decode/verify work items, one per partition, from the record scan;
# sk_* is the input-order sort key (PartitionRecord.sort_key)
_ITEM_SCHEMA = pa.schema([
    ("partition_id", pa.string()), ("path", pa.string()),
    ("sources", pa.string()), ("num_rows", pa.int64()),
    ("sk_path", pa.string()), ("sk_rg", pa.int64()), ("sk_rs", pa.int64())])
# record-scan rows, one per (record, source fragment) claim on the
# ``fkey`` = (path, row_group) key. ``src`` is the index row group the
# record came from, -1 for a JSON record. Item columns after
# partition_id, and the in-task zone check (survival, ts-flagged filter
# columns, comparability error), are set on a record's first row only.
_SCAN_SCHEMA = pa.schema([
    ("fkey", pa.string()), ("first", pa.bool_()), ("merged", pa.bool_()),
    ("f_rs", pa.int64()), ("f_end", pa.int64()), ("src", pa.int64()),
    *_ITEM_SCHEMA, ("alive", pa.bool_()), ("zts", pa.string()),
    ("zerr", pa.string())])
# verify_job verdicts, one per partition: one schema whether or not an
# item failed, so one task's verdicts concatenate into one table
_VERDICT_SCHEMA = pa.schema([
    ("partition_id", pa.string()), ("ok", pa.bool_()), ("err", pa.string())])


def _work_item(out_dir: str, rec: PartitionRecord) -> dict:
    sk_path, sk_rg, sk_rs = rec.sort_key
    return {"partition_id": rec.partition_id,
            "path": os.path.join(out_dir, rec.chunk_file),
            "sources": json.dumps(rec.source_fragments),
            "num_rows": int(rec.num_rows),
            "sk_path": sk_path, "sk_rg": int(sk_rg), "sk_rs": int(sk_rs)}


def _pull(ds, cols: list[str], where) -> set[tuple]:
    """Distinct ``cols`` tuples over the rows ``where(batch)`` selects —
    deduplicated in-task, so only those values leave the cluster."""
    def distinct(b: pa.Table) -> pa.Table:
        return b.filter(where(b)).select(cols).group_by(cols).aggregate([])

    return {tuple(r[c] for c in cols) for r in
            ds.map_batches(distinct, batch_format="pyarrow").take_all()}


_B_SCHEMA = pa.schema([
    ("f0_key", pa.string()), ("f0_rs", pa.int64()),
    ("last_key", pa.string()), ("cm_end", pa.int64()),
    ("overlaps", pa.list_(pa.string()))])


def _overlap_keys(items) -> set:
    """The ``fkey`` values whose ``[f_rs, f_end)`` claims OVERLAP, over a
    Dataset with those three columns — found with no per-group Python: a
    distributed sort by (fkey, f_rs), a vectorized adjacent check per
    block (``start[i] < segment-cummax(end)[i-1]`` within a key), and ONE
    summary row per block stitched on the driver, so only true overlaps
    plus O(blocks) boundary facts ever leave the cluster.

    Boundary exactness without any execution-order assumption:
    ``batch_size=None`` makes each batch exactly one block (intra-block
    row order is intrinsic to the block, not to the streaming executor),
    blocks of a sorted dataset are disjoint consecutive ranges, and each
    summary row carries its block's own first (fkey, f_rs) — the driver
    re-sorts the summaries by that key, so arrival order is irrelevant.
    A key continuing into the next block can only overlap through that
    block's FIRST row: starts are sorted, so if the first row clears the
    running cross-block cummax(end), every later row of the key does
    too."""
    import pandas as pd

    def block_overlaps(b: pa.Table) -> pa.Table:
        n = b.num_rows
        if n == 0:
            return pa.Table.from_pylist([], schema=_B_SCHEMA)
        kv = b.column("fkey").to_pandas().to_numpy()
        rs = b.column("f_rs").to_numpy(zero_copy_only=False)
        en = b.column("f_end").to_numpy(zero_copy_only=False)
        new = np.empty(n, bool)
        new[0] = True
        new[1:] = kv[1:] != kv[:-1]
        seg = np.cumsum(new) - 1
        segcm = pd.Series(en).groupby(seg).cummax().to_numpy()
        hit = np.zeros(n, bool)
        hit[1:] = (~new[1:]) & (rs[1:] < segcm[:-1])
        return pa.Table.from_pylist([{
            "f0_key": kv[0], "f0_rs": int(rs[0]),
            "last_key": kv[-1], "cm_end": int(segcm[-1]),
            # true overlaps only — tiny
            "overlaps": sorted({str(k) for k in kv[hit]}),
        }], schema=_B_SCHEMA)

    summary = (items.sort(["fkey", "f_rs"])
               .map_batches(block_overlaps, batch_format="pyarrow",
                            batch_size=None)
               .take_all())
    out: set = set()
    last: tuple | None = None  # (key, running cummax end) across blocks
    # driver-side reorder by each block's own first sort key — blocks of
    # a sorted dataset are disjoint ranges, so this reconstructs dataset
    # order no matter how the executor emitted them
    for r in sorted(summary, key=lambda r: (r["f0_key"], r["f0_rs"])):
        out.update(r["overlaps"])
        if (last is not None and last[0] == r["f0_key"]
                and r["f0_rs"] < last[1]):
            out.add(r["f0_key"])
        if last is not None and last[0] == r["last_key"]:
            last = (r["last_key"], max(last[1], r["cm_end"]))
        else:
            last = (r["last_key"], r["cm_end"])
    return out


def _scan_one(out_dir: str, sources: list[dict], shortcut: bool,
              zone_filter: dict | None, columns: list[str], fn, blocks):
    """The record scan's one task: read every source's records (a later
    source wins a partition_id collision, as in ``load_manifest``),
    reconcile them (``effective_records``), check and apply
    ``zone_filter``, order them by ``sort_key``, and when they fit one
    block by ``blocks`` (the driver's ``_dispatch_blocks``, which carries
    the driver's CPU count) call ``fn`` on each item too, into one output
    block (``_run_items``). Returns (head, body): head is (ValueError
    message of the record phase, work bytes, the output block's metadata
    or None), body the output block when the head has its metadata, else
    the items."""
    try:
        recs = {r.partition_id: r for r in _records(out_dir, sources)}
        recs = (sorted(recs.values(), key=lambda r: r.sort_key) if shortcut
                else effective_records(out_dir, manifest=recs))
        if zone_filter:
            validate_zone_bounds(recs, zone_filter)
            recs, _ = zone_prune(out_dir, zone_filter, recs=recs)
    except ValueError as e:
        return (str(e), 0, None), None
    work = sum(r.chunk_size for r in recs)
    items = pa.Table.from_pylist([_work_item(out_dir, r) for r in recs],
                                 schema=_ITEM_SCHEMA).select(columns)
    if not recs or blocks(len(recs), work) == 1:
        meta, out = _items_block(fn, items)
        return (None, work, meta), out
    return (None, work, None), items


def _record_scan(out_dir: str, zone_filter: dict | None,
                 columns: list[str], fn):
    """THE work-item source of decode_dataset and verify_job: the
    per-batch UDF ``fn`` mapped, one item per call and in input order,
    over the ``_ITEM_SCHEMA`` ``columns`` of the effective records that
    survive ``zone_filter`` (unread columns cost ~0.4 ms per item). The
    driver names the sources without reading a record
    (``manifest._record_sources``); the tasks read them with the
    manifest's one reader (``manifest._records``). Below
    ``TASK_RECORDS`` estimated records one plain task (``_scan_one``)
    does the record work, and ``fn`` too when the survivors fit one
    block or are none; else the distributed scan runs, sized at ``TASK_RECORDS`` per task.
    Both raise a clean ``ValueError`` for a bad bound before any chunk
    is read. Returns (ObjectRef of ``fn``'s one output block, its block
    metadata) when the one task ran ``fn``, else a lazy Dataset.

    The distributed scan classifies exactly (vs ``effective_records``;
    see ``overlay_reconcile``): a record is CONTESTED iff some
    ``(path, row_group)`` key it claims has a merged claimant or two
    claims with overlapping row intervals (``_overlap_keys``, a
    distributed sort). Interval-disjoint claims — a store encoded with
    ``max_rows_per_partition`` — stay clean. Rows of a SEALED index never
    conflict with each other, so they enter the check only on keys a
    JSON record also claims. Contested records alone are read back
    (from their JSON file if one exists, else from the index row groups
    that hold them) and reconciled on the driver; the clean rest
    streams, and one distributed sort by ``sk_*`` restores input order.
    The shortcut skips all of that. ``zone_filter`` prunes inside the
    scan tasks, after classification (a pruned record still claims its
    intervals); the tasks also return the ts-flagged filter columns they
    saw and any bound-comparability error, for the driver to raise."""
    import pyarrow.compute as pc
    import ray
    from ray.data._internal.remote_fn import cached_remote_fn

    from ..manifest import (
        index_path,
        manifest_dir,
        overlay_reconcile,
        record_path,
    )

    require_store(out_dir)
    sources, sealed, shortcut, footer = _record_sources(out_dir)
    # the estimate: the index footer's row count plus the JSON dirs'
    # record dirents, sampled past 64 dirs
    dirs = [s["shard"] for s in sources if s["rg"] < 0]
    sample = dirs[::max(1, len(dirs) // 64)][:64]
    est = sum(sum(1 for _ in _json_records_in(d)) for d in sample)
    est = est * len(dirs) // max(1, len(sample)) + (
        footer.num_rows if footer else 0)
    footer = None  # ~2.5 KB per index row group: not held through the scan
    if est < TASK_RECORDS:
        head, body = cached_remote_fn(_scan_one, num_returns=2).remote(
            out_dir, sources, shortcut, zone_filter, columns, fn,
            _dispatch_blocks)
        err, work, meta = ray.get(head)
        if err is not None:
            raise ValueError(err)
        if meta is not None:
            return body, meta
        return _item_dataset(ray.get(body).to_pylist(), work).map_batches(
            fn, batch_size=1, batch_format="pyarrow")

    def zone_facts(zones: list) -> tuple:
        if not zone_filter:
            return True, None, None
        ts = "\x00".join(sorted(c["name"] for c in zones
                                if c.get("ts") and c["name"] in zone_filter))
        try:
            return _zones_alive(zones, zone_filter), ts or None, None
        except ValueError as e:
            return True, ts or None, str(e)

    def read_records(b: pa.Table) -> pa.Table:
        rows, carried = [], set()
        for rg, shard in zip(b.column("rg").to_pylist(),
                             b.column("shard").to_pylist()):
            for rec in _records(out_dir, [{"rg": rg, "shard": shard}]):
                alive, zts, zerr = zone_facts(rec.columns)
                if shortcut and not alive:
                    # nothing to classify: drop pruned records, keeping
                    # one carrier row per distinct zone fact
                    if (zts, zerr) in carried or not (zts or zerr):
                        continue
                    carried.add((zts, zerr))
                merged = "merged" in rec.fragment
                for i, fr in enumerate(rec.source_fragments):
                    rs = int(fr.get("row_start", 0))
                    rows.append({
                        "fkey": f"{fr['path']}\x00{fr['row_group']}",
                        "first": i == 0, "merged": merged, "f_rs": rs,
                        # a legacy fragment without num_rows claims its
                        # whole row group — same default as
                        # effective_records
                        "f_end": rs + int(fr.get("num_rows", 1 << 62)),
                        "src": rg, "partition_id": rec.partition_id,
                        **({**_work_item(out_dir, rec), "alive": alive,
                            "zts": zts, "zerr": zerr} if i == 0 else {})})
                    if shortcut:
                        break  # only the item row is needed
        return pa.Table.from_pylist(rows, schema=_SCAN_SCHEMA)

    scan = _item_dataset(
        sources, est * TASK_BYTES // TASK_RECORDS).map_batches(
            read_records, batch_format="pyarrow", batch_size=16)
    if not (shortcut and not zone_filter):
        scan = scan.materialize()

    contested: set = set()
    extra: list = []
    if not shortcut:
        json_keys = None
        if sealed:
            json_keys = pa.array(sorted(k for k, in _pull(
                scan, ["fkey"], lambda b: pc.less(b.column("src"), 0))),
                pa.string())

        def claims(b: pa.Table) -> pa.Table:
            if json_keys is not None:
                b = b.filter(pc.or_(
                    pc.less(b.column("src"), 0),
                    pc.is_in(b.column("fkey"), value_set=json_keys)))
            return b.select(["fkey", "f_rs", "f_end", "merged",
                             "partition_id", "src"])

        ds = scan.map_batches(claims, batch_format="pyarrow")
        keys = {k for k, in _pull(ds, ["fkey"],
                                  lambda b: b.column("merged"))}
        keys |= _overlap_keys(ds)
        if keys:
            key_arr = pa.array(sorted(keys), pa.string())
            hits = _pull(ds, ["partition_id", "src"],
                         lambda b: pc.is_in(b.column("fkey"),
                                            value_set=key_arr))
            contested = {pid for pid, _ in hits}
            in_json = {pid for pid, src in hits if src < 0}
            recs = []
            for pid in sorted(in_json):
                p = record_path(out_dir, pid)
                if not os.path.exists(p):  # the flat layout
                    p = os.path.join(manifest_dir(out_dir),
                                     f"part-{pid}.json")
                try:
                    with open(p) as f:
                        recs.append(PartitionRecord(**json.load(f)))
                except OSError as ex:
                    # parsed in the scan moments ago: a vanished file
                    # means a concurrent consolidate/compact/gc mutated
                    # the store — dropping it would lose rows
                    raise RuntimeError(
                        f"manifest record for contested partition {pid!r} "
                        f"disappeared during the record scan ({ex}); the "
                        "store was mutated concurrently — re-run the read "
                        "(or consolidate first)") from ex
            rgs = sorted({src for pid, src in hits
                          if src >= 0 and pid not in in_json})
            if rgs:
                for rec in _records(
                        out_dir, [{"rg": g, "shard": ""} for g in rgs],
                        read_index_metadata(index_path(out_dir))):
                    if (rec.partition_id in contested
                            and rec.partition_id not in in_json):
                        recs.append(rec)
            extra = overlay_reconcile(out_dir, recs)

    pid_arr = pa.array(sorted(contested), pa.string())

    def effective(b: pa.Table):
        return pc.and_(b.column("first"), pc.invert(pc.is_in(
            b.column("partition_id"), value_set=pid_arr)))

    if zone_filter:
        facts = _pull(scan, ["zts", "zerr"], effective)
        kept = []
        for rec in extra:
            alive, zts, zerr = zone_facts(rec.columns)
            facts.add((zts, zerr))
            if alive:
                kept.append(rec)
        extra = kept
        validate_zone_bounds_cols(
            {c for ts, _ in facts if ts for c in ts.split("\x00")},
            zone_filter)
        errs = sorted(e for _, e in facts if e)
        if errs:
            raise ValueError(errs[0])

    def clean_items(b: pa.Table) -> pa.Table:
        return b.filter(pc.and_(effective(b), b.column("alive"))).select(
            _ITEM_SCHEMA.names)

    items = scan.map_batches(clean_items, batch_format="pyarrow")
    if not shortcut:
        if extra:
            items = items.union(ray.data.from_arrow(pa.Table.from_pylist(
                [_work_item(out_dir, r) for r in extra],
                schema=_ITEM_SCHEMA)))
        items = items.sort(["sk_path", "sk_rg", "sk_rs"])
    return items.select_columns(columns).map_batches(
        fn, batch_size=1, batch_format="pyarrow")


def _zone_mask(table: pa.Table, zone_filter: dict) -> pa.Array:
    """Exact row mask of ``zone_filter`` ({col: (lo, hi)} inclusive range
    or {col: [v1, ...]} IN-list, ANDed) over ``table``; nulls never
    match. A filter column absent from ``table`` selects no row: under
    schema evolution a chunk written before the column existed has it
    all-null, and a null never satisfies a predicate."""
    import pyarrow.compute as pc

    mask = None
    for col, bound in zone_filter.items():
        if col not in table.column_names:
            return pa.array(np.zeros(table.num_rows, bool))
        c = table.column(col)

        def _bound(v):
            # bounds arrive as int/float/str from the CLI; cast to the
            # column type before comparing. A numeric-looking bound
            # against a temporal column (ts=2024,2025) passes the lexical
            # zone prune but must not crash the exact row filter — cast
            # its string form, and fail with a usable message if the type
            # can't parse it.
            if v is None:
                return None
            if pa.types.is_temporal(c.type):
                s = str(v)
                try:
                    return pa.scalar(s).cast(c.type)
                except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                    raise ValueError(
                        f"zone-filter bound {v!r} is not a full literal "
                        f"for column {col!r} of type {c.type} (use e.g. "
                        f"2024-01-01T00:00:00)") from None
            if isinstance(v, (int, float)):
                return v
            try:
                return pa.scalar(v).cast(c.type)
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                return v

        if isinstance(bound, list):
            # IN-list: exact membership (nulls never match). Cast per
            # value; one the column type can't represent (2.5 against
            # int64) simply never matches — SQL IN semantics, and the
            # same answer the bloom path gives — instead of an uncaught
            # lossy-cast error killing the read task.
            vals = []
            for v in bound:
                if v is None:
                    continue
                b_v = _bound(v)
                if isinstance(b_v, pa.Scalar):
                    b_v = b_v.as_py()
                try:
                    try:
                        conv = pa.array([b_v], type=c.type)[0]
                    except (pa.ArrowInvalid, pa.ArrowTypeError,
                            pa.ArrowNotImplementedError, TypeError):
                        conv = pa.array([b_v]).cast(c.type)[0]
                except (pa.ArrowInvalid, pa.ArrowTypeError,
                        pa.ArrowNotImplementedError, TypeError,
                        OverflowError):
                    continue  # unrepresentable: never present
                # typed construction is PERMISSIVE (2.5 → int64 silently
                # truncates to 2); only values that survive the round
                # trip can match
                if conv.as_py() == b_v:
                    vals.append(conv.as_py())
            m = pc.is_in(c, value_set=pa.array(vals, type=c.type))
        else:
            lo, hi = bound
            lo_c, hi_c = _bound(lo), _bound(hi)
            m = pc.and_kleene(
                pc.greater_equal(c, lo_c) if lo_c is not None
                else pc.is_valid(c),
                pc.less_equal(c, hi_c) if hi_c is not None
                else pc.is_valid(c))
        mask = m if mask is None else pc.and_kleene(mask, m)
    return pc.fill_null(mask, False)


def decode_dataset(out_dir: str, columns: list[str] | None = None,
                   zone_filter: dict | None = None,
                   schema: pa.Schema | None = None):
    """Ray Dataset over the encoded chunks → decoded Arrow rows (streaming).

    ``zone_filter`` {col: (lo, hi)} (inclusive range) or {col: [v1, ...]}
    (IN-list; a LIST is a value set, a TUPLE is a range) prunes whole
    chunks via manifest zone maps (skipped chunks are never opened), then
    applies the exact row filter to the surviving chunks. Equality and
    IN-list predicates additionally consult per-chunk Bloom filters
    inside the read tasks when the store was encoded with
    ``bloom_columns``.

    ``schema`` enables read-time schema evolution: decoded batches are
    aligned to the target (missing columns null-filled, types cast,
    column order normalized) — old chunks stay readable after the logical
    schema gains columns or widens types.

    Work items come from the record scan (``_record_scan``), which reads,
    reconciles and zone-prunes the manifest records in Ray tasks.

    A small read runs at call time: below ``TASK_RECORDS`` records, when
    the surviving chunks fit one block (``_dispatch_blocks``) or none
    survives, the one task that read the records decodes them all before
    this returns, into one block in item order, and computes the block's
    metadata too. The result is a finished one-block Dataset over that
    block (``_one_block``), made with no further Ray task: consuming it
    (``iter_batches``, ``take_all``, ``to_pandas``, ``to_arrow_refs``,
    ``count``) starts no streaming executor. Its errors, such as a
    typo'd projected column, raise from this call. Larger reads stay
    lazy and raise when consumed."""
    from ..encode import read_chunk_file

    # equality (lo == hi) and IN-list predicates additionally consult
    # the chunks' Bloom filters inside the read tasks: a chunk whose
    # filter rejects every candidate value skips its body at
    # header+filter I/O cost (codecs.bloom) — the pruning zone maps
    # can't do on unsorted high-cardinality columns
    def _eq_values(bound):
        if isinstance(bound, list):
            vs = [v for v in bound if v is not None]
            return vs or None
        lo, hi = bound
        return [lo] if lo is not None and lo == hi else None

    eq_prune = row_filter = None
    if zone_filter:
        eq_prune = {c: vs for c, b in zone_filter.items()
                    if (vs := _eq_values(b)) is not None} or None
        # the exact row filter runs inside the chunk reader: filter
        # columns decode first (even when the projection omits them),
        # then only the pages holding selected rows
        row_filter = (list(zone_filter),
                      functools.partial(_zone_mask, zone_filter=zone_filter))

    def decode_item(batch: pa.Table) -> pa.Table:
        tables = []
        for path in batch.column("path").to_pylist():
            # missing_ok only under read-time schema evolution: without
            # it a typo'd projected column fails loudly
            t = read_chunk_file(path, columns=columns,
                                missing_ok=schema is not None,
                                eq_prune=eq_prune, row_filter=row_filter)
            if schema is not None:
                from ..schema_infer import align_table

                t = align_table(t, schema)
            tables.append(t)
        return pa.concat_tables(tables)

    # decode is the ordering-sensitive pipeline (bit-identical round-trip
    # preserves input row order); Ray's streaming executor reorders output
    # blocks unless preserve_order is set — see _preserve_order
    with _preserve_order():
        out = _record_scan(out_dir, zone_filter, ["path"], decode_item)
        return _one_block(*out) if isinstance(out, tuple) else out


def cluster_job(input_paths: list[str] | str, out_dir: str,
                by: list[str], *, staging_dir: str | None = None,
                keep_staging: bool = True, **encode_kwargs) -> dict:
    """Sort-cluster then encode: a DISTRIBUTED ``Dataset.sort`` over the
    cluster columns, staged as parquet shards, then the normal
    ``encode_job`` — so the cluster columns' zone maps become disjoint
    across chunks and range/equality scans prune instead of opening
    everything (the scale path for predicate-heavy stores; pair with
    ``bloom_columns`` for the columns you did NOT cluster by).

    The staging parquet is the sort's materialization boundary; encode
    resume/content-addressing applies to the encode phase against that
    staging. A completed staging is REUSED on re-run (matched by a
    fingerprint of the inputs and sort keys written after the sort
    finishes), so a job killed mid-encode resumes against identical
    staging paths. When staging must be regenerated (first run, inputs
    or keys changed, staging deleted), any existing ``out_dir`` manifest
    is cleared first: Ray's parquet writer names shards per-execution,
    so records from a previous staging generation would never be claimed
    by resume and would DUPLICATE every row on decode.
    """
    import hashlib
    import shutil

    import ray

    paths = [input_paths] if isinstance(input_paths, str) else list(input_paths)
    # fingerprint includes mtime_ns: a same-size in-place rewrite of an
    # input must invalidate the staged sort, not silently reuse stale data
    fp = hashlib.sha1(json.dumps(
        {"by": list(by),
         "inputs": [(f, os.path.getsize(f), os.stat(f).st_mtime_ns)
                    for f in _input_files(paths)]},
        sort_keys=True).encode()).hexdigest()

    staged = staging_dir or (out_dir.rstrip("/") + "_staged")
    marker = os.path.join(staged, "_staging_complete.json")
    reuse = False
    if os.path.exists(marker):
        try:
            with open(marker) as f:
                reuse = json.load(f).get("fingerprint") == fp
        except (OSError, json.JSONDecodeError):
            reuse = False
    if not reuse:
        shutil.rmtree(staged, ignore_errors=True)
        shutil.rmtree(out_dir, ignore_errors=True)  # stale-generation records
        ray.data.read_parquet(paths).sort(by).write_parquet(staged)
        write_atomic(marker, json.dumps({"fingerprint": fp}).encode())
    summary = encode_job(staged, out_dir, **encode_kwargs)
    summary["clustered_by"] = list(by)
    if keep_staging:
        # staging is the store's recorded SOURCE: verify_job compares
        # chunks against it and encode resume re-reads it — keep it until
        # the store is verified (the default), then callers may delete
        summary["staging_dir"] = staged
    else:
        shutil.rmtree(staged, ignore_errors=True)
    return summary


def compact_job(out_dir: str, min_rows: int = 100_000,
                optimize: str | None = None) -> dict:
    """Merge runs of small chunks into bigger ones (manifest rewrite).

    Consecutive (input-order) chunks are greedily grouped until the group
    reaches ``min_rows``; each group decodes its member chunks, re-encodes
    the concatenation with a fresh codec plan, and commits ONE merged
    record whose ``fragment`` lists all covered source fragments — so
    verify/resume/decode-order keep working (resume marks every covered
    fragment done). Old records+chunks are deleted only after the merged
    chunk is durable; a crash mid-compaction leaves either the old or the
    new state valid. Merging runs distributed (one task per group).

    Merged chunks re-plan under the store's RECORDED planner mode (see
    ``record_store_optimize``) — compacting a size-optimized archival
    store must not silently re-encode its text back to balanced codecs.
    Pass ``optimize`` explicitly to override."""
    import hashlib

    import ray

    if optimize is None:
        optimize = load_store_optimize(out_dir)
    elif optimize not in ("balanced", "size"):
        raise ValueError(f"unknown optimize mode: {optimize!r}")

    recs = effective_records(out_dir)
    groups: list[list[PartitionRecord]] = []
    cur: list[PartitionRecord] = []
    cur_rows = 0
    for rec in recs:
        if rec.num_rows >= min_rows:
            if len(cur) > 1:
                groups.append(cur)
            cur, cur_rows = [], 0
            continue
        cur.append(rec)
        cur_rows += rec.num_rows
        if cur_rows >= min_rows:
            groups.append(cur)
            cur, cur_rows = [], 0
    if len(cur) > 1:
        groups.append(cur)
    groups = [g for g in groups if len(g) > 1]
    if not groups:
        return {"groups": 0, "chunks_before": len(recs),
                "chunks_after": len(recs)}

    items = [{"group": json.dumps([
        {"chunk": os.path.join(out_dir, r.chunk_file),
         "sources": r.source_fragments, "partition_id": r.partition_id}
        for r in g])} for g in groups]

    def merge(batch: pa.Table) -> list[dict]:
        out = []
        for gjson in batch.column("group").to_pylist():
            members = json.loads(gjson)
            t0 = time.time()
            tables = []
            sources: list[dict] = []
            bloom_cols: set[str] = set()
            for m in members:
                with open(m["chunk"], "rb") as f:
                    blob_in = f.read()
                hdr_base = read_chunk_header(blob_in)  # parsed ONCE
                tables.append(decode_table(blob_in, verify_crc=True,
                                           header_base=hdr_base))
                # preserve the members' bloom configuration: a column
                # bloomed in ANY member stays bloomed in the merged chunk
                bloom_cols.update(c["name"] for c in hdr_base[0]["columns"]
                                  if "bloom_offset" in c)
                sources.extend(m["sources"])
            merged = pa.concat_tables(tables).combine_chunks()
            # full paths: basename-only ids collide across same-named shards
            sid = ";".join(
                f"{s['path']}#rg{s['row_group']}"
                f"[{s.get('row_start', 0)}+{s['num_rows']}]" for s in sources)
            pid = hashlib.sha1(sid.encode()).hexdigest()[:16]
            EncodePartition(out_dir, bloom_columns=sorted(bloom_cols),
                            optimize=optimize).commit(
                pid, {"merged": sources}, merged, t0)
            out.append({"partition_id": pid, "merged_n": len(members),
                        "num_rows": merged.num_rows})
        return out

    results = [row for run in _map_runs(
        merge, items, [sum(r.chunk_size for r in g) for g in groups])
        for row in run]

    # all merged chunks durable → retire the old records (JSON delta or
    # consolidated-index resident) and chunk files
    from ..manifest import retire_records

    retire_records(out_dir, {r.partition_id for g in groups for r in g})
    for g in groups:
        for r in g:
            try:
                os.remove(os.path.join(out_dir, r.chunk_file))
            except OSError:
                pass
    return {"groups": len(groups),
            "chunks_before": len(recs),
            "chunks_after": len(recs) - sum(len(g) for g in groups) + len(groups),
            "merged": results}


def store_stats(out_dir: str) -> dict:
    """Store-level metrics from manifest records alone (no chunk reads):
    per-column codec distribution and encoded bytes, plus chunk/row
    totals and recorded encode wall time — the 'metrics' half of the
    north rule's per-partition lineage + metrics. Works on JSON-delta
    and consolidated-index manifests alike; for a keyed store, pass its
    live generation (``keyed_store.live_generation``)."""
    from ..manifest import manifest_dir

    if not os.path.isdir(manifest_dir(out_dir)):
        # same guard as gc/consolidate: a typo'd path must not read as a
        # healthy empty store
        raise ValueError(
            f"store-stats: {out_dir!r} has no _manifest — not an "
            f"encoded store")
    recs = effective_records(out_dir)
    cols: dict[str, dict] = {}
    for rec in recs:
        for c in rec.columns:
            st = cols.setdefault(c["name"],
                                 {"codecs": {}, "encoded_bytes": 0})
            st["codecs"][c["codec"]] = st["codecs"].get(c["codec"], 0) + 1
            st["encoded_bytes"] += int(c["size"])
    total_bytes = sum(r.chunk_size for r in recs)
    for st in cols.values():
        st["pct_of_store"] = round(100 * st["encoded_bytes"]
                                   / max(total_bytes, 1), 2)
        st["codecs"] = dict(sorted(st["codecs"].items()))
    return {"chunks": len(recs),
            "rows": sum(r.num_rows for r in recs),
            "chunk_bytes": total_bytes,
            "encode_wall_s": round(sum(r.wall_time_s for r in recs), 3),
            "columns": dict(sorted(cols.items()))}


def gc_job(out_dir: str, dry_run: bool = False) -> dict:
    """Reclaim orphaned bytes from an encoded store or a keyed store.

    Orphans arise from crash/rewrite windows, none of which affect READ
    correctness (``effective_records`` and the keyed pointer already
    keep the losers out of reads) but all of which strand bytes:

    * ``compact_job`` killed between committing merged records and
      retiring the old ones — the superseded plain records lose manifest
      reconciliation but their records + chunks stay on disk;
    * ``keyed_encode`` — each encode writes a fresh ``gen-N`` store and
      commits it by rewriting the ``_keyed.json`` pointer, so the
      previous generation, and a partial one from an encode killed
      before its commit, are named by no pointer;
    * torn ``write_atomic`` temps (``*.tmp.<pid>``) from a killed task.

    On a keyed store, deletes every ``gen-*`` directory the pointer does
    not name (its chunks and bytes count in ``chunks_deleted`` and
    ``bytes_reclaimed``), then sweeps the live generation as below.
    On an encoded store, deletes in order: manifest records that lost
    reconciliation, then every ``*.rde`` under ``out_dir`` no surviving
    record claims, every atomic-write temp, and now-empty shard dirs.
    OFFLINE operation: run with no concurrent writer — encode commits
    chunk bytes BEFORE the manifest record, so gc racing a live job
    would reclaim a chunk about to be committed.

    ``dry_run`` reports the same counts/bytes without deleting anything.
    """
    from ..manifest import manifest_dir, retire_records
    from .keyed_store import _pointer, live_generation

    if os.path.exists(_pointer(out_dir)):
        import shutil

        live_gen = live_generation(out_dir)
        res = gc_job(live_gen, dry_run)
        for name in sorted(os.listdir(out_dir)):
            p = os.path.join(out_dir, name)
            if ".tmp." in name:  # a torn pointer write
                res["tmps_deleted"] += 1
                res["bytes_reclaimed"] += os.path.getsize(p)
                if not dry_run:
                    os.remove(p)
            elif name.startswith("gen-") and p != live_gen:
                for root, _, files in os.walk(p):
                    for f in files:
                        res["chunks_deleted"] += f.endswith(".rde")
                        res["bytes_reclaimed"] += os.path.getsize(
                            os.path.join(root, f))
                if not dry_run:
                    shutil.rmtree(p)
        return res
    if not os.path.isdir(manifest_dir(out_dir)):
        raise ValueError(
            f"gc: {out_dir!r} has neither _manifest nor _keyed.json — "
            f"refusing to sweep a directory that is not an encoded store")

    # ONE manifest scan feeds both reconciliation and the stale set
    m = load_manifest(out_dir)
    eff = {r.partition_id for r in effective_records(out_dir, manifest=m)}
    live: set[str] = set()
    stale: set[str] = set()
    for pid, rec in m.items():
        if pid in eff:
            live.add(os.path.normpath(rec.chunk_file))
        else:
            # lost reconciliation (stale generation / torn merge): retire
            # the record; its chunk falls to the sweep below
            stale.add(pid)
    records_retired = (len(stale) if dry_run
                       else retire_records(out_dir, stale)) if stale else 0

    chunks_deleted = tmps_deleted = 0
    bytes_reclaimed = 0
    for root, dirs, files in os.walk(out_dir, topdown=False):
        for name in files:
            p = os.path.join(root, name)
            rel = os.path.normpath(os.path.relpath(p, out_dir))
            victim = None
            if ".tmp." in name:
                victim = "tmp"
            elif name.endswith(".rde") and rel not in live:
                victim = "chunk"
            if victim:
                try:
                    sz = os.path.getsize(p)
                    if not dry_run:
                        os.remove(p)
                except OSError:
                    continue
                bytes_reclaimed += sz
                if victim == "chunk":
                    chunks_deleted += 1
                else:
                    tmps_deleted += 1
        # drop shard dirs the sweep emptied
        if not dry_run and os.path.basename(root).startswith("shard-"):
            try:
                os.rmdir(root)
            except OSError:
                pass
    return {"chunks_deleted": chunks_deleted,
            "bytes_reclaimed": bytes_reclaimed,
            "records_retired": records_retired,
            "tmps_deleted": tmps_deleted,
            "chunks_live": len(live),
            "dry_run": dry_run}


def verify_job(out_dir: str) -> dict:
    """Distributed bit-identical verification: decode every chunk and compare
    against its recorded input fragment. Returns {partitions, ok, failed:[...]}.
    A keyed generation's chunk has no input fragment (``PKEY_PATH``): it
    is checked by its CRCs and its recorded row count.

    Work items come from the record scan, as for decode_dataset
    (``_record_scan``). Only FAILURES ever reach the driver — totals
    aggregate distributed. A read whose chunks fit the scan's one task
    returns its verdicts as one small table, with no materialize and no
    second pass.
    """

    def check(batch: pa.Table) -> pa.Table:
        out = []
        for item in batch.to_pylist():
            # a corrupt/unreadable chunk is a *verification failure*, not a
            # job crash — report it in `failed` with the reason
            try:
                with open(item["path"], "rb") as f:
                    blob = f.read()
                decoded = decode_table(blob, verify_crc=True)
                # bloom sections get the same bit-rot check as payloads
                # (a corrupt filter won't drop rows — _bloom_rejects
                # refuses to prune on CRC mismatch — but verify should
                # still surface it)
                hdr, base = read_chunk_header(blob)
                for c in hdr["columns"]:
                    if "bloom_offset" in c:
                        fb = blob[base + c["bloom_offset"]:
                                  base + c["bloom_offset"] + c["bloom_size"]]
                        if zlib.crc32(fb) != c["bloom_crc32"]:
                            raise IOError(
                                f"bloom CRC mismatch for column {c['name']}")
                sources = json.loads(item["sources"])
                if sources[0]["path"].startswith(PKEY_PATH):
                    # a keyed partition: no input file to compare with,
                    # so the CRCs above and the row count are the check
                    ok = decoded.num_rows == item["num_rows"]
                else:
                    original = pa.concat_tables([read_fragment(
                        src["path"], src["row_group"], src["num_rows"],
                        src.get("row_start", 0)) for src in sources])
                    ok = decoded.equals(original.cast(decoded.schema)
                                        .combine_chunks())
                err = None if ok else "decoded rows differ from source"
            except (ValueError, IOError, OSError, pa.ArrowInvalid) as e:
                ok, err = False, f"{type(e).__name__}: {e}"
            out.append({"partition_id": item["partition_id"], "ok": ok,
                        "err": err})
        return pa.Table.from_pylist(out, schema=_VERDICT_SCHEMA)

    import ray

    def only_failures(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.filter(pc.invert(b.column("ok").combine_chunks()))

    res = _record_scan(out_dir, None,
                       ["partition_id", "path", "sources", "num_rows"], check)
    if isinstance(res, tuple):
        # one task checked every item: its verdicts are one small table
        # (0 columns when the store has no partition)
        verdicts = ray.get(res[0])
        total = verdicts.num_rows
        bad = only_failures(verdicts).to_pylist() if total else []
    else:
        # materialize pins only the TINY verdict rows; the driver then
        # pulls failures alone (at 10^7 partitions a take_all of every
        # verdict is GBs of driver heap for a normally-empty answer)
        res = res.materialize()
        total = res.count()
        bad = res.map_batches(only_failures,
                              batch_format="pyarrow").take_all()
    failed = [{"partition_id": r["partition_id"], "err": r["err"]}
              for r in bad]
    return {"partitions": total, "ok": total - len(failed), "failed": failed}
