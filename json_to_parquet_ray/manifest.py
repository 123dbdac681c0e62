"""Per-partition lineage manifest: checkpoint/resume for the encode job.

Every partition emits a lineage record — input fragment id (file path +
row group), codec choice per column, chunk offsets, checksums, row count
— written atomically (tmp + rename) to
``<out>/_manifest/shard-<h3>/part-<partition_id>.json`` (BASELINE.json:
"every partition emits a lineage record ... so a killed job resumes
without re-encoding completed partitions"). ``consolidate`` folds them
into one parquet index, ``<out>/_manifest/index.parquet``, that later
JSON records overlay.

One reader serves every consumer: ``_record_sources`` lists where the
records are without opening one, and ``_records`` reads any run of those
sources — on the driver (``load_manifest``, ``effective_records``,
``consolidate``, ``retire_records``) and in the record scan's Ray tasks
(``encode_job._record_scan``).

The reference has no checkpointing at all (SURVEY.md §4.1: a mid-write
crash leaves garbage and everything restarts); this module is the
superseding capability.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from dataclasses import asdict, dataclass, field


@dataclass
class FragmentRef:
    path: str
    row_group: int
    num_rows: int
    row_start: int = 0  # slice offset within the row group (0 = whole group)

    @property
    def fragment_id(self) -> str:
        return (f"{os.path.basename(self.path)}#rg{self.row_group}"
                f"[{self.row_start}+{self.num_rows}]")

    @property
    def frag_hash(self) -> str:
        """Stable content-addressed partition id. Appending input files can
        never shift another fragment's id (positional ids would force
        re-encoding every partition after a lexically-early append). The
        hash covers the FULL path: two shards named alike in different
        directories (the normal output of any sharded writer) must not
        collide — a basename-only id would let the second writer silently
        overwrite the first's chunk and manifest record in one run. The
        resume path additionally compares the full recorded fragment."""
        import hashlib

        full = (f"{self.path}#rg{self.row_group}"
                f"[{self.row_start}+{self.num_rows}]")
        return hashlib.sha1(full.encode()).hexdigest()[:16]

    @property
    def sort_key(self) -> tuple:
        """Deterministic input order (files lexical, row groups and slices
        in order) — recomputed from fragment identity at decode time, so
        output ordering is stable under appends."""
        return (self.path, self.row_group, self.row_start)


@dataclass
class PartitionRecord:
    partition_id: str                   # FragmentRef.frag_hash
    fragment: dict                      # FragmentRef asdict
    num_rows: int
    chunk_file: str                     # relative to out_dir
    chunk_size: int
    columns: list = field(default_factory=list)  # name, codec, size, crc32, offset
    wall_time_s: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @property
    def source_fragments(self) -> list[dict]:
        """The input fragments this chunk covers — one for a plain record,
        several for a compacted (merged) chunk."""
        if "merged" in self.fragment:
            return list(self.fragment["merged"])
        return [self.fragment]

    @property
    def sort_key(self) -> tuple:
        f = self.source_fragments[0]
        return (f["path"], f["row_group"], f.get("row_start", 0))


def shard_of(partition_id: str) -> str:
    """4096 hex-prefix shard dirs — keeps any one directory listable even
    at 10^7+ partitions (100 TB-scale runs)."""
    return f"shard-{partition_id[:3]}"


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def record_path(out_dir: str, partition_id: str) -> str:
    return os.path.join(manifest_dir(out_dir), shard_of(partition_id),
                        f"part-{partition_id}.json")


def write_record(out_dir: str, rec: PartitionRecord) -> None:
    """Atomic commit: the record only appears once the chunk file is durable."""
    write_atomic(record_path(out_dir, rec.partition_id),
                 rec.to_json().encode())


def write_atomic(path: str, data: bytes) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def index_path(out_dir: str) -> str:
    return os.path.join(manifest_dir(out_dir), "index.parquet")


def index_record(path: str, raw: str) -> PartitionRecord:
    """One 'json' row of index ``path`` as a record. An unparseable row
    raises — same loud-fail policy as the file-level read: the index is
    the SOLE copy of every covered record, so a skipped row would
    silently drop a partition from decode (rows vanish), verify (vacuous
    pass), and gc (live chunk swept as orphan)."""
    try:
        return PartitionRecord(**json.loads(raw))
    except (json.JSONDecodeError, TypeError) as e:
        raise ValueError(
            f"manifest index {path!r} contains an unparseable record "
            f"({e}); restore the index from a backup or delete it "
            f"EXPLICITLY to fall back to re-encoding") from e


def read_index_rows(path: str, row_groups: list[int] | None = None,
                    metadata=None) -> list[str]:
    """Read a consolidated index's 'json' rows — all of them, or those
    of ``row_groups`` in one read (``metadata``: the footer, when the
    caller has read it) — under ONE loud-fail policy shared by the main
    and keyed manifests: an index that exists but cannot be read must
    raise, never read as an empty store. After consolidation the index
    is the only copy of every covered record, so the torn-JSON policy
    (skip → re-encode) would silently present a populated store as
    empty — decode would return 0 rows, verify would pass vacuously, and
    gc would sweep every live chunk as unreferenced."""
    import pyarrow.parquet as pq

    try:
        with pq.ParquetFile(path, metadata=metadata) as pf:
            # batches of one index row group (write_index_file's 256):
            # Arrow holds one batch at a time, not the whole index
            return [raw for b in pf.iter_batches(
                        batch_size=256, row_groups=row_groups,
                        columns=["json"])
                    for raw in b.column("json").to_pylist()]
    except Exception as e:
        raise _unreadable_index(path, e) from e


def read_index_metadata(path: str):
    """An index's parquet footer (row count, row groups, the seal flag),
    under ``read_index_rows``' loud-fail policy."""
    import pyarrow.parquet as pq

    try:
        return pq.read_metadata(path)
    except Exception as e:
        raise _unreadable_index(path, e) from e


@functools.lru_cache(maxsize=1)
def _index_metadata(path: str, mtime_ns: int, size: int):
    """The last-read index footer, kept per worker process and keyed by
    index version. Footers cost ~2.5 KB per 256-record row group (the
    json column's min/max statistics), so at 10^7 records each is
    ~100 MB, while each scan task reads only a few row groups."""
    return read_index_metadata(path)


def _unreadable_index(path: str, e: Exception) -> ValueError:
    return ValueError(
        f"manifest index {path!r} exists but cannot be read ({e}); "
        f"restore it from a backup or delete it EXPLICITLY to fall "
        f"back to re-encoding the covered partitions")


def write_index_file(path: str, json_rows: list[str],
                     metadata: dict[str, str] | None = None) -> None:
    """THE index format (main and keyed manifests share it): one parquet
    'json' string column, committed through write_atomic (fsync before
    rename — the index may be the SOLE copy of every record, so an
    unsynced write_table + replace could leave a torn file after power
    loss). Small row groups are the read unit of the record scan
    (``encode_job._record_scan``): 256 records each."""
    import io

    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pa.table({"json": pa.array(json_rows, pa.string())})
    if metadata:
        t = t.replace_schema_metadata(metadata)
    buf = io.BytesIO()
    pq.write_table(t, buf, row_group_size=256)
    write_atomic(path, buf.getvalue())


def _write_index(out_dir: str, json_rows: list[str],
                 sealed: bool = False) -> None:
    """``sealed`` records (as parquet KV metadata) that the rows ARE the
    reconciled effective set — no overlapping claims, every merged
    record complete at write time — so readers may skip
    ``effective_records``'s interval resolution."""
    write_index_file(index_path(out_dir), json_rows,
                     {"sealed": "1" if sealed else "0"})


def _json_records_in(d: str):
    """The ``part-*.json`` dirents of directory ``d``; none when ``d``
    has vanished (a concurrent gc of an emptied shard) or is not a
    directory. Any other OSError propagates: swallowing it would
    silently drop every partition in the shard and let verify pass
    vacuously."""
    try:
        with os.scandir(d) as it:
            yield from (e for e in it if e.name.startswith("part-")
                        and e.name.endswith(".json"))
    except (FileNotFoundError, NotADirectoryError):
        return


def _record_sources(out_dir: str) -> tuple[list[dict], bool, bool, object]:
    """Where the records are, listed without opening one: ``(sources,
    sealed, shortcut, footer)``. Sources in read order, a later one
    winning a partition_id collision: the index's row groups
    (``{"rg": i, "shard": ""}``), then ``_manifest/`` itself (the flat
    layout) and the ``shard-*`` dirs that hold ``part-*.json`` records
    (``{"rg": -1, "shard": dir}``; consolidate leaves its shard dirs
    behind, emptied). ``sealed``: the index was written sealed.
    ``shortcut``: a sealed index and no JSON record, so the index rows
    are the effective set, in input order. ``footer``: the index's
    parquet footer, None without an index; an unreadable one raises."""
    mdir = manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return [], False, False, None
    ipath = index_path(out_dir)
    footer = read_index_metadata(ipath) if os.path.exists(ipath) else None
    sealed = footer is not None and (
        footer.metadata or {}).get(b"sealed") == b"1"
    dirs = [mdir] + [os.path.join(mdir, n) for n in sorted(os.listdir(mdir))
                     if n.startswith("shard-")]
    dirs = [d for d in dirs if next(_json_records_in(d), None) is not None]
    sources = [{"rg": rg, "shard": ""}
               for rg in range(footer.num_row_groups if footer else 0)]
    sources += [{"rg": -1, "shard": d} for d in dirs]
    return sources, sealed, sealed and not dirs, footer


def _records(out_dir: str, sources: list[dict], footer=None):
    """The records of ``sources`` (``_record_sources``), in order: each
    run of index row groups in one read, each directory's ``part-*.json``
    files by name. ``footer`` is the index's; without it (a scan task)
    the process's cached one is used. A torn JSON record is skipped (its
    partition re-encodes); an unreadable index, directory or JSON file
    and an unparseable index row raise."""
    ipath = index_path(out_dir)
    for in_index, run in itertools.groupby(sources, lambda s: s["rg"] >= 0):
        if in_index:
            if footer is None:
                st = os.stat(ipath)
                footer = _index_metadata(ipath, st.st_mtime_ns, st.st_size)
            for raw in read_index_rows(ipath, [s["rg"] for s in run],
                                       footer):
                yield index_record(ipath, raw)
            continue
        for s in run:
            for name in sorted(e.name for e in _json_records_in(s["shard"])):
                # open/read errors propagate: an unreadable-but-present
                # record is not "torn"
                with open(os.path.join(s["shard"], name)) as f:
                    raw = f.read()
                try:
                    rec = PartitionRecord(**json.loads(raw))
                except (json.JSONDecodeError, TypeError):
                    continue  # torn record → partition re-encodes
                yield rec


def overlay_reconcile(out_dir: str,
                      contested: list[PartitionRecord]) -> list:
    """Driver half of the distributed record scan: the exact
    ``effective_records`` reconciliation over the CONTESTED records the
    scan found, returning the chosen records to union with the clean
    survivors. The scan reads each contested record from its JSON file
    when one exists (a delta wins on a partition_id collision, as in
    ``load_manifest``), else from the index.

    Exactness: a record is contested iff some ``(path, row_group)`` key
    it claims has a merged claimant or two claims with overlapping row
    intervals (sealed-index rows join that check only on keys a JSON
    record also claims — a sealed index reconciles to itself, which is
    consolidate's seal condition). Reconciliation only ever rejects a
    record through such a key, so the global two-pass outcome equals
    ``effective_records(contested) ∪ clean``. One deliberate divergence
    from ``effective_records`` over the whole store: clean merged records
    are not ``is_complete``-checked (that would be one ``stat()`` per
    record — 10^7 of them); a chunk damaged after it was written fails
    loudly at decode (CRC/size).
    Pathology: a compaction touching most of the store degrades the
    contested set to the full store — at that shape run ``consolidate``."""
    return effective_records(
        out_dir, manifest={r.partition_id: r for r in contested})


def load_manifest(out_dir: str) -> dict[str, PartitionRecord]:
    """All records: every ``_record_sources`` source in order — the
    consolidated index (one parquet file, opened once) plus any newer
    per-partition JSON deltas, which win on partition-id collision.
    Without consolidation this is the original all-JSON layout."""
    sources, _, _, footer = _record_sources(out_dir)
    return {r.partition_id: r for r in _records(out_dir, sources, footer)}


def consolidate(out_dir: str) -> dict:
    """Compact the per-partition JSON records into ONE parquet index.

    ``load_manifest`` otherwise opens one JSON file per partition — at
    10^7 partitions (100 TB-scale stores) that is 10^7 driver file opens
    on EVERY resume/decode/verify. After consolidation the driver reads
    one parquet file; later encodes keep appending JSON deltas that
    overlay the index, and a re-consolidation folds them in.

    Crash-safe: the new index is committed atomically FIRST, then the
    covered JSON files are removed — a crash between the two leaves a
    record present in both, which load_manifest resolves by partition id
    (identical content, deltas win). Offline operation, like gc/compact.
    """
    if not os.path.isdir(manifest_dir(out_dir)):
        raise ValueError(
            f"consolidate: {out_dir!r} has no _manifest — not an encoded "
            f"store")
    sources, _, shortcut, footer = _record_sources(out_dir)
    if shortcut:
        # already consolidated and sealed with nothing to fold in: the
        # rewrite would provably change nothing — at 10^7 records that
        # no-op would be a multi-GB fsync'd rewrite on every resumed run
        return {"records_indexed": footer.num_rows,
                "delta_files_removed": 0, "sealed": True}
    recs = {r.partition_id: r for r in _records(out_dir, sources, footer)}
    if not recs:
        return {"records_indexed": 0, "delta_files_removed": 0,
                "sealed": False}
    # sealed iff reconciliation is a no-op for the indexed set (no
    # overlapping claims, merged records complete) — readers may then
    # skip interval resolution (see effective_records). Rows go in
    # input order so a streamed read preserves decode order.
    ordered = sorted(recs.values(), key=lambda r: r.sort_key)
    sealed = len(effective_records(out_dir, manifest=recs)) == len(recs)
    _write_index(out_dir, [r.to_json() for r in ordered], sealed=sealed)
    removed = 0
    for pid in recs:
        # both layouts: sharded (record_path) and flat legacy (directly
        # under _manifest/) — a survivor would be re-read as a delta and
        # unseal every subsequent load
        for p in (record_path(out_dir, pid),
                  os.path.join(manifest_dir(out_dir), f"part-{pid}.json")):
            try:
                os.remove(p)
                removed += 1
            except OSError:
                continue
    return {"records_indexed": len(ordered), "delta_files_removed": removed,
            "sealed": sealed}


def retire_records(out_dir: str, pids: set[str]) -> int:
    """Remove records by partition id, wherever they live — the JSON
    delta file, the consolidated index (one atomic rewrite for the whole
    batch), or both. Returns how many records existed and were removed."""
    gone: set[str] = set()
    for pid in pids:
        for p in (record_path(out_dir, pid),
                  os.path.join(manifest_dir(out_dir), f"part-{pid}.json")):
            try:
                os.remove(p)
                gone.add(pid)
            except OSError:
                continue
    sources, sealed, _, footer = _record_sources(out_dir)
    idx = {r.partition_id: r for r in _records(
        out_dir, [s for s in sources if s["rg"] >= 0], footer)}
    hit = pids & idx.keys()
    if hit:
        # retiring records never CREATES overlap, so the seal carries over
        keep = sorted((r for pid, r in idx.items() if pid not in hit),
                      key=lambda r: r.sort_key)
        _write_index(out_dir, [r.to_json() for r in keep], sealed=sealed)
        gone |= hit
    return len(gone)


def effective_records(out_dir: str,
                      manifest: dict[str, PartitionRecord] | None = None,
                      ) -> list[PartitionRecord]:
    """Manifest reconciliation: the records to READ, in input order, with
    overlap resolved. A crash between a compaction's merged-record commit
    and the retirement of the old records leaves a fragment covered by
    BOTH — decoding both would duplicate rows. Resolution: prefer merged
    records (they are newer by construction), accept a merged record only
    if it is complete and none of its fragments is already claimed, then
    accept plain records for still-unclaimed fragments.

    ``manifest`` lets a caller that already ran ``load_manifest`` skip a
    second full scan (10^7 file opens on an unconsolidated store).

    Fast path: a SEALED index with no JSON deltas skips the interval
    resolution entirely — `consolidate` seals only when the indexed set
    already reconciles to itself, and any later record arrives as a
    delta (which this check sees). A sealed merged record whose chunk
    was damaged AFTER sealing is still returned: its plain records were
    retired, so decoding fails loudly (CRC/size) instead of the rows
    silently vanishing."""
    if manifest is None:
        sources, _, shortcut, footer = _record_sources(out_dir)
        manifest = {r.partition_id: r
                    for r in _records(out_dir, sources, footer)}
        if shortcut:
            return sorted(manifest.values(), key=lambda r: r.sort_key)
    recs = sorted(manifest.values(), key=lambda r: r.sort_key)

    # claims are ROW-RANGE intervals per (path, row_group): two records
    # covering overlapping rows of the same row group must never both
    # decode (re-encoding a store with a different max_rows_per_partition
    # writes sliced records alongside stale whole-group ones — exact
    # fragment-dict claims would let both generations through and
    # silently duplicate every row)
    claimed: dict[tuple, list[tuple[int, int]]] = {}

    def intervals(rec: PartitionRecord) -> list:
        out = []
        for f in rec.source_fragments:
            s = int(f.get("row_start", 0))
            # a legacy record without num_rows claims its whole row group
            n = int(f.get("num_rows", 1 << 62))
            out.append(((f["path"], f["row_group"]), (s, s + n)))
        return out

    def conflicts(iv: list) -> bool:
        return any(s < ce and cs < e
                   for key, (s, e) in iv
                   for cs, ce in claimed.get(key, ()))

    chosen: list[PartitionRecord] = []
    for pass_merged in (True, False):
        pass_recs = [r for r in recs
                     if ("merged" in r.fragment) is pass_merged]
        if pass_merged:
            # A re-compaction produces a superset merged record M2 covering
            # an earlier M1 plus fillers whose plain records are already
            # retired. Both can share a sort_key, and dir-listing order is
            # arbitrary — if M1 were accepted first, M2 would be rejected
            # and the filler fragments silently dropped. Supersets first.
            pass_recs.sort(key=lambda r: (-len(r.source_fragments),
                                          r.sort_key))
        else:
            # on a sort_key tie (whole row group vs its first slice),
            # larger coverage wins so exactly one generation decodes; a
            # legacy record without num_rows claims its whole row group
            # (same default as intervals() above)
            pass_recs.sort(key=lambda r: (
                r.sort_key,
                -sum(int(f.get("num_rows", 1 << 62))
                     for f in r.source_fragments)))
        for rec in pass_recs:
            iv = intervals(rec)
            if conflicts(iv):
                continue
            if pass_merged and not is_complete(out_dir, rec):
                continue  # torn merged chunk → fall back to plain records
            for key, rng in iv:
                claimed.setdefault(key, []).append(rng)
            chosen.append(rec)
    return sorted(chosen, key=lambda r: r.sort_key)


def is_complete(out_dir: str, rec: PartitionRecord) -> bool:
    """A partition is complete iff its chunk file exists with the recorded size."""
    p = os.path.join(out_dir, rec.chunk_file)
    try:
        return os.path.getsize(p) == rec.chunk_size
    except OSError:
        return False
