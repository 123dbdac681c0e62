"""Per-column statistics: the partial-per-batch + final-merge aggregation
required by the north rule (BASELINE.json: "schema inference and per-column
statistics (cardinality, run-length, value-range, sample entropy) via
map_batches over zero-copy Arrow").

The reference's only "statistics" are the per-document peer walks for
nullability/type (JsonFactory.java:489-574); here statistics are mergeable
partials computed per Arrow batch inside ``map_batches`` and merged in one
tiny driver-side step — the canonical pre-aggregation pattern, so the wide
input is never shuffled for stats.

Cardinality uses a KMV (k-minimum-values) sketch over a deterministic
64-bit hash (``pandas.util.hash_array``, fixed key) — mergeable, bounded
memory, ~1/sqrt(k) relative error. String values hash through their
binary view (``binary_view``): pandas hashes a ``str`` by its UTF-8
bytes, so ``bytes`` objects give the same hash without decoding every
value into a ``str``. An attempted swap of the string path to
``poly_hash_binary`` was REVERTED: the vectorized gather moves ~70
bytes of memory traffic per input byte (5.5 s vs pandas' 0.45 s C
siphash on a 65k-row html column, measured quiet-box). Samples are
stride-based (every k-th row), so they are deterministic under Ray task
retries; a string or binary sample converts to Python only the values
the byte cap keeps.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

KMV_K = 2048
SAMPLE_CAP = 512  # sampled raw values kept per column for trial encodes
SAMPLE_BYTES_CAP = 128 * 1024  # hard byte cap so partials stay shippable


_POLY_P = np.uint64(0x100000001B3)             # FNV prime, mod 2^64
_POLY_SENTINEL = np.uint64(0xCBF29CE484222325)  # empty/null value hash
_POLY_MEGA = 4 << 20


def poly_hash_binary(arr: pa.Array) -> np.ndarray:
    """Vectorized 64-bit polynomial content hash per value.

    ``hash(v) = Σ (b_j + 1) · P^(L-1-j)  (mod 2^64)`` — a segment sum, so
    the whole array hashes with ``np.add.reduceat`` over byte-aligned
    chunks: O(total_bytes) with no per-value Python objects. Mega-values
    (> 4 MiB) would size the power table by their own length, so they
    hash via one C blake2b call each — a different hash family per size
    class is fine for partitioning keys. Used by
    ``text.fingerprint_batch_fast`` (hash family pinned: changing it
    would reshuffle dedup buckets); NOT used by the KMV sketch — for
    KMV, pandas' per-object C siphash is 12x faster on long values.
    """
    b = arr.cast(pa.large_binary())
    n = len(b)
    if n == 0:
        return np.zeros(0, np.uint64)
    offs = np.frombuffer(b.buffers()[1], np.int64, count=n + 1,
                         offset=b.offset * 8)
    data_buf = b.buffers()[2]
    data = (np.frombuffer(data_buf, np.uint8)[offs[0]:offs[-1]]
            if data_buf is not None else np.zeros(0, np.uint8))
    offs = offs - offs[0]
    lens = offs[1:] - offs[:-1]
    h = np.full(n, _POLY_SENTINEL)
    huge = np.flatnonzero(lens > _POLY_MEGA)
    for i in huge:
        dg = hashlib.blake2b(data[offs[i]:offs[i + 1]].tobytes(),
                             digest_size=8).digest()
        h[i] = np.uint64(int.from_bytes(dg, "little"))
    nz = np.flatnonzero((lens > 0) & (lens <= _POLY_MEGA))
    if len(nz):
        maxlen = int(lens[nz].max())
        pw = np.empty(maxlen, np.uint64)
        pw[0] = 1
        if maxlen > 1:
            pw[1:] = _POLY_P
            np.cumprod(pw, out=pw)  # P^0..P^(maxlen-1), uint64 wraparound
        # doc-aligned byte chunks bound the transient; an explicit GATHER
        # (not a contiguous slice) keeps excluded values' bytes — empty
        # or mega — out of the segments
        chunk = 1 << 22
        csum = np.concatenate([[0], np.cumsum(lens[nz])])
        pos = 0
        while pos < len(nz):
            end = int(np.searchsorted(csum, csum[pos] + chunk,
                                      side="right")) - 1
            end = min(max(end, pos + 1), len(nz))
            docs = nz[pos:end]
            dl = lens[docs]
            seg_starts = np.concatenate([[0], np.cumsum(dl)[:-1]])
            within = np.arange(int(dl.sum())) - np.repeat(seg_starts, dl)
            gidx = np.repeat(offs[docs], dl) + within
            sub = data[gidx].astype(np.uint64) + np.uint64(1)
            exps = np.repeat(dl, dl) - 1 - within
            h[docs] = np.add.reduceat(sub * pw[exps], seg_starts)
            pos = end
    return h


def _stable_hash(arr: pa.Array) -> np.ndarray:
    """Deterministic uint64 hash per value (nulls dropped)."""
    a = arr.drop_null()
    if len(a) == 0:
        return np.zeros(0, np.uint64)
    t = a.type
    if pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_temporal(t) or pa.types.is_boolean(t):
        np_vals = a.to_numpy(zero_copy_only=False)
        return pd.util.hash_array(np.ascontiguousarray(np_vals))
    if not (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        raise TypeError(f"no stable hash for nested type {t}")
    return pd.util.hash_array(binary_view(a).to_numpy(zero_copy_only=False),
                              categorize=False)


def binary_view(a: pa.Array) -> pa.Array:
    """``a`` with string values seen as binary (zero-copy), any other
    type as it is. pandas hashes a str by its UTF-8 bytes, so hashing
    the view's bytes objects gives the same hash without decoding every
    value into a str object."""
    if pa.types.is_string(a.type):
        return a.view(pa.binary())
    if pa.types.is_large_string(a.type):
        return a.view(pa.large_binary())
    return a


@dataclass
class ColumnStats:
    name: str
    type_str: str = ""
    n: int = 0
    null_count: int = 0
    nbytes: int = 0
    runs: int = 0                      # per-batch runs summed (upper bound on true runs)
    min_val: object = None
    max_val: object = None
    sorted_batches: int = 0
    total_batches: int = 0
    kmv: np.ndarray = field(default_factory=lambda: np.zeros(0, np.uint64))
    sample: list = field(default_factory=list)
    char_bytes: int = 0                # string/binary VALUE bytes only
                                       # (nbytes also counts offsets+validity)

    # ---------------------------------------------------------------- derived
    @property
    def cardinality(self) -> float:
        """Estimated global distinct count (KMV estimator)."""
        k = len(self.kmv)
        if k == 0:
            return 0.0
        if k < KMV_K:  # saw fewer than K distinct hashes → exact
            return float(k)
        kth = float(self.kmv[-1])
        return (KMV_K - 1) * (2.0**64) / kth

    @property
    def avg_run_len(self) -> float:
        return self.n / self.runs if self.runs else float(self.n or 1)

    @property
    def null_frac(self) -> float:
        return self.null_count / self.n if self.n else 0.0

    @property
    def sorted_frac(self) -> float:
        return self.sorted_batches / self.total_batches if self.total_batches else 0.0

    @property
    def entropy(self) -> float:
        """Shannon entropy (bits/byte) of the sampled values' bytes."""
        return entropy_of_bytes(_sample_bytes(self.sample))

    @property
    def value_range(self) -> object:
        if self.min_val is None or self.max_val is None:
            return None
        try:
            return self.max_val - self.min_val
        except TypeError:
            return None

    # ------------------------------------------------------------------ merge
    def merge(self, other: "ColumnStats") -> "ColumnStats":
        assert self.name == other.name
        out = ColumnStats(self.name, self.type_str or other.type_str)
        out.n = self.n + other.n
        out.null_count = self.null_count + other.null_count
        out.nbytes = self.nbytes + other.nbytes
        out.runs = self.runs + other.runs
        out.sorted_batches = self.sorted_batches + other.sorted_batches
        out.total_batches = self.total_batches + other.total_batches
        out.min_val = _merge_minmax(self.min_val, other.min_val, min)
        out.max_val = _merge_minmax(self.max_val, other.max_val, max)
        merged = np.unique(np.concatenate([self.kmv, other.kmv]))
        out.kmv = merged[:KMV_K]
        # INTERLEAVE the two samples before capping: first-wins
        # concatenation froze the global sample to the first batch's
        # values after one merge, so entropy/avg_len gates and trial
        # encodes only ever saw the earliest data (bad when the
        # distribution drifts across files). Deterministic given the
        # deterministic merge order.
        inter: list = []
        a, b = self.sample, other.sample
        for i in range(max(len(a), len(b))):
            if i < len(a):
                inter.append(a[i])
            if i < len(b):
                inter.append(b[i])
            if len(inter) >= SAMPLE_CAP:
                break
        out.sample = _cap_sample(inter[:SAMPLE_CAP])
        out.char_bytes = self.char_bytes + other.char_bytes
        return out

    def summary(self) -> dict:
        return {
            "column": self.name,
            "type": self.type_str,
            "n": self.n,
            "null_count": self.null_count,
            "nbytes": self.nbytes,
            "cardinality_est": round(self.cardinality, 1),
            "avg_run_len": round(self.avg_run_len, 2),
            "sorted_frac": round(self.sorted_frac, 3),
            "entropy_bits_per_byte": round(self.entropy, 3),
            "value_range": str(self.value_range),
        }


def _merge_minmax(a, b, f):
    if a is None:
        return b
    if b is None:
        return a
    try:
        return f(a, b)
    except TypeError:
        return a


def _sample_bytes(sample: list) -> bytes:
    parts = []
    for v in sample:
        if v is None:
            continue
        if isinstance(v, bytes):
            parts.append(v)
        else:
            parts.append(str(v).encode("utf-8", "replace"))
    return b"".join(parts)


def _is_orderable(t: pa.DataType) -> bool:
    return (pa.types.is_integer(t) or pa.types.is_floating(t)
            or pa.types.is_temporal(t) or pa.types.is_string(t)
            or pa.types.is_large_string(t) or pa.types.is_boolean(t))


def column_stats_partial(arr: pa.Array, name: str) -> ColumnStats:
    """One batch's partial stats for one column. Pure + deterministic."""
    st = ColumnStats(name, str(arr.type))
    st.n = len(arr)
    st.null_count = arr.null_count
    st.nbytes = arr.nbytes
    st.total_batches = 1
    if len(arr) == 0:
        return st
    # runs: count of value-change boundaries + 1 (vectorized).
    # Consecutive NULLS are ONE run: null/null comparisons previously
    # counted as boundaries, so a null-run-heavy column reported
    # avg_run_len ≈ 1 and never got RLE trial-encoded — exactly where
    # RLE wins biggest
    try:
        if len(arr) > 1:
            a1, a0 = arr.slice(1), arr.slice(0, len(arr) - 1)
            neq = pc.not_equal(a1, a0)  # null where either side is null
            both_null = pc.and_(pc.is_null(a1), pc.is_null(a0))
            one_null = pc.and_(pc.is_null(neq), pc.invert(both_null))
            st.runs = 1 + int(pc.sum(pc.fill_null(neq, False)).as_py() or 0) \
                + int(pc.sum(one_null).as_py() or 0)
        else:
            st.runs = 1
    except (pa.ArrowNotImplementedError, pa.ArrowInvalid):
        st.runs = len(arr)
    t = arr.type
    string_like = (pa.types.is_string(t) or pa.types.is_large_string(t)
                   or pa.types.is_binary(t) or pa.types.is_large_binary(t))
    if string_like:
        try:  # VALUE bytes (offsets/validity excluded) for avg-len gates
            st.char_bytes = int(
                pc.sum(pc.binary_length(arr)).as_py() or 0)
        except (pa.ArrowNotImplementedError, pa.ArrowInvalid):
            pass
    if _is_orderable(t):
        try:
            mm = pc.min_max(arr)
            st.min_val = _bound_stat_value(mm["min"].as_py())
            st.max_val = _bound_stat_value(mm["max"].as_py())
        except (pa.ArrowNotImplementedError, pa.ArrowInvalid):
            pass
        try:
            vals = arr.drop_null()
            # skip the O(n) elementwise comparison for every string-like
            # type (large_string previously paid it while string skipped,
            # giving inconsistent sorted_frac semantics per offset width)
            if len(vals) > 1 and not string_like:
                diffs_ok = pc.all(
                    pc.greater_equal(vals.slice(1), vals.slice(0, len(vals) - 1))
                ).as_py()
                st.sorted_batches = 1 if diffs_ok else 0
            elif len(vals) <= 1:
                st.sorted_batches = 1
        except (pa.ArrowNotImplementedError, pa.ArrowInvalid):
            pass
    try:
        hashes = np.unique(_stable_hash(arr))
        st.kmv = hashes[:KMV_K]
    except (TypeError, pa.ArrowNotImplementedError, pa.ArrowInvalid):
        pass
    stride = max(1, len(arr) // SAMPLE_CAP)
    picked = arr.take(pa.array(range(0, len(arr), stride)[:SAMPLE_CAP]))
    if string_like:
        # convert only what _cap_sample can keep: the first value, and
        # the values whose running byte total stays within the cap (a
        # null weighs 8 bytes, as in _est_bytes)
        sizes = pc.fill_null(pc.binary_length(picked), 8).to_numpy()
        keep = np.searchsorted(np.cumsum(sizes), SAMPLE_BYTES_CAP, "right")
        picked = picked.slice(0, max(int(keep), 1))
    st.sample = _cap_sample(picked.to_pylist())
    return st


_STAT_VALUE_CAP = 4096  # min/max strings are ADVISORY (zone maps compute
# their own bounds from the table) — a 10 MB value must not ride along in
# every pickled partial


def _bound_stat_value(v):
    if isinstance(v, (str, bytes)) and len(v) > _STAT_VALUE_CAP:
        return v[:_STAT_VALUE_CAP]
    return v


def _est_bytes(v) -> int:
    if isinstance(v, str):
        # UTF-8 bytes, not characters: CJK text under-counted by up to
        # 4x and let partials overshoot SAMPLE_BYTES_CAP ("hard byte
        # cap so partials stay shippable")
        return len(v.encode("utf-8", "surrogatepass"))
    if isinstance(v, bytes):
        return len(v)
    if isinstance(v, dict):
        # RECURSIVE weight: 8*len(v) undercounts a list of 100 KB strings
        # by ~10,000x and lets one row blow the byte cap into the
        # hundreds of MB
        return sum(_est_bytes(k) + _est_bytes(x) for k, x in v.items()) or 8
    if isinstance(v, (list, tuple)):
        return sum(_est_bytes(x) for x in v) or 8
    if hasattr(v, "nbytes"):  # numpy scalar/array
        return int(v.nbytes)
    return 8


def _shrink(v, budget: int):
    """A ≤ budget-byte stand-in for an oversized sample value, or None if
    the value can't be meaningfully truncated (the sample feeds trial
    encodes and entropy, where a representative prefix is fine)."""
    if isinstance(v, str):
        # truncate by BYTES; errors="ignore" drops a split trailing
        # multibyte char so the result stays valid utf-8
        return v.encode("utf-8", "surrogatepass")[:budget].decode(
            "utf-8", "ignore")
    if isinstance(v, bytes):
        return v[:budget]
    if isinstance(v, (list, tuple)):
        out, used = [], 0
        for x in v:
            bx = _est_bytes(x)
            if used + bx > budget:
                if isinstance(x, (str, bytes)) and budget > used:
                    out.append(x[:budget - used])
                break
            out.append(x)
            used += bx
        return tuple(out) if isinstance(v, tuple) else out
    return None


def _cap_sample(vals: list) -> list:
    """Byte-capped sample: stop BEFORE a value would blow the cap; a
    first value that alone exceeds the cap is truncated (or skipped if
    untruncatable) so one mega-row can never ship a multi-MB partial."""
    out, total = [], 0
    for v in vals:
        b = _est_bytes(v)
        if out and total + b > SAMPLE_BYTES_CAP:
            break
        if not out and b > SAMPLE_BYTES_CAP:
            v = _shrink(v, SAMPLE_BYTES_CAP)
            if v is None:
                continue
            b = SAMPLE_BYTES_CAP
        out.append(v)
        total += b
        if total >= SAMPLE_BYTES_CAP:
            break
    return out


# per-worker-process batch counters for sample_gate, one per job epoch so
# (a) a reused Ray worker process never carries a counter from a PREVIOUS
# stats job into this one, and (b) TWO stats jobs interleaving batches on
# the same worker each keep their own counter — a single shared slot would
# reset on every epoch flip and disable gating for both. Bounded at
# _GATE_MAX_EPOCHS (insertion-ordered eviction) so worker-lifetime growth
# stays O(1). Within one job, batch→worker assignment still varies run to
# run, so the raw-value sample is deterministic only in AGGREGATE
# GUARANTEES (every gate-th batch per worker, first kept) — exact stats
# (cardinality, min/max, runs) are unaffected; only the advisory sample
# varies.
_GATE_CTRS: dict = {}
_GATE_MAX_EPOCHS = 64


def stats_partial_batch(batch: pa.Table, columns: list[str] | None = None,
                        sample_gate: int = 1,
                        gate_epoch: str | None = None) -> pa.Table:
    """map_batches fn: emit one pickled partial per column (tiny output).

    ``sample_gate`` > 1 keeps the raw-value sample on exactly every
    gate-th batch THIS WORKER PROCESS sees (round-robin counter, first
    batch always kept) so the total partial volume stays bounded at
    extreme batch counts while cardinality/min-max/runs remain exact.
    A content hash is NOT used: on a near-constant column every batch
    hashes identically, so the gate would keep all samples or none."""
    cols = columns or batch.column_names
    keep_sample = True
    if sample_gate > 1 and batch.num_rows:
        k = _GATE_CTRS.pop(gate_epoch, 0)
        # delete+reinsert keeps dict insertion order = LRU order, so
        # eviction removes the LEAST-RECENTLY-TOUCHED epoch — a long job
        # still streaming batches is never evicted by newer jobs unless
        # >64 epochs are all more recent than its last batch
        _GATE_CTRS[gate_epoch] = k + 1
        while len(_GATE_CTRS) > _GATE_MAX_EPOCHS:
            stale = next(e for e in _GATE_CTRS if e != gate_epoch)
            del _GATE_CTRS[stale]
        keep_sample = (k % sample_gate) == 0
    partials = []
    for c in cols:
        st = column_stats_partial(_one_array(batch.column(c)), c)
        if not keep_sample:
            st.sample = []
        partials.append(pickle.dumps(st))
    return pa.table({"column": pa.array(cols, pa.string()),
                     "partial": pa.array(partials, pa.binary())})


def _one_array(col: pa.ChunkedArray) -> pa.Array:
    """``col`` as one array: its only chunk as it is (a zero-copy slice
    of the batch), else its chunks combined."""
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


def merge_partials(rows: list[bytes]) -> dict[str, ColumnStats]:
    merged: dict[str, ColumnStats] = {}
    for raw in rows:
        st = pickle.loads(raw)
        merged[st.name] = merged[st.name].merge(st) if st.name in merged else st
    return merged


def compute_stats(ds, columns: list[str] | None = None,
                  distributed_merge: bool = False,
                  sample_gate: int = 1,
                  batch_size: int = 4096) -> dict[str, ColumnStats]:
    """Distributed stats: map_batches partials → merge.

    Default: partials stream to a driver-side merge (fine up to ~10^5
    batches). ``distributed_merge=True`` adds a ``groupby(column)`` merge
    stage so the driver only ever sees one merged partial per column —
    the shape required at 10^12-document scale (pair with sample_gate).

    ``batch_size`` bounds both per-task heap (a 16k-row CC batch is
    ~260 MB of text — 4k rows ≈ 65 MB) and, more importantly,
    PARALLELISM: map_batches coalesces blocks up to batch_size, so an
    oversized value collapses a small job to a handful of tasks that no
    CPU count can speed up (measured: flat 4→16 CPUs at 16384, 2.8x at
    per-block batches on the same input). Partial merge is batch-layout
    invariant, so any size is correct.
    """
    import uuid

    epoch = uuid.uuid4().hex  # fresh per job: reused workers reset counters
    parts = ds.map_batches(
        lambda b: stats_partial_batch(b, columns, sample_gate, epoch),
        batch_format="pyarrow", batch_size=batch_size,
    )
    if distributed_merge:
        def merge_group(df: pd.DataFrame) -> pd.DataFrame:
            merged = merge_partials(list(df["partial"]))
            (name, st), = merged.items()
            return pd.DataFrame({"column": [name],
                                 "partial": [pickle.dumps(st)]})

        parts = parts.groupby("column").map_groups(merge_group,
                                                   batch_format="pandas")
    raws: list[bytes] = []
    for b in parts.iter_batches(batch_size=4096, batch_format="pyarrow"):
        raws.extend(b.column("partial").to_pylist())
    return merge_partials(raws)


def compute_stats_table(table: pa.Table, batch_rows: int = 65536) -> dict[str, ColumnStats]:
    """Local (non-Ray) variant for tests and per-partition planning."""
    merged: dict[str, ColumnStats] = {}
    for off in range(0, max(table.num_rows, 1), batch_rows):
        chunk = table.slice(off, batch_rows)
        for c in chunk.column_names:
            st = column_stats_partial(_one_array(chunk.column(c)), c)
            merged[c] = merged[c].merge(st) if c in merged else st
    return merged


def entropy_of_bytes(buf: bytes) -> float:
    if not buf:
        return 0.0
    counts = np.bincount(np.frombuffer(buf, np.uint8), minlength=256)
    p = counts[counts > 0] / len(buf)
    return float(-(p * np.log2(p)).sum())
