"""Codec auto-selection: per-column-chunk codec plan driven by the merged
statistics plus trial encodes on the stats sample (BASELINE.json: "auto-
selects and applies dictionary, RLE, FSST, bit-packing, or frame-of-
reference codecs per column chunk").

The selector always keeps "plain"/"zstd" in the candidate set, so a
lightweight codec is chosen only when it actually wins on the sampled
data (SURVEY.md §7.5: "auto-selection must include 'plain' as a
candidate"). Heavy-to-encode codecs (pure-Python FSST) carry a cost
weight so they are chosen only when their size win clears the extra
encode cost — a deliberately honest cost model for the sandbox, where
FSST has no C kernel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import pyarrow as pa

from .codecs import encode_array, get_codec
from .codecs.base import is_int_like
from .stats import ColumnStats

# encode-throughput penalty multipliers (relative to plain ≈ 1.0): a codec
# is picked only if size_ratio * weight is the minimum.
COST_WEIGHT = {
    "plain": 1.00,
    "zstd": 1.02,
    "zstd3": 1.04,  # zstd default level: ~95 MB/s on CC text (w=1+3.6/MBps)
    "forbp": 0.98,
    "delta": 0.98,
    "rle": 0.98,
    "dict": 1.00,
    "bss": 1.02,
    "alp": 1.04,    # 31-exponent sampled vote + full-pass round-trip check:
                    # a bit heavier than bss's byte shuffle, so it must win
                    # on size (it does, 1.2-5.9x, on decimal columns)
    "fsst": 1.35,   # pure-Python encoder: needs a real size win to justify
    "fsst+z": 1.40,
    "zstd19": 3.10,  # ~1.7 MB/s/core (w=1+3.6/MBps): a SIZE-mode pick —
                     # on CC text its balanced score (0.23*3.1) loses to
                     # zstd3 (0.30*1.04), so it is only even TRIED there
}

_FSST_MIN_PLAUSIBLE = 0.38  # empirical floor of fsst sampled ratios on text

_weights_resolved = False


def _resolve_weights() -> None:
    """With the native C FSST hot loop available, the cost penalty
    shrinks accordingly. Weights are re-derived from measured end-to-end
    encode throughput (train + encode, 60k-row CC columns, round 5 —
    table in BASELINE.md): fitting ``weight = 1 + k/MBps`` to the
    level-9 zstd anchor of the time (1.12 @ ~30 MB/s → k ≈ 3.6;
    cross-check: zstd ~250 MB/s → 1.014 ≈ its 1.02)
    puts native FSST — 71 MB/s on text after the 2-byte-prefix hot-loop
    rewrite, 2.2-2.4× the single-byte-bucket loop — at ~1.05."""
    global _weights_resolved
    if _weights_resolved:
        return
    _weights_resolved = True
    try:
        from .codecs._fsst_native import get_lib

        if get_lib() is not None:
            COST_WEIGHT["fsst"] = 1.05
            COST_WEIGHT["fsst+z"] = 1.08
    except Exception:
        pass


@dataclass
class ColumnPlan:
    column: str
    codec: str
    kwargs: dict = field(default_factory=dict)
    est_ratio: float = 1.0
    candidates: dict = field(default_factory=dict)  # codec → sampled ratio

    def to_json(self) -> dict:
        return {"column": self.column, "codec": self.codec, "kwargs": self.kwargs,
                "est_ratio": round(self.est_ratio, 4),
                "candidates": {k: round(v, 4) for k, v in self.candidates.items()}}


@dataclass
class CodecPlan:
    columns: dict[str, ColumnPlan]

    def codec_for(self, column: str) -> ColumnPlan:
        return self.columns.get(column) or ColumnPlan(column, "plain")

    def to_json(self) -> dict:
        return {c: p.to_json() for c, p in self.columns.items()}

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=1, sort_keys=True)

    @staticmethod
    def loads(s: str) -> "CodecPlan":
        raw = json.loads(s)
        cols = {
            c: ColumnPlan(c, v["codec"], v.get("kwargs", {}), v.get("est_ratio", 1.0),
                          v.get("candidates", {}))
            for c, v in raw.items()
        }
        return CodecPlan(cols)


def _candidates_for(t: pa.DataType, st: ColumnStats,
                    optimize: str = "balanced") -> list[tuple[str, str, dict]]:
    """(label, codec_name, kwargs) candidate triples."""
    # general-purpose points: the plain floor, zstd-1 and zstd-3. zstd6,
    # zstd9 and lz4 still decode but are never tried: over >3,100 column
    # plans (CC, sf0.01, stress) they won once, by ~15 bytes
    out: list[tuple[str, str, dict]] = [
        ("plain", "plain", {}), ("zstd", "zstd", {}), ("zstd3", "zstd3", {}),
    ]
    if optimize == "size":
        # the archival point — ~1.7 MB/s/core, so even its 64 KiB TRIAL
        # (~40 ms/column-chunk) is too expensive to run in balanced mode
        out.append(("zstd19", "zstd19", {}))
    string_like = (pa.types.is_string(t) or pa.types.is_large_string(t)
                   or pa.types.is_binary(t) or pa.types.is_large_binary(t))
    if is_int_like(t):
        out += [("forbp", "forbp", {}), ("delta", "delta", {})]
        if st.avg_run_len >= 2.0:
            out.append(("rle", "rle", {}))
        if st.cardinality and st.cardinality <= max(64, st.n * 0.01):
            out.append(("dict", "dict", {}))
    elif pa.types.is_floating(t):
        out.append(("bss", "bss", {}))
        out.append(("alp", "alp", {}))  # wins ~10-30x on decimal-valued doubles
        if st.avg_run_len >= 2.0:
            out.append(("rle", "rle", {}))
    elif string_like:
        card = st.cardinality
        if card and card <= st.n * 0.5:
            # dictionary; FSST on the dictionary values when they are
            # long-ish. char_bytes counts VALUE bytes only — nbytes also
            # includes offsets+validity (~4-8 B/row), which overstated
            # avg_len and mis-gated 12-byte values into the fsst branch
            n_valid = max(1, st.n - st.null_count)
            avg_len = ((st.char_bytes or st.nbytes) / n_valid) if st.n else 0
            vcodec = "fsst" if avg_len >= 16 and card >= 32 else "plain"
            out.append(("dict", "dict", {"values_codec": vcodec}))
        if st.avg_run_len >= 2.0 and not pa.types.is_binary(t) and not pa.types.is_large_binary(t):
            out.append(("rle", "rle", {}))
        if st.entropy < 7.0:  # compressible at all
            out.append(("fsst", "fsst", {}))
            out.append(("fsst+z", "fsst", {"post_zstd": True}))
    return out


TRIAL_SAMPLE_BYTES = 1 << 16  # 64 KiB cap per trial encode — keeps the
# planner O(codecs x 64KiB) per column chunk regardless of value sizes


def _sample_array(st: ColumnStats, t: pa.DataType) -> pa.Array | None:
    if not st.sample:
        return None
    vals, total = [], 0
    for v in st.sample:
        vals.append(v)
        total += len(v) if isinstance(v, (str, bytes)) else 8
        if total >= TRIAL_SAMPLE_BYTES:
            break
    try:
        return pa.array(vals, type=t)
    except (pa.ArrowInvalid, pa.ArrowTypeError, OverflowError):
        return None


def plan_column(st: ColumnStats, t: pa.DataType,
                optimize: str = "balanced",
                shared: list[tuple[str, str, dict]] | None = None
                ) -> ColumnPlan:
    """Pick a column chunk's codec by trial encodes on its stats sample.
    ``optimize="balanced"`` (default) scores candidates as
    ``sampled_ratio * COST_WEIGHT`` — the throughput-honest frontier of
    ``plain``, ``zstd`` and ``zstd3`` plus the type-specific codecs.
    ``optimize="size"`` scores on sampled ratio alone and adds the
    zstd-19 archival candidate: write-once / read-many stores trade
    ~100x encode CPU on the big text columns for ~20-25% fewer bytes.
    Decode is unaffected either way (the chunk header records the
    winning codec; readers never consult the mode). ``shared`` holds
    an encode job's (label, codec, kwargs) candidates carrying a shared
    dictionary or FSST table for this column; they are tried after the
    chunk's own candidates on the same sample and weights, so one wins
    only when it scores strictly lower. Columns the job's sampled plan
    covers never reach it."""
    if optimize not in ("balanced", "size"):
        raise ValueError(f"unknown optimize mode: {optimize!r}")
    n_valid = st.n - st.null_count
    sample = _sample_array(st, t)  # built ONCE; the constant path and the
    # trial loop share it
    if st.n and (n_valid == 0 or (st.cardinality <= 1 and len(st.kmv) > 0
                                  and st.null_count in (0, st.n))):
        # all-null or single-distinct-no-null chunk. len(kmv) > 0 is the
        # evidence check: hash-unsupported types (decimal, nested) leave
        # the KMV empty so cardinality reads 0.0 — without it a
        # non-constant column whose stride sample happened to be constant
        # planned 'constant', failed encode-time re-verification, and
        # fell back to UNCOMPRESSED plain every chunk
        try:
            if sample is not None and get_codec("constant").is_applicable(sample):
                return ColumnPlan(st.name, "constant", {}, 0.0, {"constant": 0.0})
        except Exception:
            pass
    if sample is None or len(sample) == 0:
        return ColumnPlan(st.name, "zstd", {}, 1.0, {})
    base = max(1, sample.nbytes)
    _resolve_weights()
    ratios: dict[str, float] = {}
    best_name, best_kwargs, best_ratio, best_score = "plain", {}, 1.0, float("inf")
    fsst_trial_enc = None  # trained at most once per column: the fsst and
    # fsst+z trials share one symbol table (byte-identical to each
    # training its own — same sample, deterministic trainer — but half
    # the training cost, which dominates string-column planning)
    def weight(label: str) -> float:
        return 1.0 if optimize == "size" else COST_WEIGHT[label]

    for label, name, kwargs in [*_candidates_for(t, st, optimize),
                                *(shared or [])]:
        codec = get_codec(name)
        if not codec.can_encode(t):
            continue
        if (name == "fsst" and ratios.get("zstd", 1.0)
                < _FSST_MIN_PLAUSIBLE * weight("fsst") / weight("zstd")):
            # skip the expensive trial only when zstd's score already
            # beats the best PLAUSIBLE fsst score. Weight-aware: with the
            # pure-Python encoder (weight 1.35) the cutoff is ~0.50, with
            # the native kernel (1.05 after _resolve_weights) ~0.39 — a
            # fixed 0.5 skipped trials native FSST would win
            continue
        try:
            trial_kwargs = dict(kwargs)
            if name == "fsst" and "encoder" not in kwargs:
                if fsst_trial_enc is None:
                    from .codecs.fsst import trial_encoder

                    fsst_trial_enc = trial_encoder(sample)
                trial_kwargs["encoder"] = fsst_trial_enc
            payload, _ = encode_array(sample, name, **trial_kwargs)
        except Exception:
            continue
        ratio = len(payload) / base
        ratios[label] = ratio
        score = ratio * weight(label)
        if score < best_score:
            best_name, best_kwargs, best_ratio, best_score = (
                name, kwargs, ratio, score)
    return ColumnPlan(st.name, best_name, best_kwargs, best_ratio, ratios)


def plan_from_stats(stats: dict[str, ColumnStats], schema: pa.Schema,
                    optimize: str = "balanced",
                    shared: dict[str, list] | None = None) -> CodecPlan:
    """``plan_column`` for every column of ``schema``; ``shared`` maps a
    column to its shared candidates."""
    cols = {}
    for name in schema.names:
        t = schema.field(name).type
        st = stats.get(name) or ColumnStats(name, str(t))
        cols[name] = plan_column(st, t, optimize=optimize,
                                 shared=(shared or {}).get(name))
    return CodecPlan(cols)
