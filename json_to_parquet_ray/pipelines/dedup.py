"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Shapes follow the scale-first patterns from the build brief:

- exact: vectorized polynomial content hash inside ``map_batches`` →
  hash-partitioned ``groupby(hash)`` → exact-value dedupe per group
  (collision-safe). The shuffle moves only (hash, key) plus group rows.
- MinHash: signatures fully vectorized (rolling byte-shingle hashes +
  multiply-shift permutations + ``np.minimum.reduceat`` per document,
  pure per-doc — batch-layout invariant) → explode to (bkey, doc_id)
  band-bucket rows → ``groupby`` buckets → candidate pairs (object
  store) → exact Jaccard verify → clustering (driver union-find small,
  distributed min-label propagation large).
- SimHash: md5-low64 token hashes (exact DuckDB-oracle parity), 64-bit
  signatures; candidates via 4x16-bit band buckets (pigeonhole-exact
  recall for Hamming ≤ 3).

Candidate-pair verification and clustering run on the candidate set
only (bounded after banding; oversized buckets degrade to O(n) star
pairs for dedup connectivity, or emit all pairs for the exact listing
queries); the full corpus is never pairwise-compared.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# ------------------------------------------------------------------ exact


def add_content_hash(batch: pa.Table, col: str = "text",
                     out: str = "content_hash") -> pa.Table:
    """Vectorized 64-bit polynomial content hash (segment-sum reduceat;
    see text.fingerprint_batch_fast). Used as the shuffle partitioning
    key only — groups verify on the exact value, so a hash collision can
    never merge distinct texts."""
    from .text import fingerprint_batch_fast

    t = fingerprint_batch_fast(batch, col)
    return t.rename_columns([out if n == "fp_fnv" else n for n in t.column_names])


def _exact_partials(ds, col: str, key: str):
    """The rows ``exact_dedup`` shuffles: each batch's min-``key`` row per
    exact ``col`` value (a combiner, as ``paragraph_dedup`` counts per
    batch), with its content hash. A text repeated in every batch sends
    one row per batch into the shuffle, not one per copy."""
    def first_rows(b: pa.Table) -> pa.Table:
        b = b.take(pc.sort_indices(b, [(key, "ascending")]))
        first = (pa.table({"v": b.column(col),
                           "i": pa.array(np.arange(b.num_rows))})
                 .group_by("v").aggregate([("i", "min")]))
        return add_content_hash(
            b.take(np.sort(first.column("i_min").to_numpy())), col)

    return ds.map_batches(first_rows, batch_format="pyarrow")


def exact_dedup(ds, col: str = "text", key: str = "doc_id"):
    """Keep the min-``key`` row per distinct ``col`` value. Returns Dataset.

    Hash-partitioned shuffle on the vectorized content hash of each
    batch's distinct values (``_exact_partials``); the per-group step
    dedups on the exact ``col`` value (collision-safe)."""
    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(key).drop_duplicates(subset=col, keep="first")

    kept = _exact_partials(ds, col, key).groupby("content_hash").map_groups(
        keep_first, batch_format="pandas")
    return kept.drop_columns(["content_hash"])


# --------------------------------------------------------------- paragraph

PARA_SEP = "\n\n"


def _explode_paragraphs(texts, sep: str = PARA_SEP):
    """Split each text on ``sep`` → (flat paragraph array, list offsets).

    Vectorized: one Arrow ``split_pattern`` per batch; nulls read as ""
    (one empty paragraph), so every row owns >= 1 paragraph and the
    reduceat segments below are never empty."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    lst = pc.split_pattern(texts.cast(pa.large_string()).fill_null(""), sep)
    return pc.list_flatten(lst), lst.offsets.to_numpy()


def paragraph_dedup(ds, text_col: str = "text", key: str = "doc_id",
                    min_count: int = 2, sep: str = PARA_SEP):
    """Remove globally-duplicated paragraphs from every document
    (boilerplate removal, C4-style): any paragraph whose total occurrence
    count across the corpus (within-doc repeats included) reaches
    ``min_count`` is dropped from ALL documents; survivors are re-joined
    with ``sep`` in original order. Returns a Dataset of
    (key, text, n_removed).

    Scale shape — the corpus text is never shuffled:

    1. counting pass: per-batch partial (paragraph-hash → local count)
       tables via ``pa.Table.group_by`` (a combiner), then one TINY
       ``groupby(h).sum`` over the partials — the only exchange moves
       (int64, int64) rows, not text;
    2. the duplicated-hash set stays in the object store as the
       materialized filter Dataset's own blocks — the driver handles
       block REFS only; each rewrite worker fetches + sorts them once
       (cached per actor in ``__init__``);
    3. rewrite pass: membership via ``np.searchsorted`` against the
       sorted dup array, list rebuild + ``binary_join`` per batch — all
       Arrow/numpy kernels, no per-row Python.

    Duplicate detection keys on the 64-bit polynomial content hash
    (``stats.poly_hash_binary``): a cross-paragraph collision would
    remove a unique paragraph. P(any collision) ~ n^2/2^65 — negligible
    below ~10^8 distinct paragraphs per job; acceptable for boilerplate
    stripping (and the oracle corpus is collision-checked by being
    value-exact in DuckDB).
    """
    from ..stats import poly_hash_binary

    if min_count < 2:
        # every paragraph has count >= 1 — min_count 1 (a plausible typo
        # for "appears more than once") would silently blank the corpus
        raise ValueError(f"min_count must be >= 2, got {min_count}")

    def count_partial(b: pa.Table) -> pa.Table:
        flat, _ = _explode_paragraphs(b.column(text_col), sep)
        h = poly_hash_binary(flat).view(np.int64)
        g = (pa.table({"h": pa.array(h, pa.int64())})
             .group_by("h").aggregate([([], "count_all")]))
        return pa.table({"h": g.column("h"),
                         "cnt": g.column("count_all").cast(pa.int64())})

    counts = (ds.map_batches(count_partial, batch_format="pyarrow")
                .groupby("h").sum("cnt"))

    def only_dups(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t.column("sum(cnt)"), min_count))
        return t.select(["h"])

    dup_mat = (counts.map_batches(only_dups, batch_format="pyarrow")
                     .materialize())
    dup_refs = [r for bundle in dup_mat.iter_internal_ref_bundles()
                for r in bundle.block_refs]

    class Rewrite:
        def __init__(self, refs):
            import ray

            blocks = ray.get(list(refs))
            hs = [b.column("h").to_numpy(zero_copy_only=False).view(np.uint64)
                  for b in blocks if b.num_rows]
            self.dup = np.sort(np.concatenate(hs)) if hs else \
                np.zeros(0, np.uint64)

        def __call__(self, b: pa.Table) -> pa.Table:
            if b.num_rows == 0:
                return pa.table({key: b.column(key),
                                 "text": pa.array([], pa.large_string()),
                                 "n_removed": pa.array([], pa.int64())})
            flat, offs = _explode_paragraphs(b.column(text_col), sep)
            h = poly_hash_binary(flat)
            if len(self.dup) and len(h):
                pos = np.searchsorted(self.dup, h)
                np.clip(pos, 0, len(self.dup) - 1, out=pos)
                is_dup = self.dup[pos] == h
            else:
                is_dup = np.zeros(len(h), bool)
            kept = flat.filter(pa.array(~is_dup))
            removed = (np.add.reduceat(is_dup, offs[:-1]).astype(np.int64)
                       if len(h) else np.zeros(b.num_rows, np.int64))
            new_offs = np.concatenate(
                [[0], np.cumsum(np.diff(offs) - removed)])
            joined = pc.binary_join(
                pa.LargeListArray.from_arrays(
                    pa.array(new_offs, pa.int64()), kept),
                pa.scalar(sep, pa.large_string()))
            return pa.table({key: b.column(key), "text": joined,
                             "n_removed": pa.array(removed, pa.int64())})

    out = ds.map_batches(Rewrite, fn_constructor_args=(dup_refs,),
                         batch_format="pyarrow", concurrency=(1, 8))
    # pin the dup blocks' owner chain until the (lazy) result is consumed
    out._paragraph_dup_blocks = dup_mat
    return out


# ------------------------------------------------------------------ minhash

MINHASH_PERMS = 64
MINHASH_BANDS = 16  # 16 bands x 4 rows
SHINGLE = 5

_RNG = np.random.default_rng(0xC0FFEE)
_PERM_A = (_RNG.integers(1, 2**63, MINHASH_PERMS, dtype=np.int64).astype(np.uint64)
           | np.uint64(1))  # odd multipliers → multiply-shift universal hashing


def _byte_offsets(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    a = arr.fill_null("").cast(pa.large_binary())
    if isinstance(a, pa.ChunkedArray):
        a = a.combine_chunks()
    offs = np.frombuffer(a.buffers()[1], np.int64, count=len(a) + 1, offset=a.offset * 8)
    buf = a.buffers()[2]
    data = np.frombuffer(buf, np.uint8)[offs[0]:offs[-1]] if buf is not None else np.zeros(0, np.uint8)
    return data, offs - offs[0]


def _shingle_hashes(data: np.ndarray, offs: np.ndarray, k: int = SHINGLE):
    """Rolling k-byte shingle hashes over the concatenated buffer, compacted
    to positions that do NOT span a document boundary, so every signature is
    a pure function of its own document (batch-composition invariant).

    Returns (valid_hashes, per-doc reduceat starts into valid_hashes,
    per-doc valid-shingle counts)."""
    n = len(data)
    doc_lens = offs[1:] - offs[:-1]
    nshingles = np.maximum(doc_lens - (k - 1), 0)  # per-doc valid shingles
    if n == 0 or int(nshingles.sum()) == 0:
        return np.zeros(0, np.uint64), np.zeros(len(doc_lens), np.int64), nshingles
    h = np.zeros(n - k + 1, np.uint64)
    d64 = data.astype(np.uint64)
    for j in range(k):
        h = h * np.uint64(0x100000001B3) + d64[j : n - k + 1 + j]
    # mask out boundary-spanning positions: shingle at p crosses interior
    # boundary b iff b-k < p < b  →  difference-array range marking
    valid = np.ones(len(h), bool)
    bnd = offs[1:-1]
    if len(bnd):
        lo = np.maximum(bnd - (k - 1), 0)
        hi = np.minimum(bnd, len(h))
        delta = np.zeros(len(h) + 1, np.int32)
        np.add.at(delta, lo, 1)
        np.add.at(delta, hi, -1)
        valid = np.cumsum(delta[:-1]) == 0
    h_valid = h[valid]
    starts = np.concatenate([[0], np.cumsum(nshingles)[:-1]]).astype(np.int64)
    return h_valid, starts, nshingles


def minhash_signatures(arr: pa.Array, perms: int = MINHASH_PERMS,
                       k: int = SHINGLE) -> np.ndarray:
    """(num_docs, perms) uint64 signature matrix, fully vectorized.

    Pure per-document: a doc's signature never depends on batch neighbors.
    Docs shorter than the shingle width hash their whole content as one
    shingle; empty docs get the all-MAX sentinel signature."""
    data, offs = _byte_offsets(arr)
    ndocs = len(offs) - 1
    umax = np.iinfo(np.uint64).max
    sig = np.full((ndocs, perms), umax, np.uint64)
    h, starts, counts = _shingle_hashes(data, offs, k)
    if len(h):
        # reduceat ONLY over docs that have shingles: clipping empty
        # docs' starts to len(h)-1 would shear the final shingle off the
        # preceding doc's segment, making signatures depend on whether an
        # empty/short doc trails the batch (batch-layout dependence)
        has = counts > 0
        has_idx = np.flatnonzero(has)
        tstarts = starts[has]  # strictly increasing, all < len(h)
        for j in range(perms):
            hj = h * _PERM_A[j]  # multiply-shift; uint64 wraparound
            sig[has_idx, j] = np.minimum.reduceat(hj, tstarts)
    # short docs (0 < len < k): single shingle = FNV over the whole doc
    doc_lens = offs[1:] - offs[:-1]
    short = np.flatnonzero((doc_lens > 0) & (doc_lens < k))
    if len(short):
        hs = np.zeros(len(short), np.uint64)
        for j in range(k - 1):
            m = doc_lens[short] > j
            hs[m] = hs[m] * np.uint64(0x100000001B3) + data[offs[short[m]] + j]
        for j in range(perms):
            sig[short, j] = hs * _PERM_A[j]
    return sig


def minhash_band_rows(batch: pa.Table, col: str = "text", key: str = "doc_id",
                      bands: int = MINHASH_BANDS) -> pa.Table:
    """Explode each doc into (bkey, key) rows for the LSH bucket groupby.

    The band id is folded into the bucket hash up front so the shuffle
    moves exactly two int64 columns per row — half the bytes of carrying
    (band_id, band_hash) separately."""
    arr = batch.column(col).combine_chunks()
    keys = batch.column(key).to_numpy(zero_copy_only=False)
    sig = minhash_signatures(arr)
    r = MINHASH_PERMS // bands
    bkeys, out_keys = [], []
    for b in range(bands):
        block = sig[:, b * r : (b + 1) * r]
        bh = np.zeros(len(block), np.uint64)
        for c in range(r):
            bh = bh * np.uint64(0x9E3779B97F4A7C15) + block[:, c]
        bk = (bh * np.uint64(0x9E3779B97F4A7C15)) ^ (np.uint64(b) << np.uint64(56))
        bkeys.append(bk.astype(np.int64))
        out_keys.append(keys)
    return pa.table({
        "bkey": pa.array(np.concatenate(bkeys)),
        key: pa.array(np.concatenate(out_keys)),
    })


class _CandidateBlocks:
    """id → payload lookup over the blocks of one materialized filter pass
    (``_candidate_blocks``), the shape ``paragraph_dedup`` keeps its
    duplicate-hash set in: the candidate rows stay in the object store as
    the blocks the filter tasks wrote, and the driver holds only their
    refs. No driver copy, no actor, no shuffle, so the driver's cost does
    not grow with how much of the corpus is a candidate.

    Pickled into a task, the lookup carries the refs only. The first
    ``take`` there ``ray.get``s the blocks (zero-copy from the object
    store) and sorts their ids, once per task. The driver copy also keeps
    the materialized Dataset: a lazy result whose map function holds this
    lookup keeps the blocks alive until it is consumed."""

    def __init__(self, mat):
        self._mat = mat
        self.refs = [r for bundle in mat.iter_internal_ref_bundles()
                     for r in bundle.block_refs]
        self._index = None

    def _load(self):
        if self._index is None:
            import ray

            segs = [rb for block in ray.get(self.refs)
                    for rb in block.to_batches() if rb.num_rows]
            lens = np.array([rb.num_rows for rb in segs], np.int64)
            starts = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
            ids = (np.concatenate([rb.column(0).to_numpy() for rb in segs])
                   if segs else np.zeros(0, np.int64))
            pos = np.argsort(ids, kind="stable")
            self._index = (segs, starts, ids[pos], pos)
        return self._index

    def take(self, ids) -> pa.Array:
        """Payloads of ``ids``, in their order. An id held by several rows
        reads the last of them in block order; a missing id raises
        ``KeyError`` (a neighbour's payload would be a wrong answer)."""
        segs, starts, sid, pos = self._load()
        ids = np.asarray(ids, np.int64)
        i = np.searchsorted(sid, ids, side="right") - 1
        bad = (i < 0) | (sid[np.maximum(i, 0)] != ids) if len(sid) else \
            np.ones(len(ids), bool)
        if bad.any():
            raise KeyError(f"ids not among the candidate rows: "
                           f"{ids[bad][:5].tolist()}...")
        p = pos[i]
        seg = np.searchsorted(starts, p, side="right") - 1
        row = p - starts[seg]
        by_seg = np.argsort(seg, kind="stable")
        runs = np.split(by_seg, np.flatnonzero(np.diff(seg[by_seg])) + 1)
        got = pa.concat_arrays([segs[seg[r[0]]].column(1).take(row[r])
                                for r in runs])
        return got.take(np.argsort(by_seg))

    def __getstate__(self):
        return {"refs": self.refs}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._mat = None
        self._index = None


def _candidate_blocks(ds, cand_ids: list, key: str, col: str,
                      payload) -> _CandidateBlocks:
    """One filter pass over ``ds`` keeps the candidate rows as (id,
    ``payload(col values)``) and materializes them; the candidate-id set
    ships once via ``ray.put``. Returns the lookup over those blocks."""
    import ray

    ids_ref = ray.put(pa.array(cand_ids, pa.int64()))

    def fetch(b: pa.Table) -> pa.Table:
        sel = b.select([key, col]).filter(
            pc.is_in(b.column(key), value_set=ray.get(ids_ref)))
        return pa.table({"id": sel.column(key).cast(pa.int64()),
                         "payload": payload(sel.column(col))})

    return _CandidateBlocks(
        ds.map_batches(fetch, batch_format="pyarrow").materialize())


def _candidate_ids(ds, cols: list) -> list:
    """Distinct ids held in ``cols`` of ``ds`` (a candidate-pair Dataset's
    endpoints, or collision-bucket members): per-block vectorized unique
    → small driver set-union (bounded by docs in collision buckets, never
    by pairs). Shared by every dedup operator that fetches candidate
    payloads."""

    def distinct(b: pa.Table) -> pa.Table:
        u = np.unique(np.concatenate(
            [b.column(c).to_numpy(zero_copy_only=False) for c in cols]))
        return pa.table({"id": pa.array(u, pa.int64())})

    return sorted({r["id"] for r in ds.map_batches(
        distinct, batch_format="pyarrow").take_all()})


def _collision_rows(rows_ds, col: str):
    """Collision-bucket prefilter shared by every LSH operator: vectorized
    ``groupby(col).Count`` → distributed ≥2 filter → broadcast ``is_in``.
    Returns (hot_counts_df, filtered_ds); ``filtered_ds`` is None when no
    bucket has two members. Per-group Python downstream is then paid only
    for buckets that can actually produce a pair."""
    import ray
    from ray.data.aggregate import Count

    counts = rows_ds.groupby(col).aggregate(Count(alias_name="n"))
    hot = counts.map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("n"), 2)),
        batch_format="pyarrow").to_pandas()
    if not len(hot):
        return hot, None
    ref = ray.put(pa.array(hot[col].to_numpy()))
    filtered = rows_ds.map_batches(
        lambda b: b.filter(pc.is_in(b.column(col), value_set=ray.get(ref))),
        batch_format="pyarrow")
    return hot, filtered


def _shingle_set(a: str, k: int = SHINGLE) -> frozenset:
    return frozenset(a[i : i + k] for i in range(max(len(a) - k + 1, 1)))


def ngram_jaccard(a: str, b: str, k: int = SHINGLE) -> float:
    """Exact n-gram Jaccard similarity (the verify step for candidates)."""
    sa, sb = _shingle_set(a, k), _shingle_set(b, k)
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter) if (sa or sb) else 1.0


def _shingle_hash_array(t: str, k: int = SHINGLE) -> np.ndarray:
    """Sorted unique uint64 polynomial hashes of the CHARACTER k-shingles
    of ``t``, matching ``_shingle_set``'s windowing exactly (the
    max(len-k+1, 1) rule: short/empty docs yield one whole-string
    shingle). Hash equality stands in for string equality — 64-bit
    collisions between distinct shingles (~2^-64 per pair) are the only
    deviation from exact set semantics. Construction is one vectorized
    rolling hash over the codepoint array instead of len(t) Python string
    slices."""
    cp = np.frombuffer(t.encode("utf-32-le"), np.uint32).astype(np.uint64)
    n = len(cp)
    if n < k:  # one whole-string shingle (same scheme, fewer chars)
        h = 0xCBF29CE484222325
        for c in cp.tolist():
            h = (h * 0x100000001B3 + c) & 0xFFFFFFFFFFFFFFFF
        return np.array([h], np.uint64)
    m = n - k + 1
    h = np.full(m, 0xCBF29CE484222325, np.uint64)
    p = np.uint64(0x100000001B3)
    for j in range(k):
        h = h * p + cp[j:m + j]
    return np.unique(h)


def _verify_pairs_ds(ds, pairs_ds, col: str, key: str, threshold: float):
    """Distributed exact-Jaccard verification of a candidate-pair Dataset.

    The candidate texts (null read as "") come from ``ds`` through one
    filter pass into ``_CandidateBlocks``, so no text reaches the driver.
    Per task, each pair batch looks its uncached ids up in one ``take``
    and builds their sorted shingle-hash arrays (one vectorized rolling
    hash per doc, cached across batches); each pair's intersection is ONE
    ``searchsorted`` kernel — no per-pair Python set ops."""
    texts = _candidate_blocks(
        ds, _candidate_ids(pairs_ds, ["a", "b"]), key, col,
        lambda t: t.cast(pa.large_string()).fill_null(""))

    _cache: dict = {}
    _CACHE_CAP = 65_536  # hash arrays are doc-sized: an UNBOUNDED cache
    # in a task that sees every batch of a pathological-duplication pair
    # block would hold millions of them. FIFO eviction: pair blocks are
    # sorted-ish by id, so recent entries are the ones the next batch
    # reuses.

    def shingles(ids: list) -> dict:
        sh = {k: _cache[k] for k in ids if k in _cache}
        miss = [k for k in ids if k not in sh]
        if miss:
            for k, t in zip(miss, texts.take(miss).to_pylist()):
                if len(_cache) >= _CACHE_CAP:
                    _cache.pop(next(iter(_cache)))
                sh[k] = _cache[k] = _shingle_hash_array(t)
        return sh

    def check(batch: pd.DataFrame) -> pd.DataFrame:
        a_ids = batch["a"].to_numpy()
        b_ids = batch["b"].to_numpy()
        sh = shingles(np.unique(np.concatenate([a_ids, b_ids])).tolist())
        jac = np.empty(len(a_ids), np.float64)
        for i, (a, b) in enumerate(zip(a_ids.tolist(), b_ids.tolist())):
            sa, sb = sh[a], sh[b]
            if len(sa) > len(sb):  # binary-search the smaller set
                sa, sb = sb, sa
            pos = np.searchsorted(sb, sa)
            ok = pos < len(sb)
            inter = int(np.count_nonzero(sb[pos[ok]] == sa[ok]))
            jac[i] = inter / (len(sa) + len(sb) - inter)  # union ≥ 1
        hit = jac >= threshold
        return pd.DataFrame({"a": pd.Series(a_ids[hit], dtype="int64"),
                             "b": pd.Series(b_ids[hit], dtype="int64"),
                             "jaccard": pd.Series(jac[hit],
                                                  dtype="float64")})

    return pairs_ds.map_batches(check, batch_format="pandas", batch_size=8192)


def ngram_jaccard_pairs(ds, col: str = "text", key: str = "doc_id",
                        threshold: float = 0.5):
    """Verified (a, b, jaccard) pairs: MinHash-LSH candidates → exact
    n-gram Jaccard ≥ threshold. The standalone n-gram-Jaccard operator.

    Returns a DATASET — candidate pairs and texts stay in the object store
    through verification (``_verify_pairs_ds``; the text blocks live as
    long as the returned lazy Dataset), and the verified pair list itself
    never lands on the driver either (on a mirror-heavy crawl even the
    TRUE pair list can exceed driver heap). Cross-band duplicate pairs
    are dropped by a bucketed shuffle on ``a`` (one vectorized
    ``drop_duplicates`` per hash bucket, never per pair); ``jaccard`` is
    floored to 6 decimals for stable cross-engine comparison."""
    import ray

    bands = ds.map_batches(
        lambda b: minhash_band_rows(b, col, key), batch_format="pyarrow"
    )
    pairs_ds = _lsh_candidate_pairs_ds(bands, key, oversize="all").materialize()
    empty = pd.DataFrame({"a": pd.Series([], dtype="int64"),
                          "b": pd.Series([], dtype="int64"),
                          "jaccard": pd.Series([], dtype="float64")})
    if pairs_ds.count() == 0:
        return ray.data.from_pandas(empty)

    verified = _verify_pairs_ds(ds, pairs_ds, col, key, threshold)
    return _dedup_pairs_ds(verified, floor_col="jaccard")


def _dedup_pairs_ds(pairs, floor_col: str | None = None):
    """Cross-band/table duplicate (a, b) pairs dropped by a bucketed
    shuffle on ``a`` (ONE vectorized ``drop_duplicates`` per hash bucket,
    never per pair) — the pair list never lands on the driver (a
    mirror-heavy corpus can make even the TRUE near-dup pair list exceed
    driver heap). ``floor_col`` floors that column to 6 decimals for
    stable cross-engine comparison."""
    from ..shuffle import keyed_window

    def bucket_dedup(g: pd.DataFrame) -> pd.DataFrame:
        out = g.drop_duplicates(subset=["a", "b"])
        if floor_col is not None:
            out = out.copy()
            out[floor_col] = np.floor(out[floor_col].to_numpy() * 1e6) / 1e6
        return out

    return keyed_window(pairs, "a", bucket_dedup)


def _lsh_candidate_pairs_ds(bands, key: str, oversize: str = "star"):
    """(a, b) candidate pairs from band buckets, as a Ray Dataset — pairs
    live in the object store, never on the driver.

    ``oversize`` controls buckets past 64 members: "star" (dedup default)
    emits O(n) min-id star pairs — exactly the connectivity clustering
    needs, but NOT the full pair list; "all" emits every pair — required
    by the exact pair-LISTING queries, whose true answer is itself
    quadratic in the bucket size.

    Per-group Python callbacks are paid ONLY for collision buckets: a
    C-vectorized ``groupby().aggregate(Count)`` finds buckets with ≥2
    members first (the overwhelming majority are singletons), the band
    rows are filtered to those buckets with a broadcast ``is_in``, and the
    per-group pair emission runs on the small remainder. Cross-band
    duplicate pairs are removed by a vectorized ``groupby(a,b)`` count
    (no per-group Python)."""
    import ray

    keyed = bands.materialize()  # consumed twice: count pass + emit pass
    _hot, hot_rows = _collision_rows(keyed, "bkey")
    if hot_rows is None:
        return ray.data.from_pandas(_empty_df({"a": "int64", "b": "int64"}))

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = sorted(set(g[key].tolist()))
        if len(ids) < 2:
            return _empty_df({"a": "int64", "b": "int64"})
        if len(ids) > 64 and oversize == "star":
            # pathological bucket (e.g. a massive duplicate cluster): emit
            # TWO stars (around the min id and the max id) plus the
            # anchor-anchor pair — still O(n) candidate volume instead of
            # O(n^2). Two anchors because a star only carries the
            # connectivity label propagation needs when its hub VERIFIES
            # against the members: a single borderline-similarity hub
            # (below the Jaccard threshold) would zero out the whole
            # bucket's verified edges; with two, both must be borderline
            # for the bucket to lose connectivity. Deterministic under
            # retries (ids are sorted).
            lo, hi = ids[0], ids[-1]
            mids = ids[1:-1]
            # canonical a < b everywhere (pair-listing consumers rely on
            # it): lo-star pairs are (lo, x); hi-star pairs are (x, hi)
            return pd.DataFrame({
                "a": pd.Series([lo] * (len(ids) - 1) + mids,
                               dtype="int64"),
                "b": pd.Series(ids[1:] + [hi] * len(mids), dtype="int64")})
        iu, ju = np.triu_indices(len(ids), k=1)
        arr = np.asarray(ids, np.int64)
        return pd.DataFrame({"a": pd.Series(arr[iu], dtype="int64"),
                             "b": pd.Series(arr[ju], dtype="int64")})

    raw = hot_rows.groupby("bkey").map_groups(emit_pairs,
                                              batch_format="pandas")
    # LOCAL per-block dedupe only: a global groupby(a,b) shuffle costs more
    # than verifying the few surviving cross-block duplicates (measured
    # ~3% dup rate for 15s of shuffle at sf0.1); downstream consumers
    # either dedupe the small verified set (pair queries) or tolerate
    # duplicate edges outright (min-label propagation, union-find)
    return raw.map_batches(lambda df: df.drop_duplicates(),
                           batch_format="pandas")




def cluster_min_label(edges_ds, max_iters: int = 50,
                      stats_out: dict | None = None):
    """Distributed connected components via min-label propagation WITH
    pointer doubling.

    ``edges_ds``: Dataset of (a, b) edge rows. Returns a Dataset of
    (node, label) where ``label`` is the component minimum. State lives in
    Ray Datasets throughout — the driver never materializes edges or
    adjacency; each iteration is two groupby shuffles (label lookup
    merge, then per-node min). Each round unions TWO kinds of lookup
    request into the same co-partitioned merge: neighbor propagation
    (edge (u,v): v learns label[u]) and pointer doubling (label row
    (node→label): node learns label[label[node]]) — the shortcut halves
    every remaining label path, so convergence is O(log diameter) rounds
    instead of O(diameter) (the standard shortcutting trick from
    MapReduce CC literature, e.g. Kiveris et al. 2014). Convergence is
    detected by the (monotonically decreasing) global label sum.
    ``stats_out``, if given, receives {"iters": rounds_run}."""
    import ray
    from ray.data.aggregate import Min, Sum

    nparts = max(2, int(ray.cluster_resources().get("CPU", 4)))

    def _bucket(arr: np.ndarray) -> np.ndarray:
        return ((arr.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
                >> np.uint64(40)).astype(np.int64) % nparts

    def sym(b: pa.Table) -> pa.Table:
        # symmetric edge rows, tagged and pre-bucketed by src-node hash so
        # the per-iteration label lookup is a co-partitioned merge
        a = b.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        bb = b.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        u = np.concatenate([a, bb])
        v = np.concatenate([bb, a])
        return pa.table({"bucket": pa.array(_bucket(u)),
                         "u": pa.array(u), "v": pa.array(v),
                         "label": pa.nulls(len(u), pa.int64()),
                         "is_edge": pa.array(np.ones(len(u), np.bool_))})

    edges_sym = edges_ds.map_batches(sym, batch_format="pyarrow").materialize()

    def init_labels(b: pa.Table) -> pa.Table:
        a = b.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        bb = b.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        nodes = np.concatenate([a, bb])
        return pa.table({"node": pa.array(nodes), "label": pa.array(nodes)})

    def norm(b: pa.Table) -> pa.Table:
        return pa.table({"node": b.column("node").cast(pa.int64()),
                         "label": b.column("label").cast(pa.int64())})

    labels = (edges_ds.map_batches(init_labels, batch_format="pyarrow")
              .groupby("node").aggregate(Min("label", alias_name="label"))
              .map_batches(norm, batch_format="pyarrow"))
    prev_sum = None
    iters_run = 0
    for _ in range(max_iters):
        iters_run += 1
        # per-bucket vectorized merge: edge rows and label rows co-locate
        # via groupby(bucket); inside each bucket a C-speed pd.merge maps
        # each edge's src label onto its dst. (Hand-rolled partitioned hash
        # join — Ray's Dataset.join chokes on empty right partitions.)
        lab_rows = labels.map_batches(
            lambda b: pa.table({
                "bucket": pa.array(_bucket(
                    b.column("node").to_numpy(zero_copy_only=False)
                    .astype(np.int64))),
                "u": b.column("node").cast(pa.int64()),
                "v": pa.nulls(len(b), pa.int64()),
                "label": b.column("label").cast(pa.int64()),
                "is_edge": pa.array(np.zeros(len(b), np.bool_))}),
            batch_format="pyarrow")

        def bucket_merge(g: pa.Table) -> pa.Table:
            # filter in ARROW first: the mixed group frame holds nulls in
            # v (label rows) and label (edge rows), and a whole-frame
            # pandas conversion would coerce those int64 columns to
            # float64 — silently rounding node ids >= 2^53 to the wrong
            # document. The filtered selections are null-free, so their
            # pandas merge stays exact int64.
            mask = g.column("is_edge").combine_chunks()
            edg_t = g.filter(mask).select(["u", "v"])
            lab_t = g.filter(pc.invert(mask)).select(["u", "label"])
            if edg_t.num_rows == 0 or lab_t.num_rows == 0:
                return pa.table({"node": pa.array([], pa.int64()),
                                 "label": pa.array([], pa.int64())})
            m = edg_t.to_pandas().merge(lab_t.to_pandas(), on="u",
                                        how="inner")
            return pa.table({
                "node": pa.array(m["v"].to_numpy().astype(np.int64)),
                "label": pa.array(m["label"].to_numpy().astype(np.int64))})

        # pointer-doubling rows: treat each (node → label) as an edge
        # (u=label, v=node), so the SAME bucketed merge also yields
        # label[label[node]] for every node — no extra shuffle, the
        # rows just ride the existing groupby
        ptr_rows = labels.map_batches(
            lambda b: pa.table({
                "bucket": pa.array(_bucket(
                    b.column("label").to_numpy(zero_copy_only=False)
                    .astype(np.int64))),
                "u": b.column("label").cast(pa.int64()),
                "v": b.column("node").cast(pa.int64()),
                "label": pa.nulls(len(b), pa.int64()),
                "is_edge": pa.array(np.ones(len(b), np.bool_))}),
            batch_format="pyarrow")

        cand = (edges_sym.union(lab_rows).union(ptr_rows).groupby("bucket")
                .map_groups(bucket_merge, batch_format="pyarrow"))
        labels = (cand.union(labels)
                  .groupby("node").aggregate(Min("label", alias_name="label"))
                  .map_batches(norm, batch_format="pyarrow"))
        # Bound BOTH axes of per-round growth, or round k costs O(3^k):
        # (1) block count — each round's unions SUM block counts (edges +
        #     lab_rows + ptr_rows + labels), so without the repartition the
        #     label set's block count triples per round and fixed per-block
        #     overhead dominates (measured 2.0 → 7.2 → 26.7 s/round);
        # (2) plan depth — this round's plan references the previous
        #     round's `labels` three times, and materialize() alone still
        #     lets the executor re-walk history; rebuilding from the block
        #     refs makes every round O(1) plan-depth (blocks stay in the
        #     object store, never on the driver).
        labels = ray.data.from_arrow_refs(
            labels.repartition(nparts).to_arrow_refs())
        s = labels.aggregate(Sum("label", alias_name="s"))["s"]
        if s == prev_sum:
            break
        prev_sum = s
    else:
        # exiting by iteration count, not convergence: a component whose
        # diameter exceeds max_iters still holds several 'roots', so a
        # dedup built on these labels RETAINS some duplicates. Loud, not
        # silent — the safe direction (extra docs kept, none lost), but
        # the caller should raise max_iters for chain-shaped components
        import logging

        logging.getLogger(__name__).warning(
            "cluster_min_label stopped at max_iters=%d WITHOUT converging "
            "— with pointer doubling that covers diameters up to ~2^%d, "
            "so hitting it means the label-sum check never stabilized; "
            "components still holding multiple labels mean a dedup on "
            "them retains some duplicates; raise max_iters",
            max_iters, max_iters)
    if stats_out is not None:
        stats_out["iters"] = iters_run
    return labels


DISTRIBUTED_PAIR_THRESHOLD = 100_000  # verified pairs past which
# minhash_dedup clusters with cluster_min_label instead of a driver
# union-find


def minhash_dedup(ds, col: str = "text", key: str = "doc_id",
                  threshold: float = 0.8):
    """Near-dup removal. Returns (kept Dataset, dropped id set).

    Candidate discovery is distributed (band groupby; pathological buckets
    degrade to O(n) star pairs); verification runs distributed over the
    candidate pairs, with the candidate texts read in the workers from the
    blocks of one filter pass (``_verify_pairs_ds``), never on the driver;
    clustering is driver union-find for small verified sets and
    distributed min-label propagation (``cluster_min_label``) past
    ``DISTRIBUTED_PAIR_THRESHOLD`` verified pairs — the driver then
    materializes only the DROPPED ids (bounded by the duplicate count),
    never the pairs.
    """
    import ray

    bands = ds.map_batches(
        lambda b: minhash_band_rows(b, col, key), batch_format="pyarrow"
    )
    # pairs stay in the OBJECT STORE (materialize pins blocks distributed,
    # never on the driver) — required for pathological duplication where
    # the pair set is huge
    pairs_ds = _lsh_candidate_pairs_ds(bands, key).materialize()
    if pairs_ds.count() == 0:
        return ds, set()

    verified_ds = _verify_pairs_ds(ds, pairs_ds, col, key,
                                   threshold).materialize()
    n_verified = verified_ds.count()

    if n_verified > DISTRIBUTED_PAIR_THRESHOLD:
        labels = cluster_min_label(verified_ds)
        # only the DROPPED ids reach the driver (bounded by dup count)
        dropped = labels.map_batches(
            lambda b: b.filter(pc.not_equal(b.column("node"), b.column("label"))),
            batch_format="pyarrow").take_all()
        drop = {r["node"] for r in dropped}
    else:
        verified = verified_ds.to_pandas()
        parent: dict = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        for a, b in zip(verified["a"].tolist(), verified["b"].tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        drop = {x for x in parent if find(x) != x}

    # broadcast the drop set ONCE (ray.put), filter vectorized per batch —
    # no closure-captured set re-pickled into every task, no per-row loop
    drop_ref = ray.put(pa.array(sorted(drop), pa.int64()))

    def filter_batch(b: pa.Table) -> pa.Table:
        mask = pc.is_in(b.column(key), value_set=ray.get(drop_ref))
        return b.filter(pc.invert(mask))

    kept = ds.map_batches(filter_batch, batch_format="pyarrow")
    return kept, drop


# ------------------------------------------------------------------ simhash


def _md5_low64(token: bytes) -> int:
    """Lower 64 bits of md5, matching DuckDB's ``md5_number_lower``
    (little-endian uint64 of digest bytes 8..16) — gives the SimHash
    pipeline an exact SQL oracle."""
    return int.from_bytes(hashlib.md5(token).digest()[8:16], "little")


class SimHash:
    """Actor-pool stage: 64-bit SimHash per document, vectorized.

    Tokenization is lower+whitespace-split via Arrow kernels; token
    hashes are md5-low64 computed ONCE per unique token and cached
    across batches in the actor (vocabulary-bounded state). Bit voting
    is a single ``np.add.reduceat`` over the flattened token-hash bit
    matrix — no per-row Python in the hot path.
    """

    CACHE_CAP = 1_000_000  # bounds actor memory on unbounded-cardinality
    # token streams (URLs, UUIDs); same policy as BpeEncoder

    def __init__(self, col: str = "text"):
        self.col = col
        self._cache: dict[str, int] = {}

    def _hash_tokens(self, uniq: list[str]) -> np.ndarray:
        cache = self._cache
        out = np.empty(len(uniq), np.uint64)
        for i, t in enumerate(uniq):
            h = cache.get(t)
            if h is None:
                h = _md5_low64(t.encode())
                if len(cache) >= self.CACHE_CAP:
                    cache.clear()
                cache[t] = h
            out[i] = h
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:

        from .text import token_stream

        lowered = pc.utf8_lower(batch.column(self.col).fill_null(""))
        flat, kept_counts, kept_ends = token_stream(lowered, r"\s+")

        ndocs = len(batch)
        sig = np.zeros(ndocs, np.uint64)
        if len(flat):
            uniq = pc.unique(flat)
            uh = self._hash_tokens(uniq.to_pylist())
            idx = pc.index_in(flat, value_set=uniq) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            nuniq = len(uh)
            shifts = np.arange(64, dtype=np.uint64)
            # Votes via per-(doc, unique-token) COUNTS instead of a
            # 64-wide bit row per token occurrence: ones[doc] =
            # Σ_uniq count(doc, u) · bits(u). Repeated tokens (Zipfian
            # text) collapse into one pair row, and the per-pair matrix
            # is int32·uint8 — 5-12x faster than the old per-token
            # uint64-shift expansion, bit-identical output.
            doc_idx = np.repeat(np.arange(ndocs, dtype=np.int64),
                                kept_counts)
            pairs, pcounts = np.unique(doc_idx * nuniq + idx,
                                       return_counts=True)
            pdoc = pairs // nuniq
            puni = pairs % nuniq
            bits_u = ((uh[:, None] >> shifts) & np.uint64(1)) \
                .astype(np.uint8)  # (nuniq, 64), tiny vs the token count
            # np.unique sorts, so pdoc is non-decreasing: per-doc runs
            run_starts = np.concatenate(
                [[0], np.flatnonzero(np.diff(pdoc)) + 1])
            docs_present = pdoc[run_starts]
            ones = np.empty((len(run_starts), 64), np.int64)
            # run-aligned chunks bound the (chunk, 64) int32 transient
            # to ~512 MB even on batches of very long documents
            chunk = 1 << 21
            bounds = np.concatenate([run_starts, [len(pairs)]])
            pos = 0
            while pos < len(run_starts):
                end = pos
                p0 = int(bounds[pos])
                while (end < len(run_starts)
                       and bounds[end + 1] - p0 <= chunk):
                    end += 1
                end = max(end, pos + 1)
                p1 = int(bounds[end])
                contrib = (pcounts[p0:p1, None].astype(np.int32)
                           * bits_u[puni[p0:p1]])
                ones[pos:end] = np.add.reduceat(
                    contrib, (run_starts[pos:end] - p0), axis=0)
                pos = end
            votes = 2 * ones - kept_counts[docs_present][:, None]
            packed = np.left_shift((votes > 0).astype(np.uint64),
                                   shifts).sum(axis=1, dtype=np.uint64)
            sig[docs_present] = packed
        return batch.append_column(
            "simhash", pa.array(sig.astype(np.int64), pa.int64()))


def simhash_batch(batch: pa.Table, col: str = "text") -> pa.Table:
    """Stateless wrapper kept for API/test compatibility."""
    return SimHash(col)(batch)


def simhash_near_dup_pairs(ds, col: str = "text", key: str = "doc_id",
                           max_hamming: int = 3):
    """Candidate (a, b, hamming) pairs with Hamming(simhash) ≤ max_hamming,
    as a Ray DATASET — like the jaccard/embedding pair operators, the pair
    list never lands on the driver (a mirror-heavy corpus can make even
    the TRUE pair list exceed driver heap); cross-band duplicates are
    dropped by the shared bucketed shuffle on ``a``.

    Banding uses ``max_hamming + 1`` bands (pigeonhole: any pair within
    the Hamming budget must agree exactly on at least one band)."""
    import ray

    # SimHash keys on nothing — it appends a signature column; ``key``
    # matters only to the banding/emit stages below
    sims = ds.map_batches(SimHash, fn_constructor_args=(col,),
                          batch_format="pyarrow", concurrency=(1, 4))
    if max_hamming > 7:
        # 8 bands is the most 64 bits can give at width 8; past that the
        # pigeonhole guarantee silently breaks — refuse rather than
        # return an incomplete pair list
        raise ValueError(
            "simhash_near_dup_pairs supports max_hamming <= 7 "
            "(pigeonhole banding over 64 bits caps at 8 bands)")
    n_bands = max_hamming + 1
    width = 64 // n_bands
    mask = np.uint64((1 << width) - 1)

    def band_rows(b: pa.Table) -> pa.Table:
        # (bkey, key, simhash) only — band id folds into the bucket hash,
        # halving the bytes the bucket shuffle moves
        sh = b.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        keys = b.column(key).to_numpy(zero_copy_only=False)
        bks, ks = [], []
        for band in range(n_bands):
            bits = (sh >> np.uint64(band * width)) & mask
            bk = (bits * np.uint64(0x9E3779B97F4A7C15)) ^ (np.uint64(band) << np.uint64(56))
            bks.append(bk.astype(np.int64))
            ks.append(keys)
        return pa.table({"bkey": pa.array(np.concatenate(bks)),
                         key: pa.array(np.concatenate(ks)),
                         "simhash": pa.array(np.tile(sh.astype(np.int64), n_bands))})

    # materialized: the banded rows feed BOTH the collision-count pass and
    # the emit pass — without pinning, the signature stage would run twice
    keyed = sims.map_batches(band_rows, batch_format="pyarrow").materialize()
    # collision-bucket prefilter (shared _collision_rows helper)
    _hot, hot_rows = _collision_rows(keyed, "bkey")
    if hot_rows is None:
        return ray.data.from_pandas(
            _empty_df({"a": "int64", "b": "int64", "hamming": "int64"}))

    def emit(g: pd.DataFrame) -> pd.DataFrame:
        # no bucket cap: the pigeonhole recall guarantee (and the SQL
        # oracle) require EVERY in-bucket pair to be checked — a giant
        # bucket's exact answer is itself quadratic, so the cost is
        # inherent to the query, not an implementation choice
        rows = g.drop_duplicates(subset=key)
        if len(rows) < 2:
            return _empty_df({"a": "int64", "b": "int64", "hamming": "int64"})
        ids = np.asarray(rows[key].to_numpy(), np.int64)
        hs = rows["simhash"].to_numpy().astype(np.uint64)
        iu, ju = np.triu_indices(len(ids), k=1)
        x = hs[iu] ^ hs[ju]
        ham = np.unpackbits(x.view(np.uint8)).reshape(len(x), 64).sum(axis=1)
        keep = ham <= max_hamming
        a = np.minimum(ids[iu[keep]], ids[ju[keep]])
        b = np.maximum(ids[iu[keep]], ids[ju[keep]])
        return pd.DataFrame({"a": pd.Series(a, dtype="int64"),
                             "b": pd.Series(b, dtype="int64"),
                             "hamming": pd.Series(ham[keep].astype(np.int64),
                                                  dtype="int64")})

    pairs = (hot_rows.groupby("bkey").map_groups(emit, batch_format="pandas")
             ).materialize()
    # Ray drops the schema of an all-empty map_groups output — the typed
    # empty short-circuit keeps downstream keyed_window off a column-less
    # dataset
    if pairs.count() == 0:
        return ray.data.from_pandas(
            _empty_df({"a": "int64", "b": "int64", "hamming": "int64"}))
    return _dedup_pairs_ds(pairs)


# --------------------------------------------------- embedding cosine near-dup


def _empty_df(cols: dict[str, str]) -> pd.DataFrame:
    """Dtype-typed empty frame — untyped empties from ``map_groups`` emit
    schema-less blocks that trigger Ray schema-unification warnings and
    extra unify work at many-group scale."""
    return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})


def _vec_matrix(vec: pa.Array) -> np.ndarray:
    """(n, dim) float64 view of the equal-width vector bytes that
    ``embedding_near_dup_pairs`` stores per candidate."""
    offs = np.frombuffer(vec.buffers()[1], np.int64, len(vec) + 1,
                         vec.offset * 8)
    data = np.frombuffer(vec.buffers()[2], np.uint8)[offs[0]:offs[-1]]
    return data.view(np.float64).reshape(len(vec), -1)


def embedding_near_dup_pairs(ds, vec_col: str = "embedding", key: str = "vec_id",
                             threshold: float = 0.95, planes: int = 8,
                             tables: int = 16, seed: int = 7,
                             bucket_cap: int = 1024):
    """Cosine ≥ threshold candidate pairs via MULTI-TABLE random-hyperplane
    LSH, verified exactly inside each bucket. Returns a DATASET of
    (a, b, cosine) — the pair list never lands on the driver.

    A single hyperplane table misses pairs whose vectors straddle one
    plane; ``tables`` independent sign-hash tables push recall to ~1
    (P_miss = (1-p^planes)^tables, p = 1 - angle/pi). Each vector emits
    ``tables`` bucket rows; the in-bucket exact verify keeps precision
    exact, and duplicates across tables are dropped at the end.

    Scale shape: the bucket shuffle moves TWO int64s per (vector, table)
    — never the vectors themselves. Collision-bucket members' unit vectors
    stay in the object store as the blocks of one filter pass
    (``_CandidateBlocks``); each bucket task looks its members up there
    with one vectorized ``take``, so no vector reaches the driver and no
    actor or shuffle holds them. The blocks live as long as the returned
    lazy Dataset. Buckets over ``bucket_cap`` are NOT dropped: they are
    deterministically sub-split with extra hyperplanes (a pair split here
    still has ``tables-1`` other chances), and a sub-split that cannot
    shrink (identical-vector mega-cluster) degrades to O(n) star pairs
    around the min id; both events are counted and logged."""
    import logging

    import ray

    from .ann import embedding_matrix

    empty = _empty_df({"a": "int64", "b": "int64", "cosine": "float64"})

    def bucket_rows(b: pa.Table) -> pa.Table:
        emb = embedding_matrix(b.column(vec_col))
        keys = b.column(key).to_numpy(zero_copy_only=False)
        H = np.random.default_rng(seed).standard_normal(
            (emb.shape[1], planes * tables))
        signs = (emb @ H) > 0  # (n, planes*tables)
        weights = (1 << np.arange(planes)).astype(np.int64)
        out_bkt, out_keys = [], []
        for t in range(tables):
            block = signs[:, t * planes : (t + 1) * planes]
            bucket = (block * weights).sum(axis=1).astype(np.int64) + (t << planes)
            out_bkt.append(bucket)
            out_keys.append(keys)
        return pa.table({
            "bucket": pa.array(np.concatenate(out_bkt)),
            key: pa.array(np.concatenate(out_keys), pa.int64()),
        })

    buckets = ds.map_batches(bucket_rows, batch_format="pyarrow").materialize()

    # collision-bucket prefilter (shared _collision_rows helper)
    hot, hot_rows = _collision_rows(buckets, "bucket")
    if hot_rows is None:
        return ray.data.from_pandas(empty)
    n_over = int((hot["n"] > bucket_cap).sum())
    if n_over:
        logging.getLogger(__name__).warning(
            "embedding_near_dup: %d LSH buckets exceed bucket_cap=%d; "
            "sub-splitting with extra hyperplanes (star-pair fallback for "
            "unsplittable clusters)", n_over, bucket_cap)
    # distinct collision-bucket members → one filter pass keeps their
    # unit vectors in the object store (_CandidateBlocks)
    cand_ids = _candidate_ids(hot_rows, [key])
    if not cand_ids:
        return ray.data.from_pandas(empty)

    def unit_vectors(emb: pa.ChunkedArray) -> pa.Array:
        if len(emb) == 0:
            # a candidate-free batch must emit a typed empty column — a
            # FixedSizeListArray of size 0 raises ArrowInvalid
            return pa.array([], pa.large_binary())
        emb = embedding_matrix(emb)
        emb = emb / np.maximum(np.linalg.norm(emb, axis=1, keepdims=True),
                               1e-12)
        n, dim = emb.shape
        # int64 offsets + large_binary: int32 offsets silently wrap
        # negative once a batch's payload passes 2 GiB (40k rows of
        # dim-8192 float64 vectors) and the lookup would hold garbage
        offs = (np.arange(n + 1, dtype=np.int64) * dim * 8)
        return pa.Array.from_buffers(
            pa.large_binary(), n,
            [None, pa.py_buffer(offs.tobytes()),
             pa.py_buffer(np.ascontiguousarray(emb, np.float64).tobytes())])

    vecs = _candidate_blocks(ds, cand_ids, key, vec_col, unit_vectors)

    def _exact_block(ids: np.ndarray, V: np.ndarray) -> pd.DataFrame:
        S = V @ V.T
        iu, ju = np.triu_indices(len(ids), k=1)
        hit = S[iu, ju] >= threshold
        a = np.minimum(ids[iu[hit]], ids[ju[hit]])
        b = np.maximum(ids[iu[hit]], ids[ju[hit]])
        return pd.DataFrame({"a": a.astype("int64"), "b": b.astype("int64"),
                             "cosine": S[iu[hit], ju[hit]].astype("float64")})

    def _star_block(ids: np.ndarray, V: np.ndarray) -> pd.DataFrame:
        anchor = int(np.argmin(ids))
        cos = V @ V[anchor]
        m = np.ones(len(ids), bool)
        m[anchor] = False
        hit = m & (cos >= threshold)
        a = np.minimum(ids[anchor], ids[hit])
        b = np.maximum(ids[anchor], ids[hit])
        return pd.DataFrame({"a": a.astype("int64"), "b": b.astype("int64"),
                             "cosine": cos[hit].astype("float64")})

    def _split_pairs(ids, V, bucket_id: int, depth: int) -> list:
        if len(ids) < 2:
            return []
        if len(ids) <= bucket_cap:
            return [_exact_block(ids, V)]
        if depth >= 16:
            # unsplittable (near-identical vectors): O(n) star pairs —
            # exactly what connectivity clustering needs, explicitly lossy
            # for the full pair listing
            return [_star_block(ids, V)]
        rng = np.random.default_rng(
            (abs(int(bucket_id)) + 1, seed, depth))
        h = rng.standard_normal(V.shape[1])
        side = (V @ h) > 0
        if side.all() or not side.any():
            return _split_pairs(ids, V, bucket_id, depth + 1)
        return (_split_pairs(ids[side], V[side], bucket_id, depth + 1)
                + _split_pairs(ids[~side], V[~side], bucket_id, depth + 1))

    def emit(g: pd.DataFrame) -> pd.DataFrame:
        ids = np.unique(np.asarray(g[key].to_numpy(), np.int64))
        if len(ids) < 2:
            return empty
        V = _vec_matrix(vecs.take(ids))
        blocks = _split_pairs(ids, V, int(g["bucket"].iloc[0]), 0)
        blocks = [b for b in blocks if len(b)]
        return pd.concat(blocks, ignore_index=True) if blocks else empty

    pairs = hot_rows.groupby("bucket").map_groups(
        emit, batch_format="pandas")

    return _dedup_pairs_ds(pairs)
