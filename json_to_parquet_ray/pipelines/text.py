"""Text-analysis operators for large-scale training-data pipelines:
language-ID, quality scoring, token counting, document fingerprinting.

All stages are vectorized ``map_batches`` transforms over Arrow batches;
the language-ID stage is a stateful actor-pool class (profiles built once
per actor in ``__init__``). None of these exist in the reference (it has
no per-record functions beyond trim/quote-strip, SURVEY.md §2.2); they
are first-class components of the new engine per the build brief.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# --------------------------------------------------------------- token count

_TOKEN_RE = r"\S+"
# BPE-ish word/number/punct splitter (GPT-2-style contractions simplified)
_BPE_RE = r"'(?:s|t|re|ve|m|ll|d)|[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"


def token_count_batch(batch: pa.Table, col: str = "text") -> pa.Table:
    """Whitespace tokens + BPE-ish subword-ish counts, vectorized."""
    text = batch.column(col)
    ws = pc.count_substring_regex(text, _TOKEN_RE)
    bpe = pc.count_substring_regex(text, _BPE_RE)
    return (batch
            .append_column("ws_tokens", ws.cast(pa.int64()))
            .append_column("bpe_tokens", bpe.cast(pa.int64())))


# ------------------------------------------------------------ quality scores

_STOPWORDS = ["the", "and", "of", "a", "to", "in", "is", "that", "it", "for"]
_STOP_RE = r"(?i)\b(?:" + "|".join(_STOPWORDS) + r")\b"


def quality_score_batch(batch: pa.Table, col: str = "text") -> pa.Table:
    """Length / punctuation / uppercase / stopword ratios (all Arrow
    kernels). ``stopword_ratio`` is stopword MATCHES per whitespace
    token and can exceed 1.0 when several stopwords share one token
    ('the,the' is one \\S+ token holding two matches) — the definition
    is pinned by the SQL oracle (`quality_scores`), which replicates it
    verbatim; treat it as a score, not a bounded fraction."""
    text = batch.column(col)
    n_chars = pc.utf8_length(text).cast(pa.float64())
    safe = pc.max_element_wise(n_chars, 1.0)
    punct = pc.count_substring_regex(text, r"[!-/:-@\[-`{-~]").cast(pa.float64())
    upper = pc.count_substring_regex(text, r"[A-Z]").cast(pa.float64())
    words = pc.count_substring_regex(text, _TOKEN_RE).cast(pa.float64())
    stops = pc.count_substring_regex(text, _STOP_RE).cast(pa.float64())
    safe_words = pc.max_element_wise(words, 1.0)
    return (batch
            .append_column("n_chars", n_chars.cast(pa.int64()))
            .append_column("punct_ratio", pc.divide(punct, safe))
            .append_column("upper_ratio", pc.divide(upper, safe))
            .append_column("stopword_ratio", pc.divide(stops, safe_words)))


# -------------------------------------------------------------- language id


class LangId:
    """Actor-pool stage: n-gram-profile language heuristic.

    Profiles (common-word and character-class evidence for en/de/fr/es/zh)
    are fixed pattern strings; ``__call__`` scores each batch vectorized
    with Arrow regex kernels (Arrow compiles the RE2 per kernel call —
    microseconds against the batch scan; the actor-pool shape is for the
    per-batch vectorized scoring, not a compile cache).
    """

    PROFILES = {
        "en": r"(?i)\b(?:the|and|of|to|is|that|you|with|for|this)\b",
        "de": r"(?i)\b(?:der|die|und|das|ist|nicht|ein|mit|für|ich)\b",
        "fr": r"(?i)\b(?:le|la|les|et|est|une|pour|que|dans|vous)\b",
        "es": r"(?i)\b(?:el|los|las|es|una|para|que|con|por|como)\b",
    }

    def __init__(self, col: str = "text"):
        self.col = col
        self.patterns = dict(self.PROFILES)  # compiled by Arrow's RE2 on use
        self.cjk = r"[一-鿿]"

    def __call__(self, batch: pa.Table) -> pa.Table:
        # null text must classify as 'unknown', not ride NaN scores to
        # argmax index 0 ('en')
        text = pc.fill_null(batch.column(self.col), "")
        n = pc.max_element_wise(pc.utf8_length(text).cast(pa.float64()), 1.0)
        scores = {}
        for lang, pat in self.patterns.items():
            scores[lang] = pc.divide(
                pc.count_substring_regex(text, pat).cast(pa.float64()), n)
        # CJK characters dominate if present
        scores["zh"] = pc.divide(
            pc.multiply(pc.count_substring_regex(text, self.cjk).cast(pa.float64()), 5.0),
            n)
        langs = list(scores)
        mat = np.vstack([scores[l].to_numpy(zero_copy_only=False) for l in langs])
        best = mat.argmax(axis=0)
        conf = mat.max(axis=0)
        pred = np.array(langs, dtype=object)[best]
        pred[conf <= 0.0] = "unknown"
        return (batch
                .append_column("lang_pred", pa.array(pred, pa.string()))
                .append_column("lang_conf", pa.array(conf, pa.float64())))


# ------------------------------------------------------------- redaction

EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"


def redact_batch(batch: pa.Table, col: str = "text",
                 token: str = "<EMAIL>") -> pa.Table:
    """PII-style redaction: replace email-shaped substrings with a token.
    Single RE2 kernel pass — the same regex runs verbatim in the SQL
    oracle's regexp_replace."""
    red = pc.replace_substring_regex(batch.column(col), EMAIL_RE, token)
    idx = batch.column_names.index(col)
    return batch.set_column(idx, col, red)


# ------------------------------------------------------- text extraction

# Order matters: script/style bodies first (their content is not text),
# then comments, then remaining tags, then a fixed entity subset, then
# whitespace collapse. RE2-compatible (no backreferences) so the exact
# same patterns run in DuckDB's regexp_replace for the oracle.
_HTML_STRIP_STEPS = (
    r"(?is)<script\b[^>]*>.*?</script\s*>",
    r"(?is)<style\b[^>]*>.*?</style\s*>",
    r"(?s)<!--.*?-->",
    r"(?s)<[^>]*>",
)
# &amp; decodes LAST (the standard rule): decoding it first would turn an
# escaped entity like '&amp;lt;' into '&lt;' and then a second pass into
# '<' — double-decoding text the page displayed literally
_HTML_ENTITIES = (("&lt;", "<"), ("&gt;", ">"), ("&quot;", '"'),
                  ("&#39;", "'"), ("&nbsp;", " "), ("&amp;", "&"))


def extract_text_batch(batch: pa.Table, col: str = "html",
                       out: str = "text") -> pa.Table:
    """Plain-text extraction from an HTML column — the webtext pipeline
    stage that produces the reference input's ``text`` from its ``html``
    (BASELINE.json input_hint). Regex-grade (tags/scripts/styles/comments
    stripped, a fixed entity subset decoded, whitespace collapsed), not a
    DOM parser: one vectorized RE2 kernel pass per pattern, zero per-row
    Python. A full HTML5 parser (lxml/bs4) is not in this container; at
    100 TB this stage would become an actor-pool ``map_batches`` with the
    parser object built per actor — the plumbing is identical."""
    s = batch.column(col).cast(pa.large_string())  # binary casts validate UTF-8
    for pat in _HTML_STRIP_STEPS:
        s = pc.replace_substring_regex(s, pat, " ")
    for ent, rep in _HTML_ENTITIES:
        s = pc.replace_substring(s, ent, rep)
    s = pc.utf8_trim_whitespace(pc.replace_substring_regex(s, r"\s+", " "))
    cols = {n: batch.column(n) for n in batch.column_names if n != col}
    cols[out] = s
    return pa.table(cols)


# ----------------------------------------------------- repetition ratio


def token_stream(text_col, pattern: str = r"\s+"):
    """Flattened NON-EMPTY token stream of a string column plus per-doc
    bookkeeping: returns (flat_tokens, kept_counts, kept_ends). The
    subtle counts/ne/ends/kept_prefix index arithmetic lives only here —
    it was previously copy-pasted across three operators, and this exact
    class of flattened-stream indexing has produced batch-layout bugs."""
    toks = pc.split_pattern_regex(
        text_col.fill_null("") if hasattr(text_col, "fill_null")
        else text_col, pattern)
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = toks.flatten()
    counts = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    nonempty = pc.not_equal(flat, "")
    ne = nonempty.to_numpy(zero_copy_only=False)
    flat = flat.filter(nonempty)
    ends = np.cumsum(counts)
    kept_prefix = (np.concatenate([[0], np.cumsum(ne)])
                   if len(ne) else np.zeros(1, np.int64))
    kept_ends = (kept_prefix[ends] if len(counts)
                 else np.zeros(0, np.int64)).astype(np.int64)
    kept_counts = np.diff(np.concatenate([[0], kept_ends])).astype(np.int64)
    return flat, kept_counts, kept_ends


# --------------------------------------------------- url canonicalization

# scheme, optional userinfo (kept verbatim: credentials are
# case-sensitive), host[:port], path, query; the fragment is left unmatched
_URL_RE = (r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*://)(?P<user>[^/?#@]*@)?"
           r"(?P<host>[^/?#]*)(?P<path>[^?#]*)(?P<query>[^#]*)")
# a tracking parameter is a whole query key: anchored to its delimiter
_URL_TRACK_RE = r"[?&](?:utm_[A-Za-z0-9_]+|fbclid|gclid)=[^&]*"


def canonicalize_urls_batch(batch: pa.Table, col: str = "url",
                            out: str | None = None) -> pa.Table:
    """Canonical URL form for dedup/grouping: lowercase scheme and host,
    fragment stripped, tracking parameters (utm_*, fbclid, gclid)
    removed from the query, dangling ``?``/``&`` tidied. Strings without
    a scheme pass through unchanged (relative links are not guessed at).
    All RE2 kernels; the exact patterns run verbatim in the DuckDB
    oracle. Userinfo and path/query CASE are preserved — they are
    significant."""
    s = batch.column(col)
    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    s = s.cast(pa.large_string())
    m = pc.extract_regex(s, _URL_RE)
    query = pc.struct_field(m, "query")
    query = pc.replace_substring_regex(query, _URL_TRACK_RE, "")
    query = pc.replace_substring_regex(query, r"^&", "?")
    query = pc.replace_substring_regex(query, r"\?&", "?")
    query = pc.replace_substring_regex(query, r"[?&]+$", "")
    joined = pc.binary_join_element_wise(
        pc.utf8_lower(pc.struct_field(m, "scheme")),
        pc.struct_field(m, "user"),
        pc.utf8_lower(pc.struct_field(m, "host")),
        pc.struct_field(m, "path"), query,
        pa.scalar("", pa.large_string()))
    canon = pc.if_else(m.is_valid(), joined, s)
    idx = batch.column_names.index(col) if out is None else None
    if idx is not None:
        return batch.set_column(idx, col, canon)
    return batch.append_column(out, canon)


# ----------------------------------------------------- decontamination

_NGRAM_P = np.uint64(1099511628211)  # FNV prime; 64-bit wraparound


def _ngram_hash_stream(flat_tokens: pa.Array, counts: np.ndarray,
                       n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rolling word-n-gram hashes over a flattened token stream:
    ``hash(g) = Σ_j token_hash[s+j] · P^j`` for every start ``s`` fully
    inside one document. Returns (hashes, doc_index_per_hash). n gathers
    over the flat stream — O(n · tokens), no per-doc Python."""
    from ..stats import poly_hash_binary

    ends = np.cumsum(counts)
    per_doc = np.maximum(counts - n + 1, 0)
    total = int(per_doc.sum())
    if total == 0:
        return np.zeros(0, np.uint64), np.zeros(0, np.int64)
    doc_of = np.repeat(np.arange(len(counts), dtype=np.int64), per_doc)
    within = (np.arange(total, dtype=np.int64)
              - np.repeat(np.cumsum(per_doc) - per_doc, per_doc))
    starts = np.repeat(ends - counts, per_doc) + within
    h = poly_hash_binary(flat_tokens)
    acc = np.zeros(total, np.uint64)
    p = np.uint64(1)
    with np.errstate(over="ignore"):  # mod-2^64 wraparound is the hash
        for j in range(n):
            acc += h[starts + j] * p
            p *= _NGRAM_P
    return acc, doc_of


def eval_ngram_set(eval_texts: list[str], n: int) -> np.ndarray:
    """Sorted distinct n-gram hashes of the eval/benchmark texts, built
    with the SAME tokenizer+hash as the corpus side."""
    flat, counts, _ = token_stream(pa.array(list(eval_texts),
                                            pa.large_string()))
    g, _ = _ngram_hash_stream(flat, counts, n)
    return np.unique(g)


def decontaminate(ds, eval_texts: list[str], n: int = 8,
                  key: str = "doc_id", text_col: str = "text"):
    """Benchmark decontamination (GPT-3-style n-gram overlap): flag every
    document sharing at least one word ``n``-gram with any eval text.
    Returns a Dataset of (key, contaminated bool, ngram_hits int64 —
    DISTINCT overlapping n-grams per doc).

    Scale shape: the eval-set hash array broadcasts once via ``ray.put``
    (eval sets are small by definition); the corpus side is one
    vectorized ``map_batches`` — rolling hashes + ``np.searchsorted``
    membership — with NO shuffle at all. Overlap keys on 64-bit hashes
    of exact token sequences; a collision (~#grams²/2^65) can only
    over-flag, never unflag."""
    import ray

    if n < 1:
        # n <= 0 would make every gram hash 0 on both sides and silently
        # flag the whole corpus
        raise ValueError(f"n must be >= 1, got {n}")
    ref = ray.put(eval_ngram_set(eval_texts, n))

    class Flag:
        def __init__(self, ref, n):
            import ray as _ray

            self.eval_h = _ray.get(ref)
            self.n = n

        def __call__(self, b: pa.Table) -> pa.Table:
            flat, counts, _ = token_stream(b.column(text_col))
            g, doc_of = _ngram_hash_stream(flat, counts, self.n)
            hits = np.zeros(b.num_rows, np.int64)
            if len(g) and len(self.eval_h):
                pos = np.searchsorted(self.eval_h, g)
                np.clip(pos, 0, len(self.eval_h) - 1, out=pos)
                m = self.eval_h[pos] == g
                if m.any():
                    # distinct matched grams per doc: unique (doc, hash)
                    pairs = np.unique(
                        np.stack([doc_of[m].astype(np.uint64), g[m]]),
                        axis=1)
                    np.add.at(hits, pairs[0].astype(np.int64), 1)
            return pa.table({key: b.column(key),
                             "contaminated": pa.array(hits > 0),
                             "ngram_hits": pa.array(hits, pa.int64())})

    return ds.map_batches(Flag, fn_constructor_args=(ref, n),
                          batch_format="pyarrow", concurrency=(1, 8))


def repetition_ratio_batch(batch: pa.Table, col: str = "text") -> pa.Table:
    """Gopher-style repetition signal: 1 - distinct_words/words per doc.
    Fully vectorized: per-doc distincts come from one np.unique over
    (doc_index, token_id) pairs — no per-row Python."""
    flat, kept_counts, _ = token_stream(batch.column(col))

    n = len(batch)
    distinct = np.zeros(n, np.int64)
    if len(flat):
        uniq = pc.unique(flat)
        tid = pc.index_in(flat, value_set=uniq).to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(n), kept_counts)
        pair = doc_of.astype(np.int64) * len(uniq) + tid
        updoc = np.unique(pair) // len(uniq)
        distinct = np.bincount(updoc, minlength=n).astype(np.int64)
    ratio = np.where(kept_counts > 0,
                     1.0 - distinct / np.maximum(kept_counts, 1), 0.0)
    return (batch
            .append_column("rep_ratio", pa.array(ratio, pa.float64())))


# ------------------------------------------------------------- fingerprints


def fingerprint_batch(batch: pa.Table, col: str = "text") -> pa.Table:
    """Deterministic md5 document fingerprint (oracle-checkable via
    DuckDB's md5()); the engine-path 64-bit polynomial rolling hash lives
    in ``fingerprint_batch_fast``."""
    texts = batch.column(col).to_pylist()
    md5s = [None if t is None else hashlib.md5(t.encode()).hexdigest()
            for t in texts]
    return batch.append_column("fp_md5", pa.array(md5s, pa.string()))


def fingerprint_batch_fast(batch: pa.Table, col: str = "text") -> pa.Table:
    """Vectorized 64-bit polynomial content hash per row.

    The hash core lives in ``stats.poly_hash_binary`` (one
    ``np.add.reduceat`` over byte-aligned chunks: O(total_bytes), no
    per-row Python; mega-docs via one C blake2b call each); this is
    its only caller — the stats KMV sketch deliberately does NOT use
    it (see the revert note in stats.py). Used only as a shuffle
    partitioning key — groups verify on exact values, so the hash
    family is interchangeable."""
    from ..stats import poly_hash_binary

    h = poly_hash_binary(batch.column(col).combine_chunks())
    return batch.append_column("fp_fnv", pa.array(h.astype(np.int64), pa.int64()))
