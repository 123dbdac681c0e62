"""FSST (Fast Static Symbol Table) string compression, from scratch.

Public-knowledge implementation of the algorithm in Boncz, Neumann &
Leis, "FSST: Fast Random Access String Compression" (VLDB 2020): train a
table of up to 255 symbols (1-8 bytes) by iterated greedy parsing of a
sample, counting symbol and concatenated-pair frequencies, keeping the
top candidates by gain = frequency x length. Encoding replaces symbol
occurrences with 1-byte codes; bytes not covered by the table are
escaped as (0xFF, byte). pyarrow 16.1.0 ships no FSST kernel (verified),
so this is hand-rolled (SURVEY.md §7.5).

Engineering choices:

- The **trainer** is fully vectorized: each generation parses the sample
  with the current table, then counts symbol and adjacent-pair
  frequencies with ``np.bincount`` over the token stream (30-60 ms for a
  64 KiB sample, 5 generations).
- The **encoder** has two paths: a from-scratch native C hot loop
  (``_fsst_native``, compiled with the system gcc on first use, ~15
  MB/s/core) and a numpy fallback (8-byte window hashes + searchsorted
  per length + block-parallel greedy chain extraction, ~4 MB/s/core).
  Symbol codes are canonically length-desc ordered so the native
  first-byte bucket scan is longest-match without remapping.
- The **column layout** concatenates all strings of the chunk into one
  buffer, encodes it in a single pass, and stores the *original* string
  lengths (bit-packed) — so symbols may span string boundaries and
  decode restores the exact byte stream, split by the stored lengths.
- The **decoder** likewise has native (~180 MB/s/core) and vectorized
  numpy paths; any deterministic parse decodes exactly, so the paths are
  freely interchangeable on the same stream.

The per-partition symbol table is trained once per chunk (or shared via
the encoder actor pool for all chunks of a partition — BASELINE.json
north_star "FSST symbol tables ... shared across batches of the same
partition").
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa

from .base import (
    Codec,
    bit_width,
    compress,
    decompress,
    pack_bits,
    pack_sections,
    pack_validity,
    type_from_b64,
    type_to_b64,
    unpack_bits,
    unpack_sections,
    unpack_validity,
)

ESCAPE = 255
MAX_SYMBOLS = 255
MAX_SYMBOL_LEN = 8
_SAMPLE_CAP = 1 << 16  # 64 KiB training sample
_GENERATIONS = 5


# ------------------------------------------------------------------- training


def strided_sample(data: bytes, cap: int = _SAMPLE_CAP, pieces: int = 16) -> bytes:
    """Deterministic sample drawn from ``pieces`` evenly spaced slices —
    representative of the whole buffer, unlike a head-only sample."""
    if len(data) <= cap:
        return data
    piece = cap // pieces
    stride = len(data) // pieces
    return b"".join(data[i * stride : i * stride + piece] for i in range(pieces))


def train(sample: bytes, generations: int = _GENERATIONS,
          max_symbols: int = MAX_SYMBOLS) -> list[bytes]:
    """Train a symbol table on ``sample``. Deterministic and vectorized:
    each generation parses the sample with the current table (the same
    fast encoder used for real data), then counts symbol and
    concatenated-pair frequencies with ``np.bincount`` over the token
    stream — the FSST paper's iterative construction, no Python byte loop.
    """
    sample = strided_sample(sample)
    if not sample:
        return []
    symbols: list[bytes] = []
    for _ in range(generations):
        if symbols:
            # length-desc order REQUIRED for the parse: the native encoder
            # scans first-byte buckets in code order and takes the first
            # match, so shorter codes must not shadow longer ones
            symbols.sort(key=lambda s: (-len(s), s))
            enc = FsstEncoder(symbols).encode(sample)
            codes = _token_codes(np.frombuffer(enc, np.uint8))
        else:
            # generation 0: every byte is a literal token
            codes = np.frombuffer(sample, np.uint8).astype(np.int64) + 256
        ext = symbols + [bytes([b]) for b in range(256)]
        ext_len = np.array([len(s) for s in symbols] + [1] * 256, np.int64)
        # remap literal codes (256+b) to len(symbols)+b so the code space
        # is dense: 0..len(symbols)+255
        dense = np.where(codes >= 256, codes - 256 + len(symbols), codes)
        n_ext = len(symbols) + 256
        gains: dict[bytes, int] = {}
        single = np.bincount(dense, minlength=n_ext)
        for code in np.flatnonzero(single):
            s = ext[code]
            gains[s] = gains.get(s, 0) + int(single[code]) * len(s)
        if len(dense) > 1:
            a, b = dense[:-1], dense[1:]
            ok = (ext_len[a] + ext_len[b]) <= MAX_SYMBOL_LEN
            keys = a[ok] * n_ext + b[ok]
            pair_counts = np.bincount(keys)
            hot = np.flatnonzero(pair_counts)
            # cut to top candidates by GAIN (freq x concatenated length) —
            # a frequency-only cut starves the long, low-frequency
            # candidates that matter most
            pair_len = ext_len[hot // n_ext] + ext_len[hot % n_ext]
            score = pair_counts[hot] * pair_len
            order = hot[np.argsort(-score, kind="stable")][: 8 * max_symbols]
            for key in order:
                s = ext[int(key) // n_ext] + ext[int(key) % n_ext]
                gains[s] = gains.get(s, 0) + int(pair_counts[key]) * len(s)
        ranked = sorted(gains.items(), key=lambda kv: (-kv[1], kv[0]))
        new_symbols = [s for s, _ in ranked[:max_symbols]]
        if set(new_symbols) == set(symbols):
            break
        symbols = new_symbols
    # canonical code order: length-desc then bytes — lets the native
    # encoder scan first-byte buckets longest-first without code remapping
    symbols.sort(key=lambda s: (-len(s), s))
    return symbols


def _token_codes(arr: np.ndarray) -> np.ndarray:
    """Extended token codes (0..254 = symbol code, 256+b = literal byte b)
    of an FSST stream, vectorized (same escape-run logic as the decoder)."""
    n = len(arr)
    if n == 0:
        return np.zeros(0, np.int64)
    is_token = np.ones(n, bool)
    is_escape = np.zeros(n, bool)
    pos = np.flatnonzero(arr == ESCAPE)
    if len(pos):
        new_run = np.concatenate(([True], np.diff(pos) > 1))
        run_starts = pos[new_run]
        run_idx = np.cumsum(new_run) - 1
        offset_in_run = pos - run_starts[run_idx]
        esc_pos = pos[offset_in_run % 2 == 0]
        is_escape[esc_pos] = True
        nxt = esc_pos + 1
        is_token[nxt[nxt < n]] = False
    tok = np.flatnonzero(is_token)
    esc_tok = is_escape[tok]
    return np.where(esc_tok, 256 + arr[np.minimum(tok + 1, n - 1)].astype(np.int64),
                    arr[tok].astype(np.int64))


# ------------------------------------------------------------- table (de)ser


def serialize_table(symbols: list[bytes]) -> bytes:
    lens = bytes(len(s) for s in symbols)
    return bytes([len(symbols)]) + lens + b"".join(symbols)


def deserialize_table(buf: bytes) -> list[bytes]:
    n = buf[0]
    lens = buf[1 : 1 + n]
    out, off = [], 1 + n
    for l in lens:
        out.append(buf[off : off + l])
        off += l
    return out


# --------------------------------------------------------------------- encode


class FsstEncoder:
    """Compiled symbol table: reusable across chunks of a partition.

    The encoder is fully vectorized: for every input position it finds the
    longest matching symbol (rolling big-endian window values +
    ``searchsorted`` per symbol length), then extracts the greedy
    left-to-right parse with pointer doubling (O(n log n) numpy gathers
    instead of a Python byte loop).
    """

    _CHUNK = 1 << 22  # encode in 4 MiB pieces to bound doubling rounds

    def __init__(self, symbols: list[bytes]):
        self.symbols = symbols
        # per-length sorted big-endian values + codes
        self._by_len: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._lut1 = np.full(256, -1, np.int64)
        # 2-byte-prefix prefilter: positions whose next two bytes never start
        # a multi-byte symbol skip all window hashing (the common case)
        self._pre2 = np.zeros(65536, bool)
        for code, s in enumerate(symbols):
            if len(s) == 1:
                self._lut1[s[0]] = code
            else:
                self._pre2[(s[0] << 8) | s[1]] = True
        for L in range(2, MAX_SYMBOL_LEN + 1):
            group = [(c, s) for c, s in enumerate(symbols) if len(s) == L]
            if not group:
                continue
            vals = np.array([int.from_bytes(s, "big") for _, s in group], np.uint64)
            codes = np.array([c for c, _ in group], np.int64)
            order = np.argsort(vals)
            self._by_len[L] = (vals[order], codes[order])

    def encode(self, data: bytes) -> bytes:
        if not data:
            return b""
        from . import _fsst_native

        native = _fsst_native.native_encode(data, self.symbols)
        if native is not None:
            return native
        out = []
        for off in range(0, len(data), self._CHUNK):
            out.append(self._encode_chunk(data[off : off + self._CHUNK]))
        return b"".join(out)

    _BLOCK = 1024  # parse-reset granularity; enables block-parallel chaining

    def _encode_chunk(self, data: bytes) -> bytes:
        a = np.frombuffer(data, np.uint8)
        n = len(a)
        best_len = np.zeros(n, np.int64)
        best_code = np.full(n, -1, np.int64)
        m1 = self._lut1[a] >= 0
        best_len[m1] = 1
        best_code[m1] = self._lut1[a[m1]]
        a64 = a.astype(np.uint64)
        if n >= 2 and self._by_len:
            # candidate positions: 2-byte prefix starts some multi-byte symbol
            two = (a64[:-1] << np.uint64(8)) | a64[1:]
            cand = np.flatnonzero(self._pre2[two.astype(np.int64)])
            if len(cand):
                # one 8-byte big-endian window per candidate; per-length
                # values are just shifts of it (no per-length gathers)
                a64p = np.concatenate([a64, np.zeros(8, np.uint64)])
                w8 = np.zeros(len(cand), np.uint64)
                for j in range(8):
                    w8 = (w8 << np.uint64(8)) | a64p[cand + j]
                for L in range(2, MAX_SYMBOL_LEN + 1):  # ascending → longest wins
                    entry = self._by_len.get(L)
                    if entry is None or n < L:
                        continue
                    cut = np.searchsorted(cand, n - L + 1)
                    if cut == 0:
                        continue
                    svals, scodes = entry
                    wv = w8[:cut] >> np.uint64(8 * (8 - L))
                    pos = np.searchsorted(svals, wv)
                    pos_c = np.minimum(pos, len(svals) - 1)
                    hit = svals[pos_c] == wv
                    idx = cand[:cut][hit]
                    best_len[idx] = L
                    best_code[idx] = scodes[pos_c[hit]]
        # demote matches that would cross a parse-block boundary to literals
        # (tiny ratio cost; makes block parses independent → parallel chain)
        B = self._BLOCK
        idx_all = np.arange(n, dtype=np.int64)
        blk_end = np.minimum(((idx_all // B) + 1) * B, n)
        crossing = (best_len >= 2) & (idx_all + best_len > blk_end)
        best_len[crossing] = 0
        best_code[crossing] = np.where(
            self._lut1[a[crossing]] >= 0, self._lut1[a[crossing]], -1)
        best_len[crossing] = np.where(best_code[crossing] >= 0, 1, 0)
        step = np.where(best_len > 0, best_len, 1)
        nxt = idx_all + step
        # block-parallel greedy chain: advance one token per round in EVERY
        # block simultaneously (n/avg_len gathers total, batched block-wide)
        nblk = (n + B - 1) // B
        pos = np.arange(nblk, dtype=np.int64) * B
        ends = np.minimum(pos + B, n)
        rounds: list[np.ndarray] = []
        active = pos < ends
        while active.any():
            rounds.append(np.where(active, pos, np.int64(-1)))
            pos = np.where(active, nxt[np.minimum(pos, n - 1)], pos)
            active = pos < ends
        if rounds:
            mat = np.stack(rounds, axis=1)  # (nblk, rounds) block-major order
            chain = mat.ravel()
            chain = chain[chain >= 0]
        else:
            chain = np.zeros(0, np.int64)
        codes = best_code[chain]
        is_lit = codes < 0
        out_len = np.where(is_lit, 2, 1)
        out_off = np.zeros(len(chain), np.int64)
        if len(chain) > 1:
            np.cumsum(out_len[:-1], out=out_off[1:])
        total = int(out_len.sum())
        out = np.empty(total, np.uint8)
        sym_pos = out_off[~is_lit]
        out[sym_pos] = codes[~is_lit].astype(np.uint8)
        lit_pos = out_off[is_lit]
        out[lit_pos] = ESCAPE
        out[lit_pos + 1] = a[chain[is_lit]]
        return out.tobytes()


def fsst_decode(enc: bytes, symbols: list[bytes], out_size: int | None = None) -> bytes:
    """Decode an FSST byte stream (native C when available, else numpy)."""
    if not enc:
        return b""
    if out_size is not None:
        from . import _fsst_native

        native = _fsst_native.native_decode(enc, symbols, out_size)
        if native is not None:
            return native
    arr = np.frombuffer(enc, np.uint8)
    # extended code space: 0..len(symbols)-1 = symbols, 256+b = literal
    # byte b — the escape-run classification lives ONLY in _token_codes
    # (the trainer shares it; two copies would drift)
    codes = _token_codes(arr)
    sym_lens = np.array([len(s) for s in symbols] + [0] * (256 - len(symbols)) +
                        [1] * 256, np.int64)
    sym_buf = b"".join(symbols) + bytes(range(256))
    sym_offs = np.zeros(512, np.int64)
    np.cumsum(sym_lens[:-1], out=sym_offs[1:])
    buf = np.frombuffer(sym_buf, np.uint8)
    lens = sym_lens[codes]
    offs = sym_offs[codes]
    total = int(lens.sum())
    out_starts = np.zeros(len(codes), np.int64)
    if len(codes) > 1:
        np.cumsum(lens[:-1], out=out_starts[1:])
    idx = np.repeat(offs, lens) + (np.arange(total) - np.repeat(out_starts, lens))
    return buf[idx].tobytes()


# --------------------------------------------------------------- codec class


def _concat_binary(arr: pa.Array) -> tuple[bytes, np.ndarray]:
    """(concatenated bytes of all values with nulls as empty, lengths array)."""
    a = arr.fill_null(b"" if pa.types.is_binary(arr.type) or pa.types.is_large_binary(arr.type) else "")
    a = a.cast(pa.large_binary())
    if isinstance(a, pa.ChunkedArray):
        a = a.combine_chunks()
    offs = np.frombuffer(a.buffers()[1], np.int64, count=len(a) + 1, offset=a.offset * 8)
    data_buf = a.buffers()[2]
    data = data_buf.to_pybytes()[offs[0] : offs[-1]] if data_buf is not None else b""
    return data, np.diff(offs)


def sample_share(arr: pa.Array, parts: int) -> bytes:
    """``arr``'s values cut to a 1/``parts`` share of ``train``'s sample
    (``strided_sample`` at ``_SAMPLE_CAP // parts`` bytes), so the joined
    shares of ``parts`` fragments train one table on all of them."""
    return strided_sample(_concat_binary(arr)[0], _SAMPLE_CAP // parts)


def trial_encoder(arr: pa.Array) -> "FsstEncoder":
    """The planner's quick-trial encoder for ``arr`` — identical to what
    ``FsstCodec.encode(..., quick=True)`` would train internally, exposed
    so one training run can be shared by the ``fsst`` and ``fsst+z``
    trials of the same sample (training dominates trial cost; the two
    trials differ only in post-compression of the encoded bytes)."""
    data, _ = _concat_binary(arr)
    return FsstEncoder(train(data[:16384], generations=3))


class FsstCodec(Codec):
    name = "fsst"

    @classmethod
    def can_encode(cls, t: pa.DataType) -> bool:
        return (pa.types.is_string(t) or pa.types.is_large_string(t)
                or pa.types.is_binary(t) or pa.types.is_large_binary(t))

    @classmethod
    def encode(cls, arr: pa.Array, encoder: FsstEncoder | None = None,
               post_zstd: bool = False, quick: bool = False) -> tuple[bytes, dict]:
        validity = pack_validity(arr)
        data, lengths = _concat_binary(arr)
        if encoder is None:
            if quick:  # planner trial encodes: smaller sample, fewer rounds
                encoder = FsstEncoder(train(data[:16384], generations=3))
            else:
                encoder = FsstEncoder(train(data))
        enc = encoder.encode(data)
        width = bit_width(int(lengths.max())) if len(lengths) else 0
        lens_packed = pack_bits(lengths.astype(np.uint64), width)
        meta = {"n": len(arr), "len_width": width, "type": type_to_b64(arr.type),
                "zstd": bool(post_zstd)}
        if post_zstd:
            meta["enc_len"] = len(enc)
            enc = compress(enc, "zstd")
        payload = pack_sections(
            [validity, serialize_table(encoder.symbols), lens_packed, enc]
        )
        return payload, meta

    @classmethod
    def decode(cls, payload: bytes, meta: dict) -> pa.Array:
        validity, table_buf, lens_packed, enc = unpack_sections(payload)
        n, width = meta["n"], meta["len_width"]
        symbols = deserialize_table(table_buf) if table_buf else []
        if meta.get("zstd"):
            enc = decompress(enc, meta["enc_len"], "zstd")
        lengths = unpack_bits(lens_packed, n, width).astype(np.int64)
        offsets = np.zeros(n + 1, np.int64)
        np.cumsum(lengths, out=offsets[1:])
        data = fsst_decode(enc, symbols, out_size=int(offsets[-1]))
        valid = unpack_validity(validity, n)
        t = type_from_b64(meta["type"])
        values = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), n, [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(data)]
        )
        out = values.cast(t)
        if valid is not None:
            import pyarrow.compute as pc

            out = pc.if_else(pa.array(valid), out, pa.nulls(n, t))
        return out
