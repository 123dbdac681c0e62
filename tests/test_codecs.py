"""Codec round-trip tests: encode→decode must be bit-identical
(BASELINE.json north_rule: "decoded columns bit-identical").

Adversarial inputs per SURVEY.md §5.2(3): empty, all-null, single-value,
max-cardinality, plus hypothesis property tests.
"""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from json_to_parquet_ray.codecs import codec_names, decode_array, encode_array
from json_to_parquet_ray.codecs.fsst import FsstEncoder, fsst_decode, train
from json_to_parquet_ray.fixtures import make_cc_table, stress_tables


def roundtrip(arr: pa.Array, codec: str):
    payload, meta = encode_array(arr, codec)
    back = decode_array(payload, meta)
    assert back.type == arr.type, f"{codec}: type {back.type} != {arr.type}"
    assert back.equals(arr), f"{codec}: values differ"
    return payload


INT_ARRAYS = {
    "empty": pa.array([], pa.int64()),
    "single": pa.array([7], pa.int64()),
    "all_null": pa.array([None, None, None], pa.int64()),
    "with_nulls": pa.array([1, None, 3, None, 5], pa.int64()),
    "negative": pa.array([-(2**62), 0, 2**62, -1], pa.int64()),
    "constant": pa.array([42] * 100, pa.int64()),
    "runs": pa.array([1] * 50 + [2] * 30 + [3] * 20, pa.int64()),
    "int32": pa.array([1, 2, None, 4], pa.int32()),
    "uint8": pa.array([0, 255, 17], pa.uint8()),
    "bool": pa.array([True, False, None, True], pa.bool_()),
    "ts": pa.array(np.arange(100) * 1000 + 1_700_000_000_000_000, pa.timestamp("us")),
    "date": pa.array([0, 100, None], pa.date32()),
}

STR_ARRAYS = {
    "empty": pa.array([], pa.string()),
    "single": pa.array(["x"], pa.string()),
    "all_null": pa.array([None, None], pa.string()),
    "with_nulls": pa.array(["a", None, "", "bb", None], pa.string()),
    "empties": pa.array(["", "", ""], pa.string()),
    "unicode": pa.array(["naïve", "中文字符", "✓ ", "\x00\x01\xff"], pa.string()),
    "runs": pa.array(["en"] * 40 + ["de"] * 10 + ["en"] * 50, pa.string()),
    "binary": pa.array([b"\xff\xff\x00", b"", None, b"\xfe" * 100], pa.binary()),
    "long": pa.array(["the quick brown fox " * 50, "jumps over " * 99], pa.string()),
}

FLOAT_ARRAYS = {
    "empty": pa.array([], pa.float64()),
    "with_nulls": pa.array([1.5, None, -0.0, float("inf")], pa.float64()),
    "f32": pa.array([1.5, 2.5, None], pa.float32()),
    "nan": pa.array([float("nan"), 1.0], pa.float64()),
    "decimal2": pa.array([123.45, 0.07, -99.99, 1000.0], pa.float64()),
    "specials": pa.array(
        [1.5, None, -0.0, float("inf"), float("-inf"), float("nan"),
         0.0, -1e300, 1e-300, 5e-324], pa.float64()),
    "f32_decimal": pa.array(
        np.round(np.linspace(-10, 10, 50), 2).astype(np.float32),
        pa.float32()),
    "all_nan": pa.array([float("nan")] * 5, pa.float64()),
}


def float_bits_equal(a: pa.Array, b: pa.Array) -> bool:
    """Bit-level float equality (NaN-safe), plus identical validity."""
    if len(a) != len(b) or a.type != b.type:
        return False
    if a.null_count != b.null_count:
        return False
    va = a.is_valid().to_numpy(zero_copy_only=False)
    if not (va == b.is_valid().to_numpy(zero_copy_only=False)).all():
        return False
    u = np.uint32 if a.type == pa.float32() else np.uint64
    an = a.fill_null(0.0).to_numpy(zero_copy_only=False).view(u)
    bn = b.fill_null(0.0).to_numpy(zero_copy_only=False).view(u)
    return bool((an[va] == bn[va]).all())


@pytest.mark.parametrize("codec", ["plain", "zstd", "lz4", "forbp", "delta", "rle", "dict"])
@pytest.mark.parametrize("name", sorted(INT_ARRAYS))
def test_int_roundtrip(codec, name):
    arr = INT_ARRAYS[name]
    if codec == "dict" and pa.types.is_boolean(arr.type):
        pytest.skip("dictionary_encode unsupported for bool")
    roundtrip(arr, codec)


@pytest.mark.parametrize("codec", ["plain", "zstd", "rle", "dict", "fsst"])
@pytest.mark.parametrize("name", sorted(STR_ARRAYS))
def test_str_roundtrip(codec, name):
    arr = STR_ARRAYS[name]
    if codec == "rle" and pa.types.is_binary(arr.type):
        pytest.skip("run_end_encode unsupported for binary in pyarrow 16")
    roundtrip(arr, codec)


@pytest.mark.parametrize("codec", ["plain", "zstd", "bss", "alp"])
@pytest.mark.parametrize("name", sorted(FLOAT_ARRAYS))
def test_float_roundtrip(codec, name):
    # NaN: arrow equals() treats NaN != NaN at the value level unless bitwise;
    # compare bit patterns (also catches a lossy -0.0 → +0.0)
    arr = FLOAT_ARRAYS[name]
    payload, meta = encode_array(arr, codec)
    back = decode_array(payload, meta)
    assert back.type == arr.type
    assert float_bits_equal(back, arr)


def test_alp_exponent_and_exceptions():
    """ALP picks the smallest exact decimal exponent; non-decimals /
    specials become verbatim exceptions; decimal columns beat bss."""
    rng = np.random.default_rng(7)
    prices = pa.array(np.round(rng.uniform(1, 1000, 20_000), 2), pa.float64())
    p, meta = encode_array(prices, "alp")
    assert meta["e"] == 2 and meta["n_exc"] == 0
    assert float_bits_equal(decode_array(p, meta), prices)
    # 17-bit codes ≈ 2.2 B/val — far below bss/plain on the same data
    p_bss, _ = encode_array(prices, "bss")
    assert len(p) < len(p_bss) * 0.5
    # integer-valued doubles → e=0
    qty = pa.array(rng.integers(1, 51, 10_000).astype(float), pa.float64())
    _, meta_q = encode_array(qty, "alp")
    assert meta_q["e"] == 0 and meta_q["n_exc"] == 0
    # full-entropy mantissas: mostly exceptions, still bit-exact
    gauss = pa.array(rng.standard_normal(5_000), pa.float64())
    p_g, meta_g = encode_array(gauss, "alp")
    assert meta_g["n_exc"] > 4_000
    assert float_bits_equal(decode_array(p_g, meta_g), gauss)


@given(st.lists(st.floats(width=64, allow_nan=True, allow_infinity=True)
                | st.none(), max_size=300))
@settings(max_examples=60, deadline=None)
def test_prop_alp_float64(vals):
    arr = pa.array(vals, pa.float64())
    payload, meta = encode_array(arr, "alp")
    assert float_bits_equal(decode_array(payload, meta), arr)


def test_alp_nulls_dont_widen_codes():
    """Null slots are ffilled out of the FOR range: a narrow-range column
    must pack at the same bit width with or without sprinkled nulls."""
    rng = np.random.default_rng(3)
    tight = np.round(rng.uniform(990, 1000, 20_000), 2)
    _, m0 = encode_array(pa.array(tight, pa.float64()), "alp")
    mask = np.zeros(20_000, bool)
    mask[rng.choice(20_000, 200, replace=False)] = True
    arr = pa.array(tight, pa.float64(), mask=mask)
    p, m1 = encode_array(arr, "alp")
    assert m1["width"] == m0["width"] and m1["n_exc"] == 0
    assert float_bits_equal(decode_array(p, m1), arr)


def test_alp_negative_exponent_trailing_zeros():
    """Multiples of 100 factor the common 10^2 out (e = -2), packing at
    the reduced magnitude's width instead of the raw value's."""
    rng = np.random.default_rng(4)
    arr = pa.array((rng.integers(1, 1000, 20_000) * 100).astype(float),
                   pa.float64())
    p, meta = encode_array(arr, "alp")
    assert meta["e"] == -2 and meta["n_exc"] == 0 and meta["width"] <= 10
    assert float_bits_equal(decode_array(p, meta), arr)


def test_pack_bits_byte_layout_stable():
    """pack_bits must keep emitting the little-endian bit stream the
    first releases wrote (existing stores decode by it). Oracle = the
    original bit-matrix formulation."""
    from json_to_parquet_ray.codecs.base import pack_bits, unpack_bits

    def reference_pack(vals, width):
        shifts = np.arange(width, dtype=np.uint64)
        bits = ((vals[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
        return np.packbits(bits.ravel(), bitorder="little").tobytes()

    rng = np.random.default_rng(11)
    for width in (1, 2, 3, 7, 8, 9, 16, 17, 31, 32, 33, 63, 64):
        hi = min(1 << width, 1 << 63)
        vals = rng.integers(0, hi, 997, dtype=np.uint64)
        if width == 64:
            vals |= rng.integers(0, 2, 997, dtype=np.uint64) << np.uint64(63)
        packed = pack_bits(vals, width)
        assert packed == reference_pack(vals, width), f"width {width}"
        assert (unpack_bits(packed, len(vals), width) == vals).all()


def test_constant_codec():
    for arr in [pa.array(["en"] * 50), pa.array([None] * 10, pa.int64()),
                pa.array([3.5] * 7)]:
        roundtrip(arr, "constant")


def test_nested_types_plain():
    arrs = [
        pa.array([[1, 2], None, [], [3]], pa.list_(pa.int64())),
        pa.array([{"a": 1, "b": "x"}, None], pa.struct([("a", pa.int64()), ("b", pa.string())])),
        pa.array([[1.0] * 4, [2.0] * 4], pa.list_(pa.float32())),
    ]
    for arr in arrs:
        for codec in ["plain", "zstd"]:
            roundtrip(arr, codec)


def test_cc_table_all_columns():
    t = make_cc_table(300, seed=7)
    per_col = {"url": ["dict", "fsst", "zstd"], "warc_ts": ["delta", "forbp", "rle"],
               "html": ["fsst", "zstd"], "text": ["fsst", "zstd"],
               "lang": ["dict", "rle"]}
    for col, codecs in per_col.items():
        arr = t.column(col).combine_chunks()
        for codec in codecs:
            roundtrip(arr, codec)


def test_stress_tables_roundtrip():
    for name, t in stress_tables().items():
        for col in t.column_names:
            arr = t.column(col).combine_chunks()
            for codec in ["plain", "zstd"]:
                roundtrip(arr, codec)


def test_delta_wins_on_sorted_ts():
    ts = pa.array(1_700_000_000_000_000 + np.cumsum(
        np.random.default_rng(1).integers(0, 5_000_000, 10_000)), pa.timestamp("us"))
    sizes = {c: len(encode_array(ts, c)[0]) for c in ["delta", "forbp", "plain"]}
    assert sizes["delta"] < sizes["forbp"] < sizes["plain"]


def test_dict_shared_dictionary():
    from json_to_parquet_ray.codecs.dictionary import DictCodec

    shared = pa.array(["en", "de", "fr"])
    arr = pa.array(["de", "en", None, "fr", "en"])
    payload, meta = DictCodec.encode(arr, dictionary=shared)
    meta["codec"] = "dict"
    assert decode_array(payload, meta).equals(arr)


def test_fsst_table_roundtrip_and_escapes():
    data = b"hello world \xff\xff escape \xff test hello world"
    syms = train(data * 50)
    enc = FsstEncoder(syms)
    encoded = enc.encode(data)
    assert fsst_decode(encoded, syms) == data
    # empty table → pure escapes
    enc0 = FsstEncoder([])
    e0 = enc0.encode(b"abc\xff")
    assert fsst_decode(e0, []) == b"abc\xff"
    assert len(e0) == 8


@given(st.lists(st.one_of(st.none(), st.integers(-(2**63), 2**63 - 1)), max_size=60))
@settings(max_examples=40, deadline=None)
def test_prop_int64(vals):
    arr = pa.array(vals, pa.int64())
    for codec in ["plain", "forbp", "delta", "rle"]:
        roundtrip(arr, codec)


@given(st.lists(st.one_of(st.none(), st.binary(max_size=24)), max_size=40))
@settings(max_examples=40, deadline=None)
def test_prop_binary_fsst(vals):
    arr = pa.array(vals, pa.binary())
    roundtrip(arr, "fsst")
    roundtrip(arr, "plain")


@given(st.lists(st.one_of(st.none(), st.text(max_size=30)), max_size=40))
@settings(max_examples=40, deadline=None)
def test_prop_text_dict(vals):
    arr = pa.array(vals, pa.string())
    for codec in ["dict", "fsst", "zstd"]:
        roundtrip(arr, codec)


def test_constant_codec_rejects_nonconstant():
    """A stale/external plan marking a non-constant column 'constant' must
    raise (encode_table then falls back to plain) instead of silently
    storing only row 0."""
    import pytest

    from json_to_parquet_ray.codecs.plain import ConstantCodec

    with pytest.raises(ValueError):
        ConstantCodec.encode(pa.array(["a", "b", "a", "c"]))


def test_constant_plan_on_nonconstant_falls_back():
    from json_to_parquet_ray.encode import decode_table, encode_table
    from json_to_parquet_ray.plan import CodecPlan, ColumnPlan

    t = pa.table({"x": pa.array(["a", "b", "a", "c"])})
    plan = CodecPlan(columns={"x": ColumnPlan("x", "constant")})
    blob, header = encode_table(t, plan)
    assert decode_table(blob).equals(t)
    assert header["columns"][0]["meta"]["codec"] != "constant"


def test_failing_planned_codec_replans_column():
    """uint64 values >= 2^63 make forbp/delta/rle raise at encode time; the
    column is planned again from the chunk's own statistics instead of
    being stored uncompressed."""
    from json_to_parquet_ray.encode import decode_table, encode_table
    from json_to_parquet_ray.plan import CodecPlan, ColumnPlan

    t = pa.table({"v": pa.array([2**63 + i % 50 for i in range(4000)],
                                pa.uint64())})
    for codec in ("forbp", "delta", "rle"):
        blob, header = encode_table(t, CodecPlan({"v": ColumnPlan("v", codec)}))
        assert decode_table(blob).equals(t)
        assert header["columns"][0]["codec"] not in ("plain", codec)
        assert header["columns"][0]["size"] < t.column("v").nbytes // 4


def test_dict_shared_dictionary_with_null_rejected():
    import pytest

    from json_to_parquet_ray.codecs.dictionary import DictCodec

    shared = pa.array(["en", None, "fr"])
    arr = pa.array(["en", "missing", None, "fr"])
    with pytest.raises(ValueError):
        DictCodec.encode(arr, dictionary=shared)


def test_chunk_magic_check_is_explicit():
    import pytest

    from json_to_parquet_ray.encode import read_chunk_header

    with pytest.raises(ValueError):
        read_chunk_header(b"XXXX" + b"\x00" * 32)


def test_pack_bits_truncates_out_of_range_locally():
    """A value >= 2^width (caller bug) must lose its own high bits, like
    the original bit-matrix form — never OR them into the NEXT value's
    bit slot."""
    from json_to_parquet_ray.codecs.base import pack_bits, unpack_bits

    packed = pack_bits(np.array([4, 0], np.uint64), 2)
    assert packed == b"\x00"                       # old-form byte stream
    assert unpack_bits(packed, 2, 2).tolist() == [0, 0]
    vals = np.array([(1 << 40) | 5, 6, 7], np.uint64)
    assert unpack_bits(pack_bits(vals, 17), 3, 17).tolist() == [5, 6, 7]


def test_fsst_shared_trial_encoder_byte_identical():
    """The planner shares ONE trained encoder between the fsst and fsst+z
    trials of a column sample; payloads must be byte-identical to each
    trial training its own table (same sample + deterministic trainer),
    or the planner's trial ratios drift from real encode ratios."""
    from json_to_parquet_ray.codecs.fsst import FsstCodec, trial_encoder

    arr = pa.array([f"https://host{i % 7}.example/path/{i}" for i in range(300)]
                   + [None, ""])
    enc = trial_encoder(arr)
    for kwargs in ({}, {"post_zstd": True}):
        own, m1 = FsstCodec.encode(arr, quick=True, **kwargs)
        shared, m2 = FsstCodec.encode(arr, quick=True, encoder=enc, **kwargs)
        assert own == shared and m1 == m2


# ------------------------------------------------------------- IPC pages

_IPC_CODECS = ["plain", "zstd", "zstd3", "lz4"]
_PAGED_TYPES = [pa.string(), pa.large_string(), pa.binary(), pa.large_binary()]


@st.composite
def _paged_case(draw):
    """(array, page_bytes, expected page_rows or None, codec, rows): a
    string/binary array with nulls and empty values, optionally sliced
    at a nonzero offset and holding one value larger than the page, and
    a page size that is either drawn or chosen so that the length is an
    exact multiple of page_rows."""
    typ = draw(st.sampled_from(_PAGED_TYPES))
    page_bytes = draw(st.integers(16, 256))
    vals = draw(st.lists(st.one_of(st.none(), st.just(b""),
                                   st.binary(max_size=40)),
                         min_size=2, max_size=80))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(vals) - 1))
        vals[at] = b"x" * draw(st.integers(page_bytes + 1, 3 * page_bytes))
    skip = draw(st.integers(0, 3))
    vals = [b"pad"] * skip + vals
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        vals = [None if v is None else v.decode("latin-1") for v in vals]
    arr = pa.array(vals, typ).slice(skip)
    n = len(arr)
    page_rows = None
    if draw(st.booleans()):
        # page_rows = n * page_bytes // nbytes lands exactly on a divisor
        # k < n of the length (nbytes >= 4n, so the ceil never reaches k+1)
        page_rows = draw(st.sampled_from(
            [k for k in range(1, n) if n % k == 0]))
        page_bytes = -(-page_rows * arr.nbytes // n)
    rows = sorted(draw(st.sets(st.integers(0, n - 1))))
    return arr, page_bytes, page_rows, draw(st.sampled_from(_IPC_CODECS)), rows


@given(_paged_case())
@settings(max_examples=120, deadline=None)
def test_prop_paged_ipc_roundtrip_and_row_subsets(case):
    """A paged payload decodes whole to the input, through the codec and
    through the old single-stream reader, and any sorted row subset
    decodes to ``take`` of the full decode."""
    from unittest import mock

    from json_to_parquet_ray.codecs import base, decode_rows

    arr, page_bytes, page_rows, codec, rows = case
    with mock.patch.object(base, "PAGE_BYTES", page_bytes):
        payload, meta = encode_array(arr, codec)
    assert ("page_rows" in meta) == (arr.nbytes > page_bytes)
    if page_rows is not None:
        assert meta["page_rows"] == page_rows
        assert len(meta["page_offsets"]) == len(arr) // page_rows
    full = decode_array(payload, meta)
    assert full.type == arr.type and full.equals(arr)
    assert base.ipc_read(payload).equals(arr)
    idx = np.array(rows, np.int64)
    got = decode_rows(payload, meta, idx)
    assert got.type == arr.type
    assert got.equals(full.take(pa.array(idx)))


def _big_text(n_rows: int = 1200) -> pa.Array:
    return make_cc_table(n_rows, seed=7).column("text").combine_chunks()


def test_paged_payload_reads_through_single_stream_reader():
    """At the real page size, a long text column is written as several
    pages, and ``ipc_read`` (the reader of stores written before pages)
    decodes it to the same array — one value over a page included."""
    from json_to_parquet_ray.codecs import base

    text = _big_text()
    huge = pa.array(["y" * (base.PAGE_BYTES + 17)], pa.string())
    for arr in (text, pa.concat_arrays([text.slice(0, 500), huge,
                                        text.slice(500)])):
        assert arr.nbytes > base.PAGE_BYTES
        for codec in _IPC_CODECS:
            payload, meta = encode_array(arr, codec)
            assert len(meta["page_offsets"]) > 1
            assert base.ipc_read(payload).equals(arr)
            assert decode_array(payload, meta).equals(arr)


def test_single_batch_payload_decodes_on_full_and_filtered_paths():
    """Today's single-batch payload (meta without page keys) of a column
    over PAGE_BYTES decodes identically whole and by row subset."""
    from json_to_parquet_ray.codecs import base, decode_rows

    text = _big_text()
    rows = np.array([0, 7, 400, 401, len(text) - 1], np.int64)
    for codec, compression in [("plain", None), ("zstd", "zstd"),
                               ("lz4", "lz4")]:
        payload = base.ipc_write(text, compression)
        meta = {"codec": codec}
        assert decode_array(payload, meta).equals(text)
        assert decode_rows(payload, meta, rows).equals(
            text.take(pa.array(rows)))
        assert decode_rows(payload, meta, rows[:0]).equals(text.slice(0, 0))


def test_unpaged_columns_keep_single_batch_bytes():
    """Non-string columns of any size and string columns of at most
    PAGE_BYTES are encoded exactly as before pages existed: one
    ``ipc_write`` batch with the codec's compression, and no page meta."""
    from json_to_parquet_ray.codecs import base

    n = 200_000
    rng = np.random.default_rng(3)
    cases = [
        pa.array(rng.integers(0, 1 << 40, n), pa.int64()),     # 1.6 MB
        pa.array(rng.random(n)),                                # 1.6 MB
        pa.array([[f"w{i}"] * 3 for i in range(60_000)]),       # nested
        _big_text(120),                                         # < 1 MiB
        pa.array(["z" * (base.PAGE_BYTES - 4)]),                # at bound
    ]
    assert cases[-1].nbytes == base.PAGE_BYTES
    # each codec's compression argument to ipc_write before pages existed
    compressions = {"plain": None, "zstd": "zstd", "lz4": "lz4",
                    **{f"zstd{lv}": pa.Codec("zstd", compression_level=lv)
                       for lv in (3, 6, 9)}}
    for arr in cases:
        assert pa.types.is_list(arr.type) or not (
            pa.types.is_string(arr.type) and arr.nbytes > base.PAGE_BYTES)
        for codec, compression in compressions.items():
            payload, meta = encode_array(arr, codec)
            assert meta == {"codec": codec}
            assert payload == base.ipc_write(arr, compression), codec
