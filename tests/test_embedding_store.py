import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagforge.embedding_store import (
    EmbeddingFormatError,
    EmbeddingTable,
    load_embeddings,
    normalize,
    save_embeddings,
)


def _write_raw(path, count, dim, normalized, records, magic=b"EMB1"):
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", count, dim))
        fh.write(struct.pack("<B", 1 if normalized else 0))
        for key, vec in records:
            encoded = key.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(np.asarray(vec, dtype="<f4").tobytes())


def test_empty_table(tmp_path):
    path = tmp_path / "empty.emb"
    _write_raw(path, 0, 8, False, [])
    table = load_embeddings(path)
    assert len(table) == 0
    assert table.dim == 8


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(100, 16))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    built = EmbeddingTable([f"k{i}" for i in range(100)], raw, normalized=True)
    # a table normalized in f64 from raw vectors round-trips the same way
    vectors = {f"k{n}": rng.normal(size=8) for n in range(30)}
    from_raw = normalize(EmbeddingTable.from_vectors(vectors))
    for table in (built, from_raw):
        path = tmp_path / "t.emb"
        save_embeddings(table, path)
        loaded = load_embeddings(path)
        # f32 on disk, widened to f64 in memory: compare at f32 exactly
        assert np.array_equal(table.matrix.astype("<f4"), loaded.matrix.astype("<f4"))
        assert loaded.keys == table.keys
        assert loaded.normalized

        path2 = tmp_path / "t2.emb"
        save_embeddings(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_duplicate_key_error(tmp_path):
    path = tmp_path / "dup.emb"
    _write_raw(path, 2, 2, False, [("img1", [1, 2]), ("img1", [3, 4])])
    with pytest.raises(EmbeddingFormatError, match="duplicate key 'img1'"):
        load_embeddings(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.emb"
    _write_raw(path, 0, 2, False, [], magic=b"NOPE")
    with pytest.raises(EmbeddingFormatError, match="bad magic at offset 0"):
        load_embeddings(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.emb"
    _write_raw(path, 1, 4, False, [("key", [1, 2, 3, 4])])
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(EmbeddingFormatError, match="truncated"):
        load_embeddings(path)


def test_header_count_beyond_file_is_truncation_not_allocation(tmp_path):
    # count 0xFFFFFFFF x dim 0xFFFF float64s would be 2 PiB
    path = tmp_path / "huge.emb"
    _write_raw(path, 0xFFFFFFFF, 0xFFFF, False, [])
    assert path.stat().st_size == 13
    with pytest.raises(EmbeddingFormatError, match="truncated payload at offset 13$"):
        load_embeddings(path)


def test_trailing_bytes(tmp_path):
    path = tmp_path / "trail.emb"
    _write_raw(path, 1, 2, False, [("key", [1, 2])])
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(EmbeddingFormatError, match="trailing bytes"):
        load_embeddings(path)


def test_non_finite_value(tmp_path):
    path = tmp_path / "nan.emb"
    _write_raw(path, 1, 2, False, [("bad", [np.nan, 1.0])])
    with pytest.raises(EmbeddingFormatError, match="non-finite value for key 'bad'"):
        load_embeddings(path)


def test_normalized_flag_validated(tmp_path):
    path = tmp_path / "flag.emb"
    _write_raw(path, 1, 2, True, [("key", [3.0, 4.0])])
    with pytest.raises(EmbeddingFormatError, match="normalized flag"):
        load_embeddings(path)


def test_zero_dim_rejected(tmp_path):
    path = tmp_path / "zerodim.emb"
    _write_raw(path, 0, 0, False, [])
    with pytest.raises(EmbeddingFormatError, match="dimension 0"):
        load_embeddings(path)


def test_normalize_three_four_five():
    table = EmbeddingTable.from_vectors({"v": np.array([3.0, 4.0])})
    unit = normalize(table)
    assert np.allclose(unit.vector("v"), [0.6, 0.8], atol=0, rtol=0)
    assert unit.normalized


def test_normalize_idempotent():
    rng = np.random.default_rng(5)
    table = normalize(EmbeddingTable.from_vectors({f"k{i}": rng.normal(size=6) for i in range(40)}))
    again = normalize(table)
    assert np.abs(again.matrix - table.matrix).max() < 1e-12
    assert np.abs(np.linalg.norm(table.matrix, axis=1) - 1.0).max() < 1e-12


def test_normalize_zero_vector_names_key():
    table = EmbeddingTable.from_vectors({"good": np.ones(3), "zero": np.zeros(3)})
    with pytest.raises(EmbeddingFormatError, match="'zero'"):
        normalize(table)


def _outcome(make):
    try:
        table = make()
    except EmbeddingFormatError as exc:
        return ("error", str(exc))
    return ("table", table.keys, table.matrix.tobytes(), table.normalized)


@pytest.mark.parametrize("row", [
    [3.0, 4.0],
    [1e200, 1e200],  # the norm overflows, and the row divides to zeros
    [1e-160, 3e-161],  # the squares lose bits to underflow
    [1e-170, 1e-171],  # every square underflows: a zero norm
    [1e-100, 0.0],
    [1e100, 1.0],
])
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_normalize_matches_a_checked_table_of_the_divided_rows(row):
    table = EmbeddingTable.from_vectors({"fine": np.array([1.0, 2.0]), "edge": np.array(row)})

    def checked():
        norms = np.linalg.norm(table.matrix, axis=1)
        if (norms == 0.0).any():
            raise EmbeddingFormatError("cannot normalize zero vector for key 'edge'")
        return EmbeddingTable(table.keys, table.matrix / norms[:, None], normalized=True)

    assert _outcome(lambda: normalize(table)) == _outcome(checked)


def test_a_loaded_and_normalized_table_is_checked_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    path = tmp_path / "t.emb"
    _write_raw(path, 50, 6, False, [(f"k{i}", rng.normal(size=6)) for i in range(50)])
    calls = []
    isfinite = np.isfinite

    def counting(x, *args, **kwargs):
        calls.append(np.shape(x))
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    table = normalize(load_embeddings(path))
    assert table.normalized and len(table) == 50
    assert calls.count((50, 6)) <= 1


def test_from_vectors_requires_consistent_dims():
    with pytest.raises(ValueError):
        EmbeddingTable.from_vectors({"a": np.ones(3), "b": np.ones(4)})


# -- fuzz: truncated and garbage EMB1 files ----------------------------------------

f32s = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def emb1_files(draw, min_count=0):
    """The bytes of a valid EMB1 file: distinct keys, finite f32 vectors."""
    dim = draw(st.integers(1, 4))
    keys = draw(st.lists(st.text(max_size=6), min_size=min_count, max_size=5, unique=True))
    records = [(key, draw(st.lists(f32s, min_size=dim, max_size=dim))) for key in keys]
    header = b"EMB1" + struct.pack("<IIB", len(records), dim, 0)
    return header + b"".join(
        struct.pack("<H", len(key.encode())) + key.encode() + np.asarray(vec, "<f4").tobytes()
        for key, vec in records
    )


def _load_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("emb1") / "fuzz.emb"
    path.write_bytes(data)
    return load_embeddings(path)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=emb1_files(min_count=1), cut=st.floats(0, 1, exclude_max=True))
def test_truncated_emb1_files_raise_format_error(tmp_path_factory, data, cut):
    _load_bytes(tmp_path_factory, data)  # whole, it loads
    with pytest.raises(EmbeddingFormatError):
        _load_bytes(tmp_path_factory, data[: int(cut * len(data))])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=emb1_files(), tail=st.binary(min_size=1, max_size=40))
def test_emb1_files_with_garbage_after_them_raise_format_error(tmp_path_factory, data, tail):
    with pytest.raises(EmbeddingFormatError):
        _load_bytes(tmp_path_factory, data + tail)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(garbage=st.binary(max_size=80).filter(lambda b: not b.startswith(b"EMB1")))
def test_garbage_without_the_magic_raises_format_error(tmp_path_factory, garbage):
    with pytest.raises(EmbeddingFormatError, match="bad magic at offset 0"):
        _load_bytes(tmp_path_factory, garbage)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=emb1_files(min_count=1), at=st.floats(0, 1, exclude_max=True),
       garbage=st.binary(min_size=1, max_size=16))
def test_emb1_files_with_garbage_inside_load_or_raise_format_error(
    tmp_path_factory, data, at, garbage
):
    start = 4 + int(at * (len(data) - 4))  # after the magic
    try:
        table = _load_bytes(tmp_path_factory, data[:start] + garbage + data[start + len(garbage):])
    except EmbeddingFormatError:
        return
    assert table.matrix.shape == (len(table.keys), table.dim)
