import numpy as np
import pytest

from kronekit.tensor import (BadMagicError, NamedTensorStore, ShapeError,
                             TruncatedFileError, UnsupportedVersionError,
                             StoreError, make_rng)

from oracles import reshape_vec, vec


def test_make_rng_deterministic():
    a = make_rng(7).standard_normal(16)
    b = make_rng(7).standard_normal(16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(8).standard_normal(16))


# ----------------------- column stacking: the vec/reshape_vec of tests/oracles.py

def test_vec_hand_example():
    m = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(m).ravel(), [1.0, 2.0, 3.0, 4.0])


def test_vec_index_definition():
    rng = make_rng(0)
    for _ in range(20):
        r, c = rng.integers(1, 7, size=2)
        m = rng.standard_normal((r, c))
        v = vec(m).ravel()
        for k in range(r * c):
            assert v[k] == m[k % r, k // r]


def test_vec_reshape_round_trip():
    rng = make_rng(1)
    for _ in range(20):
        r, c = rng.integers(1, 9, size=2)
        m = rng.standard_normal((r, c))
        assert np.array_equal(reshape_vec(vec(m), r, c), m)
        x = rng.standard_normal(r * c)
        assert np.array_equal(vec(reshape_vec(x, r, c)).ravel(), x)


def test_reshape_vec_size_mismatch():
    with pytest.raises(ShapeError):
        reshape_vec(np.zeros(5), 2, 3)


# ------------------------------------------------------------------ KTS1 I/O

def test_store_round_trip_many_tensors(tmp_path):
    rng = make_rng(3)
    store = NamedTensorStore()
    names = [f"tensor.{i}.weight" for i in range(50)]
    for i, name in enumerate(names):
        r, c = rng.integers(1, 20, size=2)
        m = rng.standard_normal((r, c))
        store.add(name, m.astype(np.float32) if i % 3 == 0 else m)
    path = tmp_path / "round.kts"
    store.save(path)
    loaded = NamedTensorStore.load(path)
    assert loaded.names() == names  # insertion order survives
    for name in names:
        assert loaded[name].dtype == store[name].dtype
        assert np.array_equal(loaded[name], store[name])


def test_store_rejects_duplicates_and_bad_shapes():
    store = NamedTensorStore()
    store.add("w", np.zeros((2, 2)))
    with pytest.raises(ValueError):
        store.add("w", np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        store.add("cube", np.zeros((2, 2, 2)))


def test_store_save_rejects_what_uint16_cannot_count(tmp_path):
    one = np.zeros((1, 1))  # shared by every name, so no large tensor is built
    many = NamedTensorStore()
    for i in range(65536):
        many.add(f"t{i}", one)
    path = tmp_path / "many.kts"
    with pytest.raises(StoreError, match="65536 tensors"):
        many.save(path)
    assert not path.exists()
    long_name = NamedTensorStore()
    long_name.add("w" * 65536, one)
    with pytest.raises(StoreError, match="'wwww.*65536 bytes"):
        long_name.save(path)
    assert not path.exists()
    edge = NamedTensorStore()
    edge.add("w" * 65535, one)
    edge.save(path)
    assert NamedTensorStore.load(path).names() == ["w" * 65535]


def test_store_bad_magic(tmp_path):
    path = tmp_path / "bad.kts"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(BadMagicError):
        NamedTensorStore.load(path)


def test_store_unsupported_version(tmp_path):
    path = tmp_path / "v9.kts"
    path.write_bytes(b"KTS9" + b"\x00" * 16)
    with pytest.raises(UnsupportedVersionError):
        NamedTensorStore.load(path)


def test_store_truncated_payload(tmp_path):
    store = NamedTensorStore()
    store.add("w", make_rng(4).standard_normal((6, 6)))
    path = tmp_path / "full.kts"
    store.save(path)
    data = path.read_bytes()
    for cut in (len(data) - 8, 5, len(data) // 2):
        short = tmp_path / f"cut{cut}.kts"
        short.write_bytes(data[:cut])
        with pytest.raises(TruncatedFileError):
            NamedTensorStore.load(short)


def test_store_unknown_dtype_code(tmp_path):
    store = NamedTensorStore()
    store.add("w", np.zeros((1, 1)))
    path = tmp_path / "one.kts"
    store.save(path)
    data = bytearray(path.read_bytes())
    # dtype code byte sits right after the 4-byte header, count, name length, name
    data[4 + 2 + 2 + len("w")] = 200
    path.write_bytes(bytes(data))
    with pytest.raises(StoreError):
        NamedTensorStore.load(path)


def test_store_load_any_bytes_loads_or_raises_store_error(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    valid = NamedTensorStore()
    valid.add("w", make_rng(5).standard_normal((2, 3)))
    valid.add("é", np.zeros((1, 2), dtype=np.float32))
    good = tmp_path / "good.kts"
    valid.save(good)
    template = good.read_bytes()
    path = tmp_path / "fuzz.kts"

    def edit(edits, cut):
        data = bytearray(template)
        for pos, byte in edits:
            data[pos] = byte
        return bytes(data[:cut])

    # random bytes after each prefix the loader checks, and valid files with
    # a few bytes overwritten and the tail cut off
    inputs = st.one_of(
        st.builds(lambda head, body: head + body,
                  st.sampled_from([b"", b"KTS", b"KTS1"]), st.binary(max_size=80)),
        st.builds(edit, st.lists(st.tuples(st.integers(0, len(template) - 1),
                                           st.integers(0, 255)), max_size=4),
                  st.integers(0, len(template))))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(inputs)
    def check(data):
        path.write_bytes(data)
        try:
            NamedTensorStore.load(path)
        except StoreError:
            pass

    check()
