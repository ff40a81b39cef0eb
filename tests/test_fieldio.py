import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfrac import Grid3, ScalarField
from dualfrac.fieldio import HEADER_STRUCT, MAGIC, read_snapshot, write_snapshot


def test_round_trip(tmp_path, grid16, rng):
    field = ScalarField(grid16, rng.standard_normal(grid16.shape))
    path = write_snapshot(field, 3, tmp_path / "f.fsf")
    back, component = read_snapshot(path)
    assert component == 3
    assert back.grid == grid16
    np.testing.assert_array_equal(back.values, field.values)


def test_header_layout(tmp_path, grid16):
    field = ScalarField.zeros(grid16)
    path = write_snapshot(field, 7, tmp_path / "f.fsf")
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    n, L, comp = struct.unpack_from("<Id I".replace(" ", ""), raw, 4)
    assert (n, L, comp) == (16, 10.0, 7)
    assert HEADER_STRUCT.size == 32
    assert len(raw) == 32 + 16**3 * 8


def test_snapshot_bytes_are_header_plus_payload(tmp_path, grid16, rng):
    field = ScalarField(grid16, rng.standard_normal(grid16.shape))
    path = write_snapshot(field, 5, tmp_path / "f.fsf")
    expected = HEADER_STRUCT.pack(MAGIC, 16, 10.0, 5) + field.values.astype("<f8").tobytes()
    assert path.read_bytes() == expected


def test_snapshot_write_makes_no_copy_of_the_payload(tmp_path, grid32, rng):
    field = ScalarField(grid32, rng.standard_normal(grid32.shape))
    write_snapshot(field, 0, tmp_path / "warm.fsf")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_snapshot(field, 0, tmp_path / "f.fsf")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * field.values.nbytes


def test_bad_magic_rejected(tmp_path, grid16):
    field = ScalarField.zeros(grid16)
    path = write_snapshot(field, 0, tmp_path / "f.fsf")
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        read_snapshot(path)


def test_truncated_payload_rejected(tmp_path, grid16):
    field = ScalarField.zeros(grid16)
    path = write_snapshot(field, 0, tmp_path / "f.fsf")
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="payload"):
        read_snapshot(path)


def _valid_snapshot(n):
    field = ScalarField(Grid3(10.0, n), np.arange(n**3, dtype=np.float64).reshape((n,) * 3))
    header = HEADER_STRUCT.pack(MAGIC, n, 10.0, 0)
    return header + field.values.astype("<f8").tobytes()


@settings(max_examples=200, deadline=None)
@given(
    data=st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda tail: MAGIC + tail),
        st.tuples(st.sampled_from([2, 4]), st.integers(0, 10**4)).map(
            lambda nk: _valid_snapshot(nk[0])[: nk[1]]
        ),
        st.tuples(
            st.integers(0, 2**32 - 1),
            st.floats(allow_nan=True, allow_infinity=True),
            st.integers(0, 2**32 - 1),
            st.binary(max_size=600),
        ).map(lambda h: HEADER_STRUCT.pack(MAGIC, *h[:3]) + h[3]),
    )
)
def test_read_snapshot_raises_only_value_error_on_bad_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fsf") / "f.fsf"
    path.write_bytes(data)
    try:
        field, _ = read_snapshot(path)
    except ValueError:
        return
    # the bytes happened to form a valid snapshot
    assert field.values.shape == field.grid.shape
