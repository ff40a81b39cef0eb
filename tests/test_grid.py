from functools import cached_property

import numpy as np
import pytest

from dualfrac import Grid3, NormReport, ScalarField, VectorField, field_norms


@pytest.mark.parametrize("L,n", [(20.0, 64), (10.0, 32), (40.0, 128), (20.0, 48)])
def test_spacing_times_points_recovers_box(L, n):
    g = Grid3(L, n)
    assert g.spacing * g.points_per_axis == L


@pytest.mark.parametrize("n", [0, -4, 15, 33])
def test_odd_or_nonpositive_points_rejected(n):
    with pytest.raises(ValueError):
        Grid3(10.0, n)


def test_nonpositive_box_rejected():
    with pytest.raises(ValueError):
        Grid3(0.0, 16)
    with pytest.raises(ValueError):
        Grid3(-3.0, 16)


def test_frequency_lattice_symmetric_except_nyquist(grid16):
    freqs = grid16.frequency_axis
    nyquist = -freqs.min()
    present = set(np.round(freqs, 12))
    for p in freqs:
        if np.isclose(abs(p), nyquist):
            continue  # the single unpaired index
        assert round(-p, 12) in present
    # exactly one Nyquist entry, with negative sign in fftfreq layout
    assert np.sum(np.isclose(np.abs(freqs), nyquist)) == 1


def test_grid_caches_only_its_1d_axes():
    # the dense full-layout arrays are rebuilt per access, never held
    cached = {name for name, attr in vars(Grid3).items() if isinstance(attr, cached_property)}
    assert cached == {"axis", "frequency_axis"}


def test_wavenumbers_zero_only_at_origin(grid16):
    pm = grid16.wavenumbers
    assert pm[0, 0, 0] == 0.0
    assert np.count_nonzero(pm == 0.0) == 1


def test_scalar_field_rejects_nonfinite(grid16):
    bad = np.zeros(grid16.shape)
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ScalarField(grid16, bad)


def test_scalar_field_rejects_bad_shape(grid16):
    with pytest.raises(ValueError, match="shape"):
        ScalarField(grid16, np.zeros((4, 4, 4)))


@pytest.mark.parametrize(
    "shape",
    [(16, 16, 16), (2, 32, 32, 32), (2, 16, 16, 9)],
    ids=["no-component-axis", "other-grid", "half-lattice"],
)
def test_vector_field_rejects_bad_shape(grid16, shape):
    with pytest.raises(ValueError, match="shape"):
        VectorField(grid16, np.zeros(shape))


def test_vector_field_requires_components(grid16):
    with pytest.raises(ValueError, match="N >= 1"):
        VectorField(grid16, np.zeros((0,) + grid16.shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vector_field_rejects_nonfinite(grid16, bad):
    values = np.zeros((2,) + grid16.shape)
    values[1, 3, 4, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        VectorField(grid16, values)


def test_field_arithmetic(grid16, rng):
    a = ScalarField(grid16, rng.standard_normal(grid16.shape))
    b = ScalarField(grid16, rng.standard_normal(grid16.shape))
    np.testing.assert_allclose((a + b).values, a.values + b.values)
    np.testing.assert_allclose((a - b).values, a.values - b.values)
    np.testing.assert_allclose((2.5 * a).values, 2.5 * a.values)


def test_norm_report_dominance_on_random_fields(grid16, rng):
    # H2 adds a nonnegative spectral term to the L2 norm
    for _ in range(5):
        f = ScalarField(grid16, rng.standard_normal(grid16.shape))
        rep = field_norms(f)
        assert rep.h2 >= rep.l2


def test_norm_report_dict_roundtrip():
    rep = NormReport(l1=1.0, l2=2.0, linf=3.0, h2=4.0)
    assert rep.as_dict() == {"l1": 1.0, "l2": 2.0, "linf": 3.0, "h2": 4.0}
