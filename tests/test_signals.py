"""The test-signal generators against the dense formulas they replace."""

import numpy as np
import pytest

from qpswf.errors import BadParameters
from qpswf.grid import GridAxis, QSignal
from qpswf.qft import dual_frequency_axes
from qpswf.rng import CounterRng
from qpswf.signals import gaussian_mixed_qsignal, random_bandlimited_grid_spectrum


def _dense_gaussian_mixed(ax_x, ax_y, rng, t_half, w_half):
    """Every bump's envelope and carrier evaluated on the whole grid."""
    x = ax_x.samples()[:, None]
    y = ax_y.samples()[None, :]
    half = min(-ax_x.start, -ax_y.start)
    vals = np.zeros((ax_x.count, ax_y.count, 4))
    for _ in range(2 + int(rng.uniform(1)[0] * 3)):
        cx, cy = (rng.uniform(2) * 2 - 1) * 0.5 * t_half
        sig = half * (0.10 + 0.05 * rng.uniform(1)[0])
        rx, ry = rng.uniform(2) * 3 * w_half
        phx, phy = rng.uniform(2) * 2 * np.pi
        amp = rng.normal(4)
        env = np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2 * sig ** 2))
        carrier = np.cos(rx * x + phx) * np.cos(ry * y + phy)
        vals += env[..., None] * carrier[..., None] * amp[None, None, :]
    return vals


def _dense_spectrum(ax_u, ax_v, w_half, rng):
    """Normals drawn over the whole frequency grid, masked to the band, symmetrized."""
    u, v = ax_u.samples(), ax_v.samples()
    band = np.outer(np.abs(u) <= w_half + 1e-12, np.abs(v) <= w_half + 1e-12)
    out = np.empty((4, ax_u.count, ax_v.count), dtype=complex)
    for c in range(4):
        raw = rng.normal_field((ax_u.count, ax_v.count)) \
            + 1j * rng.normal_field((ax_u.count, ax_v.count))
        raw *= band
        out[c] = (raw + np.conj(raw[::-1, ::-1])) / 2
    return out


@pytest.mark.parametrize("n", [129, 1025])
@pytest.mark.parametrize("t_half, w_half", [(1.0, 1.0), (1.0, 2.0)])
def test_gaussian_mixed_matches_the_dense_formula(n, t_half, w_half):
    ax = GridAxis.symmetric(4.0, n)
    axes = [(ax, ax), (GridAxis.symmetric(3.0, 97), GridAxis.symmetric(4.0, 129))]
    for seed in (1, 2, 3, 58):
        for ax_x, ax_y in axes[:1 if n > 129 else 2]:
            rng, ref = CounterRng(seed, stream=2), CounterRng(seed, stream=2)
            f = gaussian_mixed_qsignal(ax_x, ax_y, rng, t_half, w_half)
            want = _dense_gaussian_mixed(ax_x, ax_y, ref, t_half, w_half)
            assert f.values.shape == want.shape
            assert np.abs(f.values - want).max() <= 1e-15 * np.abs(want).max()
            assert np.array_equal(rng.uniform(3), ref.uniform(3))


@pytest.mark.parametrize("n", [65, 129, 257, 1025])
@pytest.mark.parametrize("w_half", [1.0, 1.5, 2.0])
def test_bandlimited_spectrum_matches_the_full_draw(n, w_half):
    ax = GridAxis.symmetric(4.0, n)
    ax_u, ax_v = dual_frequency_axes(QSignal.zeros(ax, ax))
    rng, ref = CounterRng(7, stream=1), CounterRng(7, stream=1)
    g = random_bandlimited_grid_spectrum(ax_u, ax_v, w_half, rng)
    assert np.array_equal(g, _dense_spectrum(ax_u, ax_v, w_half, ref))
    assert np.array_equal(rng.uniform(3), ref.uniform(3))
    assert np.array_equal(rng.normal(5), ref.normal(5))


def test_bandlimited_spectrum_on_unequal_and_even_axes():
    # an even count has no node at 0, and a band narrower than half a step is empty
    ax_u, ax_v = GridAxis.symmetric(3.0, 40), GridAxis.symmetric(2.0, 17)
    for w_half in (0.01, 0.5, 1.0, 5.0):
        rng, ref = CounterRng(3), CounterRng(3)
        g = random_bandlimited_grid_spectrum(ax_u, ax_v, w_half, rng)
        assert np.array_equal(g, _dense_spectrum(ax_u, ax_v, w_half, ref))
        assert np.array_equal(rng.uniform(3), ref.uniform(3))
    assert not random_bandlimited_grid_spectrum(ax_u, ax_v, 0.01, CounterRng(3)).any()


@pytest.mark.parametrize("ax_u, ax_v", [
    (GridAxis(-3.0, 0.25, 21), GridAxis.symmetric(2.0, 17)),
    (GridAxis.symmetric(2.0, 17), GridAxis(-2.0, 0.25, 20)),
], ids=["u", "v"])
def test_bandlimited_spectrum_on_an_axis_not_symmetric_about_zero_rejected(ax_u, ax_v):
    # index reversal reflects u -> -u only on a symmetric axis; elsewhere the
    # spectrum would not be Hermitian and its components not real
    with pytest.raises(BadParameters):
        random_bandlimited_grid_spectrum(ax_u, ax_v, 1.0, CounterRng(1))
