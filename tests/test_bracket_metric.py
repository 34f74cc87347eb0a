"""Bracket arithmetic, metric evaluations, and the fuzzed inequality suite."""

import numpy as np
import pytest
from calibrate_constants import gdist_equivalence, metric_temperate
from hypothesis import given
from hypothesis import strategies as st

from anisospec import frozen
from anisospec.bracket_metric import (MetricParams, box_sizes, delta_par,
                                      delta_perp, distortion_from_eta_norm,
                                      fit_power_constant, frequency_norm,
                                      g_dist, g_dist_periodic, g_norm,
                                      jbracket, phase_point)

finite = st.floats(min_value=-1e8, max_value=1e8,
                   allow_nan=False, allow_infinity=False)


def test_jbracket_values():
    assert jbracket(0.0) == 1.0
    assert jbracket(1.0) == pytest.approx(1.4142135623730951, abs=0)
    # <s> ~ |s| for |s| >> 1
    assert jbracket(1e6) == pytest.approx(1e6, rel=1e-6)


@given(finite, finite)
def test_jbracket_monotone_and_bounded(s, t):
    assert jbracket(s) >= 1.0
    if abs(s) <= abs(t):
        assert jbracket(s) <= jbracket(t)


def test_metric_params_validation():
    MetricParams(1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        MetricParams(0.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        MetricParams(np.inf, 0.5, 0.0)   # an unbounded zero-frequency box
    with pytest.raises(ValueError):
        MetricParams(1.0, 0.4, 0.0)      # alpha_perp below 1/2
    with pytest.raises(ValueError):
        MetricParams(1.0, 1.0, 0.0)      # alpha_perp must be < 1
    with pytest.raises(ValueError):
        MetricParams(1.0, 0.6, 0.7)      # alpha_par > alpha_perp


@given(st.floats(min_value=0.5, max_value=0.99),
       st.floats(min_value=0.0, max_value=1.0))
def test_metric_params_hypothesis(ap, frac):
    p = MetricParams(1.0, ap, frac * ap)
    assert 0.0 <= p.alpha_par <= p.alpha_perp < 1.0


def test_delta_examples():
    p = MetricParams(delta0=0.5, alpha_perp=0.5, alpha_par=0.0)
    assert delta_perp(0.0, p) == 0.5          # min with +inf
    p1 = MetricParams(delta0=1.0, alpha_perp=0.5, alpha_par=0.0)
    assert delta_perp(4.0, p1) == pytest.approx(0.5)   # 4^{-1/2} by hand
    # monotone decreasing to 0 at infinity
    etas = np.logspace(0, 8, 30)
    vals = delta_perp(etas, p1)
    assert np.all(np.diff(vals) <= 0) and vals[-1] < 1e-3


def test_g_norm_examples(params_half):
    rho = phase_point(x=[0.0], z=0.0, xi=[0.0], omega=0.0)
    p_unit = MetricParams(1.0, 0.5, 0.0)
    assert g_norm(rho, np.zeros(4), p_unit) == 0.0
    # delta = 1 regime: euclidean
    assert g_norm(rho, [1.0, 0.0, 0.0, 0.0], p_unit) == pytest.approx(1.0)
    # hand oracle: omega=16, alpha_perp=0.5 -> dperp = 0.25, |v_x|/dperp = 4
    rho16 = phase_point(x=[0.0], z=0.0, xi=[0.0], omega=16.0)
    assert g_norm(rho16, [1.0, 0.0, 0.0, 0.0], p_unit) == pytest.approx(4.0)


def test_g_norm_dimension_mismatch(params_half):
    rho = phase_point(x=[0.0], z=0.0, xi=[0.0], omega=0.0)
    with pytest.raises(ValueError):
        g_norm(rho, np.zeros(6), params_half)
    with pytest.raises(ValueError):
        g_norm(np.stack([rho, rho]), np.zeros((2, 2)), params_half)
    for dist in (g_dist, lambda a, b, p: g_dist_periodic(a, b, p, 1.0)):
        with pytest.raises(ValueError):
            dist(rho, phase_point(z=0.5, omega=1.0), params_half)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_g_norm_on_a_stack_equals_its_rows(n, params_half):
    """g_norm, g_dist and g_dist_periodic over the leading axes of (N, 2n+2)
    rows give, bit for bit, their per-row scalar values."""
    rng = np.random.default_rng(n)
    rho = rng.normal(scale=20.0, size=(12, 2 * n + 2))
    v = rng.normal(size=(12, 2 * n + 2))
    center = rng.normal(scale=20.0, size=2 * n + 2)
    stacked = g_norm(rho, v, params_half)
    assert stacked.shape == (12,)
    assert np.array_equal(stacked, [g_norm(r, w, params_half)
                                    for r, w in zip(rho, v)])
    assert all(isinstance(g_norm(r, w, params_half), float)
               for r, w in zip(rho, v))
    assert np.array_equal(g_norm(rho.reshape(3, 4, -1), v.reshape(3, 4, -1),
                                 params_half), stacked.reshape(3, 4))
    assert np.array_equal(g_dist(rho, center, params_half),
                          [g_dist(r, center, params_half) for r in rho])
    assert np.array_equal(
        g_dist_periodic(rho, center, params_half, 2.0),
        [g_dist_periodic(r, center, params_half, 2.0) for r in rho])


def test_g_dist_examples(params_half):
    a = phase_point(x=[0.2], z=0.1, xi=[3.0], omega=1.0)
    assert g_dist(a, a, params_half) == 0.0
    # pure z-shift by dpar(eta) has distance exactly 1
    dl = delta_par(frequency_norm(a), params_half)
    b = phase_point(x=[0.2], z=0.1 + dl, xi=[3.0], omega=1.0)
    assert g_dist(a, b, params_half) == pytest.approx(1.0)


def test_g_dist_asymmetric_but_equivalent():
    """<d(b,a)> <= C <d(a,b)>^N on samples, with the frozen (C, N)."""
    worst, d_ab, d_ba = gdist_equivalence(n=2000, seed=0)
    assert np.any(np.abs(d_ab - d_ba) > 0.1 * np.maximum(d_ab, d_ba))
    assert worst <= frozen.GDIST_EQUIV_C


def test_distortion_examples():
    p = MetricParams(1.0, 0.5, 0.0)
    assert distortion_from_eta_norm(0.0, p) == pytest.approx(1.0)
    # hand oracle: 256^{-1/2} = 1/16
    rho = phase_point(x=[0.0], z=0.0, xi=[0.0], omega=256.0)
    assert distortion_from_eta_norm(frequency_norm(rho), p) \
        == pytest.approx(0.0625)
    # Delta decreases as delta0 decreases at fixed rho
    small = MetricParams(0.3, 0.5, 0.0)
    rho1 = phase_point(x=[0.0], z=0.0, xi=[1.0], omega=0.0)
    assert distortion_from_eta_norm(frequency_norm(rho1), small) \
        < distortion_from_eta_norm(frequency_norm(rho1), p)


def test_metric_moderate_temperate_frozen():
    """eq-style moderate/temperate bound with the frozen (C, N) pairs."""
    worst = metric_temperate(n=3000, seed=1)
    for gamma, (c_frozen, _) in frozen.METRIC_TEMPERATE.items():
        assert worst[gamma] <= c_frozen, (gamma, worst[gamma])


def test_phase_point_roundtrip():
    """A phase point is the flat float row (x, z, xi, omega); its slices
    build the same row again."""
    rho = phase_point(x=[1.0, 2.0], z=3.0, xi=[4.0, 5.0], omega=6.0)
    assert rho.dtype == float
    assert np.array_equal(rho, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    back = phase_point(x=rho[:2], z=rho[2], xi=rho[3:5], omega=rho[5])
    assert np.array_equal(back, rho)
    assert frequency_norm(rho) == pytest.approx(np.sqrt(16 + 25 + 36))
    assert np.array_equal(phase_point(z=1.0, omega=2.0), [1.0, 2.0])
    with pytest.raises(ValueError):
        phase_point(x=[1.0, 2.0], xi=[4.0])


def test_fit_power_constant():
    ratios = np.array([2.0, 8.0])
    brackets = np.array([1.0, 2.0])
    assert fit_power_constant(ratios, brackets, 3.0) == pytest.approx(2.0)


class TestInequalityFuzz:
    """The Appendix-C inequality suite at full proof constants (also run as
    acceptance criterion 4; retained here per-inequality for diagnosis)."""

    rng = np.random.default_rng(42)
    n = 100_000
    s = rng.standard_cauchy(n) * 10.0
    t = rng.standard_cauchy(n) * 10.0

    def test_sum(self):
        assert np.all(jbracket(self.s + self.t)
                      <= jbracket(self.s) + jbracket(self.t))

    def test_prod(self):
        lhs = jbracket(self.s * self.t)
        rhs = jbracket(self.s) * jbracket(self.t)
        assert np.all(lhs <= rhs * (1 + 1e-14))

    def test_prod2(self):
        s = np.where(self.s == 0.0, 1.0, self.s)
        lhs = jbracket(self.t / s)
        rhs = jbracket(s) ** (-1.0) * jbracket(self.t)
        assert np.all(lhs >= rhs * (1 - 1e-14))

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.7, 0.9])
    def test_power(self, theta):
        lhs = jbracket(self.s) ** theta
        mid = jbracket(np.abs(self.s) ** theta)
        rhs = np.sqrt(2.0) * jbracket(self.s) ** theta
        assert np.all(lhs <= mid * (1 + 1e-14))
        assert np.all(mid <= rhs * (1 + 1e-14))

    def test_jb1(self):
        lhs = jbracket(self.t) / jbracket(self.s)
        mid = 2.0 * jbracket((self.t - self.s) / jbracket(self.s))
        rhs = 2.0 * jbracket(self.t - self.s)
        assert np.all(lhs <= mid * (1 + 1e-14))
        assert np.all(mid <= rhs * (1 + 1e-14))

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.7, 0.9])
    def test_jb2(self, theta):
        c = 4.0 ** (1.0 / (1.0 - theta))
        lhs = jbracket(self.t) / jbracket(self.s)
        rhs = c * jbracket(np.abs(self.t - self.s)
                           / jbracket(self.t) ** theta) ** (1.0 / (1.0 - theta))
        assert np.all(lhs <= rhs * (1 + 1e-14))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_box_sizes_per_axis(d):
    """box_sizes is dperp on the d - 1 transverse axes and dpar on the last,
    bit for bit, for one norm and for an array of them."""
    p = MetricParams(1.0, 0.6, 0.3)
    for en in (7.5, np.array([[0.0, 0.5], [3.0, 1e300]])):
        want = np.stack([delta_perp(en, p)] * (d - 1) + [delta_par(en, p)],
                        axis=-1)
        got = box_sizes(en, p, d)
        assert got.shape == np.shape(en) + (d,)
        assert np.array_equal(got, want)
    assert box_sizes(7.5, p, 1).tolist() == [delta_par(7.5, p)]
