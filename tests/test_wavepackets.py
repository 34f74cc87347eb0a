"""Grids, packets, and the wave-packet transform."""

import numpy as np
import pytest
from calibrate_constants import packet_constants

from anisospec import frozen
from anisospec.bracket_metric import (MetricParams, delta_par, delta_perp,
                                      distortion_from_eta_norm, jbracket,
                                      phase_point)
from anisospec.errors import ResolutionError
from anisospec.wavepackets import (_BATCH_BYTES, _NORM_POINTS, TWO_PI,
                                   BargmannTransform, TorusGrid, _m_lattice,
                                   _profile0,
                                   _samples_from_profile, band_limited_field,
                                   exact_packet, gaussian_packet,
                                   m_gauss_hermite, packet_norm_sq_continuous)


# -- grids -------------------------------------------------------------------


def test_fcoef_finv_roundtrip():
    g = TorusGrid(1, 32)
    rng = np.random.default_rng(0)
    u = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    assert np.allclose(g.finv(g.fcoef(u)), u, atol=1e-12)
    # fcoef of a pure lattice mode is L^d at that mode
    xg, zg = g.space_grids()
    c = g.fcoef(np.exp(1j * (2 * xg - zg)))
    assert abs(c[2, -1] - g.length**2) < 1e-8
    c[2, -1] = 0.0
    assert np.max(np.abs(c)) < 1e-8


def test_band_limited_field_draw_order():
    """The field of resolution-check and criterion 2, bitwise equal to its
    double loop over (kx, kz) drawing real, then imaginary parts."""
    g = TorusGrid(1, 32, length=np.pi)
    rng = np.random.default_rng(5)
    xg, zg = g.space_grids()
    ref = []
    for _ in range(2):
        u = np.zeros(g.shape, dtype=complex)
        for kx in range(-2, 3):
            for kz in range(-2, 3):
                c = rng.normal() + 1j * rng.normal()
                u += c * np.exp(1j * g.d_eta * (kx * xg + kz * zg))
        ref.append(u)
    rng = np.random.default_rng(5)
    for u in ref:
        assert np.array_equal(band_limited_field(g, 2, rng), u)


# -- m quadrature ------------------------------------------------------------


def test_m_gauss_hermite_constant_regime():
    """Exact against the closed form when the node range stays saturated."""
    p = MetricParams(delta0=0.1, alpha_perp=0.5, alpha_par=0.5)
    for d in (1, 2):
        got = m_gauss_hermite(np.zeros(d), p, d)
        # pi^{d/2} / (dperp^{d-1} dpar), both deltas delta0 when saturated
        assert got == pytest.approx(np.pi ** (d / 2) / p.delta0**d, rel=1e-12)


def test_m_gauss_hermite_vs_lattice(params_half):
    """Cross-check against the full-lattice trapezoid sum (unit spacing)."""
    g = TorusGrid(0, 512)
    tr = BargmannTransform(g, params_half, window=100)
    pts = np.stack(g.freq_grids(), axis=-1)
    m_gh = m_gauss_hermite(pts, params_half, 1)
    m_lat = tr._msqrt**2
    mask = np.abs(g.freqs_1d) <= 150
    rel = np.max(np.abs(m_gh[mask] - m_lat[mask]) / m_lat[mask])
    assert rel <= 0.05


def _m_gauss_hermite_reference(pts, p, d, nodes=32):
    """m_gauss_hermite as one (M, nodes^d, d) temporary and np.linalg.norm,
    every point's node terms summed in one row."""
    t, w = np.polynomial.hermite.hermgauss(nodes)
    logw = np.log(w) + t**2
    en = np.linalg.norm(pts, axis=1)
    scales = np.stack([delta_perp(en, p)] * (d - 1) + [delta_par(en, p)],
                      axis=1)
    offs = np.stack([g.ravel() for g in np.meshgrid(*([t] * d), indexing="ij")],
                    axis=1)
    logww = sum(np.meshgrid(*([logw] * d), indexing="ij")).ravel()
    eta = pts[:, None, :] - offs[None, :, :] / scales[:, None, :]
    en_i = np.linalg.norm(eta, axis=2)
    dp, dl = delta_perp(en_i, p), delta_par(en_i, p)
    q = np.zeros_like(en_i)
    for ax in range(d - 1):
        q += (dp * (eta[..., ax] - pts[:, None, ax])) ** 2
    q += (dl * (eta[..., -1] - pts[:, None, -1])) ** 2
    return np.exp(logww[None, :] - q).sum(axis=1) / np.prod(scales, axis=1)


@pytest.mark.parametrize("d", [2, 3])
def test_m_gauss_hermite_bitwise_per_axis(d):
    """Bitwise the one-temporary reference across several point blocks, and
    each point's value is independent of the other points in the call."""
    count = {2: 520, 3: 42}[d]
    assert count > _BATCH_BYTES // (8 * 32**d)  # more than one block
    rng = np.random.default_rng(d)
    pts = rng.normal(size=(count, d)) * rng.uniform(0.0, 300.0,
                                                    size=(count, 1))
    mask = rng.uniform(size=count) < 0.6
    for p in (MetricParams(1.0, 0.5, 0.5), MetricParams(1.0, 0.6, 0.2)):
        got = m_gauss_hermite(pts, p, d)
        assert np.array_equal(got, _m_gauss_hermite_reference(pts, p, d))
        assert np.array_equal(m_gauss_hermite(pts[mask], p, d), got[mask])


def _m_lattice_dense(g, p):
    """Every lattice center's Gaussian summed over every lattice point."""
    fg = g.freq_grids()
    full = np.stack([f.ravel() for f in fg], axis=1)
    col = (-1,) + (1,) * g.d
    out = np.zeros(g.shape)
    for start in range(0, full.shape[0], 64):
        cs = full[start : start + 64]
        en = np.linalg.norm(cs, axis=1)
        q = np.zeros((cs.shape[0],) + g.shape)
        for ax in range(g.d):
            scale = delta_perp(en, p) if ax < g.n else delta_par(en, p)
            q += (scale.reshape(col) * (fg[ax][None] - cs[:, ax].reshape(col))) ** 2
        out += np.exp(-q).sum(axis=0)
    return out * g.d_eta**g.d


@pytest.mark.parametrize("n, points, length, p", [
    (1, 32, np.pi, MetricParams(1.0, 0.6, 0.2)),
    (0, 256, TWO_PI, MetricParams(1.0, 0.5, 0.5)),
    (2, 16, np.pi, MetricParams(0.5, 0.9, 0.2)),
    (1, 24, 7.3, MetricParams(2.0, 0.7, 0.3)),
])
def test_m_lattice_window_is_bitwise_dense(n, points, length, p):
    """Leaving out the terms below 1e-40 changes no bit of m."""
    g = TorusGrid(n, points, length)
    assert np.array_equal(_m_lattice(g, p), _m_lattice_dense(g, p))


# -- packets -----------------------------------------------------------------


def test_packet_kinds_and_validation(params_half):
    g = TorusGrid(0, 256)
    for packet in (exact_packet, gaussian_packet):
        with pytest.raises(ValueError):
            packet(phase_point(x=[0.0], z=0.0, xi=[0.0], omega=1.0),
                   params_half, g)  # n mismatch


def test_packet_resolution_error(params_half):
    g = TorusGrid(0, 32)
    for packet in (exact_packet, gaussian_packet):
        with pytest.raises(ResolutionError):
            packet(phase_point(z=0.0, omega=400.0), params_half, g)


def test_gaussian_packet_normalized(params_half):
    g = TorusGrid(0, 512)
    pk = gaussian_packet(phase_point(z=1.0, omega=8.0), params_half, g)
    assert g.norm(pk) == pytest.approx(1.0, abs=1e-12)


def test_exact_equals_gaussian_constant_regime():
    """m(eta') constant forces equality up to the cutoff tail (<= 1e-8).

    delta0 = 0.12 keeps the quadrature node range strictly inside the
    saturated-metric region, so m really is constant over the profile.
    """
    p = MetricParams(delta0=0.12, alpha_perp=0.5, alpha_par=0.5)
    g = TorusGrid(1, 256)
    rho = phase_point(x=[3.0], z=3.2, xi=[0.5], omega=-0.5)
    ex = exact_packet(rho, p, g)
    ga = gaussian_packet(rho, p, g)
    assert g.norm(ex - ga) <= 1e-8


def _profile0_reference(grid, eta_centers, p):
    """The dense formula that _profile0 replaced: every square on the full
    frequency meshgrids."""
    fg = grid.freq_grids()
    cs = np.asarray(eta_centers, dtype=float)
    en = [float(np.linalg.norm(eta)) for eta in cs]
    col = (-1,) + (1,) * grid.d
    dp = np.array([delta_perp(e, p) for e in en]).reshape(col)
    dl = np.array([delta_par(e, p) for e in en]).reshape(col)
    q = np.zeros((cs.shape[0],) + grid.shape)
    for ax in range(grid.n):
        q += (dp * (fg[ax] - cs[:, ax].reshape(col))) ** 2
    q += (dl * (fg[-1] - cs[:, -1].reshape(col))) ** 2
    return np.exp(-0.5 * q)


@pytest.mark.parametrize("n, points", [(0, 256), (1, 64), (2, 16)])
def test_profile0_per_axis_is_bitwise(n, points):
    """The per-axis Gaussians are bitwise the dense formula, with unequal
    exponents, for centers at 0, inside the saturated box |eta| < 1 and
    past it."""
    p = MetricParams(delta0=1.0, alpha_perp=0.7, alpha_par=0.5)
    g = TorusGrid(n, points, length=np.pi)
    rng = np.random.default_rng(11)
    cs = np.concatenate([np.zeros((1, g.d)),
                         rng.uniform(-0.5, 0.5, (3, g.d)),
                         rng.uniform(-20.0, 20.0, (4, g.d))])
    assert np.linalg.norm(cs[-4:], axis=1).min() > 1.0
    assert np.array_equal(_profile0(g, cs, p), _profile0_reference(g, cs, p))


@pytest.mark.parametrize("n, points, length, xi, omega", [
    (1, 64, np.pi, [1.0], 2.0),
    (1, 96, TWO_PI, [-4.0], 6.0),
    (0, 2048, TWO_PI, [], 128.0),
])
def test_exact_samples_match_full_grid_m(params_half, n, points, length, xi,
                                         omega):
    """m only where the profile is at least 1e-40 gives the samples of m on
    the whole grid: each m value is independent of the other points, and
    the dropped tail is below rounding."""
    p = params_half
    g = TorusGrid(n, points, length)
    rho = phase_point(x=[1.0] * n, z=2.0, xi=xi, omega=omega)
    fg = g.freq_grids()
    assert 0 < np.count_nonzero(_profile0(g, [rho.eta], p) < 1e-40)
    m = m_gauss_hermite(np.stack(fg, axis=-1), p, g.d)
    prof = _profile0(g, [rho.eta], p)[0] / np.sqrt(m)
    ref = _samples_from_profile(g, rho, prof)
    ex = exact_packet(rho, p, g)
    assert np.max(np.abs(ex - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.fixture(scope="module")
def packets():
    """packet_constants at the centers of criterion 3's subset."""
    return packet_constants(etas=(4.0, 64.0, 1024.0),
                            omegas=(8.0, 32.0, 128.0, 512.0))


def test_exact_gaussian_difference_bounded_by_distortion(packets):
    _, worst, diffs = packets
    assert worst <= frozen.GAUSSIAN_DIFF_C
    assert np.all(np.diff(diffs) < 0)  # decreasing as |eta| grows


def test_packet_norm_defect_scaling(packets):
    """|norm^2 - 1| <= C Delta with one frozen C (subset of criterion 3)."""
    worst, _, _ = packets
    assert worst <= frozen.PACKET_NORM_DEFECT_C


@pytest.mark.parametrize("e", [1.0, 64.0, 1024.0])
def test_packet_norm_mask_matches_full_evaluation(params_half, e):
    """Leaving out m where prof0^2 < 1e-40 moves ||packet||^2 by rounding
    only, against the integrand evaluated at every trapezoid node."""
    p, center = params_half, np.array([e, 0.0])
    dp, dl = delta_perp(e, p), delta_par(e, p)
    axes = [center[0] + np.linspace(-10.0, 10.0, _NORM_POINTS) / dp,
            center[1] + np.linspace(-10.0, 10.0, _NORM_POINTS) / dl]
    xi, om = np.meshgrid(*axes, indexing="ij")
    g2 = np.exp(-(dp * (xi - center[0])) ** 2 - (dl * (om - center[1])) ** 2)
    assert np.count_nonzero(g2 < 1e-40) > 0.2 * g2.size
    vals = g2 / m_gauss_hermite(np.stack([xi, om], axis=-1), p, 2)
    full = np.trapezoid(np.trapezoid(vals, axes[1], axis=1), axes[0])
    got = packet_norm_sq_continuous(center, p)
    assert got == pytest.approx(full, rel=1e-13, abs=0.0)


def test_packet_spatial_decay_exponent(params_half):
    """|phi(y')| <= C_N <dist>^-N with fitted N >= 6 at distance >= 3."""
    g = TorusGrid(0, 1024)
    rho = phase_point(z=np.pi, omega=16.0)
    ex = exact_packet(rho, params_half, g)
    dl = delta_par(rho.eta_norm, params_half)
    dz = (g.axis - rho.z + np.pi) % (2 * np.pi) - np.pi
    dist = np.abs(dz) / dl
    mask = (dist >= 3.0) & (dist <= 5.0)
    n_fit = -np.polyfit(np.log(jbracket(dist[mask])),
                        np.log(np.abs(ex[mask])), 1)[0]
    assert n_fit >= 6.0


def test_packet_frequency_decay_exponent(params_half):
    g = TorusGrid(0, 1024)
    rho = phase_point(z=np.pi, omega=16.0)
    ex = exact_packet(rho, params_half, g)
    fhat = g.fcoef(ex)
    dl = delta_par(rho.eta_norm, params_half)
    dist = np.abs(g.freqs_1d - rho.omega) * dl
    mask = (dist >= 3.0) & (dist <= 5.0)
    n_fit = -np.polyfit(np.log(jbracket(dist[mask])),
                        np.log(np.abs(fhat[mask]) + 1e-300), 1)[0]
    assert n_fit >= 6.0


# -- transform ---------------------------------------------------------------


def test_forward_of_packet_is_near_one(circle_transform):
    """|B phi_rho0 (rho0)| = ||phi_rho0||^2 = 1 + O(Delta)."""
    tr = circle_transform
    rho = phase_point(z=2.0, omega=6.0)
    pk = tr.packet_samples(rho)
    val = abs(tr.forward_at(pk, [rho])[0])
    delta = distortion_from_eta_norm(rho.eta_norm, tr.p)
    assert abs(val - 1.0) <= frozen.PACKET_NORM_DEFECT_C * delta + 1e-6


def test_forward_of_zero_is_zero(circle_transform):
    u = np.zeros(circle_transform.grid.shape, dtype=complex)
    rho = phase_point(z=1.0, omega=4.0)
    assert np.all(circle_transform.forward_at(u, [rho]) == 0.0)
    # B* B applied to zero is zero
    assert np.all(circle_transform.op_apply(u) == 0.0)


def test_forward_at_rejects_other_dimension(circle_transform,
                                            torus_transform):
    """A phase point of another dimension than the grid's is a ValueError,
    not a point read with its coordinates shifted."""
    u = np.exp(3j * circle_transform.grid.axis)
    with pytest.raises(ValueError):
        circle_transform.forward_at(
            u, [phase_point(x=[0.1], z=0.3, xi=[0.0], omega=3.0)])
    v = np.ones(torus_transform.grid.shape, dtype=complex)
    with pytest.raises(ValueError):
        torus_transform.forward_at(v, [phase_point(z=0.3, omega=3.0)])


def test_plane_wave_profile(circle_transform):
    """|B e^{i om0 z}| peaks at om0 with the Gaussian-overlap profile
    exp(-D^2/2) at probe-scale offsets D (hand-integrated oracle)."""
    from scipy.optimize import brentq
    tr = circle_transform
    g = tr.grid
    om0 = 10.0
    u = np.exp(1j * om0 * g.axis)
    peak = abs(tr.forward_at(u, [phase_point(z=1.0, omega=om0)])[0])
    lower = abs(tr.forward_at(u, [phase_point(z=1.0, omega=om0 - 0.7)])[0])
    assert peak > lower
    for d_off in (1.0, 2.0):
        omp = brentq(lambda om: delta_par(abs(om), tr.p) * (om - om0) - d_off,
                     om0, om0 + 1000.0)
        meas = abs(tr.forward_at(u, [phase_point(z=1.0, omega=omp)])[0]) / peak
        assert meas == pytest.approx(np.exp(-d_off**2 / 2.0), rel=1e-6)


def test_resolution_of_identity_bandlimited(torus_transform):
    tr = torus_transform
    g = tr.grid
    u = band_limited_field(g, 2, np.random.default_rng(3))
    rec = tr.op_apply(u)
    assert np.linalg.norm(rec - u) / np.linalg.norm(u) <= 1e-3


def test_forward_at_matches_forward_field_on_lattice(torus_transform):
    """B u as packet inner products agrees on the lattice with the field of
    one center by FFT: (2 pi)^(d/2) finv(prof fcoef(u)) e^{-i eta.y}."""
    tr = torus_transform
    g = tr.grid
    rng = np.random.default_rng(6)
    u = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    sg = g.space_grids()
    for i, j, l in ((0, 0, 0), (100, 5, 17), (144, 63, 2), (288, 30, 40)):
        eta = tr.centers[i]
        field = TWO_PI ** (g.d / 2.0) * g.finv(tr.profile(eta) * g.fcoef(u)) \
            * np.exp(-1j * (eta[0] * sg[0] + eta[1] * sg[1]))
        rho = phase_point(x=[g.axis[j]], z=g.axis[l], xi=[eta[0]],
                          omega=eta[1])
        assert abs(tr.forward_at(u, [rho])[0] - field[j, l]) \
            <= 1e-12 * np.max(np.abs(field))


def test_kernel_batches_do_not_change_results(torus_transform):
    """Results are bitwise those of a per-center loop, whatever the batches."""
    tr = torus_transform
    g = tr.grid
    assert _BATCH_BYTES // (16 * g.points**g.d) < len(tr.centers)
    rng = np.random.default_rng(7)
    u = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    # the per-center anti-Wick loop the kernel replaced, as the reference
    sg = g.space_grids()
    symbol = lambda sg, eta: np.cos(sg[0]) * np.exp(-(eta[-1] / 6.0) ** 2)
    uhat = g.fcoef(u)
    acc = np.zeros(g.shape, dtype=complex)
    for eta in tr.centers:
        prof = tr.profile(eta)
        v = TWO_PI ** (g.d / 2.0) * g.finv(prof * uhat) * symbol(sg, eta)
        acc += prof * g.fcoef(v)
    ref = g.d_eta**g.d / TWO_PI**g.d * TWO_PI ** (g.d / 2.0) * g.finv(acc)
    assert np.array_equal(tr.op_apply(u, symbol), ref)


@pytest.mark.parametrize("fixture", ["torus_transform", "circle_transform"])
def test_nested_windows_are_bitwise(fixture, request):
    """One pass over the transform's centers gives, for each sub-window,
    bitwise the result of a transform built at that window alone: windows
    unsorted, repeated, 0 and a per-axis tuple."""
    tr = request.getfixturevalue(fixture)
    g = tr.grid
    top = tr.window[0]
    windows = [5, 0, top, 3, 5, (top,) + (2,) * (g.d - 1)]
    separate = [BargmannTransform(g, tr.p, w) for w in windows]
    rng = np.random.default_rng(12)
    u = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    symbol = lambda sg, eta: np.cos(sg[0]) * np.exp(-(eta[-1] / 6.0) ** 2)
    for sym in (None, symbol):
        nested = tr.op_apply(u, sym, windows=windows)
        assert len(nested) == len(windows)
        for got, one in zip(nested, separate):
            assert np.array_equal(got, one.op_apply(u, sym))
    nested = tr.identity_symbol_sum(windows=windows)
    assert len(nested) == len(windows)
    for got, one in zip(nested, separate):
        assert np.array_equal(got, one.identity_symbol_sum())
    with pytest.raises(ValueError):
        tr.op_apply(u, windows=[3, top + 1])
    with pytest.raises(ValueError):
        tr.identity_symbol_sum(windows=[(top,) * g.d + (1,)])


@pytest.mark.parametrize("fixture", ["torus_transform", "circle_transform"])
def test_op_adjoint_is_conjugate_symbol_on_fields(fixture, request):
    """<v, Op(a) u> = <Op(conj a) v, u> for full-spectrum random fields and a
    complex symbol that depends on y and eta."""
    tr = request.getfixturevalue(fixture)
    g = tr.grid
    rng = np.random.default_rng(13)
    u, v = (rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
            for _ in range(2))
    a = lambda sg, eta: (1.0 + 0.5 * np.cos(sg[0]) + 0.7j * np.sin(sg[-1])) \
        * np.exp(1j * eta[-1] / 5.0 - (eta[0] / 8.0) ** 2)
    ca = lambda sg, eta: np.conj(a(sg, eta))
    lhs = g.inner(v, tr.op_apply(u, a))
    rhs = g.inner(tr.op_apply(v, ca), u)
    assert abs(lhs - rhs) <= 1e-12 * g.norm(u) * g.norm(v)
    # the check can fail: the unconjugated symbol moves the pairing
    assert abs(g.inner(tr.op_apply(v, a), u) - lhs) > 1e-3 * abs(lhs)


@pytest.mark.parametrize("fixture", ["torus_transform", "circle_transform"])
def test_identity_op_apply_is_fourier_multiplier(fixture, request):
    """With the identity symbol, the batched kernel B*B is the Fourier
    multiplier identity_symbol_sum, which criterion 2 uses in its place."""
    tr = request.getfixturevalue(fixture)
    g = tr.grid
    rng = np.random.default_rng(9)
    u = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    ref = g.finv(tr.identity_symbol_sum() * g.fcoef(u))
    assert np.linalg.norm(tr.op_apply(u) - ref) <= 1e-14 * np.linalg.norm(ref)


def test_identity_symbol_sum_near_one_on_band(torus_transform):
    s = torus_transform.identity_symbol_sum()
    # lattice modes |k| <= 2 sit deep inside the window
    assert abs(s[1, 2] - 1.0) <= 1e-3
    assert abs(s[0, 0] - 1.0) <= 1e-3


def test_mode_count_trace(circle_transform):
    """sum over a frequency band of ||phi||^2 cell/(2 pi)^d ~ # band modes.

    The band sits away from |eta| ~ 0, where the distortion is O(1) and the
    packet norms legitimately deviate from 1.
    """
    tr = circle_transform
    norms = tr.packet_norm_sq()
    band = (np.abs(tr.centers[:, 0]) >= 6.0) & (np.abs(tr.centers[:, 0]) <= 14.0)
    n_modes = int(np.count_nonzero(band))
    # the y-sum contributes L, and cell/(2 pi)^d has L Delta_eta/(2 pi) = 1
    total = float(np.sum(norms[band]))
    assert n_modes >= 10
    assert total == pytest.approx(n_modes, rel=0.05)


def test_phase_window_guard(params_half):
    g = TorusGrid(0, 64)
    with pytest.raises(ResolutionError):
        BargmannTransform(g, params_half, window=40)


@pytest.mark.parametrize("window", [(2, 3, 4), (3,), -1, 2.7, (3, 1.5), 1.9,
                                    float("inf"), float("nan")])
def test_malformed_window_rejected(torus_transform, window):
    """A window has one non-negative integer entry per axis, for the
    transform and for its sub-windows alike; a non-integer entry is not
    truncated."""
    tr = torus_transform
    with pytest.raises(ValueError):
        BargmannTransform(tr.grid, tr.p, window=window)
    with pytest.raises(ValueError):
        tr.identity_symbol_sum(windows=[window])
