"""Grids, packets, and the wave-packet transform."""

import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from calibrate_constants import packet_constants

from anisospec import frozen, wavepackets
from anisospec.bracket_metric import (MetricParams, box_sizes, delta_par,
                                      delta_perp,
                                      distortion_from_eta_norm, frequency_norm,
                                      jbracket, phase_point)
from anisospec.cli import RESOLUTION_DEFAULTS
from anisospec.errors import ResolutionError
from anisospec.quantize import BandSubspace
from anisospec.wavepackets import (_GAUSS_CUT, _NODE_BLOCK_BYTES,
                                   _NORM_POINTS, TWO_PI,
                                   BargmannTransform, TorusGrid, _m_lattice,
                                   _profile0,
                                   _samples_from_profile, band_coefficients,
                                   band_limited_field, exact_packet,
                                   field_norm, gaussian_packet, lattice_cube,
                                   m_gauss_hermite, packet_norm_sq_continuous,
                                   window_tails)


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


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="one core: BLAS runs one thread whatever is asked")
def test_inner_and_norm_independent_of_blas_threads():
    """TorusGrid.inner, TorusGrid.norm and the band coefficients of
    BandSubspace.from_grid on a 128^2 field pair give the same bits under 1
    and 2 BLAS threads: they must not reduce through a threaded BLAS dot."""
    code = ("import numpy as np\n"
            "from anisospec.quantize import BandSubspace\n"
            "from anisospec.wavepackets import TorusGrid\n"
            "g = TorusGrid(1, 128)\n"
            "rng = np.random.default_rng(0)\n"
            "f, u = (rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)"
            " for _ in range(2))\n"
            "print(repr(g.inner(f, u)), repr(g.norm(f)), repr(g.norm(u)))\n"
            "print(BandSubspace(g, 2).from_grid(u).tolist())\n")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    printed = []
    for threads in ("1", "2"):
        env = {**os.environ, **dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
            threads)}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        printed.append(subprocess.run(
            [sys.executable, "-c", code], env=env, check=True,
            capture_output=True, text=True).stdout)
    assert printed[0] == printed[1]


def test_band_limited_field_draw_order():
    """The field of resolution-check, bitwise equal to its double loop over
    (kx, kz) drawing real, then imaginary parts; band_coefficients, which
    criterion 2 draws, gives that loop's coefficients bitwise.  The loop's
    c * exp(...) is taken as written on 32^2, and in the temporary exp(...)
    as exp(...) * c from 256 KiB a mode (128^2) on: complex products are
    not bitwise commutative, so the field must match at both sizes."""
    for points in (32, 128):
        g = TorusGrid(1, points, length=np.pi)
        rng = np.random.default_rng(5)
        xg, zg = g.space_grids()
        ref, coefs = [], []
        for _ in range(2):
            u = np.zeros(g.shape, dtype=complex)
            for kx in range(-2, 3):
                for kz in range(-2, 3):
                    c = rng.normal() + 1j * rng.normal()
                    u += c * np.exp(1j * g.d_eta * (kx * xg + kz * zg))
                    coefs.append(c)
            ref.append(u)
        rng = np.random.default_rng(5)
        for u in ref:
            assert np.array_equal(band_limited_field(g, 2, rng), u), points
        rng = np.random.default_rng(5)
        drawn = [band_coefficients(g, 2, rng) for _ in ref]
        assert np.array_equal(np.concatenate(drawn), np.array(coefs))


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


def _node_delta(en_i, p, alpha, delta):
    """min(delta0, |eta|^-alpha) as m_gauss_hermite takes it at its nodes:
    the exponent 1/2 as 1/sqrt, any other by delta's power."""
    if alpha != 0.5:
        return delta(en_i, p)
    with np.errstate(divide="ignore"):
        return np.minimum(p.delta0, 1.0 / np.sqrt(en_i))


def _m_gauss_hermite_reference(pts, p, d, nodes=32, half_power=True):
    """m_gauss_hermite as one (M, nodes^d, d) temporary and np.linalg.norm,
    every point's node terms summed in one row; half_power False takes the
    node deltas by delta_perp and delta_par, the ** form."""
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
    if half_power:
        dp = _node_delta(en_i, p, p.alpha_perp, delta_perp)
        dl = _node_delta(en_i, p, p.alpha_par, delta_par)
    else:
        dp, dl = delta_perp(en_i, p), delta_par(en_i, p)
    q = np.zeros_like(en_i)
    for ax in range(d - 1):
        q += (dp * (eta[..., ax] - pts[:, None, ax])) ** 2
    q += (dl * (eta[..., -1] - pts[:, None, -1])) ** 2
    return np.exp(logww[None, :] - q).sum(axis=1) / np.prod(scales, axis=1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_m_gauss_hermite_bitwise_per_axis(d):
    """Bitwise the one-temporary reference across several point blocks, and
    each point's value is independent of the other points in the call.
    Taking |eta|^-1/2 as 1/sqrt moves m from the ** form by rounding only,
    and an exponent other than 1/2 keeps the ** form bit for bit."""
    count = {1: 2100, 2: 520, 3: 42}[d]
    assert count > _NODE_BLOCK_BYTES // (8 * 32**d)  # more than one block
    rng = np.random.default_rng(d)
    pts = rng.normal(size=(count, d)) * rng.uniform(0.0, 300.0,
                                                    size=(count, 1))
    pts[0] = 0.0  # the power |eta|^-alpha is +inf at eta = 0
    mask = rng.uniform(size=count) < 0.6
    for p in (MetricParams(1.0, 0.5, 0.5), MetricParams(1.0, 0.6, 0.2)):
        got = m_gauss_hermite(pts, p, d)
        assert np.array_equal(got, _m_gauss_hermite_reference(pts, p, d))
        assert np.array_equal(m_gauss_hermite(pts[mask], p, d), got[mask])
        power = _m_gauss_hermite_reference(pts, p, d, half_power=False)
        if p.alpha_par == 0.5:
            assert np.max(np.abs(got - power) / power) <= 1e-15
        else:
            assert np.array_equal(got, power)


@pytest.mark.parametrize("d, count", [(2, 2000), (3, 50)])
def test_m_gauss_hermite_peak_memory(d, count):
    """The reused node buffers bound the kernel's peak allocation at
    criterion 3's metric (1.67/1.82 MiB here), whatever the point count."""
    pts = np.random.default_rng(d).normal(size=(count, d)) * 100.0
    tracemalloc.start()
    try:
        m_gauss_hermite(pts, MetricParams(1.0, 0.5, 0.5), d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20, peak


def test_op_apply_peak_memory():
    """At resolution-check's 128^2 grid and windows, the kernel's batch
    buffers, allocated once per call and released before the final inverse
    FFTs, keep op_apply's peak allocation at 3.6 MiB here; kept through
    those FFTs they took 4.51 MiB, and fresh arrays at every step of every
    batch 7.0 MiB."""
    g = TorusGrid(1, 128, np.pi)
    tr = BargmannTransform(g, MetricParams(1.0, 0.5, 0.5), 14)
    u = band_limited_field(g, 2, np.random.default_rng(5))
    tracemalloc.start()
    try:
        tr.op_apply(u, windows=[7, 10, 14])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2**20, peak


def test_window_tails_peak_memory():
    """At criterion 2's config (128^2, the 25 modes of band 2, windows
    7/10/14) window_tails walks the centers in chunks: 1.46 MiB of peak
    allocation here.  One chunk of all 16384 centers took 7.3 MiB."""
    g = TorusGrid(1, 128, np.pi)
    modes = lattice_cube(g, 2)
    tracemalloc.start()
    try:
        window_tails(g, MetricParams(1.0, 0.5, 0.5), modes, (7, 10, 14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20, peak


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
    # criteria 9 and 10's grids
    (0, 512, TWO_PI, MetricParams(1.0, 0.5, 0.5)),
    (0, 2048, 1.0, MetricParams(1.0, 0.5, 0.5)),
])
def test_m_lattice_window_is_bitwise_dense(n, points, length, p):
    """Leaving out the terms below _GAUSS_CUT changes no bit of m.  The
    128^2 grid of length pi that criterion 2 and resolution-check build
    takes seconds densely; CI checks it."""
    g = TorusGrid(n, points, length)
    assert np.array_equal(_m_lattice(g, p), _m_lattice_dense(g, p))


def test_m_lattice_cut_1e17_moves_bits(monkeypatch):
    """The margin of _GAUSS_CUT is measured: at 1e-17 the boxes leave out
    terms that round some sums of m differently from the dense sum."""
    monkeypatch.setattr(wavepackets, "_GAUSS_CUT", 1e-17)
    g, p = TorusGrid(0, 256), MetricParams(1.0, 0.5, 0.5)
    assert not np.array_equal(_m_lattice(g, p), _m_lattice_dense(g, p))


def test_m_lattice_peak_memory():
    """At the 128^2 grid of criterion 2 and resolution-check, sub-batches of
    8 centers keep the build's peak allocation at 1.4 MiB here; one window
    for all 64 centers of a chunk would take about 8 MiB."""
    g = TorusGrid(1, 128, np.pi)
    tracemalloc.start()
    try:
        _m_lattice(g, MetricParams(1.0, 0.5, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2**20, peak


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
    """m only where the profile is at least _GAUSS_CUT gives the samples of
    m on the whole grid: each m value is independent of the other points,
    and the dropped tail is below rounding."""
    p = params_half
    g = TorusGrid(n, points, length)
    rho = phase_point(x=[1.0] * n, z=2.0, xi=xi, omega=omega)
    fg = g.freq_grids()
    assert 0 < np.count_nonzero(_profile0(g, [rho[g.d:]], p) < _GAUSS_CUT)
    m = m_gauss_hermite(np.stack(fg, axis=-1), p, g.d)
    prof = _profile0(g, [rho[g.d:]], p)[0] / np.sqrt(m)
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


def _norm_nodes(center, p, points=_NORM_POINTS):
    """The box sizes at the center and the trapezoid axes of
    packet_norm_sq_continuous: offsets symmetric about the center."""
    sizes = box_sizes(float(np.linalg.norm(center)), p, len(center))
    offsets = (np.arange(points) - points // 2) * (20.0 / (points - 1))
    return sizes, [c + offsets / s for c, s in zip(center, sizes)]


@pytest.mark.parametrize("center, points", [
    pytest.param((1.0, 0.0), _NORM_POINTS, id="1.0"),
    pytest.param((64.0, 0.0), _NORM_POINTS, id="64.0"),
    pytest.param((1024.0, 0.0), _NORM_POINTS, id="1024.0"),
    pytest.param((64.0,), _NORM_POINTS, id="1d"),
    # 97^3 nodes of 32^3 Gauss-Hermite terms each take minutes; 17 per
    # axis keep the symmetric grid and the cut corners
    pytest.param((64.0, 0.0, 0.0), 17, id="3d"),
    pytest.param((3.0, 5.0), _NORM_POINTS, id="off_axis"),
])
def test_packet_norm_mask_matches_full_evaluation(params_half, monkeypatch,
                                                  center, points):
    """Leaving out m where prof0^2 < _GAUSS_CUT, and taking one m per mirror
    pair of nodes, moves ||packet||^2 by rounding only, against the
    integrand evaluated at every trapezoid node."""
    monkeypatch.setattr(wavepackets, "_NORM_POINTS", points)
    p, center = params_half, np.array(center)
    d = center.size
    sizes, axes = _norm_nodes(center, p, points)
    mesh = np.meshgrid(*axes, indexing="ij")
    g2 = np.exp(-sum((s * (m - c)) ** 2 for s, m, c in zip(sizes, mesh,
                                                            center)))
    # the cut drops 32 of the 97 nodes of a 1-D axis, 64 % of the 2-D
    # nodes and 86 % of the 3-D ones
    assert np.count_nonzero(g2 < _GAUSS_CUT) > (0.3 if d == 1 else 0.6) \
        * g2.size
    vals = g2 / m_gauss_hermite(np.stack(mesh, axis=-1), p, d)
    for ax in reversed(range(d)):
        vals = np.trapezoid(vals, axes[ax], axis=ax)
    got = packet_norm_sq_continuous(center, p)
    assert got == pytest.approx(float(vals), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("eta", [1.0, 32.0, 1024.0])
def test_packet_norm_cut_keeps_bits_of_1e40(params_half, monkeypatch, eta):
    """At criterion 3's centers the terms between 1e-40 and _GAUSS_CUT move
    no bit of ||packet||^2."""
    center = np.array([eta, 0.0])
    got = packet_norm_sq_continuous(center, params_half)
    monkeypatch.setattr(wavepackets, "_GAUSS_CUT", 1e-40)
    assert packet_norm_sq_continuous(center, params_half) == got


def test_packet_norm_one_m_per_mirror_pair(params_half, monkeypatch):
    """At an on-axis 2-D center, m_gauss_hermite receives each kept node
    with omega' >= 0 once, and no other: along omega' the trapezoid is
    symmetric about 0 and m is even, so the kept nodes with omega' < 0 take
    their mirrors' values: at most 49 of the 97 nodes of a column.  (The
    cut keeps at most 65 nodes of a column, 33 of them with omega' >= 0, so
    m gets 33/65 of the kept points or a little more.)"""
    seen = []

    def spy(pts, p, d):
        seen.append(np.array(pts))
        return m_gauss_hermite(pts, p, d)

    monkeypatch.setattr(wavepackets, "m_gauss_hermite", spy)
    p, center = params_half, np.array([64.0, 0.0])
    sizes, axes = _norm_nodes(center, p)
    xi, om = np.meshgrid(*axes, indexing="ij")
    keep = np.exp(-(sizes[0] * (xi - 64.0)) ** 2 - (sizes[1] * om) ** 2) \
        >= _GAUSS_CUT
    packet_norm_sq_continuous(center, p)
    (pts,) = seen
    half = keep & (om >= 0.0)
    assert len(pts) == np.count_nonzero(half)
    assert 2 * len(pts) == np.count_nonzero(keep) \
        + np.count_nonzero(keep & (om == 0.0))
    assert np.count_nonzero(half, axis=1).max() <= 49
    # m is even in xi' too: the nodes left of xi' = 0 go in as |xi'|
    assert set(map(tuple, pts)) == set(zip(np.abs(xi[half]), om[half]))


@pytest.mark.parametrize("center", [
    pytest.param(4.0, id="scalar"),
    pytest.param((np.inf, 0.0), id="inf"),
    pytest.param((np.nan, 0.0), id="nan"),
    pytest.param((1e300, 0.0), id="overflow"),
    pytest.param((1e100, 0.0), id="collapsed_nodes"),
    pytest.param((), id="empty"),
    pytest.param(((1.0, 0.0),), id="2d_array"),
])
def test_packet_norm_bad_center_rejected(params_half, center):
    """A center that is not a finite 1-D vector, or whose nodes collapse or
    overflow in float64, is a ValueError: no warning, no nan."""
    with pytest.raises(ValueError, match="center"):
        packet_norm_sq_continuous(center, params_half)


def test_packet_spatial_decay_exponent(params_half):
    """|phi(y')| <= C_N <dist>^-N with fitted N >= 6 at distance >= 3."""
    g = TorusGrid(0, 1024)
    z0, om0 = np.pi, 16.0
    ex = exact_packet(phase_point(z=z0, omega=om0), params_half, g)
    dl = delta_par(om0, params_half)
    dz = (g.axis - z0 + np.pi) % (2 * np.pi) - np.pi
    dist = np.abs(dz) / dl
    mask = (dist >= 3.0) & (dist <= 5.0)
    n_fit = -np.polyfit(np.log(jbracket(dist[mask])),
                        np.log(np.abs(ex[mask])), 1)[0]
    assert n_fit >= 6.0


def test_packet_frequency_decay_exponent(params_half):
    g = TorusGrid(0, 1024)
    om0 = 16.0
    ex = exact_packet(phase_point(z=np.pi, omega=om0), params_half, g)
    fhat = g.fcoef(ex)
    dl = delta_par(om0, params_half)
    dist = np.abs(g.freqs_1d - om0) * dl
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
    delta = distortion_from_eta_norm(frequency_norm(rho), tr.p)
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


@pytest.mark.parametrize("one_center", [False, True],
                         ids=["default_budget", "one_center"])
def test_kernel_batches_do_not_change_results(torus_transform, one_center,
                                              monkeypatch):
    """op_apply is bitwise that of a per-center loop, whatever the batches:
    the rows of a batch buffer that the next batch overwrites cannot leak
    into a result.  The symbol is complex: numpy's
    complex product is not bitwise commutative, so B u times the symbol
    must keep that operand order at every batch size (a stacked product
    whose temporary numpy elided swapped it)."""
    if one_center:
        monkeypatch.setattr(wavepackets, "_BATCH_BYTES", 1)
    tr = torus_transform
    g = tr.grid
    assert max(1, wavepackets._BATCH_BYTES // (16 * g.points**g.d)) \
        == (1 if one_center else 16) < len(tr.centers)
    rng = np.random.default_rng(7)
    u = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    # the per-center loop the kernel replaced, as the reference
    sg = g.space_grids()
    symbol = lambda sg, eta: (np.cos(sg[0]) + 0.7j * np.sin(sg[-1])) \
        * np.exp(1j * eta[-1] / 5.0 - (eta[-1] / 6.0) ** 2)
    uhat = g.fcoef(u)
    acc = np.zeros(g.shape, dtype=complex)
    for eta in tr.centers:
        prof = tr.profile(eta)
        # np.multiply, not *, which may swap a large temporary operand
        v = np.multiply(TWO_PI ** (g.d / 2.0) * g.finv(prof * uhat),
                        symbol(sg, eta))
        acc += prof * g.fcoef(v)
    ref = g.d_eta**g.d / TWO_PI**g.d * TWO_PI ** (g.d / 2.0) * g.finv(acc)
    assert np.array_equal(tr.op_apply(u, symbol), ref)


@pytest.mark.parametrize("fixture", ["torus_transform", "circle_transform"])
def test_nested_windows_are_bitwise(fixture, request):
    """One pass over the transform's centers gives, for each sub-window,
    bitwise the result of a transform built at that window alone: windows
    unsorted, repeated and 0."""
    tr = request.getfixturevalue(fixture)
    g = tr.grid
    top = tr.window
    assert isinstance(top, int)
    windows = [5, 0, top, 3, 5]
    separate = [BargmannTransform(g, tr.p, w) for w in windows]
    rng = np.random.default_rng(12)
    u = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    symbol = lambda sg, eta: np.cos(sg[0]) * np.exp(-(eta[-1] / 6.0) ** 2)
    for sym in (None, symbol):
        nested = tr.op_apply(u, sym, windows=windows)
        assert len(nested) == len(windows)
        for got, one in zip(nested, separate):
            assert np.array_equal(got, one.op_apply(u, sym))
    with pytest.raises(ValueError):
        tr.op_apply(u, windows=[3, top + 1])


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
    multiplier 1 - window_tails at every mode of the grid."""
    tr = request.getfixturevalue(fixture)
    g = tr.grid
    rng = np.random.default_rng(9)
    u = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    modes = np.stack([f.ravel() for f in g.freq_grids()], axis=1) / g.d_eta
    [tails] = window_tails(g, tr.p, np.rint(modes).astype(int), [tr.window])
    ref = g.finv((1.0 - tails.reshape(g.shape)) * g.fcoef(u))
    assert np.linalg.norm(tr.op_apply(u) - ref) <= 1e-14 * np.linalg.norm(ref)


def test_op_apply_levels_are_window_tails():
    """At resolution-check's default config, op_apply's levels
    ||rec - u|| / ||u|| are window_tails' levels ||tail c|| / ||c|| on the
    same draw of band coefficients c, within 1e-14 (the gaps were 2.0e-16,
    1.3e-16 and 6.3e-17 at windows 7, 10 and 14)."""
    cfg = RESOLUTION_DEFAULTS
    g = TorusGrid(1, cfg["points"], cfg["length"])
    p = MetricParams(cfg["delta0"], cfg["alpha_perp"], cfg["alpha_par"])
    windows = [int(w) for w in cfg["windows"].split(",")]
    u = band_limited_field(g, cfg["band"], np.random.default_rng(cfg["seed"]))
    c = band_coefficients(g, cfg["band"], np.random.default_rng(cfg["seed"]))
    recs = BargmannTransform(g, p, max(windows)).op_apply(u, windows=windows)
    tails = window_tails(g, p, lattice_cube(g, cfg["band"]), windows)
    for rec, tail in zip(recs, tails):
        kernel = field_norm(rec - u) / field_norm(u)
        assert abs(kernel - field_norm(tail * c) / field_norm(c)) <= 1e-14


def test_window_tails_small_on_band(torus_transform):
    """Lattice modes |k| <= 2 sit deep inside the window: under 1e-3 of
    their packet mass lies outside it."""
    tr = torus_transform
    tails = window_tails(tr.grid, tr.p, [[0, 0], [1, 2]], [tr.window])
    assert tails.shape == (1, 2)
    assert np.all(tails <= 1e-3)


def test_mode_count_trace(circle_transform):
    """sum over a frequency band of ||phi||^2 cell/(2 pi)^d ~ # band modes.

    The band sits away from |eta| ~ 0, where the distortion is O(1) and the
    packet norms legitimately deviate from 1.
    """
    tr = circle_transform
    norms = np.array([np.sum(tr.profile(eta) ** 2) for eta in tr.centers]) \
        * tr.grid.d_eta**tr.grid.d
    band = (np.abs(tr.centers[:, 0]) >= 6.0) & (np.abs(tr.centers[:, 0]) <= 14.0)
    n_modes = int(np.count_nonzero(band))
    # the y-sum contributes L, and cell/(2 pi)^d has L Delta_eta/(2 pi) = 1
    total = float(np.sum(norms[band]))
    assert n_modes >= 10
    assert total == pytest.approx(n_modes, rel=0.05)


def test_lattice_cube_rows():
    """The cube's rows are the modes |k|_inf <= radius in row-major order,
    the order in which band_limited_field draws its coefficients."""
    cube = lattice_cube(TorusGrid(1, 16), 2)
    assert cube.shape == (25, 2) and cube.dtype.kind == "i"
    assert cube.tolist() == [[i, j] for i in range(-2, 3)
                             for j in range(-2, 3)]
    assert lattice_cube(TorusGrid(0, 16), 0).tolist() == [[0]]


def test_negative_band_rejected():
    """A negative band is a ValueError, not an empty band or a zero field."""
    g = TorusGrid(0, 16)
    with pytest.raises(ValueError):
        BandSubspace(g, -1)
    with pytest.raises(ValueError):
        band_limited_field(g, -1, np.random.default_rng(0))


@pytest.mark.parametrize("window", [(2, 3, 4), (3,), -1, 2.7, (3, 1.5), 1.9,
                                    float("inf"), float("nan"), 8])
def test_malformed_window_rejected(torus_transform, window):
    """A phase window and a band are each one non-negative integer radius
    whose 2 r + 1 modes per axis fit the grid's points (16 here): anything
    else is refused, for the transform, its sub-windows, the window tails,
    the band subspace and the band-limited field alike, not truncated,
    emptied or aliased."""
    g = TorusGrid(1, 16, length=np.pi)
    tr = torus_transform
    err = ResolutionError if window == 8 else ValueError
    for make in (lambda: lattice_cube(g, window),
                 lambda: BargmannTransform(g, tr.p, window=window),
                 lambda: BandSubspace(g, window),
                 lambda: band_limited_field(g, window,
                                            np.random.default_rng(0)),
                 lambda: window_tails(g, tr.p, [[0, 0]], windows=[window])):
        with pytest.raises(err):
            make()
    if err is ValueError:
        with pytest.raises(ValueError):
            tr.op_apply(np.ones(tr.grid.shape), windows=[window])
