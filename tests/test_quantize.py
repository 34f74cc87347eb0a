"""Anti-Wick operators, weighted norms, and the residual probes."""

import numpy as np
import pytest
from calibrate_constants import (bracket_space, composition_constant,
                                 corollary_constant, weighted_space_temperate)

from anisospec import frozen
from anisospec.bracket_metric import g_dist_periodic, jbracket, phase_point
from anisospec.quantize import (BandSubspace, WeightedSpace, bump_symbol,
                                composition_residual, constant_symbol,
                                egorov_residual, hw_operator_norm,
                                microlocality_probe, rotate, trace_phase_sum)
from anisospec.wavepackets import TWO_PI, BargmannTransform, TorusGrid

# the two symbols of `anisospec quantize-probes` and their slow-variation
# certificate
PROBE_A = (2.0, 4.0, 2.0, 8.0)
PROBE_B = (3.5, -2.0, 2.5, 10.0)
H_PROBE = 0.2

# <omega>, the weight of quantize-probes
BRACKET = lambda eta: jbracket(eta[-1])


@pytest.fixture(scope="module")
def setup():
    space = bracket_space()
    return space.transform, space.band, space


def band_random(band, seed):
    """A random unit-norm combination of the band modes."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=band.size) + 1j * rng.normal(size=band.size)
    g = band.grid
    phase = np.tensordot(band.modes * g.d_eta, g.space_grids(), axes=1)
    u = np.tensordot(c, np.exp(1j * phase), axes=1)
    return u / g.norm(u)


def test_op_identity_and_constant(setup):
    tr, band, _ = setup
    u = band_random(band, 1)
    rec = tr.op_apply(u)
    assert np.linalg.norm(rec - u) / np.linalg.norm(u) <= 1e-3
    rec_c = tr.op_apply(u, constant_symbol(2.5))
    assert np.linalg.norm(rec_c - 2.5 * u) / np.linalg.norm(u) <= 2.5e-3


def test_op_norm_bounded_by_sup(setup):
    tr, band, _ = setup
    a = lambda sg, eta: (0.3 + 0.2 * np.cos(sg[0])) * np.ones_like(sg[0]) \
        + 0.1 * np.cos(eta[-1] / 4.0)
    # the exact norm: a power estimate is a lower one and could hide a failure
    tmat = band.matrix(lambda u: tr.op_apply(u, a))
    assert np.linalg.svd(tmat, compute_uv=False)[0] <= 0.6 + 1e-3


def test_op_linear_in_symbol(setup):
    tr, band, _ = setup
    a = bump_symbol(2.0, 3.0, 2.0, 6.0)
    b = bump_symbol(4.0, -1.0, 1.5, 8.0)
    u = band_random(band, 2)
    lhs = tr.op_apply(u, lambda sg, eta: a(sg, eta) + 2.0 * b(sg, eta))
    rhs = tr.op_apply(u, a) + 2.0 * tr.op_apply(u, b)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(u))


def test_op_adjoint_is_conjugate_symbol(setup):
    tr, band, _ = setup
    a = bump_symbol(2.0, 3.0, 2.0, 6.0)
    m1 = band.matrix(lambda u: tr.op_apply(u, a))
    m2 = band.matrix(lambda u: tr.op_apply(
        u, lambda sg, eta: np.conj(a(sg, eta))))
    assert np.max(np.abs(m1.conj().T - m2)) <= 1e-12


def test_trace_formula(setup):
    """Dense trace of Op(a) vs the phase-grid sum, within 1% for compact a."""
    tr, _, _ = setup
    a = bump_symbol(np.pi, 0.0, 1.0, 2.0)
    wide = BandSubspace(tr.grid, 12)
    dense_trace = complex(np.trace(wide.matrix(lambda u: tr.op_apply(u, a))))
    phase_sum = trace_phase_sum(tr, a)
    assert abs(dense_trace - phase_sum) <= 0.01 * abs(phase_sum)


def test_sobolev_norm_plane_wave_slope(params_half):
    """||e^{i om0 z}||_W = <u, Op(W^2) u>^(1/2) grows like <om0>^r:
    log-log slope within 0.05."""
    g = TorusGrid(0, 1024)
    tr = BargmannTransform(g, params_half, window=360)
    r_ord = 1.5
    w2 = lambda sg, eta: jbracket(eta[-1]) ** (2 * r_ord) * np.ones_like(sg[0])
    oms = np.array([16.0, 32.0, 64.0, 128.0, 256.0])
    vals = []
    for om in oms:
        u = np.exp(1j * om * g.axis)
        vals.append(np.sqrt(g.inner(u, tr.op_apply(u, w2)).real) / g.norm(u))
    slope = np.polyfit(np.log(jbracket(oms)), np.log(vals), 1)[0]
    assert abs(slope - r_ord) <= 0.05


def test_weighted_space_temperate_frozen():
    """W = <omega>^1: sampled fiber temperate bound with frozen (C, N_W)."""
    assert weighted_space_temperate(n=5000, seed=5) \
        <= frozen.WSPACE_TEMPERATE_C


def test_weight_gram_is_diagonal(setup):
    """The premise of WeightedSpace: for a frequency weight the band
    compression of Op(W^2) is diagonal to rounding, and the space's scales
    are the square roots of its diagonal."""
    tr, band, space = setup
    gram = band.matrix(lambda u: tr.op_apply(
        u, lambda sg, eta: BRACKET(eta) ** 2))
    diag = np.diag(gram)
    off = gram - np.diag(diag)
    assert np.max(np.abs(off)) <= 1e-12 * np.max(np.abs(diag))
    assert np.max(np.abs(diag.imag)) <= 1e-12 * np.max(diag.real)
    assert np.all(diag.real > 0)
    assert np.allclose(space.scale ** 2, diag.real, rtol=1e-15, atol=0)


def test_power_iteration_close_to_dense(setup):
    """The power estimate against the exact SVD of S T S^-1, S the
    diagonal of the space's scales."""
    tr, band, space = setup
    a = bump_symbol(2.0, 3.0, 2.0, 6.0)
    est = hw_operator_norm(lambda u: tr.op_apply(u, a), space)
    s = np.diag(space.scale)
    tmat = band.matrix(lambda u: tr.op_apply(u, a))
    exact = np.linalg.svd(s @ tmat @ np.linalg.inv(s), compute_uv=False)[0]
    assert est <= exact * (1 + 1e-12)
    assert est == pytest.approx(exact, rel=1e-6)


def test_band_past_window_rejected(params_half):
    """A band whose modes lie outside the phase window sees only packet-tail
    mass there: WeightedSpace refuses it, and a band at the window edge is
    accepted."""
    tr = BargmannTransform(TorusGrid(0, 64), params_half, window=4)
    with pytest.raises(ValueError, match="exceeds the phase window"):
        WeightedSpace(weight=BRACKET, transform=tr,
                      band=BandSubspace(tr.grid, 5))
    space = WeightedSpace(weight=BRACKET, transform=tr,
                          band=BandSubspace(tr.grid, 4))
    assert space.scale.shape == (9,)


@pytest.mark.parametrize("n, points, length", [
    (0, 128, 3.0), (0, 64, TWO_PI), (1, 128, TWO_PI)],
    ids=["length", "points", "dimension"])
def test_band_on_another_grid_rejected(params_half, n, points, length):
    """A band's plane waves are the transform's only on the transform's own
    grid: a band on a grid of another length, point count or dimension is
    refused, and one on an equal grid object is accepted."""
    tr = BargmannTransform(TorusGrid(0, 128), params_half, window=16)
    with pytest.raises(ValueError, match="is not the transform's"):
        WeightedSpace(weight=BRACKET, transform=tr,
                      band=BandSubspace(TorusGrid(n, points, length), 4))
    space = WeightedSpace(weight=BRACKET, transform=tr,
                          band=BandSubspace(TorusGrid(0, 128), 4))
    assert space.scale.shape == (9,)


@pytest.mark.parametrize("n_transverse", [0, 1])
def test_from_grid_matches_inner_products(n_transverse):
    """The band coefficients from one FFT equal the per-mode inner products
    <b_k, u> against the plane waves, on a 1-D and a 2-D grid."""
    g = TorusGrid(n_transverse, 16, length=3.0)
    band = BandSubspace(g, 3)
    rng = np.random.default_rng(7)
    u = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    sg = g.space_grids()
    waves = [np.exp(1j * sum(k[ax] * g.d_eta * sg[ax] for ax in range(g.d)))
             / g.length ** (g.d / 2.0) for k in band.modes]
    want = np.array([g.inner(b, u) for b in waves])
    got = band.from_grid(u)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _at(fn, rho):
    """fn(space_grids, eta) at the phase point rho, on one-point grids."""
    d = len(rho) // 2
    return np.asarray(fn([np.array([c]) for c in rho[:d]], rho[d:])).ravel()[0]


def test_symbol_certificate_sampling(params_half):
    """The certificate of the quantize-probes symbols holds on sampled
    pairs: |a(rho') - a(rho)| <= h <d_g(rho, rho')>."""
    rng = np.random.default_rng(6)
    pairs = []
    for _ in range(200):
        a = phase_point(z=rng.uniform(0, 2 * np.pi), omega=rng.uniform(-8, 8))
        b = phase_point(z=rng.uniform(0, 2 * np.pi), omega=rng.uniform(-8, 8))
        pairs.append((a, b))
    for probe in (PROBE_A, PROBE_B):
        sym = bump_symbol(*probe)
        worst = max(abs(_at(sym, rho_p) - _at(sym, rho))
                    / (H_PROBE * jbracket(g_dist_periodic(
                        rho, rho_p, params_half, 2 * np.pi)))
                    for rho, rho_p in pairs)
        assert worst <= 1.0


def test_composition_constant_b_hits_floor(setup):
    _, _, space = setup
    a = bump_symbol(*PROBE_A)
    est, bound = composition_residual(a, constant_symbol(2.0), 0.0, space,
                                      frozen.COMPOSITION_C)
    assert bound == 0.0
    assert est <= frozen.COMPOSITION_FLOOR


def test_composition_bumps_bound_and_smallness(setup):
    tr, _, space = setup
    worst, [est] = composition_constant(centers=[(PROBE_A[0], PROBE_B[0])])
    assert worst <= frozen.COMPOSITION_C
    a, b = bump_symbol(*PROBE_A), bump_symbol(*PROBE_B)
    na = hw_operator_norm(lambda u: tr.op_apply(u, a), space)
    nb = hw_operator_norm(lambda u: tr.op_apply(u, b), space)
    assert est * 10.0 <= na * nb


def test_composition_corollary_sweep():
    """Indicator + locally constant symbol: residual decreasing in C and
    below the frozen C_N C^-N envelope."""
    worst, residuals = corollary_constant(c_neighs=(2.0, 4.0, 8.0))
    assert worst <= frozen.COROLLARY_CN
    assert np.all(np.diff(list(residuals.values())) < 0)


def test_egorov_trivial_cases(setup):
    _, _, space = setup
    a = bump_symbol(*PROBE_A)
    est0, _ = egorov_residual(a, H_PROBE, 0.0, space, 1.0)
    assert est0 <= 1e-10
    c = constant_symbol(3.0)
    estc, _ = egorov_residual(c, 0.0, 1.0, space, 1.0)
    assert estc <= 1e-10


@pytest.mark.parametrize("h", [-0.1, np.nan, np.inf])
def test_residual_probes_reject_bad_certificate(setup, h):
    _, _, space = setup
    a = bump_symbol(*PROBE_A)
    with pytest.raises(ValueError, match="certificate"):
        composition_residual(a, a, h, space, frozen.COMPOSITION_C)
    with pytest.raises(ValueError, match="certificate"):
        egorov_residual(a, h, 1.0, space, 1.0)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_egorov_bounded(setup, t):
    """Bump in omega on the circle rotation: residual below C_t ||h||_inf
    (translation flows make the commutator vanish to round-off)."""
    _, _, space = setup
    a = lambda sg, eta: np.exp(-((eta[-1] - 4.0) / 6.0) ** 2 / 2) \
        * np.ones_like(sg[0])
    est, bound = egorov_residual(a, 0.2, t, space, frozen.EGOROV_CT[t])
    assert est <= bound
    assert est <= 1e-10


def test_rotate_shifts_z_only():
    """On a 1+1 grid, rotate moves e^{i(x + 2z)} to e^{i(x + 2(z + t))}."""
    g = TorusGrid(1, 32)
    xg, zg = g.space_grids()
    t = 0.3
    moved = rotate(np.exp(1j * (xg + 2 * zg)), g, t)
    assert np.max(np.abs(moved - np.exp(1j * (xg + 2 * (zg + t))))) <= 1e-10


def test_microlocality_t0_peak(circle_transform):
    tr = circle_transform
    rho = phase_point(z=2.0, omega=6.0)
    probes = [phase_point(z=2.0 + s, omega=6.0 + w)
              for s, w in [(1.0, 0.0), (1.5, 2.0), (2.0, 8.0), (0.0, 12.0)]]
    _, peak, _, _ = microlocality_probe(rho, 0.0, probes, tr,
                                        fit_range=(1.5, 50))
    assert abs(peak - 1.0) <= 0.1


def test_microlocality_illposed_probe_grid(circle_transform):
    tr = circle_transform
    rho = phase_point(z=2.0, omega=6.0)
    near = [phase_point(z=2.0 + 0.01 * k, omega=6.0) for k in range(4)]
    with pytest.raises(ValueError, match="fewer than 3 probes"):
        microlocality_probe(rho, 0.0, near, tr, fit_range=(1.5, np.inf))

