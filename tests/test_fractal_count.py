"""Holder forms, box counting, and the straightening map."""

import numpy as np
import pytest
from calibrate_constants import lipschitz_constants
from hypothesis import given, settings
from hypothesis import strategies as st

from anisospec import fractal_count, frozen
from anisospec.bracket_metric import (MetricParams, delta_par, delta_perp,
                                      g_norm, jbracket, phase_point)
from anisospec.errors import ResolutionError
from anisospec.fractal_count import (FINEST_CELL, HolderForm, box_count,
                                     box_counts, evaluate, growth_slopes,
                                     holder_ratio, lipschitz_unit_scale_test,
                                     optimal_alpha, straighten_phi,
                                     synth_holder)


def test_trivial_smooth_form():
    """beta0 = 1, one term, zero phase: exactly cos(2 pi x)."""
    form = HolderForm(beta0=1.0, seed=0, n_terms=1, phases=((0.0,),))
    x = np.linspace(0.0, 1.0, 17)[:, None]
    assert np.max(np.abs(evaluate(form, x)[:, 0] - np.cos(2 * np.pi * x[:, 0]))) == 0.0
    # synth_holder rescales the raw series, amplitude 1, to a unit Holder
    # ratio at its reference scale and keeps its phases
    raw = HolderForm(beta0=1.0, seed=0, n_terms=3)
    assert raw.amplitude == 1.0
    form = synth_holder(1.0, seed=0)
    assert form.phases == raw.phases
    assert form.amplitude == 1.0 / holder_ratio(raw, 1e-3, 512, 1.0)


def _cosine_sum(form, x):
    """w(x) as the plain sum of n_terms cosines per axis: the reference for
    evaluate."""
    x = np.asarray(x, dtype=float)
    a = float(fractal_count.BASE_FREQ)
    out = np.zeros_like(x)
    for i in range(form.n):
        for k in range(form.n_terms):
            out[..., i] += a ** (-form.beta0 * k) * np.cos(
                2.0 * np.pi * a**k * x[..., i] + form.phases[i][k])
    return form.amplitude * out


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("b0", [0.5, 1.0])
def test_evaluate_matches_cosine_sum(b0, n):
    """The powers of e^(2 pi i x) by repeated squaring give the cosine sum
    to 1e-12, on the 18-term series with amplitude 1 and on synth_holder."""
    rng = np.random.default_rng(2)
    for form in (HolderForm(beta0=b0, seed=4, n=n), synth_holder(b0, 4, n)):
        x = rng.uniform(-1.0, 2.0, size=(4000, n))
        assert np.max(np.abs(evaluate(form, x) - _cosine_sum(form, x))) <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_box_counts_match_cosine_sum(n, monkeypatch):
    """Every count of a weyl-boxes-like table is the count the cosine sum
    gives."""
    forms = [synth_holder(b0, seed=3, n=n) for b0 in (0.5, 0.8, 1.0)]
    omegas = 2.0 ** np.arange(6, 15 - 2 * (n - 1))
    alphas = np.arange(0.5, 0.95 + 1e-9, 0.05)
    got = [box_counts(form, omegas, alphas) for form in forms]
    monkeypatch.setattr(fractal_count, "evaluate", _cosine_sum)
    assert got == [box_counts(form, omegas, alphas) for form in forms]


def test_amplitude_bound():
    """|w| stays below the geometric series amplitude * sum_k 2^(-beta0 k)."""
    form = HolderForm(beta0=0.5, seed=1)
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(2000, 1))
    bound = form.amplitude * sum(2.0 ** (-0.5 * k) for k in range(18))
    assert np.max(np.abs(evaluate(form, x))) <= bound


def test_form_validation():
    with pytest.raises(ValueError):
        synth_holder(0.0, seed=0)
    with pytest.raises(ValueError):
        synth_holder(1.2, seed=0)


def test_holder_exponent_empirical():
    """Holder-beta0 ratio stable across the fractal range of scales; the
    beta0 + 0.1 ratio grows like scale^-0.1 (the pair-sampling oracle rate;
    a 10^3 shrink multiplies it by ~10^0.3)."""
    form = synth_holder(0.5, seed=3)
    scales = np.array([1e-2, 1e-3, 1e-4, 1e-5])  # above evaluator resolution
    assert scales.min() > FINEST_CELL
    ratios = [holder_ratio(form, s, 2000, 0.5, seed=1) for s in scales]
    assert max(ratios) / min(ratios) <= 3.0
    bad = [holder_ratio(form, s, 2000, 0.6, seed=1) for s in scales]
    x = np.log(1.0 / scales)
    slope_good = np.polyfit(x, np.log(ratios), 1)[0]
    slope_bad = np.polyfit(x, np.log(bad), 1)[0]
    assert abs(slope_good) <= 0.05
    assert slope_bad == pytest.approx(0.1, abs=0.06)


def test_box_count_validation():
    """Out-of-range arguments are ValueErrors; a cell below FINEST_CELL is a
    ResolutionError for every form, the smooth beta0 = 1 one included, so no
    count walks more than 2^17 sides per axis."""
    form = synth_holder(0.5, seed=3)
    with pytest.raises(ValueError):
        box_count(form, 2.0, 0.6)
    with pytest.raises(ValueError):
        box_count(form, 64.0, 0.3)
    for form in (synth_holder(0.5, seed=3), synth_holder(1.0, seed=5)):
        with pytest.raises(ResolutionError):
            box_count(form, 2.0**40, 0.9)


def _box_count_per_cell(form, omega, alpha):
    """box_count as a loop over all ceil(omega^alpha)^n base cells, each
    sampled on its own 16^n grid."""
    height = omega**alpha
    n_cells = int(np.ceil(height))
    side = 1.0 / n_cells
    offs = (np.arange(16) + 0.5) / 16 * side
    grids = np.meshgrid(*([offs] * form.n), indexing="ij")
    local = np.stack([g.ravel() for g in grids], axis=1)
    total = 0
    for idx in np.ndindex(*([n_cells] * form.n)):
        vals = omega * evaluate(form, np.asarray(idx, dtype=float) * side
                                + local)
        count = 1
        for i in range(form.n):
            osc = vals[:, i].max() - vals[:, i].min()
            count *= int(np.ceil(max(osc, height) / height))
        total += count
    return total


@pytest.mark.parametrize("n", [1, 2])
def test_box_count_matches_per_cell_loop(n, monkeypatch):
    """The same integers as a per-cell count, whatever the chunk size."""
    form = synth_holder(0.5, seed=3, n=n)
    cells = [(om, al) for om in (8.0, 16.0, 32.0) for al in (0.5, 0.7, 0.9)]
    ref = [_box_count_per_cell(form, om, al) for om, al in cells]
    # some cell needs more than one box along a fiber
    assert any(c > int(np.ceil(om**al)) ** n for c, (om, al) in zip(ref, cells))
    assert [box_count(form, om, al) for om, al in cells] == ref
    monkeypatch.setattr(fractal_count, "_SIDE_CHUNK", 3)
    assert [box_count(form, om, al) for om, al in cells] == ref


def _slopes(form, omegas, alphas):
    """growth_slopes of the form's box_counts table over omegas x alphas."""
    return growth_slopes(box_counts(form, omegas, alphas), omegas, alphas)


def test_box_count_regimes():
    """Slopes of log N vs log omega match the two-regime formula."""
    omegas = 2.0 ** np.arange(6, 15)
    s_low, s_high = _slopes(synth_holder(0.5, seed=3), omegas, (0.6, 0.8))
    assert abs(s_low - 0.70) <= 0.07
    assert abs(s_high - 0.80) <= 0.07


def test_box_count_smooth_half():
    omegas = 2.0 ** np.arange(6, 15)
    (slope,) = _slopes(synth_holder(1.0, seed=5), omegas, (0.5,))
    assert abs(slope - 0.5) <= 0.07


@pytest.mark.parametrize("b0", [0.5, 0.8, 1.0])
def test_optimal_alpha(b0):
    form = synth_holder(b0, seed=3)
    omegas = 2.0 ** np.arange(6, 15)
    alphas = np.arange(0.5, 0.95 + 1e-9, 0.025)
    a_star, e_star = optimal_alpha(box_counts(form, omegas, alphas), omegas,
                                   alphas)
    target = 1.0 / (1.0 + b0)
    assert abs(a_star - target) <= 0.05
    assert abs(e_star - target) <= 0.05


def test_e_alpha_unimodal():
    """Fitted E(alpha) is decreasing then increasing at grid resolution."""
    form = synth_holder(0.5, seed=3)
    omegas = 2.0 ** np.arange(6, 15)
    alphas = np.arange(0.5, 0.95 + 1e-9, 0.05)
    slopes = _slopes(form, omegas, alphas)
    i_min = int(np.argmin(slopes))
    tol = 0.02
    assert all(slopes[i] >= slopes[i + 1] - tol for i in range(i_min))
    assert all(slopes[i] <= slopes[i + 1] + tol
               for i in range(i_min, len(slopes) - 1))
    # kink location near 1/(1+beta0)
    assert abs(alphas[i_min] - 2.0 / 3.0) <= 0.05


def test_optimal_alpha_needs_omegas():
    form = synth_holder(0.5, seed=3)
    omegas, alphas = [64.0, 128.0], [0.5, 0.6]
    with pytest.raises(ValueError, match="at least 6"):
        optimal_alpha(box_counts(form, omegas, alphas), omegas, alphas)


def test_optimal_alpha_needs_three_counts_per_alpha():
    """A table with 2 cells left at one alpha (as when the evaluator refuses
    the rest) has no fit there: a ResolutionError, as a refused cell is."""
    form = synth_holder(0.5, seed=3)
    omegas, alphas = 2.0 ** np.arange(6, 12), [0.5, 0.6]
    counts = box_counts(form, omegas, alphas)
    optimal_alpha(counts, omegas, alphas)
    for om in omegas[2:]:
        del counts[om, 0.6]
    with pytest.raises(ResolutionError,
                       match="fewer than 3 resolved omegas at alpha = 0.6"):
        optimal_alpha(counts, omegas, alphas)


def test_box_counts_table():
    """Omega-major cells of box_count; refused cells are left out."""
    form = synth_holder(0.5, seed=3)
    omegas, alphas = [64.0, 2.0**20], np.array([0.5, 0.9])
    counts = box_counts(form, omegas, alphas)
    assert list(counts) == [(64.0, 0.5), (64.0, 0.9), (2.0**20, 0.5)]
    assert counts[64.0, 0.9] == box_count(form, 64.0, 0.9)
    with pytest.raises(ResolutionError):
        box_count(form, 2.0**20, 0.9)


def _point(row):
    """The n = 1 phase point of a coordinate row (x, z, xi, omega)."""
    return phase_point(x=row[:1], z=row[1], xi=row[2:3], omega=row[3])


def test_straighten_identity_at_zero_frequency():
    form = synth_holder(0.5, seed=3)
    rho = phase_point(x=[0.3], z=0.1, xi=[2.0], omega=0.0)
    out = straighten_phi(form, rho.coords())
    assert np.allclose(out, rho.coords())


def test_straighten_maps_graph_to_zero_section():
    form = synth_holder(0.5, seed=3)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(0, 1, size=1)
        om = rng.uniform(-100, 100)
        xi = om * evaluate(form, x[None, :])[0]
        out = _point(straighten_phi(
            form, phase_point(x=x, z=0.0, xi=xi, omega=om).coords()))
        assert np.max(np.abs(out.xi)) <= 1e-9 * max(1.0, abs(om))


@settings(max_examples=50, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0, 1))
def test_straighten_bijection(xi, om, x):
    form = synth_holder(0.5, seed=3)
    rho = phase_point(x=[x], z=0.0, xi=[xi], omega=om)
    phi = _point(straighten_phi(form, rho.coords()))
    # Phi keeps (x, z, omega) and moves xi by -omega w(x); undo that shear
    back = phase_point(x=phi.x, z=phi.z, omega=phi.omega,
                       xi=phi.xi + phi.omega * evaluate(form, phi.x))
    assert np.max(np.abs(back.coords() - rho.coords())) <= 1e-12 \
        * max(1.0, abs(xi), abs(om))


def test_lipschitz_frozen_and_sharpness():
    worst = lipschitz_constants(n=3000, seed=4)
    for b0, c_frozen in frozen.LIPSCHITZ_C.items():
        assert worst[b0] <= c_frozen, (b0, worst[b0])
    form = synth_holder(0.5, seed=7)
    p_bad = MetricParams(1.0, 1.0 / 1.5 - 0.1, 0.0)
    rep_bad = lipschitz_unit_scale_test(form, p_bad, n_pairs=3000, seed=4,
                                        c_frozen=frozen.LIPSCHITZ_C[0.5])
    assert rep_bad.violations > 0
    assert rep_bad.max_ratio > worst[0.5]


def test_lipschitz_matches_scalar_reference():
    """The array sampler equals a pair-by-pair loop over phase points."""
    form = synth_holder(0.5, seed=7)
    p = MetricParams(1.0, 1.0 / 1.5 - 0.1, 0.0)
    c = frozen.LIPSCHITZ_C[0.5]
    rep = lipschitz_unit_scale_test(form, p, n_pairs=300, seed=4, c_frozen=c)
    rng = np.random.default_rng(4)
    ratios = []
    for _ in range(300):
        om = np.exp(rng.uniform(np.log(10.0), np.log(1.0e6)))
        x = rng.uniform(0.0, 1.0, size=1)
        xi = rng.normal(size=1) * om * 0.1
        rho = phase_point(x=x, z=rng.uniform(0, 1), xi=xi, omega=om)
        dp = delta_perp(rho.eta_norm, p)
        dl = delta_par(rho.eta_norm, p)
        dx = rng.normal(size=1)
        dx *= rng.uniform(0.2, 3.0) / np.linalg.norm(dx) * dp
        dxi = rng.normal(size=1) * rng.uniform(0.0, 2.0) / dp
        dz = rng.normal() * dl
        dom = rng.normal() / dl
        rho_p = phase_point(x=x + dx, z=rho.z + dz, xi=xi + dxi, omega=om + dom)
        phi, phi_p = (_point(straighten_phi(form, r.coords()))
                      for r in (rho, rho_p))
        ratios.append(jbracket(g_norm(phi, phi_p.coords() - phi.coords(), p))
                      / jbracket(g_norm(rho, rho_p.coords() - rho.coords(), p)))
    ratios = np.array(ratios)
    np.testing.assert_allclose(rep.ratios, ratios, rtol=1e-12, atol=0.0)
    assert rep.violations == np.count_nonzero(ratios > c) > 0
