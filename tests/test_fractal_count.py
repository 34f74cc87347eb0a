"""Holder forms, box counting, and the straightening map."""

import numpy as np
import pytest
from calibrate_constants import lipschitz_constants
from hypothesis import given, settings
from hypothesis import strategies as st

from anisospec import fractal_count, frozen
from anisospec.bracket_metric import (MetricParams, delta_par, delta_perp,
                                      frequency_norm, g_norm, jbracket,
                                      phase_point)
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
    gives, and each form has cells that the Holder bound leaves to the
    samples."""
    forms = [synth_holder(b0, seed=3, n=n) for b0 in (0.5, 0.8, 1.0)]
    omegas = 2.0 ** np.arange(6, 15 - 2 * (n - 1))
    alphas = np.arange(0.5, 0.95 + 1e-9, 0.05)
    got = [box_counts(form, omegas, alphas) for form in forms]
    sampled = set()
    monkeypatch.setattr(fractal_count, "evaluate", lambda form, x:
                        sampled.add(form) or _cosine_sum(form, x))
    assert got == [box_counts(form, omegas, alphas) for form in forms]
    assert sampled == set(forms)


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


@pytest.mark.parametrize("b0", [0.3, 0.5, 0.8, 1.0])
def test_oscillation_bound_holds_and_is_near_tight(b0):
    """On cells sampled as box_count samples them (up to 512 evenly spread
    cells per side), the largest oscillation of w stays below
    _oscillation_bound at every side from 1/8 to FINEST_CELL, and for each
    form it reaches half of the bound at some side, which the bound without
    its cap of 2 per term misses for every beta0 < 1."""
    sides = 2.0 ** -np.arange(3, 18)
    assert sides[-1] == FINEST_CELL
    offs = (np.arange(16) + 0.5) / 16
    for seed in (3, 7):
        form = synth_holder(b0, seed)
        ratios = []
        for side in sides:
            cells = np.unique(np.linspace(0, 1 / side - 1, 512).astype(int))
            t = cells[:, None] * side + offs[None, :] * side
            vals = evaluate(form, t.reshape(-1, 1)).reshape(t.shape)
            osc = np.max(vals.max(axis=1) - vals.min(axis=1))
            ratios.append(osc / fractal_count._oscillation_bound(form, side))
        assert max(ratios) <= 1.0, (seed, ratios)
        assert max(ratios) >= 0.5, (seed, ratios)


@pytest.mark.parametrize("n", [1, 2])
def test_box_count_bound_is_exact(n, monkeypatch):
    """Over criterion 8's grid, each count equals the one sampled on every
    cell side, and the Holder bound decides some cells but not all."""
    forms = [synth_holder(b0, seed=3, n=n) for b0 in (0.5, 0.8, 1.0)]
    omegas = 2.0 ** np.arange(6, 15 - 2 * (n - 1))
    alphas = np.arange(0.5, 0.95 + 1e-9, 0.025)
    cells = [(form, om, al) for form in forms for om in omegas
             for al in alphas]
    calls = []
    monkeypatch.setattr(fractal_count, "evaluate",
                        lambda form, x: calls.append(1) or evaluate(form, x))
    got, sampled = [], []
    for cell in cells:
        before = len(calls)
        got.append(box_count(*cell))
        sampled.append(len(calls) > before)
    assert any(sampled) and not all(sampled)
    monkeypatch.setattr(fractal_count, "_oscillation_bound",
                        lambda form, span: np.inf)
    assert got == [box_count(*cell) for cell in cells]


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


def test_growth_slopes_of_counts_beyond_int64():
    """Counts above 2^63, as n >= 5 axes give, fit like any other."""
    omegas = [2.0**k for k in range(6, 11)]
    counts = {(om, 0.5): 2**64 * int(om) ** 5 for om in omegas}
    assert counts[omegas[-1], 0.5] > 2**63
    (slope,) = growth_slopes(counts, omegas, [0.5])
    assert slope == pytest.approx(5.0, rel=1e-12)


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
    counts = {(om, al): box_count(form, om, al) for om in omegas
              for al in alphas}
    with pytest.raises(ValueError, match="at least 6"):
        optimal_alpha(counts, omegas, alphas)


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
    """Omega-major cells of box_count; refused cells are left out, and an
    alpha that leaves fewer than 3 omegas refuses the grid before any box is
    counted."""
    form = synth_holder(0.5, seed=3)
    omegas, alphas = [64.0, 128.0, 256.0, 2.0**20], np.array([0.5, 0.9])
    counts = box_counts(form, omegas, alphas)
    assert list(counts) == [(om, al) for om in omegas[:3] for al in alphas] \
        + [(2.0**20, 0.5)]
    assert counts[64.0, 0.9] == box_count(form, 64.0, 0.9)
    with pytest.raises(ResolutionError):
        box_count(form, 2.0**20, 0.9)
    with pytest.raises(ResolutionError,
                       match="fewer than 3 resolved omegas at alpha = 0.9"):
        box_counts(form, omegas[1:], alphas)


def test_straighten_identity_at_zero_frequency():
    form = synth_holder(0.5, seed=3)
    rho = phase_point(x=[0.3], z=0.1, xi=[2.0], omega=0.0)
    out = straighten_phi(form, rho)
    assert np.allclose(out, rho)


def test_straighten_maps_graph_to_zero_section():
    form = synth_holder(0.5, seed=3)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(0, 1, size=1)
        om = rng.uniform(-100, 100)
        xi = om * evaluate(form, x[None, :])[0]
        out = straighten_phi(form, phase_point(x=x, z=0.0, xi=xi, omega=om))
        assert np.max(np.abs(out[2:3])) <= 1e-9 * max(1.0, abs(om))


@settings(max_examples=50, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0, 1))
def test_straighten_bijection(xi, om, x):
    form = synth_holder(0.5, seed=3)
    rho = phase_point(x=[x], z=0.0, xi=[xi], omega=om)
    phi = straighten_phi(form, rho)
    # Phi keeps (x, z, omega) and moves xi by -omega w(x); undo that shear
    back = phase_point(x=phi[:1], z=phi[1], omega=phi[3],
                       xi=phi[2:3] + phi[3] * evaluate(form, phi[:1]))
    assert np.max(np.abs(back - rho)) <= 1e-12 \
        * max(1.0, abs(xi), abs(om))


def test_lipschitz_frozen_and_sharpness():
    worst = lipschitz_constants(n=3000, seed=4)
    for b0, c_frozen in frozen.LIPSCHITZ_C.items():
        assert worst[b0] <= c_frozen, (b0, worst[b0])
    form = synth_holder(0.5, seed=7)
    p_good, p_bad = (MetricParams(1.0, 1.0 / 1.5 - shift, 0.0)
                     for shift in (0.0, 0.1))
    good, bad = lipschitz_unit_scale_test([(form, p_good), (form, p_bad)],
                                          n_pairs=3000, seed=4)
    # the shared draw gives each metric the ratios of its own call
    assert np.max(good) == worst[0.5]
    c = frozen.LIPSCHITZ_C[0.5]
    assert np.count_nonzero(good > c) == 0 and np.count_nonzero(bad > c) > 0
    assert np.max(bad) > worst[0.5]


def test_lipschitz_matches_scalar_reference():
    """Each ratio array of the sampler equals a pair-by-pair loop over
    phase points at its case, drawing each pair's values as arrays of size
    n, in the order of the sampler's table."""
    ps = [MetricParams(1.0, 1.0 / 1.5 - 0.1, 0.0), MetricParams(0.5, 0.6, 0.3)]
    c = frozen.LIPSCHITZ_C[0.5]
    for n in (1, 2):
        form = synth_holder(0.5, seed=7, n=n)
        arrays = lipschitz_unit_scale_test([(form, p) for p in ps],
                                           n_pairs=300, seed=4)
        assert len(arrays) == len(ps)
        for p, got in zip(ps, arrays):
            rng = np.random.default_rng(4)
            ratios = []
            for _ in range(300):
                om = np.exp(rng.uniform(np.log(10.0), np.log(1.0e6)))
                x = rng.uniform(0.0, 1.0, size=n)
                xi = rng.normal(size=n) * om * 0.1
                rho = phase_point(x=x, z=rng.uniform(0, 1), xi=xi, omega=om)
                dp = delta_perp(frequency_norm(rho), p)
                dl = delta_par(frequency_norm(rho), p)
                dx = rng.normal(size=n)
                dx *= rng.uniform(0.2, 3.0) / np.linalg.norm(dx) * dp
                dxi = rng.normal(size=n) * rng.uniform(0.0, 2.0) / dp
                dz = rng.normal() * dl
                dom = rng.normal() / dl
                rho_p = phase_point(x=x + dx, z=rho[n] + dz, xi=xi + dxi,
                                    omega=om + dom)
                phi, phi_p = (straighten_phi(form, r) for r in (rho, rho_p))
                ratios.append(jbracket(g_norm(phi, phi_p - phi, p))
                              / jbracket(g_norm(rho, rho_p - rho, p)))
            ratios = np.array(ratios)
            np.testing.assert_allclose(got, ratios, rtol=1e-12, atol=0.0)
            assert np.count_nonzero(got > c) == np.count_nonzero(ratios > c)
        assert np.count_nonzero(arrays[0] > c) > 0


def test_lipschitz_cases_share_one_n():
    """One draw table serves one n: forms of different n are a ValueError."""
    p = MetricParams(1.0, 1.0 / 1.5, 0.0)
    with pytest.raises(ValueError, match="share one n"):
        lipschitz_unit_scale_test([(synth_holder(0.5, seed=7), p),
                                   (synth_holder(0.5, seed=7, n=2), p)],
                                  n_pairs=10)
