"""Escape functions over the cat-matrix linear model."""

import numpy as np
import pytest
from calibrate_constants import escape_temperate

from anisospec import frozen
from anisospec.bracket_metric import (MetricParams, delta_par, delta_perp,
                                      jbracket)
from anisospec.cli import main
from anisospec.escape import (DualSplitting, EscapeConfig, decay_rate_fit,
                              h_gamma_perp, lifted_flow, lower_bound_report,
                              order_estimate, projective_average,
                              temperate_ratio_samples, theoretical_decay_rate,
                              theoretical_lower_rate, theoretical_orders,
                              weight)
from anisospec.suspension import CAT_SPLIT


@pytest.fixture(scope="module")
def split():
    return CAT_SPLIT


@pytest.fixture(scope="module")
def p_metric():
    return MetricParams(1.0, 0.5, 0.0)


def test_dual_splitting_roundtrip(split):
    rng = np.random.default_rng(0)
    for _ in range(100):
        xi = rng.normal(size=2) * 100.0
        cu, cs = split.decompose(xi)
        back = split.compose(cu, cs)
        assert np.max(np.abs(back - xi)) <= 1e-12 * max(1.0, np.abs(xi).max())
    # cat matrix is symmetric: eigencovectors orthogonal, unit, positive x1
    assert abs(np.dot(split.e_u_dual, split.e_s_dual)) <= 1e-12
    assert split.e_u_dual[0] > 0 and split.e_s_dual[0] > 0
    assert split.lam == pytest.approx(np.log((3 + np.sqrt(5)) / 2))


def test_dual_splitting_rejects_elliptic():
    with pytest.raises(ValueError):
        DualSplitting.from_matrix([[0, -1], [1, 0]])


def test_escape_config_validation():
    with pytest.raises(ValueError):
        EscapeConfig(variant="bogus")
    with pytest.raises(ValueError):
        EscapeConfig(gamma=1.0)
    with pytest.raises(ValueError):
        EscapeConfig(gamma=0.3, gamma_prime=0.5)
    with pytest.raises(ValueError):
        EscapeConfig(r_u=0.0)
    for bad in (dict(t_avg=0.0), dict(t_avg=np.nan), dict(r_u=np.inf),
                dict(r_s=np.nan), dict(h0=np.inf), dict(h0=0.0)):
        with pytest.raises(ValueError):
            EscapeConfig(**bad)


def test_h_gamma_examples(split, p_metric):
    cfg0 = EscapeConfig(r_u=2.0, r_s=2.0, gamma=0.5, gamma_prime=0.5, h0=1.0)
    # Xi_* = 0 -> h0
    assert h_gamma_perp(0.0, cfg0) == pytest.approx(1.0)
    # gamma = 0 -> h0 everywhere
    cfgz = EscapeConfig(r_u=2.0, r_s=2.0, gamma=0.0, h0=0.7)
    assert h_gamma_perp(5.0, cfgz) == pytest.approx(0.7)
    # hand oracle: |Xi_*|_g = sqrt(3) -> <sqrt 3> = 2 -> 2^{-1/2}
    assert h_gamma_perp(np.sqrt(3.0), cfg0) == pytest.approx(2.0 ** (-0.5))
    # arrange |Xi_*|_g = dperp * |Xi_*| = sqrt(3): with xi_s = 0, omega = 0,
    # need |xi_u|^{1/2} = sqrt(3) -> xi_u = 3; then h |Xi_u|_g = sqrt(3/2)
    # and W = <sqrt(3/2)>^{-2} = 2/5
    assert weight(3.0, 0.0, 0.0, split, cfg0, p_metric) == pytest.approx(0.4)


def test_weight_on_trapped_set(split, p_metric):
    cfg = EscapeConfig(r_u=3.0, r_s=2.0, gamma=0.0)
    for om in (0.0, 1.0, 100.0):
        assert weight(0.0, 0.0, om, split, cfg, p_metric) == pytest.approx(1.0)
    # the lifted flow keeps the trapped set, so the decay ratio there is 1
    xu, xs = lifted_flow(0.0, 0.0, np.array([0.5, 1.0, 3.0]), split)
    assert weight(xu, xs, 5.0, split, cfg, p_metric) \
        / weight(0.0, 0.0, 5.0, split, cfg, p_metric) == pytest.approx(1.0)


def test_weight_monotone_in_unstable(split, p_metric):
    cfg = EscapeConfig(r_u=3.0, r_s=2.0, gamma=0.0)
    vals = [weight(x, 0.0, 1.0, split, cfg, p_metric)
            for x in (10.0, 100.0, 1000.0)]
    assert vals[0] > vals[1] > vals[2]


def test_pure_stable_order_slope(split, p_metric):
    """log W / log |Xi| -> (1-gamma)(1-alpha_perp) R_s within 0.03."""
    cfg = EscapeConfig(r_u=2.0, r_s=3.0, gamma=0.0)
    alphas = 2.0 ** np.arange(4, 13)
    vals = [weight(0.0, a, 0.0, split, cfg, p_metric) for a in alphas]
    slope = np.polyfit(np.log(alphas), np.log(vals), 1)[0]
    assert abs(slope - 0.5 * 3.0) <= 0.03


def test_lifted_flow_freezes_omega(split):
    xu, xs = lifted_flow(2.0, 3.0, 1.5, split)
    assert xu == pytest.approx(2.0 * np.exp(split.lam * 1.5))
    assert xs == pytest.approx(3.0 * np.exp(-split.lam * 1.5))


def test_decay_rate_within_ten_percent(split):
    for gam, ap, big_r in ((0.0, 0.5, 2.0), (0.5, 0.67, 8.0)):
        p = MetricParams(1.0, ap, 0.0)
        cfg = EscapeConfig(r_u=big_r, r_s=big_r, gamma=gam)
        lam_th = theoretical_decay_rate(split, cfg, p)
        slope = decay_rate_fit(1.0e5, 0.0, 1.0, np.linspace(0, 3, 13),
                               split, cfg, p)
        assert abs(-slope - lam_th) <= 0.10 * lam_th


def test_lower_bound_rates(split, p_metric):
    cfg = EscapeConfig(r_u=2.0, r_s=2.0, gamma=0.0)
    uv, rv, nr = lower_bound_report(split, cfg, p_metric, n_samples=100,
                                    seed=3, c_frozen=frozen.DECAY_LOWER_C)
    assert uv == 0 and rv == 0 and nr > 100
    assert theoretical_lower_rate(split, cfg, p_metric) \
        == pytest.approx(split.lam * 0.5 * 4.0)


def test_order_estimates(split, p_metric):
    cfg = EscapeConfig(r_u=2.0, r_s=3.0, gamma=0.0)
    th = theoretical_orders(cfg, p_metric)
    assert abs(order_estimate((0.0, 0.0, 1.0), split, cfg, p_metric)
               - th["flow"]) <= 0.02
    assert abs(order_estimate((1.0, 0.0, 0.0), split, cfg, p_metric)
               - th["unstable"]) <= 0.03
    assert abs(order_estimate((0.0, 1.0, 0.0), split, cfg, p_metric)
               - th["stable"]) <= 0.03
    assert abs(order_estimate((1.0, 1.0, 0.0), split, cfg, p_metric)
               - th["transverse"]) <= 0.03
    with pytest.raises(ValueError):
        order_estimate((0.0, 0.0, 0.0), split, cfg, p_metric)


def test_w2_orders_and_average(split):
    p = MetricParams(1.0, 0.5, 0.25)
    cfg = EscapeConfig(r_u=1.0, r_s=1.0, variant="W2", r1=1.5, t_avg=4.0)
    th = theoretical_orders(cfg, p)
    assert th["stable"] == pytest.approx(1.5)
    assert abs(order_estimate((0.0, 1.0, 0.0), split, cfg, p)
               - 1.5) <= 0.05
    assert abs(order_estimate((1.0, 0.0, 0.0), split, cfg, p)
               - (-1.5)) <= 0.05
    # a(Xi_*) in [-1, 1] always
    rng = np.random.default_rng(1)
    for _ in range(100):
        a_val = projective_average(rng.normal(), rng.normal(), cfg, split)
        assert -1.0 <= a_val <= 1.0
    # exactly -1 / +1 on the invariant directions, -1 on a thin cone once
    # the averaging window exceeds the projective mixing time
    assert projective_average(1.0, 0.0, cfg, split) == pytest.approx(-1.0)
    assert projective_average(0.0, 1.0, cfg, split) == pytest.approx(1.0)
    cfg_short = EscapeConfig(r_u=1.0, r_s=1.0, variant="W2", r1=1.5,
                             t_avg=2.0)
    thin = np.exp(-2.0 * split.lam * cfg_short.t_avg) * 0.2
    assert projective_average(1.0, thin, cfg_short, split) \
        == pytest.approx(-1.0, abs=1e-6)


def test_temperate_property_frozen():
    worst = escape_temperate(n=4000, seed=1)
    assert worst[frozen.ESCAPE_TEMPERATE_N0] <= frozen.ESCAPE_TEMPERATE_C


def test_weight_field_csv(split, p_metric, tmp_path):
    """escape-sweep's weight_field.csv: the header, then the (xi_u, xi_s)
    nodes in loop order at the one omega, every field a plain float repr."""
    assert main(["escape-sweep", "--r-u", "2", "--r-s", "2", "--grid-max",
                 "2", "--grid-points", "3", "--output-dir",
                 str(tmp_path)]) == 0
    rows = (tmp_path / "weight_field.csv").read_text().splitlines()
    assert rows[0] == "xi_u,xi_s,omega,W"
    cfg = EscapeConfig(r_u=2.0, r_s=2.0, gamma=0.0)
    vals = [-2.0, 0.0, 2.0]
    want = [(xu, xs, 1.0, weight(xu, xs, 1.0, split, cfg, p_metric))
            for xu in vals for xs in vals]
    assert len(rows) == 1 + len(want)
    for row, (xu, xs, om, w) in zip(rows[1:], want):
        fields = row.split(",")
        assert fields[:3] == [repr(xu), repr(xs), repr(om)]
        assert float(fields[3]) == pytest.approx(w, rel=1e-12)
    assert float(rows[5].split(",")[3]) == pytest.approx(1.0)


def _lower_bound_loop(split, cfg, p, n_samples, seed, t_max, c_frozen):
    """lower_bound_report one covector and one time at a time."""
    lam_p = theoretical_lower_rate(split, cfg, p)
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, t_max, 13)

    def ratio(xu, xs, om, t):
        e = np.exp(split.lam * t)
        return weight(xu * e, xs / e, om, split, cfg, p) \
            / weight(xu, xs, om, split, cfg, p)

    pure = []
    for _ in range(n_samples):
        mag = np.exp(rng.uniform(0.0, np.log(1e4)))
        om = rng.uniform(-50.0, 50.0)
        kind = rng.integers(0, 3)
        pure.append(((mag, 0.0), (0.0, mag), (0.0, 0.0))[kind] + (om,))
    uniform = sum(int(ratio(*rho, t) * np.exp(lam_p * t) < 1.0 / c_frozen)
                  for rho in pure for t in ts[1:])
    rate = n_rate = 0
    for _ in range(n_samples):
        xu = np.exp(rng.uniform(0.0, np.log(1e4)))
        xs = np.exp(rng.uniform(0.0, np.log(1e4)))
        om = rng.uniform(-50.0, 50.0)
        t0 = None
        for t in ts:
            e = np.exp(split.lam * t)
            xi = np.linalg.norm(split.compose(xu * e, xs / e))
            dp = delta_perp(np.hypot(xi, om), p)
            h = cfg.h0 * jbracket(dp * xi) ** -cfg.gamma
            if h * dp * xs / e <= 0.3 and xi >= 3.0 * abs(om):
                t0 = t
                break
        if t0 is None or t0 >= ts[-2]:
            continue
        r0 = ratio(xu, xs, om, t0)
        for t in ts[ts > t0 + 1e-12]:
            n_rate += 1
            slope = (np.log(ratio(xu, xs, om, t)) - np.log(r0)) / (t - t0)
            rate += int(slope < -lam_p * (1.0 + 1e-9) - 1e-9)
    return uniform, rate, n_rate


def test_array_paths_match_per_covector_loops(split, p_metric):
    # lower_bound_report at one criterion-5 configuration and its seed, and
    # at another seed where the uniform bound is set tight enough to fail
    for gam, ap, big_r, seed, t_max, c_frozen in (
            (0.5, 0.67, 8.0, 3, 4.0, frozen.DECAY_LOWER_C),
            (0.0, 0.5, 2.0, 11, 3.0, 0.3)):
        p = MetricParams(1.0, ap, 0.0)
        cfg = EscapeConfig(r_u=big_r, r_s=big_r, gamma=gam)
        n = 120 if seed == 3 else 60
        assert lower_bound_report(split, cfg, p, n, seed, t_max, c_frozen) \
            == _lower_bound_loop(split, cfg, p, n, seed, t_max, c_frozen)

    # temperate_ratio_samples, the distance in the metric at rho written out
    cfg = EscapeConfig(r_u=2.0, r_s=3.0, gamma=0.5, gamma_prime=0.3)
    p = MetricParams(1.0, 0.67, 0.25)
    ratios, brackets = temperate_ratio_samples(split, cfg, p, 300, seed=5)
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(2):
        mag = np.exp(rng.uniform(0.0, np.log(50.0), size=300))
        ang = rng.uniform(0.0, 2 * np.pi, size=300)
        draws.append((mag * np.cos(ang), mag * np.sin(ang),
                      rng.uniform(-50.0, 50.0, size=300)))
    (u0, s0, o0), (u1, s1, o1) = draws
    for i in range(300):
        assert ratios[i] == pytest.approx(
            weight(u1[i], s1[i], o1[i], split, cfg, p)
            / weight(u0[i], s0[i], o0[i], split, cfg, p), rel=1e-12)
        xi0, xi1 = split.compose(u0[i], s0[i]), split.compose(u1[i], s1[i])
        eta0 = np.hypot(np.linalg.norm(xi0), o0[i])
        dp, dl = delta_perp(eta0, p), delta_par(eta0, p)
        dist = np.sqrt(dp**2 * np.sum((xi1 - xi0) ** 2)
                       + dl**2 * (o1[i] - o0[i]) ** 2)
        h = cfg.h0 * jbracket(dp * np.linalg.norm(xi0)) ** -cfg.gamma_prime
        assert brackets[i] == pytest.approx(jbracket(h * dist), rel=1e-12)
