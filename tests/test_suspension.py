"""Cat-map suspension: exact zero-sector spectrum and sector certificates."""

import numpy as np
import pytest
from calibrate_constants import wavefront_constants

from anisospec import frozen
from anisospec.bracket_metric import MetricParams, delta_perp, jbracket
from anisospec.cli import main
from anisospec.errors import ResolutionError
from anisospec.escape import EscapeConfig, lifted_flow, weight
from anisospec.quantize import FlowModel
from anisospec.suspension import (MappingTorus, SpectrumResult, full_spectrum,
                                  generator_residual, orbit_representatives,
                                  transfer_time1_grid, wavefront_value,
                                  weyl_count, weyl_density_exponent,
                                  zero_sector_eigenfunction,
                                  zero_sector_spectrum)
from anisospec.wavepackets import TorusGrid

P = MetricParams(1.0, 0.5, 0.0)
CFG = EscapeConfig(r_u=8.0, r_s=8.0, gamma=0.0)
MATRICES = {"2,1,1,1": ((2, 1), (1, 1)), "-2,-1,-1,-1": ((-2, -1), (-1, -1)),
            "2,1,3,2": ((2, 1), (3, 2)), "3,1,2,1": ((3, 1), (2, 1))}


# -- integer orbit walks in Python ints, one weight call per orbit point -----


def _step(torus, nu, sign):
    """f^T nu (sign +1) or (f^T)^{-1} nu (sign -1), exactly; det f = 1."""
    (a, b), (c, d) = torus.f
    if sign > 0:
        return (a * nu[0] + c * nu[1], b * nu[0] + d * nu[1])
    return (d * nu[0] - c * nu[1], -b * nu[0] + a * nu[1])


def _key(nu):
    return (nu[0] ** 2 + nu[1] ** 2, nu)


def _in_box_segment(torus, nu, nu_max):
    """The orbit points of nu inside |.|_inf <= nu_max, walked both ways."""
    seg = []
    for sign in (1, -1):
        cur = nu
        while max(abs(cur[0]), abs(cur[1])) <= nu_max:
            seg.append(cur)
            cur = _step(torus, cur, sign)
    return set(seg)


def _walk_representatives(torus, nu_max):
    seen, reps = set(), set()
    for a in range(-nu_max, nu_max + 1):
        for b in range(-nu_max, nu_max + 1):
            if (a, b) != (0, 0) and (a, b) not in seen:
                seg = _in_box_segment(torus, (a, b), nu_max)
                seen |= seg
                reps.add(min(seg, key=_key))
    return sorted(reps, key=_key)


def _walk_window(torus, nu, p):
    """Orbit points of nu from the first j <= -1 to the first j >= 0 with
    |Xi_*|_g > 10, at most 200 each way."""
    def past_threshold(q):
        en = float(np.linalg.norm(2.0 * np.pi * np.asarray(q, dtype=float)))
        return delta_perp(en, p) * en > 10.0

    ends = []
    for sign, start in ((1, nu), (-1, _step(torus, nu, -1))):
        pts = [start]
        while not past_threshold(pts[-1]):
            assert len(pts) < 200
            pts.append(_step(torus, pts[-1], sign))
        ends.append(pts)
    return ends[1][::-1] + ends[0]


def _walk_bound(torus, nu, p):
    split = torus.dual_splitting()
    ws = [weight(*split.decompose(2.0 * np.pi * np.asarray(q, dtype=float)),
                 0.0, split, CFG, p) for q in _walk_window(torus, nu, p)]
    return max(b / a for a, b in zip(ws, ws[1:]))


def _assert_match_walks(torus, nu_max, p):
    res = full_spectrum(0, nu_max, CFG, float(np.exp(-3.0)), torus, p)
    reps = _walk_representatives(torus, nu_max)
    assert [c["nu"] for c in res.certificates] == reps
    assert orbit_representatives(torus, nu_max).tolist() == \
        [list(nu) for nu in reps]
    for c in res.certificates:
        assert c["norm_bound"] == pytest.approx(
            _walk_bound(torus, c["nu"], p), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha_perp", [0.5, 0.67, 0.9])
@pytest.mark.parametrize("f", MATRICES.values(), ids=MATRICES.keys())
def test_certificates_match_integer_walks(f, alpha_perp):
    _assert_match_walks(MappingTorus(f), 6, MetricParams(1.0, alpha_perp, 0.0))


def test_certificates_match_walks_past_int64():
    """At alpha_perp 0.95 the windows leave the int64 range."""
    torus, p = MappingTorus(), MetricParams(1.0, 0.95, 0.0)
    assert max(abs(v) for q in _walk_window(torus, (1, 0), p) for v in q) \
        > 2 ** 63
    _assert_match_walks(torus, 3, p)


def test_orbit_window_past_200_steps_is_a_resolution_error(tmp_path):
    with pytest.raises(ResolutionError):
        full_spectrum(0, 2, CFG, 0.1, MappingTorus(),
                      MetricParams(1.0, 0.99, 0.0))
    out = tmp_path / "s"
    assert main(["suspension", "--alpha-perp", "0.99",
                 "--output-dir", str(out)]) == 3
    assert not out.exists()


def test_mapping_torus_validation():
    with pytest.raises(ValueError):
        MappingTorus(f=((1, 1), (0, 1)))       # parabolic
    with pytest.raises(ValueError):
        MappingTorus(f=((2, 1), (1, 2)))       # det 3
    with pytest.raises(ValueError):
        MappingTorus(f=((2, 1), (1, 1), (0, 0)))   # not 2x2


def test_lambda_value():
    # eigenvalue of [[2,1],[1,1]] by hand: (3 + sqrt 5)/2, and -(3 + sqrt 5)/2
    # for its negative
    for f in (((2, 1), (1, 1)), ((-2, -1), (-1, -1))):
        assert MappingTorus(f).dual_splitting().lam == pytest.approx(
            np.log((3 + np.sqrt(5)) / 2), abs=1e-14)


def test_zero_sector_k0():
    spec = zero_sector_spectrum(0)
    assert len(spec.entries) == 1
    assert spec.entries[0].im == 0.0 and spec.entries[0].re == 0.0


def test_zero_sector_k3():
    spec = zero_sector_spectrum(3)
    got = sorted(e.im for e in spec.entries)
    expect = sorted(2 * np.pi * k for k in range(-3, 4))
    assert np.allclose(got, expect, atol=0)
    assert all(e.re == 0.0 for e in spec.entries)
    assert max(generator_residual(k) for k in range(-3, 4)) <= 1e-12


@pytest.mark.parametrize("t", [0.1, 0.37])
def test_transfer_eigenfunction(t):
    grid = TorusGrid(0, 256, length=1.0)
    for k in (-2, 0, 3):
        u = zero_sector_eigenfunction(k, grid.axis)
        lt = FlowModel((1.0,)).transfer(u, grid, t)
        assert np.max(np.abs(lt - np.exp(1j * 2 * np.pi * k * t) * u)) <= 1e-12


def test_generator_residual():
    assert max(generator_residual(k) for k in range(-5, 6)) <= 1e-12


def test_sector_decomposition_exact():
    """L^1 on a two-orbit superposition: zero cross-orbit leakage (grid)."""
    torus = MappingTorus()
    npts = 64
    rng = np.random.default_rng(0)
    nu_a = (1, 0)
    # pick nu_b genuinely off the orbit of nu_a
    nu_b = (2, 0)
    assert nu_b not in _walk_window(torus, nu_a, P)
    x1, x2 = np.meshgrid(np.arange(npts) / npts, np.arange(npts) / npts,
                         indexing="ij")
    ca, cb = rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal()
    u = ca * np.exp(2j * np.pi * (nu_a[0] * x1 + nu_a[1] * x2)) \
        + cb * np.exp(2j * np.pi * (nu_b[0] * x1 + nu_b[1] * x2))
    moved = transfer_time1_grid(u, torus)
    coef = np.fft.fft2(moved) / npts**2
    ft = torus.matrix.T
    ia = tuple((ft @ np.array(nu_a)) % npts)
    ib = tuple((ft @ np.array(nu_b)) % npts)
    assert abs(coef[ia] - ca) <= 1e-12
    assert abs(coef[ib] - cb) <= 1e-12
    coef[ia] = coef[ib] = 0.0
    assert np.max(np.abs(coef)) <= 1e-12


def test_orbit_entries_asymptotic_rate():
    """Far unstable end: entry ratio -> e^{-lam (1-gamma)(1-alpha) R_u}."""
    split = MappingTorus().dual_splitting()
    xi_u, xi_s = split.decompose(2.0 * np.pi * np.array([1.0, 0.0]))
    xu, xs, _ = lifted_flow(xi_u, xi_s, 0.0, np.arange(40), split)
    star = np.linalg.norm(split.compose(xu, xs), axis=-1)
    end = int(np.argmax(delta_perp(star, P) * star > 40.0))
    ws = weight(xu[:end + 1], xs[:end + 1], 0.0, split, CFG, P)
    target = np.exp(-split.lam * (1 - 0.0) * (1 - 0.5) * 8.0)
    assert ws[-1] / ws[-2] == pytest.approx(target, rel=0.05)
    res = full_spectrum(0, 1, CFG, 0.1)
    bound = next(c["norm_bound"] for c in res.certificates
                 if c["nu"] == (1, 0))
    assert bound <= target + 2e-3 or bound <= np.exp(-3.0)


def test_orbit_operator_unweighted_is_isometry():
    """R = 0 limit (no weight): all entries 1.  EscapeConfig requires
    positive exponents, so emulate with equal tiny R against W ~ 1."""
    cfg = EscapeConfig(r_u=1e-9, r_s=1e-9, gamma=0.0)
    res = full_spectrum(0, 6, cfg, 2.0, MappingTorus(), P)
    assert max(abs(c["norm_bound"] - 1.0) for c in res.certificates) <= 1e-6


def test_orbit_representatives_partition():
    """Each orbit meeting the box is listed once, by its least point there."""
    torus = MappingTorus()
    reps = orbit_representatives(torus, 6)
    assert reps.shape[1] == 2
    seen = set()
    for rep in map(tuple, reps.tolist()):
        seg = _in_box_segment(torus, rep, 6)
        assert min(seg, key=_key) == rep
        assert not (seg & seen)
        seen |= seg
    box = {(a, b) for a in range(-6, 7) for b in range(-6, 7)} - {(0, 0)}
    assert seen == box
    assert orbit_representatives(torus, 0).shape == (0, 2)


def test_full_spectrum_counts_and_certificates():
    res = full_spectrum(5, 8, CFG, float(np.exp(-3.0)))
    assert len(res.entries) == 11    # 2K + 1
    assert all(c["pass"] for c in res.certificates)
    res0 = full_spectrum(2, 0, CFG, float(np.exp(-3.0)))
    assert len(res0.certificates) == 0 and len(res0.entries) == 5


def test_full_spectrum_tight_threshold_fails():
    """Below e^{-Lambda} some orbit fails its certificate, and says so."""
    lam = MappingTorus().dual_splitting().lam
    tight = 0.5 * np.exp(-lam * 0.5 * 8.0)   # below e^{-Lambda}
    res = full_spectrum(1, 4, CFG, float(tight))
    assert not all(c["pass"] for c in res.certificates)
    assert all(c["pass"] == (c["norm_bound"] <= tight)
               for c in res.certificates)


def test_weyl_count_examples():
    spec = zero_sector_spectrum(5)
    assert weyl_count(SpectrumResult(entries=[]), -1.0, 0.0) == 0
    # window straddling 2 pi k: count 1 (spacing 2 pi > 1)
    for k in (1, 3, 5):
        assert weyl_count(spec, -1.0, 2 * np.pi * k - 0.5) == 1
    assert weyl_count(spec, -1.0, 2 * np.pi * 2 + 1.5) == 0
    # gamma_re above the axis excludes everything
    assert weyl_count(spec, 0.5, 2 * np.pi - 0.5) == 0


def test_weyl_density_flat():
    spec = zero_sector_spectrum(17)
    counts = [weyl_count(spec, -1.0, om) for om in np.arange(0.0, 100.0)]
    assert set(counts) <= {0, 1}
    assert abs(weyl_density_exponent(spec, [4.0, 8.0, 16.0, 32.0, 64.0])) \
        <= 0.05


def test_wavefront_peak_and_offsets():
    torus = MappingTorus()
    split = torus.dual_splitting()
    k = 3
    om0 = 2 * np.pi * k
    peak = wavefront_value(k, 0.0, 0.0, om0, split, P)
    # maximal on the trapped set at matching frequency
    others = [wavefront_value(k, 3.0, 1.0, om0, split, P),
              wavefront_value(k, 0.0, 0.0, om0 + 4.0, split, P),
              wavefront_value(k, 0.0, -6.0, om0 - 2.0, split, P)]
    assert all(peak > v for v in others)
    # distance-5 off the trapped set: ratio <= 1e-4 (Gaussian oracle e^{-12.5})
    from anisospec.bracket_metric import delta_perp
    from scipy.optimize import brentq

    def gdist_of_xiu(c):
        xi = split.compose(c, 0.0)
        en = np.hypot(np.linalg.norm(xi), om0)
        return delta_perp(en, P) * np.linalg.norm(xi)

    c5 = brentq(lambda c: gdist_of_xiu(c) - 5.0, 0.1, 1e5)
    off = wavefront_value(k, c5, 0.0, om0, split, P)
    assert off / peak <= 1e-4


def test_wavefront_bound_frozen():
    hw, worst, _ = wavefront_constants(n=500, seed=8)
    assert hw > 0
    for n_exp, c_frozen in frozen.WAVEFRONT_CN.items():
        assert worst[n_exp] <= c_frozen


def test_wavefront_exponents_are_the_frozen_keys():
    """wavefront_extrema measures exactly the N that frozen.py bounds."""
    assert frozen.WAVEFRONT_CN.keys() == frozen.WAVEFRONT_OUTSIDE_CAL.keys()
    _, worst, worst_out = wavefront_constants(n=10, seed=8)
    assert worst.keys() == worst_out.keys() == frozen.WAVEFRONT_CN.keys()


# each vicinity condition decides the outside maximum of one of the seeds:
# the frequency condition at seed 3, the transverse one at seed 4
@pytest.mark.parametrize("seed", [3, 4])
def test_wavefront_extrema_match_scalar_loop(seed):
    split = MappingTorus().dual_splitting()
    cfg = EscapeConfig(r_u=4.0, r_s=4.0, gamma=0.0)
    k = 3
    om0 = 2 * np.pi * k
    hw, got, got_out = wavefront_constants(n=200, seed=seed)
    rng = np.random.default_rng(seed)
    worst, worst_out = {2: 0.0, 4: 0.0}, {2: 0.0, 4: 0.0}
    for _ in range(200):
        xu = rng.normal() * rng.uniform(0, 30)
        xs = rng.normal() * rng.uniform(0, 30)
        om = om0 + rng.normal() * rng.uniform(0, 30)
        val = wavefront_value(k, xu, xs, om, split, P)
        w = weight(xu, xs, om, split, cfg, P)
        eta = float(np.hypot(np.linalg.norm(split.compose(xu, xs)), om))
        r = max(eta, 2.0) ** 0.4
        outside = not (jbracket(om - om0) <= r
                       and jbracket(eta ** -P.alpha_perp * abs(xs)) <= r)
        for n_exp in (2, 4):
            worst[n_exp] = max(worst[n_exp],
                               val * jbracket(om - om0) ** n_exp * w / hw)
            if outside:
                worst_out[n_exp] = max(worst_out[n_exp],
                                       val * jbracket(eta) ** n_exp / hw)
    assert worst_out[2] > 0.0
    for n_exp in (2, 4):
        assert got[n_exp] == pytest.approx(worst[n_exp], rel=1e-14)
        assert got_out[n_exp] == pytest.approx(worst_out[n_exp], rel=1e-14)
