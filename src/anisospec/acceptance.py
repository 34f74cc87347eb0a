"""Acceptance suite: one callable per criterion, each returning a result
record with a pass flag and a one-line detail string.

The CLI subcommand `verify-all` runs every criterion and prints one line
per result; tests/test_acceptance.py asserts each record.  Tolerances are
pinned here, frozen regression constants live in anisospec.frozen.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import frozen
from .bracket_metric import (MetricParams, delta_par, distortion_from_eta_norm,
                             jbracket, phase_point)
from .escape import (EscapeConfig, decay_rate_fit, lower_bound_report,
                     order_estimate, theoretical_decay_rate,
                     theoretical_orders)
from .fractal_count import (box_counts, growth_slopes,
                            lipschitz_unit_scale_test, optimal_alpha,
                            synth_holder)
from .quantize import microlocality_probe
from .shift_model import (ShiftModel, apply_L, apply_L_inv, eigen_residual,
                          eigvec_U, eigvec_V, interior_slice,
                          membership_truth_table)
from .suspension import (CAT_MAP, CAT_SPLIT, eigenfunction_hw_norm,
                         full_spectrum, generator_residual, wavefront_extrema,
                         weyl_count, weyl_density_exponent,
                         zero_sector_spectrum)
from .wavepackets import (BargmannTransform, TorusGrid, band_coefficients,
                          field_norm, lattice_cube, packet_norm_sq_continuous,
                          window_tails)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    runtime: float = 0.0

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.index:2d} ({self.name}): " \
               f"{self.detail} [{self.runtime:.1f}s]"


def _result(index, name, passed, detail, t0, budget=None):
    elapsed = time.perf_counter() - t0
    if budget is not None:
        if elapsed >= budget:
            passed = False
        detail += f", runtime {elapsed:.1f}s (< {budget:g}s)"
    return CriterionResult(index=index, name=name, passed=bool(passed),
                           detail=detail, runtime=elapsed)


def _par_offset(om0, d, p):
    """The flow frequencies om at dpar-scaled distances d > 0 above om0: per
    entry of the array d, the root of dpar(|om|) (om - om0) = d.

    With alpha_par = 1/2 and om0 >= delta0**-2, dpar(om) = om**-1/2 on
    [om0, inf), so s = sqrt(om) solves s**2 - d s - om0 = 0.  Other inputs
    raise ValueError.
    """
    if p.alpha_par != 0.5 or om0 < p.delta0 ** -2:
        raise ValueError("the closed form needs alpha_par = 1/2 and "
                         f"om0 >= delta0**-2, got {p} and om0 = {om0}")
    d = np.asarray(d, dtype=float)
    return ((d + np.sqrt(d * d + 4 * om0)) / 2) ** 2


# -- 1: Appendix-B truth table ------------------------------------------------


def criterion_1() -> CriterionResult:
    t0 = time.perf_counter()
    rs = [-2.0, -1.0, 0.0, 1.0, 2.0]
    ws = [round(0.1 * k, 1) for k in range(1, 10)]
    records = membership_truth_table(rs, ws, ws)
    mism = 0
    for r, w0, w1, mu, mv in records:
        if mu != (abs(w0) > np.exp(-r)) or mv != (abs(w1) < np.exp(-r)):
            mism += 1
    worst_eig = 0.0
    worst_inv = 0.0
    rng = np.random.default_rng(11)
    for _ in range(60):
        w0 = rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        w1 = rng.uniform(0.1, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        model = ShiftModel(w0=w0, w1=w1, r=rng.uniform(-2, 2),
                           window=(-50, 50))
        worst_eig = max(worst_eig,
                        eigen_residual(model, eigvec_U(model), model.w0),
                        eigen_residual(model, eigvec_V(model), model.w1))
        u = rng.normal(size=model.size) + 1j * rng.normal(size=model.size)
        v = apply_L(model, apply_L_inv(model, u))
        sl = interior_slice(model, 2)
        worst_inv = max(worst_inv, float(np.max(np.abs((v - u)[sl]))))
    ok = mism == 0 and worst_eig <= 1e-12 and worst_inv <= 1e-14
    return _result(1, "shift-model truth table", ok,
                   f"mismatches={mism}, eig_resid={worst_eig:.1e} (<=1e-12), "
                   f"LLinv_resid={worst_inv:.1e} (<=1e-14)", t0, budget=5.0)


# -- 2: resolution of identity ------------------------------------------------

RESOLUTION_GRID = dict(points=128, length=np.pi, band=2, windows=(7, 10, 14))


def criterion_2() -> CriterionResult:
    t0 = time.perf_counter()
    g = TorusGrid(1, RESOLUTION_GRID["points"], length=RESOLUTION_GRID["length"])
    band, rng = RESOLUTION_GRID["band"], np.random.default_rng(5)
    coefs = [band_coefficients(g, band, rng) for _ in range(3)]
    # Parseval: ||(B*B - 1) u|| / ||u|| = ||tail c|| / ||c||, u = sum c_k e_k
    tails = window_tails(g, MetricParams(1.0, 0.5, 0.5), lattice_cube(g, band),
                         RESOLUTION_GRID["windows"])
    residuals = [max(field_norm(t * c) / field_norm(c) for c in coefs)
                 for t in tails]
    ok = residuals[0] <= 1e-3 and residuals[1] < residuals[0] \
        and residuals[2] < residuals[1]
    return _result(2, "resolution of identity", ok,
                   "residuals " + " -> ".join(f"{r:.2e}" for r in residuals)
                   + " (<=1e-3, strictly decreasing)", t0, budget=60.0)


# -- 3: packet norm defect ----------------------------------------------------


def criterion_3() -> CriterionResult:
    t0 = time.perf_counter()
    p = MetricParams(1.0, 0.5, 0.5)
    etas = 2.0 ** np.arange(0, 11)
    defects, deltas = [], []
    for e in etas:
        nsq = packet_norm_sq_continuous(np.array([e, 0.0]), p)
        defects.append(abs(nsq - 1.0))
        deltas.append(distortion_from_eta_norm(e, p))
    defects, deltas = np.asarray(defects), np.asarray(deltas)
    cmax = float(np.max(defects / deltas))
    slope = float(np.polyfit(np.log(deltas), np.log(defects), 1)[0])
    ok = cmax <= frozen.PACKET_NORM_DEFECT_C and slope >= 0.9
    return _result(3, "packet norm defect", ok,
                   f"max defect/Delta={cmax:.3f} "
                   f"(<= {frozen.PACKET_NORM_DEFECT_C}), slope={slope:.2f} "
                   f"(>= 0.9)", t0)


# -- 4: bracket inequality fuzzing -------------------------------------------


def criterion_4() -> CriterionResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n = 100_000
    s = rng.standard_cauchy(n) * 10.0   # heavy tails stress the inequalities
    t = rng.standard_cauchy(n) * 10.0
    viol = {}
    viol["sum"] = int(np.sum(jbracket(s + t) > jbracket(s) + jbracket(t)))
    viol["prod"] = int(np.sum(jbracket(s * t) > jbracket(s) * jbracket(t)
                              * (1 + 1e-14)))
    s_nz = np.where(s == 0.0, 1.0, s)
    viol["prod2"] = int(np.sum(jbracket(t / s_nz)
                               < jbracket(s_nz) ** (-1.0) * jbracket(t)
                               * (1 - 1e-14)))
    for th in (0.0, 0.3, 0.7, 0.9):
        lhs = jbracket(s) ** th
        mid = jbracket(np.abs(s) ** th)
        rhs = np.sqrt(2.0) * jbracket(s) ** th
        viol[f"power{th}"] = int(np.sum((lhs > mid * (1 + 1e-14))
                                        | (mid > rhs * (1 + 1e-14))))
    viol["jb1"] = int(np.sum(jbracket(t) / jbracket(s)
                             > 2.0 * jbracket((t - s) / jbracket(s))
                             * (1 + 1e-14)))
    for th in (0.0, 0.3, 0.7, 0.9):
        c = 4.0 ** (1.0 / (1.0 - th))
        lhs = jbracket(t) / jbracket(s)
        rhs = c * jbracket(np.abs(t - s) / jbracket(t) ** th) \
            ** (1.0 / (1.0 - th))
        viol[f"jb2_{th}"] = int(np.sum(lhs > rhs * (1 + 1e-14)))
    total = sum(viol.values())
    return _result(4, "bracket inequality fuzzing", total == 0,
                   f"violations={total} over {n} samples x "
                   f"{len(viol)} inequalities", t0, budget=5.0)


# -- 5: escape decay rate -----------------------------------------------------


def criterion_5() -> CriterionResult:
    t0 = time.perf_counter()
    ts = np.linspace(0.0, 3.0, 13)
    worst_rel = 0.0
    lower_viol = 0
    for gam in (0.0, 0.5):
        for ap in (0.5, 0.67):
            for big_r in (2.0, 8.0):
                p = MetricParams(1.0, ap, 0.0)
                cfg = EscapeConfig(r_u=big_r, r_s=big_r, gamma=gam)
                lam_th = theoretical_decay_rate(CAT_SPLIT, cfg, p)
                slope = decay_rate_fit(1.0e5, 0.0, 1.0, ts, CAT_SPLIT, cfg, p)
                worst_rel = max(worst_rel, abs(-slope - lam_th) / lam_th)
                uv, rv, _ = lower_bound_report(
                    CAT_SPLIT, cfg, p, n_samples=120, seed=3, t_max=4.0,
                    c_frozen=frozen.DECAY_LOWER_C)
                lower_viol += uv + rv
    ok = worst_rel <= 0.10 and lower_viol == 0
    return _result(5, "escape decay rate", ok,
                   f"worst rate mismatch={worst_rel:.2%} (<= 10%), "
                   f"lower-bound violations={lower_viol}", t0)


# -- 6: order estimates -------------------------------------------------------


def criterion_6() -> CriterionResult:
    t0 = time.perf_counter()
    p = MetricParams(1.0, 0.5, 0.0)
    cfg = EscapeConfig(r_u=2.0, r_s=3.0, gamma=0.0)
    th = theoretical_orders(cfg, p)
    dirs = {"flow": (0.0, 0.0, 1.0), "unstable": (1.0, 0.0, 0.0),
            "stable": (0.0, 1.0, 0.0), "transverse": (1.0, 1.0, 0.0)}
    worst = 0.0
    for name, d in dirs.items():
        worst = max(worst,
                    abs(order_estimate(d, CAT_SPLIT, cfg, p) - th[name]))
    p2 = MetricParams(1.0, 0.5, 0.25)
    cfg2 = EscapeConfig(r_u=1.0, r_s=1.0, variant="W2", r1=1.5, t_avg=6.0)
    th2 = theoretical_orders(cfg2, p2)
    for name in ("unstable", "stable"):
        worst = max(worst, abs(order_estimate(dirs[name], CAT_SPLIT, cfg2, p2)
                               - th2[name]))
    ok = worst <= 0.05
    return _result(6, "escape order estimates", ok,
                   f"worst order mismatch={worst:.4f} (<= 0.05)", t0)


# -- 7: cat-map suspension ----------------------------------------------------


def criterion_7() -> CriterionResult:
    t0 = time.perf_counter()
    p = MetricParams(1.0, 0.5, 0.0)
    cfg = EscapeConfig(r_u=8.0, r_s=8.0, gamma=0.0)
    spec, certs = full_spectrum(5, 20, cfg, float(np.exp(-3.0)), CAT_MAP, p)
    expected = {2.0 * np.pi * k for k in range(-5, 6)}
    got = sorted(spec.imag.tolist())
    spec_err = max(abs(a - b) for a, b in zip(got, sorted(expected)))
    gen_res = max(generator_residual(k) for k in range(-5, 6))
    certs_ok = all(c["pass"] for c in certs)
    spec_big = zero_sector_spectrum(17)
    counts = [weyl_count(spec_big, -1.0, om) for om in np.arange(0.0, 100.0)]
    counts_ok = set(counts) <= {0, 1}
    dens = weyl_density_exponent(spec_big, [4.0, 8.0, 16.0, 32.0, 64.0])
    ok = (len(spec) == 11 and spec_err <= 1e-10 and gen_res <= 1e-10
          and certs_ok and counts_ok and abs(dens) <= 0.05)
    return _result(7, "cat-map suspension", ok,
                   f"zero-sector err={spec_err:.1e} (<=1e-10), "
                   f"gen_resid={gen_res:.1e}, certificates "
                   f"{sum(c['pass'] for c in certs)}/"
                   f"{len(certs)} pass, counts in {{0,1}}: "
                   f"{counts_ok}, density exp={dens:.3f} (|.|<=0.05)", t0,
                   budget=60.0)


# -- 8: fractal Weyl exponent -------------------------------------------------


def criterion_8() -> CriterionResult:
    t0 = time.perf_counter()
    omegas = 2.0 ** np.arange(6, 15)
    alpha_grid = np.arange(0.5, 0.95 + 1e-9, 0.025)
    details = []
    ok = True
    forms = {b0: synth_holder(b0, seed=3) for b0 in (0.5, 0.8, 1.0)}
    for b0, form in forms.items():
        a_star, e_star = optimal_alpha(box_counts(form, omegas, alpha_grid),
                                       omegas, alpha_grid)
        target = 1.0 / (1.0 + b0)
        ok &= abs(a_star - target) <= 0.05 and abs(e_star - target) <= 0.05
        details.append(f"b0={b0}: a*={a_star:.3f}/{target:.3f} "
                       f"e*={e_star:.3f}")
    s_low, s_high = growth_slopes(box_counts(
        forms[0.5], omegas, (0.6, 0.8)), omegas, (0.6, 0.8))
    ok &= abs(s_low - (1.0 - 0.5 * 0.6)) <= 0.07
    ok &= abs(s_high - 0.8) <= 0.07
    details.append(f"slopes {s_low:.3f}/0.70, {s_high:.3f}/0.80")
    return _result(8, "fractal Weyl exponent", ok, "; ".join(details), t0,
                   budget=120.0)


# -- 9: micro-locality --------------------------------------------------------


def criterion_9() -> CriterionResult:
    t0 = time.perf_counter()
    p = MetricParams(1.0, 0.5, 0.5)
    g = TorusGrid(0, 512)
    tr = BargmannTransform(g, p, window=8)
    z0, om0, t_flow = 2.0, 8.0, 0.7
    rho = phase_point(z=z0, omega=om0)
    # phi^t(rho) under the rotation of the flow circle
    zc = z0 - t_flow
    dl = delta_par(om0, p)  # |eta| = om0 on the flow circle
    probes = []
    ds = np.arange(3.0, 6.6, 0.5)
    for d, omp in zip(ds, _par_offset(om0, ds, p)):
        probes.append(phase_point(z=zc, omega=omp))
        probes.append(phase_point(z=zc + d * dl, omega=om0))
    n_fit, peak, dists, mags = microlocality_probe(rho, t_flow, probes, tr,
                                                   fit_range=(3.0, 6.6))
    ratio = float(peak / np.max(mags[dists >= 6.0]))
    peak_ok = abs(peak - 1.0) <= 0.1
    ok = n_fit >= 4.0 and ratio >= 1e3 and peak_ok
    return _result(9, "micro-locality", ok,
                   f"fitted N={n_fit:.1f} (>=4), "
                   f"on/off ratio={ratio:.0f} (>=1e3), "
                   f"peak={peak:.3f}", t0)


# -- 10: wave-front profile ---------------------------------------------------


def criterion_10() -> CriterionResult:
    t0 = time.perf_counter()
    p = MetricParams(1.0, 0.5, 0.0)
    cfg = EscapeConfig(r_u=4.0, r_s=4.0, gamma=0.0)
    k = 3
    hw = eigenfunction_hw_norm(k, CAT_SPLIT, p, cfg)
    worst, worst_out = wavefront_extrema(k, CAT_SPLIT, p, cfg, hw,
                                         n_samples=3000, seed=13)
    bound_ok = all(worst[n] <= frozen.WAVEFRONT_CN[n] for n in worst)
    out_ok = all(worst_out[n] <= frozen.WAVEFRONT_OUTSIDE_CAL[n]
                 for n in worst_out)

    # Gaussian-overlap agreement measured on a unit-circumference z-circle,
    # where the eigenfunction frequencies 2 pi k sit on the DFT lattice
    p_grid = MetricParams(1.0, 0.5, 0.5)
    g = TorusGrid(0, 2048, length=1.0)
    tr = BargmannTransform(g, p_grid, window=30)
    k_grid = 10
    om_g = 2.0 * np.pi * k_grid
    u = np.exp(1j * om_g * g.axis)
    peak = abs(tr.forward_at(u, [phase_point(z=0.3, omega=om_g)])[0])
    overlap_ok = True
    ratios = []
    d_offs = (1.0, 2.0, 3.0)
    for d_off, omp in zip(d_offs, _par_offset(om_g, d_offs, p_grid)):
        meas = abs(tr.forward_at(u, [phase_point(z=0.3, omega=omp)])[0]) / peak
        oracle = float(np.exp(-d_off**2 / 2.0))
        ratios.append(meas / oracle)
        overlap_ok &= 0.5 <= meas / oracle <= 2.0
    ok = bound_ok and out_ok and overlap_ok
    return _result(10, "wave-front profile", ok,
                   f"C2={worst[2]:.2f}/{frozen.WAVEFRONT_CN[2]}, "
                   f"C4={worst[4]:.2f}/{frozen.WAVEFRONT_CN[4]}, "
                   f"outside ok={out_ok}, overlap/oracle="
                   + ",".join(f"{r:.2f}" for r in ratios), t0)


# -- 11: straightening Lipschitz test ----------------------------------------


def criterion_11() -> CriterionResult:
    t0 = time.perf_counter()
    # sharpness of the hypothesis: only beta0 = 0.5 leaves 1/(1+b0) - 0.1
    # inside the admissible alpha_perp range [1/2, 1); one draw serves all
    forms = {b0: synth_holder(b0, seed=7) for b0 in (0.5, 0.8)}
    r5, r_bad, r8 = lipschitz_unit_scale_test(
        [(forms[b0], MetricParams(1.0, 1.0 / (1.0 + b0) - shift, 0.0))
         for b0, shift in ((0.5, 0.0), (0.5, 0.1), (0.8, 0.0))],
        n_pairs=10000, seed=4)
    # a NaN ratio counts as a violation
    v5, v8, v_bad = (np.count_nonzero(~(r <= frozen.LIPSCHITZ_C[b0]))
                     for r, b0 in ((r5, 0.5), (r8, 0.8), (r_bad, 0.5)))
    ok = v5 == 0 and v8 == 0 and v_bad > 0
    details = [f"b0=0.5: viol {v5}", f"b0=0.8: viol {v8}",
               f"b0=0.5 at alpha-0.1: viol {v_bad} (>0)"]
    return _result(11, "straightening Lipschitz", ok, "; ".join(details), t0)


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8,
                criterion_9, criterion_10, criterion_11]
