#!/usr/bin/env python3
"""Measure the extremum that each constant of anisospec/frozen.py bounds.

Run from the repository root:  python scripts/calibrate_constants.py
Each frozen constant has one measurement here: a function that computes
the inequality the constant bounds over a seeded sample, with its sample
size and seed as arguments and every exponent N read from frozen.py.  The
tier-1 tests call the same functions on smaller samples.  CALIBRATION maps
each measurement to its calibration size and to the lines it prints; each
printed value is a measured extremum, which the committed constant should
dominate with modest headroom.  The script exits 1, naming each frozen
constant that its measured extremum reaches.
"""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from anisospec import frozen
from anisospec.bracket_metric import (MetricParams, delta_par,
                                      distortion_from_eta_norm,
                                      fit_power_constant, g_dist, g_norm,
                                      jbracket, phase_point)
from anisospec.escape import EscapeConfig, temperate_ratio_samples
from anisospec.fractal_count import lipschitz_unit_scale_test, synth_holder
from anisospec.quantize import (BandSubspace, WeightedSpace, bump_symbol,
                                composition_residual, hw_operator_norm,
                                product_symbol)
from anisospec.suspension import (MappingTorus, eigenfunction_hw_norm,
                                  wavefront_extrema)
from anisospec.wavepackets import (BargmannTransform, TorusGrid, exact_packet,
                                   gaussian_packet, packet_norm_sq_continuous)

HALF = MetricParams(1.0, 0.5, 0.5)
# the metric of the random-pair samples
QUARTER = MetricParams(1.0, 0.5, 0.25)


def _random_pair(rng):
    """Two phase points on the 1+1 torus, |xi| and |omega| log-uniform in
    [1, 1e4] with random signs; each point takes 2 uniforms and 2 signs for
    its frequencies, then x and z."""
    e1 = np.exp(rng.uniform(0, np.log(1e4), 2)) * rng.choice([-1, 1], 2)
    e2 = np.exp(rng.uniform(0, np.log(1e4), 2)) * rng.choice([-1, 1], 2)
    return tuple(phase_point(x=[rng.uniform(0, 1)], z=rng.uniform(0, 1),
                             xi=[e[0]], omega=e[1]) for e in (e1, e2))


def metric_temperate(n, seed):
    """Per gamma of METRIC_TEMPERATE, at its N: the largest
    |v|_g(r2) / |v|_g(r1) / <Delta(r1)^gamma d_g(r1, r2)>^N in the QUARTER
    metric over n random pairs and normal vectors v; the gammas take
    successive draws of one generator."""
    rng = np.random.default_rng(seed)
    worst = {}
    for gamma, (_, n_exp) in frozen.METRIC_TEMPERATE.items():
        worst[gamma] = 0.0
        for _ in range(n):
            r1, r2 = _random_pair(rng)
            v = rng.normal(size=4)
            ratio = g_norm(r2, v, QUARTER) / g_norm(r1, v, QUARTER)
            br = jbracket(distortion_from_eta_norm(r1.eta_norm, QUARTER)
                          ** gamma * g_dist(r1, r2, QUARTER))
            worst[gamma] = max(worst[gamma], ratio / br**n_exp)
    return worst


def gdist_equivalence(n, seed):
    """The largest <d(b,a)> / <d(a,b)>^GDIST_EQUIV_N over n random pairs in
    the QUARTER metric, with the per-pair distances d(a,b) and d(b,a)."""
    rng = np.random.default_rng(seed)
    worst, d_ab, d_ba = 0.0, [], []
    for _ in range(n):
        a, b = _random_pair(rng)
        d_ab.append(g_dist(a, b, QUARTER))
        d_ba.append(g_dist(b, a, QUARTER))
        worst = max(worst, jbracket(d_ba[-1])
                    / jbracket(d_ab[-1]) ** frozen.GDIST_EQUIV_N)
    return worst, np.array(d_ab), np.array(d_ba)


def packet_constants(etas, omegas):
    """The largest | ||packet(eta)||^2 - 1 | / Delta(eta) over the 2-D
    centers (eta, 0), as in criterion 3, and the largest
    ||exact - gaussian||_L2 / Delta over the z-circle packets at frequencies
    omegas, with those L2 differences."""
    norm_defect = max(abs(packet_norm_sq_continuous(np.array([e, 0.0]), HALF)
                          - 1.0) / distortion_from_eta_norm(e, HALF)
                      for e in etas)
    g = TorusGrid(0, 2048)
    diffs = [g.norm(exact_packet(rho, HALF, g) - gaussian_packet(rho, HALF, g))
             for rho in (phase_point(z=3.0, omega=om) for om in omegas)]
    gaussian = max(diff / distortion_from_eta_norm(om, HALF)
                   for diff, om in zip(diffs, omegas))
    return norm_defect, gaussian, diffs


def escape_temperate(n, seed):
    """Per N0 in ESCAPE_TEMPERATE_N0 and ESCAPE_TEMPERATE_N0_HIGH: the
    least C with W(r')/W(r) <= C <h_gamma' d_g(r, r')>^N0 on n samples."""
    split = MappingTorus().dual_splitting()
    cfg = EscapeConfig(r_u=2.0, r_s=3.0, gamma=0.5, gamma_prime=0.3)
    p = MetricParams(1.0, 0.67, 0.0)
    ratios, brackets = temperate_ratio_samples(split, cfg, p, n_samples=n,
                                               seed=seed)
    return {n0: fit_power_constant(ratios, brackets, n0)
            for n0 in (frozen.ESCAPE_TEMPERATE_N0,
                       frozen.ESCAPE_TEMPERATE_N0_HIGH)}


def weighted_space_temperate(n, seed):
    """W = <omega> on the circle: the largest W(om2)/W(om1) / <dpar(om1)
    |om2 - om1|>^WSPACE_TEMPERATE_NW over n uniform pairs in [-64, 64]."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        om1, om2 = rng.uniform(-64, 64, 2)
        dist = delta_par(abs(om1), HALF) * abs(om2 - om1)
        worst = max(worst, jbracket(om2) / jbracket(om1)
                    / jbracket(dist) ** frozen.WSPACE_TEMPERATE_NW)
    return worst


def bracket_space():
    """H_<omega> on the 128-point z-circle, band 4: the space of
    `anisospec quantize-probes`."""
    tr = BargmannTransform(TorusGrid(0, 128), HALF, window=16)
    return WeightedSpace(weight=lambda sg, eta: jbracket(eta[-1])
                         * np.ones_like(sg[0]),
                         transform=tr, band=BandSubspace(tr.grid, 4))


def composition_constant(centers):
    """The largest ||Op(a)Op(b) - Op(ab)||_HW / ||a h_b||_inf in H_<omega>
    over the bumps a, b centered at z = za, zb for (za, zb) in centers,
    with each pair's residual."""
    space = bracket_space()
    worst, residuals = 0.0, []
    for za, zb in centers:
        sa = bump_symbol(za, 4.0, 2.0, 8.0)
        sb = bump_symbol(zb, -2.0, 2.5, 10.0)
        est, bound = composition_residual(sa, sb, 0.2, space, c_frozen=1.0)
        residuals.append(est)
        worst = max(worst, est / bound)
    return worst, residuals


def corollary_constant(c_neighs):
    """The largest C^N ||Op(a)Op(b) - Op(ab)||_HW, N = COROLLARY_N, in
    H_<omega> over the pairs of _corollary_pair(C) for C in c_neighs, with
    its residual per C."""
    space = bracket_space()
    tr = space.transform
    worst, residuals = 0.0, {}
    for c_neigh in c_neighs:
        a, b = _corollary_pair(c_neigh)

        def t_apply(u):
            return tr.op_apply(tr.op_apply(u, b), a) \
                - tr.op_apply(u, product_symbol(a, b))

        residuals[c_neigh] = hw_operator_norm(t_apply, space)
        worst = max(worst, residuals[c_neigh] * c_neigh ** frozen.COROLLARY_N)
    return worst, residuals


def _corollary_pair(c_neigh):
    """Indicator of a phase ball and a symbol constant on its C-neighborhood.

    The variation onset |omega| ~ rad + c_neigh stays inside the realized
    phase window so the commutator genuinely sees it.
    """
    z0, om0, rad = np.pi, 0.0, 1.0

    def dist(sg, eta):
        dz2 = 2.0 * (1.0 - np.cos(sg[0] - z0))
        return np.sqrt(4.0 * dz2 + (eta[-1] - om0) ** 2)

    a = lambda sg, eta: (dist(sg, eta) <= rad).astype(float)
    b = lambda sg, eta: 1.0 + np.maximum(dist(sg, eta) - rad - c_neigh, 0.0)
    return a, b


def wavefront_constants(n, seed):
    """||phi_3||_HW, and per N the largest |B phi_3| <omega - omega0>^N W
    and, outside the parabolic vicinity, |B phi_3| <eta>^N, each over
    ||phi_3||_HW, on n sampled covectors."""
    split = MappingTorus().dual_splitting()
    p = MetricParams(1.0, 0.5, 0.0)
    cfg = EscapeConfig(r_u=4.0, r_s=4.0, gamma=0.0)
    k = 3
    hw = eigenfunction_hw_norm(k, split, p, cfg)
    worst, worst_out = wavefront_extrema(k, split, p, cfg, hw, n_samples=n,
                                         seed=seed)
    return hw, worst, worst_out


def lipschitz_constants(n, seed):
    """Per beta0 of LIPSCHITZ_C: the largest <|Phi(r')-Phi(r)|_g> /
    <|r'-r|_g> over n pairs, at the admissible alpha_perp = 1/(1+beta0)."""
    return {b0: lipschitz_unit_scale_test(
        synth_holder(b0, seed=7), MetricParams(1.0, 1.0 / (1.0 + b0), 0.0),
        n_pairs=n, seed=seed).max_ratio for b0 in frozen.LIPSCHITZ_C}


def _at_least(label, value, bound=None, at=""):
    """A printed extremum and the frozen value that bounds it, if any."""
    return f"{label} >= {value:.4f}{at}", value, bound


# measurement -> (its calibration arguments, the frozen constants it
# measures, and its printed lines: (text, measured, frozen value) rows, the
# frozen value None where no constant bounds the line)
CALIBRATION = {
    metric_temperate: (dict(n=20000, seed=0), ["METRIC_TEMPERATE"], lambda w: [
        _at_least(f"metric temperate gamma={g}: C", v, c, f" at N={n}")
        for g, v in w.items() for c, n in [frozen.METRIC_TEMPERATE[g]]]),
    gdist_equivalence: (dict(n=20000, seed=1), ["GDIST_EQUIV_C"], lambda r: [
        _at_least("g-dist equivalence: C", r[0], frozen.GDIST_EQUIV_C,
                  f" at N={frozen.GDIST_EQUIV_N}")]),
    packet_constants: (
        dict(etas=2.0 ** np.arange(0, 11), omegas=(8.0, 32.0, 128.0, 512.0)),
        ["PACKET_NORM_DEFECT_C", "GAUSSIAN_DIFF_C"], lambda r: [
            _at_least("packet norm defect: C", r[0],
                      frozen.PACKET_NORM_DEFECT_C),
            _at_least("gaussian-vs-exact: C", r[1], frozen.GAUSSIAN_DIFF_C)]),
    escape_temperate: (
        dict(n=20000, seed=1), ["ESCAPE_TEMPERATE_C"], lambda w: [
            _at_least(f"escape W temperate N0={n0}: C", v,
                      frozen.ESCAPE_TEMPERATE_C
                      if n0 == frozen.ESCAPE_TEMPERATE_N0 else None)
            for n0, v in w.items()]),
    weighted_space_temperate: (
        dict(n=20000, seed=2), ["WSPACE_TEMPERATE_C"], lambda v: [
            _at_least("weighted space <omega>^1 temperate: C", v,
                      frozen.WSPACE_TEMPERATE_C,
                      f" at N_W={frozen.WSPACE_TEMPERATE_NW}")]),
    composition_constant: (
        dict(centers=((2.0, 3.5), (1.0, 1.5), (4.0, 0.5))), ["COMPOSITION_C"],
        lambda r: [_at_least("composition: C", r[0], frozen.COMPOSITION_C)]),
    corollary_constant: (
        dict(c_neighs=(2.0, 4.0, 8.0)), ["COROLLARY_CN"], lambda r: [
            *((f"  corollary C={c}: residual {est:.3e}", est, None)
              for c, est in r[1].items()),
            _at_least("corollary: C_N", r[0], frozen.COROLLARY_CN,
                      f" at N={frozen.COROLLARY_N}")]),
    wavefront_constants: (
        dict(n=4000, seed=3), ["WAVEFRONT_CN", "WAVEFRONT_OUTSIDE_CAL"],
        lambda r: [
            (f"||phi_3||_HW = {r[0]:.4f}", r[0], None),
            *(_at_least(f"wavefront C_{n}", v, frozen.WAVEFRONT_CN[n])
              for n, v in r[1].items()),
            *(_at_least(f"wavefront outside CAL_{n}", v,
                        frozen.WAVEFRONT_OUTSIDE_CAL[n])
              for n, v in r[2].items())]),
    lipschitz_constants: (dict(n=10000, seed=4), ["LIPSCHITZ_C"], lambda w: [
        _at_least(f"lipschitz beta0={b0}: C", v, frozen.LIPSCHITZ_C[b0])
        for b0, v in w.items()]),
}


def main():
    """Print every extremum; 1 when one reaches its frozen constant."""
    reached = []
    for measure, (size, _, lines) in CALIBRATION.items():
        for text, value, bound in lines(measure(**size)):
            print(text)
            if bound is not None and value >= bound:
                reached.append(f"frozen constant reached: {text}, "
                               f"frozen {bound}")
    for line in reached:
        print(line)
    return 1 if reached else 0


if __name__ == "__main__":
    sys.exit(main())
