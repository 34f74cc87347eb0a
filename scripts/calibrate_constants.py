#!/usr/bin/env python3
"""Recompute the frozen regression constants committed in anisospec/frozen.py.

Run from the repository root:  python scripts/calibrate_constants.py
Each printed value is the measured extremum; the committed constant should
dominate it with modest headroom (the suite asserts against the frozen
values, so regressions show up as new extrema crossing them).  The script
exits 1, naming each frozen constant that its measured extremum reaches.
"""

import sys
import pathlib

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from anisospec import frozen
from anisospec.bracket_metric import (MetricParams, distortion_from_eta_norm,
                                      fit_power_constant, g_dist, g_norm,
                                      jbracket, phase_point)
from anisospec.escape import EscapeConfig, temperate_ratio_samples
from anisospec.fractal_count import lipschitz_unit_scale_test, synth_holder
from anisospec.suspension import (MappingTorus, eigenfunction_hw_norm,
                                  wavefront_extrema)
from anisospec.wavepackets import (BargmannTransform, TorusGrid, exact_packet,
                                   gaussian_packet, packet_norm_sq_continuous)


def metric_temperate():
    """Moderate/temperate metric constants for gamma in {0, 0.5}."""
    p = MetricParams(1.0, 0.5, 0.25)
    rng = np.random.default_rng(0)
    n = 20000
    report = {}
    for gamma, n_exp in ((0.0, 3.0), (0.5, 5.0)):
        worst = 0.0
        for _ in range(n):
            e1 = np.exp(rng.uniform(0, np.log(1e4), 2)) * rng.choice([-1, 1], 2)
            e2 = np.exp(rng.uniform(0, np.log(1e4), 2)) * rng.choice([-1, 1], 2)
            r1 = phase_point(x=[rng.uniform(0, 1)], z=rng.uniform(0, 1),
                             xi=[e1[0]], omega=e1[1])
            r2 = phase_point(x=[rng.uniform(0, 1)], z=rng.uniform(0, 1),
                             xi=[e2[0]], omega=e2[1])
            v = rng.normal(size=4)
            ratio = g_norm(r2, v, p) / g_norm(r1, v, p)
            br = jbracket(distortion_from_eta_norm(r1.eta_norm, p) ** gamma
                          * g_dist(r1, r2, p))
            worst = max(worst, ratio / br**n_exp)
        report[gamma] = (worst, n_exp)
        print(f"metric temperate gamma={gamma}: C >= {worst:.4f} at N={n_exp}")
    return report


def gdist_equivalence():
    p = MetricParams(1.0, 0.5, 0.25)
    rng = np.random.default_rng(1)
    worst = 0.0
    n_exp = 3.0
    for _ in range(20000):
        e1 = np.exp(rng.uniform(0, np.log(1e4), 2)) * rng.choice([-1, 1], 2)
        e2 = np.exp(rng.uniform(0, np.log(1e4), 2)) * rng.choice([-1, 1], 2)
        r1 = phase_point(x=[rng.uniform(0, 1)], z=rng.uniform(0, 1),
                         xi=[e1[0]], omega=e1[1])
        r2 = phase_point(x=[rng.uniform(0, 1)], z=rng.uniform(0, 1),
                         xi=[e2[0]], omega=e2[1])
        worst = max(worst, jbracket(g_dist(r2, r1, p))
                    / jbracket(g_dist(r1, r2, p)) ** n_exp)
    print(f"g-dist equivalence: C >= {worst:.4f} at N={n_exp}")
    return worst


def packet_constants():
    p = MetricParams(1.0, 0.5, 0.5)
    etas = 2.0 ** np.arange(0, 11)
    worst = 0.0
    for e in etas:
        nsq = packet_norm_sq_continuous(np.array([e, 0.0]), p, 2)
        worst = max(worst, abs(nsq - 1.0)
                    / distortion_from_eta_norm(e, p))
    print(f"packet norm defect: C >= {worst:.4f}")
    g1 = TorusGrid(0, 2048, length=2 * np.pi)
    worst_g = 0.0
    for om in (8.0, 32.0, 128.0, 512.0):
        rho = phase_point(z=3.0, omega=om)
        ex = exact_packet(rho, p, g1)
        ga = gaussian_packet(rho, p, g1)
        worst_g = max(worst_g, g1.norm(ex - ga)
                      / distortion_from_eta_norm(om, p))
    print(f"gaussian-vs-exact: C >= {worst_g:.4f}")
    return worst, worst_g


def escape_temperate():
    split = MappingTorus().dual_splitting()
    cfg = EscapeConfig(r_u=2.0, r_s=3.0, gamma=0.5, gamma_prime=0.3)
    p = MetricParams(1.0, 0.67, 0.0)
    ratios, brackets = temperate_ratio_samples(split, cfg, p,
                                               n_samples=20000, seed=1)
    worst = {}
    for n0 in (4.0, 6.0):
        worst[n0] = fit_power_constant(ratios, brackets, n0)
        print(f"escape W temperate N0={n0}: C >= {worst[n0]:.4f}")
    return worst


def weighted_space_temperate():
    """W = <omega>^r on the circle: same-fiber sampled temperate constant."""
    p = MetricParams(1.0, 0.5, 0.5)
    rng = np.random.default_rng(2)
    from anisospec.bracket_metric import delta_par
    worst = 0.0
    r_ord, n_w = 1.0, 2.0
    for _ in range(20000):
        om1 = rng.uniform(-64, 64)
        om2 = rng.uniform(-64, 64)
        dist = delta_par(abs(om1), p) * abs(om2 - om1)
        ratio = (jbracket(om2) / jbracket(om1)) ** r_ord
        worst = max(worst, ratio / jbracket(dist) ** n_w)
    print(f"weighted space <omega>^1 temperate: C >= {worst:.4f} at N_W={n_w}")
    return worst


def composition_constant():
    from anisospec.quantize import (BandSubspace, WeightedSpace, bump_symbol,
                                    composition_residual)
    p = MetricParams(1.0, 0.5, 0.5)
    g = TorusGrid(0, 128)
    tr = BargmannTransform(g, p, window=16)
    wfun = lambda sg, eta: jbracket(eta[-1]) ** 1.0 * np.ones_like(sg[0])
    space = WeightedSpace(weight=wfun, transform=tr, band=BandSubspace(g, 4))

    worst = 0.0
    for za, zb in ((2.0, 3.5), (1.0, 1.5), (4.0, 0.5)):
        sa = bump_symbol(za, 4.0, 2.0, 8.0, 0.2)
        sb = bump_symbol(zb, -2.0, 2.5, 10.0, 0.2)
        est, bound = composition_residual(sa, sb, space, c_frozen=1.0)
        worst = max(worst, est / bound)
    print(f"composition: C >= {worst:.4f}")
    return worst


def corollary_constant():
    from anisospec.quantize import (BandSubspace, WeightedSpace,
                                    hw_operator_norm, product_symbol)
    p = MetricParams(1.0, 0.5, 0.5)
    g = TorusGrid(0, 128)
    tr = BargmannTransform(g, p, window=16)
    wfun = lambda sg, eta: np.ones_like(sg[0], dtype=float)
    space = WeightedSpace(weight=wfun, transform=tr, band=BandSubspace(g, 4))
    worst, n_exp = 0.0, 2.0
    for c_neigh in (2.0, 4.0, 8.0):
        a, b = _corollary_pair(c_neigh)
        def t_apply(u):
            return tr.op_apply(tr.op_apply(u, b.fn), a.fn) \
                - tr.op_apply(u, product_symbol(a, b).fn)
        est = hw_operator_norm(t_apply, space)
        print(f"  corollary C={c_neigh}: residual {est:.3e}")
        worst = max(worst, est * c_neigh**n_exp)
    print(f"corollary: C_N >= {worst:.4f} at N={n_exp}")
    return worst


def _corollary_pair(c_neigh):
    """Indicator of a phase ball and a symbol constant on its C-neighborhood.

    The variation onset |omega| ~ rad + c_neigh stays inside the realized
    phase window so the commutator genuinely sees it.
    """
    from anisospec.quantize import Symbol
    z0, om0, rad = np.pi, 0.0, 1.0

    def dist(sg, eta):
        dz2 = 2.0 * (1.0 - np.cos(sg[0] - z0))
        return np.sqrt(4.0 * dz2 + (eta[-1] - om0) ** 2)

    a = Symbol(fn=lambda sg, eta: (dist(sg, eta) <= rad).astype(float))
    b = Symbol(fn=lambda sg, eta: 1.0
               + np.maximum(dist(sg, eta) - rad - c_neigh, 0.0),
               h=None)
    return a, b


def wavefront_constants():
    torus = MappingTorus()
    split = torus.dual_splitting()
    p = MetricParams(1.0, 0.5, 0.0)
    cfg = EscapeConfig(r_u=4.0, r_s=4.0, gamma=0.0)
    k = 3
    hw = eigenfunction_hw_norm(k, split, p, cfg)
    print(f"||phi_3||_HW = {hw:.4f}")
    worst, worst_out = wavefront_extrema(k, split, p, cfg, hw, n_samples=4000,
                                         seed=3)
    for n_exp, v in worst.items():
        print(f"wavefront C_{n_exp} >= {v:.4f}")
    for n_exp, v in worst_out.items():
        print(f"wavefront outside CAL_{n_exp} >= {v:.4f}")
    return worst, worst_out


def lipschitz_constants():
    worst = {}
    for b0 in (0.5, 0.8, 1.0):
        form = synth_holder(b0, seed=7)
        p = MetricParams(1.0, 1.0 / (1.0 + b0), 0.0)
        rep = lipschitz_unit_scale_test(form, p, n_pairs=10000, seed=4)
        worst[b0] = rep.max_ratio
        print(f"lipschitz beta0={b0}: C >= {rep.max_ratio:.4f}")
    return worst


def main():
    """Print every extremum; 1 when one reaches its frozen constant."""
    metric = metric_temperate()
    gdist = gdist_equivalence()
    packet_norm, gaussian = packet_constants()
    escape = escape_temperate()
    wspace = weighted_space_temperate()
    composition = composition_constant()
    corollary = corollary_constant()
    wavefront, outside = wavefront_constants()
    lipschitz = lipschitz_constants()
    checks = [
        *((f"METRIC_TEMPERATE[{g}]", v, frozen.METRIC_TEMPERATE[g][0])
          for g, (v, _) in metric.items()),
        ("GDIST_EQUIV_C", gdist, frozen.GDIST_EQUIV_C),
        ("PACKET_NORM_DEFECT_C", packet_norm, frozen.PACKET_NORM_DEFECT_C),
        ("GAUSSIAN_DIFF_C", gaussian, frozen.GAUSSIAN_DIFF_C),
        ("ESCAPE_TEMPERATE_C", escape[frozen.ESCAPE_TEMPERATE_N0],
         frozen.ESCAPE_TEMPERATE_C),
        ("WSPACE_TEMPERATE_C", wspace, frozen.WSPACE_TEMPERATE_C),
        ("COMPOSITION_C", composition, frozen.COMPOSITION_C),
        ("COROLLARY_CN", corollary, frozen.COROLLARY_CN),
        *((f"WAVEFRONT_CN[{n}]", v, frozen.WAVEFRONT_CN[n])
          for n, v in wavefront.items()),
        *((f"WAVEFRONT_OUTSIDE_CAL[{n}]", v, frozen.WAVEFRONT_OUTSIDE_CAL[n])
          for n, v in outside.items()),
        *((f"LIPSCHITZ_C[{b0}]", v, frozen.LIPSCHITZ_C[b0])
          for b0, v in lipschitz.items()),
    ]
    reached = [(name, v, c) for name, v, c in checks if v >= c]
    for name, v, c in reached:
        print(f"frozen constant reached: {name} = {c}, measured {v:.4f}")
    return 1 if reached else 0


if __name__ == "__main__":
    sys.exit(main())
