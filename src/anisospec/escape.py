"""Escape functions over linear hyperbolic models.

Two weight families on phase space: the ratio-of-brackets weight
W(rho) = <h |Xi_s|_g>^{R_s} / <h |Xi_u|_g>^{R_u} with the scaling factor
h = h0 <|Xi_*|_g>^{-gamma}, and the projective-average weight
W2(rho) = <|Xi_*|_g>^{(r1/(1-alpha_perp)) a(Xi_*)}.  Covectors are handled
through their components along fixed unit stable/unstable dual directions,
which is exact for linear models (constant splitting, Holder exponents 1).
`weight` takes whole arrays of covector components, and its callers pass
them so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bracket_metric import (MetricParams, delta_perp, g_norm, jbracket,
                             smoothstep)

A0_WIDTH = 0.2  # radians; transition width of the projective profile


@dataclass(frozen=True)
class DualSplitting:
    """Constant dual splitting of the cotangent fiber for a linear model.

    e_u_dual / e_s_dual are unit covectors spanning the transverse plane,
    the Anosov one-form is the flow covector dz (A(X) = 1, kernel the
    transverse plane), and lam > 0 is the hyperbolicity exponent.
    """

    e_u_dual: np.ndarray
    e_s_dual: np.ndarray
    lam: float

    @classmethod
    def from_matrix(cls, m) -> "DualSplitting":
        """Splitting from a hyperbolic 2x2 matrix acting on frequencies.

        Read-only eigenvectors, normalized to unit length with positive first
        coordinate; the expanding one is the unstable dual direction.
        """
        m = np.asarray(m, dtype=float)
        w, v = np.linalg.eig(m)
        if np.any(np.abs(w.imag) > 1e-12) \
                or np.any(np.abs(np.abs(w) - 1.0) < 1e-12):
            raise ValueError("matrix is not hyperbolic")
        w = w.real
        v = v.real
        iu = int(np.argmax(np.abs(w)))
        i_s = 1 - iu
        vecs = []
        for i in (iu, i_s):
            e = v[:, i]
            if e[0] < 0 or (e[0] == 0 and e[1] < 0):
                e = -e
            e = e / np.linalg.norm(e)
            e.setflags(write=False)  # one splitting is shared by many callers
            vecs.append(e)
        return cls(e_u_dual=vecs[0], e_s_dual=vecs[1],
                   lam=float(np.log(np.abs(w[iu]))))

    def compose(self, xi_u, xi_s) -> np.ndarray:
        """Transverse covectors xi_u * e_u + xi_s * e_s, shape (..., n)."""
        return np.multiply.outer(np.asarray(xi_u, float), self.e_u_dual) + \
            np.multiply.outer(np.asarray(xi_s, float), self.e_s_dual)

    def decompose(self, xi_vec):
        """Components (xi_u, xi_s) of transverse covectors xi_vec, shape
        (..., 2), in the dual basis."""
        basis = np.stack([self.e_u_dual, self.e_s_dual], axis=1)
        xi_vec = np.asarray(xi_vec, dtype=float)
        c = np.linalg.solve(basis, xi_vec.reshape(-1, 2).T)
        return c[0].reshape(xi_vec.shape[:-1]), c[1].reshape(xi_vec.shape[:-1])


@dataclass(frozen=True)
class EscapeConfig:
    """Escape-function parameters.

    variant "W_lemma42" is the bracket-ratio weight with exponents
    (r_u, r_s) and scaling exponent gamma; variant "W2" is the
    projective-average weight with order r1 averaged over time t_avg.
    """

    r_u: float = 8.0
    r_s: float = 8.0
    gamma: float = 0.0
    gamma_prime: float = 0.0
    h0: float = 1.0
    variant: str = "W_lemma42"
    r1: float = 1.0
    t_avg: float = 4.0

    def __post_init__(self):
        if self.variant not in ("W_lemma42", "W2"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not all(0.0 < v < math.inf
                   for v in (self.r_u, self.r_s, self.h0, self.t_avg)):
            raise ValueError("r_u, r_s, h0 and t_avg must lie in (0, inf)")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 <= self.gamma_prime <= self.gamma:
            raise ValueError("gamma_prime must lie in [0, gamma]")


def covector_norms(xi_u, xi_s, omega, split: DualSplitting):
    """(|Xi_*|, |eta|) at covector components, eta = (Xi_*, omega); |eta|
    by np.hypot, which does not overflow while |eta| is a float64."""
    xi_star = np.linalg.norm(split.compose(xi_u, xi_s), axis=-1)
    return xi_star, np.hypot(xi_star, omega)


def _gnorm_quantities(xi_u, xi_s, omega, split: DualSplitting, p: MetricParams):
    """(|Xi_u|_g, |Xi_s|_g, |Xi_*|_g) for covector components: the fiber
    metric scales covectors by dperp(|eta|), eta = (Xi_*, omega)."""
    xi_star, eta_norm = covector_norms(xi_u, xi_s, omega, split)
    dp = delta_perp(eta_norm, p)
    return dp * np.abs(xi_u), dp * np.abs(xi_s), dp * xi_star


def h_gamma_perp(star, cfg: EscapeConfig, gamma=None):
    """Scaling factor h0 <|Xi_*|_g>^(-gamma) at star = |Xi_*|_g."""
    g = cfg.gamma if gamma is None else gamma
    return cfg.h0 * jbracket(star) ** (-g)


def _a0_profile(theta):
    """Smoothed step on the projective circle: -1 near [E_u*], +1 near [E_s*].

    [E_u*] sits at angles {0, pi}, [E_s*] at pi/2.  Two smooth transition
    bands of width A0_WIDTH are centered at pi/4 and 3pi/4.
    """
    theta = np.asarray(theta, dtype=float)
    d = np.minimum(theta, np.pi - theta)  # distance to [E_u*] along the circle
    lo = np.pi / 4 - A0_WIDTH / 2
    return -1.0 + 2.0 * smoothstep((d - lo) / A0_WIDTH)


def projective_average(xi_u, xi_s, cfg: EscapeConfig, split: DualSplitting):
    """Time average of the projective profile along the linear flow.

    a(Xi_*) = (1/2T) int_{-T}^{T} a0([phi^t Xi_*]) dt by the trapezoid rule on
    65 times; the projective flow is explicit: components scale by e^{+-lam t}.
    The angle of the covector class in the (u, s)-coefficient plane is taken
    in [0, pi).
    """
    ts = np.linspace(-cfg.t_avg, cfg.t_avg, 65)
    xi_u, xi_s = np.broadcast_arrays(np.asarray(xi_u, float),
                                     np.asarray(xi_s, float))
    xu, xs = lifted_flow(xi_u, xi_s, ts.reshape((-1,) + (1,) * xi_u.ndim),
                         split)
    theta = np.mod(np.arctan2(xs, xu), np.pi)
    out = np.trapezoid(_a0_profile(theta), ts, axis=0) / (2.0 * cfg.t_avg)
    return float(out) if np.ndim(out) == 0 else out


def weight(xi_u, xi_s, omega, split: DualSplitting, cfg: EscapeConfig,
           p: MetricParams):
    """Escape weight at the covectors with the given (broadcast) components."""
    nu, ns, star = _gnorm_quantities(xi_u, xi_s, omega, split, p)
    if cfg.variant == "W_lemma42":
        h = h_gamma_perp(star, cfg)
        out = jbracket(h * ns) ** cfg.r_s / jbracket(h * nu) ** cfg.r_u
    else:
        a = projective_average(xi_u, xi_s, cfg, split)
        out = jbracket(star) ** (cfg.r1 / (1.0 - p.alpha_perp) * a)
    return float(out) if np.ndim(out) == 0 else out


def lifted_flow(xi_u, xi_s, t, split: DualSplitting):
    """Linear-model lifted flow (xu, xs): Xi_u grows, Xi_s shrinks."""
    e = np.exp(split.lam * np.asarray(t, float))
    return np.asarray(xi_u, float) * e, np.asarray(xi_s, float) / e


def decay_rate_fit(xi_u, xi_s, omega, ts, split, cfg, p):
    """OLS slope of log W(phi^t rho)/W(rho) against t (the measured -Lambda)."""
    ts = np.asarray(ts, dtype=float)
    w = weight(*lifted_flow(xi_u, xi_s, np.append(0.0, ts), split), omega,
               split, cfg, p)
    return float(np.polyfit(ts, np.log(w[1:] / w[0]), 1)[0])


def order_estimate(direction, split: DualSplitting, cfg: EscapeConfig,
                   p: MetricParams):
    """Least-squares slope of log W(alpha * Xi) vs log alpha.

    direction is a (xi_u, xi_s, omega) component triple; the sweep is the
    dyadic alpha in {2^4 .. 2^12}.
    """
    xu, xs, om = (float(c) for c in direction)
    if xu == 0.0 and xs == 0.0 and om == 0.0:
        raise ValueError("direction must be nonzero")
    alphas = 2.0 ** np.arange(4, 13)
    vals = weight(alphas * xu, alphas * xs, alphas * om, split, cfg, p)
    return float(np.polyfit(np.log(alphas), np.log(vals), 1)[0])


def theoretical_decay_rate(split: DualSplitting, cfg: EscapeConfig,
                           p: MetricParams) -> float:
    """Lambda = lam (1-gamma)(1-alpha_perp) min(R_s, R_u) for W_lemma42."""
    if cfg.variant == "W_lemma42":
        return split.lam * (1 - cfg.gamma) * (1 - p.alpha_perp) * min(cfg.r_s, cfg.r_u)
    return split.lam * cfg.r1


def theoretical_lower_rate(split: DualSplitting, cfg: EscapeConfig,
                           p: MetricParams) -> float:
    """Lambda' = lam (1-gamma)(1-alpha_perp)(R_s + R_u)."""
    return split.lam * (1 - cfg.gamma) * (1 - p.alpha_perp) * (cfg.r_s + cfg.r_u)


def lower_bound_report(split: DualSplitting, cfg: EscapeConfig, p: MetricParams,
                       n_samples: int = 200, seed: int = 0, t_max: float = 3.0,
                       c_frozen: float = 2.0):
    """Check the lower decay bound W(phi^t rho)/W(rho) >= (1/C) e^{-Lambda' t}.

    Two regimes are verified separately.  On pure-stable, pure-unstable and
    trapped-set covectors the bound holds with the frozen uniform constant.
    On generic mixed covectors no uniform constant exists for the exact
    linear model (the stable bracket can drop arbitrarily fast through its
    transient), so there the claim verified is the rate: once the stable
    bracket has saturated, the one-sided log-slope of the ratio never beats
    -Lambda'.  Returns (uniform_violations, rate_violations, n_rate_checked).
    """
    lam_p = theoretical_lower_rate(split, cfg, p)
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, t_max, 13)
    # rows (xi_u, xi_s, omega): n pure-stable, pure-unstable or trapped-set
    # covectors, then n mixed ones, drawn one covector at a time: the draw
    # order fixes the samples of a seed
    rho = np.empty((2 * n_samples, 3))
    for i in range(n_samples):
        mag = np.exp(rng.uniform(0.0, np.log(1e4)))
        om = rng.uniform(-50.0, 50.0)
        kind = rng.integers(0, 3)
        rho[i] = (mag if kind == 0 else 0.0, mag if kind == 1 else 0.0, om)
    for i in range(n_samples, 2 * n_samples):
        mag_u = np.exp(rng.uniform(0.0, np.log(1e4)))
        mag_s = np.exp(rng.uniform(0.0, np.log(1e4)))
        rho[i] = (mag_u, mag_s, rng.uniform(-50.0, 50.0))
    xu, xs = lifted_flow(rho[:, :1], rho[:, 1:2], ts, split)
    om = rho[:, 2:]
    w = weight(xu, xs, om, split, cfg, p)
    ratio = w / w[:, :1]
    uniform_viol = int(np.count_nonzero(
        ratio[:n_samples, 1:] * np.exp(lam_p * ts[1:]) < 1.0 / c_frozen))
    # transient end: the stable bracket has saturated (margin 0.3, so its
    # residual drop rate is small) and the transverse part dominates the
    # frequency (so dperp attenuates the unstable growth at its full
    # power); past this point the decay rate is ~ lam (1-g)(1-a) R_u.
    xu, xs, om = xu[n_samples:], xs[n_samples:], om[n_samples:]
    _, ns, star = _gnorm_quantities(xu, xs, om, split, p)
    xi_norm, _ = covector_norms(xu, xs, om, split)
    sat = (h_gamma_perp(star, cfg) * ns <= 0.3) & (xi_norm >= 3.0 * np.abs(om))
    i0 = np.argmax(sat, axis=1)[:, None]
    rows = sat.any(axis=1) & (ts[i0[:, 0]] < ts[-2])
    i0, logs = i0[rows], np.log(ratio[n_samples:][rows])
    t0 = ts[i0]
    later = ts > t0 + 1e-12
    slope = (logs - np.take_along_axis(logs, i0, axis=1)) \
        / np.where(later, ts - t0, 1.0)
    rate_viol = int(np.count_nonzero(
        later & (slope < -lam_p * (1.0 + 1e-9) - 1e-9)))
    return uniform_viol, rate_viol, int(np.count_nonzero(later))


def theoretical_orders(cfg: EscapeConfig, p: MetricParams):
    """Orders along E_0*, E_u*, E_s* and a generic transverse direction."""
    if cfg.variant == "W_lemma42":
        c = (1 - cfg.gamma) * (1 - p.alpha_perp)
        return {
            "flow": 0.0,
            "unstable": -c * cfg.r_u,
            "stable": c * cfg.r_s,
            "transverse": c * (cfg.r_s - cfg.r_u),
        }
    return {"flow": 0.0, "unstable": -cfg.r1, "stable": cfg.r1}


def temperate_ratio_samples(split, cfg, p, n_samples=2000, seed=0):
    """Sampled (W(rho')/W(rho), <h_gamma'(rho) |rho'-rho|_g>) pairs in one chart.

    Used to fit/regress the temperate property of the weight; components are
    drawn log-uniformly up to 50 so both near-trapped and far covectors appear.
    The distance is measured in the metric at rho; base-point displacement is
    zero (single fiber), so only frequency components enter.
    """
    rng = np.random.default_rng(seed)
    n = n_samples

    def draw():
        mag = np.exp(rng.uniform(0.0, np.log(50.0), size=n))
        ang = rng.uniform(0.0, 2 * np.pi, size=n)
        om = rng.uniform(-50.0, 50.0, size=n)
        return mag * np.cos(ang), mag * np.sin(ang), om

    (xu0, xs0, om0), (xu1, xs1, om1) = draw(), draw()
    ratios = weight(xu1, xs1, om1, split, cfg, p) \
        / weight(xu0, xs0, om0, split, cfg, p)
    xi0, xi1 = split.compose(xu0, xs0), split.compose(xu1, xs1)
    base = np.zeros((n, xi0.shape[-1] + 1))
    rho0, rho1 = (np.concatenate([base, xi, om[:, None]], axis=1)
                  for xi, om in ((xi0, om0), (xi1, om1)))
    _, _, star0 = _gnorm_quantities(xu0, xs0, om0, split, p)
    h = h_gamma_perp(star0, cfg, gamma=cfg.gamma_prime)
    return ratios, jbracket(h * g_norm(rho0, rho1 - rho0, p))

