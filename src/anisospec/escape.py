"""Escape functions over linear hyperbolic models.

Two weight families on phase space: the ratio-of-brackets weight
W(rho) = <h |Xi_s|_g>^{R_s} / <h |Xi_u|_g>^{R_u} with the scaling factor
h = h0 <|Xi_*|_g>^{-gamma}, and the projective-average weight
W2(rho) = <|Xi_*|_g>^{(r1/(1-alpha_perp)) a(Xi_*)}.  Covectors are handled
through their components along fixed unit stable/unstable dual directions,
which is exact for linear models (constant splitting, Holder exponents 1).
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .bracket_metric import MetricParams, delta_par, delta_perp, jbracket


@dataclass(frozen=True)
class DualSplitting:
    """Constant dual splitting of the cotangent fiber for a linear model.

    e_u_dual / e_s_dual are unit covectors spanning the transverse plane,
    the Anosov one-form is the flow covector dz (A(X) = 1, kernel the
    transverse plane), and lam / lam_max are the hyperbolicity exponents.
    """

    e_u_dual: np.ndarray
    e_s_dual: np.ndarray
    lam: float
    lam_max: float

    def __post_init__(self):
        eu = np.asarray(self.e_u_dual, dtype=float)
        es = np.asarray(self.e_s_dual, dtype=float)
        if eu.shape != es.shape or eu.ndim != 1:
            raise ValueError("dual directions must be 1-d vectors of equal length")
        object.__setattr__(self, "e_u_dual", eu / np.linalg.norm(eu))
        object.__setattr__(self, "e_s_dual", es / np.linalg.norm(es))
        if not (self.lam > 0 and self.lam_max >= self.lam):
            raise ValueError("need 0 < lam <= lam_max")

    @property
    def n(self) -> int:
        return self.e_u_dual.size

    @classmethod
    def from_matrix(cls, m) -> "DualSplitting":
        """Splitting from a hyperbolic 2x2 matrix acting on frequencies.

        Eigenvectors are normalized to unit length with positive first
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
            vecs.append(e / np.linalg.norm(e))
        lam = float(np.log(np.abs(w[iu])))
        return cls(e_u_dual=vecs[0], e_s_dual=vecs[1], lam=lam, lam_max=lam)

    def compose(self, xi_u, xi_s) -> np.ndarray:
        """Transverse covector xi_u * e_u + xi_s * e_s."""
        return np.multiply.outer(np.asarray(xi_u, float), self.e_u_dual) + \
            np.multiply.outer(np.asarray(xi_s, float), self.e_s_dual)

    def decompose(self, xi_vec):
        """Components (xi_u, xi_s) of a transverse covector in the dual basis."""
        basis = np.stack([self.e_u_dual, self.e_s_dual], axis=1)
        c = np.linalg.solve(basis, np.asarray(xi_vec, dtype=float))
        return float(c[0]), float(c[1])


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
    a0_width: float = 0.2  # radians; transition width of the projective profile

    def __post_init__(self):
        if self.variant not in ("W_lemma42", "W2"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not (self.r_u > 0 and self.r_s > 0):
            raise ValueError("r_u and r_s must be positive")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 <= self.gamma_prime <= self.gamma:
            raise ValueError("gamma_prime must lie in [0, gamma]")
        if not self.h0 > 0:
            raise ValueError("h0 must be positive")


def _gnorm_quantities(xi_u, xi_s, omega, split: DualSplitting, p: MetricParams):
    """(|Xi_u|_g, |Xi_s|_g, |Xi_*|_g) for covector components.

    The fiber part of the metric scales covectors by dperp(|eta|) where
    eta = (Xi_*, omega) is the full frequency vector.
    """
    xi_u = np.asarray(xi_u, dtype=float)
    xi_s = np.asarray(xi_s, dtype=float)
    omega = np.asarray(omega, dtype=float)
    xi_vec = split.compose(xi_u, xi_s)
    xi_star = np.linalg.norm(xi_vec, axis=-1)
    eta_norm = np.sqrt(xi_star**2 + omega**2)
    dp = delta_perp(eta_norm, p)
    return dp * np.abs(xi_u), dp * np.abs(xi_s), dp * xi_star


def h_gamma_perp(xi_u, xi_s, omega, split: DualSplitting, cfg: EscapeConfig,
                 p: MetricParams, gamma=None):
    """Scaling factor h0 <|Xi_*|_g>^(-gamma)."""
    g = cfg.gamma if gamma is None else gamma
    _, _, star = _gnorm_quantities(xi_u, xi_s, omega, split, p)
    out = cfg.h0 * jbracket(star) ** (-g)
    return float(out) if np.ndim(out) == 0 else out


def _projective_angle(xi_u, xi_s):
    """Angle of the covector class in the (u, s)-coefficient plane, in [0, pi)."""
    return np.mod(np.arctan2(xi_s, xi_u), np.pi)


def _a0_profile(theta, width):
    """Smoothed step on the projective circle: -1 near [E_u*], +1 near [E_s*].

    [E_u*] sits at angles {0, pi}, [E_s*] at pi/2.  Two smooth transition
    bands of the given width are centered at pi/4 and 3pi/4.
    """
    theta = np.asarray(theta, dtype=float)
    d = np.minimum(theta, np.pi - theta)  # distance to [E_u*] along the circle

    def smoothstep(t):
        t = np.clip(t, 0.0, 1.0)
        out = np.zeros_like(t)
        inner = (t > 0) & (t < 1)
        a = np.exp(-1.0 / np.maximum(t, 1e-300))
        b = np.exp(-1.0 / np.maximum(1.0 - t, 1e-300))
        out[inner] = (a / (a + b))[inner]
        out[t >= 1] = 1.0
        return out

    lo = np.pi / 4 - width / 2
    return -1.0 + 2.0 * smoothstep((d - lo) / width)


def projective_average(xi_u, xi_s, cfg: EscapeConfig, split: DualSplitting):
    """Time average of the projective profile along the linear flow.

    a(Xi_*) = (1/2T) int_{-T}^{T} a0([phi^t Xi_*]) dt by the trapezoid rule on
    65 times; the projective flow is explicit: components scale by e^{+-lam t}.
    """
    ts = np.linspace(-cfg.t_avg, cfg.t_avg, 65)
    xi_u = np.asarray(xi_u, dtype=float)
    xi_s = np.asarray(xi_s, dtype=float)
    vals = np.array([
        _a0_profile(
            _projective_angle(xi_u * np.exp(split.lam * t),
                              xi_s * np.exp(-split.lam * t)),
            cfg.a0_width,
        )
        for t in ts
    ])
    out = np.trapezoid(vals, ts, axis=0) / (2.0 * cfg.t_avg)
    return float(out) if np.ndim(out) == 0 else out


def weight(xi_u, xi_s, omega, split: DualSplitting, cfg: EscapeConfig,
           p: MetricParams):
    """Escape weight at the covector with the given components."""
    nu, ns, star = _gnorm_quantities(xi_u, xi_s, omega, split, p)
    if cfg.variant == "W_lemma42":
        h = cfg.h0 * jbracket(star) ** (-cfg.gamma)
        out = jbracket(h * ns) ** cfg.r_s / jbracket(h * nu) ** cfg.r_u
    else:
        a = projective_average(xi_u, xi_s, cfg, split)
        out = jbracket(star) ** (cfg.r1 / (1.0 - p.alpha_perp) * a)
    return float(out) if np.ndim(out) == 0 else out


def lifted_flow(xi_u, xi_s, omega, t, split: DualSplitting):
    """Linear-model lifted flow: Xi_u grows, Xi_s shrinks, omega is frozen."""
    e = np.exp(split.lam * t)
    return np.asarray(xi_u, float) * e, np.asarray(xi_s, float) / e, omega


def decay_ratio(xi_u, xi_s, omega, t, split: DualSplitting, cfg: EscapeConfig,
                p: MetricParams):
    """W(phi^t rho) / W(rho) along the lifted linear flow."""
    xu, xs, om = lifted_flow(xi_u, xi_s, omega, t, split)
    return weight(xu, xs, om, split, cfg, p) / weight(xi_u, xi_s, omega, split, cfg, p)


def decay_rate_fit(xi_u, xi_s, omega, ts, split, cfg, p):
    """OLS slope of log W(phi^t rho)/W(rho) against t (the measured -Lambda)."""
    ts = np.asarray(ts, dtype=float)
    logs = np.array([
        np.log(decay_ratio(xi_u, xi_s, omega, t, split, cfg, p)) for t in ts
    ])
    return float(np.polyfit(ts, logs, 1)[0])


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
    vals = np.array([
        weight(a * xu, a * xs, a * om, split, cfg, p) for a in alphas
    ])
    return float(np.polyfit(np.log(alphas), np.log(vals), 1)[0])


def theoretical_decay_rate(split: DualSplitting, cfg: EscapeConfig,
                           p: MetricParams) -> float:
    """Lambda = lam (1-gamma)(1-alpha_perp) min(R_s, R_u) for W_lemma42."""
    if cfg.variant == "W_lemma42":
        return split.lam * (1 - cfg.gamma) * (1 - p.alpha_perp) * min(cfg.r_s, cfg.r_u)
    return split.lam * cfg.r1


def theoretical_lower_rate(split: DualSplitting, cfg: EscapeConfig,
                           p: MetricParams) -> float:
    """Lambda' = lam_max (1-gamma)(1-alpha_perp)(R_s + R_u)."""
    return split.lam_max * (1 - cfg.gamma) * (1 - p.alpha_perp) * (cfg.r_s + cfg.r_u)


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
    uniform_viol = 0
    pure_points = []
    for _ in range(n_samples):
        mag = np.exp(rng.uniform(0.0, np.log(1e4)))
        om = rng.uniform(-50.0, 50.0)
        kind = rng.integers(0, 3)
        if kind == 0:
            pure_points.append((mag, 0.0, om))
        elif kind == 1:
            pure_points.append((0.0, mag, om))
        else:
            pure_points.append((0.0, 0.0, om))
    for xu, xs, om in pure_points:
        for t in ts[1:]:
            r = decay_ratio(xu, xs, om, t, split, cfg, p)
            if r * np.exp(lam_p * t) < 1.0 / c_frozen:
                uniform_viol += 1
    rate_viol = 0
    n_rate = 0
    for _ in range(n_samples):
        mag_u = np.exp(rng.uniform(0.0, np.log(1e4)))
        mag_s = np.exp(rng.uniform(0.0, np.log(1e4)))
        om = rng.uniform(-50.0, 50.0)
        # transient end: the stable bracket has saturated (margin 0.3, so its
        # residual drop rate is small) and the transverse part dominates the
        # frequency (so dperp attenuates the unstable growth at its full
        # power); past this point the decay rate is ~ lam (1-g)(1-a) R_u.
        t0 = None
        for t in ts:
            xu_t, xs_t, om_t = lifted_flow(mag_u, mag_s, om, t, split)
            _, ns, star = _gnorm_quantities(xu_t, xs_t, om_t, split, p)
            h = h_gamma_perp(xu_t, xs_t, om_t, split, cfg, p)
            xi_vec = split.compose(xu_t, xs_t)
            if h * ns <= 0.3 and np.linalg.norm(xi_vec) >= 3.0 * abs(om_t):
                t0 = t
                break
        if t0 is None or t0 >= ts[-2]:
            continue
        r0 = decay_ratio(mag_u, mag_s, om, t0, split, cfg, p)
        for t in ts[ts > t0 + 1e-12]:
            rt = decay_ratio(mag_u, mag_s, om, t, split, cfg, p)
            n_rate += 1
            slope = (np.log(rt) - np.log(r0)) / (t - t0)
            if slope < -lam_p * (1.0 + 1e-9) - 1e-9:
                rate_viol += 1
    return uniform_viol, rate_viol, n_rate


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
    """
    rng = np.random.default_rng(seed)
    n = n_samples

    def draw():
        mag = np.exp(rng.uniform(0.0, np.log(50.0), size=n))
        ang = rng.uniform(0.0, 2 * np.pi, size=n)
        om = rng.uniform(-50.0, 50.0, size=n)
        return mag * np.cos(ang), mag * np.sin(ang), om

    xu0, xs0, om0 = draw()
    xu1, xs1, om1 = draw()
    ratios = np.empty(n)
    brackets = np.empty(n)
    for i in range(n):
        w0 = weight(xu0[i], xs0[i], om0[i], split, cfg, p)
        w1 = weight(xu1[i], xs1[i], om1[i], split, cfg, p)
        ratios[i] = w1 / w0
        # distance in the metric at rho0; base-point displacement is zero
        # (single fiber), so only frequency components enter.
        xi0 = split.compose(xu0[i], xs0[i])
        xi1 = split.compose(xu1[i], xs1[i])
        eta0 = np.sqrt(np.dot(xi0, xi0) + om0[i] ** 2)
        dp = delta_perp(eta0, p)
        dl = delta_par(eta0, p)
        dist = np.sqrt(dp**2 * np.dot(xi1 - xi0, xi1 - xi0)
                       + dl**2 * (om1[i] - om0[i]) ** 2)
        h = h_gamma_perp(xu0[i], xs0[i], om0[i], split, cfg, p,
                         gamma=cfg.gamma_prime)
        brackets[i] = jbracket(h * dist)
    return ratios, brackets


def weight_field_csv(split, cfg, p, xi_u_values, xi_s_values, omega_values):
    """CSV export of the weight field: columns (xi_u, xi_s, omega, W)."""
    buf = io.StringIO()
    buf.write("xi_u,xi_s,omega,W\n")
    for xu in xi_u_values:
        for xs in xi_s_values:
            for om in omega_values:
                w = weight(xu, xs, om, split, cfg, p)
                buf.write(f"{float(xu)!r},{float(xs)!r},{float(om)!r},{w!r}\n")
    return buf.getvalue()
