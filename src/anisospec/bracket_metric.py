"""Japanese-bracket arithmetic and the anisotropic phase-space metric.

The bracket <s> = sqrt(1+s^2) regularizes |s|; the metric on phase space
(y, eta) = ((x, z), (xi, omega)) has transverse box size dperp(eta) and
flow-direction box size dpar(eta), both shrinking like powers of |eta|.
A phase point is a flat row (x, z, xi, omega), as phase_point builds it.
All functions are vectorized over numpy arrays unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def jbracket(s):
    """Regularized absolute value <s> = (1 + s^2)^(1/2)."""
    s = np.asarray(s, dtype=float)
    out = np.hypot(1.0, s)
    return float(out) if out.ndim == 0 else out


def smoothstep(t):
    """C-infinity step in t: 0 for t <= 0, 1 for t >= 1, and
    e^{-1/t} / (e^{-1/t} + e^{-1/(1-t)}) between."""
    t = np.clip(t, 0.0, 1.0)
    out = np.zeros_like(t)
    inner = (t > 0) & (t < 1)
    a = np.exp(-1.0 / np.maximum(t, 1e-300))
    b = np.exp(-1.0 / np.maximum(1.0 - t, 1e-300))
    out[inner] = (a / (a + b))[inner]
    out[t >= 1] = 1.0
    return out


@dataclass(frozen=True)
class MetricParams:
    """Admissible metric parameters (delta0, alpha_perp, alpha_par).

    Chart-change equivalence of the metric forces 1/2 <= alpha_perp < 1 and
    0 <= alpha_par <= alpha_perp; a finite delta0 > 0 caps the box size.
    """

    delta0: float = 1.0
    alpha_perp: float = 0.5
    alpha_par: float = 0.0

    def __post_init__(self):
        if not 0 < self.delta0 < np.inf:
            raise ValueError(
                f"delta0 must be positive and finite, got {self.delta0}")
        if not 0.5 <= self.alpha_perp < 1.0:
            raise ValueError(
                f"alpha_perp must lie in [1/2, 1), got {self.alpha_perp}"
            )
        if not 0.0 <= self.alpha_par <= self.alpha_perp:
            raise ValueError(
                f"alpha_par must lie in [0, alpha_perp], got {self.alpha_par}"
            )


def _delta(eta_norm, delta0, alpha):
    """min(delta0, |eta|^-alpha); the power term counts as +inf at eta = 0."""
    eta_norm = np.asarray(eta_norm, dtype=float)
    with np.errstate(divide="ignore"):
        power = np.where(eta_norm > 0.0, eta_norm ** (-alpha), np.inf)
    out = np.minimum(delta0, power)
    return float(out) if out.ndim == 0 else out


def delta_perp(eta_norm, p: MetricParams):
    """Transverse box size dperp(eta) = min(delta0, |eta|^-alpha_perp)."""
    return _delta(eta_norm, p.delta0, p.alpha_perp)


def delta_par(eta_norm, p: MetricParams):
    """Flow-direction box size dpar(eta) = min(delta0, |eta|^-alpha_par)."""
    return _delta(eta_norm, p.delta0, p.alpha_par)


def box_sizes(eta_norm, p: MetricParams, d: int):
    """The box sizes at |eta| = eta_norm, shape eta_norm.shape + (d,): dperp
    on the first d - 1 (transverse) axes, dpar on the last (the flow)."""
    dl = delta_par(eta_norm, p)
    dp = delta_perp(eta_norm, p) if d > 1 else dl
    return np.stack([dp] * (d - 1) + [dl], axis=-1)


def distortion_from_eta_norm(eta_norm, p: MetricParams):
    """Distortion min(delta0^(1/alpha_perp), |eta|^-1)^(1-alpha_perp)."""
    eta_norm = np.asarray(eta_norm, dtype=float)
    with np.errstate(divide="ignore"):
        inv = np.where(eta_norm > 0.0, 1.0 / eta_norm, np.inf)
    out = np.minimum(p.delta0 ** (1.0 / p.alpha_perp), inv) ** (1.0 - p.alpha_perp)
    return float(out) if out.ndim == 0 else out


def phase_point(x=(), z=0.0, xi=(), omega=0.0) -> np.ndarray:
    """The phase point rho = ((x, z), (xi, omega)) in flow-box coordinates as
    the flat row (x, z, xi, omega) of length 2(n+1); empty x and xi give the
    n = 0 (circle) case.  x and xi of different lengths are a ValueError."""
    x = np.asarray(x, dtype=float).reshape(-1)
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if x.size != xi.size:
        raise ValueError("x and xi must be 1-d vectors of equal length")
    return np.concatenate([x, [float(z)], xi, [float(omega)]])


def frequency_norm(rho) -> float:
    """|eta| = |(xi, omega)| of one phase-point row."""
    return float(np.linalg.norm(rho[len(rho) // 2:]))


def g_norm(rho, v, p: MetricParams):
    """Norm of tangent vectors v in the metric at phase points rho, rows of
    shape (..., 2(n+1)) over their leading axes; a float for one point.

    g = (dx/dperp)^2 + (dperp dxi)^2 + (dz/dpar)^2 + (dpar domega)^2.
    """
    rho, v = np.asarray(rho, dtype=float), np.asarray(v, dtype=float)
    if v.shape[-1] != rho.shape[-1]:
        raise ValueError(f"tangent vectors of length {v.shape[-1]} at "
                         f"phase points of length {rho.shape[-1]}")
    n = rho.shape[-1] // 2 - 1
    eta_norm = np.linalg.norm(rho[..., n + 1:], axis=-1)
    dp, dl = delta_perp(eta_norm, p), delta_par(eta_norm, p)
    vx, vz = v[..., :n], v[..., n]
    vxi, vom = v[..., n + 1 : 2 * n + 1], v[..., 2 * n + 1]
    out = np.sqrt(np.sum(vx * vx, axis=-1) / dp**2
                  + dp**2 * np.sum(vxi * vxi, axis=-1)
                  + vz**2 / dl**2 + dl**2 * vom**2)
    return float(out) if out.ndim == 0 else out


def g_dist(rho0, rho1, p: MetricParams):
    """|rho1 - rho0| measured in the metric at rho0 (asymmetric in general)."""
    return g_norm(rho0, np.subtract(rho1, rho0), p)


def wrap(disp, length: float):
    """Displacements on a circle of circumference length, in [-length/2,
    length/2)."""
    return np.add(disp, 0.5 * length) % length - 0.5 * length


def g_dist_periodic(rho0, rho1, p: MetricParams, length: float):
    """g_dist with spatial displacements wrapped to [-length/2, length/2)."""
    d = np.subtract(rho1, rho0, dtype=float)
    half = d.shape[-1] // 2
    d[..., :half] = wrap(d[..., :half], length)
    return g_norm(rho0, d, p)


def fit_power_constant(ratios, brackets, exponent):
    """Smallest C with ratios <= C * brackets**exponent over the sample."""
    ratios = np.asarray(ratios, dtype=float)
    brackets = np.asarray(brackets, dtype=float)
    return float(np.max(ratios / brackets**exponent))

