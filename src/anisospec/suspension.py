"""Cat-map mapping torus: exact zero-sector spectrum and weighted sector bounds.

The suspension of a hyperbolic toral automorphism f with constant roof 1
carries the flow generated by A = d/dz (flow-box convention).  Functions
split into Fourier sectors: the constant-in-x sector carries the exact
point spectrum {i 2 pi k}; each nonzero frequency orbit {f^T^j nu} carries
a bare shift, which the escape weight turns into a strict contraction.
Sector certificates bound the weighted shift norm by its largest entry.
f is a hyperbolic integer 2x2 matrix of determinant 1, such as CAT_MAP.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import frozen
from .bracket_metric import MetricParams, delta_par, delta_perp, jbracket
from .errors import ResolutionError
from .escape import (DualSplitting, EscapeConfig, covector_norms,
                     lifted_flow, weight)
from .wavepackets import m_gauss_hermite

CAT_MAP = np.array([[2, 1], [1, 1]], dtype=np.int64)
CAT_MAP.setflags(write=False)
CAT_SPLIT = DualSplitting.from_matrix(CAT_MAP.T)  # dual directions of CAT_MAP


# -- zero sector -----------------------------------------------------------


def zero_sector_spectrum(k_max: int) -> np.ndarray:
    """Exact zero-sector resonances i 2 pi k, |k| <= k_max, in increasing k;
    generator_residual re-verifies each one spectrally."""
    # 0.0 + turns the real parts -0.0 of k < 0 into 0.0
    return 0.0 + 2j * np.pi * np.arange(-k_max, k_max + 1)


def generator_residual(k: int) -> float:
    """max |A phi_k - i 2 pi k phi_k| / max(1, 2 pi |k|), A = d/dz spectrally
    on a 256-point z-grid, phi_k = exp(i 2 pi k z).

    Normalized by the eigenvalue scale so the round-off of the spectral
    derivative (proportional to |2 pi k|) is measured relative to it.
    """
    z = np.arange(256) / 256
    u = np.exp(1j * 2.0 * np.pi * k * z)
    freqs = 2.0 * np.pi * np.fft.fftfreq(256, d=1.0 / 256)
    du = np.fft.ifft(1j * freqs * np.fft.fft(u))
    resid = float(np.max(np.abs(du - 1j * 2.0 * np.pi * k * u)))
    return resid / max(1.0, 2.0 * np.pi * abs(k))


# -- nonzero sectors ---------------------------------------------------------


def transfer_time1_grid(u, f):
    """Time-1 transfer on an x-grid sample (grid maps to itself under f);
    only tests call it until ROADMAP item 9's hyperbolic Egorov probe
    gives it its caller."""
    u, f = np.asarray(u), np.asarray(f)
    npts = u.shape[0]
    if u.shape != (npts, npts):
        raise ValueError("expected a square x-grid sample")
    idx = np.arange(npts)
    i1, i2 = np.meshgrid(idx, idx, indexing="ij")
    j1 = (f[0, 0] * i1 + f[0, 1] * i2) % npts
    j2 = (f[1, 0] * i1 + f[1, 1] * i2) % npts
    return u[j1, j2]


def orbit_representatives(f, nu_max: int) -> np.ndarray:
    """Canonical representatives of the (f^T)-orbits meeting the box
    |nu|_inf <= nu_max, as an (R, 2) integer array in increasing
    (|nu|^2, nu) order.

    The representative is the orbit point of minimal (|nu|^2, nu) inside the
    box.  All box points are walked at once, forward and backward, each while
    it stays in the box (its in-box orbit segment is an interval, by
    hyperbolicity); f^T has no periodic lattice points, so each orbit is
    listed once.
    """
    side = 2 * nu_max + 1
    box = np.mgrid[-nu_max:nu_max + 1, -nu_max:nu_max + 1].reshape(2, -1).T
    box = box[np.any(box != 0, axis=1)]

    def key(q):  # (|q|^2, q) in lexicographic order, as one exact integer
        return (np.sum(q * q, axis=1) * side + q[:, 0] + nu_max) * side \
            + q[:, 1] + nu_max

    best = key(box)
    f = np.asarray(f)
    f_inv = np.array([[f[1, 1], -f[0, 1]], [-f[1, 0], f[0, 0]]])  # det f = 1
    for step in (f, f_inv):  # row nu -> row f^T nu is nu @ f
        idx, cur = np.arange(len(box)), box
        while idx.size:
            cur = cur @ step
            inside = np.max(np.abs(cur), axis=1) <= nu_max
            idx, cur = idx[inside], cur[inside]
            best[idx] = np.minimum(best[idx], key(cur))
    keys = np.unique(best)
    return np.stack([keys // side % side, keys % side], axis=1) - nu_max


class Spectrum(NamedTuple):
    """Zero-sector resonances and one certificate per nonzero orbit."""

    resonances: np.ndarray
    certificates: list


def full_spectrum(k_max: int, nu_max: int, cfg: EscapeConfig,
                  threshold: float, f, p: MetricParams) -> Spectrum:
    """Zero-sector eigenvalues plus per-orbit no-resonance certificates.

    On the dual components of 2 pi nu, the orbit nu_j = (f^T)^j nu is the
    lifted flow at the integer times j (omega = 0).  The window of an orbit
    runs from the first j <= -1 to the first j >= 0 at which |Xi_*|_g > 10;
    the weighted time-1 shift on it has the entries W(nu_{j+1}) / W(nu_j),
    and its norm is bounded by the largest entry.  Each certificate asserts
    that bound is at most `threshold`, i.e. the sector contributes no
    eigenvalue with Re z > log(threshold) at this truncation.
    """
    res = Spectrum(zero_sector_spectrum(k_max), [])
    reps = orbit_representatives(f, nu_max)
    if not len(reps):
        return res
    split = DualSplitting.from_matrix(np.transpose(f))
    xi_u, xi_s = split.decompose(2.0 * np.pi * reps)
    # rows: the forward and the backward window end of each orbit
    ends = np.zeros((2, len(reps)), dtype=int)
    found = np.zeros((2, len(reps)), dtype=bool)
    for k in range(200):
        js = np.array([[k], [-1 - k]])
        xu, xs = lifted_flow(xi_u, xi_s, js, split)
        star, en = covector_norms(xu, xs, 0.0, split)  # hypot(s, 0) == s
        hit = ~found & (delta_perp(en, p) * star > 10.0)
        ends, found = np.where(hit, js, ends), found | hit
        if found.all():
            break
    else:
        raise ResolutionError("orbit window failed to reach the decay regime")
    fwd, bwd = ends[:, :, None]
    js = np.arange(bwd.min(), fwd.max() + 1)
    ws = weight(*lifted_flow(xi_u[:, None], xi_s[:, None], js, split), 0.0,
                split, cfg, p)
    bounds = np.max(ws[:, 1:] / ws[:, :-1], axis=1, initial=-np.inf,
                    where=(js[:-1] >= bwd) & (js[:-1] < fwd))
    for nu, bound in zip(reps.tolist(), bounds.tolist()):
        res.certificates.append({"nu": tuple(nu), "norm_bound": bound,
                                 "pass": bound <= threshold})
    return res


def weyl_count(spec: np.ndarray, gamma_re: float, omega: float) -> int:
    """# of the points of spec, a complex array, with Re z > gamma_re and
    Im z in [omega, omega+1)."""
    return int(np.count_nonzero((spec.real > gamma_re) & (spec.imag >= omega)
                                & (spec.imag < omega + 1.0)))


def weyl_density_exponent(spec: np.ndarray, omegas) -> float:
    """OLS slope of log(max unit-window count near omega) vs log omega, over
    the 8 unit windows from omega on, counting Re z > -1."""
    omegas = np.asarray(omegas, dtype=float)
    maxima = []
    for om in omegas:
        counts = [weyl_count(spec, -1.0, om + s) for s in range(8)]
        maxima.append(max(max(counts), 1))
    return float(np.polyfit(np.log(omegas), np.log(maxima), 1)[0])


# -- wave-front profile of exact eigenfunctions ------------------------------


def wavefront_value(k: int, xi_u, xi_s, omega, split: DualSplitting,
                    p: MetricParams):
    """|B phi_k| at probe covectors, in closed form (vectorized).

    phi_k = exp(i 2 pi k z) has the single frequency eta0 = (0, 0, 2 pi k),
    so the transform value is (2 pi)^{3/2} prof0_eta(eta0) / sqrt(m(eta0)):
    a Gaussian in the probe's offset from eta0 at the probe's own scales.
    """
    om0 = 2.0 * np.pi * k
    xi_star, en = covector_norms(xi_u, xi_s, omega, split)
    dp, dl = delta_perp(en, p), delta_par(en, p)
    q = dp**2 * xi_star**2 + dl**2 * (omega - om0) ** 2
    m_eta0 = m_gauss_hermite(np.array([0.0, 0.0, om0]), p, 3)
    out = (2.0 * np.pi) ** 1.5 * np.exp(-0.5 * q) / np.sqrt(m_eta0)
    return float(out) if np.ndim(out) == 0 else out


def wavefront_extrema(k: int, split: DualSplitting, p: MetricParams,
                      cfg: EscapeConfig, hw: float, n_samples: int, seed: int):
    """Largest |B phi_k| <omega - 2 pi k>^N W / hw, and largest |B phi_k|
    <eta>^N / hw outside the parabolic vicinity {<omega - 2 pi k> <= r,
    <|eta|^-alpha_perp xi_s> <= r}, r = max(|eta|, 2)^0.4, N in WAVEFRONT_CN,
    over covectors whose xi_u, xi_s, omega - 2 pi k are normal * U(0, 30)."""
    om0 = 2.0 * np.pi * k
    rng = np.random.default_rng(seed)
    xu, xs, dom = np.fromiter((rng.normal() * rng.uniform(0, 30) for _ in
                               range(3 * n_samples)), float).reshape(-1, 3).T
    om = om0 + dom
    val = wavefront_value(k, xu, xs, om, split, p)
    w = weight(xu, xs, om, split, cfg, p)
    _, eta = covector_norms(xu, xs, om, split)
    gs = eta ** (-p.alpha_perp) * np.abs(xs)
    r = np.maximum(eta, 2.0) ** 0.4
    outside = ~((jbracket(om - om0) <= r) & (jbracket(gs) <= r))
    worst = {n_exp: float(np.max(val * jbracket(om - om0) ** n_exp * w / hw,
                                 initial=0.0))
             for n_exp in frozen.WAVEFRONT_CN}
    worst_out = {n_exp: float(np.max(val * jbracket(eta) ** n_exp / hw,
                                     where=outside, initial=0.0))
                 for n_exp in frozen.WAVEFRONT_CN}
    return worst, worst_out


def eigenfunction_hw_norm(k: int, split: DualSplitting, p: MetricParams,
                          cfg: EscapeConfig) -> float:
    """||phi_k||_{H_W} by trapezoid quadrature of W^2 |B phi_k|^2 over the fiber.

    The base integral contributes volume 1; the integrand is localized at
    xi = 0, omega = 2 pi k within ~1/delta per axis, and the trapezoid takes
    65 points per axis over 8 of those units on each side.  The omega and
    xi_s integrals are taken over blocks of 13 xi_u slices, so the full
    65^3 grid is never held at once.
    """
    om0 = 2.0 * np.pi * k
    en0 = abs(om0) if om0 != 0.0 else 1.0
    dp0, dl0 = delta_perp(en0, p), delta_par(en0, p)
    xu = np.linspace(-8.0 / dp0, 8.0 / dp0, 65)
    xs = np.linspace(-8.0 / dp0, 8.0 / dp0, 65)
    om = om0 + np.linspace(-8.0 / dl0, 8.0 / dl0, 65)
    total = np.empty(xu.size)
    for start in range(0, xu.size, 13):
        mu, ms, mo = np.meshgrid(xu[start : start + 13], xs, om, indexing="ij")
        vals = wavefront_value(k, mu, ms, mo, split, p)
        wts = weight(mu, ms, mo, split, cfg, p)
        block = (wts * vals) ** 2
        for axis_vals, ax in ((om, 2), (xs, 1)):
            block = np.trapezoid(block, axis_vals, axis=ax)
        total[start : start + 13] = block
    total = np.trapezoid(total, xu)
    return float(np.sqrt(total / (2.0 * np.pi) ** 3))
