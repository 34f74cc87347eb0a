"""Anti-Wick quantization, weighted Sobolev norms and residual probes.

Operators are realized through a BargmannTransform: Op(a) = B* M_a B on the
phase grid.  A symbol is a callable a(sg, eta), the symbol on the spatial
grids sg at the frequency center eta, as BargmannTransform.op_apply takes it;
a slow-variation certificate is a number h >= 0 with
|a(rho') - a(rho)| <= h <d_g(rho, rho')>, d_g the g-distance.  Weighted
operator norms are taken on an explicit band-limited subspace (plane-wave
modes inside the phase window).  A weight W(eta) depends on the frequency
alone, so Op(W^2) is a Fourier multiplier and the band's plane waves are
H_W-orthogonal: a WeightedSpace keeps one scale s_k = <b_k, Op(W^2) b_k>^(1/2)
per mode, which is s_k^2 = d_eta^d sum_c W(c)^2 prof_c(k)^2 over the
transform's centers c and their normalized profiles, and the H_W norm of T
is the spectral norm of S T S^-1, S = diag(s), estimated by power
iteration.  Power iteration approaches the largest singular value from
below, so a residual estimate is a lower estimate of the residual norm.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .bracket_metric import g_dist_periodic, jbracket
from .wavepackets import TWO_PI, BargmannTransform, TorusGrid, lattice_cube


def bump_symbol(z0, om0, wz, wom):
    """Periodic bump in z at z0 (width wz) times a Gaussian in omega at om0
    (width wom)."""
    return lambda sg, eta: np.exp(-2.0 * (1.0 - np.cos(sg[0] - z0))
                                  / (2 * wz**2)
                                  - ((eta[-1] - om0) / wom) ** 2 / 2)


def constant_symbol(c):
    return lambda sg, eta: c * np.ones_like(sg[0], dtype=complex)


def product_symbol(a, b):
    return lambda sg, eta: np.asarray(a(sg, eta)) * np.asarray(b(sg, eta))


def rotate(u, grid: TorusGrid, t: float):
    """e^{-tX} u for the rotation of the flow circle: u(y) -> u(y + t e_z)
    by spectral interpolation (exact on grid functions).  Its lifted flow
    moves a packet center z to z - t with frozen frequency."""
    fg = grid.freq_grids()
    return grid.finv(grid.fcoef(u) * np.exp(1j * (fg[-1] * t)))


# -- operator machinery ----------------------------------------------------


class BandSubspace:
    """Orthonormal plane-wave modes |k|_inf <= kmax: lattice_cube(grid, kmax).

    Probe operators are compressed to this subspace; kmax is chosen inside
    the transform's phase window so the compression loses only packet-tail
    mass.
    """

    def __init__(self, grid: TorusGrid, kmax: int):
        self.grid = grid
        self.modes = lattice_cube(grid, kmax)
        self.size = self.modes.shape[0]

    def from_grid(self, u):
        """Coefficients <b_k, u> of u on the modes: its Fourier coefficients
        at the modes over L^(d/2), from one FFT."""
        g = self.grid
        return g.fcoef(u)[tuple((self.modes % g.points).T)] \
            / g.length ** (g.d / 2.0)

    def matrix(self, apply_fn) -> np.ndarray:
        """Compression P T P of an operator, as a size x size matrix."""
        g = self.grid
        sg = g.space_grids()
        norm = g.length ** (g.d / 2.0)
        out = np.empty((self.size, self.size), dtype=complex)
        for j, k in enumerate(self.modes):
            phase = sum(k[ax] * g.d_eta * sg[ax] for ax in range(g.d))
            out[:, j] = self.from_grid(apply_fn(np.exp(1j * phase) / norm))
        return out


class WeightedSpace:
    """H_W on a band for a weight W(eta) of the frequency center alone: the
    transform (phase grid) it is realized on and the scale
    s_k = <b_k, Op(W^2) b_k>^(1/2) of each band mode, built once.  Op(W^2)
    is the Fourier multiplier d_eta^d sum_c W(c)^2 prof_c^2 over the
    transform's centers c, prof_c = transform.profile(c), so s_k^2 is that
    sum at the mode k, with one evaluation of W per center.  A band
    on another grid than the transform's (n, points or length differing),
    a band reaching past the transform's phase window, or W^2 not finite
    and positive at a center (an OverflowError counting as infinite), is a
    ValueError."""

    def __init__(self, weight: Callable, transform: BargmannTransform,
                 band: BandSubspace):
        bg, tg = band.grid, transform.grid
        if (bg.n, bg.points, bg.length) != (tg.n, tg.points, tg.length):
            raise ValueError(f"band grid (n={bg.n}, points={bg.points}, "
                             f"length={bg.length}) is not the transform's "
                             f"(n={tg.n}, points={tg.points}, "
                             f"length={tg.length})")
        reach = int(np.max(np.abs(band.modes)))
        if reach > transform.window:
            raise ValueError(f"band {reach} exceeds the phase window "
                             f"{transform.window}")
        at_modes = tuple((band.modes % tg.points).T)
        sq = np.zeros(band.size)
        for eta in transform.centers:
            try:
                with np.errstate(over="ignore"):
                    w2 = np.asarray(weight(eta)) ** 2
            except OverflowError:
                w2 = np.inf
            if not (np.isfinite(w2) and w2 > 0):
                raise ValueError(f"weight ** 2 is not finite and positive at "
                                 f"eta = {eta}")
            sq += w2 * transform.profile(eta)[at_modes] ** 2
        self.transform = transform
        self.band = band
        self.scale = np.sqrt(sq * tg.d_eta**tg.d)


def power_largest_sv(a: np.ndarray) -> float:
    """Largest singular value of a by 50 power steps on a^H a from a seeded
    random start; a lower estimate."""
    rng = np.random.default_rng(0)
    v = rng.normal(size=a.shape[1]) + 1j * rng.normal(size=a.shape[1])
    v /= np.linalg.norm(v)
    ah = a.conj().T
    for _ in range(50):
        w = ah @ (a @ v)
        nv = np.linalg.norm(w)
        if nv == 0.0:
            return 0.0
        v = w / nv
    return float(np.sqrt(np.real(np.vdot(v, ah @ (a @ v)))))


def hw_operator_norm(apply_fn, space: WeightedSpace) -> float:
    """H_W norm of the band compression of apply_fn, by power_largest_sv.

    ||T||_{H_W} = ||S T_band S^-1||_2 with S = diag(space.scale).
    """
    s = space.scale
    return power_largest_sv(s[:, None] * space.band.matrix(apply_fn) / s)


# -- residual probes -------------------------------------------------------


def _check_certificate(h):
    if not 0.0 <= h < np.inf:
        raise ValueError(f"certificate {h!r} is not a finite h >= 0")


def composition_residual(a, b, h_b: float, space: WeightedSpace,
                         c_frozen: float):
    """(estimate of ||Op(a)Op(b) - Op(ab)||_{H_W},  bound C ||a h_b||_inf).

    h_b is the slow-variation certificate of b; the sup of |a| is taken
    over the realized phase grid.
    """
    _check_certificate(h_b)
    tr = space.transform
    ab = product_symbol(a, b)

    def t_apply(u):
        return tr.op_apply(tr.op_apply(u, b), a) - tr.op_apply(u, ab)

    est = hw_operator_norm(t_apply, space)
    sg = tr.grid.space_grids()
    sup = max(float(np.max(np.abs(np.asarray(a(sg, eta)))))
              for eta in tr.centers)
    return est, c_frozen * (h_b * sup)


def egorov_residual(a, h_a: float, t: float, space: WeightedSpace,
                    c_frozen: float):
    """(estimate of ||e^{-tX} Op(a o phi^t) - Op(a) e^{-tX}||_{H_W},
    bound C_t h_a), h_a the certificate of a and e^{-tX} the rotation of
    the flow circle.  The rotation freezes frequency, so the weight ratio
    W o phi^t / W of the paper's bound is 1 for a frequency weight."""
    _check_certificate(h_a)
    tr = space.transform
    at = lambda sg, eta: a([*sg[:-1], sg[-1] - t], eta)  # a o phi^t

    def t_apply(u):
        return rotate(tr.op_apply(u, at), tr.grid, t) \
            - tr.op_apply(rotate(u, tr.grid, t), a)

    return hw_operator_norm(t_apply, space), c_frozen * h_a


def microlocality_probe(rho, t: float, probes,
                        transform: BargmannTransform, fit_range):
    """Decay of |<phi_rho', e^{-tX} phi_rho>| against the bracketed
    g-distance of rho' from the transported center phi^t(rho), e^{-tX} the
    rotation of the flow circle; rho and the probes rho' are phase-point
    rows.

    Returns (N, peak, dists, mags): N the sign-flipped OLS slope of
    log|value| vs log<dist> over the probes with dist in fit_range (the
    fitted N of the <dist>^-N bound), peak the value at phi^t(rho), and
    per probe its distance, in the metric at that probe, and |value|."""
    g = transform.grid
    moved = rotate(transform.packet_samples(rho), g, t)
    center = np.array(rho, dtype=float)
    center[g.n] -= t
    dists = g_dist_periodic(np.asarray(probes), center, transform.p, g.length)
    mags = np.abs(transform.forward_at(moved, probes))
    lo, hi = fit_range
    mask = (dists >= lo) & (dists <= hi)
    if np.count_nonzero(mask) < 3:
        raise ValueError(f"fewer than 3 probes at a distance in "
                         f"fit_range {fit_range}; the decay fit is ill-posed")
    slope = np.polyfit(np.log(jbracket(dists[mask])),
                       np.log(mags[mask] + 1e-300), 1)[0]
    peak = float(abs(transform.forward_at(moved, [center])[0]))
    return float(-slope), peak, dists, mags


# -- auxiliary identities ---------------------------------------------------


def trace_phase_sum(transform: BargmannTransform, a) -> complex:
    """sum over the phase grid of a(rho) ||phi_rho||^2 cell / (2 pi)^d: the
    anti-Wick trace identity tr Op(a) = (2 pi)^-d int a ||phi_rho||^2 drho,
    the phase-space volume count behind the paper's Weyl bound."""
    g = transform.grid
    sg = g.space_grids()
    total = sum(np.sum(transform.profile(eta) ** 2) * g.d_eta**g.d
                * complex(np.sum(np.asarray(a(sg, eta)))) * g.h**g.d
                for eta in transform.centers)
    return total * g.d_eta**g.d / TWO_PI**g.d

