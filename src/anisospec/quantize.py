"""Anti-Wick quantization, weighted Sobolev norms and residual probes.

Operators are realized through a BargmannTransform: Op(a) = B* M_a B on the
phase grid.  A symbol is a callable a(sg, eta), the symbol on the spatial
grids sg at the frequency center eta, as BargmannTransform.op_apply takes it;
a slow-variation certificate is a number h >= 0 with
|a(rho') - a(rho)| <= h <d_g(rho, rho')>, d_g the g-distance.  Weighted
operator norms are taken on an explicit band-limited subspace (plane-wave
modes well inside the phase window, where the discrete H_W inner product is
positive definite).  A WeightedSpace builds the band Gram G = L L^H of
<u, Op(W^2) v> once; the H_W norm of T is then the spectral norm of
L^H T L^{-H}, estimated by power iteration.  Power iteration approaches the
largest singular value from below, so a residual estimate is a lower
estimate of the residual norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bracket_metric import PhasePoint, g_dist_periodic, jbracket, phase_point
from .wavepackets import TWO_PI, BargmannTransform, TorusGrid, check_band


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


@dataclass(frozen=True)
class FlowModel:
    """Translation probe flow in flow-box coordinates.

    vel is the velocity of -X, so the transfer operator e^{-tX} pulls back
    by y -> y + t * vel and the lifted flow moves packet centers to
    y - t * vel with frozen frequency.  vel = (1.0,) is the rotation of the
    z-circle (n = 0).
    """

    vel: tuple

    def transfer(self, u, grid: TorusGrid, t: float):
        """e^{-tX} u by spectral interpolation (exact on grid functions)."""
        if len(self.vel) != grid.d:
            raise ValueError("flow dimension does not match the grid")
        c = grid.fcoef(u)
        fg = grid.freq_grids()
        phase = sum(fg[ax] * (t * self.vel[ax]) for ax in range(grid.d))
        return grid.finv(c * np.exp(1j * phase))

    def lift(self, rho: PhasePoint, t: float) -> PhasePoint:
        y = np.concatenate([rho.x, [rho.z]]) - t * np.asarray(self.vel)
        return phase_point(x=y[:-1], z=y[-1], xi=rho.xi, omega=rho.omega)

    def compose_symbol(self, a, t: float):
        """a o (lifted flow at time t): shift the spatial arguments."""
        return lambda sg, eta: a([sg[ax] - t * self.vel[ax]
                                  for ax in range(len(sg))], eta)


# -- operator machinery ----------------------------------------------------


class BandSubspace:
    """Orthonormal plane-wave modes |k|_inf <= kmax (lattice units).

    Probe operators are compressed to this subspace; kmax is chosen well
    inside the transform's phase window so the compression loses only
    packet-tail mass.
    """

    def __init__(self, grid: TorusGrid, kmax: int):
        check_band(grid, kmax)
        self.grid = grid
        ks = [np.arange(-kmax, kmax + 1)] * grid.d
        mesh = np.meshgrid(*ks, indexing="ij")
        self.modes = np.stack([m.ravel() for m in mesh], axis=1)
        self.size = self.modes.shape[0]
        sg = grid.space_grids()
        norm = grid.length ** (grid.d / 2.0)
        self._basis = np.empty((self.size,) + grid.shape, dtype=complex)
        for i, k in enumerate(self.modes):
            phase = sum(k[ax] * grid.d_eta * sg[ax] for ax in range(grid.d))
            self._basis[i] = np.exp(1j * phase) / norm

    def from_grid(self, u):
        h = self.grid.h ** self.grid.d
        return np.array([np.vdot(self._basis[i], u) * h for i in range(self.size)])

    def matrix(self, apply_fn) -> np.ndarray:
        """Compression P T P of an operator, as a size x size matrix."""
        out = np.empty((self.size, self.size), dtype=complex)
        for j in range(self.size):
            out[:, j] = self.from_grid(apply_fn(self._basis[j]))
        return out


class WeightedSpace:
    """H_W on a band: the weight, the transform (phase grid) it is realized
    on, and the Cholesky factor chol = L of the band Gram G = L L^H of
    <u, Op(W^2) v>, built once.  W^2 not finite and positive at a center
    (an OverflowError counting as infinite) is a ValueError."""

    def __init__(self, weight: Callable, transform: BargmannTransform,
                 band: BandSubspace):
        sg = transform.grid.space_grids()
        for eta in transform.centers:
            try:
                with np.errstate(over="ignore"):
                    w2 = np.asarray(weight(sg, eta)) ** 2
            except OverflowError:
                w2 = np.inf
            if not np.all(np.isfinite(w2) & (w2 > 0)):
                raise ValueError(f"weight ** 2 is not finite and positive at "
                                 f"eta = {eta}")
        self.weight = weight
        self.transform = transform
        self.band = band
        gram = band.matrix(lambda u: transform.op_apply(
            u, lambda sg, eta: np.asarray(weight(sg, eta)) ** 2))
        self.chol = np.linalg.cholesky(0.5 * (gram + gram.conj().T))


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

    ||T||_{H_W} = ||L^H T_band L^{-H}||_2 with G = L L^H the band Gram.
    """
    tmat = space.band.matrix(apply_fn)
    # T L^{-H} = (L^{-1} T^H)^H
    right = np.linalg.solve(space.chol, tmat.conj().T).conj().T
    return power_largest_sv(space.chol.conj().T @ right)


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


def egorov_residual(a, h_a: float, t: float, flow: FlowModel,
                    space: WeightedSpace, c_frozen: float):
    """(estimate of ||e^{-tX} Op(a o phi^t) - Op(a) e^{-tX}||_{H_W},
    bound C_t ||(W o phi^t / W) h_a||_inf), h_a the certificate of a."""
    _check_certificate(h_a)
    tr = space.transform
    at = flow.compose_symbol(a, t)

    def t_apply(u):
        return flow.transfer(tr.op_apply(u, at), tr.grid, t) \
            - tr.op_apply(flow.transfer(u, tr.grid, t), a)

    est = hw_operator_norm(t_apply, space)
    sg = tr.grid.space_grids()
    sgt = [sg[ax] - t * flow.vel[ax] for ax in range(tr.grid.d)]
    sup = max(float(np.max(np.asarray(space.weight(sgt, eta), dtype=float)
                           / np.asarray(space.weight(sg, eta), dtype=float)))
              for eta in tr.centers)
    return est, c_frozen * (h_a * sup)


@dataclass
class MicrolocalityReport:
    distances: np.ndarray
    magnitudes: np.ndarray
    fitted_exponent: float
    peak_value: float

    def off_graph_ratio(self, min_distance: float) -> float:
        mask = self.distances >= min_distance
        if not np.any(mask):
            raise ValueError("no probe beyond the requested distance")
        return float(self.peak_value / np.max(self.magnitudes[mask]))


def microlocality_probe(rho: PhasePoint, t: float, flow: FlowModel,
                        probes, transform: BargmannTransform,
                        fit_range=(1.5, np.inf)) -> MicrolocalityReport:
    """Decay of |<phi_rho', L^t phi_rho>| against the bracketed g-distance
    of rho' from the transported center phi^t(rho).

    Returns the OLS slope of log|value| vs log<dist> (sign-flipped: the
    fitted N of the <dist>^-N bound).
    """
    g = transform.grid
    moved = flow.transfer(transform.packet_samples(rho), g, t)
    center = flow.lift(rho, t)
    dists = np.array([g_dist_periodic(rp, center, transform.p, g.length)
                      for rp in probes])
    mags = np.abs(transform.forward_at(moved, probes))
    lo, hi = fit_range
    mask = (dists >= lo) & (dists <= hi)
    if np.count_nonzero(mask) < 3:
        raise ValueError("probe grid has too few points beyond distance 1; "
                         "the decay fit is ill-posed")
    slope = np.polyfit(np.log(jbracket(dists[mask])),
                       np.log(mags[mask] + 1e-300), 1)[0]
    peak = float(abs(transform.forward_at(moved, [center])[0]))
    return MicrolocalityReport(distances=dists, magnitudes=mags,
                               fitted_exponent=float(-slope), peak_value=peak)


# -- auxiliary identities ---------------------------------------------------


def trace_phase_sum(transform: BargmannTransform, a) -> complex:
    """sum over the phase grid of a(rho) ||phi_rho||^2 cell / (2 pi)^d: the
    anti-Wick trace identity tr Op(a) = (2 pi)^-d int a ||phi_rho||^2 drho,
    the phase-space volume count behind the paper's Weyl bound."""
    g = transform.grid
    sg = g.space_grids()
    total = sum(nsq * complex(np.sum(np.asarray(a(sg, eta)))) * g.h**g.d
                for nsq, eta in zip(transform.packet_norm_sq(), transform.centers))
    return total * g.d_eta**g.d / TWO_PI**g.d

