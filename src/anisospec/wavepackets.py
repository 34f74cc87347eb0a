"""Wave packets and the wave-packet (Bargmann) transform.

Everything lives on periodic grids.  A packet centered at rho = (y, eta) is
built from the frequency Gaussian

    prof0(eta; eta') = exp(-1/2 |dperp(eta) (xi'-xi)|^2
                           - 1/2 |dpar(eta) (omega'-omega)|^2)

renormalized by 1/sqrt(m(eta')) so that sum_eta prof^2 d_eta = 1 for every
eta', which is what makes B* B the identity.  Two quadratures for m are
provided: a scaled Gauss-Hermite rule (used for standalone packets, exact in
the constant-metric regime) and the full-lattice trapezoid sum (used inside
the transform, so the resolution-of-identity residual measures exactly the
truncation of the phase window).
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .bracket_metric import (MetricParams, PhasePoint, delta_par, delta_perp,
                             smoothstep)
from .errors import ResolutionError

TWO_PI = 2.0 * np.pi
# Byte budget of one batch array: a complex (c,) + grid array of the
# transform kernel, a float (block, nodes^d) array of m_gauss_hermite.
_BATCH_BYTES = 2**20
_NORM_POINTS = 97  # trapezoid nodes per axis of packet_norm_sq_continuous


class TorusGrid:
    """Uniform periodic grid on [0, length)^d with d = n + 1 axes.

    The last axis is the flow coordinate z; the first n axes are transverse.
    Frequencies live on the lattice (2 pi / length) * Z in numpy FFT order.
    """

    def __init__(self, n_transverse: int, points: int, length: float = TWO_PI):
        if points < 4 or points % 2:
            raise ValueError("points must be even and >= 4")
        if not length > 0:
            raise ValueError(f"length must be positive, got {length}")
        self.n = int(n_transverse)
        self.d = self.n + 1
        self.points = int(points)
        self.length = float(length)
        self.h = self.length / self.points
        self.d_eta = TWO_PI / self.length
        self.freqs_1d = TWO_PI * np.fft.fftfreq(self.points, d=self.h)
        self.axis = self.h * np.arange(self.points)

    @property
    def shape(self):
        return (self.points,) * self.d

    def freq_grids(self):
        """Meshgrid of frequency axes in FFT order, shape d x self.shape."""
        return np.meshgrid(*([self.freqs_1d] * self.d), indexing="ij")

    def space_grids(self):
        return np.meshgrid(*([self.axis] * self.d), indexing="ij")

    def fcoef(self, u):
        """Fourier coefficients u_hat(eta') = h^d sum_y u(y) e^{-i eta' y}."""
        return self.h**self.d * np.fft.fftn(np.asarray(u, dtype=complex))

    def finv(self, c):
        """Inverse of fcoef."""
        return np.fft.ifftn(np.asarray(c, dtype=complex)) / self.h**self.d

    def inner(self, f, g):
        """L^2 inner product, conjugate-linear in the first slot."""
        return complex(np.vdot(f, g) * self.h**self.d)

    def norm(self, f):
        return float(np.sqrt(np.real(np.vdot(f, f)) * self.h**self.d))

    def wrap(self, disp):
        """Wrap displacements into [-length/2, length/2)."""
        return (np.asarray(disp, dtype=float) + 0.5 * self.length) % self.length \
            - 0.5 * self.length


def check_band(grid: TorusGrid, band: int):
    """ResolutionError when the 2 band + 1 lattice modes per axis exceed the
    grid's points: beyond them the modes alias."""
    if 2 * band + 1 > grid.points:
        raise ResolutionError("band exceeds the grid's DFT lattice")


def band_limited_field(grid: TorusGrid, band: int, rng):
    """sum_k c_k e^{i k.y} over the lattice modes with |k_i| <= band, with
    c_k = normal + i normal drawn from rng, modes in row-major order.
    An aliasing band is a ResolutionError (check_band)."""
    check_band(grid, band)
    sg = grid.space_grids()
    u = np.zeros(grid.shape, dtype=complex)
    for ks in itertools.product(range(-band, band + 1), repeat=grid.d):
        u += (rng.normal() + 1j * rng.normal()) \
            * np.exp(1j * grid.d_eta * sum(k * s for k, s in zip(ks, sg)))
    return u


def _profile0(grid: TorusGrid, eta_centers, p: MetricParams):
    """Unnormalized frequency Gaussians of the packets centered at the rows of
    eta_centers, shape (c,) + grid.shape.

    Each square (delta (eta'_ax - eta_ax))^2 depends on one frequency axis,
    so it is computed on grid.freqs_1d and broadcast along the others; the
    axes are added in order from zeros, so q is bitwise that of the dense
    sum over the meshgrids.
    """
    cs = np.asarray(eta_centers, dtype=float)
    # norms one row at a time: np.linalg.norm(cs, axis=1) rounds differently
    en = [float(np.linalg.norm(eta)) for eta in cs]
    dp = np.array([delta_perp(e, p) for e in en])[:, None]
    dl = np.array([delta_par(e, p) for e in en])[:, None]
    q = np.zeros((cs.shape[0],) + grid.shape)
    for ax in range(grid.d):
        dk = dp if ax < grid.n else dl
        sq = (dk * (grid.freqs_1d - cs[:, ax, None])) ** 2  # (c, points)
        q += sq.reshape((-1,) + (1,) * ax + (grid.points,)
                        + (1,) * (grid.d - 1 - ax))
    return np.exp(-0.5 * q)


def m_gauss_hermite(eta_primes, p: MetricParams, d: int):
    """m(eta') = int |prof0(eta; eta')|^2 d eta by scaled Gauss-Hermite,
    32 nodes per axis.

    The substitution eta = eta' - t / delta(eta') makes the rule exact when
    delta is constant over the node range (closed form pi^{d/2} / prod delta).
    eta_primes has shape (..., d); the last axis is the flow frequency.
    Each value is the row sum of its own point's node terms, so it is
    bitwise independent of the other points in the call.
    """
    eta_primes = np.asarray(eta_primes, dtype=float)
    single = eta_primes.ndim == 1
    pts = eta_primes.reshape(-1, d)
    t, w = np.polynomial.hermite.hermgauss(32)
    logw = np.log(w) + t**2  # w_i e^{t_i^2}, kept in log for stability
    en = np.linalg.norm(pts, axis=1)
    scales = np.stack([delta_perp(en, p)] * (d - 1) + [delta_par(en, p)],
                      axis=1)  # (M, d)
    offs = np.stack([g.ravel() for g in np.meshgrid(*([t] * d), indexing="ij")],
                    axis=1)  # (nodes^d, d)
    logww = sum(np.meshgrid(*([logw] * d), indexing="ij")).ravel()

    out = np.empty(pts.shape[0])
    # blocks of points with every node: one (block, nodes^d) float array
    # holds at most _BATCH_BYTES, so the temporaries stay in cache
    block = max(1, _BATCH_BYTES // (8 * offs.shape[0]))
    for start in range(0, pts.shape[0], block):
        sl = slice(start, start + block)
        c, s = pts[sl, :, None], scales[sl, :, None]  # (block, d, 1)
        # one (block, nodes^d) array per axis; adding the squares in axis
        # order is bitwise what np.linalg.norm(..., axis=-1) gives for d <= 3
        eta = [c[:, ax] - offs[:, ax] / s[:, ax] for ax in range(d)]
        en_i = np.sqrt(sum(e * e for e in eta))
        # |prof0|^2 = exp(-(dp (xi - xi'))^2 - (dl (om - om'))^2)
        dl = delta_par(en_i, p)  # one power for both deltas when they agree
        dp = dl if p.alpha_perp == p.alpha_par else delta_perp(en_i, p)
        q = sum((dk * (eta[ax] - c[:, ax])) ** 2
                for ax, dk in enumerate([dp] * (d - 1) + [dl]))
        out[sl] = np.exp(logww - q).sum(axis=1)
    out /= np.prod(scales, axis=1)
    out = out.reshape(eta_primes.shape[:-1])
    return float(out) if single else out


def _check_packet(grid: TorusGrid, p: MetricParams, eta_norm: float, n=None):
    """ValueError when n, a packet's transverse dimension, is not the grid's;
    ResolutionError when a packet at frequency norm eta_norm is narrower
    than 4 grid cells."""
    if n is not None and n != grid.n:
        raise ValueError("phase point dimension does not match the grid")
    dp = delta_perp(eta_norm, p) if grid.n else np.inf
    dl = delta_par(eta_norm, p)
    if min(dp, dl) < 4.0 * grid.h:
        raise ResolutionError(
            f"packet width {min(dp, dl):.4g} under 4 grid cells (h = {grid.h:.4g})"
        )


def gaussian_packet(rho: PhasePoint, p: MetricParams, grid: TorusGrid):
    """Grid samples of the Gaussian packet at rho, L^2-normalized on the grid.

    A C-infinity cutoff in y' - y, 1 inside half the box radius and 0 at the
    edge, makes it periodic.
    """
    _check_packet(grid, p, rho.eta_norm, rho.n)
    y = np.concatenate([rho.x, [rho.z]])
    eta = rho.eta
    dp, dl = delta_perp(rho.eta_norm, p), delta_par(rho.eta_norm, p)
    sg = grid.space_grids()
    phase = np.zeros(grid.shape)
    q = np.zeros(grid.shape)
    r2 = np.zeros(grid.shape)
    for ax in range(grid.d):
        w = grid.wrap(sg[ax] - y[ax])
        phase += eta[ax] * sg[ax]
        q += (w / (dp if ax < grid.n else dl)) ** 2
        r2 += w**2
    s = np.sqrt(r2) / (0.5 * grid.length)
    out = (1.0 - smoothstep((s - 0.5) * 2.0)) * np.exp(1j * phase - 0.5 * q)
    return out / grid.norm(out)


def _samples_from_profile(grid: TorusGrid, rho: PhasePoint, prof):
    """Grid samples of the packet at rho with normalized frequency profile prof.

    The constant phase e^{i eta.y} aligns the packet with the absolute-phase
    convention of the Gaussian packet (rank-one projectors are unaffected).
    """
    y = np.concatenate([rho.x, [rho.z]])
    fg = grid.freq_grids()
    coef = np.exp(-1j * sum(fg[ax] * y[ax] for ax in range(grid.d))) * prof
    phase = np.exp(1j * float(np.dot(rho.eta, y)))
    return TWO_PI ** (grid.d / 2.0) * phase * grid.finv(coef)


def exact_packet(rho: PhasePoint, p: MetricParams, grid: TorusGrid):
    """Grid samples of the exact packet at rho: the inverse lattice Fourier
    transform of prof0 / sqrt(m), with m by Gauss-Hermite.

    m is evaluated only where prof0 >= 1e-40, the cut of the m-lattice; the
    profile is 0 elsewhere, which moves no sample beyond rounding.
    """
    _check_packet(grid, p, rho.eta_norm, rho.n)
    fg = grid.freq_grids()
    prof = _profile0(grid, [rho.eta], p)[0]
    keep = prof >= 1e-40
    prof[~keep] = 0.0
    prof[keep] /= np.sqrt(m_gauss_hermite(np.stack(fg, axis=-1)[keep], p,
                                          grid.d))
    return _samples_from_profile(grid, rho, prof)


def packet_norm_sq_continuous(eta_center, p: MetricParams) -> float:
    """Continuous ||packet||^2 = int prof0^2/m d eta' by local trapezoid.

    The integrand is concentrated within ~1/delta of the center per axis;
    the trapezoid covers 10 of those units on each side.  As for the exact
    packet, m is evaluated only where prof0^2 >= 1e-40; the integrand is 0
    elsewhere.
    """
    eta_center = np.asarray(eta_center, dtype=float)
    d = len(eta_center)
    en = float(np.linalg.norm(eta_center))
    dp, dl = delta_perp(en, p), delta_par(en, p)
    axes = []
    for ax in range(d):
        scale = dp if ax < d - 1 else dl
        axes.append(eta_center[ax] + np.linspace(-10.0, 10.0,
                                                 _NORM_POINTS) / scale)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1)
    q = np.zeros(pts.shape[:-1])
    for ax in range(d - 1):
        q += (dp * (mesh[ax] - eta_center[ax])) ** 2
    q += (dl * (mesh[-1] - eta_center[-1])) ** 2
    vals = np.exp(-q)
    keep = vals >= 1e-40
    vals[~keep] = 0.0
    vals[keep] /= m_gauss_hermite(pts[keep], p, d)
    for ax in reversed(range(d)):
        vals = np.trapezoid(vals, axes[ax], axis=ax)
    return float(vals)


def _m_lattice(g: TorusGrid, p: MetricParams):
    """m(eta') as the trapezoid sum of prof0^2 over the full center lattice.

    Each center's Gaussian is summed only over the box where it is at least
    1e-40, which cannot round a sum holding the center's own term 1.  On the
    fftshifted (sorted) lattice a box is a slice; the centers are added in
    lattice order into one accumulator per chunk of 64, as in the dense sum,
    so the result is bitwise that of the dense sum.
    """
    full = np.stack([f.ravel() for f in g.freq_grids()], axis=1)
    freqs = np.fft.fftshift(g.freqs_1d)
    out = np.zeros(g.shape)
    for start in range(0, full.shape[0], 64):
        cs = full[start : start + 64]
        en = np.linalg.norm(cs, axis=1)
        scales = np.stack([delta_perp(en, p)] * g.n + [delta_par(en, p)], axis=1)
        # box center and half-width in lattice steps
        ks = np.rint(cs / g.d_eta).astype(int) + g.points // 2
        rs = (np.sqrt(np.log(1e40)) / g.d_eta / scales).astype(int) + 1
        # negated squared distances per center and axis; negation is exact,
        # so exp of their sum is bitwise exp of minus the sum of squares
        # (at d = 1 the in-place exp writes into the center's own row of
        # nsq, which is not read again)
        nsq = -(scales[:, :, None] * (freqs - cs[:, :, None])) ** 2
        acc = np.zeros(g.shape)
        for rows, k, r in zip(nsq, ks, rs):
            box = [slice(max(a - b, 0), a + b + 1) for a, b in zip(k, r)]
            term = functools.reduce(np.add.outer,
                                    [row[b] for row, b in zip(rows, box)])
            acc[tuple(box)] += np.exp(term, out=term)
        out += acc
    return np.fft.ifftshift(out) * g.d_eta**g.d


def _as_window(window, d: int):
    """A phase window as d ints >= 0; an int is the same on every axis.  An
    entry that is not an integer value (2.7, inf, nan) is a ValueError."""
    win = (window,) * d if np.isscalar(window) else tuple(window)
    if len(win) != d or not all(float(w).is_integer() and w >= 0 for w in win):
        raise ValueError(f"window {window!r} is not {d} non-negative integers")
    return tuple(int(w) for w in win)


class BargmannTransform:
    """Wave-packet transform on a periodic grid with a finite phase window.

    The phase grid is (all spatial grid points) x (frequency-lattice centers
    eta with |k_i| <= window_i in lattice units).  m(eta') is the trapezoid
    sum over the full DFT center lattice, so B* B - Id measures exactly the
    window truncation.

    `forward_at` gives B u at any phase point as packet inner products.
    `op_apply` (the anti-Wick Op(a) = B* a B), `identity_symbol_sum` and
    `packet_norm_sq` rest on one kernel: `_analysis` walks the window's
    centers in batches and yields their normalized profiles and B u on
    them, and `_fold` adds per-center rows into accumulators.  A batch
    holds at most _BATCH_BYTES per complex (c,) + grid array, whatever the
    window: the FFTs run no faster on larger batches, while the peak memory
    grows with them.  The arithmetic order is fixed to that of a loop over
    single centers (scalar factors in the same order, norms per center,
    accumulation one center at a time), so every result is bitwise
    independent of the batching, and residuals that are pure rounding noise
    reproduce exactly.

    `op_apply` and `identity_symbol_sum` also serve nested windows in one
    pass: given windows inside the transform's own, each center's row is
    added to the accumulator of every window that holds it.  A
    sub-window's centers, in row-major order, keep their relative order
    inside the larger window, and every accumulator is a strict left fold
    in center order from zeros, so each window's result is bitwise that of
    a transform built at that window alone.
    """

    def __init__(self, grid: TorusGrid, p: MetricParams, window):
        self.grid = grid
        self.p = p
        self.window = _as_window(window, grid.d)
        if any(2 * w + 1 > grid.points for w in self.window):
            raise ResolutionError("phase window exceeds the grid's DFT lattice")
        ks = [np.arange(-w, w + 1) for w in self.window]
        mesh = np.meshgrid(*ks, indexing="ij")
        self._lattice = np.stack([m.ravel() for m in mesh], axis=1)
        self.centers = self._lattice * grid.d_eta
        worst = float(np.max(np.linalg.norm(self.centers, axis=1)))
        _check_packet(grid, p, worst)
        self._sg = grid.space_grids()
        self._msqrt = np.sqrt(_m_lattice(grid, p))

    def profile(self, eta_center):
        """Normalized frequency profile prof0 / sqrt(m) of the packet."""
        return _profile0(self.grid, [eta_center], self.p)[0] / self._msqrt

    def packet_samples(self, rho: PhasePoint):
        """Grid samples of the exact packet as the transform normalizes it."""
        if rho.n != self.grid.n:
            raise ValueError("phase point dimension does not match the grid")
        return _samples_from_profile(self.grid, rho, self.profile(rho.eta))

    # -- the kernel ------------------------------------------------------

    def _analysis(self, u, fn=None):
        """Walk the window's centers in byte-bounded batches.

        Yields (sl, prof, v) per batch: the batch's slice of the centers,
        their normalized profiles and, unless u is None, B u on them without
        the packets' absolute phase e^{-i eta.y}, multiplied by fn(Y, ETA)
        when fn is given.  prof and v have shape (c,) + grid.
        """
        g = self.grid
        uhat = None if u is None else g.fcoef(u)
        axes = tuple(range(1, g.d + 1))
        step = max(1, _BATCH_BYTES // (16 * g.points**g.d))
        for start in range(0, self.centers.shape[0], step):
            sl = slice(start, start + step)
            cs = self.centers[sl]
            prof = _profile0(g, cs, self.p) / self._msqrt
            v = None
            if uhat is not None:
                v = TWO_PI ** (g.d / 2.0) \
                    * (np.fft.ifftn(prof * uhat, axes=axes) / g.h**g.d)
                if fn is not None:
                    v = v * np.stack([np.broadcast_to(fn(self._sg, eta), g.shape)
                                      for eta in cs])
            yield sl, prof, v

    def _picks(self, windows):
        """Per window of windows, the boolean pick of the window's centers
        that lie inside it; windows None is [None], every center."""
        if windows is None:
            return [None]
        picks = []
        for window in windows:
            win = _as_window(window, self.grid.d)
            if any(w > top for w, top in zip(win, self.window)):
                raise ValueError(f"window {window!r} is not inside the "
                                 f"transform's window {self.window}")
            picks.append(np.all(np.abs(self._lattice) <= win, axis=1))
        return picks

    def _fold(self, batches, picks, dtype=float):
        """Per pick of `_picks`, the sum of the rows at the centers it holds.

        batches yields (sl, rows): a batch's slice of the centers and one
        grid-shaped row per center.  Each accumulator adds its rows one at a
        time in center order, starting from zeros.
        """
        accs = [np.zeros(self.grid.shape, dtype=dtype) for _ in picks]
        for sl, rows in batches:
            for acc, pick in zip(accs, picks):
                for i in (range(len(rows)) if pick is None
                          else np.flatnonzero(pick[sl])):
                    acc += rows[i]
        return accs

    # -- transforms ------------------------------------------------------

    def forward_at(self, u, rho_list):
        """B u at arbitrary phase points (not restricted to the lattice):
        the inner products <phi_rho, u> with the transform's packets."""
        return np.array([self.grid.inner(self.packet_samples(rho), u)
                         for rho in rho_list])

    def op_apply(self, u, symbol=None, windows=None):
        """Anti-Wick operator: B* (multiply by the symbol on phase space) B.

        symbol(Y, ETA) must accept a list of spatial meshgrids Y (d arrays)
        and a frequency center vector ETA, returning the symbol on the
        spatial grid for that center; None means the identity symbol.
        windows, a sequence of windows inside the transform's own (each an
        int or a d-tuple, as for the constructor), gives a list with one
        result per window, each bitwise that of a transform built at that
        window; a larger window is a ValueError.
        """
        g = self.grid
        axes = tuple(range(1, g.d + 1))
        # B*: each center's prof * fcoef(v), folded per window
        accs = self._fold(((sl, prof * (g.h**g.d * np.fft.fftn(v, axes=axes)))
                           for sl, prof, v in self._analysis(u, symbol)),
                          self._picks(windows), complex)
        scale = g.d_eta**g.d / TWO_PI**g.d * TWO_PI ** (g.d / 2.0)
        out = [scale * g.finv(acc) for acc in accs]
        return out[0] if windows is None else out

    def identity_symbol_sum(self, windows=None):
        """sum_eta prof(eta; .)^2 d_eta^d on the lattice: the Fourier
        multiplier that B*B is with the identity symbol, so
        op_apply(u) = finv(identity_symbol_sum() * fcoef(u)).  It equals 1
        where the window fully covers the packet mass.  windows gives a list
        with one multiplier per window, as for op_apply."""
        accs = self._fold(((sl, prof**2) for sl, prof, _
                           in self._analysis(None)), self._picks(windows))
        out = [acc * self.grid.d_eta**self.grid.d for acc in accs]
        return out[0] if windows is None else out

    def packet_norm_sq(self):
        """||phi_(y,eta)||^2 for each window center (independent of y)."""
        return np.concatenate([np.sum(prof.reshape(prof.shape[0], -1) ** 2, axis=1)
                               for _, prof, _ in self._analysis(None)]) \
            * self.grid.d_eta**self.grid.d
