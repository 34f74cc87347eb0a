"""Wave packets and the wave-packet (Bargmann) transform.

Everything lives on periodic grids.  A packet centered at rho = (y, eta), a
row (x, z, xi, omega) as bracket_metric.phase_point returns it, is built
from the frequency Gaussian

    prof0(eta; eta') = exp(-1/2 |dperp(eta) (xi'-xi)|^2
                           - 1/2 |dpar(eta) (omega'-omega)|^2)

renormalized by 1/sqrt(m(eta')) so that sum_eta prof^2 d_eta = 1 for every
eta', which is what makes B* B the identity.  Two quadratures for m are
provided: a scaled Gauss-Hermite rule (used for standalone packets, exact in
the constant-metric regime) and the full-lattice trapezoid sum (used inside
the transform, so the resolution-of-identity residual measures exactly the
truncation of the phase window, which window_tails sums directly).

Both quadratures for m, and the exact packet's profile, keep a Gaussian
term only where it is at least _GAUSS_CUT, one cut whose margin is
measured, not proved (see the constant).
"""

from __future__ import annotations

import numbers

import numpy as np

from .bracket_metric import (MetricParams, box_sizes, delta_par, delta_perp,
                             frequency_norm, smoothstep, wrap)
from .errors import ResolutionError

TWO_PI = 2.0 * np.pi
# Byte budget of one batch array of the transform kernel, a complex
# (c,) + grid array.
_BATCH_BYTES = 2**20
# Byte budget of m_gauss_hermite's float (block,) + (nodes,) * d node buffer.
_NODE_BLOCK_BYTES = 2**19
_NORM_POINTS = 97  # trapezoid nodes per axis of packet_norm_sq_continuous
# Gaussian terms below this value are left out of the m-lattice, the
# packet-norm quadrature and the exact packet's profile.  The margin is
# measured: 1e-20 moves no bit of any m-lattice or packet norm tested
# against the terms kept down to 1e-40, and 1e-17 does.
_GAUSS_CUT = 1e-20


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
        """L^2 inner product, conjugate-linear in the first slot; summed by
        numpy, as field_norm is, not through a threaded BLAS dot."""
        return complex(np.sum(np.conj(f) * g) * self.h**self.d)

    def norm(self, f):
        return field_norm(f) * self.h ** (self.d / 2)


def field_norm(x) -> float:
    """sqrt(sum |x|^2) by numpy's own summation, bitwise the same whatever
    the BLAS thread count: np.linalg.norm reduces a large array through a
    BLAS dot, which splits the sum across threads.  The squares are added
    in place, one field-sized temporary fewer."""
    x = np.asarray(x)
    sq = x.real**2
    sq += x.imag**2
    return float(np.sqrt(np.sum(sq)))


def lattice_cube(grid: TorusGrid, radius):
    """The lattice modes k with |k|_inf <= radius, a ((2 radius + 1)^d, d)
    int array in row-major order: the phase window's centers and the band's
    modes.  A radius that is not a non-negative integer is a ValueError,
    and one whose 2 radius + 1 modes per axis alias on the grid's points a
    ResolutionError."""
    if not (isinstance(radius, numbers.Real) and float(radius).is_integer()
            and radius >= 0):
        raise ValueError(f"window or band {radius!r} is not a non-negative "
                         f"integer")
    r = int(radius)
    if 2 * r + 1 > grid.points:
        raise ResolutionError(f"window or band {r} exceeds the grid's DFT "
                              f"lattice ({2 * r + 1} > {grid.points} points)")
    mesh = np.meshgrid(*([np.arange(-r, r + 1)] * grid.d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def band_coefficients(grid: TorusGrid, band: int, rng):
    """c_k = normal + i normal for the modes k of lattice_cube(grid, band),
    drawn from rng in the cube's row-major order, real part first."""
    return rng.normal(size=(len(lattice_cube(grid, band)), 2)).view(complex)[:, 0]


def band_limited_field(grid: TorusGrid, band: int, rng):
    """sum_k c_k e^{i k.y} over the modes of lattice_cube(grid, band), with
    the c_k of band_coefficients as Python complexes on the left, as a loop
    drawing them one at a time (complex products do not commute bitwise)."""
    sg, u = grid.space_grids(), np.zeros(grid.shape, dtype=complex)
    coefs = band_coefficients(grid, band, rng).tolist()
    for ks, c in zip(lattice_cube(grid, band), coefs):
        u += c * np.exp(1j * grid.d_eta * sum(k * s for k, s in zip(ks, sg)))
    return u


def window_tails(grid: TorusGrid, p: MetricParams, modes, windows):
    """(windows, modes): per window w and lattice mode k (a row of ints),
    the share of sum_c prof0_c(k)^2 over _m_lattice's full center lattice
    that centers c = j d_eta with |j|_inf > w carry, without cancellation;
    1 - tail is B*B's multiplier at k.  Windows are checked by lattice_cube."""
    ws = [lattice_cube(grid, w).max() for w in windows]  # the radius of w
    etas = np.asarray(modes, dtype=float) * grid.d_eta
    full = np.stack([f.ravel() for f in grid.freq_grids()], axis=1)
    full = full[np.argsort(np.max(np.abs(full), axis=1), kind="stable")]
    sums = np.zeros((len(etas), grid.points // 2 + 1))  # shells max|j|
    # chunks of centers, shell by shell, that q and t hold in _BATCH_BYTES
    step = min(len(full), max(1, _BATCH_BYTES // (16 * len(etas))))
    q, t = np.empty((2, len(etas), step))
    for cs in (full[i:i + step] for i in range(0, len(full), step)):
        js = np.rint(np.max(np.abs(cs), axis=1) / grid.d_eta).astype(int)
        box = box_sizes(np.linalg.norm(cs, axis=1), p, grid.d)
        q, t = q[:, :len(cs)], t[:, :len(cs)]  # the last chunk is shorter
        q.fill(0.0)
        for a in range(grid.d):
            np.subtract.outer(etas[:, a], cs[:, a], out=t)
            q += np.square(np.multiply(t, box[:, a], out=t), out=t)
        np.exp(np.negative(q, out=q), out=q)
        starts = np.flatnonzero(np.diff(js, prepend=-1))  # first per shell
        sums[:, js[starts]] += np.add.reduceat(q, starts, axis=1)
    suffix = np.cumsum(sums[:, ::-1], axis=1)[:, ::-1]
    return suffix[:, [w + 1 for w in ws]].T / suffix[:, 0]


def _profile0(grid: TorusGrid, eta_centers, p: MetricParams, out=None):
    """Unnormalized frequency Gaussians of the packets centered at the rows of
    eta_centers, shape (c,) + grid.shape, written into out when given.

    Each square (delta (eta'_ax - eta_ax))^2 depends on one frequency axis,
    so it is computed on grid.freqs_1d and broadcast along the others; the
    axes are added in order from zeros, so q is bitwise that of the dense
    sum over the meshgrids.
    """
    cs = np.asarray(eta_centers, dtype=float)
    # norms one row at a time: np.linalg.norm(cs, axis=1) rounds differently
    scales = box_sizes(np.array([np.linalg.norm(eta) for eta in cs]), p,
                       grid.d)
    q = np.empty((cs.shape[0],) + grid.shape) if out is None else out
    q.fill(0.0)
    for ax in range(grid.d):
        sq = (scales[:, ax, None] * (grid.freqs_1d - cs[:, ax, None])) ** 2
        q += sq.reshape((-1,) + (1,) * ax + (grid.points,)
                        + (1,) * (grid.d - 1 - ax))
    np.multiply(-0.5, q, out=q)
    return np.exp(q, out=q)


def m_gauss_hermite(eta_primes, p: MetricParams, d: int):
    """m(eta') = int |prof0(eta; eta')|^2 d eta by scaled Gauss-Hermite,
    32 nodes per axis.

    The substitution eta = eta' - t / delta(eta') makes the rule exact when
    delta is constant over the node range (closed form pi^{d/2} / prod delta).
    eta_primes has shape (..., d); the last axis is the flow frequency.
    Each value is the row sum of its own point's node terms, so it is
    bitwise independent of the other points in the call.  The nodes and
    weights are symmetric, so m is even in each coordinate up to rounding.
    The points go through in blocks whose node arrays, the node deltas
    min(delta0, |eta|^-alpha) among them, are written into three buffers
    allocated once.
    """
    eta_primes = np.asarray(eta_primes, dtype=float)
    single = eta_primes.ndim == 1
    pts = eta_primes.reshape(-1, d)
    t, w = np.polynomial.hermite.hermgauss(32)
    logw = np.log(w) + t**2  # w_i e^{t_i^2}, kept in log for stability
    scales = box_sizes(np.linalg.norm(pts, axis=1), p, d)  # (M, d)
    logww = sum(np.meshgrid(*([logw] * d), indexing="ij"))  # (nodes,) * d

    def along(a, ax):  # a (block, nodes) array on node axis ax of the buffer
        return a.reshape((-1,) + (1,) * ax + (t.size,) + (1,) * (d - 1 - ax))

    def node_delta(en_i, alpha, delta, out):  # the power -1/2 as 1/sqrt
        if alpha != 0.5:
            return delta(en_i, p)
        with np.errstate(divide="ignore"):
            np.sqrt(en_i, out=out)
            np.divide(1.0, out, out=out)
        return np.minimum(p.delta0, out, out=out)

    out = np.empty(pts.shape[0])
    # blocks of points with every node: the node buffer, its scratch twin
    # and the node deltas' buffer hold at most _NODE_BLOCK_BYTES each and
    # are reused, so the arithmetic runs in cache without fresh temporaries
    # (one deltas' buffer serves both exponents: if they differ, at most
    # one of them is 1/2)
    block = max(1, _NODE_BLOCK_BYTES // (8 * t.size**d))
    buf = np.empty((min(block, pts.shape[0]),) + logww.shape)
    scratch, deltas = np.empty_like(buf), np.empty_like(buf)
    for start in range(0, pts.shape[0], block):
        c, s = pts[start:start + block], scales[start:start + block]
        b, tmp, dbuf = buf[:len(c)], scratch[:len(c)], deltas[:len(c)]
        # the node coordinates eta_ax = c_ax - t / s_ax, (block, nodes) each
        eta = [c[:, ax, None] - t / s[:, ax, None] for ax in range(d)]
        # adding the squares in axis order is bitwise what
        # np.linalg.norm(..., axis=-1) gives for d <= 3
        np.copyto(b, along(eta[0] * eta[0], 0))
        for ax in range(1, d):
            b += along(eta[ax] * eta[ax], ax)
        en_i = np.sqrt(b, out=b)
        # |prof0|^2 = exp(-(dp (xi - xi'))^2 - (dl (om - om'))^2)
        dl = node_delta(en_i, p.alpha_par, delta_par, dbuf)  # one if equal
        dp = dl if p.alpha_perp == p.alpha_par \
            else node_delta(en_i, p.alpha_perp, delta_perp, dbuf)
        # q, the sum of the squares in axis order, overwrites |eta|
        for ax, dk in enumerate([dp] * (d - 1) + [dl]):
            term = tmp if ax else b
            np.multiply(dk, along(eta[ax] - c[:, ax, None], ax), out=term)
            np.square(term, out=term)
            if ax:
                b += term
        np.subtract(logww, b, out=b)
        out[start:start + len(c)] = np.exp(b, out=b).reshape(len(c), -1) \
            .sum(axis=1)
    out /= np.prod(scales, axis=1)
    out = out.reshape(eta_primes.shape[:-1])
    return float(out) if single else out


def _check_packet(grid: TorusGrid, p: MetricParams, eta_norm, rho=None):
    """ValueError when rho, a packet's phase point, is not of the grid's
    dimension; ResolutionError when a packet at frequency norm eta_norm is
    narrower than 4 grid cells."""
    if rho is not None and len(rho) != 2 * grid.d:
        raise ValueError("phase point dimension does not match the grid")
    width = np.min(box_sizes(eta_norm, p, grid.d))
    if width < 4.0 * grid.h:
        raise ResolutionError(
            f"packet width {width:.4g} under 4 grid cells (h = {grid.h:.4g})")


def gaussian_packet(rho, p: MetricParams, grid: TorusGrid):
    """Grid samples of the Gaussian packet at rho, L^2-normalized on the grid.

    A C-infinity cutoff in y' - y, 1 inside half the box radius and 0 at the
    edge, makes it periodic.
    """
    en = frequency_norm(rho)
    _check_packet(grid, p, en, rho)
    y, eta = rho[:grid.d], rho[grid.d:]
    sizes = box_sizes(en, p, grid.d)
    sg = grid.space_grids()
    phase = np.zeros(grid.shape)
    q = np.zeros(grid.shape)
    r2 = np.zeros(grid.shape)
    for ax in range(grid.d):
        w = wrap(sg[ax] - y[ax], grid.length)
        phase += eta[ax] * sg[ax]
        q += (w / sizes[ax]) ** 2
        r2 += w**2
    s = np.sqrt(r2) / (0.5 * grid.length)
    out = (1.0 - smoothstep((s - 0.5) * 2.0)) * np.exp(1j * phase - 0.5 * q)
    return out / grid.norm(out)


def _samples_from_profile(grid: TorusGrid, rho, prof):
    """Grid samples of the packet at rho with normalized frequency profile prof.

    The constant phase e^{i eta.y} aligns the packet with the absolute-phase
    convention of the Gaussian packet (rank-one projectors are unaffected).
    """
    y, eta = rho[:grid.d], rho[grid.d:]
    fg = grid.freq_grids()
    coef = np.exp(-1j * sum(fg[ax] * y[ax] for ax in range(grid.d))) * prof
    phase = np.exp(1j * float(np.dot(eta, y)))
    return TWO_PI ** (grid.d / 2.0) * phase * grid.finv(coef)


def exact_packet(rho, p: MetricParams, grid: TorusGrid):
    """Grid samples of the exact packet at rho: the inverse lattice Fourier
    transform of prof0 / sqrt(m), with m by Gauss-Hermite.

    m is evaluated only where prof0 >= _GAUSS_CUT, the cut of the m-lattice;
    the profile is 0 elsewhere, which moves no sample beyond rounding.
    """
    _check_packet(grid, p, frequency_norm(rho), rho)
    fg = grid.freq_grids()
    prof = _profile0(grid, [rho[grid.d:]], p)[0]
    keep = prof >= _GAUSS_CUT
    prof[~keep] = 0.0
    prof[keep] /= np.sqrt(m_gauss_hermite(np.stack(fg, axis=-1)[keep], p,
                                          grid.d))
    return _samples_from_profile(grid, rho, prof)


def packet_norm_sq_continuous(eta_center, p: MetricParams) -> float:
    """Continuous ||packet||^2 = int prof0^2/m d eta' by local trapezoid.

    The integrand is concentrated within ~1/delta of the center per axis;
    the trapezoid covers 10 of those units on each side on nodes symmetric
    about the center.  m is evaluated only where prof0^2 >= _GAUSS_CUT;
    the integrand is 0 elsewhere.  That this moves no bit is measured, not
    proved: at criterion 3's centers the norms at 1e-20 are those of a cut
    at 1e-40, while 1e-17 moves three of them by one ulp, and the defect
    |norm^2 - 1| at 1024 by 3e-13 of itself.  m is even in each
    coordinate, so it is evaluated once per distinct |eta'| point among
    the kept nodes: along an axis where the center is 0, half the grid.
    A center that is not a finite 1-D vector, or one so large that its
    nodes collapse or the quadrature overflows, is a ValueError.
    """
    c = np.asarray(eta_center, dtype=float)
    if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
        raise ValueError(f"center {eta_center!r} is not a finite 1-D vector")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _norm_sq_trapezoid(c, p)
    except FloatingPointError as exc:
        raise ValueError(f"center {eta_center!r} overflows the quadrature"
                         ) from exc


def _norm_sq_trapezoid(c, p: MetricParams) -> float:
    """packet_norm_sq_continuous at a finite center c."""
    d = c.size
    sizes = box_sizes(float(np.linalg.norm(c)), p, d)
    offsets = (np.arange(_NORM_POINTS) - _NORM_POINTS // 2) \
        * (20.0 / (_NORM_POINTS - 1))
    axes = [ca + offsets / s for ca, s in zip(c, sizes)]
    if not all(np.all(np.diff(a) > 0) for a in axes):
        raise ValueError(f"center {c}: its trapezoid nodes are not distinct "
                         f"in float64")
    # a node's id is the row-major index of its |eta'_ax| among each axis's
    # distinct values, so mirror nodes, where m agrees, share one id
    folded = [np.unique(np.abs(a), return_inverse=True) for a in axes]
    ids = 0
    for ax, (u, inv) in enumerate(folded):
        ids = ids * u.size + inv.reshape((-1,) + (1,) * (d - 1 - ax))
    mesh = np.meshgrid(*axes, indexing="ij")
    q = np.zeros(mesh[0].shape)
    for ax in range(d):
        q += (sizes[ax] * (mesh[ax] - c[ax])) ** 2
    vals = np.exp(-q)
    keep = vals >= _GAUSS_CUT
    vals[~keep] = 0.0
    kept, back = np.unique(ids[keep], return_inverse=True)
    idx = np.unravel_index(kept, [u.size for u, _ in folded])
    pts = np.stack([u[i] for (u, _), i in zip(folded, idx)], axis=-1)
    vals[keep] /= m_gauss_hermite(pts, p, d)[back]
    for ax in reversed(range(d)):
        vals = np.trapezoid(vals, axes[ax], axis=ax)
    return float(vals)


def _m_lattice(g: TorusGrid, p: MetricParams):
    """m(eta') as the trapezoid sum of prof0^2 over the full center lattice.

    Each center's Gaussian is summed only over the box where it is at least
    _GAUSS_CUT.  Every sum holds the term 1 of the center at eta' itself,
    but the chunks' partial sums start from 0, and a left-out term can
    still tip a rounding: that it moves no bit of m is measured, not
    proved.  At 1e-20 m is bitwise the dense sum on every grid of the
    tests; at 1e-17 it is not on a 256-point circle.  On the fftshifted
    (sorted) lattice a box is a slice; the centers are added in lattice
    order into one accumulator per chunk of 64, as in the dense sum, so
    the result is bitwise that of the dense sum.  Up to 8 consecutive
    centers share a buffer over their boxes' bounding window: the
    accumulator in row 0, then a Gaussian per row, exactly 0 off its box, and
    a sum over axis 0 adds the rows in order, as one center at a time would.
    """
    full = np.stack([f.ravel() for f in g.freq_grids()], axis=1)
    freqs = np.fft.fftshift(g.freqs_1d)
    out = np.zeros(g.shape)
    for start in range(0, full.shape[0], 64):
        cs = full[start : start + 64]
        scales = box_sizes(np.linalg.norm(cs, axis=1), p, g.d)
        # box center and half-width in lattice steps
        ks = np.rint(cs / g.d_eta).astype(int) + g.points // 2
        rs = (np.sqrt(-np.log(_GAUSS_CUT)) / g.d_eta / scales).astype(int) + 1
        lo, hi = np.maximum(ks - rs, 0), np.minimum(ks + rs + 1, g.points)
        # negated squared distances per center and axis, -inf off the box;
        # negation is exact, so exp of their sum is bitwise exp of minus the
        # sum of squares, and exp(-inf) = 0 adds nothing
        nsq = -(scales[:, :, None] * (freqs - cs[:, :, None])) ** 2
        nsq[abs(np.arange(g.points) - ks[..., None]) > rs[..., None]] = -np.inf
        acc = np.zeros(g.shape)
        for s8 in (slice(i, i + 8) for i in range(0, cs.shape[0], 8)):
            win = tuple(map(slice, lo[s8].min(axis=0), hi[s8].max(axis=0)))
            buf = np.empty((len(nsq[s8]) + 1,) + acc[win].shape)
            for ax, w in enumerate(win):  # the outer sums from 0, axis by axis
                np.add(buf[1:] if ax else 0.0, nsq[s8, ax, w].reshape(
                    (len(buf) - 1,) + (1,) * ax + (-1,) + (1,) * (g.d - 1 - ax)),
                    out=buf[1:])
            np.exp(buf[1:], out=buf[1:])
            buf[0] = acc[win]
            np.sum(buf, axis=0, out=acc[win])
        out += acc
    return np.fft.ifftshift(out) * g.d_eta**g.d


class BargmannTransform:
    """Wave-packet transform on a periodic grid with a finite phase window.

    The phase grid is (all spatial grid points) x (frequency-lattice centers
    eta = k d_eta, k in lattice_cube(grid, window)); the window is one
    non-negative integer.  m(eta') is the trapezoid sum over the full DFT
    center lattice, so B* B - Id measures exactly the window truncation.

    `forward_at` gives B u at any phase point as packet inner products.
    `op_apply` (the anti-Wick Op(a) = B* a B) is the transform's kernel: one
    loop over the window's centers in batches, each batch's normalized
    profiles, B u on them and its forward FFT computed with `out=` into
    three buffers allocated once per call.  A batch holds at most
    _BATCH_BYTES per complex (c,) + grid array, whatever the window: the
    FFTs run no faster on larger batches, while the peak memory grows with
    them.  The ufuncs and their operand order are those of fresh arrays and
    of a loop over single centers (scalar factors in the same order, norms
    per center, B u times the symbol row by row, accumulation one center at
    a time), so every result is bitwise independent of the batching, and
    residuals that are pure rounding noise reproduce exactly.

    For resolution-check, `op_apply` also serves nested windows in one
    pass: given windows inside the transform's own, each center's row is
    added to the accumulator of every window that holds it.  A sub-window's
    centers, in row-major order, keep their relative order inside the
    larger window, and every accumulator is a strict left fold in center
    order from zeros, so each window's result is bitwise that of a
    transform built at that window alone.
    """

    def __init__(self, grid: TorusGrid, p: MetricParams, window):
        self.grid = grid
        self.p = p
        self._lattice = lattice_cube(grid, window)
        self.window = int(window)
        self.centers = self._lattice * grid.d_eta
        worst = float(np.max(np.linalg.norm(self.centers, axis=1)))
        _check_packet(grid, p, worst)
        self._sg = grid.space_grids()
        self._msqrt = np.sqrt(_m_lattice(grid, p))

    def profile(self, eta_center):
        """Normalized frequency profile prof0 / sqrt(m) of the packet."""
        return _profile0(self.grid, [eta_center], self.p)[0] / self._msqrt

    def packet_samples(self, rho):
        """Grid samples of the exact packet as the transform normalizes it."""
        if len(rho) != 2 * self.grid.d:
            raise ValueError("phase point dimension does not match the grid")
        return _samples_from_profile(self.grid, rho,
                                     self.profile(rho[self.grid.d:]))

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
        windows, a sequence of windows inside the transform's own (each a
        non-negative integer, as for the constructor), gives a list with one
        result per window, each bitwise that of a transform built at that
        window; a larger window is a ValueError.
        """
        g = self.grid
        ws = [self.window] if windows is None else windows
        for window in ws:
            if window not in range(self.window + 1):
                raise ValueError(f"window {window!r} is not an integer in "
                                 f"[0, {self.window}]")
        picks = [np.all(np.abs(self._lattice) <= w, axis=1) for w in ws]
        accs = [np.zeros(g.shape, dtype=complex) for _ in picks]
        axes = tuple(range(1, g.d + 1))
        uhat = g.fcoef(u)
        step = min(max(1, _BATCH_BYTES // (16 * g.points**g.d)),
                   self.centers.shape[0])
        prof_buf = np.empty((step,) + g.shape)
        v_buf, f_buf = (np.empty((step,) + g.shape, dtype=complex)
                        for _ in range(2))
        for start in range(0, self.centers.shape[0], step):
            sl = slice(start, start + step)
            cs = self.centers[sl]
            prof = _profile0(g, cs, self.p, out=prof_buf[:len(cs)])
            np.divide(prof, self._msqrt, out=prof)
            # B u: TWO_PI**(d/2) * (ifftn(prof * uhat) / h**d), in place
            v = np.multiply(prof, uhat, out=v_buf[:len(cs)])
            np.fft.ifftn(v, axes=axes, out=v)
            v /= g.h**g.d
            np.multiply(TWO_PI ** (g.d / 2.0), v, out=v)
            if symbol is not None:  # B u times the symbol, row by row
                for row, eta in zip(v, cs):
                    row *= symbol(self._sg, eta)
            # B*: each center's prof * (h**d * fftn(v))
            f = np.fft.fftn(v, axes=axes, out=f_buf[:len(cs)])
            np.multiply(g.h**g.d, f, out=f)
            np.multiply(prof, f, out=f)
            for acc, pick in zip(accs, picks):
                for i in np.flatnonzero(pick[sl]):
                    acc += f[i]
        # the batch buffers go before the inverse FFTs allocate theirs
        del prof_buf, v_buf, f_buf, prof, v, f
        scale = g.d_eta**g.d / TWO_PI**g.d * TWO_PI ** (g.d / 2.0)
        out = [scale * g.finv(acc) for acc in accs]
        return out[0] if windows is None else out
