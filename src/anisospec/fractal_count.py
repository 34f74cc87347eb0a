"""Fractal Weyl heuristic: Holder graphs, symplectic box covers, straightening.

A synthetic Holder one-form is a per-axis Weierstrass series
w_i(x) = sum_k a^{-beta0 k} cos(2 pi a^k x_i + phase_ik).  The trapped-set
graph at frequency omega is {xi = omega w(x)}; covering it with boxes of
base side omega^-alpha and fiber side omega^alpha gives a count whose
growth exponent is minimized at alpha = 1/(1+beta0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bracket_metric import (MetricParams, delta_par, delta_perp, g_norm_rows,
                             jbracket)
from .errors import ResolutionError

BASE_FREQ = 2  # the base frequency a of the Weierstrass series
# The finest base cell that box_count resolves, for every form: the finest
# scale a^-17 of the 18-term series, or 2^17 cell sides per axis.
FINEST_CELL = 2.0 ** -17


@dataclass(frozen=True)
class HolderForm:
    """Deterministic Weierstrass-type one-form with Holder exponent beta0.

    amplitude rescales the whole series; synth_holder normalizes it so the
    empirical Holder constant is ~1, which puts the box-count regime
    crossover where the exponent analysis expects it.
    """

    beta0: float
    seed: int
    n_terms: int = 18
    n: int = 1
    amplitude: float = 1.0
    phases: tuple = ()

    def __post_init__(self):
        if not 0.0 < self.beta0 <= 1.0:
            raise ValueError("beta0 must lie in (0, 1]")
        if not self.phases:
            rng = np.random.default_rng(self.seed)
            ph = rng.uniform(0.0, 2.0 * np.pi, size=(self.n, self.n_terms))
            object.__setattr__(self, "phases", tuple(map(tuple, ph)))


def synth_holder(beta0: float, seed: int, n: int = 1) -> HolderForm:
    """Build the form with base frequency 2 and 18 terms; beta0 = 1 uses a
    short (smooth) series of 3 terms.

    The amplitude makes the empirical Holder-beta0 constant at a reference
    scale 1 (deterministic given the seed).
    """
    n_terms = 3 if beta0 >= 1.0 else 18
    form = HolderForm(beta0=beta0, seed=seed, n_terms=n_terms, n=n)
    ref_scale = 1e-3 if beta0 >= 1.0 else 3e-5
    c = holder_ratio(form, ref_scale, 512, beta0, seed=0)
    return HolderForm(beta0=beta0, seed=seed, n_terms=n_terms, n=n,
                      amplitude=1.0 / c, phases=form.phases)


def evaluate(form: HolderForm, x):
    """w(x) for x of shape (..., n); returns the same shape."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != form.n:
        raise ValueError("point dimension does not match the form")
    out = np.zeros_like(x)
    # term k is Re(c_k z^(a^k)), c_k = a^(-beta0 k) e^(i phase_ik),
    # z = e^(2 pi i x_i)
    amps = float(BASE_FREQ) ** (-form.beta0 * np.arange(form.n_terms))
    for i in range(form.n):
        coefs = amps * np.exp(1j * np.asarray(form.phases[i]))
        z = np.exp(2j * np.pi * x[..., i])
        acc = np.zeros(x.shape[:-1])
        for k, c in enumerate(coefs):
            if k:
                z *= z  # z^(a^k) from z^(a^(k-1)): one squaring, as a = 2
            acc += c.real * z.real - c.imag * z.imag
        out[..., i] = form.amplitude * acc
    return out


def holder_ratio(form: HolderForm, scale: float, n_pairs: int, exponent: float,
                 seed: int = 0) -> float:
    """max |w(x') - w(x)| / |x' - x|^exponent over pairs at the given scale."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n_pairs, form.n))
    step = rng.normal(size=(n_pairs, form.n))
    step *= scale / np.linalg.norm(step, axis=1, keepdims=True)
    xp = x + step
    diff = np.linalg.norm(evaluate(form, xp) - evaluate(form, x), axis=1)
    return float(np.max(diff) / scale**exponent)


# Cell sides per chunk of box_count; 16 samples each keep a chunk's complex
# Weierstrass powers in evaluate near 1 MB per axis.
_SIDE_CHUNK = 2**12


def box_count(form: HolderForm, omega: float, alpha: float) -> int:
    """Boxes of base side omega^-alpha, fiber side omega^alpha covering the
    graph of omega * w.

    Per base cell and fiber axis, the cover needs
    ceil(max(oscillation of omega w_i, omega^alpha) / omega^alpha) boxes;
    the oscillation is estimated from 16 evenly spaced interior samples per
    side.  w_i depends on x_i alone, so a cell's count is the product over
    the axes of the counts of its sides, and the total is the product over
    the axes of their sums: the n ceil(omega^alpha) sides are sampled, in
    chunks of _SIDE_CHUNK, instead of the ceil(omega^alpha)^n cells.
    """
    if omega < 4.0:
        raise ValueError("omega must be >= 4")
    if not 0.5 <= alpha < 1.0:
        raise ValueError("alpha must lie in [1/2, 1)")
    cell = omega ** (-alpha)
    if cell < FINEST_CELL:
        raise ResolutionError(f"cell side {cell:.3g} is below the evaluator "
                              f"resolution {FINEST_CELL:.3g}")
    height = omega**alpha
    n_cells = int(np.ceil(height))
    side = 1.0 / n_cells
    offs = (np.arange(16) + 0.5) / 16 * side
    sums = np.zeros(form.n, dtype=np.int64)
    for start in range(0, n_cells, _SIDE_CHUNK):
        starts = np.arange(start, min(start + _SIDE_CHUNK, n_cells)) * side
        # the same 1-d samples on every axis: column i of w is w_i on them
        t = (starts[:, None] + offs[None, :]).reshape(-1, 1)
        vals = omega * evaluate(form, np.broadcast_to(t, (t.size, form.n)))
        vals = vals.reshape(starts.size, 16, form.n)
        osc = vals.max(axis=1) - vals.min(axis=1)
        sums += np.ceil(np.maximum(osc, height) / height).astype(np.int64) \
            .sum(axis=0)
    return math.prod(int(s) for s in sums)


def box_counts(form: HolderForm, omegas, alphas) -> dict:
    """{(omega, alpha): box_count} over the grid, omega-major; cells the
    evaluator cannot resolve (ResolutionError) are left out."""
    counts = {}
    for om in map(float, omegas):
        for al in map(float, alphas):
            try:
                counts[om, al] = box_count(form, om, al)
            except ResolutionError:
                continue
    return counts


def growth_slopes(counts: dict, omega_list, alpha_grid) -> np.ndarray:
    """Per alpha of alpha_grid, the OLS slope of log N against log omega on
    the omegas of omega_list counted at that alpha in a box_counts table;
    fewer than 3 such omegas is a ResolutionError."""
    slopes = []
    for al in alpha_grid:
        oms = [om for om in omega_list if (om, al) in counts]
        if len(oms) < 3:
            raise ResolutionError(
                f"fewer than 3 resolved omegas at alpha = {al:g}")
        slopes.append(np.polyfit(np.log(oms),
                                 np.log([counts[om, al] for om in oms]), 1)[0])
    return np.asarray(slopes)


def optimal_alpha(counts: dict, omega_list, alpha_grid):
    """(alpha*, exponent*): the grid alpha minimizing growth_slopes on a
    box_counts table over omega_list x alpha_grid, of at least 6 omegas."""
    if len(omega_list) < 6:
        raise ValueError("need at least 6 omega values")
    slopes = growth_slopes(counts, omega_list, alpha_grid)
    i = int(np.argmin(slopes))
    return float(np.asarray(alpha_grid)[i]), float(slopes[i])


# -- straightening map -------------------------------------------------------


def straighten_phi(form: HolderForm, rows):
    """Phi(x, z, xi, omega) = (x, z, xi - omega w(x), omega) on flat
    coordinate rows of shape (..., 2n+2), ordered as PhasePoint.coords."""
    n = form.n
    rows = np.array(rows, dtype=float)
    if rows.shape[-1] != 2 * (n + 1):
        raise ValueError("phase point dimension does not match the form")
    rows[..., n + 1 : 2 * n + 1] -= rows[..., -1:] \
        * evaluate(form, rows[..., :n])
    return rows


@dataclass
class LipschitzReport:
    ratios: np.ndarray
    max_ratio: float
    violations: int


def lipschitz_unit_scale_test(form: HolderForm, p: MetricParams,
                              n_pairs: int = 10000, seed: int = 0,
                              c_frozen: float = np.inf) -> LipschitzReport:
    """Sampled check of <|Phi(rho') - Phi(rho)|_g(Phi rho)> <= C <|rho'-rho|_g(rho)>.

    Pairs are drawn with base offsets at the metric scale dperp(eta) and
    log-uniform frequencies from 10 up to 1e6, which is where a too-small
    alpha_perp is expected to break the bound.
    """
    n = form.n
    rng = np.random.default_rng(seed)
    # per pair, in draw order: log omega, x, xi, z, dx, |dx|, dxi, |dxi|, dz, domega
    draws = np.array([np.hstack([
        rng.uniform(np.log(10.0), np.log(1.0e6)),
        rng.uniform(0.0, 1.0, size=n), rng.normal(size=n), rng.uniform(0, 1),
        rng.normal(size=n), rng.uniform(0.2, 3.0),
        rng.normal(size=n), rng.uniform(0.0, 2.0), rng.normal(), rng.normal()])
        for _ in range(n_pairs)]).reshape(n_pairs, 4 * n + 6)
    log_om, x, gxi, z, gdx, sdx, gdxi, sdxi, gdz, gdom = np.split(
        draws, np.cumsum([1, n, n, 1, n, 1, n, 1, 1]), axis=1)
    om = np.exp(log_om)
    xi = gxi * om * 0.1
    en = np.linalg.norm(np.hstack([xi, om]), axis=1, keepdims=True)
    dp, dl = delta_perp(en, p), delta_par(en, p)
    dx = gdx * (sdx / np.linalg.norm(gdx, axis=1, keepdims=True) * dp)
    dxi = gdxi * sdxi / dp
    rho = np.hstack([x, z, xi, om])
    rho_p = np.hstack([x + dx, z + gdz * dl, xi + dxi, om + gdom / dl])
    phi, phi_p = np.split(straighten_phi(form, np.vstack([rho, rho_p])), 2)
    num = jbracket(g_norm_rows(np.linalg.norm(phi[:, n + 1 :], axis=1),
                               phi_p - phi, p))
    ratios = num / jbracket(g_norm_rows(en[:, 0], rho_p - rho, p))
    max_ratio = float(np.max(ratios))
    violations = int(np.count_nonzero(ratios > c_frozen))
    return LipschitzReport(ratios=ratios, max_ratio=max_ratio,
                           violations=violations)
