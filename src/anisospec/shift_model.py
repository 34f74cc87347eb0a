"""Bi-infinite weighted-shift resonance model.

The operator L on sequences over Z has L[j+1, j] = 1 for every j plus two
perturbation entries L[0, 0] = w0 and L[2, 0] = -1/w1.  Conjugating by the
exponential weight W(j) = e^{-r j} moves the essential spectrum to the
circle of radius e^{-r}; the eigenvalues w0 (outside) and w1 (inside) are
detected by exact geometric tail-ratio tests, never by finite sections,
which are provided as diagnostics only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ShiftModel:
    """Model parameters: perturbation weights, weight order, index window."""

    w0: complex = 0.5
    w1: complex = 0.5
    r: float = 1.0
    window: tuple = (-50, 50)

    def __post_init__(self):
        if self.w0 == 0 or self.w1 == 0:
            raise ValueError("w0 and w1 must be nonzero")
        j_min, j_max = self.window
        if not (j_min <= -2 and j_max >= 2):
            raise ValueError("window must contain [-2, 2]")
        object.__setattr__(self, "w0", complex(self.w0))
        object.__setattr__(self, "w1", complex(self.w1))
        object.__setattr__(self, "window", (int(j_min), int(j_max)))

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.window[0], self.window[1] + 1)

    @property
    def size(self) -> int:
        return self.window[1] - self.window[0] + 1

    def idx(self, j: int) -> int:
        return j - self.window[0]


def apply_L(model: ShiftModel, u) -> np.ndarray:
    """Apply L on the window.  The first output row (j_min) is boundary junk:
    it would need u at j_min - 1, which the window does not hold."""
    u = np.asarray(u, dtype=complex)
    if u.size != model.size:
        raise ValueError("sequence does not match the model window")
    out = np.zeros_like(u)
    out[1:] = u[:-1]
    out[model.idx(0)] += model.w0 * u[model.idx(0)]
    out[model.idx(2)] += -u[model.idx(0)] / model.w1
    return out


def apply_L_inv(model: ShiftModel, u) -> np.ndarray:
    """Apply L^{-1}: entries (L^{-1})[j, j+1] = 1, [1, 1] = 1/w1, [-1, 1] = -w0.
    The last output row (j_max) is boundary junk."""
    u = np.asarray(u, dtype=complex)
    if u.size != model.size:
        raise ValueError("sequence does not match the model window")
    out = np.zeros_like(u)
    out[:-1] = u[1:]
    out[model.idx(1)] += u[model.idx(1)] / model.w1
    out[model.idx(-1)] += -model.w0 * u[model.idx(1)]
    return out


def interior_slice(model: ShiftModel, pad: int) -> slice:
    """Rows unaffected by the window boundary (pad rows dropped at each end)."""
    return slice(pad, model.size - pad)


@dataclass(frozen=True)
class TailSequence:
    """A window sample of a sequence with known geometric tail recursions.

    ratio_pos is the multiplier of the recursion u_{j+1} = ratio_pos * u_j
    valid for large j; ratio_neg the multiplier of u_{j-1} = ratio_neg * u_j
    for large -j.  The ratios describe the generic recursion rate even when
    the sampled coefficients vanish identically on a tail.
    """

    values: np.ndarray
    ratio_pos: complex
    ratio_neg: complex


def eigvec_U(model: ShiftModel) -> TailSequence:
    """Eigenvector LU = w0 U: supported on j >= 0 with tail ratio 1/w0.

    U_0 = 1, U_1 = 1/w0, U_j = (1 - w0/w1) / w0^j for j >= 2.
    """
    w0, w1 = model.w0, model.w1
    vals = np.zeros(model.size, dtype=complex)
    js = model.indices
    pos = js >= 2
    vals[model.idx(0)] = 1.0
    vals[model.idx(1)] = 1.0 / w0
    vals[pos] = (1.0 - w0 / w1) / w0 ** js[pos]
    return TailSequence(values=vals, ratio_pos=1.0 / w0, ratio_neg=0.0)


def eigvec_V(model: ShiftModel) -> TailSequence:
    """Eigenvector LV = w1 V: supported on j <= 1 with tail ratio w1.

    V_1 = 1, V_0 = w1, V_j = (1 - w0/w1) w1^{|j|} V_0 for j <= -1.
    (The tail is pinned to V_0, which is what LV = w1 V forces at row 0.)
    """
    w0, w1 = model.w0, model.w1
    vals = np.zeros(model.size, dtype=complex)
    js = model.indices
    neg = js <= -1
    vals[model.idx(1)] = 1.0
    vals[model.idx(0)] = w1
    vals[neg] = (1.0 - w0 / w1) * w1 ** np.abs(js[neg]) * w1
    return TailSequence(values=vals, ratio_pos=0.0, ratio_neg=w1)


def eigen_residual(model: ShiftModel, seq: TailSequence,
                   eigenvalue: complex) -> float:
    """Row-relative residual max_j |(L seq - ev seq)_j| / scale_j over the
    interior rows (one boundary row dropped at each end).

    scale_j is the largest component magnitude feeding row j (the components
    grow geometrically across the window, so an absolute residual would be
    dominated by round-off on the biggest entries)."""
    vals = seq.values
    r = apply_L(model, vals) - eigenvalue * vals
    scale = np.abs(vals).copy()
    scale[1:] = np.maximum(scale[1:], np.abs(vals[:-1]))
    scale = np.maximum(scale, np.max(np.abs(vals)) * 1e-30)
    sl = interior_slice(model, 1)
    return float(np.max(np.abs(r[sl]) / scale[sl]))


def hw_membership(seq: TailSequence, r: float) -> str:
    """Membership of a geometric-tail sequence in the weighted space.

    The squared norm is sum |e^{-r j} u_j|^2; the weighted tail ratios are
    e^{-r} |ratio_pos| toward +inf and e^{+r} |ratio_neg| toward -inf.
    Returns "member", "not_member", or "boundary" when a ratio is exactly 1.
    """
    rp = np.exp(-r) * abs(seq.ratio_pos)
    rn = np.exp(r) * abs(seq.ratio_neg)
    worst = max(rp, rn)
    if worst == 1.0:
        return "boundary"
    return "member" if worst < 1.0 else "not_member"


def membership_truth_table(r_values, w0_values, w1_values):
    """Joint sweep of U/V memberships over (r, |w0|, |w1|).

    Returns records (r, w0, w1, u_member, v_member) with booleans; raises on
    a boundary verdict (a sweep point landing on the essential circle).
    """
    records = []
    for r in r_values:
        for w0 in w0_values:
            for w1 in w1_values:
                model = ShiftModel(w0=w0, w1=w1, r=r, window=(-10, 10))
                mu = hw_membership(eigvec_U(model), r)
                mv = hw_membership(eigvec_V(model), r)
                if "boundary" in (mu, mv):
                    raise ValueError(f"boundary case at r={r}, w0={w0}, w1={w1}")
                records.append((r, w0, w1, mu == "member", mv == "member"))
    return records


def conjugated_LW(model: ShiftModel) -> np.ndarray:
    """Dense window realization of Diag(W) L Diag(W)^{-1}, W(j) = e^{-r j}.

    Entries: subdiagonal e^{-r}; (0,0) = w0; (2,0) = -e^{-2r}/w1.
    """
    n = model.size
    er = np.exp(-model.r)
    m = np.zeros((n, n), dtype=complex)
    ii = np.arange(1, n)
    m[ii, ii - 1] = er
    m[model.idx(0), model.idx(0)] = model.w0
    m[model.idx(2), model.idx(0)] = -np.exp(-2.0 * model.r) / model.w1
    return m


def finite_section_report(model: ShiftModel, n_section: int) -> dict:
    """Diagnostics of the N-truncation of the conjugated operator.

    Truncated shifts are nilpotent-plus-perturbation and their pseudospectra
    fill disks, so nothing here is used for acceptance; the report documents
    the finite-section gap against the essential circle of radius e^{-r}.
    """
    if n_section < 10:
        raise ValueError("need n_section >= 10")
    half = n_section // 2
    sec_model = ShiftModel(w0=model.w0, w1=model.w1, r=model.r,
                           window=(-half, n_section - half - 1))
    mat = conjugated_LW(sec_model)
    eigs = np.linalg.eigvals(mat)
    return {
        "section_eigs": eigs,
        "essential_radius": np.exp(-model.r),
        "w0_found": bool(np.min(np.abs(eigs - model.w0)) < 1e-6),
    }
