"""Bi-infinite weighted-shift model: exact operator, eigenvectors, spectra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisospec.shift_model import (ShiftModel, TailSequence, apply_L,
                                   apply_L_inv, conjugated_LW, eigen_residual,
                                   eigvec_U, eigvec_V, finite_section_report,
                                   hw_membership, interior_slice,
                                   membership_truth_table)


def test_model_validation():
    with pytest.raises(ValueError):
        ShiftModel(w0=0.0, w1=0.5)
    with pytest.raises(ValueError):
        ShiftModel(w0=0.5, w1=0.5, window=(0, 10))  # must contain [-2, 2]


def test_apply_L_pure_shift():
    m = ShiftModel(0.5, 0.25, 1.0, window=(-10, 10))
    delta5 = np.zeros(m.size, dtype=complex)
    delta5[m.idx(5)] = 1.0
    out = apply_L(m, delta5)
    expect = np.zeros_like(delta5)
    expect[m.idx(6)] = 1.0
    assert np.array_equal(out, expect)


def test_apply_L_column_zero():
    m = ShiftModel(0.5, 0.25, 1.0, window=(-10, 10))
    delta0 = np.zeros(m.size, dtype=complex)
    delta0[m.idx(0)] = 1.0
    out = apply_L(m, delta0)
    assert out[m.idx(0)] == 0.5
    assert out[m.idx(1)] == 1.0
    assert out[m.idx(2)] == -1.0 / 0.25
    out[m.idx(0)] = out[m.idx(1)] = out[m.idx(2)] = 0.0
    assert np.all(out == 0.0)


def test_L_Linv_identity_interior():
    m = ShiftModel(0.7 + 0.1j, 0.3 - 0.2j, 0.8, window=(-30, 30))
    rng = np.random.default_rng(0)
    u = rng.normal(size=m.size) + 1j * rng.normal(size=m.size)
    sl = interior_slice(m, 2)
    assert np.max(np.abs((apply_L(m, apply_L_inv(m, u)) - u)[sl])) <= 1e-14
    assert np.max(np.abs((apply_L_inv(m, apply_L(m, u)) - u)[sl])) <= 1e-14


def test_eigvec_U_hand_values():
    """Hand evaluation of the tail formulas, then the LU = w0 U oracle."""
    m = ShiftModel(0.5, 0.25, 1.0, window=(-50, 50))
    u = eigvec_U(m)
    assert u.values[m.idx(1)] == pytest.approx(2.0)     # 1/w0
    assert u.values[m.idx(2)] == pytest.approx(-4.0)    # 4 (1 - 2)
    assert u.values[m.idx(3)] == pytest.approx(-8.0)
    assert np.all(u.values[: m.idx(0)] == 0.0)          # U_j = 0 for j < 0
    assert eigen_residual(m, u, m.w0) <= 1e-12


def test_eigvec_V_satisfies_eigenequation():
    m = ShiftModel(0.5, 0.25, 1.0, window=(-50, 50))
    v = eigvec_V(m)
    assert v.values[m.idx(0)] == pytest.approx(0.25)    # w1
    assert np.all(v.values[m.idx(2):] == 0.0)           # V_j = 0 for j >= 2
    assert eigen_residual(m, v, m.w1) <= 1e-12


def test_equal_weights_give_finite_support():
    m = ShiftModel(0.5, 0.5, 1.0, window=(-20, 20))
    u = eigvec_U(m)
    assert np.all(u.values[m.idx(2):] == 0.0)
    assert eigen_residual(m, u, m.w0) <= 1e-12
    v = eigvec_V(m)
    assert np.all(v.values[: m.idx(0)] == 0.0)
    assert eigen_residual(m, v, m.w1) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.floats(0.05, 0.95), st.floats(0.0, 2 * np.pi),
       st.floats(0.05, 0.95), st.floats(0.0, 2 * np.pi),
       st.floats(-2.0, 2.0))
def test_eigen_residuals_random(m0, p0, m1, p1, r):
    model = ShiftModel(w0=m0 * np.exp(1j * p0), w1=m1 * np.exp(1j * p1),
                       r=r, window=(-25, 25))
    assert eigen_residual(model, eigvec_U(model), model.w0) <= 1e-12
    assert eigen_residual(model, eigvec_V(model), model.w1) <= 1e-12


def test_membership_examples():
    # U with w0 = 0.5, r = 1: e^{-1} < 0.5 -> member
    assert hw_membership(eigvec_U(ShiftModel(0.5, 0.25, 1.0)), 1.0) == "member"
    # r = -1: e^{1} > 0.5 -> not member
    assert hw_membership(eigvec_U(ShiftModel(0.5, 0.25, -1.0)), -1.0) \
        == "not_member"
    # V with w1 = 0.5: member iff e^{r} 0.5 < 1
    assert hw_membership(eigvec_V(ShiftModel(0.9, 0.5, 1.0)), 1.0) \
        == "not_member"
    assert hw_membership(eigvec_V(ShiftModel(0.9, 0.5, -1.0)), -1.0) \
        == "member"


def test_membership_boundary_verdict():
    seq = TailSequence(values=np.zeros(5), ratio_pos=1.0, ratio_neg=0.0)
    assert hw_membership(seq, 0.0) == "boundary"


def test_truth_table_matches_lemma():
    rs = [-2.0, -1.0, 0.0, 1.0, 2.0]
    ws = [round(0.1 * k, 1) for k in range(1, 10)]
    for r, w0, w1, mu, mv in membership_truth_table(rs, ws, ws):
        assert mu == (abs(w0) > np.exp(-r))
        assert mv == (abs(w1) < np.exp(-r))


def test_conjugated_matrix_entries():
    m0 = ShiftModel(0.5, 0.5, 0.0, window=(-5, 5))
    lw0 = conjugated_LW(m0)
    # r = 0: the conjugation is trivial, subdiagonal 1
    assert lw0[3, 2] == 1.0
    m1 = ShiftModel(0.5, 0.5, 1.0, window=(-5, 5))
    lw1 = conjugated_LW(m1)
    assert lw1[3, 2] == pytest.approx(np.exp(-1.0))
    assert lw1[m1.idx(0), m1.idx(0)] == 0.5
    assert lw1[m1.idx(2), m1.idx(0)] == pytest.approx(-np.exp(-2.0) / 0.5)


def test_similarity_preserves_eigenvectors():
    m = ShiftModel(0.7, 0.2, 0.5, window=(-30, 30))
    lw = conjugated_LW(m)
    wu = np.exp(-m.r * m.indices) * eigvec_U(m).values
    resid = lw @ wu - m.w0 * wu
    sl = interior_slice(m, 2)
    assert np.max(np.abs(resid[sl])) <= 1e-12 * np.max(np.abs(wu))


def test_finite_section_isolated_eigenvalue():
    """|w0| - e^{-r} ~ 0.53: the section shows w0 (diagnostics only)."""
    rep = finite_section_report(ShiftModel(0.9, 0.1, 1.0), 400)
    assert rep["w0_found"]
    assert np.min(np.abs(rep["section_eigs"] - 0.9)) <= 1e-8


def test_finite_section_no_spurious_outside_circle():
    """|w0| < e^{-r}: no section eigenvalue near w0 OUTSIDE radius e^{-r}."""
    rep = finite_section_report(ShiftModel(0.1, 0.9, 1.0), 200)
    eigs = rep["section_eigs"]
    outside = eigs[np.abs(eigs) > rep["essential_radius"]]
    assert not np.any(np.abs(outside - 0.1) < 1e-6)


def test_finite_section_needs_size():
    with pytest.raises(ValueError):
        finite_section_report(ShiftModel(0.5, 0.5, 1.0), 5)


def test_inverse_bounded_on_compact_support():
    """Weighted L~^-1 action on compactly supported sequences stays bounded
    across r (miniature of the group property)."""
    for r in (-1.0, 0.0, 1.0):
        m = ShiftModel(0.6, 0.4, r, window=(-40, 40))
        w = np.exp(-m.r * m.indices)
        delta = np.zeros(m.size, dtype=complex)
        delta[m.idx(3)] = 1.0
        out = w * apply_L_inv(m, delta / w)
        assert np.max(np.abs(out[interior_slice(m, 2)])) <= 10.0
