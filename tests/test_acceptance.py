"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with -s or in the captured
output of a failure); `anisospec verify-all` prints the same lines.
"""

import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy.optimize import brentq

import anisospec
from anisospec import acceptance
from anisospec.acceptance import ALL_CRITERIA, _par_offset
from anisospec.bracket_metric import MetricParams, delta_par
from anisospec.cli import RESOLUTION_DEFAULTS
from anisospec.fractal_count import lipschitz_unit_scale_test
from anisospec.wavepackets import (BargmannTransform, TorusGrid,
                                   band_coefficients, lattice_cube,
                                   window_tails)


@pytest.mark.parametrize("criterion", ALL_CRITERIA,
                         ids=[f"criterion_{i + 1}"
                              for i in range(len(ALL_CRITERIA))])
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()


def _residuals(result):
    """The three residuals of criterion 2's detail string."""
    levels = result.detail.removeprefix("residuals ").split(" (")[0]
    return [float(r) for r in levels.split(" -> ")]


def test_criterion_2_can_fail(monkeypatch):
    """Windows that cut into the band's packet mass fail the 1e-3 bound
    alone, and windows in decreasing order the decreasing check alone."""
    monkeypatch.setitem(acceptance.RESOLUTION_GRID, "windows", (0, 1, 2))
    result = acceptance.criterion_2()
    r = _residuals(result)
    assert not result.passed and r[0] > 1e-3 and r[0] > r[1] > r[2]
    monkeypatch.setitem(acceptance.RESOLUTION_GRID, "windows", (14, 10, 7))
    result = acceptance.criterion_2()
    r = _residuals(result)
    assert not result.passed and r[0] <= 1e-3 and r[0] < r[1]


def test_criterion_2_builds_no_transform(monkeypatch):
    """Criterion 2 sums the tails directly: it builds no transform (the spy
    does see one built outside it)."""
    calls = []
    init = BargmannTransform.__init__

    def spy(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BargmannTransform, "__init__", spy)
    assert acceptance.criterion_2().passed
    assert calls == []
    BargmannTransform(TorusGrid(0, 64), MetricParams(1.0, 0.5, 0.5), 1)
    assert len(calls) == 1


def test_criterion_2_measures_resolution_check(monkeypatch):
    """Criterion 2 and resolution-check measure one statement on one draw:
    the criterion's grid, band, windows and metric are resolution-check's
    defaults, and its first coefficient set is the default seed's."""
    seen, drawn = {}, []

    def tails_spy(grid, p, modes, windows):
        seen.update(grid=grid, p=p, modes=modes, windows=windows)
        return window_tails(grid, p, modes, windows)

    def coefficients_spy(grid, band, rng):
        drawn.append(band_coefficients(grid, band, rng))
        return drawn[-1]

    monkeypatch.setattr(acceptance, "window_tails", tails_spy)
    monkeypatch.setattr(acceptance, "band_coefficients", coefficients_spy)
    assert acceptance.criterion_2().passed
    cfg, g = RESOLUTION_DEFAULTS, seen["grid"]
    assert (g.d, g.points, g.length) == (2, cfg["points"], cfg["length"])
    assert seen["p"] == MetricParams(cfg["delta0"], cfg["alpha_perp"],
                                     cfg["alpha_par"])
    assert [int(w) for w in cfg["windows"].split(",")] \
        == list(seen["windows"])
    assert np.array_equal(seen["modes"], lattice_cube(g, cfg["band"]))
    assert len(drawn) == 3
    assert np.array_equal(drawn[0], band_coefficients(
        g, cfg["band"], np.random.default_rng(cfg["seed"])))


def test_criterion_11_counts_a_nan_ratio(monkeypatch):
    """A NaN ratio is a violation: it is not below the frozen constant.
    The sharpness case keeps its violation, so only the NaN can fail it."""
    def one_nan_ratio(cases, n_pairs, seed):
        # b0 = 0.5, its sharpness case, then b0 = 0.8
        return [np.array([0.5, np.nan]), np.array([1e3]),
                np.array([0.5, np.nan])]

    monkeypatch.setattr(acceptance, "lipschitz_unit_scale_test", one_nan_ratio)
    assert not acceptance.criterion_11().passed


def test_criterion_11_shares_one_draw(monkeypatch):
    """Criterion 11's three cases come from one call, and each array is
    bitwise that of a call with its case alone."""
    calls = []

    def recorded(cases, n_pairs, seed):
        out = lipschitz_unit_scale_test(cases, n_pairs, seed)
        calls.append((cases, n_pairs, seed, out))
        return out

    monkeypatch.setattr(acceptance, "lipschitz_unit_scale_test", recorded)
    assert acceptance.criterion_11().passed
    [(cases, n_pairs, seed, arrays)] = calls
    assert [p for _, p in cases] == [
        MetricParams(1.0, 1.0 / (1.0 + b0) - shift, 0.0)
        for b0, shift in ((0.5, 0.0), (0.5, 0.1), (0.8, 0.0))]
    for case, got in zip(cases, arrays):
        assert np.array_equal(
            got, lipschitz_unit_scale_test([case], n_pairs, seed)[0])


def _offset_cases():
    """Criteria 9 and 10's own inputs, then a seeded grid."""
    half = MetricParams(1.0, 0.5, 0.5)
    cases = [(8.0, np.arange(3.0, 6.6, 0.5), half),
             (20.0 * np.pi, (1.0, 2.0, 3.0), half)]
    rng = np.random.default_rng(5)
    for alpha_par in (0.0, 0.3, 0.5):
        p = MetricParams(1.0, 0.5, alpha_par)
        cases += [(om0, rng.uniform(0.5, 7.0, 4), p)
                  for om0 in rng.uniform(1.0, 1.0e3, 8)]
    return cases


def test_par_offset_is_brentq_root():
    """At alpha_par = 1/2 the closed form lands within brentq's tolerance
    of brentq's root, on the same float whether an offset is computed alone
    or with others."""
    for om0, ds, p in _offset_cases():
        if p.alpha_par != 0.5:
            continue
        roots = _par_offset(om0, ds, p)
        for d, got in zip(ds, roots):
            def f(om):
                return delta_par(abs(om), p) * (om - om0) - d

            ref = brentq(f, om0, om0 + 4.0e4)
            assert abs(got - ref) <= 2e-12 + 4 * np.finfo(float).eps * abs(ref)
            assert _par_offset(om0, [d], p)[0] == got


def test_par_offset_rejects_other_metrics():
    """alpha_par other than 1/2, or om0 below delta0**-2, raise: there dpar
    is not |om|**-1/2 on the whole bracket."""
    cases = [case for case in _offset_cases() if case[2].alpha_par != 0.5]
    cases += [(0.5, [1.0], MetricParams(1.0, 0.5, 0.5)),
              (3.0, [1.0], MetricParams(0.5, 0.5, 0.5))]
    for om0, ds, p in cases:
        with pytest.raises(ValueError):
            _par_offset(om0, ds, p)


def test_import_path_loads_no_scipy():
    """Every module imports, as a benchmark worker imports them, with scipy
    blocked, and none of them loads scipy."""
    code = textwrap.dedent("""
        import importlib, pkgutil, sys
        sys.modules["scipy"] = None  # any import of scipy raises ImportError
        sys.path.insert(0, sys.argv[1])
        import numpy, anisospec
        for info in pkgutil.iter_modules(anisospec.__path__):
            if info.name != "__main__":
                importlib.import_module("anisospec." + info.name)
        print(sorted(name for name, mod in sys.modules.items()
                     if name.split(".")[0] == "scipy" and mod is not None))
    """)
    src = pathlib.Path(anisospec.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code, str(src)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
