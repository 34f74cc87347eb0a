"""CLI: subcommands, config handling, determinism, exit codes."""

import collections
import importlib
import json
import pathlib
import shutil
import time

import numpy as np
import pytest

from anisospec import fractal_count
from anisospec.cli import SUBCOMMANDS, main

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def run(args):
    return main([str(a) for a in args])


def test_toy_subcommand(tmp_path):
    out = tmp_path / "toy"
    code = run(["toy", "--w0", "0.5", "--w1", "0.5", "--r", "1",
                "--output-dir", out])
    assert code == 0
    data = json.loads((out / "toy.json").read_text())
    assert data["memberships"] == {"U": "member", "V": "not_member"}
    assert data["eigencheck_residuals"]["U"] <= 1e-12
    assert len(data["section_eigs"]) == 400
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "toy"
    assert manifest["config"]["r"] == 1.0
    assert "version" in manifest


def test_suspension_subcommand(tmp_path):
    out = tmp_path / "susp"
    code = run(["suspension", "--k-max", "5", "--nu-max", "6", "--R", "8",
                "--output-dir", out])
    assert code == 0
    spectrum = json.loads((out / "spectrum.json").read_text())
    assert len(spectrum) == 11
    assert all(set(rec) == {"re", "im", "sector"} for rec in spectrum)
    lines = (out / "certificates.csv").read_text().splitlines()
    assert lines[0] == "nu1,nu2,norm_bound,pass"
    assert all(line.endswith("true") for line in lines[1:])


def test_suspension_failing_certificate_exits_1(tmp_path):
    out = tmp_path / "susp"
    assert run(["suspension", "--threshold", "0.001", "--output-dir", out]) == 1
    lines = (out / "certificates.csv").read_text().splitlines()
    assert any(line.endswith("false") for line in lines[1:])


def test_weyl_boxes_subcommand(tmp_path):
    out = tmp_path / "weyl"
    code = run(["weyl-boxes", "--beta0", "0.5", "--omega-min", "64",
                "--omega-max", "4096", "--output-dir", out])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["alpha_star"] - 2.0 / 3.0) <= 0.08
    header = (out / "counts.csv").read_text().splitlines()[0]
    assert header == "omega,alpha,count"


def test_weyl_boxes_two_dimensional_base(tmp_path):
    """n = 2 at the default omegas: the growth exponent n/(1+beta0)."""
    out = tmp_path / "weyl2"
    assert run(["weyl-boxes", "--n", "2", "--output-dir", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["alpha_star"] - 2.0 / 3.0) <= 0.05
    assert abs(summary["exponent_star"] - 2.0 / 1.5) <= 0.05


def test_weyl_boxes_counts_each_box_once(tmp_path, monkeypatch):
    """One box_count per (omega, alpha) cell feeds both counts.csv and the
    fit, and the summary is the fit of that table."""
    calls = collections.Counter()
    box_count = fractal_count.box_count

    def counting(form, omega, alpha):
        calls[omega, alpha] += 1
        return box_count(form, omega, alpha)

    monkeypatch.setattr(fractal_count, "box_count", counting)
    out = tmp_path / "weyl"
    assert run(["weyl-boxes", "--omega-min", "64", "--omega-max", "2048",
                "--alpha-grid", "0.5:0.9:0.1", "--output-dir", out]) == 0
    omegas = 64.0 * 2.0 ** np.arange(6)
    alphas = np.arange(0.5, 0.9 + 1e-9, 0.1)
    assert len(calls) == 30 and set(calls.values()) == {1}
    counts = fractal_count.box_counts(
        fractal_count.synth_holder(0.5, seed=3), omegas, alphas)
    a_star, e_star = fractal_count.optimal_alpha(counts, omegas, alphas)
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["alpha_star"], summary["exponent_star"]) == (a_star, e_star)
    rows = (out / "counts.csv").read_text().splitlines()[1:]
    assert rows == [f"{om!r},{al!r},{c}" for (om, al), c in counts.items()]


def test_weyl_boxes_size_limits_exit_2(tmp_path, monkeypatch, capsys):
    """More than 1000 alphas is a config error raised within 2 s and before
    any box is counted; 1000 alphas pass.  Cell sides need no limit here:
    box_count refuses a cell below FINEST_CELL for every form."""

    class Counting(Exception):
        pass

    def box_counts(*args):
        raise Counting

    monkeypatch.setattr(fractal_count, "box_counts", box_counts)
    out = tmp_path / "y"
    # 0.45 / 0.00045 + 1 = 1001 alphas
    for args in (["--alpha-grid", "0.5:0.95:1e-6"],
                 ["--alpha-grid", "0.5:0.95:1e-320"],
                 ["--alpha-grid", "0.5:0.95:0.00045"]):
        start = time.perf_counter()
        assert run(["weyl-boxes", *args, "--output-dir", out]) == 2
        assert time.perf_counter() - start < 2.0
        assert capsys.readouterr().err.startswith(
            "config error: key 'alpha_grid'")
        assert not out.exists()
    with pytest.raises(Counting):
        run(["weyl-boxes", "--alpha-grid", f"0.5:0.95:{0.45 / 999!r}",
             "--output-dir", out])


def test_weyl_boxes_degenerate_fit_exits_3(tmp_path, monkeypatch, capsys):
    """A table with fewer than 3 counted omegas at some alpha, as when
    box_count refuses the rest, is a resolution error with no output."""
    monkeypatch.setattr(fractal_count, "box_counts",
                        lambda form, omegas, alphas: {(omegas[0], 0.5): 1})
    out = tmp_path / "w"
    assert run(["weyl-boxes", "--output-dir", out]) == 3
    assert capsys.readouterr().err.startswith(
        "resolution error: fewer than 3 resolved omegas at alpha = 0.5")
    assert not out.exists()


@pytest.mark.parametrize("task, key, limit, module, heavy", [
    ("toy", "section_n", 2000, "shift_model", "finite_section_report"),
    ("escape-sweep", "grid_points", 1000, "escape", "weight"),
    ("suspension", "k_max", 100000, "suspension", "full_spectrum")])
def test_size_caps_exit_2(tmp_path, monkeypatch, capsys, task, key, limit,
                          module, heavy):
    """A size key one past its cap is a config error before any work; the
    cap itself reaches the heavy call (stubbed out here)."""

    class Reached(Exception):
        pass

    def stub(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(importlib.import_module(f"anisospec.{module}"),
                        heavy, stub)
    flag, out = "--" + key.replace("_", "-"), tmp_path / "x"
    assert run([task, flag, limit + 1, "--output-dir", out]) == 2
    assert capsys.readouterr().err.startswith(f"config error: key {key!r}")
    assert not out.exists()
    with pytest.raises(Reached):
        run([task, flag, limit, "--output-dir", out])


def test_quantize_weight_order_in_float_range(tmp_path, capsys):
    """W^2 = <16>^(2 r) at the default window leaves float64 near |r| = 128:
    such an order is a config error with no warning (which the test
    settings would raise), and 127 still runs."""
    for order in ("129", "400", "-400"):
        out = tmp_path / f"q{order}"
        assert run(["quantize-probes", "--weight-order", order,
                    "--output-dir", out]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: weight ** 2 is not finite and positive")
        assert not out.exists()
    assert run(["quantize-probes", "--weight-order", "127", "--output-dir",
                tmp_path / "q127"]) == 0


def test_escape_sweep_subcommand(tmp_path):
    out = tmp_path / "esc"
    assert run(["escape-sweep", "--output-dir", out]) == 0
    assert (out / "weight_field.csv").read_text().startswith("xi_u,xi_s,omega,W")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["decay_rate_fit"] == pytest.approx(
        summary["decay_rate_theory"], rel=0.1)


def test_quantize_probes_subcommand(tmp_path):
    out = tmp_path / "quant"
    code = run(["quantize-probes", "--points", "96", "--window", "12",
                "--band", "3", "--output-dir", out])
    assert code == 0
    records = json.loads((out / "probes.json").read_text())["records"]
    assert {r["probe"] for r in records} >= {"composition_b_constant",
                                             "composition_bumps"}
    assert all(r["pass"] for r in records)


def test_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run(["toy", "--w0", "0.7", "--r", "0.5", "--output-dir", out_a])
    run(["toy", "--w0", "0.7", "--r", "0.5", "--output-dir", out_b])
    assert (out_a / "toy.json").read_bytes() == (out_b / "toy.json").read_bytes()


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("w0=0.9\nr=1.0\n")
    out = tmp_path / "toy"
    code = run(["toy", "--config", cfg, "--r", "2.0", "--output-dir", out])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["w0"] == {"im": 0.0, "re": 0.9}
    assert manifest["config"]["r"] == 2.0  # CLI flag overrides the file


def _artifacts(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


@pytest.mark.parametrize("task", ["toy", "escape-sweep", "suspension"])
def test_default_config_file_matches_flagless_run(tmp_path, task):
    """The defaults written to a key=value file give the bytes of a run with
    no file: every file value is cast once, to the default's type."""
    out = tmp_path / "out"
    assert run([task, "--output-dir", out]) == 0
    flagless = _artifacts(out)
    shutil.rmtree(out)
    cfg = tmp_path / "run.cfg"
    defaults = {**SUBCOMMANDS[task][0], "output_dir": str(out)}
    cfg.write_text("".join(f"{k}={v}\n" for k, v in defaults.items()))
    assert run([task, "--config", cfg]) == 0
    assert _artifacts(out) == flagless


@pytest.mark.parametrize("task", ["toy", "quantize-probes", "escape-sweep",
                                  "suspension", "weyl-boxes"])
def test_default_run_matches_benchmark_reference(tmp_path, monkeypatch, task):
    """The artifacts of a default run match the benchmark's reference."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    out = tmp_path / task
    code = run([task, "--output-dir", out])
    assert workloads.check_task(task, out, code,
                                workloads.DEFAULT_SEEDS.get(task)) == []


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key=1\n")
    assert run(["toy", "--config", cfg, "--output-dir", tmp_path / "x"]) == 2


def test_malformed_config_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    # an integer key takes integer text in a file, as on the command line
    for text in ("just some words", "section_n = 400.7", "window = 5.0"):
        cfg.write_text(text + "\n")
        assert run(["toy", "--config", cfg, "--output-dir", tmp_path / "x"]) \
            == 2
        assert not (tmp_path / "x").exists()
    for args in (["verify-all", "--criteria", "0"],
                 ["verify-all", "--criteria", "12"],
                 ["resolution-check", "--windows", "7,,10"],
                 ["weyl-boxes", "--alpha-grid", "0.5:0.9"],
                 ["toy", "--section-n", "5"],
                 ["toy", "--window", "1"],
                 ["toy", "--w0", "0"],
                 ["toy", "--w1", "0"],
                 ["toy", "--w0", "nan"],
                 ["toy", "--w1", "inf"],
                 ["toy", "--r", "nan"],
                 ["toy", "--r", "inf"],
                 ["resolution-check", "--seed", "-1"],
                 ["weyl-boxes", "--seed", "-1"],
                 ["weyl-boxes", "--omega-min", "2"],
                 ["weyl-boxes", "--alpha-grid", "0.3:0.9:0.1"],
                 ["weyl-boxes", "--beta0", "0"],
                 ["weyl-boxes", "--n", "0"],
                 ["weyl-boxes", "--omega-max", "100"],
                 ["weyl-boxes", "--omega-max", "inf"],
                 ["quantize-probes", "--band", "-1"],
                 ["quantize-probes", "--window", "-3"],
                 ["quantize-probes", "--points", "7"],
                 ["quantize-probes", "--points", "2"],
                 ["suspension", "--R", "0"],
                 ["suspension", "--k-max", "-1"],
                 ["suspension", "--nu-max", "-1"],
                 ["suspension", "--nu-max", "0"],
                 ["suspension", "--nu-max", "401"],
                 ["suspension", "--nu-max", "1000000000"],
                 ["suspension", "--delta0", "0"],
                 ["suspension", "--threshold", "nan"],
                 ["suspension", "--threshold", "-1"],
                 ["toy", "--window", "1100"],
                 ["toy", "--w1", "0.001", "--window", "1023"],
                 ["toy", "--window", "100000000"],
                 ["resolution-check", "--points", "7"],
                 ["resolution-check", "--delta0", "0"],
                 ["resolution-check", "--length", "0"],
                 ["resolution-check", "--band", "-1"],
                 ["escape-sweep", "--variant", "bogus"],
                 ["escape-sweep", "--r-u", "0"],
                 ["escape-sweep", "--delta0", "-1"],
                 ["escape-sweep", "--variant", "W2", "--t-avg", "0"],
                 ["escape-sweep", "--t-avg", "nan"],
                 ["escape-sweep", "--r-u", "inf"],
                 ["escape-sweep", "--r-s", "nan"],
                 ["escape-sweep", "--h0", "inf"],
                 ["escape-sweep", "--grid-points", "0"],
                 ["escape-sweep", "--grid-points", "-1"],
                 ["escape-sweep", "--grid-max", "inf"],
                 ["escape-sweep", "--omega", "nan"],
                 ["quantize-probes", "--weight-order", "nan"],
                 ["quantize-probes", "--weight-order", "inf"]):
        assert run(args + ["--output-dir", tmp_path / "y"]) == 2
        assert not (tmp_path / "y").exists()


def test_unwritable_output_dir_exits_2(tmp_path, capsys):
    """An output directory under a regular file is a config error."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["toy", "--output-dir", blocker / "sub"]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert blocker.read_text() == ""


def test_toy_window_at_the_float64_limit(tmp_path):
    """At the default weights the eigenvector tails 2^j reach 2^1000 at
    window 1000, and would leave float64 at window 1100."""
    out = tmp_path / "toy"
    assert run(["toy", "--window", "1000", "--output-dir", out]) == 0
    residuals = json.loads((out / "toy.json").read_text())[
        "eigencheck_residuals"]
    assert all(np.isfinite(v) for v in residuals.values())


def test_resolution_error_exit_code(tmp_path):
    code = run(["resolution-check", "--points", "32", "--windows", "14",
                "--output-dir", tmp_path / "r"])
    assert code == 3
    # 129 band modes alias on a 128-point lattice
    for task, out in (("quantize-probes", "q"), ("resolution-check", "b")):
        code = run([task, "--band", "64", "--output-dir", tmp_path / out])
        assert code == 3
    assert not any((tmp_path / out).exists() for out in ("r", "q", "b"))


def test_resolution_check_passes(tmp_path):
    out = tmp_path / "res"
    code = run(["resolution-check", "--points", "64", "--length",
                str(3.14159265358979), "--band", "1", "--windows", "5,8",
                "--output-dir", out])
    assert code == 0
    data = json.loads((out / "resolution.json").read_text())
    assert data["decreasing"] and data["pass"]


def test_resolution_check_windows_in_any_order(tmp_path):
    """Each window's residual is the same whatever the order of the windows;
    only the decreasing verdict depends on it."""
    residuals = {}
    for order, expected_code in (("7,10,14", 0), ("14,10,7", 1)):
        out = tmp_path / order.replace(",", "_")
        assert run(["resolution-check", "--windows", order,
                    "--output-dir", out]) == expected_code
        levels = json.loads((out / "resolution.json").read_text())["levels"]
        assert [lv["window"] for lv in levels] \
            == [int(w) for w in order.split(",")]
        residuals[order] = {lv["window"]: lv["residual"] for lv in levels}
    assert residuals["7,10,14"] == residuals["14,10,7"]


def test_thread_cap(monkeypatch):
    from anisospec.cli import thread_cap
    monkeypatch.setenv("RUELLE_THREADS", "3")
    assert thread_cap() == 3
    monkeypatch.setenv("RUELLE_THREADS", "not-a-number")
    assert thread_cap() >= 1
