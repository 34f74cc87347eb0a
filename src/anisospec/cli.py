"""Experiment runner: config ingestion, deterministic outputs, exit codes.

Subcommands: toy, resolution-check, quantize-probes, escape-sweep,
suspension, weyl-boxes, verify-all.  Configuration is a flat key=value file
plus command-line overrides; unknown keys are rejected, and every value is
cast to the type of its key's default.  Each runner returns its verdict and
its artifacts; `main` writes them with a manifest echoing the resolved
config and the library version.  Exit codes:
0 success, 1 assertion/certification failure, 2 config error (a value
out of float64 too), 3 resolution error.  RUELLE_THREADS caps verify-all.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .errors import ResolutionError


class ConfigError(ValueError):
    pass


def _parse_list(key, text, cast, valid, sep=","):
    """A sep-separated list of cast values for which valid(values) holds;
    anything else is a ConfigError."""
    try:
        values = [cast(part) for part in str(text).split(sep)]
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc
    if not valid(values):
        raise ConfigError(f"key {key!r}: invalid value {text!r}")
    return values


def _require(key, value, ok, rule):
    """Raise a ConfigError naming key when ok, its range check, is false."""
    if not ok:
        raise ConfigError(f"key {key!r}: {rule}, got {value!r}")


def _validated(make, *args, **kwargs):
    """make(*args, **kwargs), with the ValueError of its checks a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path, defaults):
    """Flat key=value file; unknown keys are rejected, and each value is cast
    to the type of its key's default, as a command-line flag is."""
    cfg = {}
    for line_no, raw in enumerate(pathlib.Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in defaults:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        try:
            cfg[key] = type(defaults[key])(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_no}: key {key!r}: {exc}") \
                from exc
    return cfg


def resolve_config(args, defaults):
    """defaults <- config file <- explicit CLI flags.

    File and flag values alike are cast once, to the default's type, so the
    manifest is identical whether a value arrived via file or flag.
    """
    cfg = dict(defaults)
    if args.config:
        cfg.update(load_config(args.config, defaults))
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


# a CSV cell by its Python type; a numpy scalar, whose repr is not its
# value, has no entry
_CSV_CELL = {str: str, int: repr, float: repr,
             bool: lambda v: "true" if v else "false"}


def _csv(rows):
    """CSV text of rows, header first, each cell by _CSV_CELL."""
    return "".join(",".join(_CSV_CELL[type(v)](v) for v in row) + "\n"
                   for row in rows)


def _json_default(o):
    if isinstance(o, complex):
        return {"re": o.real, "im": o.imag}
    raise TypeError(f"unserializable {type(o)}")


def thread_cap() -> int:
    raw = os.environ.get("RUELLE_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return max(1, os.cpu_count() or 1)


# -- subcommands -------------------------------------------------------------


TOY_DEFAULTS = dict(w0=0.5 + 0.0j, w1=0.5 + 0.0j, r=1.0, window=50,
                    section_n=400, seed=0, output_dir="out/toy",
                    format="json")


def run_toy(cfg):
    from .shift_model import (ShiftModel, eigen_residual, eigvec_U, eigvec_V,
                              finite_section_report, hw_membership)

    for key in ("w0", "w1"):
        _require(key, cfg[key], cfg[key] != 0, "must be nonzero")
    for key in ("w0", "w1", "r"):
        _require(key, cfg[key], np.isfinite(cfg[key]), "must be finite")
    # 2 window + 1 entries per sequence: about 0.5 s and 150 MB at the bound
    _require("window", cfg["window"], 2 <= cfg["window"] <= 10**6,
             "must lie in [2, 1000000]")
    # the section's dense eigvals take time like section_n^3: 9 s at 2000
    _require("section_n", cfg["section_n"], 10 <= cfg["section_n"] <= 2000,
             "must lie in [10, 2000]")
    model = ShiftModel(w0=cfg["w0"], w1=cfg["w1"], r=cfg["r"],
                       window=(-cfg["window"], cfg["window"]))
    # an eigenvector entry below the normal float64 range is refused too
    with np.errstate(under="raise"):
        seq_u, seq_v = eigvec_U(model), eigvec_V(model)
    report = finite_section_report(model, cfg["section_n"])
    out = {
        "memberships": {
            "U": hw_membership(seq_u, model.r),
            "V": hw_membership(seq_v, model.r),
        },
        "eigencheck_residuals": {
            "U": eigen_residual(model, seq_u, model.w0),
            "V": eigen_residual(model, seq_v, model.w1),
        },
        "section_eigs": [[z.real, z.imag]
                         for z in np.sort_complex(report["section_eigs"])],
        "essential_radius": report["essential_radius"],
        "w0_found_in_section": report["w0_found"],
    }
    ok = out["eigencheck_residuals"]["U"] <= 1e-12 \
        and out["eigencheck_residuals"]["V"] <= 1e-12
    return ok, {"toy.json": out}


RESOLUTION_DEFAULTS = dict(points=128, length=float(np.pi), band=2,
                           windows="7,10,14", delta0=1.0, alpha_perp=0.5,
                           alpha_par=0.5, seed=5, output_dir="out/resolution",
                           format="json")


def run_resolution_check(cfg):
    from .bracket_metric import MetricParams
    from .wavepackets import (BargmannTransform, TorusGrid, band_limited_field,
                              field_norm)

    # points^2 grid points: about 45 s and 94 MB at the bound
    _require("points", cfg["points"], cfg["points"] <= 512, "must be <= 512")
    _require("seed", cfg["seed"], cfg["seed"] >= 0, "must be >= 0")
    p = _validated(MetricParams, cfg["delta0"], cfg["alpha_perp"],
                   cfg["alpha_par"])
    g = _validated(TorusGrid, 1, cfg["points"], length=cfg["length"])
    # strictly increasing, as the decreasing verdict compares neighbours
    windows = _parse_list("windows", cfg["windows"], int,
                          lambda ws: min(ws) >= 0 and ws == sorted(set(ws)))
    u = _validated(band_limited_field, g, cfg["band"],
                   np.random.default_rng(cfg["seed"]))
    # one pass over the largest window's centers serves every window
    recs = BargmannTransform(g, p, window=max(windows)).op_apply(
        u, windows=windows)
    levels = [{"window": win,
               "residual": field_norm(rec - u) / field_norm(u)}
              for win, rec in zip(windows, recs)]
    decreasing = all(levels[i + 1]["residual"] < levels[i]["residual"]
                     for i in range(len(levels) - 1))
    ok = decreasing and levels[0]["residual"] <= 1e-3
    return ok, {"resolution.json": {"levels": levels,
                                    "decreasing": decreasing, "pass": ok}}


QUANTIZE_DEFAULTS = dict(points=128, window=16, band=4, weight_order=1.0,
                         seed=0, output_dir="out/quantize", format="json")


def run_quantize_probes(cfg):
    from . import frozen
    from .bracket_metric import MetricParams, jbracket
    from .quantize import (BandSubspace, WeightedSpace, bump_symbol,
                           composition_residual, constant_symbol,
                           egorov_residual)
    from .wavepackets import BargmannTransform, TorusGrid

    # about 1 s and 45 MB at the bound, at the default window and band
    _require("points", cfg["points"], cfg["points"] <= 2048,
             "must be <= 2048")
    _require("weight_order", cfg["weight_order"],
             np.isfinite(cfg["weight_order"]), "must be finite")
    p = MetricParams(1.0, 0.5, 0.5)
    g = _validated(TorusGrid, 0, cfg["points"])
    tr = _validated(BargmannTransform, g, p, window=cfg["window"])
    r_ord = cfg["weight_order"]
    space = _validated(
        WeightedSpace, weight=lambda eta: jbracket(eta[-1]) ** r_ord,
        transform=tr, band=_validated(BandSubspace, g, cfg["band"]))

    base_params = {"points": cfg["points"], "window": cfg["window"],
                   "band": cfg["band"], "weight_order": cfg["weight_order"]}
    records = []
    sa = bump_symbol(2.0, 4.0, 2.0, 8.0)
    sb = bump_symbol(3.5, -2.0, 2.5, 10.0)
    est, bound = composition_residual(sa, constant_symbol(2.0), 0.0, space,
                                      frozen.COMPOSITION_C)
    records.append({"probe": "composition_b_constant", "params": base_params,
                    "residual": est, "bound": frozen.COMPOSITION_FLOOR,
                    "pass": est <= frozen.COMPOSITION_FLOOR})
    est, bound = composition_residual(sa, sb, 0.2, space, frozen.COMPOSITION_C)
    records.append({"probe": "composition_bumps", "params": base_params,
                    "residual": est, "bound": bound, "pass": est <= bound})
    for t in (0.5, 1.0, 2.0):
        est, bound = egorov_residual(sa, 0.2, t, space, frozen.EGOROV_CT[t])
        records.append({"probe": f"egorov_t{t}",
                        "params": {**base_params, "t": t},
                        "residual": est, "bound": bound,
                        "pass": est <= bound})
    ok = all(r["pass"] for r in records)
    return ok, {"probes.json": {"records": records}}


ESCAPE_DEFAULTS = dict(r_u=8.0, r_s=8.0, gamma=0.0, gamma_prime=0.0, h0=1.0,
                       variant="W_lemma42", t_avg=4.0, delta0=1.0,
                       alpha_perp=0.5, alpha_par=0.0, grid_max=16.0,
                       grid_points=9, omega=1.0, seed=0,
                       output_dir="out/escape", format="csv")


def run_escape_sweep(cfg):
    from .bracket_metric import MetricParams
    from .escape import (EscapeConfig, decay_rate_fit, order_estimate,
                         theoretical_decay_rate, theoretical_orders, weight)
    from .suspension import CAT_SPLIT

    p = _validated(MetricParams, cfg["delta0"], cfg["alpha_perp"],
                   cfg["alpha_par"])
    ec = _validated(EscapeConfig, r_u=cfg["r_u"], r_s=cfg["r_s"],
                    gamma=cfg["gamma"], gamma_prime=cfg["gamma_prime"],
                    h0=cfg["h0"], variant=cfg["variant"], t_avg=cfg["t_avg"])
    # grid_points^2 covectors: about 430 MB at the bound
    _require("grid_points", cfg["grid_points"], 1 <= cfg["grid_points"] <= 1000,
             "must lie in [1, 1000]")
    for key in ("grid_max", "omega"):
        _require(key, cfg[key], np.isfinite(cfg[key]), "must be finite")
    vals = np.linspace(-cfg["grid_max"], cfg["grid_max"], cfg["grid_points"])
    mesh = [m.ravel() for m in np.meshgrid(vals, vals, [cfg["omega"]],
                                           indexing="ij")]
    rows = zip(*(m.tolist() for m in mesh),
               weight(*mesh, CAT_SPLIT, ec, p).tolist())
    summary = {
        "decay_rate_fit": -decay_rate_fit(1.0e5, 0.0, 1.0,
                                          np.linspace(0, 3, 13),
                                          CAT_SPLIT, ec, p),
        "decay_rate_theory": theoretical_decay_rate(CAT_SPLIT, ec, p),
        "orders": {k: order_estimate(d, CAT_SPLIT, ec, p)
                   for k, d in (("unstable", (1.0, 0.0, 0.0)),
                                ("stable", (0.0, 1.0, 0.0)))},
        "orders_theory": theoretical_orders(ec, p),
    }
    return True, {"weight_field.csv": [("xi_u", "xi_s", "omega", "W"), *rows],
                  "summary.json": summary}


SUSPENSION_DEFAULTS = dict(k_max=5, nu_max=20, R=8.0, threshold=float(np.exp(-3.0)),
                           gamma=0.0, delta0=1.0, alpha_perp=0.5,
                           alpha_par=0.0, seed=0, output_dir="out/suspension",
                           format="json")


def run_suspension(cfg):
    from .bracket_metric import MetricParams
    from .escape import EscapeConfig
    from .suspension import CAT_MAP, full_spectrum

    _require("R", cfg["R"], cfg["R"] > 0, "must be > 0")
    # one spectrum entry per k: about 290 MB at the bound
    _require("k_max", cfg["k_max"], 0 <= cfg["k_max"] <= 100000,
             "must lie in [0, 100000]")
    # peak memory grows like nu_max^2: about 300 MB at the bound
    _require("nu_max", cfg["nu_max"], 1 <= cfg["nu_max"] <= 400,
             "must lie in [1, 400]")
    _require("threshold", cfg["threshold"],
             np.isfinite(cfg["threshold"]) and cfg["threshold"] > 0,
             "must be finite and > 0")
    p = _validated(MetricParams, cfg["delta0"], cfg["alpha_perp"],
                   cfg["alpha_par"])
    ec = _validated(EscapeConfig, r_u=cfg["R"], r_s=cfg["R"],
                    gamma=cfg["gamma"])
    spec, certs = full_spectrum(cfg["k_max"], cfg["nu_max"], ec,
                                cfg["threshold"], CAT_MAP, p)
    return all(c["pass"] for c in certs), {
        "spectrum.json": [{"re": z.real, "im": z.imag, "sector": [0, 0]}
                          for z in spec.tolist()],
        "certificates.csv": [("nu1", "nu2", "norm_bound", "pass")]
        + [(*c["nu"], c["norm_bound"], c["pass"]) for c in certs]}


WEYL_DEFAULTS = dict(beta0=0.5, n=1, omega_min=64.0, omega_max=16384.0,
                     alpha_grid="0.5:0.95:0.025", seed=3,
                     output_dir="out/weyl", format="csv")


def run_weyl_boxes(cfg):
    from .fractal_count import box_counts, optimal_alpha, synth_holder

    lo, hi, step = _parse_list(
        "alpha_grid", cfg["alpha_grid"], float, sep=":",
        valid=lambda g: len(g) == 3 and bool(np.all(np.isfinite(g)))
        and g[0] <= g[1] and g[2] > 0)
    stop = hi + 1e-9  # np.arange makes ceil((stop - lo) / step) alphas
    _require("alpha_grid", cfg["alpha_grid"], (stop - lo) / step <= 1000,
             "must give at most 1000 alphas")
    alphas = np.arange(lo, stop, step)
    _require("alpha_grid", cfg["alpha_grid"],
             0.5 <= alphas[0] and alphas[-1] < 1.0,
             "alphas must lie in [0.5, 1)")
    beta0, om_min, om_max = cfg["beta0"], cfg["omega_min"], cfg["omega_max"]
    # a counted cell has omega <= 2^34 (FINEST_CELL), which keeps a count
    # over 16 axes a finite float; at n = 16 a run takes about 0.5 s and
    # 42 MB at the default omegas, and 63 s and 45 MB up to omega = 2^34
    _require("n", cfg["n"], 1 <= cfg["n"] <= 16, "must lie in [1, 16]")
    _require("seed", cfg["seed"], cfg["seed"] >= 0, "must be >= 0")
    _require("omega_min", om_min, om_min >= 4.0, "must be >= 4")
    limit = om_max * (1 + 1e-9)
    # an infinite limit would never end the doubling loop
    _require("omega_max", om_max, np.isfinite(limit), "must be finite")
    omegas = [om_min]
    while omegas[-1] * 2.0 <= limit:
        omegas.append(omegas[-1] * 2.0)
    _require("omega_max", om_max, len(omegas) >= 6,
             "must leave at least 6 dyadic omegas from omega_min")
    form = _validated(synth_holder, beta0, seed=cfg["seed"], n=cfg["n"])
    counts = box_counts(form, omegas, alphas)
    a_star, e_star = optimal_alpha(counts, omegas, alphas)
    return True, {
        "counts.csv": [("omega", "alpha", "count")]
        + [(om, al, c) for (om, al), c in counts.items()],
        "summary.json": {"alpha_star": a_star, "exponent_star": e_star,
                         "theory": 1.0 / (1.0 + beta0)}}


VERIFY_DEFAULTS = dict(criteria="all", seed=0, output_dir="out/verify",
                       format="json")


def run_verify_all(cfg):
    from .acceptance import ALL_CRITERIA

    wanted = cfg["criteria"]
    fns = ALL_CRITERIA if wanted == "all" else [
        ALL_CRITERIA[i - 1] for i in _parse_list(
            "criteria", wanted, int,
            lambda ix: all(1 <= i <= len(ALL_CRITERIA) for i in ix)
            and len(set(ix)) == len(ix))]
    with ThreadPoolExecutor(max_workers=thread_cap()) as pool:
        results = list(pool.map(lambda fn: fn(), fns))
    results.sort(key=lambda r: r.index)
    for r in results:
        print(r.line())
    return all(r.passed for r in results), {
        "results.json": [{"index": r.index, "name": r.name,
                          "passed": r.passed, "detail": r.detail}
                         for r in results]}


SUBCOMMANDS = {
    "toy": (TOY_DEFAULTS, run_toy),
    "resolution-check": (RESOLUTION_DEFAULTS, run_resolution_check),
    "quantize-probes": (QUANTIZE_DEFAULTS, run_quantize_probes),
    "escape-sweep": (ESCAPE_DEFAULTS, run_escape_sweep),
    "suspension": (SUSPENSION_DEFAULTS, run_suspension),
    "weyl-boxes": (WEYL_DEFAULTS, run_weyl_boxes),
    "verify-all": (VERIFY_DEFAULTS, run_verify_all),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="anisospec",
        description="Desk-scale spectral experiments for hyperbolic "
                    "transfer operators")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (defaults, _) in SUBCOMMANDS.items():
        sp = subs.add_parser(name)
        sp.add_argument("--config", default=None,
                        help="flat key=value config file")
        for key, default in defaults.items():
            sp.add_argument(f"--{key.replace('_', '-')}", dest=key,
                            type=type(default), default=None,
                            help=f"default: {default}")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only writer of its output directory.

    A runner returns (ok, artifacts), artifacts mapping each file name to a
    JSON object or, for a .csv name, to its rows, header first.  Nothing is
    written when the config or the run fails before the runner returns; an
    unwritable output directory and a value leaving float64 (an overflow,
    invalid operation or division by zero) are config errors too.
    """
    args = build_parser().parse_args(argv)
    defaults, runner = SUBCOMMANDS[args.command]
    try:
        cfg = resolve_config(args, defaults)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            ok, artifacts = runner(cfg)
        outdir = pathlib.Path(cfg["output_dir"])
        outdir.mkdir(parents=True, exist_ok=True)
        manifest = {"command": args.command, "config": cfg,
                    "version": __version__}
        for name, body in {"manifest.json": manifest, **artifacts}.items():
            (outdir / name).write_text(
                _csv(body) if name.endswith(".csv") else
                json.dumps(body, indent=1, sort_keys=True,
                           default=_json_default) + "\n")
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"config error: a value leaves float64: {exc}", file=sys.stderr)
        return 2
    except ResolutionError as exc:
        print(f"resolution error: {exc}", file=sys.stderr)
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
