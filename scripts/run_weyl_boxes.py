#!/usr/bin/env python3
"""Box-count exponent experiment across Holder exponents.

Sweeps beta0 in {0.5, 0.8, 1.0}, prints the fitted optimal alpha and growth
exponent against the 1/(1+beta0) target, and the two regime slopes for the
fractal case.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from anisospec.fractal_count import (box_counts, optimal_alpha, regime_slope,
                                     synth_holder)


def run():
    omegas = 2.0 ** np.arange(6, 15)
    alphas = np.arange(0.5, 0.95 + 1e-9, 0.025)
    for b0 in (0.5, 0.8, 1.0):
        form = synth_holder(b0, seed=3)
        a_star, e_star = optimal_alpha(box_counts(form, omegas, alphas),
                                       omegas, alphas)
        target = 1.0 / (1.0 + b0)
        print(f"beta0={b0}: alpha* = {a_star:.3f} (target {target:.3f}), "
              f"exponent* = {e_star:.3f}")
    form = synth_holder(0.5, seed=3)
    print("regime slopes at beta0=0.5: "
          f"alpha=0.6 -> {regime_slope(form, omegas, 0.6):.3f} "
          "(n(1-beta0 alpha) = 0.70), "
          f"alpha=0.8 -> {regime_slope(form, omegas, 0.8):.3f} (n alpha = 0.80)")


if __name__ == "__main__":
    run()
