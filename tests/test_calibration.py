"""Every frozen constant is measured by scripts/calibrate_constants.py, or
named here with the reason it is not."""

import numpy as np

import calibrate_constants
from calibrate_constants import CALIBRATION

from anisospec import frozen

UNCALIBRATED = {
    "COMPOSITION_FLOOR": "a resolution floor for a constant b, where the "
                         "composition residual is round-off",
    "EGOROV_CT": "translation flows sit at the resolution floor, so C_t = 1 "
                 "holds with enormous slack",
    "DECAY_LOWER_C": "the lower-bound probes count violations of it; none "
                     "was observed at 2.0",
    **dict.fromkeys(["GDIST_EQUIV_N", "ESCAPE_TEMPERATE_N0",
                     "ESCAPE_TEMPERATE_N0_HIGH", "WSPACE_TEMPERATE_NW",
                     "COROLLARY_N"], "an exponent N the measurements read"),
}


def test_every_frozen_constant_is_calibrated_or_named():
    constants = {name for name in vars(frozen) if name.isupper()}
    calibrated = {name for _, measured, _ in CALIBRATION.values()
                  for name in measured}
    assert not calibrated & UNCALIBRATED.keys()
    assert calibrated | UNCALIBRATED.keys() == constants


def test_nan_extremum_reaches_its_constant(monkeypatch, capsys):
    """A NaN measurement is not below its frozen constant, so main fails."""
    monkeypatch.setattr(calibrate_constants, "CALIBRATION", {
        lambda: np.nan: ({}, ["GDIST_EQUIV_C"], lambda v: [
            calibrate_constants._at_least("nan: C", v,
                                          frozen.GDIST_EQUIV_C)])})
    assert calibrate_constants.main() == 1
    assert "frozen constant reached: nan: C >= nan" in capsys.readouterr().out
