"""Every frozen constant is measured by scripts/calibrate_constants.py, or
named here with the reason it is not."""

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
