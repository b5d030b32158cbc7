"""Invariants of the exact outcome probabilities over the whole input space,
not only at the paper's points: analyzer angles in [0, 180) or None, zero-delay
visibility in [0, 1], PBS delay in [-3000, 3000] fs and PBS error in [0, 0.05].
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fourphoton import (
    DelayElement,
    MeasurementSetting,
    default_apparatus,
    exact_outcome_probabilities,
)

APP = default_apparatus()

ANGLE = st.one_of(st.none(), st.floats(0.0, 180.0, exclude_max=True))
INPUTS = dict(
    angles=st.lists(ANGLE, min_size=4, max_size=4),
    v0=st.floats(0.0, 1.0),
    tau=st.floats(-3000.0, 3000.0),
    pbs_error=st.floats(0.0, 0.05),
)
FAST = settings(max_examples=50, deadline=None, database=None)


def probabilities(angles, v0, tau, pbs_error):
    return exact_outcome_probabilities(
        APP,
        MeasurementSetting(dict(zip(APP.detector_ids(), angles))),
        delay=DelayElement(tau),
        v0=v0,
        pbs_error=pbs_error,
    )


@FAST
@given(**INPUTS)
def test_probabilities_form_a_distribution(angles, v0, tau, pbs_error):
    probs = probabilities(angles, v0, tau, pbs_error)
    assert len(probs) == 16
    assert all(p >= 0.0 for p in probs.values())
    assert abs(sum(probs.values()) - 1.0) <= 1e-12


@FAST
@given(**INPUTS)
def test_exactly_even_in_delay(angles, v0, tau, pbs_error):
    assert probabilities(angles, v0, -tau, pbs_error) == probabilities(angles, v0, tau, pbs_error)
