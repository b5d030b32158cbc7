"""One hostile-input table for the public API: every entry point below, called
with every value of one fixed corpus, raises `StateError` or returns a result,
never a bare exception.

Each entry of `ENTRY_POINTS` is a call that takes one value in one argument
and passes valid values everywhere else. `CORPUS` is fixed here and not chosen
per change. The rejection tests of the other files pin the message texts; this
one only pins the exception type.
"""

import contextlib
import math
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from fourphoton import (
    DelayElement,
    DensityMatrix,
    MeasurementSetting,
    PbsElement,
    PureState,
    RateModel,
    StateError,
    bell_decompose,
    bell_state,
    chsh_value,
    default_apparatus,
    delay_scan,
    dephase_by_distinguishability,
    diagonal_setting,
    distinguishability,
    draw_counts,
    exact_outcome_probabilities,
    feasibility_estimate,
    fidelity,
    ghz_after_postselection,
    hv_setting,
    mix,
    monte_carlo_counts,
    phi_plus_via_45_coincidence,
    source_state,
    spdc_pair,
    state_from_terms,
    tensor,
    three_photon_ghz,
    visibility_from_counts,
)
from fourphoton.experiment import derive_point_seed

APP = default_apparatus()
HV = hv_setting(APP)
DIAGONAL = diagonal_setting(APP)
RATES = RateModel()
PROBS = exact_outcome_probabilities(APP, HV)
GHZ, _ = ghz_after_postselection(APP)
RHO_14 = phi_plus_via_45_coincidence(dephase_by_distinguishability(GHZ, 1.0)).conditioned_state_14
PAIR = bell_state("phi+", 1, 2)


class OneTerm(Mapping):
    """The one-term mapping {key: 1}, whose key may be unhashable, as a dict's cannot."""

    def __init__(self, key):
        self.key = key

    def __getitem__(self, key):
        return 1

    def __iter__(self):
        return iter([self.key])

    def __len__(self):
        return 1


# name -> a call that takes the hostile value in that one argument
ENTRY_POINTS = {
    "PbsElement.error_rate": lambda x: PbsElement(("2", "3"), ("2'", "3'"), x),
    "DelayElement.delay_fs": lambda x: DelayElement(x),
    "DelayElement.coherence_time_fs": lambda x: DelayElement(0.0, x),
    "RateModel.fourfold_rate_desired": lambda x: RateModel(x),
    "RateModel.background_fourfold_rate": lambda x: RateModel(background_fourfold_rate=x),
    "default_apparatus.pbs_error": default_apparatus,
    "exact_outcome_probabilities.v0": lambda x: exact_outcome_probabilities(APP, HV, v0=x),
    "exact_outcome_probabilities.pbs_error":
        lambda x: exact_outcome_probabilities(APP, HV, pbs_error=x),
    "exact_outcome_probabilities.angle":
        lambda x: exact_outcome_probabilities(APP, MeasurementSetting({"D1": x})),
    "MeasurementSetting.angles": lambda x: exact_outcome_probabilities(APP, MeasurementSetting(x)),
    "exact_outcome_probabilities.setting": lambda x: exact_outcome_probabilities(APP, x),
    "exact_outcome_probabilities.apparatus": lambda x: exact_outcome_probabilities(x, HV),
    "ghz_after_postselection.apparatus": ghz_after_postselection,
    "source_state.apparatus": source_state,
    "hv_setting.apparatus": hv_setting,
    "diagonal_setting.apparatus": diagonal_setting,
    "draw_counts.integration_time": lambda x: draw_counts(PROBS, RATES, x, 1),
    "draw_counts.probability": lambda x: draw_counts({"HHHH": x}, RATES, 6000.0, 1),
    "draw_counts.seed": lambda x: draw_counts(PROBS, RATES, 6000.0, x),
    "draw_counts.rates": lambda x: draw_counts(PROBS, x, 6000.0, 1),
    "draw_counts.probs": lambda x: draw_counts(x, RATES, 6000.0, 1),
    "delay_scan.delay": lambda x: delay_scan(APP, DIAGONAL, [x], RATES, 6000.0, 1),
    "delay_scan.time_per_point": lambda x: delay_scan(APP, DIAGONAL, [0.0], RATES, x, 1),
    "delay_scan.seed": lambda x: delay_scan(APP, DIAGONAL, [0.0], RATES, 6000.0, x),
    "delay_scan.coherence_time_fs":
        lambda x: delay_scan(APP, DIAGONAL, [100.0], RATES, 6000.0, 1, coherence_time_fs=x),
    "delay_scan.v0": lambda x: delay_scan(APP, DIAGONAL, [0.0], RATES, 6000.0, 1, v0=x),
    "delay_scan.apparatus": lambda x: delay_scan(x, DIAGONAL, [0.0], RATES, 6000.0, 1),
    "delay_scan.delays_fs": lambda x: delay_scan(APP, DIAGONAL, x, RATES, 6000.0, 1),
    "monte_carlo_counts.integration_time": lambda x: monte_carlo_counts(APP, HV, RATES, x, 1),
    "monte_carlo_counts.rates": lambda x: monte_carlo_counts(APP, HV, x, 1.0, 1),
    "monte_carlo_counts.apparatus": lambda x: monte_carlo_counts(x, HV, RATES, 1.0, 1),
    "derive_point_seed.seed": lambda x: derive_point_seed(x, 0),
    "three_photon_ghz.angle": lambda x: three_photon_ghz(APP, "4", x),
    "three_photon_ghz.apparatus": lambda x: three_photon_ghz(x, "4", 0.0),
    "chsh_value.angle": lambda x: chsh_value(RHO_14, ((x, 45.0), (22.5, 67.5))),
    "chsh_value.angle_b": lambda x: chsh_value(RHO_14, ((0.0, 45.0), (x, 67.5))),
    "chsh_value.settings": lambda x: chsh_value(RHO_14, x),
    "chsh_value.rho_pair": chsh_value,
    "phi_plus_via_45_coincidence.rho": phi_plus_via_45_coincidence,
    "feasibility_estimate.target_events": lambda x: feasibility_estimate(x, RATES),
    "feasibility_estimate.rates": lambda x: feasibility_estimate(10, x),
    "distinguishability.delay": distinguishability,
    "dephase_by_distinguishability.state": lambda x: dephase_by_distinguishability(x, 1.0),
    "dephase_by_distinguishability.d": lambda x: dephase_by_distinguishability(GHZ, x),
    "dephase_by_distinguishability.v0": lambda x: dephase_by_distinguishability(GHZ, 1.0, x),
    "visibility_from_counts.count":
        lambda x: visibility_from_counts({"e": x, "o": 1}, ["e"], ["o"]),
    "visibility_from_counts.counts": lambda x: visibility_from_counts(x, ["e"], ["o"]),
    "bell_decompose.state": bell_decompose,
    "mix.weight": lambda x: mix([(x, PAIR)]),
    "mix.state": lambda x: mix([(1.0, x)]),
    "tensor.b": lambda x: tensor(PAIR, x),
    "fidelity.rho": lambda x: fidelity(x, PAIR),
    "fidelity.target": lambda x: fidelity(RHO_14, x),
    "bell_state.photon": lambda x: bell_state("phi+", x, 2),
    "spdc_pair.photon": lambda x: spdc_pair(1, x),
    "PureState.fixed_mode.photon": lambda x: GHZ.fixed_mode(x),
    "state_from_terms.amplitude": lambda x: state_from_terms([1, 2], ["a", "b"], {"HV": x, "VH": 0.5}),
    "state_from_terms.photon": lambda x: state_from_terms([x, 2], ["a", "b"], {"HV": 1, "VH": 1}),
    "state_from_terms.key": lambda x: state_from_terms([1, 2], ["a", "b"], OneTerm(x)),
    "state_from_terms.modes": lambda x: state_from_terms([1, 2], x, {"HV": 1}),
    "state_from_terms.terms": lambda x: state_from_terms([1, 2], ["a", "b"], x),
    "PureState.ket": lambda x: PureState([1], OneTerm(x)),
    "PureState.slot": lambda x: PureState([1], OneTerm((x,))),
    "DensityMatrix.matrix": lambda x: DensityMatrix(["1"], x),
}

# fixed, with explicit ids: pytest cannot print an integer of 5,001 digits
CORPUS = {
    "True": True,
    "None": None,
    "'0.5'": "0.5",
    "1j": 1j,
    "10**400": 10**400,
    "10**5000": 10**5000,
    "-10**5000": -(10**5000),
    "inf": math.inf,
    "-inf": -math.inf,
    "nan": math.nan,
    "-1.0": -1.0,
    "-0.0": -0.0,
    "0-d array": np.array(0.5),
    "one-element array": np.array([0.5]),
    "Decimal": Decimal("0.5"),
    "Fraction": Fraction(1, 2),
    "np.int64": np.int64(1),
    "np.float32": np.float32(0.5),
    "np.complex128": np.complex128(0.5),
    "np.complex64": np.complex64(0.5),
    "[]": [],
    "object()": object(),
}


@pytest.mark.parametrize("value", CORPUS.values(), ids=CORPUS.keys())
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_hostile_value_raises_state_error_or_returns(call, value):
    with contextlib.suppress(StateError):  # any other exception fails the test
        call(value)
