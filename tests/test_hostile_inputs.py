"""One hostile-input table for the public API: every entry point below, called
with every value of one fixed corpus, raises `StateError` or returns a result,
never a bare exception.

The table is generated: one row per parameter of every public callable of
`fourphoton` (its `__all__`) and of `PureState.fixed_mode`, `mode_view` and `dense`, read from
their signatures. A row passes the hostile value in that one parameter and the
value of `VALID` for the parameter's name everywhere else, so a new parameter
without an entry there fails `test_every_parameter_has_a_valid_value`. The
rows of `REACH_IN` are written by hand: each puts the value inside a valid
argument, as an angle, a count, a ket slot or key, an amplitude or a weight.
`CORPUS` is fixed here and not chosen per change. The rejection tests of the
other files pin the message texts; this one only pins the exception type.
"""

import contextlib
import dataclasses
import inspect
import math
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import fourphoton
from fourphoton import (
    Apparatus,
    DelayElement,
    DensityMatrix,
    MeasurementSetting,
    PureState,
    RateModel,
    StateError,
    bell_state,
    chsh_value,
    default_apparatus,
    delay_scan,
    dephase_by_distinguishability,
    diagonal_setting,
    draw_counts,
    exact_outcome_probabilities,
    ghz_after_postselection,
    hv_setting,
    mix,
    phi_plus_via_45_coincidence,
    source_state,
    state_from_terms,
    visibility_from_counts,
)

APP = default_apparatus()
HV = hv_setting(APP)
DIAGONAL = diagonal_setting(APP)
RATES = RateModel()
PROBS = exact_outcome_probabilities(APP, HV)
GHZ, _ = ghz_after_postselection(APP)
RHO = dephase_by_distinguishability(GHZ, 1.0)
RHO_14 = phi_plus_via_45_coincidence(RHO).conditioned_state_14
PAIR = bell_state("phi+", 1, 2, ("a", "b"))


class Pairs(Mapping):
    """The mapping of (key, value) `pairs`, whose keys may be unhashable, as a
    dict's cannot; a key is looked up by identity."""

    def __init__(self, *pairs):
        self.pairs = pairs

    def __getitem__(self, key):
        for k, value in self.pairs:
            if k is key:
                return value
        raise KeyError(key)

    def __iter__(self):
        return (k for k, _ in self.pairs)

    def __len__(self):
        return len(self.pairs)


# the public callables by name: the functions and classes of the package's
# `__all__`, so that the table does not depend on what was imported before it,
# but no exception class, which takes any argument; and the `PureState` methods
# that take an argument, bound to the valid pair state
CALLABLES = {
    name: obj for name, obj in ((name, getattr(fourphoton, name)) for name in fourphoton.__all__)
    if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException))
}
CALLABLES.update({f"PureState.{name}": getattr(PAIR, name)
                  for name in ("fixed_mode", "mode_view", "dense")})

# parameter name -> one valid value, the same for every callable that has it:
# a pair state on modes "a", "b" and the default apparatus with its GHZ state
VALID = {
    # states
    "photons": (1, 2), "modes": ("a", "b"), "amplitudes": {(("H", "a"), ("V", "b")): 1.0},
    "terms": {"HV": 1, "VH": 1}, "normalize": True, "kind": "phi+", "i": 1, "j": 2,
    "a": PAIR, "b": bell_state("phi+", 3, 4), "photon": 1, "mode_order": ("a", "b"),
    "matrix": np.eye(4) / 4, "components": [(1.0, PAIR)], "rho": RHO, "target": GHZ,
    # elements
    "input_modes": ("2", "3"), "output_modes": ("2'", "3'"), "error_rate": 0.0,
    "delay_fs": 100.0, "coherence_time_fs": 550.0, "delay": DelayElement(100.0),
    "state_after_pbs": GHZ, "d": 1.0, "v0": 0.79,
    # experiment
    "sources": APP.sources, "pbs": APP.pbs, "detectors": dict(APP.detectors),
    "apparatus": APP, "pbs_error": 0.0, "angles": {"D1": 45.0}, "setting": HV,
    "fourfold_rate_desired": 0.03, "background_fourfold_rate": 1e-4, "counts": {"e": 5, "o": 1},
    "probs": PROBS, "rates": RATES, "integration_time": 6000.0, "seed": 1,
    "delays_fs": [0.0, 100.0], "time_per_point": 6000.0, "polarizer_mode": "4", "angle": 0.0,
    "target_events": 10,
    # swap
    "state": source_state(APP), "pair_a": (1, 4), "pair_b": (2, 3), "pair_modes": ("2'", "3'"),
    "rho_pair": RHO_14, "settings": ((0.0, 45.0), (22.5, 67.5)), "even_parity_keys": ["e"],
    "odd_parity_keys": ["o"], "conditioned_state_14": RHO_14, "projection_probability": 0.5,
    "fidelity_to_target": 1.0, "visibility_45": 1.0,
}

PARAMETERS = {f"{name}.{param}": (call, param) for name, call in CALLABLES.items()
              for param in inspect.signature(call).parameters}


def valid_call(call, **replaced):
    """`call` with the `VALID` value of each parameter but those `replaced`."""
    names = inspect.signature(call).parameters
    return call(**{name: replaced[name] if name in replaced else VALID[name] for name in names})


# name -> a call that takes the hostile value inside one valid argument
REACH_IN = {
    "exact_outcome_probabilities.angle":
        lambda x: exact_outcome_probabilities(APP, MeasurementSetting({"D1": x})),
    "exact_outcome_probabilities.angles":
        lambda x: exact_outcome_probabilities(APP, MeasurementSetting(x)),
    "draw_counts.probability": lambda x: draw_counts({"HHHH": x}, RATES, 6000.0, 1),
    "delay_scan.delay": lambda x: delay_scan(APP, DIAGONAL, [x], RATES, 6000.0, 1),
    "chsh_value.angle": lambda x: chsh_value(RHO_14, ((x, 45.0), (22.5, 67.5))),
    "chsh_value.angle_b": lambda x: chsh_value(RHO_14, ((0.0, 45.0), (x, 67.5))),
    "visibility_from_counts.count":
        lambda x: visibility_from_counts({"e": x, "o": 1}, ["e"], ["o"]),
    "mix.weight": lambda x: mix([(x, PAIR)]),
    "mix.state": lambda x: mix([(1.0, x)]),
    "state_from_terms.amplitude": lambda x: state_from_terms([1, 2], ["a", "b"], {"HV": x, "VH": 0.5}),
    "state_from_terms.photon": lambda x: state_from_terms([x, 2], ["a", "b"], {"HV": 1, "VH": 1}),
    "state_from_terms.key": lambda x: state_from_terms([1, 2], ["a", "b"], Pairs((x, 1))),
    "PureState.ket": lambda x: PureState([1], Pairs((x, 1))),
    "PureState.slot": lambda x: PureState([1], Pairs(((x,), 1))),
    "PureState.mode_view.mode": lambda x: PAIR.mode_view([x, "b"]),
    "PureState.dense.mode": lambda x: PAIR.dense([x, "b"]),
    "visibility_from_counts.parity_key": lambda x: visibility_from_counts({"e": 1}, [x], []),
    "Apparatus.detector_id": lambda x: hv_setting(Apparatus(APP.sources, APP.pbs, Pairs(
        (x, "1"), ("D2", "2'"), ("D3", "3'"), ("D4", "4")))),
    # the swap chain's memo keys: d and v0 as 0-d arrays, a pair mode inside a list
    "dephase_by_distinguishability.0-d d":
        lambda x: dephase_by_distinguishability(GHZ, np.array(x), 0.79),
    "dephase_by_distinguishability.0-d v0":
        lambda x: dephase_by_distinguishability(GHZ, 1.0, np.array(x)),
    "phi_plus_via_45_coincidence.nested_mode":
        lambda x: phi_plus_via_45_coincidence(RHO, [[x], "3'"]),
}

# name -> a call that takes the hostile value in one argument or inside one
ENTRY_POINTS = {
    **{name: lambda x, call=call, param=param: valid_call(call, **{param: x})
       for name, (call, param) in PARAMETERS.items()},
    **REACH_IN,
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


def test_every_parameter_has_a_valid_value():
    assert sorted({p.rsplit(".", 1)[1] for p in PARAMETERS} - set(VALID)) == []


def test_table_rows_are_distinct():
    assert set(PARAMETERS).isdisjoint(REACH_IN)


@pytest.mark.parametrize("name", CALLABLES)
def test_valid_values_are_valid(name):
    valid_call(CALLABLES[name])  # a row is only hostile in its one value


def plain(result):
    """A result as values that compare by value: a state, a matrix or an
    array has no value equality of its own."""
    if isinstance(result, PureState):
        return result.photons, dict(result.amps)
    if isinstance(result, DensityMatrix):
        return result.modes, result.matrix.tolist()
    if isinstance(result, np.ndarray):
        return result.tolist()
    if dataclasses.is_dataclass(result):
        return tuple(plain(getattr(result, f.name)) for f in dataclasses.fields(result))
    if isinstance(result, (tuple, list)):
        return [plain(x) for x in result]
    return result


SEQUENCES = [name for name, (_, param) in PARAMETERS.items()
             if isinstance(VALID[param], (tuple, list))]


@pytest.mark.parametrize("name", SEQUENCES)
def test_one_shot_iterator_reads_as_its_sequence(name):
    # a check that iterates the argument would leave the call an empty iterator
    call, param = PARAMETERS[name]
    expected = plain(valid_call(call))
    assert plain(valid_call(call, **{param: iter(VALID[param])})) == expected
