"""Invariants of the exact outcome probabilities over the whole input space,
not only at the paper's points: analyzer angles in [0, 180) or None, zero-delay
visibility in [0, 1], PBS delay in [-3000, 3000] fs, PBS error in [0, 0.05]
and apparatus layouts with reordered sources, relabelled photons and modes, and
the source modes shuffled between the pairs. Three-photon conditioning is
checked against the dense oracle at any angle, and the analyzer, a
reflection, restores any two-photon state when applied twice. The swap chain
meets its closed forms at any delay and zero-delay visibility, and CHSH stays
within the Tsirelson bound. The exact probabilities are the analyzer-basis diagonal
of the swap chain's dephased density matrix, so the two users of the one
dephasing channel agree.
"""

import itertools
import math
from functools import reduce

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracle
from fourphoton import (
    BELL_KINDS,
    Apparatus,
    DelayElement,
    MeasurementSetting,
    PairSource,
    PbsElement,
    PostselectionError,
    StateError,
    chsh_value,
    default_apparatus,
    dephase_by_distinguishability,
    distinguishability,
    exact_outcome_probabilities,
    ghz_after_postselection,
    mix,
    phi_plus_via_45_coincidence,
    project_bell,
    state_from_terms,
    three_photon_ghz,
)
from fourphoton.states import analyzer_matrix, kron

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


# The default layout's modes, the detectors' default view of them, and a
# small pool of names, so that drawn names and photon indices often collide.
MODES = ("1", "2", "3", "4", "2'", "3'")
DEFAULT_VIEW = (0, 4, 5, 3)
# which of the default source modes fills each source slot (pair 1, pair 2);
# a third of the permutations put both PBS inputs, "2" and "3", into one pair
DEFAULT_SLOTS = ("1", "2", "3", "4")
LAYOUT = dict(
    order=st.permutations([0, 1]),
    slots=st.one_of(st.just(DEFAULT_SLOTS), st.permutations(DEFAULT_SLOTS).map(tuple)),
    photons=st.one_of(
        st.lists(st.integers(0, 9), min_size=4, max_size=4, unique=True),
        st.lists(st.integers(1, 5), min_size=4, max_size=4),
    ),
    names=st.one_of(
        st.permutations(MODES + ("a", "b")).map(lambda names: names[:6]),
        st.lists(st.sampled_from("abcdefgh"), min_size=6, max_size=6),
    ),
    view=st.one_of(
        st.just(DEFAULT_VIEW),
        st.permutations(DEFAULT_VIEW).map(tuple),
        st.permutations(range(6)).map(lambda view: tuple(view[:4])),
    ),
    angles=INPUTS["angles"],
    pbs_error=INPUTS["pbs_error"],
)


@settings(FAST, max_examples=120)
@given(**LAYOUT)
def test_any_layout_is_rejected_or_gives_a_distribution(
    order, slots, photons, names, view, angles, pbs_error
):
    mode = dict(zip(MODES, names))
    try:
        sources = (
            PairSource((photons[0], photons[1]), (mode[slots[0]], mode[slots[1]])),
            PairSource((photons[2], photons[3]), (mode[slots[2]], mode[slots[3]])),
        )
        app = Apparatus(
            tuple(sources[i] for i in order),
            PbsElement((mode["2"], mode["3"]), (mode["2'"], mode["3'"])),
            dict(zip(APP.detector_ids(), (names[i] for i in view))),
        )
    except StateError:
        event("rejected")
        return
    # one pair in both PBS inputs is never a valid layout
    assert not any({mode["2"], mode["3"]} <= set(source.modes) for source in sources)
    setting = MeasurementSetting(dict(zip(APP.detector_ids(), angles)))
    try:
        probs = exact_outcome_probabilities(app, setting, pbs_error=pbs_error)
    except PostselectionError:
        event("nothing survives")
        return
    assert len(probs) == 16
    assert all(p >= 0.0 for p in probs.values())
    assert abs(sum(probs.values()) - 1.0) <= 1e-12
    if (len(set(photons)) == 4 and len(set(names)) == 6 and view == DEFAULT_VIEW
            and slots == DEFAULT_SLOTS):
        event("relabelled default")
        assert probs == exact_outcome_probabilities(APP, setting, pbs_error=pbs_error)


# The post-selected GHZ state over the detector modes, as a dense vector.
GHZ_MODES = ["1", "2'", "3'", "4"]
GHZ_DENSE = oracle.dense_from_terms({"HVVH": 2**-0.5, "VHHV": 2**-0.5}, 4)
ANALYZER_ANGLE = st.floats(0.0, 180.0, exclude_max=True)


def dense_projection(position: int, angle: float):
    """Project the GHZ qubit at `position` onto the analyzer's pass port: the
    normalised state of the other three qubits and the probability."""
    bra = oracle.analyzer_ket(angle, "pass").conj()[None, :]
    full = np.kron(np.kron(np.eye(2**position), bra), np.eye(2 ** (3 - position)))
    reduced = full @ GHZ_DENSE
    prob = float(np.linalg.norm(reduced) ** 2)
    return reduced / np.sqrt(prob), prob


def assert_same_up_to_phase(got: np.ndarray, want: np.ndarray):
    # PureState fixes the global phase on its own ket order
    overlap = np.vdot(want, got)
    assert np.max(np.abs(got - want * overlap / abs(overlap))) <= 1e-12


@FAST
@given(position=st.integers(0, 3), angle=ANALYZER_ANGLE)
def test_three_photon_ghz_matches_dense_projection(position, angle):
    mode = GHZ_MODES[position]
    want, p_want = dense_projection(position, angle)
    state, prob = three_photon_ghz(APP, mode, angle)
    assert abs(prob - p_want) <= 1e-12
    rest = [m for m in GHZ_MODES if m != mode]
    assert_same_up_to_phase(state.dense(rest), want)


# amplitudes are small Gaussian integers, so no rounding hides a wrong sign
AMPLITUDE = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))


@FAST
@given(
    amps=st.lists(AMPLITUDE, min_size=4, max_size=4).filter(any),
    position=st.integers(0, 1),
    angle=ANALYZER_ANGLE,
)
def test_analyzer_twice_restores_the_state(amps, position, angle):
    vec = np.array(amps)
    ops = [np.eye(2), np.eye(2)]
    ops[position] = analyzer_matrix(angle)
    k = kron(*ops)
    assert np.max(np.abs(k @ (k @ vec) - vec)) <= 1e-12


# The swap chain at x = d*v0 conditions photons 1,4 on
# ((1+x)/2)|phi+><phi+| + ((1-x)/2)|phi-><phi-| (event-ready swapping).
GHZ = ghz_after_postselection(APP)[0]
PHI = {sign: oracle.dense_from_terms({"HH": 2**-0.5, "VV": sign * 2**-0.5}, 2) for sign in (1, -1)}
TSIRELSON = 2 * math.sqrt(2)


@FAST
@given(tau=INPUTS["tau"], v0=INPUTS["v0"])
def test_swap_chain_meets_its_closed_forms(tau, v0):
    d = distinguishability(DelayElement(tau))
    x = d * v0
    res = phi_plus_via_45_coincidence(dephase_by_distinguishability(GHZ, d, v0))
    pair = res.conditioned_state_14
    want = sum(w * np.outer(PHI[sign], PHI[sign].conj())
               for w, sign in (((1 + x) / 2, 1), ((1 - x) / 2, -1)))
    assert np.max(np.abs(pair.matrix - want)) <= 1e-12
    assert abs(res.projection_probability - 0.5) <= 1e-12
    assert abs(res.fidelity_to_target - (1 + x) / 2) <= 1e-12
    assert abs(res.visibility_45 - x) <= 1e-12
    assert abs(chsh_value(pair) - math.sqrt(2) * (1 + x)) <= 1e-12


@FAST
@given(
    angles=INPUTS["angles"],
    # None is d = 1; |tau| past ~15000 fs is d = 0
    tau=st.one_of(st.none(), st.floats(-20000.0, 20000.0)),
    v0=INPUTS["v0"],
)
def test_exact_model_measures_the_swap_chains_density_matrix(angles, tau, v0):
    # both use the one dephasing channel: the exact probabilities are the
    # diagonal of K rho K^dagger, K the analyzers in detector order
    delay = None if tau is None else DelayElement(tau)
    d = 1.0 if delay is None else distinguishability(delay)
    rho = dephase_by_distinguishability(GHZ, d, v0)
    assert list(rho.modes) == [APP.detectors[det] for det in APP.detector_ids()]
    k = reduce(kron, (analyzer_matrix(0.0 if a is None else a) for a in angles))
    want = np.real(np.diag(k @ rho.matrix @ k.conj().T))
    setting = MeasurementSetting(dict(zip(APP.detector_ids(), angles)))
    got = exact_outcome_probabilities(APP, setting, delay=delay, v0=v0)
    assert np.max(np.abs(np.array(list(got.values())) - want)) <= 1e-12


@FAST
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(BELL_KINDS),
    angles=st.lists(ANALYZER_ANGLE, min_size=4, max_size=4),
    tau=INPUTS["tau"],
    v0=INPUTS["v0"],
)
def test_chsh_within_tsirelson_bound(seed, kind, angles, tau, v0):
    # a generic four-photon state, so that no Bell component nearly cancels
    amps = np.random.default_rng(seed).normal(size=(16, 2)) @ (1, 1j)
    kets = map("".join, itertools.product("HV", repeat=4))
    state = state_from_terms([1, 2, 3, 4], GHZ_MODES, dict(zip(kets, amps)))
    d = distinguishability(DelayElement(tau))
    pairs = [
        project_bell(mix([(1.0, state)], GHZ_MODES), ("2'", "3'"), kind),
        phi_plus_via_45_coincidence(dephase_by_distinguishability(GHZ, d, v0)),
    ]
    a, ap, b, bp = angles
    for res in pairs:
        assert abs(chsh_value(res.conditioned_state_14, ((a, ap), (b, bp)))) <= TSIRELSON + 1e-12
