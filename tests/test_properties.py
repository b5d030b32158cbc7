"""Invariants of the exact outcome probabilities over the whole input space,
not only at the paper's points: analyzer angles in [0, 180) or None, zero-delay
visibility in [0, 1], PBS delay in [-3000, 3000] fs, PBS error in [0, 0.05]
and apparatus layouts with reordered sources, relabelled photons and modes, and
the source modes shuffled between the pairs.
"""

from hypothesis import event, given, settings
from hypothesis import strategies as st

from fourphoton import (
    Apparatus,
    DelayElement,
    MeasurementSetting,
    PairSource,
    PbsElement,
    PostselectionError,
    StateError,
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
