import itertools
import math
import pickle
import re
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from scipy import stats

from fourphoton import experiment
from fourphoton.elements import dephasing_components
from fourphoton.states import analyzer_matrix, dephasing_partner
from fourphoton import (
    Apparatus,
    DelayElement,
    MeasurementSetting,
    PairSource,
    PbsElement,
    PostselectionError,
    RateModel,
    StateError,
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
    ghz_after_postselection,
    hv_setting,
    mix,
    monte_carlo_counts,
    phi_plus_via_45_coincidence,
    three_photon_ghz,
)

import oracle

S2 = 1 / math.sqrt(2)
APP = default_apparatus()
MODES = ["1", "2'", "3'", "4"]


class TestPostselection:
    def test_ghz_projection_probability_half(self):
        state, prob = ghz_after_postselection(APP)
        assert prob == pytest.approx(0.5, abs=1e-12)
        view = state.mode_view(MODES)
        assert view[("H", "V", "V", "H")] == pytest.approx(S2, abs=1e-12)
        assert view[("V", "H", "H", "V")] == pytest.approx(S2, abs=1e-12)

    def test_two_photon_pbs_routing_enumeration(self):
        # brute force over the four polarization kets of photons 2 and 3:
        # a pair survives when the PBS sends its photons to different outputs
        survives = {
            p2 + p3: APP.pbs.route("2", p2) != APP.pbs.route("3", p3)
            for p2 in ("H", "V")
            for p3 in ("H", "V")
        }
        assert survives == {"HH": True, "VV": True, "HV": False, "VH": False}

    def test_impossible_postselection(self):
        app = Apparatus(APP.sources, APP.pbs, {"D1": "1", "D2": "2'", "D3": "3'", "D4": "x"})
        with pytest.raises(PostselectionError):
            ghz_after_postselection(app)


class TestExactProbabilities:
    def test_hv_setting_ideal(self):
        probs = exact_outcome_probabilities(APP, hv_setting(APP), v0=1.0)
        assert probs["HVVH"] == pytest.approx(0.5, abs=1e-12)
        assert probs["VHHV"] == pytest.approx(0.5, abs=1e-12)
        for k, p in probs.items():
            if k not in ("HVVH", "VHHV"):
                assert p == pytest.approx(0.0, abs=1e-12)

    def test_45_setting_ideal_parity_structure(self):
        probs = exact_outcome_probabilities(APP, diagonal_setting(APP), v0=1.0)
        nonzero = {k: p for k, p in probs.items() if p > 1e-12}
        assert len(nonzero) == 8
        for k, p in nonzero.items():
            assert k.count("+") % 2 == 0
            assert p == pytest.approx(0.125, abs=1e-12)

    def test_45_setting_dephased(self):
        probs = exact_outcome_probabilities(APP, diagonal_setting(APP), v0=0.79)
        for k, p in probs.items():
            expected = (1 + 0.79) / 16 if k.count("+") % 2 == 0 else (1 - 0.79) / 16
            assert p == pytest.approx(expected, abs=1e-12)
        vis = (probs["++++"] - probs["+++-"]) / (probs["++++"] + probs["+++-"])
        assert vis == pytest.approx(0.79, abs=1e-9)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            angles = {d: float(rng.uniform(0, 180)) for d in APP.detector_ids()}
            delay = DelayElement(float(rng.uniform(-800, 800)))
            v0 = float(rng.uniform(0, 1))
            probs = exact_outcome_probabilities(
                APP, MeasurementSetting(angles), delay=delay, v0=v0
            )
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)

    def test_agrees_with_dense_oracle_random_settings(self):
        # independent dense 2^4 oracle over the dephased GHZ mixture
        rng = np.random.default_rng(17)
        for _ in range(100):
            angles = [float(rng.uniform(0, 180)) for _ in range(4)]
            v0 = float(rng.uniform(0, 1))
            probs = exact_outcome_probabilities(
                APP,
                MeasurementSetting(dict(zip(APP.detector_ids(), angles))),
                v0=v0,
            )
            w = (1 + v0) / 2
            psi = oracle.dense_from_terms({"HVVH": S2, "VHHV": S2}, 4)
            phi = oracle.dense_from_terms({"HVVH": S2, "VHHV": -S2}, 4)
            ref = oracle.all_outcome_probabilities([(w, psi), (1 - w, phi)], angles)
            for key, p in ref.items():
                assert probs[key] == pytest.approx(p, abs=1e-12)

    def test_correlation_against_dense_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            angles = [float(rng.uniform(0, 180)) for _ in range(4)]
            v0 = float(rng.uniform(0, 1))
            probs = exact_outcome_probabilities(
                APP,
                MeasurementSetting(dict(zip(APP.detector_ids(), angles))),
                v0=v0,
            )
            e_sparse = sum(
                ((-1) ** k.count("-")) * p for k, p in probs.items()
            )
            w = (1 + v0) / 2
            psi = oracle.dense_from_terms({"HVVH": S2, "VHHV": S2}, 4)
            phi = oracle.dense_from_terms({"HVVH": S2, "VHHV": -S2}, 4)
            e_dense = oracle.correlation([(w, psi), (1 - w, phi)], angles)
            assert e_sparse == pytest.approx(e_dense, abs=1e-12)

    def test_pbs_error_mixture_normalized(self):
        probs = exact_outcome_probabilities(
            APP, hv_setting(APP), v0=0.79, pbs_error=1e-3
        )
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)
        # wrong-polarization coincidences appear at the error scale
        assert 0 < probs["HVHV"] < 5e-3

    # a one-element array compares like a number but is none
    @pytest.mark.parametrize("err", [1.5, 2.0, -0.5, math.nan, math.inf, "x", True, np.array([0.01])])
    def test_pbs_error_outside_unit_interval_rejected(self, err):
        # the wording of PbsElement's own check
        with pytest.raises(StateError, match=r"PBS error_rate .* outside \[0, 1\)"):
            exact_outcome_probabilities(APP, hv_setting(APP), pbs_error=err)

    def test_zero_pbs_error_is_the_ideal_pbs(self):
        ideal = exact_outcome_probabilities(APP, diagonal_setting(APP), pbs_error=None)
        assert exact_outcome_probabilities(APP, diagonal_setting(APP), pbs_error=0.0) == ideal
        assert exact_outcome_probabilities(APP, diagonal_setting(APP)) == ideal


    def test_pbs_error_agrees_with_dense_oracle(self):
        # routing patterns enumerated by the oracle, not by the sparse code
        rng = np.random.default_rng(41)
        for _ in range(50):
            angles = [float(a) for a in rng.uniform(0, 180, 4)]
            angles[int(rng.integers(4))] = None
            tau = float(rng.uniform(-1200, 1200))
            v0 = float(rng.uniform(0, 1))
            err = 0.05 - float(rng.uniform(0, 0.05))  # (0, 0.05]
            probs = exact_outcome_probabilities(
                APP,
                MeasurementSetting(dict(zip(APP.detector_ids(), angles))),
                delay=DelayElement(tau),
                v0=v0,
                pbs_error=err,
            )
            w = (1 + math.exp(-((tau / 550.0) ** 2)) * v0) / 2
            components = oracle.pbs_error_components(err, w)
            ref = oracle.all_outcome_probabilities(
                components, [0.0 if a is None else a for a in angles]
            )
            assert list(probs) == list(ref)
            for key, p in ref.items():
                assert probs[key] == pytest.approx(p, abs=1e-12)

    def test_none_angle_is_zero_degrees_with_plus_minus_labels(self):
        dets = APP.detector_ids()
        at_zero = exact_outcome_probabilities(
            APP, MeasurementSetting({d: 0.0 if d == "D2" else 45.0 for d in dets})
        )
        relabel = {"H": "+", "V": "-"}
        expected = {k[0] + relabel[k[1]] + k[2:]: p for k, p in at_zero.items()}
        for angles in (
            {d: None if d == "D2" else 45.0 for d in dets},
            {d: 45.0 for d in dets if d != "D2"},  # missing, as None
        ):
            probs = exact_outcome_probabilities(APP, MeasurementSetting(angles))
            assert probs == expected

    @pytest.mark.parametrize("count", [
        lambda s: exact_outcome_probabilities(APP, s),
        lambda s: monte_carlo_counts(APP, s, RateModel(), 6000.0, seed=1),
        lambda s: delay_scan(APP, s, [0.0, 100.0], RateModel(), 600.0, seed=1),
    ], ids=["exact", "monte_carlo_counts", "delay_scan"])
    @pytest.mark.parametrize("angles, unknown", [
        ({"d1": 45.0, "d2": 45.0, "d3": 45.0, "d4": 45.0}, ["d1", "d2", "d3", "d4"]),
        ({"D1": 45.0, "D2": 45.0, "D3": 45.0, "D4": 45.0, "D5": None}, ["D5"]),
    ], ids=["lower-case", "extra"])
    def test_unknown_detector_rejected(self, count, angles, unknown):
        # ignored, they would give the H/V table under "+"/"-" labels
        with pytest.raises(StateError, match=re.escape(f"unknown detectors {unknown}")):
            count(MeasurementSetting(angles))

    @pytest.mark.parametrize("count", [
        lambda s: exact_outcome_probabilities(APP, s),
        lambda s: delay_scan(APP, s, [0.0, 100.0], RateModel(), 600.0, seed=1),
    ], ids=["exact", "delay_scan"])
    @pytest.mark.parametrize("angles", [None, True, 0.5, [], ("D1", 45.0), {"D1"}])
    def test_angles_must_be_a_mapping(self, count, angles):
        with pytest.raises(StateError, match=re.escape(
                f"setting angles {angles!r} are not a mapping of detector ids")):
            count(MeasurementSetting(angles))

    @pytest.mark.parametrize("count", [
        lambda s: exact_outcome_probabilities(APP, s),
        lambda s: delay_scan(APP, s, [0.0, 100.0], RateModel(), 600.0, seed=1),
    ], ids=["exact", "delay_scan"])
    @pytest.mark.parametrize("setting", [{"D1": 0.0}, None, 45.0])
    def test_setting_must_be_a_measurement_setting(self, count, setting):
        # not a bare AttributeError for its missing angles
        with pytest.raises(StateError, match=re.escape(
                f"setting {setting!r} is not a MeasurementSetting")):
            count(setting)

    @pytest.mark.parametrize("call", [
        lambda a: exact_outcome_probabilities(a, hv_setting(APP)),
        ghz_after_postselection,
        lambda a: monte_carlo_counts(a, hv_setting(APP), RateModel(), 600.0, seed=1),
        lambda a: delay_scan(a, hv_setting(APP), [0.0], RateModel(), 600.0, seed=1),
        experiment.source_state,
        hv_setting,
        diagonal_setting,
    ], ids=["exact", "ghz_after_postselection", "monte_carlo_counts", "delay_scan",
            "source_state", "hv_setting", "diagonal_setting"])
    @pytest.mark.parametrize("apparatus", [None, "app", APP.pbs])
    def test_apparatus_must_be_an_apparatus(self, call, apparatus):
        # not a bare AttributeError for its missing fields
        with pytest.raises(StateError, match=re.escape(
                f"apparatus {apparatus!r} is not an Apparatus")):
            call(apparatus)

    def test_any_mapping_of_angles(self):
        angles = {"D1": 45.0, "D2": None, "D3": 30.0}
        assert (exact_outcome_probabilities(APP, MeasurementSetting(MappingProxyType(angles)))
                == exact_outcome_probabilities(APP, MeasurementSetting(angles)))

    @pytest.mark.parametrize("v0", [-0.1, 1.5, float("nan"), None, "x", True, np.array([0.79])])
    def test_visibility_outside_unit_interval_rejected(self, v0):
        with pytest.raises(StateError, match="visibility"):
            exact_outcome_probabilities(APP, diagonal_setting(APP), v0=v0)


def _random_call(rng, pbs_error: bool) -> tuple[MeasurementSetting, dict]:
    """A random setting and keyword arguments for `exact_outcome_probabilities`."""
    angles = [None if rng.random() < 0.2 else float(rng.uniform(0, 180)) for _ in range(4)]
    return MeasurementSetting(dict(zip(APP.detector_ids(), angles))), dict(
        delay=DelayElement(float(rng.uniform(-1200, 1200))),
        v0=float(rng.uniform(0, 1)),
        pbs_error=float(rng.uniform(1e-4, 0.05)) if pbs_error else None,
    )


def ref_exact_probabilities(setting, d, v0, pbs_error):
    """The exact probabilities on the default apparatus as one call computed
    them before the model was compiled: one stack of this call's components
    (only psi where d*v0 = 1), one product with the analyzers."""
    err = pbs_error or 0.0
    inputs = ["2", "3"] if err > 0 else []  # the PBS input modes
    vectors, weights, mass = [], [], 0.0
    for r in range(len(inputs) + 1):
        for flipped in itertools.combinations(inputs, r):
            (_, p_sel), psi, phi = experiment._compiled_pattern(APP, frozenset(flipped))
            w = err**r * (1 - err) ** (len(inputs) - r) * p_sel
            mass += w
            for w_branch, v in dephasing_components(psi, phi, d, v0):
                vectors.append(v)
                weights.append(w * w_branch)
    analyzers, labels = [], []
    for det in APP.detector_ids():
        ang = setting.angles.get(det)
        labels.append(MeasurementSetting.labels(ang))
        ang = 0.0 if ang is None else ang
        analyzers.append(analyzer_matrix(ang))
    operands = [x for i, a in enumerate(analyzers) for x in (a, (i, 4 + i))]
    kron = np.einsum(*operands, range(8)).reshape(16, 16)
    probs = np.asarray(weights) @ np.abs(np.stack(vectors) @ kron.T) ** 2
    keys = ("".join(combo) for combo in itertools.product(*labels))
    return {key: float(p) / mass for key, p in zip(keys, probs)}


class TestCompiledPatterns:
    """The post-selected vector of each routing pattern is computed once per
    apparatus and reused by every later exact call."""

    @pytest.fixture
    def chain_calls(self, monkeypatch):
        # the source state, built once per routing of a pattern that the memo
        # of `_compiled_pattern` fills
        calls = []
        source = experiment.source_state

        def counted(apparatus):
            calls.append(apparatus)
            return source(apparatus)

        monkeypatch.setattr(experiment, "source_state", counted)
        return calls

    @pytest.fixture
    def partner_calls(self, monkeypatch):
        calls = []
        partner = experiment.dephasing_partner

        def counted(psi):
            calls.append(psi)
            return partner(psi)

        monkeypatch.setattr(experiment, "dephasing_partner", counted)
        return calls

    @pytest.mark.parametrize("pbs_error, patterns", [(False, 1), (True, 4)])
    def test_chain_runs_once_per_pattern(self, chain_calls, partner_calls, pbs_error, patterns):
        # every pattern of the default apparatus has two branches, hence a partner
        app = default_apparatus()
        rng = np.random.default_rng(3)
        for _ in range(50):
            setting, kw = _random_call(rng, pbs_error)
            exact_outcome_probabilities(app, setting, **kw)
        assert len(chain_calls) == len(partner_calls) == len(app._compiled) == patterns
        monte_carlo_counts(app, hv_setting(app), RateModel(), 6000.0, 1)
        delay_scan(app, diagonal_setting(app), [-100.0, 0.0, 100.0], RateModel(), 10.0, 1)
        assert len(chain_calls) == len(partner_calls) == patterns

    def test_failed_pattern_is_remembered(self, chain_calls):
        app = Apparatus(APP.sources, APP.pbs, {"D1": "1", "D2": "2'", "D3": "3'", "D4": "x"})
        for _ in range(3):
            with pytest.raises(PostselectionError):
                exact_outcome_probabilities(app, hv_setting(app))
        assert len(chain_calls) == 1

    def test_reused_apparatus_matches_fresh_one_exactly(self):
        reused = default_apparatus()
        rng = np.random.default_rng(8)
        for i in range(60):
            setting, kw = _random_call(rng, pbs_error=i % 2 == 1)
            fresh = exact_outcome_probabilities(default_apparatus(), setting, **kw)
            assert exact_outcome_probabilities(reused, setting, **kw) == fresh

    @pytest.mark.parametrize("sources", [
        ((3, 4), ("3", "4"), (1, 2), ("1", "2")),  # listed in reverse
        ((4, 3), ("1", "2"), (2, 1), ("3", "4")),  # each pair's labels reversed
        ((3, 4), ("1", "2"), (1, 2), ("3", "4")),  # labels swapped between pairs
    ])
    def test_patterns_do_not_depend_on_how_sources_are_listed(self, sources):
        # a PBS error sums over the wrong-port patterns in PBS input order
        pa, ma, pb, mb = sources
        app = Apparatus((PairSource(pa, ma), PairSource(pb, mb)), APP.pbs, dict(APP.detectors))
        rng = np.random.default_rng(21)
        for _ in range(60):
            setting, kw = _random_call(rng, pbs_error=True)
            want = exact_outcome_probabilities(APP, setting, **kw)
            assert exact_outcome_probabilities(app, setting, **kw) == want

    def test_layouts_do_not_share_patterns(self, chain_calls):
        # D1 and D2 swapped: the same source and PBS, another mode order
        swapped = Apparatus(APP.sources, APP.pbs, {"D1": "2'", "D2": "1", "D3": "3'", "D4": "4"})
        app = default_apparatus()
        assert exact_outcome_probabilities(app, hv_setting(app))["HVVH"] == pytest.approx(0.5)
        probs = exact_outcome_probabilities(swapped, hv_setting(swapped))
        assert probs["VHVH"] == pytest.approx(0.5) and probs["HVVH"] == 0.0
        assert len(chain_calls) == 2
        fresh = Apparatus(APP.sources, APP.pbs, dict(swapped.detectors))
        assert exact_outcome_probabilities(fresh, hv_setting(fresh)) == probs

    def test_repeat_calls_return_the_identical_state(self, chain_calls):
        app = default_apparatus()
        first = ghz_after_postselection(app)
        assert ghz_after_postselection(app) is first
        exact_outcome_probabilities(app, hv_setting(app), pbs_error=0.01)
        assert ghz_after_postselection(app) is first
        # a flipped pattern is routed once too, and its entry is kept
        flipped = experiment._compiled_pattern(app, frozenset({"2"}))
        assert experiment._compiled_pattern(app, frozenset({"2"})) is flipped
        assert len(chain_calls) == 4
        (state, _), psi, _ = experiment._compiled_pattern(app, frozenset())
        assert state is first[0] and psi.tobytes() == state.dense(app.mode_order()).tobytes()

    def test_swapped_layouts_keep_their_own_entries(self):
        app = default_apparatus()
        swapped = Apparatus(APP.sources, APP.pbs, {"D1": "2'", "D2": "1", "D3": "3'", "D4": "4"})
        ours, theirs = ghz_after_postselection(app), ghz_after_postselection(swapped)
        assert ours[0] is not theirs[0] and ghz_after_postselection(swapped) is theirs
        psi = experiment._compiled_pattern(app, frozenset())[1]
        psi_swapped = experiment._compiled_pattern(swapped, frozenset())[1]
        assert not np.array_equal(psi, psi_swapped)
        assert psi_swapped.tobytes() == theirs[0].dense(swapped.mode_order()).tobytes()

    def test_failing_pattern_keeps_its_message(self, chain_calls):
        app = Apparatus(APP.sources, APP.pbs, {"D1": "1", "D2": "2'", "D3": "3'", "D4": "x"})
        message = "no amplitude with one photon in each of ['1', \"2'\", \"3'\", 'x']"
        for _ in range(2):
            with pytest.raises(PostselectionError) as info:
                ghz_after_postselection(app)
            assert str(info.value) == message
        assert experiment._compiled_pattern(app, frozenset()) is None
        assert len(chain_calls) == 1

    def test_swap_chain_on_a_memoised_state_matches_a_fresh_one(self):
        # d = v0 = 1 is the pure channel, which stacks psi alone
        app = default_apparatus()
        memoised, _ = ghz_after_postselection(app)
        rng = np.random.default_rng(17)
        draws = [(1.0, 1.0), (0.0, 0.0)] + [tuple(rng.uniform(0.0, 1.0, 2)) for _ in range(40)]
        for d, v0 in draws:
            fresh, _ = ghz_after_postselection(default_apparatus())
            chains = []
            for state in (fresh, memoised, fresh, memoised):
                rho = dephase_by_distinguishability(state, d, v0)
                res = phi_plus_via_45_coincidence(rho)
                pair = res.conditioned_state_14
                chains.append((
                    rho.matrix.tobytes(), pair.matrix.tobytes(), res.projection_probability,
                    res.fidelity_to_target, res.visibility_45, chsh_value(pair),
                ))
            assert chains[0] == chains[1] == chains[2] == chains[3], (d, v0)

    def test_compiled_vector_is_read_only(self):
        app = default_apparatus()
        exact_outcome_probabilities(app, hv_setting(app), pbs_error=0.01)
        assert len(app._compiled) == 4
        for _, psi, phi in app._compiled.values():  # ((state, p_sel), psi, phi)
            assert np.array_equal(phi, dephasing_partner(psi))
            for v in (psi, phi):
                with pytest.raises(ValueError):
                    v[0] = 1.0

    @pytest.mark.parametrize("pbs_error", [None, 0.0, 0.01])
    def test_special_angles_match_the_per_call_formula(self, pbs_error):
        # analyzer entries of exactly 0.0 and -1.0 make some products -0.0
        rng = np.random.default_rng(44)
        choices = [0.0, 22.5, 45.0, 67.5, 90.0, None]
        for _ in range(40):
            angles = [choices[i] for i in rng.integers(len(choices), size=4)]
            setting = MeasurementSetting(dict(zip(APP.detector_ids(), angles)))
            for tau, v0 in [(0.0, 1.0), (300.0, 0.79), (0.0, 0.5)]:
                delay = DelayElement(tau)
                want = ref_exact_probabilities(setting, distinguishability(delay), v0, pbs_error)
                got = exact_outcome_probabilities(
                    APP, setting, delay=delay, v0=v0, pbs_error=pbs_error
                )
                assert got == want and list(got) == list(want)

    def test_detectors_are_read_only(self):
        layout = {"D1": "1", "D2": "2'", "D3": "3'", "D4": "4"}
        app = Apparatus(APP.sources, APP.pbs, layout)
        with pytest.raises(TypeError):
            app.detectors["D4"] = "x"
        layout["D4"] = "x"  # the apparatus keeps its own copy
        assert app.detectors["D4"] == "4"
        assert dict(app.detectors) == dict(APP.detectors)

    def test_pickle_round_trip(self):
        app = default_apparatus(0.01)
        exact_outcome_probabilities(app, hv_setting(app))
        again = pickle.loads(pickle.dumps(app))
        assert again == app
        assert exact_outcome_probabilities(again, hv_setting(again)) == (
            exact_outcome_probabilities(app, hv_setting(app))
        )


class TestAnalyzerProductCache:
    """The exact model takes its outcome keys and rows |K v|^2, and with them
    the 16x16 analyzer product K, from one bounded module cache,
    `_outcome_rows`, keyed by the four angles in detector order, each as
    `check_angle` returns it, by the compiled pattern entries, which compare
    by identity, and by whether the channel is pure (d*v0 >= 1)."""

    @staticmethod
    def exact(**angles):
        return exact_outcome_probabilities(
            APP, MeasurementSetting(angles), delay=DelayElement(100.0), pbs_error=0.01
        )

    def test_cache_is_bounded_read_only_and_reused(self):
        cache = experiment._outcome_rows
        cache.cache_clear()
        angles, entries = (0.0, 45.0, None, 22.5), (experiment._compiled_pattern(APP, frozenset()),)
        keys, rows = cache(angles, entries, False)
        assert cache(angles, entries, False) is cache(angles, entries, False)
        assert cache.cache_info().maxsize is not None  # bounded
        # psi and its dephasing partner, or psi alone in the pure channel
        assert len(keys) == 16 and rows.shape == (2, 16)
        assert cache(angles, entries, True)[1].shape == (1, 16)
        with pytest.raises(ValueError):
            rows[0, 0] = 0
        # the exact path reads it: a repeated setting builds no product
        exact_outcome_probabilities(APP, hv_setting(APP))
        exact_outcome_probabilities(APP, hv_setting(APP))
        assert cache.cache_info().misses == 3

    @pytest.mark.parametrize("angle", [True, False, "1.0", np.array([1.0])],
                             ids=["True", "False", "'1.0'", "one-element array"])
    def test_cached_key_admits_no_lookalike(self, angle):
        # True == 1.0 and False == 0.0 hash alike, and float() parses "1.0"
        self.exact(D1=1.0)
        self.exact(D1=0.0)
        with pytest.raises(StateError, match="analyzer angle"):
            self.exact(D1=angle)

    @pytest.mark.parametrize("angle", [45, np.float32(45.0), np.array(45.0), Fraction(45)],
                             ids=["int", "np.float32", "0-d array", "Fraction"])
    def test_angle_types_share_the_float_key(self, angle):
        experiment._outcome_rows.cache_clear()
        probs = self.exact(D1=angle, D3=angle, D4=30.0)
        experiment._outcome_rows.cache_clear()
        assert list(probs.items()) == list(self.exact(D1=45.0, D3=45.0, D4=30.0).items())

    def test_negative_zero_matches_zero_in_either_cache_order(self):
        # -0.0 == 0.0 keys one entry, whose rows hold the signed zeros of
        # whichever came first; the probabilities must not depend on which
        runs = []
        for order in ((0.0, -0.0), (-0.0, 0.0)):
            experiment._outcome_rows.cache_clear()
            for zero in order:
                for probs in (self.exact(D1=zero, D2=zero, D3=zero, D4=zero),
                              self.exact(D1=zero, D2=45.0, D3=zero, D4=30.0)):
                    runs.append([(k, p.hex()) for k, p in probs.items()])
        assert all(run == runs[i % 2] for i, run in enumerate(runs))

    def test_seed_ensemble_on_one_apparatus_misses_once(self):
        app = default_apparatus()
        setting, rates = hv_setting(app), RateModel()
        experiment._outcome_rows.cache_clear()
        for seed in range(1000):
            monte_carlo_counts(app, setting, rates, 6000.0, seed)
        info = experiment._outcome_rows.cache_info()
        assert (info.misses, info.hits) == (1, 999)

    def test_equal_apparatus_keep_their_own_entries_and_equal_tables(self):
        # entries compare by identity: an equal apparatus is no hit, and no
        # array or apparatus is compared by value
        a, b = default_apparatus(0.01), default_apparatus(0.01)
        assert a == b and a is not b
        experiment._outcome_rows.cache_clear()
        setting = MeasurementSetting({"D1": 22.5, "D2": 45.0, "D4": 0.0})
        table_a = exact_outcome_probabilities(a, setting, pbs_error=0.01)
        table_b = exact_outcome_probabilities(b, setting, pbs_error=0.01)
        assert table_a == table_b and list(table_a) == list(table_b)
        assert experiment._outcome_rows.cache_info().currsize == 2
        assert monte_carlo_counts(a, setting, RateModel(), 6000.0, 3) == (
            monte_carlo_counts(b, setting, RateModel(), 6000.0, 3))

    def test_fresh_apparatus_do_not_grow_the_cache(self):
        experiment._outcome_rows.cache_clear()
        for _ in range(200):
            app = default_apparatus()
            exact_outcome_probabilities(app, hv_setting(app))
        info = experiment._outcome_rows.cache_info()
        assert info.misses == 200 and info.currsize <= info.maxsize

    @pytest.mark.parametrize("pbs_error", [None, 0.01])
    @pytest.mark.parametrize("order", [(1.0, 0.79, 1.0), (0.79, 1.0, 0.79)],
                             ids=["pure first", "dephased first"])
    def test_pure_and_dephased_rows_kept_apart(self, order, pbs_error):
        # d*v0 = 1 stacks only psi, d*v0 < 1 psi and phi, on one setting
        setting = MeasurementSetting({"D1": 45.0, "D2": 45.0, "D3": 22.5, "D4": 45.0})
        experiment._outcome_rows.cache_clear()
        for v0 in order:
            want = ref_exact_probabilities(setting, 1.0, v0, pbs_error)
            got = exact_outcome_probabilities(
                APP, setting, delay=DelayElement(0.0), v0=v0, pbs_error=pbs_error)
            assert got == want and list(got) == list(want)
        assert experiment._outcome_rows.cache_info().misses == 2


class TestApparatusShape:
    @pytest.mark.parametrize("build", [
        lambda: PairSource((1,), ("1", "2")),
        lambda: PairSource((1, 2, 5), ("1", "2")),
        lambda: PairSource((1, 1), ("1", "2")),
        lambda: PairSource((1, "x"), ("1", "2")),
        lambda: PairSource((True, 2), ("1", "2")),
        lambda: PairSource((1, 2), (1, "2")),
        lambda: PairSource((1, 2), ("1",)),
        lambda: PbsElement(("2",), ("2'", "3'")),
        lambda: PbsElement(("2", "2"), ("2'", "3'")),
        lambda: PbsElement((2, 3), ("2'", "3'")),
        lambda: PbsElement(("2", "3"), ("2'", "2'")),
        lambda: PbsElement(("2", "3"), ("2'", "3'", "4'")),
        # an error rate or a count rate that is no number, a bool included
        lambda: PbsElement(("2", "3"), ("2'", "3'"), error_rate="x"),
        lambda: PbsElement(("2", "3"), ("2'", "3'"), error_rate=None),
        lambda: PbsElement(("2", "3"), ("2'", "3'"), error_rate=True),
        lambda: PbsElement(("2", "3"), ("2'", "3'"), error_rate=False),
        lambda: RateModel("x"),
        lambda: RateModel(None),
        lambda: RateModel(True),
        lambda: RateModel(background_fourfold_rate="x"),
        lambda: RateModel(background_fourfold_rate=None),
        lambda: RateModel(background_fourfold_rate=False),
        lambda: Apparatus(APP.sources, APP.pbs, {"D1": "1"}),
        lambda: Apparatus(APP.sources, APP.pbs, {"D1": 1, "D2": "2'", "D3": "3'", "D4": "4"}),
        lambda: Apparatus(APP.sources, APP.pbs, {**APP.detectors, "D5": "5"}),
        # source layouts that do not put one photon into each PBS input
        lambda: Apparatus((PairSource((1, 2), ("1", "2")),), APP.pbs, APP.detectors),
        lambda: Apparatus(
            (PairSource((1, 2), ("2", "2")), APP.sources[1]), APP.pbs, APP.detectors
        ),
        lambda: Apparatus(
            (APP.sources[0], PairSource((2, 4), ("3", "4"))), APP.pbs, APP.detectors
        ),
        lambda: Apparatus((), APP.pbs, APP.detectors),
        # both PBS inputs fed by one pair, with an ideal and an imperfect PBS
        lambda: Apparatus(
            (PairSource((1, 2), ("2", "3")), PairSource((3, 4), ("1", "4"))),
            APP.pbs, APP.detectors,
        ),
        lambda: Apparatus(
            (PairSource((1, 2), ("2", "3")), PairSource((3, 4), ("1", "4"))),
            PbsElement(("2", "3"), ("2'", "3'"), error_rate=0.01), APP.detectors,
        ),
    ], ids=[
        "one-photon-source", "three-photon-source", "same-photon-twice", "string-photon",
        "bool-photon",
        "int-source-mode", "one-source-mode", "one-pbs-input", "same-pbs-input",
        "int-pbs-inputs", "same-pbs-output", "three-pbs-outputs",
        "string-pbs-error", "none-pbs-error", "true-pbs-error", "false-pbs-error",
        "string-rate", "none-rate", "true-rate", "string-background", "none-background",
        "false-background", "one-detector",
        "int-detector-mode", "five-detectors", "one-source", "same-modes-in-pair",
        "photon-in-two-sources", "no-sources", "one-pair-in-both-pbs-inputs",
        "one-pair-in-both-pbs-inputs-pbs-error",
    ])
    def test_malformed_shape_rejected(self, build):
        with pytest.raises(StateError):
            build()


class TestMonteCarlo:
    def test_deterministic_for_seed(self):
        rates = RateModel()
        a = monte_carlo_counts(APP, hv_setting(APP), rates, 6000.0, seed=42)
        b = monte_carlo_counts(APP, hv_setting(APP), rates, 6000.0, seed=42)
        assert a.counts == b.counts

    def test_zero_time_gives_zero_counts(self):
        t = monte_carlo_counts(APP, hv_setting(APP), RateModel(), 0.0, seed=1)
        assert sum(t.counts.values()) == 0

    def test_background_mean_half_count_per_6000s(self):
        rates = RateModel()
        vals = []
        for seed in range(400):
            t = monte_carlo_counts(APP, hv_setting(APP), rates, 6000.0, seed=seed)
            vals += [c for k, c in t.counts.items() if k not in ("HVVH", "VHHV")]
        mean = np.mean(vals)
        sem = np.std(vals) / math.sqrt(len(vals))
        assert abs(mean - 0.5) < 4 * sem + 1e-9

    def test_snr_about_200(self):
        rates = RateModel()
        des, bg = [], []
        for seed in range(300):
            t = monte_carlo_counts(APP, hv_setting(APP), rates, 6000.0, seed=seed)
            des += [t.counts["HVVH"], t.counts["VHHV"]]
            bg += [c for k, c in t.counts.items() if k not in ("HVVH", "VHHV")]
        snr = np.mean(des) / np.mean(bg)
        assert 170 < snr < 230

    def test_chi_square_consistency_over_100_seeds(self):
        # empirical frequencies vs exact probabilities at 1e6 expected events
        probs = exact_outcome_probabilities(APP, diagonal_setting(APP), v0=0.79)
        rates = RateModel(
            fourfold_rate_desired=1.0, background_fourfold_rate=0.0
        )
        lam = {k: p * 1e6 for k, p in probs.items()}
        passes = 0
        for seed in range(100):
            t = monte_carlo_counts(
                APP, diagonal_setting(APP), rates, 1e6, seed=seed, v0=0.79
            )
            chi2 = sum(
                (t.counts[k] - lam[k]) ** 2 / lam[k] for k in lam if lam[k] > 0
            )
            pval = stats.chi2.sf(chi2, df=16)
            if pval > 0.001:
                passes += 1
        assert passes >= 99

    def test_chi_square_consistency_away_from_defaults(self):
        """Counts drawn from the exact table at 20 random configurations
        (angles, None included; delay, v0, PBS error, both rates), 200 seeds
        each, no seed used twice. Per configuration the sum of the 200 Pearson
        statistics is chi^2 with 200 x 16 degrees of freedom; it must not
        exceed its upper 1e-4 quantile (family-wise level 2e-3 over the 20).
        Every expected count is at least 20, so the chi^2 law holds closely."""
        alpha = 1e-4
        rng = np.random.default_rng(2027)
        for case in range(20):
            seeds = range(200 * case, 200 * (case + 1))
            angles = [None if rng.random() < 0.15 else float(rng.uniform(0, 180))
                      for _ in range(4)]
            setting = MeasurementSetting(dict(zip(APP.detector_ids(), angles)))
            err = 0.0 if rng.random() < 0.3 else float(rng.uniform(1e-4, 0.2))
            d = distinguishability(DelayElement(float(rng.uniform(-1500, 1500))))
            v0 = float(rng.uniform(0, 1))
            rates = RateModel(
                fourfold_rate_desired=float(rng.uniform(0.1, 10.0)),
                background_fourfold_rate=float(rng.uniform(1e-4, 1e-2)),
            )
            probs = dict(experiment._evaluate(
                experiment._exact_model(default_apparatus(err), setting, err), d, v0))
            cell_rates = (np.array(list(probs.values())) * rates.fourfold_rate_desired
                          + rates.background_fourfold_rate)
            time = max(20.0 / cell_rates.min(), 1e5 / cell_rates.sum())
            lam = cell_rates * time
            counts = np.array([list(draw_counts(probs, rates, time, s).counts.values())
                               for s in seeds])
            chi2 = float(np.sum((counts - lam) ** 2 / lam))
            p_value = stats.chi2.sf(chi2, df=len(seeds) * len(lam))
            assert p_value > alpha, (angles, err, d, v0, rates)


    @pytest.mark.parametrize("fields", [
        {"fourfold_rate_desired": 10**400},
        {"background_fourfold_rate": 10**400},
    ], ids=["int-beyond-float", "background-int-beyond-float"])
    def test_overflowing_derived_rate_rejected(self, fields):
        # the draw multiplies the rates: they must be finite floats
        [name] = fields
        with pytest.raises(StateError, match=f"rate {name} 1000+ is not a finite nonnegative"):
            RateModel(**fields)

    @pytest.mark.parametrize("name", ["fourfold_rate_desired", "background_fourfold_rate"])
    @pytest.mark.parametrize("rate", [
        -1.0, -1e-300, math.nan, math.inf, "0.5", None, True, np.array([0.5])])
    def test_bad_rate_named(self, name, rate):
        with pytest.raises(StateError, match=re.escape(
            f"rate {name} {rate!r} is not a finite nonnegative number"
        )):
            RateModel(**{name: rate})

    def test_derived_rate_at_float_max_accepted(self):
        assert RateModel(fourfold_rate_desired=1e308).fourfold_rate_desired == 1e308

    @pytest.mark.parametrize("count", [
        lambda t: monte_carlo_counts(APP, hv_setting(APP), RateModel(), t, seed=1),
        lambda t: delay_scan(APP, diagonal_setting(APP), [0.0, 100.0], RateModel(), t, seed=1),
        lambda t: draw_counts({"HVVH": 0.5, "VHHV": 0.5}, RateModel(), t, seed=1),
    ], ids=["monte_carlo_counts", "delay_scan", "draw_counts"])
    @pytest.mark.parametrize("time", [
        -1.0, math.nan, math.inf, pytest.param(10**400, id="10**400"), None, "x", True,
        np.array([1.0])])
    def test_bad_integration_time_rejected(self, count, time):
        # not a silent all-zero table
        with pytest.raises(StateError, match="integration time"):
            count(time)

    @pytest.mark.parametrize("p", [math.nan, -0.5])
    def test_nan_or_negative_probability_rejected(self, p):
        # not a silent zero count, nor one drawn from the real part
        with pytest.raises(StateError, match="outcome VHHV: expected count"):
            draw_counts({"HVVH": 0.5, "VHHV": p}, RateModel(), 1.0, 1)

    def test_integer_expected_count_beyond_float_range_rejected(self):
        # an exact int of 601 digits: not a bare OverflowError from numpy or from `.3g`
        with pytest.raises(StateError, match=re.escape(
            f"outcome H: expected count {10**600} cannot be drawn"
        )):
            draw_counts({"H": 1}, RateModel(10**300, 0), 10**300, 1)

    @pytest.mark.parametrize("p", [
        None, "0.5", Decimal("0.5"), pytest.param(10**400, id="10**400"), np.array([0.5]),
        True, False, 1j, np.complex128(0.5), np.complex64(0.5),
    ])
    def test_probability_that_is_no_number_rejected(self, p):
        # not a bare TypeError or OverflowError, nor a count drawn from a real part
        with pytest.raises(StateError, match=re.escape(
            f"outcome VHHV: probability {p!r} is not a real number"
        )):
            draw_counts({"HVVH": 0.5, "VHHV": p}, RateModel(), 1.0, 1)

    @pytest.mark.parametrize("count", [
        lambda r: monte_carlo_counts(APP, hv_setting(APP), r, 10.0, seed=1),
        lambda r: delay_scan(APP, diagonal_setting(APP), [0.0], r, 10.0, seed=1),
        lambda r: draw_counts({"HVVH": 0.5, "VHHV": 0.5}, r, 10.0, seed=1),
    ], ids=["monte_carlo_counts", "delay_scan", "draw_counts"])
    @pytest.mark.parametrize("rates", [None, {"fourfold_rate_desired": 1.0}])
    def test_rates_must_be_a_rate_model(self, count, rates):
        with pytest.raises(StateError, match=re.escape(f"rates {rates!r} is not a RateModel")):
            count(rates)

    @pytest.mark.parametrize("count", [
        lambda s: monte_carlo_counts(APP, hv_setting(APP), RateModel(), 10.0, seed=s),
        lambda s: delay_scan(APP, diagonal_setting(APP), [0.0, 100.0], RateModel(), 10.0, seed=s),
        lambda s: draw_counts({"HVVH": 0.5, "VHHV": 0.5}, RateModel(), 10.0, seed=s),
        lambda s: experiment.derive_point_seed(s, 0),
    ], ids=["monte_carlo_counts", "delay_scan", "draw_counts", "derive_point_seed"])
    def test_negative_seed_rejected(self, count):
        # a StateError of ours, not numpy's bare ValueError
        with pytest.raises(StateError, match="seed -1 must be nonnegative"):
            count(-1)
        count(0)

    @pytest.mark.parametrize("call, message", [
        (lambda: experiment.derive_point_seed(1, -1), "point index -1 must be nonnegative"),
        (lambda: experiment.derive_point_seed(1, 0.0), "point index 0.0 must be an integer"),
        (lambda: experiment.derive_point_seed(1.5, 0), "seed 1.5 must be an integer"),
        (lambda: experiment.derive_point_seed(True, 0), "seed True must be an integer"),
        (lambda: draw_counts({"HVVH": 1.0}, RateModel(), 1.0, 1.5), "seed 1.5 must be an integer"),
        (lambda: draw_counts({"HVVH": 1.0}, RateModel(), 1.0, False), "seed False must be an integer"),
        (lambda: monte_carlo_counts(APP, hv_setting(APP), RateModel(), 1.0, "1"),
         "seed '1' must be an integer"),
    ])
    def test_malformed_seed_or_point_index_rejected(self, call, message):
        # a StateError naming the value, not numpy's bare TypeError or ValueError
        with pytest.raises(StateError, match=re.escape(message)):
            call()

    def test_numpy_integer_seeds_draw_the_same_stream(self):
        probs = exact_outcome_probabilities(APP, diagonal_setting(APP))
        for seed in np.random.default_rng(6).integers(0, 2**32, 5, dtype=np.uint32):
            point_seed = experiment.derive_point_seed(seed, np.int64(3))
            assert point_seed == experiment.derive_point_seed(int(seed), 3)
            assert draw_counts(probs, RateModel(), 6000.0, seed).counts == (
                draw_counts(probs, RateModel(), 6000.0, int(seed)).counts
            )


class TestScanSeeding:
    """delay_scan seeds all its point streams in one pass; each must be numpy's
    own `default_rng(derive_point_seed(seed, i))`, state and draws."""

    LAMS = [0.5, 3.0, 100.5, 0.5, 3.0, 100.5]

    def assert_numpy_streams(self, seed, n):
        points = 0
        # one generator, set to each point's state in turn: check it before the next
        for i, rng in enumerate(experiment._point_streams(seed, n)):
            ref = np.random.PCG64(experiment.derive_point_seed(seed, i))
            assert rng.bit_generator.state == ref.state, (seed, n, i)
            want = np.random.Generator(ref)
            assert [rng.poisson(lam) for lam in self.LAMS] == [
                want.poisson(lam) for lam in self.LAMS]
            points += 1
        assert points == n

    # 2**96 has five entropy words with the point index: one beyond numpy's pool
    @pytest.mark.parametrize("seed", [
        0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96, 10**30,
        pytest.param(10**5000, id="10**5000"),
        pytest.param(np.uint64(2**64 - 1), id="np.uint64(2**64-1)"),
        pytest.param(np.int64(7), id="np.int64(7)"),
    ])
    @pytest.mark.parametrize("n", [1, 2, 5, 25, 100])
    def test_fixed_seed(self, seed, n):
        self.assert_numpy_streams(seed, n)

    def test_random_seeds(self):
        rng = np.random.default_rng(35)
        for k in range(200):
            bits = int(rng.integers(8, 129))
            seed = int.from_bytes(rng.bytes(16), "little") >> (128 - bits)
            self.assert_numpy_streams(seed, [1, 2, 5, 25, 100][k % 5])


class TestDelayScan:
    @pytest.mark.parametrize("tau", [math.nan, math.inf, None, "x", np.array([100.0])])
    def test_delay_that_is_no_finite_number_rejected(self, tau):
        with pytest.raises(StateError, match="delay .* fs is not finite"):
            delay_scan(APP, diagonal_setting(APP), [0.0, tau], RateModel(), 1.0, seed=1)

    @pytest.mark.parametrize("pbs_error", [0.0, 0.01])
    @pytest.mark.parametrize("v0", [0.79, 1.0, 1, Fraction(79, 100), np.float32(0.79),
                                    np.float64(1.0)],
                             ids=["0.79", "1.0", "1", "Fraction", "np.float32", "np.float64"])
    @pytest.mark.parametrize("rates, time", [
        (RateModel(), 24000.0),
        (RateModel(1, 0), 24000),
        (RateModel(Fraction(1, 30), Fraction(1, 12000)), np.float32(24000.0)),
        (RateModel(np.float32(1 / 30), np.float32(1 / 12000)), Fraction(24000)),
    ], ids=["float", "int", "Fraction-np.float32 time", "np.float32-Fraction time"])
    def test_scan_matches_per_point_tables(self, pbs_error, v0, rates, time):
        # tau = 0 at d*v0 = 1 is the pure point: its rows come from another stack
        app = default_apparatus(pbs_error)
        setting = diagonal_setting(app)
        delays = [-300.0, 0.0, 137.5, 2000.0, 0.0]
        for seed in (9, 2**96, 10**30):  # one to four seed words
            scan = delay_scan(app, setting, delays, rates, time, seed=seed, v0=v0)
            assert [tau for tau, _ in scan] == delays
            for i, (tau, table) in enumerate(scan):
                assert table == monte_carlo_counts(
                    app, setting, rates, time, experiment.derive_point_seed(seed, i),
                    delay=DelayElement(tau), v0=v0,
                )

    @pytest.mark.parametrize("pbs_error", [None, 0.0, 0.01])
    def test_compiled_model_matches_the_per_call_formula(self, pbs_error):
        rng = np.random.default_rng(12)
        for _ in range(10):
            setting, _ = _random_call(rng, pbs_error=False)
            model = experiment._exact_model(APP, setting, pbs_error)
            # pure and dephased points in both orders, each row stack built once
            for tau, v0 in [(0.0, 1.0), (250.0, 0.79), (0.0, 1.0), (-1e4, 1.0), (0.0, 0.3)]:
                d = distinguishability(DelayElement(tau))
                want = ref_exact_probabilities(setting, d, v0, pbs_error)
                assert dict(experiment._evaluate(model, d, v0)) == want
                assert exact_outcome_probabilities(
                    APP, setting, delay=DelayElement(tau), v0=v0, pbs_error=pbs_error
                ) == want

    @pytest.mark.parametrize("n", [1, 2, 25, 100])
    @pytest.mark.parametrize("pbs_error, pure, k", [
        (None, True, 1), (None, False, 2), (0.01, True, 4), (0.01, False, 8),
    ], ids=["k=1", "k=2", "k=4", "k=8"])
    def test_stacked_product_matches_each_rows_product(self, pbs_error, pure, k, n):
        # what a scan's stacked product rests on: numpy's (n, 1, k) @ (k, 16)
        # runs the gemv of each 1-D (k,) @ (k, 16), bit for bit; an (n, k) @ (k, 16)
        # gemm rounds otherwise
        rng = np.random.default_rng(38)
        for _ in range(5):
            setting, _ = _random_call(rng, pbs_error=False)
            _, _, angle_key, entry_key = experiment._exact_model(APP, setting, pbs_error)
            _, rows = experiment._outcome_rows(angle_key, entry_key, pure)
            assert rows.shape == (k, 16)
            ws = [rng.random(k).tolist() for _ in range(n)]
            stacked = np.array(ws)[:, None] @ rows
            assert [row.tobytes() for (row,) in stacked] == [
                (np.asarray(w) @ rows).tobytes() for w in ws]

    @pytest.mark.parametrize("pbs_error", [None, 0.01])
    @pytest.mark.parametrize("n", [1, 2, 25, 100])
    def test_stacked_model_matches_each_call(self, pbs_error, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            setting, _ = _random_call(rng, pbs_error=False)
            model = experiment._exact_model(APP, setting, pbs_error)
            # about one point in four pure (d*v0 = 1), amid dephased ones
            ds = [1.0 if rng.random() < 0.25 else float(rng.uniform(0, 1)) for _ in range(n)]
            v0 = 1.0 if rng.random() < 0.8 else 0.79
            want = [[(key, p.hex()) for key, p in experiment._evaluate(model, d, v0)]
                    for d in ds]
            got = experiment._evaluate_stacked(model, [experiment._weigh(model, d, v0)
                                                       for d in ds])
            assert [[(key, p.hex()) for key, p in pairs] for pairs in got] == want

    @pytest.mark.parametrize("delays", [None, 5, 1.5, np.array(0.0), object()],
                             ids=["None", "5", "1.5", "0-d array", "object()"])
    def test_delays_that_are_not_iterable_rejected(self, delays):
        # not a bare TypeError from the loop over them
        with pytest.raises(StateError, match=re.escape(
                f"delays {delays!r} are not an iterable of delays in fs")):
            delay_scan(APP, diagonal_setting(APP), delays, RateModel(), 1.0, seed=1)

    def test_empty_scan_does_no_work(self, monkeypatch):
        monkeypatch.setattr(experiment, "_exact_model", None)
        assert delay_scan(APP, diagonal_setting(APP), [], RateModel(), -1.0, seed=1) == []

    def test_empty_scan_checks_no_seed(self):
        assert delay_scan(APP, diagonal_setting(APP), [], RateModel(), 1.0, seed=-1) == []

    @pytest.mark.parametrize("args, message", [
        ({"delays": [math.nan], "seed": -1}, "seed -1 must be nonnegative"),
        ({"delays": [math.nan], "seed": 1.5}, "seed 1.5 must be an integer"),
        ({"setting": "x", "rates": None}, "setting 'x' is not a MeasurementSetting"),
        ({"setting": MeasurementSetting({"D1": 400.0}), "rates": None}, "analyzer angle"),
        ({"v0": 2.0, "rates": None}, "zero-delay visibility 2.0 outside [0, 1]"),
        ({"delays": [0.0, 1.0, 2.0, math.nan], "rates": None}, "rates None is not a RateModel"),
        ({"delays": [math.nan, 1.0], "time": -1.0}, "delay nan fs is not finite"),
        ({"delays": [0.0, math.nan], "time": -1.0}, "integration time -1.0 s"),
        # numpy draws no expected count above about 9.2e18: at rate * time 1e20, the
        # 5000 fs point's 0.0625 * 1e20 is drawn, the next point's 0.111875 * 1e20 is not
        ({"delays": [0.0, math.nan], "rates": RateModel(1e15, 0), "time": 1e6},
         "outcome ++++: expected count 1.12e+20 cannot be drawn"),
        ({"delays": [5000.0, 0.0, math.nan], "rates": RateModel(1e14, 0), "time": 1e6},
         "outcome ++++: expected count 1.12e+19 cannot be drawn"),
    ], ids=["seed<delay", "seed type<delay", "setting<rates", "angle<rates", "v0<rates",
            "rates<later delay", "first delay<time", "time<later delay", "draw<later delay",
            "later draw<later delay"])
    def test_first_failing_check_reported(self, args, message):
        # the order of a per-point loop: the seed, then per point its delay; at the
        # first point, after its delay, the time, the model, v0 and the rates; each
        # point's draw before the next point's delay
        call = {"setting": diagonal_setting(APP), "delays": [0.0, 100.0], "rates": RateModel(),
                "time": 1.0, "seed": 1, "v0": 0.79, **args}
        with pytest.raises(StateError, match=re.escape(message)):
            delay_scan(APP, call["setting"], call["delays"], call["rates"], call["time"],
                       call["seed"], v0=call["v0"])

    def test_beyond_float_coherence_time_rejected(self):
        # not an OverflowError from the delay / coherence time division
        with pytest.raises(StateError, match="coherence time"):
            delay_scan(APP, diagonal_setting(APP), [0.0], RateModel(), 1.0, seed=1,
                       coherence_time_fs=10**400)

    def test_coherence_time_whose_float_is_zero_rejected(self):
        # not a ZeroDivisionError from the delay / coherence time division
        with pytest.raises(StateError, match="coherence time"):
            delay_scan(APP, diagonal_setting(APP), [100.0], RateModel(), 1.0, seed=1,
                       coherence_time_fs=Fraction(1, 10**400))

    @pytest.mark.parametrize("delay, coherence", [
        pytest.param(10**300, Fraction(1, 3), id="10**300-Fraction(1, 3)"),
        pytest.param(np.float64(1e200), 550.0, id="np.float64(1e200)-550.0"),
    ])
    def test_ratio_beyond_float_range_scans_as_zero_overlap(self, delay, coherence):
        # D is 0.0, as at the float delay 1e200: no OverflowError and no warning
        setting = diagonal_setting(APP)
        scan = delay_scan(APP, setting, [delay], RateModel(), 6000.0, seed=1,
                          coherence_time_fs=coherence)
        expected = delay_scan(APP, setting, [1e200], RateModel(), 6000.0, seed=1)
        assert [t.counts for _, t in scan] == [t.counts for _, t in expected]
        assert scan[0][0] is delay

    def test_integration_time_checked_before_postselection(self):
        app = Apparatus(APP.sources, APP.pbs, {"D1": "1", "D2": "2'", "D3": "3'", "D4": "x"})
        for count in (
            lambda t: monte_carlo_counts(app, hv_setting(app), RateModel(), t, seed=1),
            lambda t: delay_scan(app, hv_setting(app), [0.0], RateModel(), t, seed=1),
        ):
            with pytest.raises(StateError, match="integration time"):
                count(-1.0)
            with pytest.raises(PostselectionError):
                count(1.0)

    def test_visibility_peaks_at_zero_delay(self):
        rates = RateModel()
        delays = [-1100.0, -550.0, 0.0, 550.0, 1100.0]
        points = delay_scan(
            APP, diagonal_setting(APP), delays, rates, 24000.0, seed=8
        )
        vis = []
        for tau, t in points:
            ne, no = t.counts["++++"], t.counts["+++-"]
            vis.append((ne - no) / (ne + no))
        assert max(vis) == vis[2]
        assert vis[2] > 0.6

    def test_exact_expectations_even_in_delay(self):
        for tau in (137.0, 420.0, 999.0):
            p_plus = exact_outcome_probabilities(
                APP, diagonal_setting(APP), delay=DelayElement(tau), v0=0.79
            )
            p_minus = exact_outcome_probabilities(
                APP, diagonal_setting(APP), delay=DelayElement(-tau), v0=0.79
            )
            assert p_plus == p_minus

    def test_large_delay_kills_interference(self):
        tau = 4 * 550.0
        probs = exact_outcome_probabilities(
            APP, diagonal_setting(APP), delay=DelayElement(tau), v0=0.79
        )
        vis = (probs["++++"] - probs["+++-"]) / (probs["++++"] + probs["+++-"])
        assert abs(vis) < 1e-5

    def test_deterministic_per_point_streams(self):
        rates = RateModel()
        a = delay_scan(APP, diagonal_setting(APP), [0.0, 100.0], rates, 600.0, seed=4)
        b = delay_scan(APP, diagonal_setting(APP), [0.0, 100.0], rates, 600.0, seed=4)
        assert [t.counts for _, t in a] == [t.counts for _, t in b]


class TestThreePhotonGhz:
    def test_45_polarizer_gives_three_photon_ghz(self):
        state, prob = three_photon_ghz(APP, "2'", 45.0)
        assert prob == pytest.approx(0.5, abs=1e-12)
        view = state.mode_view(["1", "3'", "4"])
        assert view[("H", "V", "H")] == pytest.approx(S2, abs=1e-12)
        assert view[("V", "H", "V")] == pytest.approx(S2, abs=1e-12)

    def test_against_brute_force_projection_oracle(self):
        state, prob = three_photon_ghz(APP, "2'", 45.0)
        # oracle: dense GHZ vector, project mode 2' (position 1) onto +45
        psi = oracle.dense_from_terms({"HVVH": S2, "VHHV": S2}, 4)
        plus = oracle.analyzer_ket(45.0, "pass")
        bra = np.kron(np.kron(np.eye(2), plus.conj()), np.eye(4))
        reduced = bra @ psi
        assert prob == pytest.approx(float(np.linalg.norm(reduced) ** 2), abs=1e-12)
        reduced /= np.linalg.norm(reduced)
        assert np.max(np.abs(state.dense(["1", "3'", "4"]) - reduced)) < 1e-12

    def test_hv_conditioning_kills_superposition(self):
        state, prob = three_photon_ghz(APP, "2'", 0.0)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert len(state.amps) == 1
        state90, prob90 = three_photon_ghz(APP, "2'", 90.0)
        assert prob90 == pytest.approx(0.5, abs=1e-12)
        assert len(state90.amps) == 1
        assert state.amps.keys() != state90.amps.keys()

    @pytest.mark.parametrize("mode, photons", [
        ("1", (2, 3, 4)), ("2'", (1, 3, 4)), ("3'", (1, 2, 4)), ("4", (1, 2, 3)),
    ])
    def test_remaining_photons(self, mode, photons):
        # the photon that the last ket puts in the polarizer's mode is dropped
        state, _ = three_photon_ghz(APP, mode, 45.0)
        assert state.photons == photons

    def test_unwatched_mode_rejected(self):
        # "2" is a PBS input: no detector watches it
        with pytest.raises(StateError, match="no detector"):
            three_photon_ghz(APP, "2", 45.0)


class TestAnalyzerAngleRange:
    """Every analyzer angle passes `states.check_angle` before an analyzer is
    built or a cache is keyed; it takes only finite numbers in [0, 180): a
    string is none, though float() would parse it, and neither is a complex
    number, a bool or an array that is not 0-d."""

    RHO_14 = mix([(1.0, bell_state("phi+", 1, 4))])
    ENTRY_POINTS = {
        "exact": lambda a: exact_outcome_probabilities(
            APP, MeasurementSetting({"D1": 45.0, "D2": a, "D3": 45.0, "D4": 45.0})
        ),
        "three_photon_ghz": lambda a: three_photon_ghz(APP, "2'", a),
        "chsh_value": lambda a: chsh_value(TestAnalyzerAngleRange.RHO_14, ((0.0, a), (22.5, 67.5))),
        "chsh_value_b": lambda a: chsh_value(
            TestAnalyzerAngleRange.RHO_14, ((0.0, 45.0), (22.5, a))
        ),
        "analyzer_matrix": analyzer_matrix,
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "angle", [math.nan, math.inf, -30.0, 180.0, 200.0, "22.5", 1j, 22.5 + 0j, True,
                  np.array([22.5]), np.array([22.5, 45.0])]
    )
    def test_out_of_range_angle_rejected(self, entry, angle):
        with pytest.raises(StateError, match="analyzer angle"):
            self.ENTRY_POINTS[entry](angle)

    # a None setting angle is analysed at 0 degrees; anywhere else it is no angle
    @pytest.mark.parametrize("entry", sorted(set(ENTRY_POINTS) - {"exact"}))
    def test_none_angle_rejected(self, entry):
        with pytest.raises(StateError, match="analyzer angle"):
            self.ENTRY_POINTS[entry](None)


class TestFeasibility:
    def test_zero_target(self):
        assert feasibility_estimate(0, RateModel()) == 0.0

    @pytest.mark.parametrize("target", [
        -1, math.nan, None, "x", pytest.param(10**400, id="10**400"), True, np.array([5])])
    def test_negative_or_nan_target_rejected(self, target):
        with pytest.raises(StateError, match="target event count"):
            feasibility_estimate(target, RateModel())

    def test_linear_in_rate(self):
        r1 = RateModel()
        r2 = RateModel(fourfold_rate_desired=2 * r1.fourfold_rate_desired)
        assert feasibility_estimate(1000, r1) == pytest.approx(
            2 * feasibility_estimate(1000, r2)
        )

    def test_zero_rate_infinite(self):
        r = RateModel(fourfold_rate_desired=0.0)
        assert feasibility_estimate(10, r) == math.inf

    def test_default_bell_test_exceeds_six_months(self):
        # phi+ identification succeeds on half of the four-fold events
        seconds = feasibility_estimate(600000, RateModel()) / 0.5
        assert seconds > 1.58e7
