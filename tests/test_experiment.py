import itertools
import math
import pickle
import re

import numpy as np
import pytest
from scipy import stats

from fourphoton import experiment
from fourphoton.elements import dephasing_components, dephasing_partner
from fourphoton.states import analyzer_matrix
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
    correlation,
    default_apparatus,
    delay_scan,
    diagonal_setting,
    distinguishability,
    draw_counts,
    exact_outcome_probabilities,
    feasibility_estimate,
    ghz_after_postselection,
    hv_setting,
    mix,
    monte_carlo_counts,
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

    @pytest.mark.parametrize("err", [1.5, 2.0, -0.5, math.nan, math.inf])
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

    @pytest.mark.parametrize("v0", [-0.1, 1.5, float("nan")])
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
    photons = [2, 3] if err > 0 else []  # the photons in PBS inputs "2" and "3"
    vectors, weights, mass = [], [], 0.0
    for r in range(len(photons) + 1):
        for flipped in itertools.combinations(photons, r):
            p_sel, psi, phi = experiment._compiled_pattern(APP, frozenset(flipped))
            w = err**r * (1 - err) ** (len(photons) - r) * p_sel
            mass += w
            for w_branch, v in dephasing_components(psi, phi, d, v0):
                vectors.append(v)
                weights.append(w * w_branch)
    analyzers, labels = [], []
    for det in APP.detector_ids():
        ang = setting.angle(det)
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
        calls = []
        chain = experiment.ghz_after_postselection

        def counted(apparatus, flipped=frozenset()):
            calls.append((apparatus, flipped))
            return chain(apparatus, flipped)

        monkeypatch.setattr(experiment, "ghz_after_postselection", counted)
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
        assert len(chain_calls) == len(partner_calls) == patterns
        assert len({flipped for _, flipped in chain_calls}) == patterns
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

    def test_compiled_vector_is_read_only(self):
        app = default_apparatus()
        exact_outcome_probabilities(app, hv_setting(app), pbs_error=0.01)
        assert len(app._compiled) == 4
        for _, psi, phi in app._compiled.values():
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
        "int-pbs-inputs", "same-pbs-output", "three-pbs-outputs", "one-detector",
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
        assert t.total() == 0

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
        (angles, None included; delay, v0, PBS error, rates, efficiency, dark
        counts), 200 seeds each, no seed used twice. Per configuration the sum
        of the 200 Pearson statistics is chi^2 with 200 x 16 degrees of
        freedom; it must not exceed its upper 1e-4 quantile (family-wise level
        2e-3 over the 20). Every expected count is at least 20, so the chi^2
        law holds closely."""
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
                detector_efficiency=float(rng.uniform(0.5, 1.0)),
                dark_count_rate=float(rng.uniform(0, 100.0)),
                coincidence_window_s=1e-3,
            )
            probs = experiment._exact_model(default_apparatus(err), setting, err)(d, v0)
            floor = rates.background_fourfold_rate + rates.accidental_fourfold_rate()
            cell_rates = np.array(list(probs.values())) * rates.effective_fourfold_rate() + floor
            time = max(20.0 / cell_rates.min(), 1e5 / cell_rates.sum())
            lam = cell_rates * time
            counts = np.array([list(draw_counts(probs, rates, time, s).counts.values())
                               for s in seeds])
            chi2 = float(np.sum((counts - lam) ** 2 / lam))
            p_value = stats.chi2.sf(chi2, df=len(seeds) * len(lam))
            assert p_value > alpha, (angles, err, d, v0, rates)


    @pytest.mark.parametrize("fields", [
        {"dark_count_rate": 1e100},
        {"dark_count_rate": 1.0, "coincidence_window_s": 1e200},
        {"fourfold_rate_desired": 10**400},
    ], ids=["dark-rate", "window", "int-beyond-float"])
    def test_overflowing_derived_rate_rejected(self, fields):
        # the draw multiplies the derived rates: they must be finite floats
        with pytest.raises(StateError, match="overflow"):
            RateModel(**fields)

    def test_derived_rate_at_float_max_accepted(self):
        assert RateModel(fourfold_rate_desired=1e308).effective_fourfold_rate() == 1e308

    @pytest.mark.parametrize("count", [
        lambda t: monte_carlo_counts(APP, hv_setting(APP), RateModel(), t, seed=1),
        lambda t: delay_scan(APP, diagonal_setting(APP), [0.0, 100.0], RateModel(), t, seed=1),
        lambda t: draw_counts({"HVVH": 0.5, "VHHV": 0.5}, RateModel(), t, seed=1),
    ], ids=["monte_carlo_counts", "delay_scan", "draw_counts"])
    @pytest.mark.parametrize("time", [-1.0, math.nan, math.inf])
    def test_bad_integration_time_rejected(self, count, time):
        # not a silent all-zero table
        with pytest.raises(StateError, match="integration time"):
            count(time)

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


class TestDelayScan:
    @pytest.mark.parametrize("pbs_error", [0.0, 0.01])
    @pytest.mark.parametrize("v0", [0.79, 1.0])
    def test_scan_matches_per_point_tables(self, pbs_error, v0):
        # tau = 0 at v0 = 1 is the pure point: its rows come from another stack
        app = default_apparatus(pbs_error)
        setting, rates = diagonal_setting(app), RateModel()
        delays = [-300.0, 0.0, 137.5, 2000.0, 0.0]
        scan = delay_scan(app, setting, delays, rates, 24000.0, seed=9, v0=v0)
        assert [tau for tau, _ in scan] == delays
        for i, (tau, table) in enumerate(scan):
            assert table == monte_carlo_counts(
                app, setting, rates, 24000.0, experiment.derive_point_seed(9, i),
                delay=DelayElement(tau), v0=v0,
            )

    @pytest.mark.parametrize("pbs_error", [None, 0.0, 0.01])
    def test_compiled_model_matches_the_per_call_formula(self, pbs_error):
        rng = np.random.default_rng(12)
        for _ in range(10):
            setting, _ = _random_call(rng, pbs_error=False)
            evaluate = experiment._exact_model(APP, setting, pbs_error)
            # pure and dephased points in both orders, each row stack built once
            for tau, v0 in [(0.0, 1.0), (250.0, 0.79), (0.0, 1.0), (-1e4, 1.0), (0.0, 0.3)]:
                d = distinguishability(DelayElement(tau))
                want = ref_exact_probabilities(setting, d, v0, pbs_error)
                assert evaluate(d, v0) == want
                assert exact_outcome_probabilities(
                    APP, setting, delay=DelayElement(tau), v0=v0, pbs_error=pbs_error
                ) == want

    def test_empty_scan_does_no_work(self, monkeypatch):
        monkeypatch.setattr(experiment, "_exact_model", None)
        assert delay_scan(APP, diagonal_setting(APP), [], RateModel(), -1.0, seed=1) == []

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
    """Every analyzer angle goes through `states.analyzer_matrix`, the one
    analyzer primitive, which takes only finite angles in [0, 180)."""

    RHO_14 = mix([(1.0, bell_state("phi+", 1, 4))])
    ENTRY_POINTS = {
        "exact": lambda a: exact_outcome_probabilities(
            APP, MeasurementSetting({"D1": 45.0, "D2": a, "D3": 45.0, "D4": 45.0})
        ),
        "three_photon_ghz": lambda a: three_photon_ghz(APP, "2'", a),
        "correlation": lambda a: correlation(TestAnalyzerAngleRange.RHO_14, a, 45.0),
        "chsh_value": lambda a: chsh_value(TestAnalyzerAngleRange.RHO_14, ((0.0, a), (22.5, 67.5))),
        "analyzer_matrix": analyzer_matrix,
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("angle", [math.nan, math.inf, -30.0, 180.0, 200.0])
    def test_out_of_range_angle_rejected(self, entry, angle):
        with pytest.raises(StateError, match="analyzer angle"):
            self.ENTRY_POINTS[entry](angle)


class TestFeasibility:
    def test_zero_target(self):
        assert feasibility_estimate(0, RateModel()) == 0.0

    @pytest.mark.parametrize("target", [-1, math.nan])
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
