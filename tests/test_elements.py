import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from fourphoton.elements import dephasing_components
from fourphoton.states import density_matrix, dephasing_partner, projector
from fourphoton import (
    Apparatus,
    DelayElement,
    PairSource,
    PbsElement,
    StateError,
    bell_state,
    default_apparatus,
    dephase_by_distinguishability,
    fidelity,
    ghz_after_postselection,
    source_state,
    state_from_terms,
)

S2 = 1 / math.sqrt(2)
PBS = PbsElement(("2", "3"), ("2'", "3'"))
APP = default_apparatus()
MODES = ["1", "2'", "3'", "4"]
GHZ_HVVH = state_from_terms(
    [1, 2, 3, 4], ["1", "2", "3", "4"], {"HVVH": S2, "VHHV": S2}, normalize=False
)


def pols(ket):
    return tuple(p for p, _ in ket)


class TestPbs:
    def test_routing_rule(self):
        # H transmits, V reflects; a wrong-port photon leaves by the other output
        rule = {("2", "H"): "2'", ("2", "V"): "3'", ("3", "H"): "3'", ("3", "V"): "2'"}
        other = {"2'": "3'", "3'": "2'"}
        for (mode, pol), out in rule.items():
            assert PBS.route(mode, pol) == out
            assert PBS.route(mode, pol, flipped=True) == other[out]

    def test_matched_polarizations_split(self):
        # the surviving kets carry matched polarizations in the two outputs
        state, _ = ghz_after_postselection(APP)
        assert len(state.amps) == 2
        for ket in state.amps:
            by_mode = {m: p for p, m in ket}
            assert sorted(by_mode) == sorted(MODES)
            assert by_mode["2'"] == by_mode["3'"]

    def test_cross_terms_bunch(self):
        # photons 2 and 3 with different polarizations share one output, so
        # the two cross terms of the source fail the four-fold selection
        for p2, p3 in (("H", "V"), ("V", "H")):
            assert PBS.route("2", p2) == PBS.route("3", p3)
        state, prob = ghz_after_postselection(APP)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert all(p[1] == p[2] for p in map(pols, state.amps))

    def test_amplitude_magnitudes_preserved(self):
        # routing only relabels modes: each kept ket keeps its source
        # amplitude, up to one common factor of modulus 1/sqrt(p_sel)
        source = {pols(ket): a for ket, a in source_state(APP).amps.items()}
        state, prob = ghz_after_postselection(APP)
        ratios = [a / source[pols(ket)] for ket, a in state.amps.items()]
        assert ratios[0] == pytest.approx(ratios[1], abs=1e-12)
        assert abs(ratios[0]) == pytest.approx(1 / math.sqrt(prob), abs=1e-12)

    def test_phi_plus_survives_with_probability_one(self):
        # a PBS is a parity check: both kets of phi+ on its inputs leave one
        # photon in each output, with polarizations unchanged
        phi = bell_state("phi+", 2, 3)
        for ket, a in phi.amps.items():
            assert a == pytest.approx(S2, abs=1e-12)
            assert sorted(PBS.route(m, p) for p, m in ket) == ["2'", "3'"]
        v = phi.dense(["2", "3"])
        assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-12)

    def test_missing_input_mode(self):
        with pytest.raises(StateError, match="hold no source photon"):
            Apparatus((PairSource((1, 2), ("1", "2")),), PBS, APP.detectors)

    @pytest.mark.parametrize("rate", [1.5, np.array([0.01])])
    def test_error_rate_validation(self, rate):
        with pytest.raises(StateError):
            PbsElement(("2", "3"), ("2'", "3'"), error_rate=rate)


class TestDistinguishability:
    def test_zero_delay(self):
        from fourphoton import distinguishability

        assert distinguishability(DelayElement(0.0)) == 1.0

    def test_at_coherence_time(self):
        from fourphoton import distinguishability

        assert distinguishability(DelayElement(550.0, 550.0)) == pytest.approx(
            math.exp(-1), abs=1e-12
        )

    def test_asymptotic(self):
        from fourphoton import distinguishability

        assert distinguishability(DelayElement(4 * 550.0, 550.0)) < 1e-6

    def test_even_in_tau_exactly(self):
        from fourphoton import distinguishability

        for tau in np.linspace(0, 2000, 57):
            assert distinguishability(DelayElement(tau)) == distinguishability(
                DelayElement(-tau)
            )

    def test_coherence_time_positive(self):
        with pytest.raises(StateError):
            DelayElement(0.0, 0.0)

    def test_coherence_time_whose_float_is_zero_rejected(self):
        # positive as a Fraction, but its float, by which D divides, is 0.0
        with pytest.raises(StateError, match="coherence time .* fs must be positive"):
            DelayElement(100.0, Fraction(1, 10**400))

    @pytest.mark.parametrize("delay, coherence", [
        pytest.param(10**300, Fraction(1, 3), id="10**300-Fraction(1, 3)"),
        pytest.param(np.float64(1e200), 550.0, id="np.float64(1e200)-550.0"),
        (1e200, 550.0),
    ])
    def test_ratio_beyond_float_range_gives_zero(self, delay, coherence):
        # tau / tau_c, or its square, overflows: D is 0.0, with no error and no warning
        from fourphoton import distinguishability

        assert distinguishability(DelayElement(delay, coherence)) == 0.0

    @pytest.mark.parametrize("delay, coherence", [
        (math.nan, 550.0), (math.inf, 550.0), (-math.inf, 550.0), (0.0, math.nan),
        ("x", 550.0), (None, 550.0), (True, 550.0), (0.0, "x"), (0.0, None), (0.0, True),
        pytest.param(10**400, 550.0, id="10**400-550.0"),
        pytest.param(1.0, 10**400, id="1.0-10**400"),
        # a one-element array compares like a number but is none
        (np.array([1.0]), 550.0), (0.0, np.array([550.0])),
    ])
    def test_non_finite_input_rejected(self, delay, coherence):
        # NaN would otherwise surface only later, as a distinguishability of nan
        with pytest.raises(StateError):
            DelayElement(delay, coherence)


class TestDephasing:
    def test_full_indistinguishability_is_pure(self):
        psi = GHZ_HVVH
        rho = dephase_by_distinguishability(psi, 1.0, v0=1.0)
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert fidelity(rho, psi) == pytest.approx(1.0, abs=1e-12)

    def test_paper_weights_at_v0(self):
        psi = GHZ_HVVH
        rho = dephase_by_distinguishability(psi, 1.0, v0=0.79)
        assert fidelity(rho, psi) == pytest.approx((1 + 0.79) / 2, abs=1e-12)

    def test_fully_distinguishable_equal_mixture(self):
        psi = GHZ_HVVH
        phi = state_from_terms(
            [1, 2, 3, 4], ["1", "2", "3", "4"], {"HVVH": S2, "VHHV": -S2}
        )
        rho = dephase_by_distinguishability(psi, 0.0, v0=0.79)
        assert fidelity(rho, psi) == pytest.approx(0.5, abs=1e-12)
        assert fidelity(rho, phi) == pytest.approx(0.5, abs=1e-12)

    def test_matches_sum_of_outer_products_bit_for_bit(self):
        # sum(w |v><v|) over dephasing_components, added to 0 in order, and
        # density_matrix over fresh projectors: the memoised ones move no bit
        ghz, _ = ghz_after_postselection(APP)
        signed = state_from_terms(
            [1, 2, 3, 4], MODES, {"HVVH": -S2, "VHHV": -1j * S2}, normalize=False
        )
        for psi in (ghz, signed):
            v = psi.dense(MODES)
            for d in (0.0, 0.37, 0.5, 1.0):
                for v0 in (0.0, 0.5, 0.79, 1.0):  # d*v0 = 1 at the last point
                    components = dephasing_components(v, dephasing_partner(v), d, v0)
                    terms = [w * np.outer(u, u.conj()) for w, u in components]
                    fresh = density_matrix(MODES, [(w, projector(u)) for w, u in components])
                    rho = dephase_by_distinguishability(psi, d, v0)
                    assert rho.modes == fresh.modes
                    assert rho.matrix.tobytes() == fresh.matrix.tobytes() == sum(terms).tobytes()
        # the last, pure case: its one term holds a -0.0 that the zero start makes +0.0
        assert rho.matrix.tobytes() != terms[0].tobytes()

    def test_returned_matrix_is_fresh(self):
        # memoised: read-only and not rebindable, so a repeat call may return it
        ghz, _ = ghz_after_postselection(APP)
        rho = dephase_by_distinguishability(ghz, 0.5)
        want = rho.matrix.tobytes()
        with pytest.raises(ValueError):
            rho.matrix[:] = 7.0
        with pytest.raises(AttributeError):
            rho.matrix = np.eye(16) / 16
        again = dephase_by_distinguishability(ghz, 0.5)
        assert again is rho and again.matrix.tobytes() == want

    def test_memoised_projectors_are_read_only_and_built_once(self):
        ghz, _ = ghz_after_postselection(APP)
        modes, p_psi, p_phi = ghz.dephasing_projectors()
        assert modes == tuple(MODES)
        for p in (p_psi, p_phi):
            assert not p.flags.writeable
            with pytest.raises(ValueError):
                p[0, 0] = 1.0
        again = ghz.dephasing_projectors()
        assert again[1] is p_psi and again[2] is p_phi

    def test_pickled_state_gives_the_same_bytes(self):
        ghz, _ = ghz_after_postselection(APP)
        want = dephase_by_distinguishability(ghz, 0.3).matrix.tobytes()
        again = pickle.loads(pickle.dumps(ghz))
        assert dephase_by_distinguishability(again, 0.3).matrix.tobytes() == want

    def test_invariants(self):
        psi = GHZ_HVVH
        for d in (0.0, 0.3, 0.72, 1.0):
            dephase_by_distinguishability(psi, d, v0=0.79).validate()

    def test_d_out_of_range(self):
        for d in (1.2, None, True, "x", 10**400, np.array([0.5])):
            with pytest.raises(StateError, match="distinguishability"):
                dephase_by_distinguishability(GHZ_HVVH, d)

    def test_one_branch_state_reports_its_branches_first(self):
        # the partner is built before the channel checks d and v0; the last
        # call repeats the first, since a failed build memoises nothing
        one_branch = state_from_terms([1, 2, 3, 4], MODES, {"HVVH": 1.0})
        for d, v0 in ((0.5, 0.79), (1.2, 0.79), (0.5, math.nan), (0.5, 0.79)):
            with pytest.raises(StateError, match="dephasing expects a two-branch superposition"):
                dephase_by_distinguishability(one_branch, d, v0)


class TestDephasingComponents:
    """The one dephasing channel, shared by the exact model and the swap chain."""

    PSI = GHZ_HVVH.dense(["1", "2", "3", "4"])

    def test_weights(self):
        phi = dephasing_partner(self.PSI)
        (w, psi), (w_phi, partner) = dephasing_components(self.PSI, phi, 0.5, 0.79)
        assert (w, w_phi) == ((1 + 0.5 * 0.79) / 2, 1 - (1 + 0.5 * 0.79) / 2)
        assert psi is self.PSI and partner is phi

    def test_pure_cases(self):
        # d*v0 = 1 keeps psi pure, and so does a one-branch vector at any d*v0
        phi = dephasing_partner(self.PSI)
        for partner, d, v0 in ((phi, 1.0, 1.0), (None, 1.0, 1.0), (None, 0.3, 0.79)):
            [(w, psi)] = dephasing_components(self.PSI, partner, d, v0)
            assert w == 1.0 and psi is self.PSI

    @pytest.mark.parametrize("one_branch", [False, True])
    @pytest.mark.parametrize("d, v0, name", [
        (1.2, 0.79, "distinguishability"), (-0.1, 0.79, "distinguishability"),
        (math.nan, 0.79, "distinguishability"), (0.5, 1.5, "visibility"),
        (0.5, math.nan, "visibility"), (None, 0.79, "distinguishability"),
        (True, 0.79, "distinguishability"), (0.5, "0.79", "visibility"), (0.5, None, "visibility"),
    ])
    def test_range_checked_for_every_pattern(self, one_branch, d, v0, name):
        phi = None if one_branch else dephasing_partner(self.PSI)
        with pytest.raises(StateError, match=name):
            dephasing_components(self.PSI, phi, d, v0)
