import math

import numpy as np
import pytest

from fourphoton import (
    DelayElement,
    PbsElement,
    PolarizerElement,
    PostselectionError,
    PureState,
    RoutingError,
    StateError,
    apply_pbs,
    apply_polarizer,
    bell_state,
    dephase_by_distinguishability,
    fidelity,
    ghz_state,
    spdc_pair,
    state_from_terms,
    tensor,
)
from fourphoton.experiment import postselect_fourfold

S2 = 1 / math.sqrt(2)
PBS = PbsElement(("2", "3"), ("2'", "3'"))


class TestPbs:
    def test_routing_rule(self):
        # H transmits, V reflects: HH splits, HV bunches into 2'
        s = tensor(
            state_from_terms([2], ["2"], {"H": 1.0}),
            state_from_terms([3], ["3"], {"H": 1.0}),
        )
        out = apply_pbs(s, PBS)
        assert out.mode_view(["2'", "3'"]) == {("H", "H"): pytest.approx(1.0)}
        s = tensor(
            state_from_terms([2], ["2"], {"H": 1.0}),
            state_from_terms([3], ["3"], {"V": 1.0}),
        )
        out = apply_pbs(s, PBS)
        (ket,) = out.amps
        assert [m for _, m in ket] == ["2'", "2'"]

    def test_matched_polarizations_split(self):
        s = tensor(spdc_pair(1, 2), spdc_pair(3, 4))
        out = apply_pbs(s, PBS)
        survived = {
            ket
            for ket in out.amps
            if sorted(m for _, m in ket) == sorted(["1", "2'", "3'", "4"])
        }
        views = [dict(ket) for ket in survived]
        # surviving kets carry matched polarizations in the two outputs
        for ket in survived:
            pols = {m: p for p, m in ket}
            assert pols["2'"] == pols["3'"]
        assert len(survived) == 2

    def test_cross_terms_bunch(self):
        s = tensor(spdc_pair(1, 2), spdc_pair(3, 4))
        out = apply_pbs(s, PBS)
        bunched = [
            ket
            for ket in out.amps
            if sorted(m for _, m in ket) != sorted(["1", "2'", "3'", "4"])
        ]
        assert len(bunched) == 2
        for ket in bunched:
            modes = [m for _, m in ket if m in ("2'", "3'")]
            assert modes[0] == modes[1]

    def test_amplitude_magnitudes_preserved(self):
        s = tensor(spdc_pair(1, 2), spdc_pair(3, 4))
        out = apply_pbs(s, PBS)
        assert sorted(abs(a) for a in out.amps.values()) == pytest.approx(
            sorted(abs(a) for a in s.amps.values())
        )

    def test_phi_plus_survives_with_probability_one(self):
        s = bell_state("phi+", 2, 3)
        out = apply_pbs(s, PBS)
        kept, prob = postselect_fourfold(out, ["2'", "3'"])
        assert prob == pytest.approx(1.0, abs=1e-12)
        view = kept.mode_view(["2'", "3'"])
        assert view[("H", "H")] == pytest.approx(S2, abs=1e-12)
        assert view[("V", "V")] == pytest.approx(S2, abs=1e-12)

    def test_missing_input_mode(self):
        s = state_from_terms([2], ["2"], {"H": 1.0})
        with pytest.raises(RoutingError):
            apply_pbs(s, PBS)

    def test_error_rate_validation(self):
        with pytest.raises(StateError):
            PbsElement(("2", "3"), ("2'", "3'"), error_rate=1.5)


class TestPolarizer:
    def test_h_through_45(self):
        s = state_from_terms([1], ["m"], {"H": 1.0})
        out, prob = apply_polarizer(s, PolarizerElement("m", 45.0))
        assert prob == pytest.approx(0.5, abs=1e-12)
        view = out.mode_view(["m"])
        assert view[("H",)] == pytest.approx(S2, abs=1e-12)
        assert view[("V",)] == pytest.approx(S2, abs=1e-12)

    def test_orthogonal_projection_impossible(self):
        s = state_from_terms([1], ["m"], {"V": 1.0})
        with pytest.raises(PostselectionError):
            apply_polarizer(s, PolarizerElement("m", 0.0))

    def test_reject_branch(self):
        s = state_from_terms([1], ["m"], {"V": 1.0})
        out, prob = apply_polarizer(s, PolarizerElement("m", 0.0, branch="reject"))
        assert prob == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            amps = {((p, "m"),): complex(*rng.normal(size=2)) for p in ("H", "V")}
            s = PureState([1], amps)
            pol = PolarizerElement("m", float(rng.uniform(0, 180)))
            once, p1 = apply_polarizer(s, pol)
            twice, p2 = apply_polarizer(once, pol)
            assert p2 == pytest.approx(1.0, abs=1e-9)
            assert twice.allclose(once, tol=1e-9)

    def test_ghz_45_polarizer_success_half(self):
        s = ghz_state("HVVH", modes=["1", "2'", "3'", "4"])
        out, prob = apply_polarizer(s, PolarizerElement("2'", 45.0))
        assert prob == pytest.approx(0.5, abs=1e-12)


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


class TestDephasing:
    def test_full_indistinguishability_is_pure(self):
        psi = ghz_state("HVVH")
        rho = dephase_by_distinguishability(psi, 1.0, v0=1.0)
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)
        assert fidelity(rho, psi) == pytest.approx(1.0, abs=1e-12)

    def test_paper_weights_at_v0(self):
        psi = ghz_state("HVVH")
        rho = dephase_by_distinguishability(psi, 1.0, v0=0.79)
        assert fidelity(rho, psi) == pytest.approx((1 + 0.79) / 2, abs=1e-12)

    def test_fully_distinguishable_equal_mixture(self):
        psi = ghz_state("HVVH")
        phi = state_from_terms(
            [1, 2, 3, 4], ["1", "2", "3", "4"], {"HVVH": S2, "VHHV": -S2}
        )
        rho = dephase_by_distinguishability(psi, 0.0, v0=0.79)
        assert fidelity(rho, psi) == pytest.approx(0.5, abs=1e-12)
        assert fidelity(rho, phi) == pytest.approx(0.5, abs=1e-12)

    def test_invariants(self):
        psi = ghz_state("HVVH")
        for d in (0.0, 0.3, 0.72, 1.0):
            dephase_by_distinguishability(psi, d, v0=0.79).validate()

    def test_d_out_of_range(self):
        with pytest.raises(StateError):
            dephase_by_distinguishability(ghz_state("HVVH"), 1.2)
