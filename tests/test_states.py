import itertools
import math
import warnings

import numpy as np
import pytest

from fourphoton import (
    DensityMatrix,
    LabelCollisionError,
    PureState,
    StateError,
    bell_state,
    fidelity,
    mix,
    spdc_pair,
    state_from_terms,
    tensor,
)
from fourphoton.states import NORM_TOL, analyzer_matrix, kron

import oracle

S2 = 1 / math.sqrt(2)


def two_pair_state():
    return tensor(spdc_pair(1, 2), spdc_pair(3, 4))


class TestTensor:
    def test_two_singlets_give_four_term_state(self):
        s = two_pair_state()
        view = s.mode_view(["1", "2", "3", "4"])
        expected = {
            ("H", "V", "H", "V"): 0.5,
            ("H", "V", "V", "H"): -0.5,
            ("V", "H", "H", "V"): -0.5,
            ("V", "H", "V", "H"): 0.5,
        }
        assert set(view) == set(expected)
        for k, v in expected.items():
            assert view[k] == pytest.approx(v, abs=1e-12)

    def test_product_of_basis_kets(self):
        a = state_from_terms([1], ["1"], {"H": 1.0})
        b = state_from_terms([2], ["2"], {"V": 1.0})
        c = tensor(a, b)
        assert c.mode_view(["1", "2"]) == {("H", "V"): pytest.approx(1.0)}

    def test_phi_plus_pair_product(self):
        s = tensor(bell_state("phi+", 1, 2), bell_state("phi+", 3, 4))
        view = s.mode_view(["1", "2", "3", "4"])
        assert len(view) == 4
        for v in view.values():
            assert v == pytest.approx(0.5, abs=1e-12)

    def test_label_collision(self):
        with pytest.raises(LabelCollisionError):
            tensor(spdc_pair(1, 2), spdc_pair(2, 3))


class TestSpdcPair:
    def test_singlet_amplitudes(self):
        view = spdc_pair(1, 2).mode_view(["1", "2"])
        assert view[("H", "V")] == pytest.approx(S2, abs=1e-12)
        assert view[("V", "H")] == pytest.approx(-S2, abs=1e-12)

    def test_normalized(self):
        assert spdc_pair(1, 2).norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_same_photon_rejected(self):
        with pytest.raises(StateError):
            spdc_pair(3, 3)


class TestBellStates:
    def test_phi_plus(self):
        view = bell_state("phi+", 1, 2).mode_view(["1", "2"])
        assert view == {
            ("H", "H"): pytest.approx(S2),
            ("V", "V"): pytest.approx(S2),
        }

    def test_orthonormal_basis(self):
        kinds = ("psi+", "psi-", "phi+", "phi-")
        vecs = [bell_state(k, 1, 2).dense(["1", "2"]) for k in kinds]
        gram = np.array([[a.conj() @ b for b in vecs] for a in vecs])
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_bad_kind(self):
        with pytest.raises(StateError):
            bell_state("omega", 1, 2)


class TestAnalyzerMatrix:
    @pytest.mark.parametrize("angle", [0.0, 22.5, 45.0, 67.5, 90.0, 33.3, 123.4, 179.9])
    def test_one_convention(self, angle):
        # rows pass/reject, columns H/V
        t = math.radians(angle)
        m = analyzer_matrix(angle)
        assert m.tolist() == [[math.cos(t), math.sin(t)], [math.sin(t), -math.cos(t)]]

    def test_h_at_45(self):
        # |H> leaves by the pass and the reject port with amplitude 1/sqrt2 each
        out = analyzer_matrix(45.0) @ np.array([1.0, 0.0])
        assert out == pytest.approx([S2, S2], abs=1e-12)

    def test_ghz_eight_even_parity_terms(self):
        # four 45-degree analyzers on (|HVVH> + |VHHV>)/sqrt2 fire only in the
        # eight outcomes with an even number of reject ports, 1/8 each
        modes = ["1", "2", "3", "4"]
        ghz = state_from_terms([1, 2, 3, 4], modes, {"HVVH": S2, "VHHV": S2}, normalize=False)
        m = analyzer_matrix(45.0)
        out = (kron(kron(m, m), kron(m, m)) @ ghz.dense(modes)).reshape(2, 2, 2, 2)
        for ports in itertools.product((0, 1), repeat=4):
            want = 0.125 if sum(ports) % 2 == 0 else 0.0
            assert abs(out[ports]) ** 2 == pytest.approx(want, abs=1e-12)

    def test_self_inverse(self):
        # the analyzer is a reflection: applied twice it is the identity
        for angle in (0.0, 22.5, 45.0, 67.5, 90.0, 33.3, 123.4, 179.9):
            m = analyzer_matrix(angle)
            assert np.max(np.abs(m @ m - np.eye(2))) <= 1e-15

    def test_norm_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            vec /= np.linalg.norm(vec)
            # the analyzer on the second of two photons
            m = kron(np.eye(2), analyzer_matrix(float(rng.uniform(0, 180))))
            assert np.linalg.norm(m @ vec) == pytest.approx(1.0, abs=1e-12)

    def test_rows_are_the_oracle_ports(self):
        for angle in (0.0, 30.0, 45.0, 100.0, 179.0):
            m = analyzer_matrix(angle)
            assert np.max(np.abs(m[0] - oracle.analyzer_ket(angle, "pass"))) <= 1e-15
            assert np.max(np.abs(m[1] - oracle.analyzer_ket(angle, "reject"))) <= 1e-15


class TestMixAndFidelity:
    def ghz_pair(self):
        modes = ["1", "2", "3", "4"]
        psi = state_from_terms([1, 2, 3, 4], modes, {"HVVH": S2, "VHHV": S2}, normalize=False)
        phi = state_from_terms([1, 2, 3, 4], modes, {"HVVH": S2, "VHHV": -S2})
        return psi, phi

    def test_paper_mixture_fidelities(self):
        psi, phi = self.ghz_pair()
        rho = mix([(0.89, psi), (0.11, phi)])
        assert fidelity(rho, psi) == pytest.approx(0.89, abs=1e-12)
        assert fidelity(rho, phi) == pytest.approx(0.11, abs=1e-12)

    def test_pure_projector(self):
        psi, _ = self.ghz_pair()
        rho = mix([(1.0, psi)])
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0, abs=1e-12)
        assert fidelity(rho, psi) == pytest.approx(1.0, abs=1e-12)

    def test_mixture_purity(self):
        psi, phi = self.ghz_pair()
        rho = mix([(0.89, psi), (0.11, phi)])
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(0.89**2 + 0.11**2, abs=1e-12)

    def test_weight_validation(self):
        psi, phi = self.ghz_pair()
        with pytest.raises(StateError):
            mix([(1.2, psi), (-0.2, phi)])
        with pytest.raises(StateError):
            mix([(0.6, psi), (0.6, phi)])

    def test_nan_weight_named(self):
        psi, phi = self.ghz_pair()
        with pytest.raises(StateError, match="mixture weight"):
            mix([(math.nan, psi), (1.0, phi)])

    def test_invariants_over_random_pure_states(self):
        # density-matrix invariants hold for any valid weight list
        rng = np.random.default_rng(23)
        for _ in range(50):
            comps = []
            w = rng.dirichlet(np.ones(3))
            for wi in w:
                amps = {
                    ((p1, "1"), (p2, "2")): complex(*rng.normal(size=2))
                    for p1 in ("H", "V")
                    for p2 in ("H", "V")
                }
                comps.append((float(wi), PureState([1, 2], amps)))
            rho = mix(comps, mode_order=["1", "2"])
            rho.validate()  # Hermitian, unit trace, PSD

    def test_matches_in_place_sum_bit_for_bit(self):
        # mix adds w |v><v| to a zero matrix in component order
        signed = state_from_terms([1, 2], ["1", "2"], {"HH": -S2, "VV": -1j * S2}, normalize=False)
        v = signed.dense(["1", "2"])
        term = np.outer(v, v.conj())
        want = np.zeros((4, 4), dtype=complex)
        want += term
        assert mix([(1.0, signed)]).matrix.tobytes() == want.tobytes()
        # the term holds a -0.0 that the zero start makes +0.0
        assert want.tobytes() != term.tobytes()
        psi, phi = self.ghz_pair()
        rng = np.random.default_rng(29)
        for _ in range(20):
            amps = rng.normal(size=(16, 2)) @ (1, 1j)
            amps[rng.random(16) < 0.5] = 0
            kets = ("".join(k) for k in itertools.product("HV", repeat=4))
            rnd = state_from_terms([1, 2, 3, 4], ["1", "2", "3", "4"], dict(zip(kets, amps)))
            w = rng.dirichlet(np.ones(3)).tolist()
            comps = [(w[0], rnd), (w[1], phi), (0.0, psi), (w[2], psi)]
            want = np.zeros((16, 16), dtype=complex)
            for wi, state in comps:
                v = state.dense(["1", "2", "3", "4"])
                want += wi * np.outer(v, v.conj())
            assert mix(comps).matrix.tobytes() == want.tobytes()

    def test_dimension_mismatch(self):
        psi, _ = self.ghz_pair()
        rho = mix([(1.0, bell_state("phi+", 1, 2))], mode_order=["1", "2"])
        with pytest.raises(StateError):
            fidelity(rho, psi)


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(StateError):
            DensityMatrix(["1"], m / 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.1, math.nan)])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
    def test_rejects_non_finite_entries_without_a_warning(self, bad, where):
        m = np.eye(2, dtype=complex) / 2
        if where == "diagonal":
            m[0, 0] = bad
        else:
            m[0, 1], m[1, 0] = bad, np.conj(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StateError, match="non-finite"):
                DensityMatrix(["1"], m)

    def test_rejects_bad_trace(self):
        with pytest.raises(StateError):
            DensityMatrix(["1"], np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        # Hermitian with unit trace, eigenvalues 1.25 and -0.25
        m = np.array([[0.5, 0.75], [0.75, 0.5]], dtype=complex)
        with pytest.raises(StateError, match="negative eigenvalue"):
            DensityMatrix(["1"], m)

    def test_trace_tolerance_is_norm_tol(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 0] += NORM_TOL / 2
        DensityMatrix(["1"], m)
        m[0, 0] += 2 * NORM_TOL
        with pytest.raises(StateError, match="trace"):
            DensityMatrix(["1"], m)
