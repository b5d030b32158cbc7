import itertools
import math
import pickle
import re
import warnings
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from fourphoton import (
    DensityMatrix,
    LabelCollisionError,
    PureState,
    StateError,
    bell_state,
    default_apparatus,
    fidelity,
    ghz_after_postselection,
    mix,
    spdc_pair,
    state_from_terms,
    tensor,
)
from fourphoton.states import (
    NORM_TOL,
    analyzer_matrix,
    as_number,
    density_matrix,
    show,
    unchecked_analyzer_matrix,
    unchecked_analyzer_product,
)

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


class TestImmutablePureState:
    """A memoised state cannot go stale: nothing of a PureState can be changed."""

    MODES = ["1", "2", "3", "4"]

    def test_amps_cannot_be_assigned_into(self):
        s = two_pair_state()
        ket = next(iter(s.amps))
        with pytest.raises(TypeError):
            s.amps[ket] = 1.0
        with pytest.raises(TypeError):
            del s.amps[ket]

    @pytest.mark.parametrize("name", ["amps", "photons", "_dephasing", "extra"])
    def test_attributes_cannot_be_rebound(self, name):
        s = two_pair_state()
        with pytest.raises(AttributeError):
            setattr(s, name, {})
        with pytest.raises(AttributeError):
            delattr(s, name)

    def test_dense_is_fresh_with_equal_bytes_per_mode_order(self):
        s = two_pair_state()
        v = s.dense(self.MODES)
        again = s.dense(tuple(self.MODES))
        assert again is not v and again.tobytes() == v.tobytes()
        again[0] = 1.0  # a caller's own copy: the state's next vector is unchanged
        assert s.dense(self.MODES).tobytes() == v.tobytes()
        w = s.dense(self.MODES[::-1])
        fresh = two_pair_state()
        assert fresh.dense(self.MODES[::-1]).tobytes() == w.tobytes()
        assert fresh.dense(self.MODES).tobytes() == v.tobytes()

    def test_pickle_round_trip_keeps_every_bit(self):
        # the post-selected amplitudes carry -0.0 imaginary parts
        state, _ = ghz_after_postselection(default_apparatus())
        modes = ["1", "2'", "3'", "4"]
        v = state.dense(modes)
        state.dephasing_projectors()
        again = pickle.loads(pickle.dumps(state))
        assert again.photons == state.photons
        assert pickle.dumps(dict(again.amps)) == pickle.dumps(dict(state.amps))
        assert again._dephasing is None  # the memo is left out
        assert again.dense(modes).tobytes() == v.tobytes()
        with pytest.raises(AttributeError):
            again.amps = {}


class TestImmutableDensityMatrix:
    """A memo may return a DensityMatrix: nothing of one can be changed, and it
    neither aliases nor freezes the caller's array."""

    @staticmethod
    def caller_matrix():
        # -0.0 imaginary parts on the diagonal, and Fortran order, both kept
        v = np.array([1.0, 1j, -1.0, 0.5j]) / math.sqrt(3.25)
        m = np.asfortranarray(np.outer(v, v.conj()))
        m.imag[np.diag_indices(4)] = -0.0
        return m

    def test_caller_array_stays_writable_and_unaliased(self):
        m = self.caller_matrix()
        want = m.tobytes()
        rho = DensityMatrix(["1", "2"], m)
        assert m.flags.writeable and not rho.matrix.flags.writeable
        assert not np.shares_memory(m, rho.matrix)
        m[:] = 7.0
        assert rho.matrix.tobytes() == want

    @pytest.mark.parametrize("name", ["matrix", "modes", "extra"])
    def test_attributes_cannot_be_rebound(self, name):
        rho = DensityMatrix(["1"], np.eye(2) / 2)
        with pytest.raises(AttributeError):
            setattr(rho, name, np.eye(2) / 2)
        with pytest.raises(AttributeError):
            delattr(rho, name)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    @pytest.mark.parametrize("build", [
        lambda: DensityMatrix(["1"], np.eye(2) / 2),
        lambda: mix([(1.0, bell_state("phi+", 1, 2))]),  # built by `density_matrix`
    ], ids=["constructor", "density_matrix"])
    def test_matrix_cannot_be_made_writable_again(self, build):
        rho = build()
        with pytest.raises(ValueError):
            rho.matrix.setflags(write=True)
        assert not rho.matrix.flags.writeable

    def test_pickle_round_trip_keeps_every_bit(self):
        m = self.caller_matrix()
        rho = DensityMatrix(["1", "2"], m)
        again = pickle.loads(pickle.dumps(rho))
        assert again.modes == rho.modes == ("1", "2")
        assert again.matrix.tobytes() == rho.matrix.tobytes() == m.tobytes()
        assert np.signbit(again.matrix.imag.diagonal()).all()
        assert again.matrix.flags.f_contiguous and not again.matrix.flags.writeable
        with pytest.raises(AttributeError):
            again.matrix = m


class TestAmplitudes:
    @pytest.mark.parametrize("amp", [
        # not dropped as below PRUNE_TOL, nor a state of NaNs
        math.nan, math.inf, complex(0.5, math.inf),
        # not parsed, nor taken as 1, nor a bare TypeError or OverflowError
        "0.5", True, None, [0.5], pytest.param(10**400, id="10**400"),
    ])
    def test_amplitude_that_is_no_finite_complex_number_named(self, amp):
        with pytest.raises(StateError, match=re.escape(
            f"ket (('H', 'a'), ('V', 'b')): amplitude {amp!r} is not a finite complex number"
        )):
            state_from_terms([1, 2], ["a", "b"], {"HV": amp, "VH": 0.5})

    @pytest.mark.parametrize("amp", [
        0.5, 1, -0.5j, Fraction(1, 2), np.float32(0.5), np.int64(1), np.complex64(0.5),
    ])
    def test_numbers_read_as_complex(self, amp):
        state = state_from_terms([1, 2], ["a", "b"], {"HV": amp, "VH": 0.5})
        assert state.amps == state_from_terms([1, 2], ["a", "b"],
                                              {"HV": complex(amp), "VH": 0.5}).amps

    def test_norm_beyond_float_range_rejected(self):
        # a float's square overflows: not a bare OverflowError
        with pytest.raises(StateError, match="too large to normalize"):
            state_from_terms([1, 2], ["a", "b"], {"HV": 1e300, "VH": 0.5})


class TestPhotonsAndKeys:
    @pytest.mark.parametrize("photon", [True, 1.5, None, "a", [1]])
    def test_photon_that_is_no_integer_named(self, photon):
        # not a state on photon True or 1.5, nor a bare TypeError from sorting
        with pytest.raises(StateError, match=re.escape(
            f"photon indices ({photon!r}, 3) must be integers (a bool is none)"
        )):
            state_from_terms([photon, 3], ["a", "b"], {"HV": 1.0})

    @pytest.mark.parametrize("modes, key", [
        (["a", "b"], "HVH"), (["a", "b"], "H"), (["a", "b", "c"], "HV"), (["a"], "HV"),
    ], ids=["long key", "short key", "three modes", "one mode"])
    def test_key_of_another_length_than_the_modes_rejected(self, modes, key):
        # not cut to the shorter, as zip would
        with pytest.raises(StateError):
            state_from_terms([1, 2], modes, {key: 1.0, "HV": 1.0})

    @pytest.mark.parametrize("amplitudes", [{(("H", "a", "x"),): 1}, {(5,): 1}, {5: 1}],
                             ids=["three-element slot", "slot 5", "ket 5"])
    def test_ket_of_no_pairs_named(self, amplitudes):
        with pytest.raises(StateError, match=r"is not a sequence of \(polarization, mode\) pairs"):
            PureState([1], amplitudes)


class TestFixedMode:
    def test_several_modes_listed_sorted(self):
        # a sorted list, not a set, so that the text is the same in every process
        state, _ = ghz_after_postselection(default_apparatus())
        with pytest.raises(StateError) as exc:
            state.fixed_mode(2)
        assert str(exc.value) == """photon 2 occupies several modes: ["2'", "3'"]"""

    @pytest.mark.parametrize("photon, shown", [
        (7, "7"), ("1", "'1'"), pytest.param(10**5000, "<int of", id="10**5000"),
        # True == 1.0 == 1, but neither is a photon index, as in `is_photon_pair`
        (True, "True"), (1.0, "1.0"),
    ])
    def test_photon_not_held_named(self, photon, shown):
        # not tuple.index's bare ValueError
        state, _ = ghz_after_postselection(default_apparatus())
        with pytest.raises(StateError, match=f"photon {re.escape(shown)}.* not among"):
            state.fixed_mode(photon)

    def test_numpy_integer_index(self):
        assert spdc_pair(1, 2).fixed_mode(np.int64(1)) == "1"


class TestAsNumber:
    @pytest.mark.parametrize("value", [
        0.5, -3, pytest.param(10**300, id="10**300"), np.float64(2.5), np.int64(7),
        np.float32(0.5), Fraction(1, 2),
    ])
    def test_number_returned_as_is(self, value):
        # the draw relies on it: a value returned as something else was no number
        assert as_number(value) is value

    @pytest.mark.parametrize("value", [
        True, False, None, "0.5", 1j, 0.5 + 0j, [0.5],
        # numpy orders these against a float, but they are complex
        np.complex128(0.5), np.complex64(0.5), np.array(0.5 + 0j),
        pytest.param(10**400, id="10**400"), pytest.param(-10**400, id="-10**400"),
        # a one-element array compares like a number, but is none
        np.array([0.5]), np.array([[0.5]]), np.array([0.5, 1.0]), np.array([]),
    ])
    def test_anything_else_is_nan(self, value):
        # NaN fails every negated range test
        assert math.isnan(as_number(value))

    def test_zero_d_array_is_a_number(self):
        value = np.array(0.5)
        assert as_number(value) is value

    # the least integer whose float overflows: it lies halfway between the largest
    # float, 2**1024 - 2**971, and 2**1024, and rounds to the even one, 2**1024
    OVERFLOWS = 2**1024 - 2**970

    class Count(int):
        """An int subclass, read as any other integer."""

    @pytest.mark.parametrize("value", [
        0, 1, -7,
        pytest.param(OVERFLOWS - 1, id="2**1024-2**970-1"),
        pytest.param(1 - OVERFLOWS, id="-(2**1024-2**970-1)"),
        pytest.param(Count(7), id="Count(7)"),
        pytest.param(Count(1 - OVERFLOWS), id="Count(-(2**1024-2**970-1))"),
    ])
    def test_integer_a_float_holds_returned_as_is(self, value):
        assert as_number(value) is value

    @pytest.mark.parametrize("value", [
        pytest.param(OVERFLOWS, id="2**1024-2**970"),
        pytest.param(-OVERFLOWS, id="-(2**1024-2**970)"),
        pytest.param(10**400, id="10**400"),
        True, False,
        pytest.param(Count(OVERFLOWS), id="Count(2**1024-2**970)"),
    ])
    def test_integer_beyond_float_range_or_bool_is_nan(self, value):
        assert math.isnan(as_number(value))


class TestShow:
    @pytest.mark.parametrize("value", [
        0.5, -0.0, math.nan, "0.5", None, (1, "2"), [0.5], np.int64(7), np.array([0.5]),
        pytest.param(10**4299, id="10**4299"),  # 4,300 digits: repr still works
    ])
    def test_equals_repr_where_repr_works(self, value):
        assert show(value) == repr(value)

    @pytest.mark.parametrize("value, shown", [
        pytest.param(10**4300, "<int of 14285 bits>", id="10**4300"),  # 4,301 digits
        pytest.param(10**5000, "<int of 16610 bits>", id="10**5000"),
        pytest.param(-(10**5000), "<int of 16610 bits>", id="-10**5000"),
        pytest.param([0.5, 10**5000], "<list>", id="list"),
    ])
    def test_stand_in_where_repr_fails(self, value, shown):
        assert show(value) == shown


class TestSpdcPair:
    def test_singlet_amplitudes(self):
        view = spdc_pair(1, 2).mode_view(["1", "2"])
        assert view[("H", "V")] == pytest.approx(S2, abs=1e-12)
        assert view[("V", "H")] == pytest.approx(-S2, abs=1e-12)

    def test_normalized(self):
        v = spdc_pair(1, 2).dense(["1", "2"])
        assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-12)

    def test_same_photon_rejected(self):
        with pytest.raises(StateError):
            spdc_pair(3, 3)

    # PureState's photon rule: integers, no bool, each once
    @pytest.mark.parametrize("index", [None, "2", 1j, 2.0, True, np.array([2]), 1])
    @pytest.mark.parametrize("make", [
        lambda i: spdc_pair(1, i), lambda i: spdc_pair(i, 1), lambda i: bell_state("phi+", 1, i),
    ], ids=["spdc_pair j", "spdc_pair i", "bell_state j"])
    def test_photon_indices_not_two_distinct_integers_rejected(self, make, index):
        error, message = ((LabelCollisionError, "duplicate photon indices") if type(index) is int
                          else (StateError, "must be integers"))
        with pytest.raises(error, match=message):
            make(index)

    def test_numpy_integer_index_accepted(self):
        assert spdc_pair(1, np.int64(2)).photons == (1, 2)

    def test_index_without_default_mode_name_rejected(self):
        # the default mode name str(i) exceeds Python's integer-to-string limit
        with pytest.raises(StateError, match="photon indices 1, <int of 16610 bits> have no"):
            spdc_pair(1, 10**5000)
        assert spdc_pair(1, 10**5000, modes=("1", "2")).photons == (1, 10**5000)


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
        out = (np.kron(np.kron(m, m), np.kron(m, m)) @ ghz.dense(modes)).reshape(2, 2, 2, 2)
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
            m = np.kron(np.eye(2), analyzer_matrix(float(rng.uniform(0, 180))))
            assert np.linalg.norm(m @ vec) == pytest.approx(1.0, abs=1e-12)

    def test_rows_are_the_oracle_ports(self):
        for angle in (0.0, 30.0, 45.0, 100.0, 179.0):
            m = analyzer_matrix(angle)
            assert np.max(np.abs(m[0] - oracle.analyzer_ket(angle, "pass"))) <= 1e-15
            assert np.max(np.abs(m[1] - oracle.analyzer_ket(angle, "reject"))) <= 1e-15


class TestAnalyzerProduct:
    """`unchecked_analyzer_product` is the chain of `np.kron`s of the four analyzers
    byte for byte: the same roundings in the same order, and the same signs,
    those of zeros included, in the same C-ordered float64 layout."""

    SPECIAL = [0.0, 22.5, 45.0, 67.5, 90.0, 135.0, 179.999, 1e-300, 5e-324,
               math.nextafter(180.0, 0.0)]

    @staticmethod
    def assert_chain_bytes(angles):
        product = unchecked_analyzer_product(angles)
        chain = reduce(np.kron, map(unchecked_analyzer_matrix, angles))
        assert product.dtype == np.float64 and product.flags.c_contiguous
        assert product.tobytes() == chain.tobytes(), angles

    def test_random_angles(self):
        rng = np.random.default_rng(34)
        for _ in range(2000):
            self.assert_chain_bytes(rng.uniform(0, 180, 4).tolist())

    def test_special_angles(self):
        # exact, zero and subnormal cos and sin, and every sign of zero they give
        for angles in itertools.product(self.SPECIAL, repeat=4):
            self.assert_chain_bytes(list(angles))


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

    @pytest.mark.parametrize("weight", [
        True, None, "0.5", 1j, pytest.param(10**400, id="10**400"), np.array([1.0]),
    ])
    def test_weight_that_is_no_number_rejected(self, weight):
        # read through as_number: not a bare TypeError, and True is no weight of 1
        psi, _ = self.ghz_pair()
        with pytest.raises(StateError, match="is negative or not a number"):
            mix([(weight, psi)])

    def test_exact_weights_read_as_floats(self):
        # a Fraction weight would otherwise meet numpy as an object and fail there
        psi, phi = self.ghz_pair()
        pair = bell_state("phi+", 1, 2)
        assert mix([(Fraction(1), pair)]).matrix.tobytes() == mix([(1.0, pair)]).matrix.tobytes()
        assert (mix([(Fraction(1, 2), psi), (0.5, phi)]).matrix.tobytes()
                == mix([(0.5, psi), (0.5, phi)]).matrix.tobytes())

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
        with pytest.raises(StateError, match="not Hermitian"):
            DensityMatrix(["1"], m / 2)

    @pytest.mark.parametrize("upper, lower", [
        (math.nan, 0.0), (math.inf, 0.0), (math.inf, -math.inf), (complex(0, math.inf), 0.5),
    ])
    def test_non_finite_named_before_non_hermitian(self, upper, lower):
        # both checks fail; the finiteness pass, run only then, names the entry
        m = np.eye(2, dtype=complex) / 2
        m[0, 1], m[1, 0] = upper, lower
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StateError, match="non-finite"):
                DensityMatrix(["1"], m)

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

    @pytest.mark.parametrize("build", [
        lambda: DensityMatrix(["1", "2", "1", "2"], np.eye(16) / 16),
        lambda: DensityMatrix(("1", "1", "3", "4"), np.eye(16) / 16),
        lambda: density_matrix(["1", "1", "3", "4"], [(1.0, np.eye(16) / 16)]),
    ], ids=["DensityMatrix-1212", "DensityMatrix-1134", "density_matrix-1134"])
    def test_repeated_mode_named(self, build):
        # each mode names one qubit: the swap chain's positions would be ambiguous
        named = r"^modes \('1', '[12]', '[13]', '[24]'\) repeat a mode$"
        with pytest.raises(StateError, match=named):
            build()

    def test_unhashable_mode_named(self):
        with pytest.raises(StateError, match="are not a sequence of mode tags"):
            DensityMatrix([["1"], "2"], np.eye(4) / 4)

    def test_trace_tolerance_is_norm_tol(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 0] += NORM_TOL / 2
        DensityMatrix(["1"], m)
        m[0, 0] += 2 * NORM_TOL
        with pytest.raises(StateError, match="trace"):
            DensityMatrix(["1"], m)
