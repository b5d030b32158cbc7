import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fourphoton import swap
from fourphoton import (
    DelayElement,
    DensityMatrix,
    PostselectionError,
    PureState,
    StateError,
    bell_decompose,
    bell_state,
    chsh_value,
    correlation,
    default_apparatus,
    dephase_by_distinguishability,
    distinguishability,
    ghz_after_postselection,
    mix,
    phi_plus_via_45_coincidence,
    project_bell,
    spdc_pair,
    state_from_terms,
    tensor,
    visibility_from_counts,
)
from fourphoton.states import BELL_KINDS, analyzer_matrix

import oracle

S2 = 1 / math.sqrt(2)
MODES = ["1", "2'", "3'", "4"]
GHZ_HVVH = state_from_terms([1, 2, 3, 4], MODES, {"HVVH": S2, "VHHV": S2}, normalize=False)


def two_pair_state():
    return tensor(spdc_pair(1, 2), spdc_pair(3, 4))


def eq3_mixture(w=0.89):
    psi = GHZ_HVVH
    phi = state_from_terms([1, 2, 3, 4], MODES, {"HVVH": S2, "VHHV": -S2})
    return mix([(w, psi), (1 - w, phi)], mode_order=MODES)


def random_two_branch_state(rng):
    """Random state in the PBS coincidence subspace span{HVVH, VHHV}."""
    a = complex(*rng.normal(size=2))
    b = complex(*rng.normal(size=2))
    return state_from_terms([1, 2, 3, 4], MODES, {"HVVH": a, "VHHV": b})


# bell_decompose as the sparse algebra computed it before the dense contraction:
# the inner product of each Bell x Bell basis state with the input.
def ref_bell_decompose(state, pair_a, pair_b):
    modes_a = tuple(state.fixed_mode(p) for p in pair_a)
    modes_b = tuple(state.fixed_mode(p) for p in pair_b)
    out = {}
    for ka, kb in itertools.product(BELL_KINDS, repeat=2):
        basis = tensor(
            bell_state(ka, *pair_a, modes=modes_a),
            bell_state(kb, *pair_b, modes=modes_b),
        )
        out[(ka, kb)] = sum(np.conj(a) * state.amps.get(k, 0.0) for k, a in basis.amps.items())
    return out


PAIRINGS = [((1, 4), (2, 3)), ((1, 2), (3, 4)), ((1, 3), (2, 4)), ((4, 1), (3, 2))]


def random_four_photon_state(rng):
    """A random state of photons 1-4, each in its own mode, the modes
    relabelled and shuffled so that no photon sits in a mode named after it."""
    modes = [str(m) for m in rng.permutation(["a", "b'", "c", "x4"])]
    kets = map("".join, itertools.product("HV", repeat=4))
    terms = {pols: complex(*rng.normal(size=2)) for pols in kets}
    return state_from_terms([1, 2, 3, 4], modes, terms), modes


class TestBellDecompose:
    @pytest.mark.parametrize("pair_a, pair_b", PAIRINGS)
    def test_matches_sparse_formula(self, pair_a, pair_b):
        rng = np.random.default_rng(59)
        for _ in range(50):
            state, _ = random_four_photon_state(rng)
            dec = bell_decompose(state, pair_a, pair_b)
            ref = ref_bell_decompose(state, pair_a, pair_b)
            assert list(dec) == list(ref)
            assert max(abs(dec[k] - ref[k]) for k in ref) < 1e-12

    def test_pairs_must_partition_the_photons(self):
        state, _ = random_four_photon_state(np.random.default_rng(3))
        for pair_a, pair_b in (((1, 2), (3, 5)), ((1, 1), (2, 3, 4)), ((1, 2), (2, 3))):
            with pytest.raises(StateError, match="partition"):
                bell_decompose(state, pair_a, pair_b)

    def test_two_pair_state_diagonal_coefficients(self):
        dec = bell_decompose(two_pair_state(), pair_a=(1, 4), pair_b=(2, 3))
        expected = {
            ("psi+", "psi+"): 0.5,
            ("psi-", "psi-"): -0.5,
            ("phi+", "phi+"): -0.5,
            ("phi-", "phi-"): 0.5,
        }
        for key, c in dec.items():
            assert c == pytest.approx(expected.get(key, 0.0), abs=1e-12)

    def test_basis_element(self):
        s = tensor(
            bell_state("phi+", 1, 4, modes=("1", "4")),
            bell_state("phi+", 2, 3, modes=("2", "3")),
        )
        dec = bell_decompose(s)
        assert dec[("phi+", "phi+")] == pytest.approx(1.0, abs=1e-12)
        assert sum(abs(c) for k, c in dec.items() if k != ("phi+", "phi+")) < 1e-12

    def test_completeness_on_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            amps = {
                tuple((p, m) for p, m in zip(pols, "1234")): complex(
                    *rng.normal(size=2)
                )
                for pols in map("".join, itertools.product("HV", repeat=4))
            }
            s = PureState([1, 2, 3, 4], amps)
            dec = bell_decompose(s)
            assert sum(abs(c) ** 2 for c in dec.values()) == pytest.approx(
                1.0, abs=1e-12
            )

    @pytest.mark.parametrize("pair_a, pair_b", PAIRINGS)
    def test_reconstruction(self, pair_a, pair_b):
        rng = np.random.default_rng(61)
        inputs = [(two_pair_state(), ["1", "2", "3", "4"])]
        inputs += [random_four_photon_state(rng) for _ in range(20)]
        for state, modes in inputs:
            modes_a = [state.fixed_mode(p) for p in pair_a]
            modes_b = [state.fixed_mode(p) for p in pair_b]
            rebuilt = np.zeros(16, dtype=complex)
            for (ka, kb), c in bell_decompose(state, pair_a, pair_b).items():
                basis = tensor(
                    bell_state(ka, *pair_a, modes=modes_a),
                    bell_state(kb, *pair_b, modes=modes_b),
                )
                rebuilt += c * basis.dense(modes)
            assert np.max(np.abs(rebuilt - state.dense(modes))) < 1e-12

    def test_wrong_photon_count(self):
        with pytest.raises(StateError):
            bell_decompose(spdc_pair(1, 2))


class TestProjectBell:
    def test_ghz_phi_plus_projection(self):
        psi = GHZ_HVVH
        res = project_bell(mix([(1.0, psi)], MODES), ("2'", "3'"), "phi+")
        assert res.projection_probability == pytest.approx(0.5, abs=1e-12)
        assert res.fidelity_to_target == pytest.approx(1.0, abs=1e-12)

    def test_ghz_psi_projection_impossible(self):
        psi = GHZ_HVVH
        with pytest.raises(StateError):
            project_bell(mix([(1.0, psi)], MODES), ("2'", "3'"), "psi+")

    def test_eq3_mixture_fidelity(self):
        res = project_bell(eq3_mixture(), ("2'", "3'"), "phi+")
        assert res.fidelity_to_target == pytest.approx(0.89, abs=1e-9)
        assert res.visibility_45 == pytest.approx(0.78, abs=1e-9)
        # conditional state is 0.89 phi+ + 0.11 phi- on photons 1, 4
        phi_minus = bell_state("phi-", 1, 4, modes=("1", "4"))
        from fourphoton import fidelity

        assert fidelity(res.conditioned_state_14, phi_minus) == pytest.approx(
            0.11, abs=1e-9
        )

    def test_teleportation_identity_all_four_kinds(self):
        rho = mix([(1.0, two_pair_state())], ["1", "2", "3", "4"])
        for kind in BELL_KINDS:
            res = project_bell(rho, ("2", "3"), kind)
            assert res.projection_probability == pytest.approx(0.25, abs=1e-9)
            target = bell_state(kind, 1, 4, modes=("1", "4"))
            from fourphoton import fidelity

            assert fidelity(res.conditioned_state_14, target) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_projection_completeness(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            rho = mix([(1.0, random_two_branch_state(rng))], MODES)
            total = 0.0
            for kind in BELL_KINDS:
                try:
                    res = project_bell(rho, ("2'", "3'"), kind)
                    total += res.projection_probability
                except StateError:
                    pass
            assert total == pytest.approx(1.0, abs=1e-9)


class TestOperationalPhiPlus:
    def test_ideal_ghz(self):
        psi = GHZ_HVVH
        res = phi_plus_via_45_coincidence(mix([(1.0, psi)], MODES))
        assert res.fidelity_to_target == pytest.approx(1.0, abs=1e-12)
        assert res.projection_probability == pytest.approx(0.5, abs=1e-12)

    def test_eq3_mixture(self):
        res = phi_plus_via_45_coincidence(eq3_mixture())
        assert res.fidelity_to_target == pytest.approx(0.89, abs=1e-9)
        assert res.visibility_45 == pytest.approx(0.78, abs=1e-9)

    def test_equivalence_with_abstract_projection(self):
        # on the PBS coincidence subspace the polarizer-based and abstract
        # phi+ projections agree element-wise
        rng = np.random.default_rng(31)
        for _ in range(100):
            rho = mix([(1.0, random_two_branch_state(rng))], MODES)
            op = phi_plus_via_45_coincidence(rho)
            ab = project_bell(rho, ("2'", "3'"), "phi+")
            assert np.max(
                np.abs(op.conditioned_state_14.matrix - ab.conditioned_state_14.matrix)
            ) < 1e-12
            assert op.projection_probability == pytest.approx(
                ab.projection_probability, abs=1e-12
            )

    def test_cross_coincidence_projects_onto_phi_minus(self):
        # +45/-45 and -45/+45 coincidences identify phi- instead
        psi = GHZ_HVVH
        rho = mix([(1.0, psi)], mode_order=MODES)
        s = 1 / math.sqrt(2)
        plus = np.array([s, s], dtype=complex)
        minus = np.array([s, -s], dtype=complex)
        kraus = []
        for v1, v2 in ((plus, minus), (minus, plus)):
            v = np.kron(v1, v2)
            kraus.append(np.outer(v, v.conj()))
        res = swap._condition(rho, ("2'", "3'"), kraus)
        phi_minus = bell_state("phi-", 1, 4, modes=("1", "4"))
        from fourphoton import fidelity

        assert fidelity(res.conditioned_state_14, phi_minus) == pytest.approx(
            1.0, abs=1e-12
        )


class TestPairPlacement:
    """Conditioning on pairs that are not the adjacent in-order ("2'", "3'")."""

    S = 1 / math.sqrt(2)
    BELL = {
        "psi+": {"HV": S, "VH": S},
        "psi-": {"HV": S, "VH": -S},
        "phi+": {"HH": S, "VV": S},
        "phi-": {"HH": S, "VV": -S},
    }

    @staticmethod
    def random_rho(rng):
        vs = [oracle.random_state_vector(4, rng) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        return sum(wi * np.outer(v, v.conj()) for wi, v in zip(w, vs))

    def check(self, res, rho, pair, kraus):
        reduced, prob = oracle.conditioned_pair(
            rho, [MODES.index(m) for m in pair], kraus
        )
        phi_plus = oracle.dense_from_terms(self.BELL["phi+"], 2)
        assert res.conditioned_state_14.modes == tuple(m for m in MODES if m not in pair)
        assert res.projection_probability == pytest.approx(prob, abs=1e-12)
        assert np.max(np.abs(res.conditioned_state_14.matrix - reduced / prob)) < 1e-12
        fid = float(np.real(phi_plus.conj() @ reduced @ phi_plus)) / prob
        assert res.fidelity_to_target == pytest.approx(fid, abs=1e-12)

    @pytest.mark.parametrize("pair", [("1", "3'"), ("3'", "2'")])
    def test_against_dense_oracle(self, pair):
        rng = np.random.default_rng(53)
        plus, minus = (oracle.analyzer_ket(45.0, br) for br in ("pass", "reject"))
        coincidences = [np.kron(v, v) for v in (plus, minus)]
        for _ in range(20):
            rho = self.random_rho(rng)
            dm = DensityMatrix(MODES, rho)
            self.check(
                phi_plus_via_45_coincidence(dm, pair),
                rho, pair, [np.outer(v, v.conj()) for v in coincidences],
            )
            for kind, terms in self.BELL.items():
                v = oracle.dense_from_terms(terms, 2)
                self.check(project_bell(dm, pair, kind), rho, pair, [np.outer(v, v.conj())])
            # Bell and same-angle projectors are symmetric under exchange of
            # the pair; a +45/-45 coincidence is not, so it pins the order
            v = np.kron(plus, minus)
            kraus = [np.outer(v, v.conj())]
            self.check(swap._condition(dm, pair, kraus), rho, pair, kraus)

    def test_remaining_photons_not_a_pair(self):
        rho = mix([(1.0, state_from_terms([1, 2, 3], ["1", "2'", "3'"], {"HVV": S2, "VHH": S2}))])
        with pytest.raises(StateError):
            project_bell(rho, ("2'", "3'"), "phi+")
        with pytest.raises(StateError):
            phi_plus_via_45_coincidence(rho)


class TestVisibilityFromCounts:
    def test_paper_style_counts(self):
        v, err = visibility_from_counts({"e": 179, "o": 21}, ["e"], ["o"])
        assert v == pytest.approx(0.79, abs=1e-12)
        assert err == pytest.approx(2 * math.sqrt(179 * 21 / 200**3), abs=1e-12)
        assert err == pytest.approx(0.04, abs=0.005)

    def test_equal_counts(self):
        v, _ = visibility_from_counts({"e": 50, "o": 50}, ["e"], ["o"])
        assert v == 0.0

    def test_no_odd_counts(self):
        v, err = visibility_from_counts({"e": 50, "o": 0}, ["e"], ["o"])
        assert v == 1.0
        assert err == 0.0

    def test_zero_total(self):
        with pytest.raises(StateError):
            visibility_from_counts({"e": 0, "o": 0}, ["e"], ["o"])

    @pytest.mark.parametrize("counts", [
        {"e": -5, "o": 10}, {"e": -10, "o": 10}, {"e": 5, "o": -1},
    ])
    def test_negative_count_rejected(self, counts):
        # not a math domain error, nor "needs at least one count"
        key = min(counts, key=counts.get)
        with pytest.raises(StateError, match=f"count '{key}' is negative: {counts[key]}"):
            visibility_from_counts(counts, ["e"], ["o"])


class TestChsh:
    def test_phi_plus_reaches_tsirelson(self):
        rho = mix([(1.0, bell_state("phi+", 1, 4, modes=("1", "4")))],
                  mode_order=["1", "4"])
        assert chsh_value(rho) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_correlation_against_dense_oracle(self):
        rng = np.random.default_rng(41)
        res = phi_plus_via_45_coincidence(eq3_mixture())
        rho = res.conditioned_state_14
        for _ in range(100):
            a, b = rng.uniform(0, 180, size=2)
            assert correlation(rho, a, b) == pytest.approx(
                oracle.pair_correlation_dense(rho.matrix, a, b), abs=1e-12
            )

    def test_correlation_accepts_0d_array_angles(self):
        rho = phi_plus_via_45_coincidence(eq3_mixture()).conditioned_state_14
        assert correlation(rho, np.array(10.0), 20.0) == correlation(rho, 10.0, 20.0)
        assert correlation(rho, 10.0, np.float64(20.0)) == correlation(rho, 10.0, 20.0)

    def test_eq3_conditioned_chsh_value(self):
        # w phi+ + (1-w) phi- at phi+-optimal settings gives sqrt2 (1 + (2w-1));
        # verified against the dense oracle
        res = phi_plus_via_45_coincidence(eq3_mixture(0.89))
        s = chsh_value(res.conditioned_state_14)
        expected = math.sqrt(2) * (1 + 0.78)
        assert s == pytest.approx(expected, abs=1e-9)
        (a, ap), (b, bp) = ((0.0, 45.0), (22.5, 67.5))
        m = res.conditioned_state_14.matrix
        s_oracle = (
            oracle.pair_correlation_dense(m, a, b)
            - oracle.pair_correlation_dense(m, a, bp)
            + oracle.pair_correlation_dense(m, ap, b)
            + oracle.pair_correlation_dense(m, ap, bp)
        )
        assert s == pytest.approx(s_oracle, abs=1e-12)
        assert s > 2.0  # beats the LHV bound

    def test_apparatus_pipeline_end_to_end(self):
        app = default_apparatus()
        state, _ = ghz_after_postselection(app)
        rho = dephase_by_distinguishability(state, 1.0, 0.79)
        res = phi_plus_via_45_coincidence(rho)
        assert res.fidelity_to_target == pytest.approx((1 + 0.79) / 2, abs=1e-9)
        assert chsh_value(res.conditioned_state_14) > 2.0


# The swap analysis as written before its fixed operators were built once:
# np.outer / np.kron on every call. The module must match it bit for bit.
def ref_analyzer(angle):
    a, b = analyzer_matrix(angle)  # the pass and reject rows
    return np.outer(a, a) - np.outer(b, b)


def ref_correlation(rho, angle_a, angle_b):
    op = np.kron(ref_analyzer(angle_a), ref_analyzer(angle_b))
    return float(np.trace(rho.matrix @ op).real)


def ref_chsh(rho, settings):
    (a, ap), (b, bp) = settings
    return (
        ref_correlation(rho, a, b)
        - ref_correlation(rho, a, bp)
        + ref_correlation(rho, ap, b)
        + ref_correlation(rho, ap, bp)
    )


def ref_projection(rho, pair_modes, kraus):
    """(conditioned matrix, probability, fidelity to phi+, visibility), or None."""
    pos = [rho.modes.index(m) for m in pair_modes]
    order = pos + [i for i in range(4) if i not in pos]
    t = rho.matrix.reshape((2,) * 8).transpose(order + [4 + i for i in order])
    t = t.reshape(4, 4, 4, 4)
    reduced = sum(np.einsum("pq,qarb,pr->ab", k, t, k.conj()) for k in kraus)
    prob = float(np.trace(reduced).real)
    if prob <= 1e-30:
        return None  # the module raises PostselectionError
    m = reduced / prob
    v = bell_state("phi+", 1, 2).dense(("1", "2"))
    f = float(np.real(v.conj() @ m @ v))
    return m, prob, f, 2.0 * f - 1.0


def ref_kraus_45():
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / math.sqrt(2)
    pair_vecs = (np.kron(v, v) for v in (plus, minus))
    return [np.outer(v, v.conj()) for v in pair_vecs]


def ref_bell_projector(kind):
    v = bell_state(kind, 1, 2).dense(("1", "2"))
    return np.outer(v, v.conj())


def same_result(res, ref):
    m, prob, f, vis = ref
    return (
        np.array_equal(res.conditioned_state_14.matrix, m)
        and (res.projection_probability, res.fidelity_to_target, res.visibility_45)
        == (prob, f, vis)
    )


GHZ = ghz_after_postselection(default_apparatus())[0]
ANGLE = st.floats(0.0, 180.0, exclude_max=True)
PINNED = settings(max_examples=60, deadline=None, database=None)


class TestFixedOperators:
    @PINNED
    @given(
        tau=st.floats(-3000.0, 3000.0),
        v0=st.floats(0.0, 1.0),
        angles=st.tuples(ANGLE, ANGLE, ANGLE, ANGLE),
    )
    def test_swap_chain_matches_per_call_operators(self, tau, v0, angles):
        d = distinguishability(DelayElement(tau))
        rho = dephase_by_distinguishability(GHZ, d, v0)
        res = phi_plus_via_45_coincidence(rho)
        assert same_result(res, ref_projection(rho, ("2'", "3'"), ref_kraus_45()))
        assert same_result(phi_plus_via_45_coincidence(rho), ref_projection(
            rho, ("2'", "3'"), ref_kraus_45()))
        pair = res.conditioned_state_14
        a, ap, b, bp = angles
        for chsh_settings in (swap.CHSH_PHI_PLUS_SETTINGS, ((a, ap), (b, bp))):
            s = chsh_value(pair, chsh_settings)
            assert s == ref_chsh(pair, chsh_settings) == chsh_value(pair, chsh_settings)
            # the batched contraction gives each correlation's own trace, bit for bit
            (x, xp), (y, yp) = chsh_settings
            assert s == (
                correlation(pair, x, y)
                - correlation(pair, x, yp)
                + correlation(pair, xp, y)
                + correlation(pair, xp, yp)
            )
            for x in chsh_settings[0]:
                for y in chsh_settings[1]:
                    assert correlation(pair, x, y) == ref_correlation(pair, x, y)

    @settings(PINNED, max_examples=40)
    @given(
        amps=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=16, max_size=16)
        .filter(lambda amps: sum(abs(a) ** 2 for a in amps) > 1e-3),
        angles=st.tuples(ANGLE, ANGLE),
    )
    def test_bell_projection_matches_per_call_projectors(self, amps, angles):
        kets = itertools.product("HV", repeat=4)
        state = state_from_terms([1, 2, 3, 4], MODES, dict(zip(map("".join, kets), amps)))
        rho = mix([(1.0, state)], mode_order=MODES)
        for kind in BELL_KINDS:
            ref = ref_projection(rho, ("2'", "3'"), [ref_bell_projector(kind)])
            if ref is None:
                with pytest.raises(PostselectionError):
                    project_bell(rho, ("2'", "3'"), kind)
                continue
            res = project_bell(rho, ("2'", "3'"), kind)
            assert same_result(res, ref)
            # a pair that is not symmetric under exchange: E(a, b) != E(b, a)
            assert correlation(res.conditioned_state_14, *angles) == ref_correlation(
                res.conditioned_state_14, *angles)

    def test_chsh_after_default_settings_matches_fresh_build(self):
        pair = phi_plus_via_45_coincidence(
            dephase_by_distinguishability(GHZ, 0.6, 0.79)).conditioned_state_14
        others = ((10.0, 100.0), (33.0, 170.0))
        default = chsh_value(pair)
        after_default = chsh_value(pair, others)
        swap._chsh_observables.cache_clear()
        assert after_default == chsh_value(pair, others) == ref_chsh(pair, others)
        assert default == chsh_value(pair) == ref_chsh(pair, swap.CHSH_PHI_PLUS_SETTINGS)
        assert chsh_value(pair, [[10.0, 100.0], [33.0, 170.0]]) == after_default

    def test_cached_chsh_observables_are_read_only(self):
        ops = swap._chsh_observables(0.0, 45.0, 22.5, 67.5)
        assert len(ops) == 4
        assert swap._chsh_observables(0.0, 45.0, 22.5, 67.5) is ops
        assert swap._chsh_observables.cache_info().maxsize is not None  # bounded
        for op in ops:
            with pytest.raises(ValueError):
                op[0, 0] = 0

    def test_module_operators_are_read_only(self):
        fixed = [*swap._KRAUS_45, *swap._BELL_PROJECTORS.values(), *swap._BELL_VECS.values(),
                 swap._BELL_BRAS]
        assert len(fixed) == 11
        for op in fixed:
            with pytest.raises(ValueError):
                op[0, ...] = 0
