"""Acceptance suite: one test per headline criterion, each printing a
PASS line with the measured numbers when it succeeds.
"""

import math
import time

import numpy as np
import pytest

import oracle
from fourphoton import (
    DelayElement,
    MeasurementSetting,
    RateModel,
    bell_decompose,
    bell_state,
    default_apparatus,
    diagonal_setting,
    draw_counts,
    exact_outcome_probabilities,
    feasibility_estimate,
    ghz_after_postselection,
    hv_setting,
    mix,
    monte_carlo_counts,
    phi_plus_via_45_coincidence,
    spdc_pair,
    state_from_terms,
    tensor,
    three_photon_ghz,
    visibility_from_counts,
)

S2 = 1 / math.sqrt(2)
APP = default_apparatus()
MODES = ["1", "2'", "3'", "4"]


def test_criterion_1_ghz_projection():
    best = math.inf
    for _ in range(10):
        t0 = time.perf_counter()
        state, prob = ghz_after_postselection(APP)
        best = min(best, time.perf_counter() - t0)
    assert prob == pytest.approx(0.5, abs=1e-12)
    view = state.mode_view(MODES)
    assert set(view) == {("H", "V", "V", "H"), ("V", "H", "H", "V")}
    assert view[("H", "V", "V", "H")] == pytest.approx(S2, abs=1e-12)
    assert view[("V", "H", "H", "V")] == pytest.approx(S2, abs=1e-12)
    assert best < 1e-3
    print(f"\nPASS criterion 1: GHZ projection, success probability {prob:.12f}, "
          f"runtime {best * 1e6:.0f} us")


def test_criterion_2_hv_table():
    probs = exact_outcome_probabilities(APP, hv_setting(APP))
    assert probs["HVVH"] == pytest.approx(0.5, abs=1e-12)
    assert probs["VHHV"] == pytest.approx(0.5, abs=1e-12)
    assert all(
        p == pytest.approx(0.0, abs=1e-12)
        for k, p in probs.items()
        if k not in ("HVVH", "VHHV")
    )
    rates = RateModel()
    # monte_carlo_counts' tables, drawn from one exact table
    table = exact_outcome_probabilities(APP, hv_setting(APP), pbs_error=APP.pbs.error_rate)
    first = monte_carlo_counts(APP, hv_setting(APP), rates, 6000.0, seed=0)
    assert draw_counts(table, rates, 6000.0, seed=0).counts == first.counts
    des, bg = [], []
    for seed in range(1000):
        t = draw_counts(table, rates, 6000.0, seed=seed)
        des += [t.counts["HVVH"], t.counts["VHHV"]]
        bg += [c for k, c in t.counts.items() if k not in ("HVVH", "VHHV")]
    mean_bg = float(np.mean(bg))
    sem_bg = float(np.std(bg) / math.sqrt(len(bg)))
    snr = float(np.mean(des)) / mean_bg
    assert abs(mean_bg - 0.5) < 4 * sem_bg
    assert 170 <= snr <= 230
    print(f"\nPASS criterion 2: H/V table, mean background {mean_bg:.3f} "
          f"(+-{sem_bg:.3f}), SNR {snr:.1f}")


def test_criterion_3_45_degree_structure():
    probs = exact_outcome_probabilities(APP, diagonal_setting(APP), v0=1.0)
    nonzero = {k: p for k, p in probs.items() if p > 1e-12}
    assert len(nonzero) == 8
    for k, p in nonzero.items():
        assert k.count("+") % 2 == 0
        assert p == pytest.approx(0.125, abs=1e-12)
    print(f"\nPASS criterion 3: 45-degree basis, {len(nonzero)} even-parity "
          f"outcomes at probability 0.125")


def test_criterion_4_visibility():
    probs = exact_outcome_probabilities(
        APP, diagonal_setting(APP), delay=DelayElement(0.0), v0=0.79
    )
    vis = (probs["++++"] - probs["+++-"]) / (probs["++++"] + probs["+++-"])
    assert vis == pytest.approx(0.79, abs=1e-9)
    # Monte Carlo at count levels comparable to the experiment
    rates = RateModel()
    table = monte_carlo_counts(
        APP, diagonal_setting(APP), rates, 24000.0, seed=20,
        delay=DelayElement(0.0), v0=0.79,
    )
    v_mc, err = visibility_from_counts(table.counts, ["++++"], ["+++-"])
    # error bars overlap the reported 0.79 +- 0.06 band
    assert v_mc - err <= 0.79 + 0.06 and v_mc + err >= 0.79 - 0.06
    print(f"\nPASS criterion 4: exact visibility {vis:.9f}, Monte Carlo "
          f"{v_mc:.3f} +- {err:.3f}")


def test_criterion_5_bell_decomposition():
    state = tensor(spdc_pair(1, 2), spdc_pair(3, 4))
    dec = bell_decompose(state, pair_a=(1, 4), pair_b=(2, 3))
    expected = {
        ("psi+", "psi+"): 0.5,
        ("psi-", "psi-"): -0.5,
        ("phi+", "phi+"): -0.5,
        ("phi-", "phi-"): 0.5,
    }
    for key, c in dec.items():
        assert c == pytest.approx(expected.get(key, 0.0), abs=1e-12)
    rebuilt = np.zeros(16, dtype=complex)
    for (ka, kb), c in dec.items():
        basis = tensor(
            bell_state(ka, 1, 4, modes=("1", "4")),
            bell_state(kb, 2, 3, modes=("2", "3")),
        )
        rebuilt += c * basis.dense(["1", "2", "3", "4"])
    assert np.max(np.abs(rebuilt - state.dense(["1", "2", "3", "4"]))) < 1e-12
    print("\nPASS criterion 5: Bell decomposition (+1/2, -1/2, -1/2, +1/2), "
          "reconstruction exact")


def test_criterion_6_swapping_fidelity():
    psi = state_from_terms([1, 2, 3, 4], MODES, {"HVVH": S2, "VHHV": S2}, normalize=False)
    phi = state_from_terms([1, 2, 3, 4], MODES, {"HVVH": S2, "VHHV": -S2})
    rho = mix([(0.89, psi), (0.11, phi)], mode_order=MODES)
    op = phi_plus_via_45_coincidence(rho)
    # the abstract phi+ projection of photons 2'3', by the dense oracle
    phi_plus = oracle.dense_from_terms({"HH": S2, "VV": S2}, 2)
    reduced, prob = oracle.conditioned_pair(rho.matrix, [1, 2], [np.outer(phi_plus, phi_plus.conj())])
    assert op.fidelity_to_target == pytest.approx(0.89, abs=1e-9)
    assert op.visibility_45 == pytest.approx(0.78, abs=1e-9)
    assert np.max(np.abs(op.conditioned_state_14.matrix - reduced / prob)) < 1e-12
    print(f"\nPASS criterion 6: swap fidelity {op.fidelity_to_target:.9f}, "
          f"visibility {op.visibility_45:.9f}, operational == abstract")


def test_criterion_7_three_photon_ghz():
    state, prob = three_photon_ghz(APP, "2'", 45.0)
    view = state.mode_view(["1", "3'", "4"])
    assert prob == pytest.approx(0.5, abs=1e-12)
    for key in (("H", "V", "H"), ("V", "H", "V")):
        # each branch carries overall probability 0.25
        assert prob * abs(view[key]) ** 2 == pytest.approx(0.25, abs=1e-12)
    # brute-force oracle: dense projection of the GHZ vector onto +45 at 2'
    psi = oracle.dense_from_terms({"HVVH": S2, "VHHV": S2}, 4)
    bra = np.kron(np.kron(np.eye(2), oracle.analyzer_ket(45.0, "pass").conj()),
                  np.eye(4))
    reduced = bra @ psi
    assert prob == pytest.approx(float(np.linalg.norm(reduced) ** 2), abs=1e-12)
    reduced /= np.linalg.norm(reduced)
    assert np.max(np.abs(state.dense(["1", "3'", "4"]) - reduced)) < 1e-12
    print(f"\nPASS criterion 7: three-photon GHZ, branch probabilities 0.25 each, "
          f"success {prob:.12f}")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        angles = [float(rng.uniform(0, 180)) for _ in range(4)]
        v0 = float(rng.uniform(0, 1))
        probs = exact_outcome_probabilities(
            APP, MeasurementSetting(dict(zip(APP.detector_ids(), angles))), v0=v0
        )
        w = (1 + v0) / 2
        psi = oracle.dense_from_terms({"HVVH": S2, "VHHV": S2}, 4)
        phi = oracle.dense_from_terms({"HVVH": S2, "VHHV": -S2}, 4)
        ref = oracle.all_outcome_probabilities([(w, psi), (1 - w, phi)], angles)
        for key, p in ref.items():
            worst = max(worst, abs(probs[key] - p))
    assert worst < 1e-12
    for tau in np.linspace(0, 2200, 12):
        p_plus = exact_outcome_probabilities(
            APP, diagonal_setting(APP), delay=DelayElement(float(tau)), v0=0.79
        )
        p_minus = exact_outcome_probabilities(
            APP, diagonal_setting(APP), delay=DelayElement(float(-tau)), v0=0.79
        )
        assert p_plus == p_minus
    print(f"\nPASS criterion 8: dense-oracle agreement (worst |dp| {worst:.2e}), "
          f"delay-scan expectations even in tau")


def test_criterion_9_feasibility():
    # target events documented in the default config; phi+ identification
    # halves the usable rate
    target = 600000
    seconds = feasibility_estimate(target, RateModel()) / 0.5
    assert seconds > 1.58e7
    print(f"\nPASS criterion 9: Bell-test feasibility {seconds:.3g} s "
          f"({seconds / 2.592e6:.1f} months) > six months")
