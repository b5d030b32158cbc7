"""Independent dense-matrix oracle for cross-checking the sparse algebra.

Everything here works on explicit 2^n-dimensional numpy vectors built with
Kronecker products, never through the package's sparse code paths.
"""

import itertools

import numpy as np

KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)


def dense_from_terms(terms: dict, n: int) -> np.ndarray:
    """Dense vector from {"HVVH": amp, ...} over mode-ordered qubits."""
    vec = np.zeros(2**n, dtype=complex)
    for pols, amp in terms.items():
        v = np.array([1.0], dtype=complex)
        for p in pols:
            v = np.kron(v, KET_H if p == "H" else KET_V)
        vec += amp * v
    return vec


def analyzer_ket(angle_deg: float, branch: str) -> np.ndarray:
    t = np.radians(angle_deg)
    if branch == "pass":
        return np.array([np.cos(t), np.sin(t)], dtype=complex)
    return np.array([np.sin(t), -np.cos(t)], dtype=complex)


def outcome_probability(vec: np.ndarray, angles, branches) -> float:
    """|<analyzer outcome|psi>|^2 via an explicit projector product."""
    bra = np.array([1.0], dtype=complex)
    for ang, br in zip(angles, branches):
        bra = np.kron(bra, analyzer_ket(ang, br))
    return float(np.abs(bra.conj() @ vec) ** 2)


def mixture_outcome_probability(components, angles, branches) -> float:
    """components: list of (weight, dense vector)."""
    return sum(
        w * outcome_probability(v, angles, branches) for w, v in components
    )


def all_outcome_probabilities(components, angles) -> dict:
    """Probabilities over every pass/reject combination, keyed by +/- strings."""
    n = len(angles)
    out = {}
    for combo in itertools.product(("pass", "reject"), repeat=n):
        key = "".join("+" if b == "pass" else "-" for b in combo)
        out[key] = mixture_outcome_probability(components, angles, combo)
    return out


def correlation(components, angles) -> float:
    """E(theta_1..theta_n): parity-weighted sum over all outcomes."""
    total = 0.0
    for key, p in all_outcome_probabilities(components, angles).items():
        sign = (-1) ** key.count("-")
        total += sign * p
    return total


def pair_correlation_dense(rho: np.ndarray, angle_a: float, angle_b: float) -> float:
    """E(a, b) for a 4x4 two-photon density matrix."""
    def sigma(angle):
        a = analyzer_ket(angle, "pass")
        b = analyzer_ket(angle, "reject")
        return np.outer(a, a.conj()) - np.outer(b, b.conj())

    return float(np.trace(rho @ np.kron(sigma(angle_a), sigma(angle_b))).real)


def random_state_vector(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return v / np.linalg.norm(v)


def pbs_error_components(err: float, w: float) -> list:
    """(weight, vector) mixture of two singlets on photons (1,2) and (3,4)
    after photons 2 and 3 meet on a PBS and a four-fold coincidence is kept.

    Each PBS photon independently leaves by the wrong port with probability
    `err`. Per routing pattern, the coherent state carries weight `w` and
    its partner with the relative sign of the two terms flipped `1 - w`.
    Qubits are ordered by output mode 1, 2', 3', 4; weights sum to one.
    """
    components, total = [], 0.0
    for wrong2, wrong3 in itertools.product((False, True), repeat=2):
        p_route = err ** (wrong2 + wrong3) * (1 - err) ** (2 - wrong2 - wrong3)
        if p_route == 0.0:
            continue
        terms = {}
        for p1, p2, p3, p4 in itertools.product("HV", repeat=4):
            if p1 == p2 or p3 == p4:
                continue  # each singlet is (|HV> - |VH>)/sqrt2
            amp = (1 if p1 == "H" else -1) * (1 if p3 == "H" else -1) / 2
            # H from mode 2 and V from mode 3 exit in 2'; a wrong port swaps
            two_in_2p = (p2 == "H") != wrong2
            three_in_2p = (p3 == "V") != wrong3
            if two_in_2p == three_in_2p:
                continue  # both photons in one output: no four-fold
            in_2p, in_3p = (p2, p3) if two_in_2p else (p3, p2)
            terms[p1 + in_2p + in_3p + p4] = amp
        flipped = dict(terms)
        last = max(flipped)
        flipped[last] = -flipped[last]
        psi = dense_from_terms(terms, 4)
        components += [
            (p_route * w, psi),
            (p_route * (1 - w), dense_from_terms(flipped, 4)),
        ]
        total += p_route * float(np.vdot(psi, psi).real)
    return [(c / total, v) for c, v in components]
