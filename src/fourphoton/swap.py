"""Entanglement-swapping analysis: Bell-basis decomposition, Bell-state
projection of the middle pair, conditional state of the outer pair, and
fidelity/visibility/CHSH metrics.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .states import (
    BELL_KINDS,
    POLS,
    DensityMatrix,
    PostselectionError,
    PureState,
    StateError,
    analyzer_overlap,
    bell_state,
    mix,
    tensor,
)

# Fixed vectors and operators on the analyzed pair, built once, read-only.
# Bell amplitudes over (HH, HV, VH, VV), and their projectors |v><v|
_BELL_VECS = {k: bell_state(k, 1, 2).dense(("1", "2")) for k in BELL_KINDS}
_BELL_PROJECTORS = {k: np.outer(v, v.conj()) for k, v in _BELL_VECS.items()}
# Kraus pair of the +45/+45 and -45/-45 coincidences; exact 1/sqrt2 like the Bell
# vectors: cos(45 deg) would move the last digits of the swap report
_KRAUS_45 = tuple(np.outer(w, w.conj()) for w in (np.kron(v, v) for v in (
    np.array([1, sign], dtype=complex) / math.sqrt(2) for sign in (1, -1))))
for _op in (*_BELL_VECS.values(), *_BELL_PROJECTORS.values(), *_KRAUS_45):
    _op.setflags(write=False)


@dataclass(frozen=True)
class SwapResult:
    conditioned_state_14: DensityMatrix
    projection_probability: float
    fidelity_to_target: float
    visibility_45: float


def bell_decompose(
    state: PureState,
    pair_a: tuple[int, int] = (1, 4),
    pair_b: tuple[int, int] = (2, 3),
) -> dict[tuple[str, str], complex]:
    """Coefficients of a four-photon state in the Bell x Bell product basis.

    Keys are (kind on pair_a, kind on pair_b). Summing coefficient x basis
    state reproduces the input.
    """
    if state.photon_count != 4:
        raise StateError("Bell decomposition needs a four-photon state")
    if set(pair_a) | set(pair_b) != set(state.photons):
        raise StateError("pairs must partition the state's photons")
    modes_a = tuple(state.fixed_mode(p) for p in pair_a)
    modes_b = tuple(state.fixed_mode(p) for p in pair_b)
    out: dict[tuple[str, str], complex] = {}
    for ka, kb in itertools.product(BELL_KINDS, repeat=2):
        basis = tensor(
            bell_state(ka, *pair_a, modes=modes_a),
            bell_state(kb, *pair_b, modes=modes_b),
        )
        out[(ka, kb)] = basis.inner(state)
    return out


def _as_density(state_or_rho, mode_order: Sequence[str] | None) -> DensityMatrix:
    if isinstance(state_or_rho, DensityMatrix):
        return state_or_rho
    return mix([(1.0, state_or_rho)], mode_order)


def _conditioned_pair_state(
    rho: DensityMatrix, pair_modes: Sequence[str], kraus_ops: Sequence[np.ndarray]
) -> tuple[np.ndarray, float, tuple[str, ...]]:
    """Sum of Kraus-projected states, traced down to the remaining pair."""
    n = len(rho.modes)
    rest_modes = tuple(m for m in rho.modes if m not in pair_modes)
    if n != 4 or len(pair_modes) != 2 or len(rest_modes) != 2:
        raise StateError(f"{tuple(pair_modes)} must be two of the four modes {rho.modes}")
    # pair qubits first on both sides: t[pair, rest, pair', rest']
    pos = [rho.modes.index(m) for m in pair_modes]
    order = pos + [i for i in range(n) if i not in pos]
    t = rho.matrix.reshape((2,) * (2 * n)).transpose(order + [n + i for i in order])
    t = t.reshape(4, 4, 4, 4)
    reduced = sum(np.einsum("pq,qarb,pr->ab", k, t, k.conj()) for k in kraus_ops)
    return reduced, float(np.trace(reduced).real), rest_modes


def _finish(
    reduced: np.ndarray, prob: float, rest_modes: tuple[str, ...]
) -> SwapResult:
    if prob <= 1e-30:
        raise PostselectionError("zero-probability Bell projection")
    rho14 = DensityMatrix(rest_modes, reduced / prob)
    v = _BELL_VECS["phi+"]
    f = float(np.real(v.conj() @ rho14.matrix @ v))
    return SwapResult(
        conditioned_state_14=rho14,
        projection_probability=prob,
        fidelity_to_target=f,
        visibility_45=2.0 * f - 1.0,
    )


def project_bell(
    state_or_rho,
    pair_modes: Sequence[str],
    kind: str,
    mode_order: Sequence[str] | None = None,
) -> SwapResult:
    """Project the photons in `pair_modes` onto a Bell state.

    Returns the conditional state of the remaining two photons, the
    projection probability, and fidelity/visibility relative to |phi+>.
    """
    if kind not in BELL_KINDS:
        raise StateError(f"unknown Bell kind {kind!r}")
    rho = _as_density(state_or_rho, mode_order)
    return _finish(*_conditioned_pair_state(rho, pair_modes, [_BELL_PROJECTORS[kind]]))


def phi_plus_via_45_coincidence(
    state_or_rho,
    pair_modes: Sequence[str] = ("2'", "3'"),
    mode_order: Sequence[str] | None = None,
) -> SwapResult:
    """Operational phi+ identification: +45/+45 or -45/-45 coincidences.

    Each coincidence outcome is a separate detection event, so the
    conditional state is the mixture over the two outcomes. On the PBS
    coincidence subspace (no psi+- component in the analyzed pair) this
    equals the abstract phi+ projection.
    """
    rho = _as_density(state_or_rho, mode_order)
    return _finish(*_conditioned_pair_state(rho, pair_modes, _KRAUS_45))


def visibility_from_counts(
    counts: Mapping[str, int],
    even_parity_keys: Sequence[str],
    odd_parity_keys: Sequence[str],
) -> tuple[float, float]:
    """Raw-data visibility (Ne - No)/(Ne + No) with first-order Poisson error.

    error = 2 sqrt(Ne * No / (Ne + No)^3).
    """
    ne = sum(counts[k] for k in even_parity_keys)
    no = sum(counts[k] for k in odd_parity_keys)
    total = ne + no
    if total == 0:
        raise StateError("visibility needs at least one count")
    v = (ne - no) / total
    err = 2.0 * math.sqrt(ne * no / total**3)
    return v, err


def _analyzer_operator(angle_deg: float) -> np.ndarray:
    """+1/-1 valued polarization observable |a><a| - |b><b| at the given angle."""
    a = [analyzer_overlap(p, angle_deg, "pass") for p in POLS]
    b = [analyzer_overlap(p, angle_deg, "reject") for p in POLS]
    return np.array([[a[i] * a[j] - b[i] * b[j] for j in range(2)] for i in range(2)])


def _product(sa: np.ndarray, sb: np.ndarray) -> np.ndarray:
    """np.kron(sa, sb) as one broadcast product, one multiply per entry."""
    return (sa[:, None, :, None] * sb[None, :, None, :]).reshape(4, 4)


def _expectation(rho_pair: DensityMatrix, op: np.ndarray) -> float:
    if len(rho_pair.modes) != 2:
        raise StateError("correlation needs a two-photon density matrix")
    return float(np.trace(rho_pair.matrix @ op).real)


def correlation(rho_pair: DensityMatrix, angle_a: float, angle_b: float) -> float:
    """E(a, b) = <sigma(a) x sigma(b)> for a two-photon density matrix."""
    return _expectation(
        rho_pair, _product(_analyzer_operator(angle_a), _analyzer_operator(angle_b))
    )


CHSH_PHI_PLUS_SETTINGS = ((0.0, 45.0), (22.5, 67.5))


@functools.lru_cache(maxsize=16)
def _chsh_observables(a: float, ap: float, b: float, bp: float) -> tuple[np.ndarray, ...]:
    """The four read-only CHSH observables sa x sb, sa x sb', sa' x sb, sa' x sb'."""
    sa, sap, sb, sbp = map(_analyzer_operator, (a, ap, b, bp))
    ops = (_product(sa, sb), _product(sa, sbp), _product(sap, sb), _product(sap, sbp))
    for op in ops:
        op.setflags(write=False)
    return ops


def chsh_value(
    rho_pair: DensityMatrix,
    settings: tuple[tuple[float, float], tuple[float, float]] = CHSH_PHI_PLUS_SETTINGS,
) -> float:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b'); |S| <= 2 for LHV models.

    The default settings are optimal for |phi+> (S = 2 sqrt 2).
    """
    (a, ap), (b, bp) = settings
    ab, abp, apb, apbp = _chsh_observables(a, ap, b, bp)
    return (
        _expectation(rho_pair, ab)
        - _expectation(rho_pair, abp)
        + _expectation(rho_pair, apb)
        + _expectation(rho_pair, apbp)
    )
