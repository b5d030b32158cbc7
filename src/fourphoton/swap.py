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
    DensityMatrix,
    PostselectionError,
    PureState,
    StateError,
    analyzer_matrix,
    bell_state,
    kron,
)

# Fixed vectors and operators on the analyzed pair, built once, read-only:
# Bell amplitudes over (HH, HV, VH, VV), their bras <v| stacked, their projectors |v><v|
_BELL_VECS = {k: bell_state(k, 1, 2).dense(("1", "2")) for k in BELL_KINDS}
_BELL_BRAS = np.stack(list(_BELL_VECS.values())).conj()
_BELL_PROJECTORS = {k: np.outer(v, v.conj()) for k, v in _BELL_VECS.items()}
# Kraus pair of the +45/+45 and -45/-45 coincidences; exact 1/sqrt2 like the Bell
# vectors: cos(45 deg) would move the last digits of the swap report
_KRAUS_45 = tuple(np.outer(w, w.conj()) for w in (np.kron(v, v) for v in (
    np.array([1, sign], dtype=complex) / math.sqrt(2) for sign in (1, -1))))
for _op in (*_BELL_VECS.values(), _BELL_BRAS, *_BELL_PROJECTORS.values(), *_KRAUS_45):
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
    if not len(pair_a) == len(pair_b) == 2 or sorted((*pair_a, *pair_b)) != list(state.photons):
        raise StateError("Bell decomposition needs two pairs that partition a four-photon state")
    # amplitudes psi[pair_a bits, pair_b bits], contracted with <ka| and <kb|
    psi = state.dense([state.fixed_mode(p) for p in (*pair_a, *pair_b)]).reshape(4, 4)
    coeffs = (_BELL_BRAS @ psi @ _BELL_BRAS.T).ravel().tolist()
    return dict(zip(itertools.product(BELL_KINDS, repeat=2), coeffs))


def _condition(
    rho: DensityMatrix, pair_modes: Sequence[str], kraus_ops: Sequence[np.ndarray]
) -> SwapResult:
    """Sum of Kraus-projected states, traced down to the remaining pair and
    renormalized, with its fidelity to |phi+>."""
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
    prob = float(reduced.trace().real)
    if prob <= 1e-30:
        raise PostselectionError("zero-probability Bell projection")
    rho14 = DensityMatrix(rest_modes, reduced / prob)
    f = float((_BELL_BRAS[BELL_KINDS.index("phi+")] @ rho14.matrix @ _BELL_VECS["phi+"]).real)
    return SwapResult(
        conditioned_state_14=rho14,
        projection_probability=prob,
        fidelity_to_target=f,
        visibility_45=2.0 * f - 1.0,
    )


def project_bell(rho: DensityMatrix, pair_modes: Sequence[str], kind: str) -> SwapResult:
    """Project the photons in `pair_modes` of a four-photon density matrix
    onto a Bell state.

    Returns the conditional state of the remaining two photons, the
    projection probability, and fidelity/visibility relative to |phi+>.
    """
    if kind not in BELL_KINDS:
        raise StateError(f"unknown Bell kind {kind!r}")
    return _condition(rho, pair_modes, [_BELL_PROJECTORS[kind]])


def phi_plus_via_45_coincidence(
    rho: DensityMatrix, pair_modes: Sequence[str] = ("2'", "3'")
) -> SwapResult:
    """Operational phi+ identification: +45/+45 or -45/-45 coincidences.

    Each coincidence outcome is a separate detection event, so the
    conditional state is the mixture over the two outcomes. On the PBS
    coincidence subspace (no psi+- component in the analyzed pair) this
    equals the abstract phi+ projection.
    """
    return _condition(rho, pair_modes, _KRAUS_45)


def visibility_from_counts(
    counts: Mapping[str, int],
    even_parity_keys: Sequence[str],
    odd_parity_keys: Sequence[str],
) -> tuple[float, float]:
    """Raw-data visibility (Ne - No)/(Ne + No) with first-order Poisson error.

    error = 2 sqrt(Ne * No / (Ne + No)^3).
    """
    for k in (*even_parity_keys, *odd_parity_keys):
        if counts[k] < 0:
            raise StateError(f"count {k!r} is negative: {counts[k]}")
    ne = sum(counts[k] for k in even_parity_keys)
    no = sum(counts[k] for k in odd_parity_keys)
    total = ne + no
    if total == 0:
        raise StateError("visibility needs at least one count")
    v = (ne - no) / total
    err = 2.0 * math.sqrt(ne * no / total**3)
    return v, err


def _observable(angle_a: float, angle_b: float) -> np.ndarray:
    """sigma(a) x sigma(b); sigma = |theta><theta| - |theta_perp><theta_perp|."""
    sa, sb = (np.outer(m[0], m[0]) - np.outer(m[1], m[1])
              for m in map(analyzer_matrix, (angle_a, angle_b)))
    return kron(sa, sb)


def correlation(rho_pair: DensityMatrix, angle_a: float, angle_b: float) -> float:
    """E(a, b) = <sigma(a) x sigma(b)> for a two-photon density matrix."""
    if len(rho_pair.modes) != 2:
        raise StateError("correlation needs a two-photon density matrix")
    return float(np.trace(rho_pair.matrix @ _observable(angle_a, angle_b)).real)


CHSH_PHI_PLUS_SETTINGS = ((0.0, 45.0), (22.5, 67.5))


@functools.lru_cache(maxsize=16)
def _chsh_observables(a: float, ap: float, b: float, bp: float) -> np.ndarray:
    """The CHSH observables sa x sb, sa x sb', sa' x sb, sa' x sb' as one
    read-only (4, 4, 4) stack."""
    ops = np.stack([_observable(x, y) for x, y in ((a, b), (a, bp), (ap, b), (ap, bp))])
    ops.setflags(write=False)
    return ops


def chsh_value(
    rho_pair: DensityMatrix,
    settings: tuple[tuple[float, float], tuple[float, float]] = CHSH_PHI_PLUS_SETTINGS,
) -> float:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b'); |S| <= 2 for LHV models.

    The default settings are optimal for |phi+> (S = 2 sqrt 2). The four
    correlations are one batched product with the stacked observables, each
    the same trace as `correlation`'s.
    """
    if len(rho_pair.modes) != 2:
        raise StateError("correlation needs a two-photon density matrix")
    (a, ap), (b, bp) = settings
    products = rho_pair.matrix @ _chsh_observables(a, ap, b, bp)
    ab, abp, apb, apbp = products.trace(axis1=1, axis2=2).real.tolist()
    return ab - abp + apb + apbp
