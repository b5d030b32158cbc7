"""Entanglement-swapping analysis: Bell-basis decomposition, phi+
identification of the middle pair via 45-degree coincidences, conditional
state of the outer pair, and fidelity/visibility/CHSH metrics.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .states import (
    BELL_KINDS,
    DensityMatrix,
    PostselectionError,
    PureState,
    StateError,
    as_number,
    bell_state,
    check_angle,
    check_type,
    is_photon_pair,
    read_sequence,
    show,
    unchecked_analyzer_matrix,
)

# Fixed vectors and operators on the analyzed pair, built once, read-only:
# Bell amplitudes over (HH, HV, VH, VV) and their bras <v| stacked
_BELL_VECS = {k: bell_state(k, 1, 2).dense(("1", "2")) for k in BELL_KINDS}
_BELL_BRAS = np.stack(list(_BELL_VECS.values())).conj()
for _v in (*_BELL_VECS.values(), _BELL_BRAS):
    _v.setflags(write=False)
del _v


def _effect(kraus_ops) -> np.ndarray:
    """sum_k K_k^T conj(K_k) over the Kraus operators K_k of a measurement on
    the pair: the transpose of its POVM element F = sum_k K_k^dagger K_k, all
    that conditioning reads of them once the pair is traced out."""
    effect = sum(k.T @ k.conj() for k in kraus_ops)
    effect.setflags(write=False)
    return effect


# The effect of the +45/+45 and -45/-45 coincidences: exact 1/sqrt2 like the
# Bell vectors, since cos(45 deg) would move the last digits of the swap
# report. Not P++ + P--, whose other rounding moves them too.
_EFFECT_45 = _effect(np.outer(w, w.conj()) for w in (np.kron(v, v) for v in (
    np.array([1, sign], dtype=complex) / math.sqrt(2) for sign in (1, -1))))


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
    check_type(state, PureState, "state {} is not a PureState")
    pair_a, pair_b = (read_sequence(p, "Bell pair {} is not a sequence") for p in (pair_a, pair_b))
    if not (is_photon_pair(pair_a) and is_photon_pair(pair_b)
            and sorted((*pair_a, *pair_b)) == list(state.photons)):
        raise StateError("Bell decomposition needs two pairs that partition a four-photon "
                         f"state, got {show(pair_a)} and {show(pair_b)}")
    # amplitudes psi[pair_a bits, pair_b bits], contracted with <ka| and <kb|
    psi = state.dense([state.fixed_mode(p) for p in (*pair_a, *pair_b)]).reshape(4, 4)
    coeffs = (_BELL_BRAS @ psi @ _BELL_BRAS.T).ravel().tolist()
    return dict(zip(itertools.product(BELL_KINDS, repeat=2), coeffs))


def _pair_positions(rho: DensityMatrix, pair_modes: Sequence[str]) -> tuple[int, ...]:
    """The positions in `rho.modes` of the measured pair, then of the rest: the checks
    of a conditioning step on a four-mode `DensityMatrix`, whose result keys its memo."""
    check_type(rho, DensityMatrix, "rho {} is not a DensityMatrix")
    pair_modes = read_sequence(pair_modes, "pair modes {} are not a sequence of mode tags")
    rest = [i for i, m in enumerate(rho.modes) if m not in pair_modes]
    if len(rho.modes) != 4 or len(pair_modes) != 2 or len(rest) != 2:
        raise StateError(f"{show(pair_modes)} must be two of the four modes {rho.modes}")
    return (rho.modes.index(pair_modes[0]), rho.modes.index(pair_modes[1]), *rest)


def _condition(rho: DensityMatrix, order: tuple[int, ...], effect: np.ndarray) -> SwapResult:
    """The remaining pair conditioned on a measurement of the photons at the
    first two `_pair_positions` `order`: tr_pair(F rho) as one contraction with
    `effect` = F^T (see `_effect`), renormalized, with its fidelity to |phi+>."""
    # pair qubits first on both sides: t[pair, rest, pair', rest']
    t = rho.matrix.reshape((2,) * 8).transpose([*order, *(4 + i for i in order)])
    t = t.reshape(4, 4, 4, 4)
    reduced = np.einsum("qr,qarb->ab", effect, t)
    prob = float(reduced.trace().real)
    if prob <= 1e-30:
        raise PostselectionError("zero-probability Bell projection")
    rest_modes = (rho.modes[order[2]], rho.modes[order[3]])
    rho14 = DensityMatrix.__new__(DensityMatrix)._own(rest_modes, reduced / prob)
    f = float((_BELL_BRAS[BELL_KINDS.index("phi+")] @ rho14.matrix @ _BELL_VECS["phi+"]).real)
    return SwapResult(rho14, prob, f, 2.0 * f - 1.0)


def phi_plus_via_45_coincidence(
    rho: DensityMatrix, pair_modes: Sequence[str] = ("2'", "3'")
) -> SwapResult:
    """Operational phi+ identification: +45/+45 or -45/-45 coincidences.

    Each coincidence outcome is a separate detection event, so the
    conditional state is the mixture over the two outcomes. On the PBS
    coincidence subspace (no psi+- component in the analyzed pair) this
    equals the abstract phi+ projection.
    """
    return _coincidence_45(rho, _pair_positions(rho, pair_modes))


@functools.lru_cache(maxsize=64)
def _coincidence_45(rho: DensityMatrix, order: tuple[int, ...]) -> SwapResult:
    """`phi_plus_via_45_coincidence` at checked `_pair_positions`; `rho` cannot change."""
    return _condition(rho, order, _EFFECT_45)


def visibility_from_counts(
    counts: Mapping[str, int],
    even_parity_keys: Sequence[str],
    odd_parity_keys: Sequence[str],
) -> tuple[float, float]:
    """Raw-data visibility (Ne - No)/(Ne + No) with first-order Poisson error.

    error = 2 sqrt(Ne * No / (Ne + No)^3).
    """
    check_type(counts, Mapping, "counts {} are not a mapping of outcomes")
    message = "parity keys {} are not a sequence of outcomes"
    even, odd = read_sequence(even_parity_keys, message), read_sequence(odd_parity_keys, message)
    for k in (*even, *odd):
        try:
            n = counts[k]
        except (KeyError, TypeError):  # TypeError: an unhashable key
            raise StateError(f"no count for outcome {show(k)} in the table") from None
        if not 0 <= as_number(n) < math.inf:
            raise StateError(f"count {show(k)} is not a finite nonnegative number: {show(n)}")
    ne, no = sum(counts[k] for k in even), sum(counts[k] for k in odd)
    total = ne + no
    if total == 0:
        raise StateError("visibility needs at least one count")
    v = (ne - no) / total
    err = 2.0 * math.sqrt(ne * no / total**3)
    return v, err


CHSH_PHI_PLUS_SETTINGS = ((0.0, 45.0), (22.5, 67.5))


@functools.lru_cache(maxsize=16)
def _chsh_observables(a: float, ap: float, b: float, bp: float) -> np.ndarray:
    """The CHSH observables sa x sb, sa x sb', sa' x sb, sa' x sb' as one read-only
    (4, 4, 4) stack; s = |theta><theta| - |theta_perp><theta_perp| at a `check_angle` key."""
    sa, sap, sb, sbp = (np.outer(m[0], m[0]) - np.outer(m[1], m[1])
                        for m in map(unchecked_analyzer_matrix, (a, ap, b, bp)))
    ops = np.stack([np.kron(x, y) for x in (sa, sap) for y in (sb, sbp)])
    ops.setflags(write=False)
    return ops


def chsh_value(
    rho_pair: DensityMatrix,
    settings: tuple[tuple[float, float], tuple[float, float]] = CHSH_PHI_PLUS_SETTINGS,
) -> float:
    """S = E(a,b) - E(a,b') + E(a',b) + E(a',b'); |S| <= 2 for LHV models.

    The default settings are optimal for |phi+> (S = 2 sqrt 2). The four
    correlations are one batched product with the stacked observables.
    """
    check_type(rho_pair, DensityMatrix, "rho_pair {} is not a DensityMatrix")
    if len(rho_pair.modes) != 2:
        raise StateError("chsh_value needs a two-photon density matrix")
    try:
        (a, ap), (b, bp) = settings
    except (TypeError, ValueError):
        raise StateError("CHSH settings must be two pairs of angles ((a, a'), (b, b')), "
                         f"got {show(settings)}") from None
    return _chsh(rho_pair, check_angle(a), check_angle(ap), check_angle(b), check_angle(bp))


@functools.lru_cache(maxsize=64)
def _chsh(rho_pair: DensityMatrix, a: float, ap: float, b: float, bp: float) -> float:
    """`chsh_value` at four `check_angle` keys; `rho_pair` cannot change."""
    products = rho_pair.matrix @ _chsh_observables(a, ap, b, bp)
    ab, abp, apb, apbp = products.trace(axis1=1, axis2=2).real.tolist()
    return ab - abp + apb + apbp
