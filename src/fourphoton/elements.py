"""Optical elements: polarizing beam-splitter, polarizer, delay line.

The PBS transmits horizontal and reflects vertical polarization; it only
relabels spatial modes, amplitudes are untouched. Partial temporal overlap
of the two photons meeting at the PBS is abstracted into a scalar
distinguishability factor D(tau) that dephases the two branches of the
post-selected GHZ superposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import (
    H,
    V,
    DensityMatrix,
    PostselectionError,
    PureState,
    StateError,
    analyze,
    slot_in_mode,
)

# Calibrated defaults of the experiment: the interference visibility measured
# at zero PBS delay, and the coherence time after spectral filtering.
VISIBILITY_ZERO_DELAY = 0.79
COHERENCE_TIME_FS = 550.0


@dataclass(frozen=True)
class PbsElement:
    """Polarizing beam-splitter between two labeled spatial modes.

    Routing rule: H in input a -> output c, V in input a -> output d,
    H in input b -> output d, V in input b -> output c. `error_rate` is the
    per-photon wrong-port probability. `monte_carlo_counts` passes it to
    `exact_outcome_probabilities` as `pbs_error`, which mixes the wrong-port
    routings in incoherently; that function's own default is the ideal PBS.
    """

    input_modes: tuple[str, str]
    output_modes: tuple[str, str]
    error_rate: float = 0.0

    def __post_init__(self):
        for side, modes in (("input", self.input_modes), ("output", self.output_modes)):
            if not (
                len(modes) == 2
                and all(isinstance(m, str) for m in modes)
                and modes[0] != modes[1]
            ):
                raise StateError(f"PBS needs two distinct string {side} modes, got {modes}")
        if not 0.0 <= self.error_rate < 1.0:
            raise StateError(f"PBS error_rate {self.error_rate} outside [0, 1)")

    def route(self, mode: str, pol: str, flipped: bool = False) -> str:
        a, b = self.input_modes
        c, d = self.output_modes
        transmit_like = (mode == a) == (pol == H)
        if flipped:
            transmit_like = not transmit_like
        return c if transmit_like else d


@dataclass(frozen=True)
class PolarizerElement:
    """Linear polarizer in one spatial mode; pass or reject port."""

    mode: str
    angle: float
    branch: str = "pass"

    def __post_init__(self):
        if not 0.0 <= self.angle < 180.0:
            raise StateError(f"polarizer angle {self.angle} outside [0, 180)")
        if self.branch not in ("pass", "reject"):
            raise StateError(f"unknown polarizer branch {self.branch!r}")


@dataclass(frozen=True)
class DelayElement:
    """Relative arrival delay of the two PBS photons, in femtoseconds."""

    delay_fs: float = 0.0
    coherence_time_fs: float = COHERENCE_TIME_FS

    def __post_init__(self):
        # negated range tests, so that NaN fails them too
        if not -math.inf < self.delay_fs < math.inf:
            raise StateError(f"delay {self.delay_fs} fs is not finite")
        if not self.coherence_time_fs > 0:
            raise StateError("coherence time must be positive")


def apply_polarizer(state: PureState, pol: PolarizerElement) -> tuple[PureState, float]:
    """Project the photon in the polarizer's mode onto its analyzer state.

    Returns the renormalized state and the projection probability. A
    zero-probability projection raises PostselectionError.
    """
    slot = slot_in_mode(pol.mode)
    port = H if pol.branch == "pass" else V
    kept = {
        ket: a for ket, a in analyze(state, slot, pol.angle).items() if ket[slot(ket)][0] == port
    }
    prob = sum(abs(a) ** 2 for a in kept.values())
    if prob <= 1e-30:
        raise PostselectionError("polarizer projection has zero probability")
    projected = PureState(state.photons, kept, normalize=False)
    return PureState(state.photons, analyze(projected, slot, pol.angle)), prob


def distinguishability(delay: DelayElement) -> float:
    """Wave-packet overlap D(tau) = exp(-tau^2 / tau_c^2).

    Even in tau, 1 at zero delay, monotone decreasing in |tau|. The Gaussian
    form models Gaussian spectral filtering; any even decaying form would do.
    """
    x = delay.delay_fs / delay.coherence_time_fs
    return math.exp(-(x * x))


def dephasing_weight(d: float, v0: float) -> float:
    """Weight (1 + d*v0)/2 of |psi> in the dephasing channel; |phi> gets the rest."""
    if not 0.0 <= d <= 1.0:
        raise StateError(f"distinguishability {d} outside [0, 1]")
    if not 0.0 <= v0 <= 1.0:
        raise StateError(f"zero-delay visibility {v0} outside [0, 1]")
    return (1.0 + d * v0) / 2.0


def dephasing_partner(psi: np.ndarray) -> np.ndarray:
    """|phi>: the dense two-branch vector `psi` with its last nonzero entry
    negated. It does not depend on the delay."""
    branches = np.flatnonzero(psi)
    if len(branches) != 2:
        raise StateError("dephasing expects a two-branch superposition")
    phi = psi.copy()
    phi[branches[-1]] *= -1
    return phi


def dephasing_components(
    psi: np.ndarray, d: float, v0: float
) -> list[tuple[float, np.ndarray]]:
    """The channel of `dephase_by_distinguishability` on a dense vector:
    its weighted pure components. At d*v0 = 1 the state stays pure."""
    w = dephasing_weight(d, v0)
    phi = dephasing_partner(psi)
    if d * v0 >= 1.0:
        return [(1.0, psi)]
    return [(w, psi), (1.0 - w, phi)]


def dephase_by_distinguishability(
    state_after_pbs: PureState, d: float, v0: float = VISIBILITY_ZERO_DELAY
) -> DensityMatrix:
    """Phase-flip channel between the two branches of a GHZ superposition.

    Returns rho = (1 + d*v0)/2 |psi><psi| + (1 - d*v0)/2 |phi><phi| where
    |phi> flips the relative sign of the two branches. d is the wave-packet
    overlap, v0 the zero-delay visibility ceiling.
    """
    modes = sorted({m for ket in state_after_pbs.amps for _, m in ket})
    rho = sum(
        w * np.outer(v, v.conj())
        for w, v in dephasing_components(state_after_pbs.dense(modes), d, v0)
    )
    return DensityMatrix(modes, rho)
