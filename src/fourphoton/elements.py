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
    POLS,
    DensityMatrix,
    PostselectionError,
    PureState,
    StateError,
    analyzer_overlap,
)

# Calibrated defaults of the experiment: the interference visibility measured
# at zero PBS delay, and the coherence time after spectral filtering.
VISIBILITY_ZERO_DELAY = 0.79
COHERENCE_TIME_FS = 550.0


class RoutingError(StateError):
    """A PBS input mode is missing or doubly occupied."""


@dataclass(frozen=True)
class PbsElement:
    """Polarizing beam-splitter between two labeled spatial modes.

    Routing rule: H in input a -> output c, V in input a -> output d,
    H in input b -> output d, V in input b -> output c. `error_rate` is the
    per-photon wrong-port probability (used by the Monte Carlo engine only;
    exact algebra keeps the PBS ideal).
    """

    input_modes: tuple[str, str]
    output_modes: tuple[str, str]
    error_rate: float = 0.0

    def __post_init__(self):
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
        if self.coherence_time_fs <= 0:
            raise StateError("coherence time must be positive")


def apply_pbs(
    state: PureState, pbs: PbsElement, flipped_photons: frozenset = frozenset()
) -> PureState:
    """Relabel modes per the PBS routing rule.

    `flipped_photons` routes the named photons to the wrong port (incoherent
    error model for Monte Carlo runs). Output kets may bunch two photons
    into one output mode; post-selection filters those later.
    """
    ins = set(pbs.input_modes)

    def reroute(ket, a):
        occupied = [mode for _, mode in ket if mode in ins]
        if sorted(occupied) != sorted(pbs.input_modes):
            raise RoutingError(
                f"PBS inputs {pbs.input_modes} not each occupied once in ket {ket}"
            )
        new_ket = tuple(
            (pol, pbs.route(mode, pol, idx_photon in flipped_photons))
            if mode in ins
            else (pol, mode)
            for (pol, mode), idx_photon in zip(ket, state.photons)
        )
        yield new_ket, a

    return PureState(state.photons, state.map_amplitudes(reroute), normalize=False)


def apply_polarizer(state: PureState, pol: PolarizerElement) -> tuple[PureState, float]:
    """Project the photon in the polarizer's mode onto its analyzer state.

    Returns the renormalized state and the projection probability. A
    zero-probability projection raises PostselectionError.
    """
    vec = {p: analyzer_overlap(p, pol.angle, pol.branch) for p in POLS}

    def project(ket, a):
        hits = [i for i, (_, mode) in enumerate(ket) if mode == pol.mode]
        if len(hits) != 1:
            raise StateError(
                f"polarizer mode {pol.mode!r} must hold exactly one photon, ket {ket}"
            )
        i = hits[0]
        overlap = vec[ket[i][0]]
        if overlap == 0.0:
            return
        for new_pol, comp in vec.items():
            if comp != 0.0:
                new_ket = ket[:i] + ((new_pol, pol.mode),) + ket[i + 1 :]
                yield new_ket, a * overlap * comp

    amps = state.map_amplitudes(project)
    prob = sum(abs(a) ** 2 for a in amps.values())
    if prob <= 1e-30:
        raise PostselectionError("polarizer projection has zero probability")
    return PureState(state.photons, amps, normalize=True), prob


def distinguishability(delay: DelayElement) -> float:
    """Wave-packet overlap D(tau) = exp(-tau^2 / tau_c^2).

    Even in tau, 1 at zero delay, monotone decreasing in |tau|. The Gaussian
    form models Gaussian spectral filtering; any even decaying form would do.
    """
    x = delay.delay_fs / delay.coherence_time_fs
    return math.exp(-(x * x))


def dephasing_components(
    psi: np.ndarray, d: float, v0: float
) -> list[tuple[float, np.ndarray]]:
    """The channel of `dephase_by_distinguishability` on a dense vector.

    Returns its weighted pure components; |phi> is `psi` with its last
    nonzero entry negated. At d*v0 = 1 the state stays pure.
    """
    if not 0.0 <= d <= 1.0:
        raise StateError(f"distinguishability {d} outside [0, 1]")
    if not 0.0 <= v0 <= 1.0:
        raise StateError(f"zero-delay visibility {v0} outside [0, 1]")
    branches = np.flatnonzero(psi)
    if len(branches) != 2:
        raise StateError("dephasing expects a two-branch superposition")
    if d * v0 >= 1.0:
        return [(1.0, psi)]
    phi = psi.copy()
    phi[branches[-1]] *= -1
    w = (1.0 + d * v0) / 2.0
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
