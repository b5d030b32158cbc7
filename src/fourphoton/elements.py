"""Optical elements: polarizing beam-splitter and delay line.

The PBS transmits horizontal and reflects vertical polarization; it only
relabels spatial modes, amplitudes are untouched. Partial temporal overlap
of the two photons meeting at the PBS is abstracted into a scalar
distinguishability factor D(tau) that dephases the two branches of the
post-selected GHZ superposition.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .states import (H, DensityMatrix, PureState, StateError, as_number, check_type,
                     density_matrix, read_sequence, show)

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
        for side in ("input", "output"):  # each read once into the tuple that is stored
            message = f"PBS needs two distinct string {side} modes, got {{}}"
            modes = read_sequence(getattr(self, f"{side}_modes"), message)
            object.__setattr__(self, f"{side}_modes", modes)
            if not (len(modes) == 2 and all(isinstance(m, str) for m in modes)
                    and modes[0] != modes[1]):
                raise StateError(message.format(show(modes)))
        if not 0.0 <= as_number(self.error_rate) < 1.0:
            raise StateError(f"PBS error_rate {show(self.error_rate)} outside [0, 1)")

    def route(self, mode: str, pol: str, flipped: bool = False) -> str:
        a, b = self.input_modes
        c, d = self.output_modes
        transmit_like = (mode == a) == (pol == H)
        if flipped:
            transmit_like = not transmit_like
        return c if transmit_like else d


@dataclass(frozen=True)
class DelayElement:
    """Relative arrival delay of the two PBS photons, in femtoseconds."""

    delay_fs: float = 0.0
    coherence_time_fs: float = COHERENCE_TIME_FS

    def __post_init__(self):
        check_delay(self.delay_fs)
        check_coherence_time(self.coherence_time_fs)


def check_delay(delay_fs: float) -> None:
    """A `DelayElement`'s check of its delay, which `delay_scan` runs on each point.
    Like the coherence time's, its range test is negated, so that NaN fails it too."""
    if not -math.inf < as_number(delay_fs) < math.inf:
        raise StateError(f"delay {show(delay_fs)} fs is not finite")


def check_coherence_time(coherence_time_fs: float) -> float:
    """A `DelayElement`'s check of its coherence time: its float, which `overlap` takes and
    this returns, must be positive (the float of `Fraction(1, 10**400)` is 0.0)."""
    tau_c = float(as_number(coherence_time_fs))
    if not tau_c > 0:
        raise StateError(f"coherence time {show(coherence_time_fs)} fs must be positive")
    return tau_c


def distinguishability(delay: DelayElement) -> float:
    """Wave-packet overlap D(tau) = exp(-tau^2 / tau_c^2), as `overlap` computes it.

    Even in tau, 1 at zero delay, monotone decreasing in |tau|. The Gaussian
    form models Gaussian spectral filtering; any even decaying form would do.
    """
    check_type(delay, DelayElement, "delay {} is not a DelayElement")
    return overlap(delay.delay_fs, float(delay.coherence_time_fs))


def overlap(delay_fs: float, coherence_time_fs: float) -> float:
    """`distinguishability` of a delay that passed `check_delay` and of the float that
    `check_coherence_time` returned, in Python floats: where tau / tau_c or its square
    overflows to inf, D is 0.0, with no warning."""
    x = float(delay_fs) / coherence_time_fs
    return math.exp(-(x * x))


def dephasing_components(
    psi: np.ndarray, phi: np.ndarray | None, d: float, v0: float
) -> list[tuple[float, np.ndarray]]:
    """The dephasing channel on a dense vector `psi` with partner `phi` (see
    `states.dephasing_partner`), or on their projectors, as weighted pure
    components: (1 + d*v0)/2 on psi and the rest on phi. At d*v0 = 1, or for
    a one-branch vector (`phi` None), psi stays pure."""
    if not 0.0 <= as_number(d) <= 1.0:
        raise StateError(f"distinguishability {show(d)} outside [0, 1]")
    if not 0.0 <= as_number(v0) <= 1.0:
        raise StateError(f"zero-delay visibility {show(v0)} outside [0, 1]")
    if phi is None or d * v0 >= 1.0:
        return [(1.0, psi)]
    w = (1.0 + d * v0) / 2.0
    return [(w, psi), (1.0 - w, phi)]


def dephase_by_distinguishability(
    state_after_pbs: PureState, d: float, v0: float = VISIBILITY_ZERO_DELAY
) -> DensityMatrix:
    """Phase-flip channel between the two branches of a GHZ superposition.

    Returns rho = (1 + d*v0)/2 |psi><psi| + (1 - d*v0)/2 |phi><phi| where
    |phi> flips the relative sign of the two branches. d is the wave-packet
    overlap, v0 the zero-delay visibility ceiling. The projectors are the
    state's memoised ones; only the weights depend on d and v0.
    """
    check_type(state_after_pbs, PureState, "state {} is not a PureState")
    _, p_psi, p_phi = state_after_pbs.dephasing_projectors()
    components = dephasing_components(p_psi, p_phi, d, v0)  # its checks, before the memo
    return _dephased(state_after_pbs, *[float(w) for w, _ in components])


@functools.lru_cache(maxsize=64)
def _dephased(state: PureState, *weights: float) -> DensityMatrix:
    """`dephase_by_distinguishability` at the weights `dephasing_components` gave, as
    floats: a weight of any number type scales the projectors as its float does.
    Neither the state, a key by identity, nor the `DensityMatrix` returned can change."""
    modes, p_psi, p_phi = state.dephasing_projectors()
    return density_matrix(modes, zip(weights, (p_psi, p_phi)))
