"""Apparatus composition, post-selection, exact outcome probabilities, and
seeded Monte Carlo coincidence counting.

The default apparatus mirrors the two-pair source + PBS layout: singlet
pairs on photons (1,2) and (3,4), a PBS combining modes 2 and 3 into 2' and
3', and detectors D1..D4 watching modes 1, 2', 3', 4. Four-fold coincidence
post-selection keeps only kets with exactly one photon per detector mode.

Rates are calibrated to the reported summary statistics: 0.5 background
four-fold counts per non-desired combination in 6000 s, and a 200:1 ratio
of each desired combination to that background.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from numbers import Integral
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .elements import (
    COHERENCE_TIME_FS,
    VISIBILITY_ZERO_DELAY,
    DelayElement,
    PbsElement,
    dephasing_components,
    dephasing_partner,
    distinguishability,
)
from .states import (
    POLS,
    PostselectionError,
    PureState,
    StateError,
    analyzer_matrix,
    kron,
    spdc_pair,
    state_from_terms,
    tensor,
)


@dataclass(frozen=True)
class PairSource:
    """One down-conversion pair: photon indices and their initial modes."""

    photons: tuple[int, int]
    modes: tuple[str, str]

    def __post_init__(self):
        photons, modes = self.photons, self.modes
        if not (
            len(photons) == 2
            and all(isinstance(p, Integral) and not isinstance(p, bool) for p in photons)
            and photons[0] != photons[1]
        ):
            raise StateError(f"a pair source needs two distinct photon indices, got {photons}")
        if not (len(modes) == 2 and all(isinstance(m, str) for m in modes)):
            raise StateError(f"a pair source needs two string modes, got {modes}")


@dataclass(frozen=True)
class Apparatus:
    sources: tuple[PairSource, ...]
    pbs: PbsElement
    detectors: Mapping[str, str]  # detector id -> mode, read-only

    def __post_init__(self):
        # read-only copies, so that the compiled patterns cannot go stale
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "detectors", MappingProxyType(dict(self.detectors)))
        modes = list(self.detectors.values())
        if len(modes) != 4 or not all(isinstance(m, str) for m in modes):
            raise StateError(f"a four-fold needs four detectors on string modes, got {modes}")
        if len(set(modes)) != len(modes):
            raise StateError("each detector must watch a distinct mode")
        # the PBS layout rule: each input mode holds exactly one source photon
        if not self.sources:
            raise StateError("an apparatus needs at least one pair source")
        photons = [p for s in self.sources for p in s.photons]
        held = [m for s in self.sources for m in s.modes]
        if len(set(photons)) != len(photons):
            raise StateError(f"source photons {photons} are not distinct")
        if len(set(held)) != len(held):
            raise StateError(f"source modes {held} are not distinct")
        missing = [m for m in self.pbs.input_modes if m not in held]
        if missing:
            raise StateError(f"PBS input modes {missing} hold no source photon")
        if any(set(self.pbs.input_modes) <= set(s.modes) for s in self.sources):
            raise StateError("both PBS input modes hold photons of one pair")

    def __reduce__(self):
        # rebuilt from its fields: a mapping proxy does not pickle, the memo need not
        return (Apparatus, (self.sources, self.pbs, dict(self.detectors)))

    @cached_property
    def _compiled(self) -> dict:
        """Routing pattern -> entry of `_compiled_pattern`, filled on first use."""
        return {}

    def detector_ids(self) -> list[str]:
        return sorted(self.detectors)

    def mode_order(self) -> list[str]:
        return [self.detectors[d] for d in self.detector_ids()]


def default_apparatus(pbs_error: float = 0.0) -> Apparatus:
    return Apparatus(
        sources=(
            PairSource((1, 2), ("1", "2")),
            PairSource((3, 4), ("3", "4")),
        ),
        pbs=PbsElement(("2", "3"), ("2'", "3'"), error_rate=pbs_error),
        detectors={"D1": "1", "D2": "2'", "D3": "3'", "D4": "4"},
    )


@dataclass(frozen=True)
class MeasurementSetting:
    """Per-detector analyzer angles in degrees, keyed by the apparatus's
    detector ids (an exact model raises StateError for any other key). A None
    or missing angle is analysed at 0 degrees, with outcomes labelled "+"/"-"
    instead of "H"/"V"."""

    angles: Mapping[str, float | None]

    def angle(self, detector: str) -> float | None:
        return self.angles.get(detector)

    @staticmethod
    def labels(angle: float | None) -> tuple[str, str]:
        """Outcome symbols for the pass/reject analyzer ports."""
        if angle == 0.0:
            return ("H", "V")
        return ("+", "-")


def hv_setting(apparatus: Apparatus) -> MeasurementSetting:
    return MeasurementSetting({d: 0.0 for d in apparatus.detector_ids()})


def diagonal_setting(apparatus: Apparatus) -> MeasurementSetting:
    return MeasurementSetting({d: 45.0 for d in apparatus.detector_ids()})


@dataclass(frozen=True)
class RateModel:
    """Count-rate calibration for the Monte Carlo engine.

    fourfold_rate_desired is the rate of the two desired outcomes combined;
    the default (1/30 per second) makes each desired combination 200 times
    the 0.5-per-6000-s background floor.
    """

    fourfold_rate_desired: float = 200.0 / 6000.0
    background_fourfold_rate: float = 0.5 / 6000.0
    detector_efficiency: float = 1.0
    dark_count_rate: float = 0.0
    coincidence_window_s: float = 3e-9

    def __post_init__(self):
        # negated range tests, so that NaN fails them too
        for rate in (self.fourfold_rate_desired, self.background_fourfold_rate):
            if not 0 <= rate < math.inf:
                raise StateError("rates must be finite and nonnegative")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise StateError("detector efficiency must lie in (0, 1]")
        if not 0 <= self.dark_count_rate < math.inf:
            raise StateError("dark count rate must be finite and nonnegative")
        if not 0 < self.coincidence_window_s < math.inf:
            raise StateError("coincidence window must be finite and positive")
        try:
            derived = (self.effective_fourfold_rate(), self.accidental_fourfold_rate())
            finite = all(map(math.isfinite, derived))
        except OverflowError:  # float ** past float range, or too large an integer
            finite = False
        if not finite:
            raise StateError("the derived four-fold rates overflow a float")

    def effective_fourfold_rate(self) -> float:
        return self.fourfold_rate_desired * self.detector_efficiency**4

    def accidental_fourfold_rate(self) -> float:
        # four independent dark counts landing in one window
        return self.dark_count_rate**4 * self.coincidence_window_s**3


@dataclass(frozen=True)
class CountTable:
    counts: Mapping[str, int]
    integration_time: float
    seed: int

    def total(self) -> int:
        return sum(self.counts.values())


def source_state(apparatus: Apparatus) -> PureState:
    return reduce(tensor, (spdc_pair(*s.photons, modes=s.modes) for s in apparatus.sources))


def ghz_after_postselection(
    apparatus: Apparatus, flipped_photons: frozenset = frozenset()
) -> tuple[PureState, float]:
    """Route the source photons through the PBS and keep the four-fold
    coincidences: the kets with one photon in each detector mode.

    `flipped_photons` routes the named photons to the wrong port (the
    incoherent PBS error model). Returns the renormalized state and the
    kept probability mass.
    """
    source = source_state(apparatus)
    pbs = apparatus.pbs
    wanted = sorted(apparatus.mode_order())
    kept = {}
    for ket, a in source.amps.items():
        routed = tuple(
            (pol, pbs.route(mode, pol, photon in flipped_photons))
            if mode in pbs.input_modes
            else (pol, mode)
            for (pol, mode), photon in zip(ket, source.photons)
        )
        if sorted(m for _, m in routed) == wanted:
            kept[routed] = a
    prob = sum(abs(a) ** 2 for a in kept.values())
    if prob <= 1e-30:
        raise PostselectionError(
            f"no amplitude with one photon in each of {apparatus.mode_order()}"
        )
    return PureState(source.photons, kept), prob


def _compiled_pattern(apparatus: Apparatus, flipped: frozenset):
    """`ghz_after_postselection` once per apparatus and routing pattern, as
    (p_sel, dense vector psi, its dephasing partner phi or None for a
    one-branch pattern), both read-only; None if nothing survives."""
    memo = apparatus._compiled
    if flipped not in memo:
        try:
            state, p_sel = ghz_after_postselection(apparatus, flipped)
        except PostselectionError:
            memo[flipped] = None
        else:
            psi = state.dense(apparatus.mode_order())
            phi = None if len(state.amps) == 1 else dephasing_partner(psi)
            for v in (psi, phi):
                if v is not None:
                    v.flags.writeable = False
            memo[flipped] = (p_sel, psi, phi)
    return memo[flipped]


def _exact_model(
    apparatus: Apparatus, setting: MeasurementSetting, pbs_error: float | None
) -> Callable[[float, float], dict[str, float]]:
    """The delay-free part of `exact_outcome_probabilities`, done once.

    Returns `evaluate(d, v0)`: the probabilities at distinguishability d and
    zero-delay visibility v0, which only weigh the fixed rows |K v|^2 of the
    post-selected vectors and their dephasing partners.
    """
    unknown = [d for d in setting.angles if d not in apparatus.detectors]
    if unknown:
        raise StateError(f"unknown detectors {unknown}, not in {apparatus.detector_ids()}")
    err = 0.0 if pbs_error is None else pbs_error
    if not 0.0 <= err < 1.0:  # negated, so that NaN fails it too
        raise StateError(f"PBS error_rate {err} outside [0, 1)")

    # the photon in each PBS input, in input order, so that the sum over
    # patterns does not depend on how the sources are listed or labelled
    pbs_photons: list[int] = []
    if err > 0.0:
        holder = {m: ph for src in apparatus.sources for ph, m in zip(src.photons, src.modes)}
        pbs_photons = [holder[m] for m in apparatus.pbs.input_modes]

    # with an ideal PBS this is the single pattern (1.0, frozenset())
    patterns: list[tuple[float, frozenset]] = []
    for r in range(len(pbs_photons) + 1):
        for subset in itertools.combinations(pbs_photons, r):
            w = err ** len(subset) * (1 - err) ** (len(pbs_photons) - len(subset))
            patterns.append((w, frozenset(subset)))

    # (weight, psi, dephasing partner or None) per surviving pattern
    parts: list[tuple[float, np.ndarray, np.ndarray | None]] = []
    total_mass = 0.0
    for w_pat, flipped in patterns:
        compiled = _compiled_pattern(apparatus, flipped)
        if compiled is None:
            continue
        p_sel, psi, phi = compiled
        w = w_pat * p_sel
        total_mass += w
        parts.append((w, psi, phi))
    if total_mass <= 0.0:
        raise PostselectionError("no routing pattern survives post-selection")

    analyzers, labels = [], []
    for det in apparatus.detector_ids():
        ang = setting.angle(det)
        labels.append(MeasurementSetting.labels(ang))
        analyzers.append(analyzer_matrix(0.0 if ang is None else ang))
    # Kronecker product of the 2x2 analyzers in detector order, ((A1 x A2) x A3) x A4
    analyzer = reduce(kron, analyzers)
    keys = tuple(map("".join, itertools.product(*labels)))
    # rows per number of channel components, built on first use: a pure
    # channel (d*v0 >= 1) stacks only the psi vectors, because numpy rounds a
    # product of fewer rows differently
    rows: dict[int, np.ndarray] = {}

    def evaluate(d: float, v0: float) -> dict[str, float]:
        weights: list[float] = []
        vectors: list[np.ndarray] = []
        for w, psi, phi in parts:
            for w_branch, v in dephasing_components(psi, phi, d, v0):
                weights.append(w * w_branch)
                vectors.append(v)
        if len(vectors) not in rows:
            rows[len(vectors)] = np.abs(np.stack(vectors) @ analyzer.T) ** 2
        probs = np.asarray(weights) @ rows[len(vectors)]
        return dict(zip(keys, (probs / total_mass).tolist()))

    return evaluate


def exact_outcome_probabilities(
    apparatus: Apparatus,
    setting: MeasurementSetting,
    delay: DelayElement | None = None,
    v0: float = VISIBILITY_ZERO_DELAY,
    pbs_error: float | None = None,
) -> dict[str, float]:
    """Probabilities over the 16 analyzer outcomes, conditioned on a
    four-fold coincidence.

    `pbs_error` mixes in incoherent wrong-port routing per PBS photon (the
    count tables pass the PBS's configured rate; the exact path defaults to
    None, the ideal PBS). Like that rate it must lie in [0, 1), else
    StateError. Each call compiles `_exact_model` and evaluates it once.
    """
    d = 1.0 if delay is None else distinguishability(delay)
    return _exact_model(apparatus, setting, pbs_error)(d, v0)


def _check_integration_time(integration_time: float) -> None:
    # a negated range test, so that NaN fails it too
    if not 0 <= integration_time < math.inf:
        raise StateError(f"integration time {integration_time} s is not finite and nonnegative")


def _check_seed(seed: int) -> None:
    if seed < 0:  # numpy's seeding would end in a bare ValueError
        raise StateError(f"seed {seed} must be nonnegative")


def draw_counts(
    probs: Mapping[str, float], rates: RateModel, integration_time: float, seed: int
) -> CountTable:
    """Seeded Poisson draw of four-fold coincidence counts per outcome.

    Expected count per outcome = probability x desired four-fold rate x time,
    plus a flat background (and dark-count accidental) floor. Deterministic
    for a given seed (numpy PCG64).
    """
    _check_integration_time(integration_time)
    _check_seed(seed)
    rate = rates.effective_fourfold_rate()
    floor = rates.background_fourfold_rate + rates.accidental_fourfold_rate()
    rng = np.random.default_rng(seed)
    counts = {}
    for key, p in probs.items():
        lam = (p * rate + floor) * integration_time
        try:
            counts[key] = int(rng.poisson(lam)) if lam > 0 else 0
        except ValueError as exc:
            raise StateError(
                f"outcome {key}: expected count {lam:.3g} cannot be drawn ({exc})"
            ) from exc
    return CountTable(counts=counts, integration_time=integration_time, seed=seed)


def monte_carlo_counts(
    apparatus: Apparatus,
    setting: MeasurementSetting,
    rates: RateModel,
    integration_time: float,
    seed: int,
    delay: DelayElement | None = None,
    v0: float = VISIBILITY_ZERO_DELAY,
) -> CountTable:
    """`draw_counts` from the exact probabilities with the PBS's error rate."""
    # checked before the exact model too, so that it is reported first
    _check_integration_time(integration_time)
    probs = exact_outcome_probabilities(
        apparatus, setting, delay=delay, v0=v0, pbs_error=apparatus.pbs.error_rate
    )
    return draw_counts(probs, rates, integration_time, seed)


def derive_point_seed(seed: int, point_index: int) -> int:
    """Deterministic per-point stream seed for parallel-safe scans."""
    _check_seed(seed)
    return int(np.random.SeedSequence([seed, point_index]).generate_state(1)[0])


def delay_scan(
    apparatus: Apparatus,
    setting: MeasurementSetting,
    delays_fs: Sequence[float],
    rates: RateModel,
    time_per_point: float,
    seed: int,
    coherence_time_fs: float = COHERENCE_TIME_FS,
    v0: float = VISIBILITY_ZERO_DELAY,
) -> list[tuple[float, CountTable]]:
    """One Monte Carlo count table per delay; independent stream per point.

    The same tables as `monte_carlo_counts` at `derive_point_seed(seed, i)`,
    from one exact model compiled for the whole scan.
    """
    out = []
    evaluate = None
    for i, tau in enumerate(delays_fs):
        point_seed = derive_point_seed(seed, i)
        d = distinguishability(DelayElement(tau, coherence_time_fs))
        if evaluate is None:  # at the first point, so that an empty scan does no work
            _check_integration_time(time_per_point)
            evaluate = _exact_model(apparatus, setting, apparatus.pbs.error_rate)
        out.append((tau, draw_counts(evaluate(d, v0), rates, time_per_point, point_seed)))
    return out


def three_photon_ghz(
    apparatus: Apparatus, polarizer_mode: str, angle: float
) -> tuple[PureState, float]:
    """Condition the four-photon GHZ state on a polarizer in one output.

    The pass row of `analyzer_matrix(angle)` is contracted with that mode's
    qubit of the dense GHZ vector. Returns the renormalized state of the other
    three photons on the other modes, and the projection probability, given
    that post-selection already produced the four-photon GHZ state. The
    dropped photon is the one that the last ket puts in `polarizer_mode`.
    """
    state, _ = ghz_after_postselection(apparatus)
    passed = analyzer_matrix(angle)[0]
    modes = sorted(apparatus.mode_order())
    if polarizer_mode not in modes:
        raise StateError(f"mode {polarizer_mode!r} has no detector; watched: {modes}")
    k = modes.index(polarizer_mode)
    psi = state.dense(modes).reshape(2**k, 2, -1)
    reduced = (passed[0] * psi[:, 0] + passed[1] * psi[:, 1]).ravel()
    last = next(reversed(state.amps))
    kept = [p for p, (_, m) in zip(state.photons, last) if m != polarizer_mode]
    kets = ("".join(ket) for ket in itertools.product(POLS, repeat=len(modes) - 1))
    rest = modes[:k] + modes[k + 1 :]
    # Python floats: their `** 2` can round apart from numpy's square in the last bit
    prob = sum(abs(a) ** 2 for a in reduced.tolist())
    return state_from_terms(kept, rest, dict(zip(kets, reduced))), prob


def feasibility_estimate(target_events: int, rates: RateModel) -> float:
    """Seconds of continuous measurement needed for `target_events`
    usable four-fold events at the calibrated rates."""
    if not target_events >= 0:  # negated, so that NaN fails it too
        raise StateError("target event count must be nonnegative")
    if target_events == 0:
        return 0.0
    rate = rates.effective_fourfold_rate()
    if rate <= 0.0:
        return math.inf
    return target_events / rate
