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
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from numbers import Integral
from types import MappingProxyType

import numpy as np

from .elements import (
    COHERENCE_TIME_FS,
    VISIBILITY_ZERO_DELAY,
    DelayElement,
    PbsElement,
    check_coherence_time,
    check_delay,
    dephasing_components,
    distinguishability,
    overlap,
)
from .states import (
    POLS,
    PostselectionError,
    PureState,
    StateError,
    analyzer_matrix,
    as_number,
    check_angle,
    check_type,
    dephasing_partner,
    is_photon_pair,
    read_sequence,
    show,
    spdc_pair,
    state_from_terms,
    tensor,
    unchecked_analyzer_product,
)


@dataclass(frozen=True)
class PairSource:
    """One down-conversion pair: photon indices and their initial modes."""

    photons: tuple[int, int]
    modes: tuple[str, str]

    def __post_init__(self):
        needs_photons = "a pair source needs two distinct photon indices, got {}"
        needs_modes = "a pair source needs two string modes, got {}"
        # each read once into the tuple that is stored
        object.__setattr__(self, "photons", read_sequence(self.photons, needs_photons))
        object.__setattr__(self, "modes", read_sequence(self.modes, needs_modes))
        if not is_photon_pair(self.photons):
            raise StateError(needs_photons.format(show(self.photons)))
        if not (len(self.modes) == 2 and all(isinstance(m, str) for m in self.modes)):
            raise StateError(needs_modes.format(show(self.modes)))


@dataclass(frozen=True)
class Apparatus:
    sources: tuple[PairSource, ...]
    pbs: PbsElement
    detectors: Mapping[str, str]  # detector id -> mode, read-only

    def __post_init__(self):
        # read-only copies, so that the compiled patterns cannot go stale
        object.__setattr__(self, "sources", tuple(
            check_type(s, PairSource, "source {} is not a PairSource")
            for s in read_sequence(self.sources, "sources {} are not a sequence of PairSources")))
        check_type(self.pbs, PbsElement, "pbs {} is not a PbsElement")
        detectors = check_type(self.detectors, Mapping, "detectors {} are not a mapping to modes")
        for i in detectors:  # ordered by `detector_ids`
            check_type(i, str, "detector id {} is not a string")
        object.__setattr__(self, "detectors", MappingProxyType(dict(detectors)))
        # routing pattern -> its compiled entry or None; see `_compiled_pattern`
        object.__setattr__(self, "_compiled", {})
        modes = list(self.detectors.values())
        if len(modes) != 4 or not all(isinstance(m, str) for m in modes):
            raise StateError("a four-fold needs four detectors on string modes, "
                             f"got {show(modes)}")
        if len(set(modes)) != len(modes):
            raise StateError("each detector must watch a distinct mode")
        # the PBS layout rule: each input mode holds exactly one source photon
        if not self.sources:
            raise StateError("an apparatus needs at least one pair source")
        photons = [p for s in self.sources for p in s.photons]
        held = [m for s in self.sources for m in s.modes]
        if len(set(photons)) != len(photons):
            raise StateError(f"source photons {show(photons)} are not distinct")
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
    """Per-detector analyzer angles in degrees, a mapping keyed by the
    apparatus's detector ids (an exact model raises StateError for any other
    key, and for angles that are not a mapping). A None or missing angle is
    analysed at 0 degrees, with outcomes labelled "+"/"-" instead of "H"/"V"."""

    angles: Mapping[str, float | None]

    @staticmethod
    def labels(angle: float | None) -> tuple[str, str]:
        """Outcome symbols for the pass/reject analyzer ports."""
        if angle == 0.0:
            return ("H", "V")
        return ("+", "-")


def _check_apparatus(apparatus: Apparatus) -> None:
    # before any of its fields is read, which would end in a bare AttributeError
    check_type(apparatus, Apparatus, "apparatus {} is not an Apparatus")


def hv_setting(apparatus: Apparatus) -> MeasurementSetting:
    _check_apparatus(apparatus)
    return MeasurementSetting({d: 0.0 for d in apparatus.detector_ids()})


def diagonal_setting(apparatus: Apparatus) -> MeasurementSetting:
    _check_apparatus(apparatus)
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

    def __post_init__(self):
        # the draw multiplies the rates: each must be finite, as a float
        for name, rate in vars(self).items():
            if not 0.0 <= as_number(rate) < math.inf:
                raise StateError(f"rate {name} {show(rate)} is not a finite nonnegative number")


@dataclass(frozen=True)
class CountTable:
    counts: Mapping[str, int]


def source_state(apparatus: Apparatus) -> PureState:
    _check_apparatus(apparatus)
    return reduce(tensor, (spdc_pair(*s.photons, modes=s.modes) for s in apparatus.sources))


def ghz_after_postselection(apparatus: Apparatus) -> tuple[PureState, float]:
    """Route the source photons through the ideal PBS and keep the four-fold
    coincidences: the kets with one photon in each detector mode.

    Returns the renormalized, immutable state and the kept probability mass.
    Each apparatus routes once: a repeat call returns the identical tuple
    from its memo, and an apparatus whose routing keeps nothing raises the
    same PostselectionError again.
    """
    _check_apparatus(apparatus)
    entry = _compiled_pattern(apparatus, frozenset())
    if entry is None:
        raise PostselectionError(
            f"no amplitude with one photon in each of {apparatus.mode_order()}"
        )
    return entry[0]


def _compiled_pattern(apparatus: Apparatus, flipped: frozenset):
    """The apparatus's memo entry of one routing pattern, filled on first use:
    the photons in the PBS input modes `flipped` go to the wrong port, and the
    kets with one photon per detector mode are kept. The entry is ((state,
    p_sel), its dense vector psi in detector order, the dephasing partner phi
    or None for a one-branch pattern), both read-only, in an `_Entry`; None if
    nothing is kept."""
    memo = apparatus._compiled
    if flipped not in memo:
        source = source_state(apparatus)
        pbs = apparatus.pbs
        wanted = sorted(apparatus.mode_order())
        kept = {}
        for ket, a in source.amps.items():
            routed = tuple(
                (pol, pbs.route(mode, pol, mode in flipped))
                if mode in pbs.input_modes
                else (pol, mode)
                for pol, mode in ket
            )
            if sorted(m for _, m in routed) == wanted:
                kept[routed] = a
        p_sel = sum(abs(a) ** 2 for a in kept.values())
        memo[flipped] = None
        if p_sel > 1e-30:
            state = PureState(source.photons, kept)
            psi = state.dense(apparatus.mode_order())
            psi.flags.writeable = False
            phi = None if len(state.amps) == 1 else dephasing_partner(psi)
            if phi is not None:
                phi.flags.writeable = False
            memo[flipped] = _Entry(((state, p_sel), psi, phi))
    return memo[flipped]


class _Entry(tuple):
    """A compiled pattern's memo entry, hashed and compared by identity, so
    that it keys `_outcome_rows` without a comparison of its arrays."""

    __slots__ = ()
    __hash__ = object.__hash__
    __eq__ = object.__eq__
    __ne__ = object.__ne__


@lru_cache(maxsize=16)  # two label pairs per detector: 16 patterns
def _outcome_keys(*labels: tuple[str, str]) -> tuple[str, ...]:
    return tuple(map("".join, itertools.product(*labels)))


@lru_cache(maxsize=64)
def _outcome_rows(
    angles: tuple[float | None, ...], entries: tuple[_Entry, ...], pure: bool
) -> tuple[tuple[str, ...], np.ndarray]:
    """The 16 outcome keys and the read-only rows |K v|^2, one per channel
    component v of the compiled `entries` in order: K is the 16x16 Kronecker
    product of the 2x2 analyzers, ((A1 x A2) x A3) x A4, at the four `angles`
    in detector order, each a `check_angle` key, or None for a missing angle
    (0 degrees, labelled "+"/"-"). A miss builds K with `unchecked_analyzer_product`
    from 16 magnitudes and a fixed sign table, the bytes of the chain of `np.kron`s.
    A `pure` channel (d*v0 >= 1) keeps only the psi vectors, because numpy
    rounds a product of fewer rows differently."""
    keys = _outcome_keys(*map(MeasurementSetting.labels, angles))
    product = unchecked_analyzer_product([0.0 if a is None else a for a in angles])
    # the vectors that `dephasing_components` returns, in its order: psi, and
    # phi unless the channel is pure or the pattern has one branch
    vectors = []
    for _, psi, phi in entries:
        vectors.append(psi)
        if phi is not None and not pure:
            vectors.append(phi)
    rows = np.abs(np.array(vectors) @ product.T) ** 2
    rows.setflags(write=False)
    return keys, rows


def _exact_model(
    apparatus: Apparatus, setting: MeasurementSetting, pbs_error: float | None
) -> tuple:
    """The delay-free part of `exact_outcome_probabilities`, checked and done once:
    the (weight, psi, dephasing partner or None) of each surviving routing pattern,
    their total mass, and the checked angles and compiled entries that key
    `_outcome_rows`. `_evaluate`, and `_weigh` with `_evaluate_stacked`, read it."""
    _check_apparatus(apparatus)
    check_type(setting, MeasurementSetting, "setting {} is not a MeasurementSetting")
    angles = setting.angles
    check_type(angles, Mapping, "setting angles {} are not a mapping of detector ids")
    unknown = [d for d in angles if d not in apparatus.detectors]
    if unknown:
        raise StateError(f"unknown detectors {show(unknown)}, not in {apparatus.detector_ids()}")
    err = 0.0 if pbs_error is None else pbs_error
    if not 0.0 <= as_number(err) < 1.0:  # negated, so that NaN fails it too
        raise StateError(f"PBS error_rate {show(err)} outside [0, 1)")

    # wrong-port patterns by PBS input; an ideal PBS has only frozenset()
    inputs = apparatus.pbs.input_modes if err > 0.0 else ()
    parts: list[tuple[float, np.ndarray, np.ndarray | None]] = []
    entries: list[_Entry] = []
    total_mass = 0.0
    for r in range(len(inputs) + 1):
        for flipped in itertools.combinations(inputs, r):
            entry = _compiled_pattern(apparatus, frozenset(flipped))
            if entry is None:
                continue
            (_, p_sel), psi, phi = entry
            w = err ** r * (1 - err) ** (len(inputs) - r) * p_sel
            total_mass += w
            parts.append((w, psi, phi))
            entries.append(entry)
    if total_mass <= 0.0:
        raise PostselectionError("no routing pattern survives post-selection")

    # each angle is checked before it keys the cache; a missing one keys as None
    angle_key = tuple([
        None if (ang := angles.get(det)) is None else check_angle(ang)
        for det in apparatus.detector_ids()
    ])
    return parts, total_mass, angle_key, tuple(entries)


def _weigh(model: tuple, d: float, v0: float) -> tuple[bool, list[float]]:
    """Whether the channel at distinguishability d and zero-delay visibility v0 is
    pure, which selects the rows, and the weight of each row of `model`, checked."""
    weights = [w * w_branch for w, psi, phi in model[0]
               for w_branch, _ in dephasing_components(psi, phi, d, v0)]
    return d * v0 >= 1.0, weights


def _evaluate(model: tuple, d: float, v0: float) -> Iterator[tuple[str, float]]:
    """The (outcome, probability) pairs of `model` at d and v0, checked, which a draw
    reads in turn. They only weigh the rows |K v|^2 of the post-selected vectors and
    their dephasing partners, one `_outcome_rows` lookup per call."""
    _, total_mass, angle_key, entry_key = model
    pure, weights = _weigh(model, d, v0)
    keys, rows = _outcome_rows(angle_key, entry_key, pure)
    probs = np.asarray(weights) @ rows
    return zip(keys, (probs / total_mass).tolist())


def _evaluate_stacked(
    model: tuple, weighed: list[tuple[bool, list[float]]]
) -> list[Iterator[tuple[str, float]]]:
    """`_evaluate`'s pairs of each point that `_weigh` returned, in order and bit for bit,
    from one stacked product per kind of channel: numpy's (n, 1, k) @ (k, 16) runs on
    each point the gemv of the 1-D product, where a 2-D (n, k) @ (k, 16) gemm rounds
    otherwise."""
    _, total_mass, angle_key, entry_key = model
    groups: dict[bool, list[int]] = {}
    for i, (pure, _) in enumerate(weighed):
        groups.setdefault(pure, []).append(i)
    out = [None] * len(weighed)
    for pure, points in groups.items():
        keys, rows = _outcome_rows(angle_key, entry_key, pure)
        probs = np.array([weighed[i][1] for i in points])[:, None] @ rows / total_mass
        for i, (row,) in zip(points, probs.tolist()):
            out[i] = zip(keys, row)
    return out


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
    StateError. Each call checks its arguments and weighs the routing
    patterns and dephasing branches anew, but takes the outcome keys and the
    rows |K v|^2 from a bounded module cache, keyed by the four checked
    angles, the compiled pattern entries by identity and whether the
    channel is pure (d*v0 >= 1): a repeated apparatus and setting builds no
    analyzer product.
    """
    d = 1.0 if delay is None else distinguishability(delay)
    return dict(_evaluate(_exact_model(apparatus, setting, pbs_error), d, v0))


def _check_integration_time(integration_time: float) -> None:
    # a negated range test, so that NaN fails it too
    if not 0 <= as_number(integration_time) < math.inf:
        raise StateError(f"integration time {show(integration_time)} s "
                         "is not finite and nonnegative")


def _check_seed(seed: int, name: str = "seed") -> None:
    # numpy's seeding would end in a bare TypeError or ValueError; a plain int
    # skips the ABC isinstance check, a Python-level call on the per-point path
    if type(seed) is not int and (isinstance(seed, bool) or not isinstance(seed, Integral)):
        raise StateError(f"{name} {show(seed)} must be an integer")
    if seed < 0:
        raise StateError(f"{name} {show(seed)} must be nonnegative")


def draw_counts(
    probs: Mapping[str, float], rates: RateModel, integration_time: float, seed: int
) -> CountTable:
    """Seeded Poisson draw of four-fold coincidence counts per outcome.

    Expected count per outcome = (probability x desired four-fold rate + the
    flat background rate) x time. Deterministic for a given seed (numpy PCG64).
    """
    _check_integration_time(integration_time)
    _check_seed(seed)
    check_type(rates, RateModel, "rates {} is not a RateModel")
    check_type(probs, Mapping, "probabilities {} are not a mapping of outcomes")
    return _draw(probs.items(), rates, integration_time, np.random.default_rng(seed))


def _draw(
    pairs: Iterable[tuple[str, float]], rates: RateModel, integration_time: float,
    rng: np.random.Generator,
) -> CountTable:
    """`draw_counts` of (outcome, probability) `pairs` from `rng`, time and rates checked."""
    rate, floor = rates.fourfold_rate_desired, rates.background_fourfold_rate
    poisson = rng.poisson
    counts = {}
    for key, p in pairs:
        # `as_number` returns a real number itself and anything else as NaN,
        # whose count numpy rejects, as it does a negative or too large one;
        # its first test, for a float, inline
        x = p if type(p) is float else as_number(p)
        lam = (x * rate + floor) * integration_time
        try:
            counts[key] = poisson(lam)  # a Python int, as lam is a scalar
        except (ValueError, OverflowError) as exc:
            # an exact integer count beyond float range overflows, and in `.3g` too
            shown = show(lam) if isinstance(exc, OverflowError) else f"{lam:.3g}"
            what = (f"probability {show(p)} is not a real number" if x is not p
                    else f"expected count {shown} cannot be drawn ({exc})")
            raise StateError(f"outcome {key}: {what}") from exc
    return CountTable(counts)


def monte_carlo_counts(
    apparatus: Apparatus,
    setting: MeasurementSetting,
    rates: RateModel,
    integration_time: float,
    seed: int,
    delay: DelayElement | None = None,
    v0: float = VISIBILITY_ZERO_DELAY,
) -> CountTable:
    """`draw_counts` from the exact model's pairs with the PBS's error rate."""
    # checked before the exact model, so that it is reported first
    _check_integration_time(integration_time)
    _check_apparatus(apparatus)
    d = 1.0 if delay is None else distinguishability(delay)
    pairs = _evaluate(_exact_model(apparatus, setting, apparatus.pbs.error_rate), d, v0)
    _check_seed(seed)
    check_type(rates, RateModel, "rates {} is not a RateModel")
    return _draw(pairs, rates, integration_time, np.random.default_rng(seed))


def derive_point_seed(seed: int, point_index: int) -> int:
    """Deterministic per-point stream seed for parallel-safe scans."""
    _check_seed(seed)
    _check_seed(point_index, "point index")
    return int(np.random.SeedSequence([seed, point_index]).generate_state(1)[0])


# numpy's SeedSequence hash (NEP 19) on 32-bit words: the two hash-constant
# recurrences and the two mix multipliers; each step ends in a 16-bit xor-shift
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (O'Neill 2014)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _lanes_pool(entropy: list[int], ones: int) -> list[int]:
    """SeedSequence's pool of 4 words mixed from the words of `entropy`, on n
    seeds at once: each word is an int of n 64-bit lanes, each lane holding
    one seed's 32-bit word, and `ones` is 1 in every lane.

    A product of two 32-bit values fits in its lane, so a multiply, xor, shift
    and mask each act lane by lane, once the mask clears what a right shift
    brings down from the lane above."""
    mask = _M32 * ones
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const * ones
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & mask
        return (value ^ value >> 16) & mask

    def mix_pair(x: int, y: int) -> int:
        # L*x - R*y as (L*x mod 2**32) + (2**32 - R)*y: no lane borrows, and the
        # sum stays below 2**64, so none carries
        value = (_MIX_L * x & mask) + (2**32 - _MIX_R) * y & mask
        return (value ^ value >> 16) & mask

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix_pair(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix_pair(pool[dst], hashmix(word))
    return pool


def _lanes_state(pool: list[int], n_words: int, ones: int) -> list[int]:
    """SeedSequence's `generate_state(n_words)` of each lane of `pool`, as
    lanes of 32-bit words."""
    mask = _M32 * ones
    hash_const = _INIT_B
    out = []
    for i in range(n_words):
        value = pool[i % 4] ^ hash_const * ones
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & mask
        out.append((value ^ value >> 16) & mask)
    return out


def _point_seeding(seed: int, n: int) -> tuple[int, list[dict]]:
    """For the n points of a scan at once: point 0's seed `derive_point_seed(seed, 0)`,
    and each point's PCG64 state as `np.random.default_rng(derive_point_seed(seed, i))`
    starts it, in the form of `bit_generator.state`. `seed` is a nonnegative int."""
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * n, "little")
    # SeedSequence([seed, i]) hashes seed's 32-bit words, least significant first
    # (one word for 0), then i's one word (a scan holds fewer than 2**32 points)
    raw = seed.to_bytes(4 * max(1, -(-seed.bit_length() // 32)), "little")
    entropy = [w * ones for w in np.frombuffer(raw, "<u4").tolist()]
    entropy.append(int.from_bytes(np.arange(n, dtype="<u8").tobytes(), "little"))
    (point_seeds,) = _lanes_state(_lanes_pool(entropy, ones), 1, ones)
    # each point's SeedSequence(point seed).generate_state(4, np.uint64), whose
    # words 0, 1 are PCG64's initial state (high word first) and 2, 3 its stream
    words = _lanes_state(_lanes_pool([point_seeds], ones), 8, ones)
    # uint64 word j of a point is its 32-bit words 2j (low) and 2j + 1 (high)
    lanes = [np.frombuffer((words[2 * j + 1] << 32 | words[2 * j]).to_bytes(8 * n, "little"),
                           "<u8").tolist() for j in range(4)]
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*lanes):
        # PCG64's seeding: inc = 2*stream + 1, then two steps of the 128-bit LCG
        # around adding the initial state
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        state = (inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc & _M128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return point_seeds & _M32, states


def _point_streams(seed: int, n: int) -> Iterator[np.random.Generator]:
    """One generator, in the state `np.random.default_rng(derive_point_seed(seed, i))`
    starts in for each point i < n in turn: draw from each before taking the
    next. The seed is checked, and every point seeded in one pass, at the first."""
    _check_seed(seed)
    first_seed, states = _point_seeding(int(seed), n)
    rng = np.random.default_rng(first_seed)  # already in point 0's state
    yield rng
    for state in states[1:]:
        rng.bit_generator.state = state
        yield rng


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

    The same tables as `monte_carlo_counts` at `derive_point_seed(seed, i)`, from
    one exact model compiled for the whole scan, with every point's stream seeded
    in one pass at the first point. Each delay is checked as a `DelayElement` is.
    The points before the first bad delay take their probabilities from one
    stacked product per kind of channel (pure or dephased), bit for bit each
    point's own, and are drawn before that delay's error is raised.
    """
    delays = read_sequence(delays_fs, "delays {} are not an iterable of delays in fs")
    if not delays:  # no seed checked and no work done
        return []
    streams = _point_streams(seed, len(delays))
    first = next(streams)  # checks the seed and seeds every point
    # point 0's checks in a per-point loop's order: its delay, then the coherence
    # time as a DelayElement's, the time, the model, v0 (its weighing) and the rates
    check_delay(delays[0])
    tau_c = check_coherence_time(coherence_time_fs)
    _check_integration_time(time_per_point)
    _check_apparatus(apparatus)
    model = _exact_model(apparatus, setting, apparatus.pbs.error_rate)
    weighed = [_weigh(model, overlap(delays[0], tau_c), v0)]
    check_type(rates, RateModel, "rates {} is not a RateModel")
    bad = None  # the first bad later delay's error
    for tau in delays[1:]:
        try:
            check_delay(tau)
        except StateError as exc:
            bad = exc
            break
        weighed.append(_weigh(model, overlap(tau, tau_c), v0))
    out = [(tau, _draw(pairs, rates, time_per_point, rng)) for tau, pairs, rng in
           zip(delays, _evaluate_stacked(model, weighed), itertools.chain([first], streams))]
    if bad is not None:  # after the points before it, as a per-point loop raises it
        raise bad
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
        raise StateError(f"mode {show(polarizer_mode)} has no detector; watched: {modes}")
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
    if not as_number(target_events) >= 0:  # negated, so that NaN fails it too
        raise StateError(f"target event count {show(target_events)} must be nonnegative")
    check_type(rates, RateModel, "rates {} is not a RateModel")
    if target_events == 0:
        return 0.0
    rate = rates.fourfold_rate_desired
    if rate <= 0.0:
        return math.inf
    return target_events / rate
