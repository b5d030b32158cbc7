"""Sparse complex-amplitude algebra for labeled multi-photon polarization states.

States are superpositions of basis kets. Each ket assigns a polarization
(H or V) and a spatial mode tag to every photon. Photons are identified by
an integer index; kets are stored sparsely as a map from
((pol, mode), ...) tuples (ordered by ascending photon index) to a complex
amplitude. All paper-relevant states have at most 8 nonzero terms, so the
sparse form stays exact and readable.

Conventions:
- |theta> = cos(theta)|H> + sin(theta)|V>, theta measured from H in degrees.
- The orthogonal analyzer port is |theta_perp> = sin(theta)|H> - cos(theta)|V>,
  which reproduces |+45> = (|H>+|V>)/sqrt2 and |-45> = (|H>-|V>)/sqrt2.
- After normalization the first nonzero amplitude (lexicographic ket order)
  is made real and nonnegative, so the `amps` of equal states compare equal.
  A `PureState` itself has no `__eq__`: two equal states are not `==`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from itertools import zip_longest
from numbers import Integral, Number
from types import MappingProxyType

import numpy as np

H = "H"
V = "V"
POLS = (H, V)

NORM_TOL = 1e-9
PRUNE_TOL = 1e-14

BELL_KINDS = ("psi+", "psi-", "phi+", "phi-")
_NOT_MODES = "modes {} are not a sequence of mode tags"  # a `read_sequence` message


class StateError(ValueError):
    """Malformed state or operation on incompatible states."""


class LabelCollisionError(StateError):
    """A photon index appears twice in one state, as in both factors of a tensor."""


class PostselectionError(StateError):
    """Post-selection or a projection left no surviving amplitude."""


def _read_ket(ket, n: int) -> tuple:
    """`ket` as a tuple of its n (polarization, mode) slots, once each holds
    H or V and a string mode tag."""
    try:
        slots = tuple((pol, mode) for pol, mode in ket)
    except (TypeError, ValueError):  # a ket or a slot not iterable, or a slot of no two
        raise StateError(f"ket {show(ket)} is not a sequence of (polarization, mode) pairs") from None
    if len(slots) != n:
        raise StateError(f"ket {show(slots)} has {len(slots)} slots, expected {n}")
    for pol, mode in slots:
        if not (isinstance(pol, str) and pol in POLS):
            raise StateError(f"bad polarization symbol {show(pol)}")
        check_type(mode, str, "mode tag must be a string, got {}")
    return slots


class PureState:
    """Normalized sparse superposition over labeled polarization kets.

    Immutable, so that a memoised state cannot go stale: `photons` is a tuple,
    `amps` a read-only mapping, and neither can be rebound.
    `dephasing_projectors` computes its dephasing channel's fixed operators once.
    """

    __slots__ = ("photons", "amps", "_dephasing")

    def __init__(
        self,
        photons: Sequence[int],
        amplitudes: Mapping[tuple, complex],
        normalize: bool = True,
    ):
        check_type(amplitudes, Mapping, "amplitudes {} are not a mapping of kets")
        photons = read_sequence(photons, "photon indices {} are not a sequence")
        if not all(map(is_photon_index, photons)):
            raise StateError(f"photon indices {show(photons)} must be integers (a bool is none)")
        if len(set(photons)) != len(photons):
            raise LabelCollisionError(f"duplicate photon indices in {show(photons)}")
        order = sorted(range(len(photons)), key=lambda k: photons[k])
        amps: dict[tuple, complex] = {}
        for ket, a in amplitudes.items():
            ket = _read_ket(ket, len(photons))
            sorted_ket = tuple(ket[k] for k in order)
            # a number whose modulus `as_number` reads as finite: complex() would
            # parse a string and overflow on 10**400, and a bool is no number
            if (isinstance(a, bool) or not isinstance(a, Number)
                    or not as_number(abs(a)) < math.inf):
                raise StateError(f"ket {show(ket)}: amplitude {show(a)} "
                                 "is not a finite complex number")
            amps[sorted_ket] = amps.get(sorted_ket, 0.0) + complex(a)
        amps = {k: a for k, a in amps.items() if abs(a) > PRUNE_TOL}
        if not amps:
            raise StateError("state has no nonzero amplitude")
        if normalize:
            try:
                norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
            except OverflowError:  # a float's square beyond float range
                raise StateError("state amplitudes too large to normalize") from None
            first = amps[min(amps)]
            phase = first / abs(first)
            amps = {k: a / (norm * phase) for k, a in amps.items()}
        self._set_fields(tuple(photons[k] for k in order), amps)

    def _set_fields(self, photons: tuple, amps: dict) -> None:
        object.__setattr__(self, "photons", photons)
        object.__setattr__(self, "amps", MappingProxyType(amps))
        object.__setattr__(self, "_dephasing", None)  # set by dephasing_projectors

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # rebuilt from its fields as they are, without the memos: the
        # constructor's sum would turn an amplitude's -0.0 part into 0.0
        return (PureState._from_fields, (self.photons, dict(self.amps)))

    @classmethod
    def _from_fields(cls, photons: tuple, amps: dict) -> PureState:
        state = cls.__new__(cls)
        state._set_fields(photons, amps)
        return state

    def fixed_mode(self, photon: int) -> str:
        """Mode of `photon` if it is the same in every ket, else error."""
        if not (is_photon_index(photon) and photon in self.photons):  # True == 1, but no index
            raise StateError(f"photon {show(photon)} is not among {self.photons}")
        i = self.photons.index(photon)
        modes = {ket[i][1] for ket in self.amps}
        if len(modes) != 1:
            raise StateError(f"photon {photon} occupies several modes: {sorted(modes)}")
        return modes.pop()

    def mode_view(self, mode_order: Sequence[str]) -> dict[tuple, complex]:
        """Amplitudes re-keyed by polarization per mode, in `mode_order`.

        Requires every ket to place exactly one photon in each listed mode.
        """
        mode_order = read_sequence(mode_order, _NOT_MODES)
        try:
            wanted = set(mode_order)
        except TypeError:  # an unhashable mode, which no ket holds
            raise StateError(_NOT_MODES.format(show(mode_order))) from None
        out: dict[tuple, complex] = {}
        for ket, a in self.amps.items():
            by_mode: dict[str, str] = {}
            for pol, mode in ket:
                if mode in by_mode:
                    raise StateError(f"two photons in mode {mode!r}")
                by_mode[mode] = pol
            if set(by_mode) != wanted:
                raise StateError(
                    f"ket occupies modes {sorted(by_mode)}, expected {show(list(mode_order))}"
                )
            key = tuple(by_mode[m] for m in mode_order)
            out[key] = out.get(key, 0.0) + a
        return out

    def dense(self, mode_order: Sequence[str]) -> np.ndarray:
        """A fresh dense 2^n vector over mode-ordered H/V kets (H before V)."""
        mode_order = read_sequence(mode_order, _NOT_MODES)
        n = len(mode_order)
        vec = np.zeros(2**n, dtype=complex)
        for key, a in self.mode_view(mode_order).items():
            # the first mode is the most significant bit, V is 1
            vec[sum(1 << (n - 1 - k) for k, pol in enumerate(key) if pol == V)] = a
        return vec

    def dephasing_projectors(self) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """The state's sorted modes and the projectors |psi><psi| and |phi><phi|
        of its dense vector psi over them and of psi's `dephasing_partner` phi:
        what the dephasing channel needs that does not depend on the delay,
        read-only and computed once."""
        if self._dephasing is None:
            modes = tuple(sorted({m for ket in self.amps for _, m in ket}))
            psi = self.dense(modes)
            projectors = [projector(v) for v in (psi, dephasing_partner(psi))]
            for p in projectors:
                p.flags.writeable = False
            object.__setattr__(self, "_dephasing", (modes, *projectors))
        return self._dephasing

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{''.join(p for p, _ in k)}@{','.join(m for _, m in k)}: {a:.4g}"
            for k, a in sorted(self.amps.items())
        )
        return f"PureState(photons={self.photons}, {{{terms}}})"


def dephasing_partner(psi: np.ndarray) -> np.ndarray:
    """|phi>: the dense two-branch vector `psi` with its last nonzero entry
    negated. It does not depend on the delay."""
    branches = psi.nonzero()[0]
    if len(branches) != 2:
        raise StateError("dephasing expects a two-branch superposition")
    phi = psi.copy()
    phi[branches[-1]] *= -1
    return phi


def projector(v: np.ndarray) -> np.ndarray:
    """|v><v| of a dense vector, as v[:, None] * v.conj()."""
    return v[:, None] * v.conj()


def state_from_terms(
    photons: Sequence[int],
    modes: Sequence[str],
    terms: Mapping[str, complex],
    normalize: bool = True,
) -> PureState:
    """Build a state whose kets all share one photon->mode assignment.

    `terms` maps polarization strings like "HVVH" (one symbol per photon,
    ascending index order, as many as `modes`) to amplitudes.
    """
    check_type(terms, Mapping, "terms {} are not a mapping of polarization strings")
    try:
        ordered = tuple(modes)  # read once: a one-shot iterator would serve one key only
        amps = {tuple(zip_longest(pols, ordered)): a for pols, a in terms.items()}
    except TypeError:  # a key or the modes not iterable, or an unhashable mode
        raise StateError(f"terms {show(terms)} on modes {show(modes)} make no kets") from None
    return PureState(photons, amps, normalize=normalize)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product of states on disjoint photon sets; `PureState` rejects a shared one."""
    if not (isinstance(a, PureState) and isinstance(b, PureState)):
        raise StateError(f"tensor needs two PureStates, got {show(a)} and {show(b)}")
    photons = a.photons + b.photons
    amps = {
        ka + kb: aa * ab
        for ka, aa in a.amps.items()
        for kb, ab in b.amps.items()
    }
    return PureState(photons, amps, normalize=False)


def spdc_pair(i: int, j: int, modes: Sequence[str] | None = None) -> PureState:
    """Polarization singlet (|HV> - |VH>)/sqrt2 on photons i, j."""
    return bell_state("psi-", i, j, modes)


def bell_state(
    kind: str, i: int, j: int, modes: Sequence[str] | None = None
) -> PureState:
    """One of the four Bell states psi+/psi-/phi+/phi- on photons i, j."""
    if kind not in BELL_KINDS:
        raise StateError(f"unknown Bell kind {show(kind)}; expected one of {BELL_KINDS}")
    if modes is None:
        try:
            modes = (str(i), str(j))
        except ValueError as exc:  # an integer of more digits than str() converts
            raise StateError(f"photon indices {show(i)}, {show(j)} have no mode names") from exc
    s = 1 / math.sqrt(2)
    sign = s if kind.endswith("+") else -s
    if kind.startswith("psi"):
        terms = {"HV": s, "VH": sign}
    else:
        terms = {"HH": s, "VV": sign}
    return state_from_terms([i, j], modes, terms, normalize=False)


def is_photon_index(photon) -> bool:
    """Whether `photon` is an integer photon index; a bool is no index."""
    return isinstance(photon, Integral) and not isinstance(photon, bool)


def is_photon_pair(photons: Sequence) -> bool:
    """Whether `photons` holds two distinct photon indices."""
    return len(photons) == 2 and all(map(is_photon_index, photons)) and photons[0] != photons[1]


def as_number(value):
    """`value` if it is a real number that a float can hold, else NaN, which
    fails every negated range test: the one reading of a caller's scalar. A
    bool is no number; None, a string or a complex number has no float sum
    or no order against a float; an integer beyond float range overflows; an
    array that is not 0-d is no scalar, though a one-element one compares;
    a numpy complex scalar or 0-d array compares too, but is no real number."""
    if type(value) is float:  # the common case, on every delay point
        return value
    if type(value) is int:  # each count that a visibility reads
        try:
            value + 0.0
        except OverflowError:
            return math.nan
        return value
    if getattr(value, "ndim", 0) != 0:
        return math.nan
    try:
        value + 0.0 < 0.0
    except (TypeError, OverflowError):
        return math.nan
    if isinstance(value, bool):
        return math.nan
    # numpy's float64 is a float: no complex test for it, on every delay point
    kind = "f" if isinstance(value, float) else getattr(getattr(value, "dtype", None), "kind", "")
    return math.nan if kind == "c" else value


def show(value) -> str:
    """`repr(value)`, or a short stand-in where that raises (an integer of more than
    4,300 digits): the one way a message shows a caller's value, which cannot fail."""
    try:
        return repr(value)
    except ValueError:  # raised by an integer's repr, and by that of a container holding one
        if not isinstance(value, int):
            return f"<{type(value).__name__}>"
        return f"<int of {value.bit_length()} bits>"


def check_type(value, kind: type, message: str):
    """`value` if it is a `kind`, else StateError(`message` formatted with `show(value)`):
    the one type test of a caller's argument, whose message is built only on failure.
    A plain dict passes a `Mapping` test without the ABC's Python-level check."""
    if not (kind is Mapping and type(value) is dict or isinstance(value, kind)):
        raise StateError(message.format(show(value)))
    return value


def read_sequence(value, message: str) -> tuple:
    """`tuple(value)`, read once before anything checks or uses it, so that no check
    uses up a one-shot iterator; StateError as `check_type` if it is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise StateError(message.format(show(value))) from None


def _read_modes(modes) -> tuple:
    """A density matrix's `modes`, read by `read_sequence`, once each is hashable
    and none repeats: each names one qubit of the matrix."""
    modes = read_sequence(modes, _NOT_MODES)
    try:
        repeated = len(set(modes)) != len(modes)
    except TypeError:  # an unhashable mode, which no ket holds
        raise StateError(_NOT_MODES.format(show(modes))) from None
    if repeated:
        raise StateError(f"modes {show(modes)} repeat a mode")
    return modes


def check_angle(angle_deg: float) -> float:
    """`float(angle_deg)` once it is a number in [0, 180): the one form in which
    an angle keys a cache. Checked first, because float() would parse a string
    and fail on None, and a bool would hit the key of 1.0 or 0.0."""
    if not 0.0 <= as_number(angle_deg) < 180.0:
        raise StateError(f"analyzer angle must be a number in [0, 180), got {show(angle_deg)}")
    return float(angle_deg)


def analyzer_matrix(angle_deg: float) -> np.ndarray:
    """The analyzer at `angle_deg` as a 2x2 matrix [[cos, sin], [sin, -cos]]:
    rows are the pass and reject ports |theta>, |theta_perp>, columns H and V.
    The angle must pass `check_angle`.
    """
    return unchecked_analyzer_matrix(check_angle(angle_deg))


def _cos_sin(angle: float) -> tuple[float, float]:
    """cos and sin of `angle` in degrees: the one reading of an analyzer angle."""
    t = math.radians(angle)
    return math.cos(t), math.sin(t)


def unchecked_analyzer_matrix(angle: float) -> np.ndarray:
    """`analyzer_matrix` of a float that `check_angle` returned: a cache's
    builder, whose key was checked once already."""
    c, s = _cos_sin(angle)
    # filled entry by entry: a third cheaper than converting a nested list
    m = np.empty((2, 2))
    m[0, 0], m[0, 1], m[1, 0], m[1, 1] = c, s, s, -c
    return m


# Entry [I, J] of a four-qubit product of analyzers is, per qubit k, cos_k where
# bits I_k and J_k agree and sin_k where they differ, negated where both are 1
# (the -cos entry): a magnitude indexed by I ^ J, times a sign fixed by I & J
_PRODUCT_XOR = np.array([[i ^ j for j in range(16)] for i in range(16)])
_PRODUCT_SIGN = np.array([[(-1.0) ** (i & j).bit_count() for j in range(16)] for i in range(16)])
_PRODUCT_XOR.setflags(write=False)
_PRODUCT_SIGN.setflags(write=False)


def unchecked_analyzer_product(angles: Sequence[float]) -> np.ndarray:
    """The 16x16 Kronecker product ((A1 x A2) x A3) x A4 of the four
    `unchecked_analyzer_matrix`s at `check_angle` floats, bit for bit: its 16
    magnitudes are multiplied in the chain's order, and a negation by the sign
    table is exact, as an IEEE product's sign is that of its factors. About half
    the cost of the chain of `np.kron`s, which a cache miss of four fresh angles pays."""
    m = [1.0]
    for angle in angles:
        c, s = _cos_sin(angle)
        m = [x * y for x in m for y in (c, s)]
    return _PRODUCT_SIGN * np.array(m)[_PRODUCT_XOR]


class DensityMatrix:
    """Dense Hermitian operator over mode-ordered H/V basis kets. Immutable like
    `PureState`, so that a memo may return one: `modes` is a tuple, `matrix` a
    read-only copy of the caller's array, and each has passed `validate`."""

    __slots__ = ("modes", "matrix")
    __setattr__, __delattr__ = PureState.__setattr__, PureState.__delattr__

    def __init__(self, modes: Sequence[str], matrix: np.ndarray):
        modes = _read_modes(modes)
        try:
            matrix = np.array(matrix, dtype=complex)  # a copy: the caller's array stays its own
        except (TypeError, ValueError, OverflowError):  # an entry that complex() cannot read
            raise StateError(f"matrix {show(matrix)} is not an array of complex numbers") from None
        dim = 2 ** len(modes)
        if matrix.shape != (dim, dim):
            raise StateError(f"matrix shape {matrix.shape}, expected {(dim, dim)}")
        self._own(modes, matrix)

    def _own(self, modes: tuple, matrix: np.ndarray) -> DensityMatrix:
        """Freeze and `validate` `matrix`, a complex array of the right shape that nothing
        else holds: every constructor ends here, and the package's builders start here."""
        matrix.setflags(write=False)  # and kept as a view, which numpy never makes writable again
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "matrix", matrix.view())
        self.validate()
        return self

    def __reduce__(self):
        return (DensityMatrix, (self.modes, self.matrix))  # checked again; the copy keeps every bit

    def validate(self) -> None:
        m = self.matrix
        # negated: a NaN or inf entry makes the residual NaN or inf and fails
        # it too, so only a failure pays for the finiteness pass that names it
        with np.errstate(invalid="ignore"):
            hermitian = abs(m - m.conj().T).max() <= NORM_TOL
        if not hermitian:
            if not np.isfinite(m).all():
                raise StateError("density matrix has a non-finite entry")
            raise StateError("density matrix is not Hermitian")
        tr = m.trace()
        if abs(tr.real - 1.0) > NORM_TOL or abs(tr.imag) > NORM_TOL:
            raise StateError(f"trace {tr}, expected 1")
        if np.linalg.eigvalsh(m)[0] < -NORM_TOL:  # eigenvalues ascend
            raise StateError("density matrix has a negative eigenvalue")


def mix(components: Iterable[tuple[float, PureState]],
        mode_order: Sequence[str] | None = None) -> DensityMatrix:
    """Convex combination of pure projectors.

    Weights must be nonnegative and sum to 1 within 1e-9. All components
    must occupy the same spatial modes; `mode_order` defaults to the sorted
    mode set of the first component.
    """
    message = "mixture components {} are not a sequence of (weight, PureState) pairs"
    components = read_sequence(components, message)
    if not components:
        raise StateError("mix needs at least one component")
    try:
        weights = [w for w, _ in components]
    except (TypeError, ValueError):  # a component that is no pair
        raise StateError(message.format(show(components))) from None
    # negated tests, so that a NaN weight fails them too
    if not all(as_number(w) >= 0 for w in weights):
        raise StateError(f"a mixture weight in {show(weights)} is negative or not a number")
    # as floats, so that a Fraction or another exact number sums into a float matrix
    weights = [float(w) for w in weights]
    if not abs(sum(weights) - 1.0) <= NORM_TOL:
        raise StateError(f"mixture weights sum to {sum(weights)}, expected 1")
    for _, psi in components:
        check_type(psi, PureState, "mixture component {} is not a PureState")
    if mode_order is None:
        first = components[0][1]
        mode_order = sorted({m for ket in first.amps for _, m in ket})
    mode_order = read_sequence(mode_order, _NOT_MODES)  # once, for every component
    return density_matrix(mode_order, [
        (w, projector(psi.dense(mode_order))) for w, (_, psi) in zip(weights, components)
    ])


def density_matrix(
    modes: Sequence[str], components: Iterable[tuple[float, np.ndarray]]
) -> DensityMatrix:
    """The `DensityMatrix` on `modes` that sums w P over weighted projectors P,
    added in order to a zero matrix. Weights are not checked here."""
    modes = _read_modes(modes)
    dim = 2 ** len(modes)
    rho = np.zeros((dim, dim), dtype=complex)
    for w, p in components:
        rho += w * p
    return DensityMatrix.__new__(DensityMatrix)._own(modes, rho)


def fidelity(rho: DensityMatrix, target: PureState) -> float:
    """<target|rho|target> for a pure target state."""
    check_type(rho, DensityMatrix, "rho {} is not a DensityMatrix")
    check_type(target, PureState, "target {} is not a PureState")
    v = target.dense(rho.modes)
    return float(np.real(v.conj() @ rho.matrix @ v))
