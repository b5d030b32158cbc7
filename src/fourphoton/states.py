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
  is made real and nonnegative, so equal states compare equal.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

H = "H"
V = "V"
POLS = (H, V)

NORM_TOL = 1e-9
PRUNE_TOL = 1e-14

BELL_KINDS = ("psi+", "psi-", "phi+", "phi-")


class StateError(ValueError):
    """Malformed state or operation on incompatible states."""


class LabelCollisionError(StateError):
    """Photon index appears in both operands of a tensor product."""


class PostselectionError(StateError):
    """Post-selection or a projection left no surviving amplitude."""


def _check_ket(ket: tuple, n: int) -> None:
    if len(ket) != n:
        raise StateError(f"ket {ket} has {len(ket)} slots, expected {n}")
    for pol, mode in ket:
        if pol not in POLS:
            raise StateError(f"bad polarization symbol {pol!r}")
        if not isinstance(mode, str):
            raise StateError(f"mode tag must be a string, got {mode!r}")


class PureState:
    """Normalized sparse superposition over labeled polarization kets."""

    def __init__(
        self,
        photons: Sequence[int],
        amplitudes: Mapping[tuple, complex],
        normalize: bool = True,
    ):
        photons = tuple(photons)
        if len(set(photons)) != len(photons):
            raise LabelCollisionError(f"duplicate photon indices in {photons}")
        order = sorted(range(len(photons)), key=lambda k: photons[k])
        self.photons = tuple(photons[k] for k in order)
        amps: dict[tuple, complex] = {}
        for ket, a in amplitudes.items():
            ket = tuple(tuple(slot) for slot in ket)
            _check_ket(ket, len(photons))
            sorted_ket = tuple(ket[k] for k in order)
            amps[sorted_ket] = amps.get(sorted_ket, 0.0) + complex(a)
        amps = {k: a for k, a in amps.items() if abs(a) > PRUNE_TOL}
        if not amps:
            raise StateError("state has no nonzero amplitude")
        if normalize:
            norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
            first = amps[min(amps)]
            phase = first / abs(first)
            amps = {k: a / (norm * phase) for k, a in amps.items()}
        self.amps = amps

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amps.values())

    def fixed_mode(self, photon: int) -> str:
        """Mode of `photon` if it is the same in every ket, else error."""
        i = self.photons.index(photon)
        modes = {ket[i][1] for ket in self.amps}
        if len(modes) != 1:
            raise StateError(f"photon {photon} occupies several modes: {modes}")
        return modes.pop()

    def mode_view(self, mode_order: Sequence[str]) -> dict[tuple, complex]:
        """Amplitudes re-keyed by polarization per mode, in `mode_order`.

        Requires every ket to place exactly one photon in each listed mode.
        """
        out: dict[tuple, complex] = {}
        for ket, a in self.amps.items():
            by_mode: dict[str, str] = {}
            for pol, mode in ket:
                if mode in by_mode:
                    raise StateError(f"two photons in mode {mode!r}")
                by_mode[mode] = pol
            if set(by_mode) != set(mode_order):
                raise StateError(
                    f"ket occupies modes {sorted(by_mode)}, expected {list(mode_order)}"
                )
            key = tuple(by_mode[m] for m in mode_order)
            out[key] = out.get(key, 0.0) + a
        return out

    def dense(self, mode_order: Sequence[str]) -> np.ndarray:
        """Dense 2^n vector over mode-ordered H/V kets (H before V)."""
        n = len(mode_order)
        vec = np.zeros(2**n, dtype=complex)
        for key, a in self.mode_view(mode_order).items():
            # the first mode is the most significant bit, V is 1
            vec[sum(1 << (n - 1 - k) for k, pol in enumerate(key) if pol == V)] = a
        return vec

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{''.join(p for p, _ in k)}@{','.join(m for _, m in k)}: {a:.4g}"
            for k, a in sorted(self.amps.items())
        )
        return f"PureState(photons={self.photons}, {{{terms}}})"


def state_from_terms(
    photons: Sequence[int],
    modes: Sequence[str],
    terms: Mapping[str, complex],
    normalize: bool = True,
) -> PureState:
    """Build a state whose kets all share one photon->mode assignment.

    `terms` maps polarization strings like "HVVH" (one symbol per photon,
    ascending index order) to amplitudes.
    """
    amps = {
        tuple(zip(pols, modes)): a for pols, a in terms.items()
    }
    return PureState(photons, amps, normalize=normalize)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product of states on disjoint photon sets."""
    if set(a.photons) & set(b.photons):
        raise LabelCollisionError(
            f"photon labels overlap: {set(a.photons) & set(b.photons)}"
        )
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
        raise StateError(f"unknown Bell kind {kind!r}; expected one of {BELL_KINDS}")
    if i == j:
        raise StateError("pair photons must be distinct")
    if modes is None:
        modes = (str(i), str(j))
    s = 1 / math.sqrt(2)
    sign = s if kind.endswith("+") else -s
    if kind.startswith("psi"):
        terms = {"HV": s, "VH": sign}
    else:
        terms = {"HH": s, "VV": sign}
    return state_from_terms([i, j], modes, terms, normalize=False)


def analyzer_matrix(angle_deg: float) -> np.ndarray:
    """The analyzer at `angle_deg` as a 2x2 matrix [[cos, sin], [sin, -cos]]:
    rows are the pass and reject ports |theta>, |theta_perp>, columns H and V.
    The angle must be finite and lie in [0, 180).
    """
    if not 0.0 <= angle_deg < 180.0:
        raise StateError(f"analyzer angle must lie in [0, 180), got {angle_deg}")
    t = math.radians(angle_deg)
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, s], [s, -c]])


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two matrices as one broadcast product, one multiply per entry."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


class DensityMatrix:
    """Dense Hermitian operator over mode-ordered H/V basis kets."""

    def __init__(self, modes: Sequence[str], matrix: np.ndarray):
        self.modes = tuple(modes)
        matrix = np.asarray(matrix, dtype=complex)
        dim = 2 ** len(self.modes)
        if matrix.shape != (dim, dim):
            raise StateError(f"matrix shape {matrix.shape}, expected {(dim, dim)}")
        self.matrix = matrix
        self.validate()

    def validate(self) -> None:
        m = self.matrix
        # first, so that no check below computes with a NaN or inf entry
        if not np.isfinite(m).all():
            raise StateError("density matrix has a non-finite entry")
        if abs(m - m.conj().T).max() > NORM_TOL:
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
    components = list(components)
    if not components:
        raise StateError("mix needs at least one component")
    weights = [w for w, _ in components]
    # negated tests, so that a NaN weight fails them too
    if not all(w >= 0 for w in weights):
        raise StateError(f"negative or NaN mixture weight in {weights}")
    if not abs(sum(weights) - 1.0) <= NORM_TOL:
        raise StateError(f"mixture weights sum to {sum(weights)}, expected 1")
    if mode_order is None:
        first = components[0][1]
        mode_order = sorted({m for ket in first.amps for _, m in ket})
    return density_matrix(mode_order, [(w, psi.dense(mode_order)) for w, psi in components])


def density_matrix(
    modes: Sequence[str], components: Iterable[tuple[float, np.ndarray]]
) -> DensityMatrix:
    """The `DensityMatrix` on `modes` that sums w |v><v| over weighted dense
    vectors, added in order to a zero matrix. Weights are not checked here."""
    dim = 2 ** len(modes)
    rho = np.zeros((dim, dim), dtype=complex)
    for w, v in components:
        rho += w * (v[:, None] * v.conj())
    return DensityMatrix(modes, rho)


def fidelity(rho: DensityMatrix, target: PureState) -> float:
    """<target|rho|target> for a pure target state."""
    v = target.dense(rho.modes)
    return float(np.real(v.conj() @ rho.matrix @ v))
