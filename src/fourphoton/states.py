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

import itertools
import math
from typing import Iterable, Mapping, Sequence

import numpy as np

H = "H"
V = "V"
POLS = (H, V)

NORM_TOL = 1e-9
EXACT_TOL = 1e-12
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

    @property
    def photon_count(self) -> int:
        return len(self.photons)

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amps.values())

    def kets(self) -> list[tuple]:
        return sorted(self.amps)

    def amplitude(self, ket: tuple) -> complex:
        return self.amps.get(tuple(tuple(s) for s in ket), 0.0)

    def inner(self, other: "PureState") -> complex:
        """<self|other>; requires identical photon index sets."""
        if self.photons != other.photons:
            raise StateError("inner product needs matching photon labels")
        return sum(
            np.conj(a) * other.amps.get(k, 0.0) for k, a in self.amps.items()
        )

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
        view = self.mode_view(mode_order)
        n = len(mode_order)
        vec = np.zeros(2**n, dtype=complex)
        for i, key in enumerate(itertools.product(POLS, repeat=n)):
            vec[i] = view.get(key, 0.0)
        return vec

    def map_amplitudes(self, fn) -> dict[tuple, complex]:
        """Apply fn(ket, amp) -> iterable of (ket, amp); collect into a dict."""
        out: dict[tuple, complex] = {}
        for ket, a in self.amps.items():
            for new_ket, new_a in fn(ket, a):
                out[new_ket] = out.get(new_ket, 0.0) + new_a
        return out

    def allclose(self, other: "PureState", tol: float = EXACT_TOL) -> bool:
        if self.photons != other.photons:
            return False
        kets = set(self.amps) | set(other.amps)
        return all(
            abs(self.amps.get(k, 0.0) - other.amps.get(k, 0.0)) <= tol for k in kets
        )

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
    if i == j:
        raise StateError("pair photons must be distinct")
    if modes is None:
        modes = (str(i), str(j))
    s = 1 / math.sqrt(2)
    return state_from_terms([i, j], modes, {"HV": s, "VH": -s}, normalize=False)


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


def ghz_state(
    pattern: str,
    photons: Sequence[int] | None = None,
    modes: Sequence[str] | None = None,
) -> PureState:
    """(|p1..pn> + |p1bar..pnbar>)/sqrt2 for a polarization pattern like "HVVH"."""
    n = len(pattern)
    if n < 2:
        raise StateError("GHZ state needs at least 2 photons")
    if any(p not in POLS for p in pattern):
        raise StateError(f"pattern must use H/V symbols, got {pattern!r}")
    if photons is None:
        photons = list(range(1, n + 1))
    if modes is None:
        modes = [str(p) for p in photons]
    flipped = "".join(V if p == H else H for p in pattern)
    s = 1 / math.sqrt(2)
    return state_from_terms(photons, modes, {pattern: s, flipped: s}, normalize=False)


def analyzer_overlap(pol: str, angle_deg: float, branch: str = "pass") -> float:
    """Overlap of |H> or |V> with the analyzer eigenstate at `angle_deg`.

    branch "pass" is |theta>; "reject" is the orthogonal port |theta_perp>.
    """
    t = math.radians(angle_deg)
    if branch == "pass":
        return math.cos(t) if pol == H else math.sin(t)
    if branch == "reject":
        return math.sin(t) if pol == H else -math.cos(t)
    raise StateError(f"unknown analyzer branch {branch!r}")


def change_basis(state: PureState, photon: int, angle_deg: float) -> PureState:
    """Re-express one photon's amplitudes in the rotated linear basis.

    The output's H/V slots for that photon denote |theta> and |theta_perp|.
    The transformation matrix is a reflection, hence self-inverse: applying
    the same basis change twice restores the original amplitudes.
    """
    if not 0.0 <= angle_deg < 180.0:
        raise StateError(f"analyzer angle must lie in [0, 180), got {angle_deg}")
    idx = state.photons.index(photon)

    def rotate(ket, a):
        pol, mode = ket[idx]
        for new_pol, branch in ((H, "pass"), (V, "reject")):
            c = analyzer_overlap(pol, angle_deg, branch)
            if c != 0.0:
                new_ket = ket[:idx] + ((new_pol, mode),) + ket[idx + 1 :]
                yield new_ket, a * c

    return PureState(state.photons, state.map_amplitudes(rotate), normalize=True)


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

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def validate(self, tol: float = NORM_TOL) -> None:
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > tol:
            raise StateError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > tol or abs(np.trace(m).imag) > tol:
            raise StateError(f"trace {np.trace(m)}, expected 1")
        if np.min(np.linalg.eigvalsh(m)) < -tol:
            raise StateError("density matrix has a negative eigenvalue")

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


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
    if any(w < 0 for w in weights):
        raise StateError(f"negative mixture weight in {weights}")
    if abs(sum(weights) - 1.0) > NORM_TOL:
        raise StateError(f"mixture weights sum to {sum(weights)}, expected 1")
    if mode_order is None:
        first = components[0][1]
        mode_order = sorted({m for ket in first.amps for _, m in ket})
    dim = 2 ** len(mode_order)
    rho = np.zeros((dim, dim), dtype=complex)
    for w, psi in components:
        v = psi.dense(mode_order)
        rho += w * np.outer(v, v.conj())
    return DensityMatrix(mode_order, rho)


def fidelity(rho: DensityMatrix, target: PureState) -> float:
    """<target|rho|target> for a pure target state."""
    v = target.dense(rho.modes)
    return float(np.real(v.conj() @ rho.matrix @ v))
