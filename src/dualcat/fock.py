"""Sparse multimode Fock-space engine.

States are stored as dictionaries mapping occupation-number tuples to
complex amplitudes, one slot per mode of a :class:`ModeRegister`.  All
operations are pure functions returning new states; probability mass lost
to the per-mode cutoffs is tracked explicitly in ``norm_deficit`` instead
of being silently renormalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy.special import betainc, pdtrc

DEFAULT_PRUNE_EPS = 1e-16
DEFAULT_TAIL_EPS = 1e-12


class FockError(Exception):
    """Base class for engine errors."""


class RegisterMismatchError(FockError):
    """Two states (or a state and a mode) live on different registers."""


class UnknownModeError(FockError):
    """A mode label is not part of the register."""


class CutoffError(FockError):
    """A per-mode cutoff is too small for the requested operation."""


class ContractViolationError(FockError):
    """A conditional gate met a control state it is not defined on."""


class DegenerateInputError(FockError):
    """Parameters describe a state that does not exist (e.g. odd cat at 0)."""


class ModeLabel(NamedTuple):
    """Optical mode identified by spatial path and optional polarization."""

    path: int
    pol: str | None = None

    def __str__(self) -> str:
        return f"{self.path}{self.pol or ''}"


def mode(path: int, pol: str | None = None) -> ModeLabel:
    """Build a mode label; ``pol`` is ``"H"``, ``"V"`` or ``None`` (plain)."""
    if pol not in ("H", "V", None):
        raise ValueError(f"polarization must be 'H', 'V' or None, got {pol!r}")
    return ModeLabel(int(path), pol)


@dataclass(frozen=True)
class ModeRegister:
    """Ordered set of labelled modes with per-mode occupation cutoffs."""

    modes: tuple[ModeLabel, ...]
    cutoffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.modes) != len(self.cutoffs):
            raise ValueError("modes and cutoffs must have equal length")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("mode labels must be unique")
        if any(c < 1 for c in self.cutoffs):
            raise ValueError("cutoffs must be >= 1")
        object.__setattr__(self, "_index", {m: i for i, m in enumerate(self.modes)})

    @classmethod
    def of(cls, spec: Mapping[ModeLabel, int]) -> "ModeRegister":
        return cls(tuple(spec.keys()), tuple(int(v) for v in spec.values()))

    def index(self, m: ModeLabel) -> int:
        try:
            return self._index[m]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownModeError(f"mode {m} not in register {self.modes}") from None

    def cutoff_of(self, m: ModeLabel) -> int:
        return self.cutoffs[self.index(m)]

    def has(self, m: ModeLabel) -> bool:
        return m in self._index  # type: ignore[attr-defined]

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def vacuum_key(self) -> tuple[int, ...]:
        return (0,) * len(self.modes)


def polarized_register(paths: Iterable[int], cutoff: int | Mapping[ModeLabel, int]) -> ModeRegister:
    """Register with H and V modes on each path, ``cutoff`` an int or per-mode map."""
    spec: dict[ModeLabel, int] = {}
    for p in paths:
        for pol in ("H", "V"):
            m = mode(p, pol)
            spec[m] = cutoff[m] if isinstance(cutoff, Mapping) else int(cutoff)
    return ModeRegister.of(spec)


def plain_register(paths: Iterable[int], cutoff: int | Mapping[ModeLabel, int]) -> ModeRegister:
    """Register of plain (polarization-less) modes, one per path."""
    spec = {}
    for p in paths:
        m = mode(p)
        spec[m] = cutoff[m] if isinstance(cutoff, Mapping) else int(cutoff)
    return ModeRegister.of(spec)


@dataclass(frozen=True, eq=False)
class PureState:
    """Sparse pure state: occupation tuple -> complex amplitude.

    ``norm_deficit`` carries probability mass lost to truncation.  Treat
    instances as immutable; operations return new states.
    """

    register: ModeRegister
    amps: dict
    norm_deficit: float = 0.0

    def norm_sq(self) -> float:
        return float(sum((a.real * a.real + a.imag * a.imag) for a in self.amps.values()))

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def __len__(self) -> int:
        return len(self.amps)

    def __repr__(self) -> str:
        return (
            f"PureState({self.register.n_modes} modes, {len(self.amps)} amplitudes, "
            f"norm={self.norm():.6g}, deficit={self.norm_deficit:.3g})"
        )


@dataclass(frozen=True)
class BranchedOutcome:
    """Measurement channel result: (label, unnormalized state, probability).

    A branch whose physical state is destroyed (an absorbed beam) carries
    ``None`` in the state slot.
    """

    branches: tuple

    def probability(self, label: str) -> float:
        for lab, _, p in self.branches:
            if lab == label:
                return p
        raise KeyError(label)

    def state(self, label: str) -> PureState:
        for lab, s, _ in self.branches:
            if lab == label:
                if s is None:
                    raise ValueError(f"branch {label!r} carries no state")
                return s
        raise KeyError(label)


@dataclass(frozen=True)
class DensityView:
    """Reduced density matrix over the occupation patterns that occur.

    ``basis[i]`` is the occupation tuple (over ``modes``) labelling row/column i.
    """

    matrix: np.ndarray
    basis: tuple
    modes: tuple

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


# ---------------------------------------------------------------------------
# construction helpers


def _finish(register: ModeRegister, amps: dict, deficit: float,
            prune_eps: float = DEFAULT_PRUNE_EPS) -> PureState:
    """Prune tiny amplitudes (mass goes to the deficit) and wrap up."""
    pruned = {}
    for key, amp in amps.items():
        if abs(amp) > prune_eps:
            pruned[key] = amp
        else:
            deficit += abs(amp) ** 2
    return PureState(register, pruned, deficit)


def vacuum(register: ModeRegister) -> PureState:
    return PureState(register, {register.vacuum_key(): 1.0 + 0.0j})


def basis_state(register: ModeRegister, occupations: Mapping[ModeLabel, int]) -> PureState:
    """Fock basis state with the given occupations (unlisted modes empty)."""
    key = list(register.vacuum_key())
    for m, n in occupations.items():
        i = register.index(m)
        if not 0 <= n <= register.cutoffs[i]:
            raise CutoffError(f"occupation {n} exceeds cutoff of mode {m}")
        key[i] = int(n)
    return PureState(register, {tuple(key): 1.0 + 0.0j})


def scale(state: PureState, c: complex) -> PureState:
    return PureState(state.register,
                     {k: c * a for k, a in state.amps.items()},
                     state.norm_deficit * abs(c) ** 2)


def add(a: PureState, b: PureState) -> PureState:
    """Coherent superposition a + b (same register)."""
    if a.register != b.register:
        raise RegisterMismatchError("cannot add states on different registers")
    amps = dict(a.amps)
    for k, amp in b.amps.items():
        amps[k] = amps.get(k, 0.0) + amp
    return _finish(a.register, amps, a.norm_deficit + b.norm_deficit)


def normalized(state: PureState) -> PureState:
    """Explicitly rescale to unit norm (deficit rescales by the same factor)."""
    n2 = state.norm_sq()
    if n2 <= 0.0:
        raise DegenerateInputError("cannot normalize a zero state")
    inv = 1.0 / math.sqrt(n2)
    return PureState(state.register,
                     {k: a * inv for k, a in state.amps.items()},
                     state.norm_deficit / n2)


def embed(state: PureState, register: ModeRegister) -> PureState:
    """Carry a state into a larger register; new modes start in vacuum."""
    old = state.register
    positions = []
    for i, m in enumerate(old.modes):
        j = register.index(m)
        if register.cutoffs[j] < old.cutoffs[i]:
            raise CutoffError(f"target cutoff for {m} is smaller than the source cutoff")
        positions.append(j)
    base = list(register.vacuum_key())
    amps = {}
    for occ, amp in state.amps.items():
        key = base.copy()
        for n, j in zip(occ, positions):
            key[j] = n
        amps[tuple(key)] = amp
    return PureState(register, amps, state.norm_deficit)


def restrict(state: PureState, keep: Sequence[ModeLabel],
             tol: float = 1e-12) -> PureState:
    """Drop modes that are in vacuum; error if a dropped mode is occupied."""
    reg = state.register
    keep_idx = [reg.index(m) for m in keep]
    drop_idx = [i for i in range(reg.n_modes) if i not in keep_idx]
    stray = sum(abs(a) ** 2 for occ, a in state.amps.items()
                if any(occ[i] != 0 for i in drop_idx))
    if stray > tol:
        raise ContractViolationError(
            f"dropped modes hold probability {stray:.3g} > {tol:.3g}")
    new_reg = ModeRegister(tuple(reg.modes[i] for i in keep_idx),
                           tuple(reg.cutoffs[i] for i in keep_idx))
    amps = {}
    for occ, amp in state.amps.items():
        if any(occ[i] != 0 for i in drop_idx):
            continue
        amps[tuple(occ[i] for i in keep_idx)] = amp
    return PureState(new_reg, amps, state.norm_deficit)


# ---------------------------------------------------------------------------
# ladder operators


def apply_annihilation(state: PureState, m: ModeLabel) -> PureState:
    """Unnormalized a|psi>; entries at zero occupation are annihilated."""
    i = state.register.index(m)
    amps = {}
    for occ, amp in state.amps.items():
        n = occ[i]
        if n == 0:
            continue
        key = occ[:i] + (n - 1,) + occ[i + 1:]
        amps[key] = amps.get(key, 0.0) + amp * math.sqrt(n)
    return _finish(state.register, amps, state.norm_deficit)


def apply_creation(state: PureState, m: ModeLabel) -> PureState:
    """Unnormalized a†|psi>; input mass that would exceed the cutoff is
    added to the norm deficit."""
    i = state.register.index(m)
    top = state.register.cutoffs[i]
    amps = {}
    deficit = state.norm_deficit
    for occ, amp in state.amps.items():
        n = occ[i]
        if n >= top:
            deficit += abs(amp) ** 2
            continue
        key = occ[:i] + (n + 1,) + occ[i + 1:]
        amps[key] = amps.get(key, 0.0) + amp * math.sqrt(n + 1)
    return _finish(state.register, amps, deficit)


# ---------------------------------------------------------------------------
# Gaussian-gate unitaries and the two-mode mixer (beam splitter family)

#: generator kind -> (step, couplings c): G = diag(c, -step) - diag(c, step)
#: on levels n = 0..dim-1 is real antisymmetric, and the gate is exp(t G)
_COUPLINGS = {
    "displace": (1, lambda n: np.sqrt(n[1:])),  # a† - a
    "squeeze": (2, lambda n: 0.5 * np.sqrt(n[1:-1] * n[2:])),  # (a†² - a²)/2
    "mix": (1, lambda n: np.sqrt(n[1:] * n[:0:-1])),  # a†b - ab† on |n, dim-1-n>
}
#: eigendecomposition of i*G per (generator kind, dimension)
_SPECTRA: dict = {}


def _gaussian_unitary(kind: str, dim: int, t: float, phase: float = 0.0) -> np.ndarray:
    """exp(t G) conjugated by diag(e^{i phase n}), from the cached spectrum of i*G.

    i*G = V diag(lam) V† is Hermitian, so exp(t G) = V diag(e^{-i t lam}) V†.
    The conjugation turns a† into e^{i phase} a† (a†b into e^{i phase} a†b),
    exactly on the truncated space too.
    """
    if (kind, dim) not in _SPECTRA:
        step, couplings = _COUPLINGS[kind]
        c = couplings(np.arange(dim, dtype=float))
        _SPECTRA[kind, dim] = np.linalg.eigh(1j * (np.diag(c, -step) - np.diag(c, step)))
    lam, vecs = _SPECTRA[kind, dim]
    if phase:
        vecs = np.exp(1j * phase * np.arange(dim))[:, None] * vecs
    return (vecs * np.exp(-1j * t * lam)) @ vecs.conj().T


def apply_two_mode_mixer(state: PureState, mode_a: ModeLabel, mode_b: ModeLabel,
                         theta: float, phase: float = 0.0) -> PureState:
    """Beam-splitter-type mixing of two modes.

    Applies exp[theta(e^{i phase} a†b - e^{-i phase} a b†)].  At theta=pi/4,
    phase=0 a coherent state splits as |g>|0> -> |g/sqrt2>|-g/sqrt2>.  The
    block unitary is exact on each total-photon-number subspace; components
    pushed beyond a per-mode cutoff are dropped into the norm deficit.
    """
    reg = state.register
    ia, ib = reg.index(mode_a), reg.index(mode_b)
    if ia == ib:
        raise ValueError("mixer needs two distinct modes")
    cap_a, cap_b = reg.cutoffs[ia], reg.cutoffs[ib]
    lo, hi = min(ia, ib), max(ia, ib)

    groups: dict = {}
    for occ, amp in state.amps.items():
        na, nb = occ[ia], occ[ib]
        rest = occ[:lo] + occ[lo + 1:hi] + occ[hi + 1:]
        groups.setdefault((rest, na + nb), []).append((na, amp))

    amps: dict = {}
    deficit = state.norm_deficit
    blocks = {t: _gaussian_unitary("mix", t + 1, theta, phase) for t in {t for _, t in groups}}
    for (rest, total), items in groups.items():
        v = np.zeros(total + 1, dtype=complex)
        for na, amp in items:
            v[na] += amp
        w = blocks[total] @ v
        for na in range(total + 1):
            amp = w[na]
            if amp == 0.0:
                continue
            nb = total - na
            if na > cap_a or nb > cap_b:
                deficit += abs(amp) ** 2
                continue
            if ia < ib:
                key = rest[:ia] + (na,) + rest[ia:ib - 1] + (nb,) + rest[ib - 1:]
            else:
                key = rest[:ib] + (nb,) + rest[ib:ia - 1] + (na,) + rest[ia - 1:]
            amps[key] = amps.get(key, 0.0) + amp
    return _finish(reg, amps, deficit)


# ---------------------------------------------------------------------------
# single-mode dense matrix application (displacement, squeezing)


def apply_single_mode_matrix(state: PureState, m: ModeLabel, matrix: np.ndarray,
                             tail_eps: float | None = None) -> PureState:
    """Apply a (cutoff+1)x(cutoff+1) matrix to one mode.

    With ``tail_eps`` given, the output's probability mass at the top Fock
    level must stay below it, otherwise the cutoff is declared too small.
    """
    reg = state.register
    i = reg.index(m)
    dim = reg.cutoffs[i] + 1
    if matrix.shape != (dim, dim):
        raise ValueError(f"matrix shape {matrix.shape} does not fit cutoff {dim - 1}")

    groups: dict = {}
    for occ, amp in state.amps.items():
        rest = occ[:i] + occ[i + 1:]
        groups.setdefault(rest, []).append((occ[i], amp))

    amps: dict = {}
    top_mass = 0.0
    for rest, items in groups.items():
        v = np.zeros(dim, dtype=complex)
        for n, amp in items:
            v[n] += amp
        w = matrix @ v
        top_mass += abs(w[dim - 1]) ** 2
        for n in range(dim):
            if w[n] != 0.0:
                amps[rest[:i] + (n,) + rest[i:]] = w[n]
    if tail_eps is not None and top_mass > tail_eps:
        raise CutoffError(
            f"mode {m}: top-level mass {top_mass:.3g} exceeds {tail_eps:.3g}; "
            f"increase the cutoff")
    return _finish(reg, amps, state.norm_deficit)


def displacement_matrix(beta: complex, dim: int) -> np.ndarray:
    """D(beta) = exp(beta a† - beta* a) on the truncated mode (exactly unitary)."""
    return _gaussian_unitary("displace", dim, abs(beta), float(np.angle(beta)))


def squeeze_matrix(r: float, dim: int) -> np.ndarray:
    """S(r) = exp[(r/2)(a†² - a²)] on the truncated mode (exactly unitary)."""
    out = _gaussian_unitary("squeeze", dim, r)
    n = np.arange(dim)
    out[(n[:, None] + n) % 2 == 1] = 0.0  # S(r) keeps parity; drop eigh round-off
    return out


# ---------------------------------------------------------------------------
# inner products, moments, partial trace


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b> over a common register."""
    if a.register != b.register:
        raise RegisterMismatchError("inner product needs a common register")
    if len(a.amps) > len(b.amps):
        return np.conj(inner_product(b, a))  # type: ignore[arg-type]
    total = 0.0 + 0.0j
    for key, amp in a.amps.items():
        other = b.amps.get(key)
        if other is not None:
            total += np.conj(amp) * other
    return complex(total)


def mean_occupation(state: PureState, m: ModeLabel) -> float:
    i = state.register.index(m)
    return float(sum(occ[i] * abs(a) ** 2 for occ, a in state.amps.items()))


def occupation_moments(state: PureState, m: ModeLabel) -> tuple[float, float]:
    """(⟨n⟩, ⟨n²⟩) for one mode."""
    i = state.register.index(m)
    m1 = m2 = 0.0
    for occ, a in state.amps.items():
        w = abs(a) ** 2
        n = occ[i]
        m1 += n * w
        m2 += n * n * w
    return m1, m2


def parity_expectation(state: PureState, modes: Sequence[ModeLabel] | None = None) -> float:
    """⟨(-1)^{sum of occupations}⟩ over the given modes (all by default)."""
    reg = state.register
    idx = range(reg.n_modes) if modes is None else [reg.index(m) for m in modes]
    total = 0.0
    for occ, a in state.amps.items():
        s = sum(occ[i] for i in idx)
        total += (1.0 if s % 2 == 0 else -1.0) * abs(a) ** 2
    return total


def partial_trace(state: PureState, keep: Sequence[ModeLabel]) -> DensityView:
    """Reduced density matrix over ``keep`` (positive semidefinite, trace =
    squared norm of the input)."""
    reg = state.register
    if not keep:
        raise ValueError("keep must be a nonempty mode subset")
    keep_idx = [reg.index(m) for m in keep]
    if len(set(keep_idx)) == reg.n_modes:
        raise ValueError("keep must be a proper subset of the register")
    drop_idx = [i for i in range(reg.n_modes) if i not in keep_idx]

    groups: dict = {}
    patterns: set = set()
    for occ, amp in state.amps.items():
        ka = tuple(occ[i] for i in keep_idx)
        kb = tuple(occ[i] for i in drop_idx)
        groups.setdefault(kb, []).append((ka, amp))
        patterns.add(ka)

    basis = tuple(sorted(patterns))
    where = {p: i for i, p in enumerate(basis)}
    rho = np.zeros((len(basis), len(basis)), dtype=complex)
    for items in groups.values():
        for ka_i, a_i in items:
            for ka_j, a_j in items:
                rho[where[ka_i], where[ka_j]] += a_i * np.conj(a_j)
    return DensityView(rho, basis, tuple(keep))


# ---------------------------------------------------------------------------
# cutoff selection rule


def _first_below(tail, tail_eps: float) -> int:
    """Smallest k >= 0 with ``tail(k) <= tail_eps`` for a tail falling in k,
    by doubling then bisection; a tail that never gets there raises."""
    lo, hi = -1, 1  # the whole mass lies above -1
    while not tail(hi) <= tail_eps:
        if hi > 2**60:
            raise CutoffError(f"no cutoff below 2**60 leaves tail mass <= {tail_eps:.3g}")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if tail(mid) <= tail_eps else (mid, hi)
    return hi


def coherent_cutoff(amplitude: complex, tail_eps: float = DEFAULT_TAIL_EPS) -> int:
    """Smallest cutoff with Poisson tail mass below ``tail_eps`` for |amplitude|."""
    lam = abs(amplitude) ** 2
    if lam == 0.0:
        return 1
    # pdtrc(n, lam) is the Poisson mass above n
    return max(_first_below(lambda n: pdtrc(n, lam), tail_eps), 1)


def squeezed_cutoff(r: float, tail_eps: float = DEFAULT_TAIL_EPS) -> int:
    """Smallest cutoff with squeezed-vacuum tail mass below ``tail_eps``."""
    if r == 0.0:
        return 1
    x = math.tanh(r) ** 2
    # betainc(m + 1, 1/2, tanh^2 r) is the squeezed-vacuum mass above 2m
    return max(2 * _first_below(lambda m: betainc(m + 1, 0.5, x), tail_eps), 2)
