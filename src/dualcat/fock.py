"""Sparse multimode Fock-space engine.

A state stores the Fock patterns it occupies as a sorted array of distinct
int64 mixed-radix keys (C order over the modes of a :class:`ModeRegister`,
the digit of each mode running from 0 to its cutoff) and the complex
amplitudes as an array aligned with it.  Every operation is digit
arithmetic on the keys, or :func:`group_by` followed by small dense
products, and returns a new state; probability mass lost to the per-mode
cutoffs is tracked explicitly in ``norm_deficit`` instead of being silently
renormalized.

Every gate maps distinct keys to distinct keys, so building its output
sorts and never sums: the one sort is stable, because gate outputs arrive
as runs of sorted keys, which timsort merges in near-linear time.  The only
place where amplitudes of one pattern meet is :func:`add`.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

DEFAULT_PRUNE_EPS = 1e-16
DEFAULT_TAIL_EPS = 1e-12


# ---------------------------------------------------------------------------
# one OpenBLAS thread while the engine runs
#
# The engine's products are small or tall and narrow (gate blocks, norms,
# 42x42 correlator forms); a second OpenBLAS thread only spins on them and
# doubles the CPU time.  So every function that calls BLAS or LAPACK runs in
# a process-wide scope that sets one thread and gives the caller's count back.


class OpenBlas(NamedTuple):
    """The OpenBLAS numpy loaded: file name, configuration string and the
    calls that read and set its thread count."""

    library: str
    config: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


@functools.cache
def openblas() -> OpenBlas | None:
    """The OpenBLAS numpy loaded, found among the shared objects this process
    maps; None without one (another BLAS, or no ``/proc``).  Looked up on the
    first call, never at import."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    # scipy may map an OpenBLAS of its own; numpy's sits in or beside numpy
    numpy_dir = os.path.dirname(os.path.abspath(np.__file__))
    for path in sorted(paths, key=lambda p: (not p.startswith(numpy_dir), p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                names = [f"{prefix}_{call}{suffix}"
                         for call in ("get_num_threads", "set_num_threads", "get_config")]
                if not all(hasattr(lib, name) for name in names):
                    continue
                get, put, config = (getattr(lib, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                config.argtypes, config.restype = [], ctypes.c_char_p
                return OpenBlas(os.path.basename(path), config().decode().strip(), get, put)
    return None


class _OneBlasThread:
    """Process-wide scope in which numpy's OpenBLAS runs on one thread.

    The depth counts the threads inside the scope.  The first to enter saves
    the caller's thread count and sets 1; the last to leave restores the
    saved count, also when it leaves by an exception.  The others only move
    the depth, under a lock.  Without an OpenBLAS the scope changes nothing.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = None  # (OpenBlas, caller's count) while the depth is > 0

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                blas = openblas()
                if blas is not None:
                    self._restore = blas, blas.get_num_threads()
                    blas.set_num_threads(1)
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._restore is not None:
                blas, count = self._restore
                self._restore = None
                blas.set_num_threads(count)


class _ThreadInside(threading.local):
    inside = False  # this thread runs a decorated call, so holds the scope


_ONE_BLAS_THREAD = _OneBlasThread()
_THREAD = _ThreadInside()


def _one_blas_thread(fn):
    """Decorator: run ``fn`` inside the process-wide one-OpenBLAS-thread scope.

    A call nested in another decorated call of the same thread is already
    inside and goes straight through: the engine makes thousands of them per
    run, and a lock round trip would cost more than many of their kernels.
    """

    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        if _THREAD.inside:
            return fn(*args, **kwargs)
        _THREAD.inside = True
        try:
            with _ONE_BLAS_THREAD:
                return fn(*args, **kwargs)
        finally:
            _THREAD.inside = False

    return scoped


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
    """Ordered set of labelled modes with per-mode occupation cutoffs.

    ``dims`` (cutoff + 1 per mode) and ``strides`` define the int64 key of
    an occupation pattern, ``sum(n_i * strides[i])``.
    """

    modes: tuple[ModeLabel, ...]
    cutoffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.modes) != len(self.cutoffs):
            raise ValueError("modes and cutoffs must have equal length")
        if len(set(self.modes)) != len(self.modes):
            raise ValueError("mode labels must be unique")
        if any(c < 1 for c in self.cutoffs):
            raise ValueError("cutoffs must be >= 1")
        if math.prod(c + 1 for c in self.cutoffs) > np.iinfo(np.int64).max:
            raise CutoffError(f"cutoffs {self.cutoffs} span more Fock patterns than int64 keys")
        strides = [math.prod(c + 1 for c in self.cutoffs[i + 1:]) for i in range(len(self.cutoffs))]
        object.__setattr__(self, "_index", {m: i for i, m in enumerate(self.modes)})
        object.__setattr__(self, "dims", np.array(self.cutoffs, dtype=np.int64) + 1)
        object.__setattr__(self, "strides", np.array(strides, dtype=np.int64))

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

    def encode(self, occ: Sequence[int]) -> int:
        """Key of one occupation tuple; out-of-range entries raise."""
        if len(occ) != len(self.cutoffs) or not all(0 <= n <= c for n, c in zip(occ, self.cutoffs)):
            raise CutoffError(f"occupations {tuple(occ)} do not fit cutoffs {self.cutoffs}")
        return int(np.dot(np.asarray(occ, dtype=np.int64), self.strides))

    def digit(self, keys: np.ndarray, i: int) -> np.ndarray:
        """Occupation of the mode at position ``i`` in each key."""
        # numpy divides by a scalar divisor on a fast path that ``%`` lacks,
        # so the remainder of the non-negative quotient is q - (q // d) d
        quotient = keys // self.strides[i]
        quotient -= quotient // self.dims[i] * self.dims[i]
        return quotient

    def digits(self, keys: np.ndarray, idx: Sequence[int] | None = None) -> np.ndarray:
        """Occupations of the modes at positions ``idx`` (all by default),
        one row per key and one column per mode, stored column-major: a
        sum or test along the rows then runs several times faster."""
        idx = range(self.n_modes) if idx is None else idx
        out = np.empty((len(keys), len(idx)), dtype=np.int64, order="F")
        for col, i in enumerate(idx):
            out[:, col] = self.digit(keys, i)
        return out


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


class PureState:
    """Sparse pure state: sorted int64 ``keys`` and aligned complex ``coeffs``.

    Built from a mapping occupation tuple -> amplitude; ``amps`` reads the
    state back as such a mapping (read-only, in key order).  ``norm_deficit``
    carries probability mass lost to truncation.  Both arrays are read-only;
    operations return new states.
    """

    __slots__ = ("register", "keys", "coeffs", "norm_deficit")

    def __init__(self, register: ModeRegister, amps: Mapping, norm_deficit: float = 0.0):
        occ = np.array(list(amps), dtype=np.int64).reshape(len(amps), register.n_modes)
        if ((occ < 0) | (occ >= register.dims)).any():
            raise CutoffError(f"occupations beyond cutoffs {register.cutoffs}")
        coeffs = np.array(list(amps.values()), dtype=complex)
        _fill(self, register, occ @ register.strides, coeffs, float(norm_deficit))

    @property
    def amps(self) -> "AmplitudeView":
        return AmplitudeView(self)

    def norm_sq(self) -> float:
        return _mass(self.coeffs)

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def __len__(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:
        return (
            f"PureState({self.register.n_modes} modes, {len(self.keys)} amplitudes, "
            f"norm={self.norm():.6g}, deficit={self.norm_deficit:.3g})"
        )


class AmplitudeView(Mapping):
    """Read-only mapping occupation tuple -> complex amplitude of a state."""

    __slots__ = ("_state",)

    def __init__(self, state: PureState):
        self._state = state

    def __len__(self) -> int:
        return len(self._state.keys)

    def __iter__(self):
        s = self._state
        return map(tuple, s.register.digits(s.keys).tolist())

    def __getitem__(self, occ) -> complex:
        s = self._state
        try:
            key = np.array([s.register.encode(occ)])
        except (CutoffError, TypeError):
            raise KeyError(occ) from None
        pos, hit = _lookup(s, key)
        if not hit[0]:
            raise KeyError(occ)
        return complex(s.coeffs[pos[0]])

    def items(self):
        return list(zip(self, self._state.coeffs.tolist()))

    def values(self):
        return self._state.coeffs.tolist()

    def __repr__(self) -> str:
        return repr(dict(self.items()))


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

    @_one_blas_thread
    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


# ---------------------------------------------------------------------------
# construction helpers


@_one_blas_thread
def _mass(coeffs: np.ndarray) -> float:
    return float(np.vdot(coeffs, coeffs).real)


def _fill(state: PureState, register: ModeRegister, keys: np.ndarray, coeffs: np.ndarray,
          deficit: float) -> PureState:
    """Set the slots from distinct keys in any order; a repeated key raises.

    The sort is stable (timsort): gate outputs come as runs of sorted keys,
    which it merges in up to half of quicksort's time.  On shuffled keys it
    would take about five times as long as quicksort.
    """
    if len(keys) > 1 and not (keys[1:] > keys[:-1]).all():
        order = np.argsort(keys, kind="stable")
        keys, coeffs = keys[order], coeffs[order]
        if not (keys[1:] > keys[:-1]).all():
            raise FockError("a state cannot hold the same Fock pattern twice")
    keys.flags.writeable = coeffs.flags.writeable = False
    state.register, state.keys, state.coeffs, state.norm_deficit = register, keys, coeffs, deficit
    return state


def _wrap(register: ModeRegister, keys: np.ndarray, coeffs: np.ndarray,
          deficit: float) -> PureState:
    """State from distinct keys in any order and their amplitudes."""
    return _fill(object.__new__(PureState), register, keys, coeffs, deficit)


def _finish(register: ModeRegister, keys: np.ndarray, coeffs: np.ndarray, deficit: float,
            prune_eps: float = DEFAULT_PRUNE_EPS) -> PureState:
    """Prune tiny amplitudes (their mass goes to the deficit) and wrap up.

    The keys must be distinct, as for :func:`_wrap`: nothing is summed here.
    Amplitudes that share a pattern are summed by :func:`add` alone.
    """
    small = np.abs(coeffs) <= prune_eps
    if small.any():
        deficit += _mass(coeffs[small])
        keys, coeffs = keys[~small], coeffs[~small]
    return _wrap(register, keys, coeffs, deficit)


def _lookup(state: PureState, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``keys`` in ``state.keys`` and the mask of those present."""
    pos = np.searchsorted(state.keys, keys)
    hit = pos < len(state.keys)
    hit[hit] = state.keys[pos[hit]] == keys[hit]
    return pos, hit


def group_by(state: PureState, modes: Sequence[ModeLabel]
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group a state's amplitudes by their occupations outside ``modes``.

    Returns ``(rest, group, occ)``: the sorted distinct keys with ``modes``
    emptied, the index into ``rest`` of each amplitude, and each amplitude's
    occupations of ``modes`` (one column per mode, in the given order).
    """
    reg = state.register
    idx = [reg.index(m) for m in modes]
    occ = reg.digits(state.keys, idx)
    emptied = state.keys - occ @ reg.strides[idx]
    # the emptied keys are runs of sorted keys, so the stable sort is cheap
    order = np.argsort(emptied, kind="stable")
    emptied = emptied[order]
    first = np.empty(len(emptied), dtype=bool)
    first[:1] = True
    np.not_equal(emptied[1:], emptied[:-1], out=first[1:])
    group = np.empty(len(emptied), dtype=np.int64)
    group[order] = np.cumsum(first) - 1
    return emptied[first], group, occ


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
    return _wrap(state.register, state.keys, c * state.coeffs,
                 state.norm_deficit * abs(c) ** 2)


def add(a: PureState, b: PureState) -> PureState:
    """Coherent superposition a + b (same register)."""
    if a.register != b.register:
        raise RegisterMismatchError("cannot add states on different registers")
    pos, hit = _lookup(a, b.keys)
    summed = a.coeffs.copy()
    summed[pos[hit]] += b.coeffs[hit]
    # merge the keys new to ``a`` in by binary search: both inputs are sorted
    new = b.keys[~hit]
    at_a = np.arange(len(a.keys)) + np.searchsorted(new, a.keys)
    at_b = pos[~hit] + np.arange(len(new))
    keys = np.empty(len(at_a) + len(at_b), dtype=np.int64)
    coeffs = np.empty(len(keys), dtype=complex)
    keys[at_a], keys[at_b] = a.keys, new
    coeffs[at_a], coeffs[at_b] = summed, b.coeffs[~hit]
    return _finish(a.register, keys, coeffs, a.norm_deficit + b.norm_deficit)


def normalized(state: PureState) -> PureState:
    """Explicitly rescale to unit norm (deficit rescales by the same factor)."""
    n2 = state.norm_sq()
    if n2 <= 0.0:
        raise DegenerateInputError("cannot normalize a zero state")
    return _wrap(state.register, state.keys, state.coeffs * (1.0 / math.sqrt(n2)),
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
    keys = old.digits(state.keys) @ register.strides[positions]
    return _wrap(register, keys, state.coeffs, state.norm_deficit)


def restrict(state: PureState, keep: Sequence[ModeLabel],
             tol: float = 1e-12) -> PureState:
    """Drop modes that are in vacuum; error if a dropped mode is occupied."""
    reg = state.register
    keep_idx = [reg.index(m) for m in keep]
    occ = reg.digits(state.keys)
    stray = np.delete(occ, keep_idx, axis=1).any(axis=1)
    stray_mass = _mass(state.coeffs[stray])
    if stray_mass > tol:
        raise ContractViolationError(
            f"dropped modes hold probability {stray_mass:.3g} > {tol:.3g}")
    new_reg = ModeRegister(tuple(reg.modes[i] for i in keep_idx),
                           tuple(reg.cutoffs[i] for i in keep_idx))
    return _wrap(new_reg, occ[~stray][:, keep_idx] @ new_reg.strides,
                 state.coeffs[~stray], state.norm_deficit)


# ---------------------------------------------------------------------------
# ladder operators


def apply_annihilation(state: PureState, m: ModeLabel) -> PureState:
    """Unnormalized a|psi>; entries at zero occupation are annihilated."""
    i = state.register.index(m)
    n = state.register.digit(state.keys, i)
    up = n > 0
    return _finish(state.register, state.keys[up] - state.register.strides[i],
                   state.coeffs[up] * np.sqrt(n[up]), state.norm_deficit)


def apply_creation(state: PureState, m: ModeLabel) -> PureState:
    """Unnormalized a†|psi>; input mass that would exceed the cutoff is
    added to the norm deficit."""
    i = state.register.index(m)
    n = state.register.digit(state.keys, i)
    fits = n < state.register.cutoffs[i]
    return _finish(state.register, state.keys[fits] + state.register.strides[i],
                   state.coeffs[fits] * np.sqrt(n[fits] + 1),
                   state.norm_deficit + _mass(state.coeffs[~fits]))


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


@_one_blas_thread
def generator_spectrum(kind: str, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(lam, V) with i*G = V diag(lam) V† for a generator kind of ``_COUPLINGS``
    on ``dim`` levels; computed once per (kind, dim), returned read-only."""
    if (kind, dim) not in _SPECTRA:
        step, couplings = _COUPLINGS[kind]
        c = couplings(np.arange(dim, dtype=float))
        spectrum = np.linalg.eigh(1j * (np.diag(c, -step) - np.diag(c, step)))
        for arr in spectrum:
            arr.setflags(write=False)
        _SPECTRA[kind, dim] = tuple(spectrum)
    return _SPECTRA[kind, dim]


@_one_blas_thread
def _gaussian_unitary(kind: str, dim: int, t: float, phase: float = 0.0) -> np.ndarray:
    """exp(t G) conjugated by diag(e^{i phase n}), from the cached spectrum of i*G.

    i*G = V diag(lam) V† is Hermitian, so exp(t G) = V diag(e^{-i t lam}) V†.
    The conjugation turns a† into e^{i phase} a† (a†b into e^{i phase} a†b),
    exactly on the truncated space too.
    """
    lam, vecs = generator_spectrum(kind, dim)
    if phase:
        vecs = np.exp(1j * phase * np.arange(dim))[:, None] * vecs
    return (vecs * np.exp(-1j * t * lam)) @ vecs.conj().T


def _mixer_blocks(state: PureState, ia: int, ib: int):
    """Per total t of the modes at positions ``ia``, ``ib`` that occurs: t, the keys with
    both emptied, their amplitudes as rows over n_a = 0..t and the columns that fit."""
    reg = state.register
    if ia == ib:
        raise ValueError("mixer needs two distinct modes")
    rest, group, occ = group_by(state, [reg.modes[ia], reg.modes[ib]])
    # one block per (total, rest) component that occurs, numbered by total
    # and then rest in a presence table, packed end to end
    n_total = occ.sum(axis=1)
    code = n_total * len(rest) + group
    present = np.zeros((int(n_total.max(initial=0)) + 1, len(rest)), dtype=bool)
    present.ravel()[code] = True
    comp = (np.cumsum(present) - 1)[code]
    total, comp_rest = np.nonzero(present)
    start = np.cumsum(total + 1) - (total + 1)
    packed = np.zeros(int(np.sum(total + 1)), dtype=complex)
    packed[start[comp] + occ[:, 0]] = state.coeffs
    cuts = np.flatnonzero(np.diff(total, prepend=-1, append=-1)).tolist()
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        t = int(total[lo])
        na = np.arange(t + 1)
        yield (t, rest[comp_rest[lo:hi]],
               packed[start[lo]:start[lo] + (hi - lo) * (t + 1)].reshape(hi - lo, t + 1),
               (na <= reg.cutoffs[ia]) & (t - na <= reg.cutoffs[ib]))


@_one_blas_thread
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
    keys, coeffs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=complex)]
    deficit = state.norm_deficit
    for t, rest, block, fits in _mixer_blocks(state, ia, ib):
        out = block @ _gaussian_unitary("mix", t + 1, theta, phase).T
        deficit += _mass(out[:, ~fits])
        na = np.flatnonzero(fits)
        keys.append((rest[:, None] + na * reg.strides[ia] + (t - na) * reg.strides[ib]).ravel())
        coeffs.append(out[:, fits].ravel())
    return _finish(reg, np.concatenate(keys), np.concatenate(coeffs), deficit)


@_one_blas_thread
def mixer_dark_branch(state: PureState, mode_a: ModeLabel, mode_b: ModeLabel,
                      theta: float, phase: float = 0.0) -> tuple[PureState, float]:
    """The vacuum branch of ``mode_a`` after :func:`apply_two_mode_mixer` and
    the mixed state's squared norm.  A block whose columns all fit keeps its
    mass (the mixer is unitary on it) and needs only ``block @ U[0, :]``; any
    other is mixed in full, and every dropped column's mass joins the deficit."""
    reg = state.register
    ia, ib = reg.index(mode_a), reg.index(mode_b)
    keys, coeffs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=complex)]
    deficit, kept = state.norm_deficit, 0.0
    for t, rest, block, fits in _mixer_blocks(state, ia, ib):
        u = _gaussian_unitary("mix", t + 1, theta, phase)
        whole = not fits.all()  # a block that drops no column needs only n_a = 0
        out = block @ (u if whole else u[:1]).T
        deficit += _mass(out[:, ~fits]) if whole else 0.0
        kept += _mass(out[:, fits] if whole else block)
        if fits[0]:
            keys.append(rest + t * reg.strides[ib])
            coeffs.append(out[:, 0])
    return _finish(reg, np.concatenate(keys), np.concatenate(coeffs), deficit), kept


# ---------------------------------------------------------------------------
# single-mode dense matrix application (displacement, squeezing)


@_one_blas_thread
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
    rest, group, occ = group_by(state, [m])
    block = np.zeros((len(rest), dim), dtype=complex)
    block[group, occ[:, 0]] = state.coeffs
    out = block @ matrix.T
    top_mass = _mass(out[:, -1])
    if tail_eps is not None and top_mass > tail_eps:
        raise CutoffError(
            f"mode {m}: top-level mass {top_mass:.3g} exceeds {tail_eps:.3g}; "
            f"increase the cutoff")
    keys = rest[:, None] + reg.strides[i] * np.arange(dim)
    return _finish(reg, keys.ravel(), out.ravel(), state.norm_deficit)


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


@_one_blas_thread
def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b> over a common register."""
    if a.register != b.register:
        raise RegisterMismatchError("inner product needs a common register")
    pos, hit = _lookup(b, a.keys)
    return complex(np.vdot(a.coeffs[hit], b.coeffs[pos[hit]]))


def mean_occupation(state: PureState, m: ModeLabel) -> float:
    return occupation_moments(state, m)[0]


@_one_blas_thread
def occupation_moments(state: PureState, m: ModeLabel) -> tuple[float, float]:
    """(⟨n⟩, ⟨n²⟩) for one mode."""
    n = state.register.digit(state.keys, state.register.index(m)).astype(float)
    w = np.abs(state.coeffs) ** 2
    return float(n @ w), float((n * n) @ w)


@_one_blas_thread
def parity_expectation(state: PureState, modes: Sequence[ModeLabel] | None = None) -> float:
    """⟨(-1)^{sum of occupations}⟩ over the given modes (all by default)."""
    reg = state.register
    idx = None if modes is None else [reg.index(m) for m in modes]
    odd = reg.digits(state.keys, idx).sum(axis=1) % 2
    return float((1.0 - 2.0 * odd) @ (np.abs(state.coeffs) ** 2))


def amplitude_matrix(state: PureState, keep: Sequence[ModeLabel]) -> tuple[np.ndarray, tuple]:
    """Amplitudes as a matrix with one row per occupation pattern of ``keep``
    that occurs (sorted, over ``keep`` in the given order) and one column per
    pattern of the other modes that occurs; also returns the row patterns."""
    reg = state.register
    rest, col, occ = group_by(state, keep)
    dims = [reg.cutoff_of(m) + 1 for m in keep]
    patterns, row = np.unique(np.ravel_multi_index(occ.T, dims), return_inverse=True)
    matrix = np.zeros((len(patterns), len(rest)), dtype=complex)
    matrix[row, col] = state.coeffs
    basis = np.transpose(np.unravel_index(patterns, dims)).tolist()
    return matrix, tuple(map(tuple, basis))


@_one_blas_thread
def partial_trace(state: PureState, keep: Sequence[ModeLabel]) -> DensityView:
    """Reduced density matrix over ``keep`` (positive semidefinite, trace =
    squared norm of the input)."""
    reg = state.register
    if not keep:
        raise ValueError("keep must be a nonempty mode subset")
    if len({reg.index(m) for m in keep}) == reg.n_modes:
        raise ValueError("keep must be a proper subset of the register")
    matrix, basis = amplitude_matrix(state, keep)
    return DensityView(matrix @ matrix.conj().T, basis, tuple(keep))


# ---------------------------------------------------------------------------
# cutoff selection rule

# a tail that needs more terms than this belongs to a cutoff in the tens of
# thousands at least, far beyond any register the engine can build
_MAX_TAIL_TERMS = 1 << 16


def _smallest_cut(terms: np.ndarray, first: int, tail_eps: float) -> int:
    """Smallest n >= first with ``sum(t_k for k > n) <= tail_eps``, where
    ``terms`` is the upward pass t_first, t_first+1, ... and the mass past
    its end is negligible next to ``tail_eps``.

    One top-down cumulative sum gives every tail at once, each summed from
    its smallest term toward its first omitted one, never as 1 - (kept
    mass); the tails fall, so counting those above ``tail_eps`` places the cut.
    """
    tails = np.cumsum(terms[::-1])[::-1]  # tails[i] is the mass above first + i - 1
    return first + max(int(np.count_nonzero(tails > tail_eps)) - 1, 0)


def _pass_length(n_terms: int, what: str) -> int:
    if not n_terms <= _MAX_TAIL_TERMS:
        raise CutoffError(f"the {what} tail needs over {_MAX_TAIL_TERMS} terms: its cutoff "
                          "lies far beyond any register the engine can build")
    return n_terms


def _log_negligible(tail_eps: float) -> float:
    """log of 2^-53 tail_eps: mass below it cannot move a comparison with tail_eps."""
    return math.log(tail_eps) - 53.0 * math.log(2.0)


def coherent_cutoff(amplitude: complex, tail_eps: float = DEFAULT_TAIL_EPS) -> int:
    """Smallest cutoff with Poisson tail mass below ``tail_eps`` for |amplitude|."""
    lam = abs(amplitude) ** 2
    if not (math.isfinite(lam) and tail_eps > 0.0):
        raise CutoffError(f"no Poisson tail is <= {tail_eps!r} for |alpha|^2 = {lam!r}")
    if lam == 0.0 or tail_eps >= 1.0:
        return 1
    # less than e^-50 of the mass lies below lam - 10 sqrt(lam) - 10
    # (Chernoff), so no cutoff does; by Bennett, P(N >= lam + u) <=
    # exp(-u^2 / (2 (lam + u/3))), which is negligible for this u
    big = -_log_negligible(tail_eps)
    u = big / 3.0 + math.sqrt(big * big / 9.0 + 2.0 * big * lam)
    first = max(0, math.ceil(lam - 10.0 * math.sqrt(lam) - 10.0))
    n = _pass_length(math.ceil(lam + u) - first, f"Poisson (|alpha|^2 = {lam:.6g})")
    # the pass starts in log space, so its first term cannot underflow
    t_first = math.exp(first * math.log(lam) - lam - math.lgamma(first + 1))
    ratios = lam / np.arange(first + 1, first + n + 1, dtype=float)
    terms = np.cumprod(np.concatenate(([t_first], ratios)))
    return max(_smallest_cut(terms, first, tail_eps), 1)


def squeezed_cutoff(r: float, tail_eps: float = DEFAULT_TAIL_EPS) -> int:
    """Smallest cutoff with squeezed-vacuum tail mass below ``tail_eps``."""
    x = math.tanh(r) ** 2
    if not (x < 1.0 and tail_eps > 0.0):
        raise CutoffError(f"no squeezed-vacuum tail is <= {tail_eps!r} for r = {r!r} "
                          f"(tanh^2 r = {x!r})")
    if r == 0.0:
        return 1
    # |2j> carries c_j = sech(r) (2j)!/(j!^2 4^j) x^j <= x^j, so the mass
    # past j = n is below x^n / (1 - x), which is negligible for this n
    n = 1 if x == 0.0 else math.ceil((_log_negligible(tail_eps) + math.log1p(-x))
                                     / math.log(x))
    n = _pass_length(n, f"squeezed-vacuum (r = {r:.6g})")
    ratios = x * np.arange(1, 2 * n, 2, dtype=float) / np.arange(2, 2 * n + 1, 2, dtype=float)
    terms = np.cumprod(np.concatenate(([1.0 / math.cosh(r)], ratios)))
    return max(2 * _smallest_cut(terms, 0, tail_eps), 2)
