"""Sparse multimode Fock-space engine.

A state stores the Fock patterns it occupies as a sorted array of distinct
int64 bit-field keys and the complex amplitudes as an array aligned with
it.  Each mode of a :class:`ModeRegister` owns a field of the bits its
cutoff needs, the first mode the highest, so a digit is a shift and a
mask, emptying modes is one ``&``, and key order is the lexicographic
order of the occupations.  Every operation is digit arithmetic on the
keys, or :func:`group_by` followed by small dense products, and returns a
new state; probability mass lost to the per-mode cutoffs is tracked
explicitly in ``norm_deficit`` instead of being silently renormalized.

Every gate maps distinct keys to distinct keys, so building its output
sorts and never sums.  One stable sort, in :func:`_fill`, orders the keys
of every output: they arrive as runs of sorted keys, which timsort merges
in near-linear time.  A controlled gate maps only the amplitudes its
control selects and joins its output to the rest of the state as one more
run, and :func:`add` joins the new keys of its second term the same way;
it is the only place where amplitudes of one pattern meet.

Each op makes one pass over the whole state; the two-mode mixer takes one
dense block and one product per photon total.  Only the erasure contraction
of the polarization access and the Bell seed search meet arrays big enough
to cut into slices of about ``_CHUNK`` entries.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .blas import _one_blas_thread

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
    """Ordered set of labelled modes with per-mode occupation cutoffs.

    The int64 key of an occupation pattern is a bit field: mode i holds
    its occupation in ``cutoff.bit_length()`` bits from bit ``shifts[i]``
    on, the first mode highest, so the key is ``sum(n_i * strides[i])``
    with power-of-two ``strides``.  Keys sort as the occupations do,
    lexicographically.  ``dims`` is cutoff + 1 per mode.  A register whose
    fields need more than 63 bits raises :class:`CutoffError`.
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
        bits = [int(c).bit_length() for c in self.cutoffs]
        if sum(bits) > 63 or max(self.cutoffs) >= np.iinfo(np.int64).max:  # dims must fit too
            raise CutoffError(f"cutoffs {self.cutoffs} need {sum(bits)} key bits; an int64 "
                              f"key holds 63, and each cutoff + 1 below 2**63")
        shifts = [sum(bits[i + 1:]) for i in range(len(bits))]
        object.__setattr__(self, "_index", {m: i for i, m in enumerate(self.modes)})
        object.__setattr__(self, "dims", np.array(self.cutoffs, dtype=np.int64) + 1)
        object.__setattr__(self, "shifts", np.array(shifts, dtype=np.int64))
        object.__setattr__(self, "strides", np.left_shift(1, self.shifts))
        object.__setattr__(self, "masks", np.array([(1 << b) - 1 for b in bits], dtype=np.int64))

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

    def encode(self, occ: Sequence[int]) -> int:
        """Key of one occupation tuple; out-of-range entries raise."""
        if len(occ) != len(self.cutoffs) or not all(0 <= n <= c for n, c in zip(occ, self.cutoffs)):
            raise CutoffError(f"occupations {tuple(occ)} do not fit cutoffs {self.cutoffs}")
        return int(np.dot(np.asarray(occ, dtype=np.int64), self.strides))

    def digit(self, keys: np.ndarray, i: int) -> np.ndarray:
        """Occupation of the mode at position ``i`` in each key."""
        out = keys >> self.shifts[i]
        out &= self.masks[i]
        return out

    def digits(self, keys: np.ndarray, idx: Sequence[int] | None = None) -> np.ndarray:
        """Occupations of the modes at positions ``idx`` (all by default),
        one row per key and one column per mode, stored column-major: a
        sum or test along the rows then runs several times faster."""
        idx = range(self.n_modes) if idx is None else idx
        out = np.empty((len(keys), len(idx)), dtype=np.int64, order="F")
        for col, i in enumerate(idx):
            np.right_shift(keys, self.shifts[i], out=out[:, col])
            out[:, col] &= self.masks[i]
        return out


def polarized_register(paths: Iterable[int], cutoff: int) -> ModeRegister:
    """Register with H and V modes on each path, each of cutoff ``cutoff``."""
    return ModeRegister.of({mode(p, pol): cutoff for p in paths for pol in ("H", "V")})


def plain_register(paths: Iterable[int], cutoff: int) -> ModeRegister:
    """Register of plain (polarization-less) modes, one per path, each of
    cutoff ``cutoff``."""
    return ModeRegister.of({mode(p): cutoff for p in paths})


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
class DensityView:
    """Reduced density matrix over the occupation patterns that occur.

    ``basis[i]`` is the occupation tuple (over ``modes``) labelling row/column i.
    """

    matrix: np.ndarray
    basis: tuple
    modes: tuple


# ---------------------------------------------------------------------------
# construction helpers


#: floats per partial sum of :func:`_mass`
_MASS_BLOCK = 2048


@_one_blas_thread
def _mass(coeffs: np.ndarray) -> float:
    """Squared norm of an amplitude array, to about 2e-16 relative at any length.

    One ``np.vdot`` keeps a few running totals and reads about 1e-13 low on
    4e5 amplitudes.  So a longer array is summed in blocks of ``_MASS_BLOCK``
    floats, each one short dot product of a stacked matmul (views of the
    input, no temporary its size), and ``math.fsum`` adds the block sums.
    """
    if coeffs.size * 2 <= _MASS_BLOCK:
        return float(np.vdot(coeffs, coeffs).real)
    flat = np.ascontiguousarray(coeffs, dtype=complex).reshape(-1).view(np.float64)
    cut = len(flat) - len(flat) % _MASS_BLOCK
    rows = flat[:cut].reshape(-1, 1, _MASS_BLOCK)
    blocks = (rows @ rows.transpose(0, 2, 1)).ravel().tolist()
    return math.fsum((*blocks, float(flat[cut:] @ flat[cut:])))


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


def _finish(register: ModeRegister, keys: np.ndarray, coeffs: np.ndarray,
            deficit: float) -> PureState:
    """Prune tiny amplitudes (their mass goes to the deficit) and wrap up.

    The keys must be distinct, as for :func:`_wrap`: nothing is summed here.
    Amplitudes that share a pattern are summed by :func:`add` alone.
    """
    small = np.abs(coeffs) <= DEFAULT_PRUNE_EPS
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
    bits = sum(int(reg.masks[i]) << int(reg.shifts[i]) for i in idx)
    return (*_runs(state.keys & ~bits), reg.digits(state.keys, idx))


def _runs(emptied: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of ``emptied`` and each one's index; spends it."""
    # the emptied keys are runs of sorted keys, so the stable sort is cheap;
    # with the grouped modes last they are sorted already
    order = None
    if len(emptied) > 1 and not (emptied[1:] >= emptied[:-1]).all():
        order = np.argsort(emptied, kind="stable")
        emptied = emptied[order]
    first = np.empty(len(emptied), dtype=bool)
    first[:1] = True
    np.not_equal(emptied[1:], emptied[:-1], out=first[1:])
    rest = emptied[first]
    group = np.cumsum(first, out=emptied)  # the sorted keys are spent
    group -= 1
    if order is not None:
        group = np.empty_like(group)
        group[order] = emptied
    return rest, group


#: entries per slice of the erasure contraction and of the seed search
_CHUNK = 1 << 15


def _joined(register: ModeRegister, parts: list, deficit: float) -> PureState:
    """One state from the sliced outputs ``parts``, states with disjoint
    keys in any order; the one stable sort merges their sorted runs, and
    their deficits join ``deficit``.

    The list is emptied once the keys are joined, which frees the parts'
    keys before the amplitudes are joined.
    """
    deficit += sum(p.norm_deficit for p in parts)
    keys = np.concatenate([p.keys for p in parts] or [np.empty(0, dtype=np.int64)])
    coeffs = [p.coeffs for p in parts] or [np.empty(0, dtype=complex)]
    parts.clear()
    return _wrap(register, keys, np.concatenate(coeffs), deficit)


def basis_state(register: ModeRegister, occupations: Mapping[ModeLabel, int]) -> PureState:
    """Fock basis state with the given occupations (unlisted modes empty)."""
    key = [0] * register.n_modes
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
    summed = np.concatenate((a.coeffs, b.coeffs[~hit]))
    summed[pos[hit]] += b.coeffs[hit]
    # sorted before the prune, so the pruned mass is summed in key order
    out = _wrap(a.register, np.concatenate((a.keys, b.keys[~hit])), summed, 0.0)
    return _finish(a.register, out.keys, out.coeffs, a.norm_deficit + b.norm_deficit)


def product(a: PureState, b: PureState) -> PureState:
    """Tensor product of two states on one register that occupy no common
    mode.  Its deficit, ``|a|² d_b + d_a |b|² + d_a d_b``, is the mass the
    product misses, so norm² plus deficit multiplies."""
    if a.register != b.register:
        raise RegisterMismatchError("cannot multiply states on different registers")
    x, y = (int(np.bitwise_or.reduce(s.keys, initial=0)) for s in (a, b))
    fields = zip(a.register.shifts.tolist(), a.register.masks.tolist())
    if any((x >> shift) & mask and (y >> shift) & mask for shift, mask in fields):
        raise ValueError("the factors of a product must occupy disjoint modes")
    na, nb, da, db = a.norm_sq(), b.norm_sq(), a.norm_deficit, b.norm_deficit
    keys = (a.keys[:, None] | b.keys).ravel()  # disjoint fields: keys join bitwise
    return _finish(a.register, keys, np.outer(a.coeffs, b.coeffs).ravel(),
                   na * db + da * nb + da * db)


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
def generator_spectrum(kind: str, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, V, V†) with i*G = V diag(lam) V† for a generator kind of
    ``_COUPLINGS`` on ``dim`` levels; computed once per (kind, dim), returned
    read-only."""
    if (kind, dim) not in _SPECTRA:
        step, couplings = _COUPLINGS[kind]
        c = couplings(np.arange(dim, dtype=float))
        lam, vecs = np.linalg.eigh(1j * (np.diag(c, -step) - np.diag(c, step)))
        spectrum = (lam, vecs, vecs.conj().T)
        for arr in spectrum:
            arr.setflags(write=False)
        _SPECTRA[kind, dim] = spectrum
    return _SPECTRA[kind, dim]


@_one_blas_thread
def _gaussian_unitary(kind: str, dim: int, t: float, phase: float = 0.0) -> np.ndarray:
    """exp(t G) conjugated by diag(e^{i phase n}), from the cached spectrum of i*G.

    i*G = V diag(lam) V† is Hermitian, so exp(t G) = V diag(e^{-i t lam}) V†.
    The conjugation turns a† into e^{i phase} a† (a†b into e^{i phase} a†b),
    exactly on the truncated space too.
    """
    lam, vecs, adjoint = generator_spectrum(kind, dim)
    if phase:
        phases = np.exp(1j * phase * np.arange(dim))
        vecs, adjoint = phases[:, None] * vecs, adjoint * phases.conj()
    return (vecs * np.exp(-1j * t * lam)) @ adjoint


def _mixer_table(theta: float, phase: float, dim: int) -> np.ndarray:
    """K[k, j] = sqrt(C(k+j, k)) cos^j theta (-sin theta e^{-i phase})^k for
    k, j < ``dim``: the mixer block entries that meet an empty port, in closed
    form.  With U_t the block of total t of :func:`apply_two_mode_mixer`
    (first index n_a), row 0 is U_t[0, n] = K[n, t - n] and the column of
    an empty second port is U_t[n, t] = K[t - n, n].  The binomial comes
    from ``math.lgamma`` in log space."""
    n = np.arange(dim)
    lg = np.array([math.lgamma(i + 1.0) for i in range(2 * dim - 1)])
    binom = np.exp(0.5 * (lg[n[:, None] + n] - lg[n][:, None] - lg[n]))
    return binom * np.cos(theta) ** n * ((-math.sin(theta) * np.exp(-1j * phase)) ** n)[:, None]


@_one_blas_thread
def apply_two_mode_mixer(state: PureState, mode_a: ModeLabel, mode_b: ModeLabel,
                         theta: float, phase: float = 0.0) -> PureState:
    """Beam-splitter-type mixing of two modes.

    Applies exp[theta(e^{i phase} a†b - e^{-i phase} a b†)].  At theta=pi/4,
    phase=0 a coherent state splits as |g>|0> -> |g/sqrt2>|-g/sqrt2>.  The
    block unitary U_t (first index n_a) is exact on each total-photon-number
    subspace.  The amplitudes of each total t that occurs form one dense
    (rest x (t+1)) block, whose rows are the :func:`_runs` of their rests,
    and take one product with U_t; the columns pushed beyond a per-mode
    cutoff are dropped into the norm deficit.
    """
    reg = state.register
    ia, ib = reg.index(mode_a), reg.index(mode_b)
    if ia == ib:
        raise ValueError("mixer needs two distinct modes")
    rest, group, occ = group_by(state, [mode_a, mode_b])
    total = occ.sum(axis=1)
    keys, coeffs, dropped = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=complex)], 0.0
    for t in np.flatnonzero(np.bincount(total)).tolist():  # the totals that occur
        on = total == t
        rows, row = _runs(group[on])
        block = np.zeros((len(rows), t + 1), dtype=complex)
        block[row, occ[on, 0]] = state.coeffs[on]
        out = block @ _gaussian_unitary("mix", t + 1, theta, phase).T
        na = np.arange(t + 1)
        fits = (na <= reg.cutoffs[ia]) & (t - na <= reg.cutoffs[ib])
        dropped += _mass(out[:, ~fits])
        na = na[fits]
        keys.append((rest[rows, None] + na * reg.strides[ia] + (t - na) * reg.strides[ib]).ravel())
        coeffs.append(out[:, fits].ravel())
    return _finish(reg, np.concatenate(keys), np.concatenate(coeffs), state.norm_deficit + dropped)


# ---------------------------------------------------------------------------
# single-mode dense matrix application (displacement, squeezing)


@_one_blas_thread
def apply_single_mode_matrix(state: PureState, m: ModeLabel, matrix: np.ndarray,
                             tail_eps: float | None = None) -> PureState:
    """Apply a (cutoff+1)x(cutoff+1) matrix to one mode.

    With ``tail_eps`` given, the output's probability mass at the top Fock
    level must stay below it, otherwise the cutoff is declared too small.
    The whole state is one dense (rest x dim) block and one product.
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
    if tail_eps is not None:
        _refuse_top_mass(m, _mass(out[:, -1]), tail_eps)
    keys = rest[:, None] + reg.strides[i] * np.arange(dim)
    return _finish(reg, keys.ravel(), out.ravel(), state.norm_deficit)


def _refuse_top_mass(m: ModeLabel, mass: float, tail_eps: float) -> None:
    """Raise a cutoff error unless the top-level ``mass`` of ``m`` is at most ``tail_eps``."""
    if not mass <= tail_eps:
        raise CutoffError(f"mode {m}: top-level mass {mass:.3g} exceeds {tail_eps:.3g}; "
                          f"increase the cutoff")


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


@_one_blas_thread
def occupation_moments(state: PureState, m: ModeLabel) -> tuple[float, float]:
    """(⟨n⟩, ⟨n²⟩) for one mode."""
    n = state.register.digit(state.keys, state.register.index(m)).astype(float)
    w = np.abs(state.coeffs) ** 2
    return float(n @ w), float((n * n) @ w)


def amplitude_matrix(state: PureState, keep: Sequence[ModeLabel]) -> tuple[np.ndarray, tuple]:
    """Amplitudes as a matrix with one row per occupation pattern of ``keep``
    that occurs (sorted, over ``keep`` in the given order) and one column per
    pattern of the other modes that occurs; also returns the row patterns.
    Rows and columns are the :func:`_runs` of the kept and the other fields of
    the keys; a ``lexsort`` of the few row patterns orders the rows.  ``keep``
    must be a nonempty proper subset of the register's modes (``ValueError``)."""
    reg = state.register
    idx = [reg.index(m) for m in keep]
    if not idx or len(set(idx)) == reg.n_modes:
        raise ValueError("the kept modes must be a nonempty proper subset of the register")
    bits = sum(int(reg.masks[i]) << int(reg.shifts[i]) for i in idx)
    rest, col = _runs(state.keys & ~bits)
    kept, row = _runs(state.keys & bits)
    occ = reg.digits(kept, idx)
    order = np.lexsort(occ.T[::-1])
    matrix = np.zeros((len(kept), len(rest)), dtype=complex)
    matrix[np.argsort(order)[row], col] = state.coeffs
    return matrix, tuple(map(tuple, occ[order].tolist()))


@_one_blas_thread
def partial_trace(state: PureState, keep: Sequence[ModeLabel]) -> DensityView:
    """Reduced density matrix over ``keep`` (positive semidefinite, trace =
    squared norm of the input); ``keep`` as in :func:`amplitude_matrix`."""
    matrix, basis = amplitude_matrix(state, keep)
    return DensityView(matrix @ matrix.conj().T, basis, tuple(keep))


# ---------------------------------------------------------------------------
# cutoff selection rule

# a tail that needs more terms than this belongs to a cutoff in the tens of
# thousands at least, far beyond any register the engine can build
_MAX_TAIL_TERMS = 1 << 16


def _tails(terms: np.ndarray) -> np.ndarray:
    """``tails[i]``, the mass of ``terms[i:]`` for i = 0 .. len(terms), by
    one top-down cumulative sum: each tail is summed from its smallest term
    toward its first, never as 1 - (kept mass), which loses it to rounding."""
    return np.cumsum(np.append(terms, 0.0)[::-1])[::-1]


def _pass_length(n_terms: int, what: str) -> int:
    if not n_terms <= _MAX_TAIL_TERMS:
        raise CutoffError(f"the {what} tail needs over {_MAX_TAIL_TERMS} terms: its cutoff "
                          "lies far beyond any register the engine can build")
    return n_terms


def _log_negligible(tail_eps: float) -> float:
    """log of 2^-53 tail_eps: mass below it cannot move a comparison with tail_eps."""
    return math.log(tail_eps) - 53.0 * math.log(2.0)


def _poisson_masses(lam: float, tail_eps: float, last: int) -> np.ndarray:
    """Masses e^-lam lam^n / n! of |n> in a coherent state, n = 0, 1, ... to
    ``last`` and on until the rest is negligible next to ``tail_eps``."""
    # less than e^-50 of the mass lies below lam - 10 sqrt(lam) - 10
    # (Chernoff); by Bennett, P(N >= lam + u) <= exp(-u^2 / (2 (lam + u/3))),
    # which is negligible for this u (any u is, once tail_eps passes 2^53)
    big = max(-_log_negligible(tail_eps), 0.0)
    u = big / 3.0 + math.sqrt(big * big / 9.0 + 2.0 * big * lam)
    first = max(0, math.ceil(lam - 10.0 * math.sqrt(lam) - 10.0))
    end = first + _pass_length(max(math.ceil(lam + u), last) - first,
                               f"Poisson (|alpha|^2 = {lam:.6g})")
    # the passes start in log space at ``first``, so its term cannot underflow,
    # and run up by the ratios lam / n and down by n / lam (at lam = 0, vacuum)
    t_first = math.exp(first * math.log(lam or 1.0) - lam - math.lgamma(first + 1))
    up = np.cumprod(np.concatenate(([t_first], lam / np.arange(first + 1, end + 1, dtype=float))))
    down = t_first * np.cumprod(np.arange(first, 0, -1) / lam)[::-1]
    return np.concatenate((down, up))


def _squeezed_masses(r: float, tail_eps: float, last: int) -> np.ndarray:
    """Masses sech(r) (2j)!/(j!^2 4^j) tanh^2j r of |2j> in S(r)|0>, j = 0,
    1, ... to level ``last`` and on until the rest is negligible."""
    x = math.tanh(r) ** 2
    # each mass is <= x^j, so the mass past j = n is below x^n / (1 - x),
    # which is negligible for this n
    n = 1 if x == 0.0 else math.ceil((_log_negligible(tail_eps) + math.log1p(-x))
                                     / math.log(x))
    n = _pass_length(max(n, last // 2), f"squeezed-vacuum (r = {r:.6g})")
    ratios = x * np.arange(1, 2 * n, 2, dtype=float) / np.arange(2, 2 * n + 1, 2, dtype=float)
    return np.cumprod(np.concatenate(([1.0 / math.cosh(r)], ratios)))


def _coherent_rule(amplitude: complex, tail_eps: float, last: int) -> tuple[int, np.ndarray]:
    """:func:`coherent_cutoff` and the Poisson masses it sums, which run on
    to level ``last`` at least: the factories read both from one pass."""
    a = abs(amplitude)
    lam = a ** 2 if a < 1e150 else math.inf  # ** 2 raises past 1.3e154
    if not (math.isfinite(lam) and tail_eps > 0.0):
        raise CutoffError(f"no Poisson tail is <= {tail_eps!r} for |alpha|^2 = {lam!r}")
    masses = _poisson_masses(lam, tail_eps, last)
    if lam == 0.0 or tail_eps >= 1.0:
        return 1, masses
    # the tails fall, so the count of those above tail_eps places the cut
    return max(int(np.count_nonzero(_tails(masses) > tail_eps)) - 1, 1), masses


def _squeezed_rule(r: float, tail_eps: float, last: int) -> tuple[int, np.ndarray]:
    """:func:`squeezed_cutoff` and the masses of the even levels it sums,
    which run on to level ``last`` at least."""
    x = math.tanh(r) ** 2
    if not (x < 1.0 and tail_eps > 0.0):
        raise CutoffError(f"no squeezed-vacuum tail is <= {tail_eps!r} for r = {r!r} "
                          f"(tanh^2 r = {x!r})")
    masses = _squeezed_masses(r, tail_eps, last)
    if r == 0.0:
        return 1, masses
    return 2 * max(int(np.count_nonzero(_tails(masses) > tail_eps)) - 1, 1), masses


def coherent_cutoff(amplitude: complex, tail_eps: float = DEFAULT_TAIL_EPS) -> int:
    """Smallest cutoff with Poisson tail mass below ``tail_eps`` for |amplitude|."""
    return _coherent_rule(amplitude, tail_eps, 0)[0]


def squeezed_cutoff(r: float, tail_eps: float = DEFAULT_TAIL_EPS) -> int:
    """Smallest cutoff with squeezed-vacuum tail mass below ``tail_eps``."""
    return _squeezed_rule(r, tail_eps, 0)[0]
