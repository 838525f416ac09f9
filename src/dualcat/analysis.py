"""Entanglement quantification, Bell-value optimization, metrology figures.

Entropies are in bits (log base 2) so a maximally entangled qubit pair
scores exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blas import _one_blas_thread
from .elements import ParityCorrelator
from .fock import (
    _CHUNK,
    CutoffError,
    ModeLabel,
    PureState,
    _lookup,
    _mass,
    amplitude_matrix,
    group_by,
    inner_product,
    mode,
    occupation_moments,
)


@dataclass(frozen=True)
class EntanglementSummary:
    """Schmidt data of a pure-state bipartition."""

    entropy_bits: float
    log_negativity: float
    schmidt_spectrum: tuple


@dataclass(frozen=True)
class BellSettings:
    """Four displacement settings of a CHSH displaced-parity test."""

    beta1: complex
    beta1p: complex
    beta2: complex
    beta2p: complex


@dataclass(frozen=True)
class BellSearch:
    """Deterministic search plan: coarse line grid + Newton refinement.

    ``axis`` selects the line the grid and refinement live on.  The cat
    pairs produced here have their phase-space interference fringes along
    the imaginary displacement axis, so that is the default and gives their
    largest |B|; a purely real search falls well short of it (its |B| tends
    to 2 as alpha grows), and "complex" runs both line searches and keeps
    the better.  For a state with real amplitudes and odd joint parity, as
    every cat pair built here, E(b1*, b2*) = E(-b1, -b2) = E(b1, b2), so a
    line optimum is a stationary point of |B| over all 8 real parameters,
    from which no gradient ascent off the line can start.
    """

    radius: float = 1.0
    axis: str = "imag"

    def __post_init__(self) -> None:
        if self.axis not in ("imag", "real", "complex"):
            raise ValueError("axis must be 'imag', 'real' or 'complex'")
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")


@_one_blas_thread
def entanglement(state: PureState, partition: Sequence[ModeLabel]) -> EntanglementSummary:
    """Schmidt decomposition across ``partition`` of a pure state of norm 1 (to 1e-8).

    Returns the entanglement entropy in bits, the logarithmic negativity
    (log2 of the squared sum of Schmidt coefficients) and the Schmidt
    spectrum itself, from an SVD of the tall side of :func:`amplitude_matrix`,
    which refuses a ``partition`` that is not a nonempty proper subset.
    """
    n = state.norm()
    if abs(n - 1.0) > 1e-8:
        raise ValueError(f"entanglement needs a normalized state (norm {n:.6g})")
    m = amplitude_matrix(state, partition)[0]
    s = np.linalg.svd(m.T if len(m) < m.shape[1] else m, compute_uv=False)
    s = s[s > 1e-12]
    lam = s**2
    lam = lam / lam.sum()
    entropy = float(-(lam * np.log2(lam)).sum()) if len(lam) else 0.0
    log_neg = float(2.0 * np.log2(np.sqrt(lam).sum()))
    return EntanglementSummary(entropy, max(log_neg, 0.0), tuple(float(x) for x in lam))


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 normalized by both squared norms."""
    na, nb = a.norm_sq(), b.norm_sq()
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity of a zero state is undefined")
    return abs(inner_product(a, b)) ** 2 / (na * nb)


def subsystem_fidelity(state: PureState, target: PureState,
                       keep: Sequence[ModeLabel]) -> float:
    """<target| Tr_rest(|state><state|) |target> without building the matrix.

    ``target`` lives on a register whose modes are exactly ``keep`` (any
    order); ``state`` is normalized first in the bra-ket sense.
    """
    rest, group, occ = group_by(state, keep)
    t_reg = target.register
    t_idx = [t_reg.index(m) for m in keep]
    inside = (occ < t_reg.dims[t_idx]).all(axis=1)
    pos, hit = _lookup(target, occ[inside] @ t_reg.strides[t_idx])
    weights = target.coeffs[pos[hit]].conj() * state.coeffs[inside][hit]
    group = group[inside][hit]
    overlaps = (np.bincount(group, weights.real, len(rest))
                + 1j * np.bincount(group, weights.imag, len(rest)))
    return _mass(overlaps) / (state.norm_sq() * target.norm_sq())


# ---------------------------------------------------------------------------
# logical polarization qubits carried on mode envelopes


@dataclass(frozen=True)
class QubitExtraction:
    """Two-qubit density matrix read out of two dual-rail paths.

    Basis order: |HH>, |HV>, |VH>, |VV> for (path_a, path_b).  The logical
    value of a path is which of its polarization modes is occupied;
    components where a path carries photons in both or neither mode fall
    outside the logical subspace and only reduce ``captured_weight``.
    """

    rho: np.ndarray
    captured_weight: float


@_one_blas_thread
def polarization_qubit_state(state: PureState, path_a: int, path_b: int) -> QubitExtraction:
    """Two-qubit state of paths ``path_a`` and ``path_b``: rho[p, q] pairs each
    amplitude of rail pattern p with the :func:`_lookup` of its key moved by
    env * (stride_to - stride_from) on each path whose rail changes (no
    partner if env exceeds that rail's cutoff)."""
    if path_a == path_b:
        raise ValueError(f"the two paths must differ, got {path_a} twice")
    reg = state.register
    rails = [reg.index(mode(path, s)) for path in (path_a, path_b) for s in ("H", "V")]
    occ = reg.digits(state.keys, rails)
    on = occ > 0
    # one occupied rail per path, else outside the logical subspace
    logical = (on[:, 0] != on[:, 1]) & (on[:, 2] != on[:, 3])
    pattern = np.where(logical, 2 * on[:, 1] + on[:, 3], -1)
    envelope = occ[:, ::2] + occ[:, 1::2]
    held = [(rails[p >> 1], rails[2 + (p & 1)]) for p in range(4)]  # the rail on each path
    rho = np.zeros((4, 4), dtype=complex)
    for p in range(4):
        at = np.flatnonzero(pattern == p)
        rho[p, p] = _mass(state.coeffs[at])
        for q in range(p + 1, 4):
            moved, fits = state.keys[at], np.ones(len(at), dtype=bool)
            for path, (src, dst) in enumerate(zip(held[p], held[q])):
                if src != dst:
                    env = envelope[at, path]
                    moved = moved + env * (reg.strides[dst] - reg.strides[src])
                    fits &= env <= reg.cutoffs[dst]
            pos, hit = _lookup(state, moved[fits])
            rho[p, q] = np.vdot(state.coeffs[pos[hit]], state.coeffs[at[fits][hit]])
            rho[q, p] = rho[p, q].conjugate()
    total, captured = state.norm_sq(), float(rho.trace().real)
    if captured > 0.0:
        rho = rho / captured
    return QubitExtraction(rho, captured / total if total > 0 else 0.0)


@_one_blas_thread
def negativity_two_qubit(rho: np.ndarray) -> tuple[float, float]:
    """(negativity, logarithmic negativity) of a 4x4 two-qubit density matrix."""
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    eigs = np.linalg.eigvalsh(pt)
    neg = float(-eigs[eigs < 0].sum())
    return neg, float(np.log2(1.0 + 2.0 * neg))


# ---------------------------------------------------------------------------
# CHSH with displaced parity readout


#: CHSH signs of E(side-1 setting a or a', side-2 setting b or b')
_SIGNS = np.array([[1.0, 1.0], [1.0, -1.0]])


def chsh_displaced_parity(state: PureState, settings: BellSettings) -> float:
    """E(b1,b2) + E(b1,b2') + E(b1',b2) - E(b1',b2') with parity readout, each
    E from the correlator on the rays of its pair of settings at t = 1."""
    e = [[ParityCorrelator(state, b1, b2)([1.0], [1.0])[0, 0]
          for b2 in (settings.beta2, settings.beta2p)] for b1 in (settings.beta1, settings.beta1p)]
    return float((_SIGNS * e).sum())


def _chsh_derivatives(jets: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """B, its gradient and its Hessian over the line parameters (a, a', b, b').

    ``jets[p, i, q, j]`` is d^i/dt^i d^j/dt^j E of side-1 setting p (a, a')
    and side-2 setting q (b, b'), for i, j in 0, 1, 2: the
    :meth:`~dualcat.elements.ParityCorrelator.jets` of the four settings.
    """
    j = jets * _SIGNS[:, None, :, None]
    grad = np.concatenate([j[:, 1, :, 0].sum(axis=1), j[:, 0, :, 1].sum(axis=0)])
    hess = np.diag(np.concatenate([j[:, 2, :, 0].sum(axis=1), j[:, 0, :, 2].sum(axis=0)]))
    hess[:2, 2:] = j[:, 1, :, 1]
    hess[2:, :2] = j[:, 1, :, 1].T
    return float(j[:, 0, :, 0].sum()), grad, hess


#: B and its gradient are sums of O(1) terms, so a gain or gradient below is rounding
_GAIN_TOL, _GRAD_TOL = 1e-14, 1e-12
#: the fewest points of a line grid (over radius 1, 25 seed the global |B|
#: basin) and the most Newton steps of one refinement
_GRID_FLOOR, _NEWTON_CAP = 25, 600


@_one_blas_thread
def _ascend(evaluate, x0: np.ndarray, start_val: float) -> tuple[np.ndarray, float]:
    """Damped Newton ascent on sign * B from ``x0``, sign that of B there.

    ``evaluate(x)`` returns (B, gradient, Hessian), or raises a cutoff error
    past the edge rule ``x0`` passed already.  A step solves (shift - H) s = g,
    the shift above every eigenvalue of H unless H is negative definite; it is
    kept only if it raises sign * B, else the shift grows.  A step whose
    predicted gain is rounding ends the ascent, kept if B holds to that level;
    so do a gradient at rounding and ``_NEWTON_CAP`` steps.  Returns the end
    point and |B| there, or ``x0`` and ``start_val`` if that is better.
    """
    val, grad, hess = evaluate(x0)
    sign = 1.0 if val >= 0 else -1.0
    x, f, grad, hess = x0, sign * val, sign * grad, sign * hess
    shift = 0.0
    for _ in range(_NEWTON_CAP):
        if np.abs(grad).max() <= _GRAD_TOL:
            break
        # as a complex Hermitian matrix: the LAPACK routine of the generator
        # spectra, whose code is mapped already (a real eigh maps 0.4 MB more)
        lam, vec = np.linalg.eigh(hess.astype(complex))
        scale = np.abs(lam).max() or 1.0
        if lam[-1] >= 0:
            shift = max(shift, 1e-3 * scale)
        step = (vec @ ((vec.conj().T @ grad) / (max(lam[-1], 0.0) + shift - lam))).real
        gain = grad @ step + 0.5 * step @ hess @ step
        try:
            trial_val, trial_grad, trial_hess = evaluate(x + step)
        except CutoffError:
            trial_val = -sign * np.inf
        if sign * trial_val > f or (gain <= _GAIN_TOL and sign * trial_val >= f - _GAIN_TOL):
            x, f, grad, hess = x + step, sign * trial_val, sign * trial_grad, sign * trial_hess
            shift = shift / 4.0 if shift > 1e-3 * scale else 0.0
        else:
            shift = 4.0 * shift if shift else scale
        if gain <= _GAIN_TOL:
            break
    return (x, f) if f >= start_val else (x0, start_val)


def _best_seed(E: np.ndarray) -> tuple[float, tuple]:
    """Grid indices (a, a', b, b') with a != a', b != b' that maximize
    B = E[a,b] + E[a,b'] + E[a',b] - E[a',b'], and that B; of tied ones, the
    first (a, a') in row order.

    For fixed (a, a'), B = s[b] + d[b'] with s = E[a] + E[a'] and
    d = E[a] - E[a'], so the best b != b' pairs the top two entries of s
    and of d.  All (a, a') rows are evaluated at once, in blocks of rows of
    a that keep each temporary near ``_CHUNK`` entries.
    """
    n = len(E)
    best, seed, step = -np.inf, None, max(_CHUNK // (n * n), 1)
    for lo in range(0, n, step):
        a = np.arange(lo, min(lo + step, n))
        # one row per pair (a, a'), a-major
        s, d = (E[a, None] + E).reshape(-1, n), (E[a, None] - E).reshape(-1, n)
        rows = np.arange(len(s))
        i1, j1 = s.argmax(axis=1), d.argmax(axis=1)
        s1, d1 = s[rows, i1], d[rows, j1]
        s[rows, i1] = d[rows, j1] = -np.inf
        i2, j2 = s.argmax(axis=1), d.argmax(axis=1)
        s2, d2 = s[rows, i2], d[rows, j2]
        # b == b' is excluded: on a shared argmax, swap in one runner-up
        clash = i1 == j1
        take_s2 = clash & (s2 + d1 > s1 + d2)
        b = np.where(take_s2, i2, i1)
        bp = np.where(clash & ~take_s2, j2, j1)
        val = np.where(clash, np.maximum(s1 + d2, s2 + d1), s1 + d1)
        val[(a - lo) * n + a] = -np.inf  # a == a'
        at = int(np.argmax(val))
        if val[at] > best:
            best, seed = float(val[at]), (lo + at // n, at % n, int(b[at]), int(bp[at]))
    return best, seed


def _line_search(state: PureState, unit: complex, axis: np.ndarray
                 ) -> tuple[BellSettings, float]:
    """Grid over the line ``unit * axis``, then refine along that line.

    Every correlator comes from the ``ParityCorrelator`` of the line: the grid
    is one matrix product, and each Newton step of a refinement takes B, its
    gradient and its Hessian from one 6x6 block of its jets.  Maximizing B
    and maximizing -B are separate problems, so the best grid point of each
    sign seeds its own refinement and the larger |B| wins.  Grid points with
    a == a' or b == b' are skipped as seeds: there B collapses to 2 E(a, b),
    so many of them tie at |B| = 2 (for a parity eigenstate, every one with
    a = b = 0) and would pick an arbitrary seed.  A grid pair past the edge
    rule raises a cutoff error naming the radius ``axis[-1]``.
    """
    corr = ParityCorrelator(state, unit, unit)
    try:
        E = corr(axis, axis)
    except CutoffError as err:
        raise CutoffError(f"search radius {axis[-1]} is not cutoff-safe: {err}") from err

    def evaluate(x):
        return _chsh_derivatives(corr.jets(x[:2], x[2:]))

    found = []
    for sign in (1.0, -1.0):
        val, seed = _best_seed(sign * E)
        found.append(_ascend(evaluate, axis[list(seed)], abs(val)))
    x, val = max(found, key=lambda f: f[1])
    return BellSettings(*(complex(unit * v) for v in x)), val


@_one_blas_thread
def chsh_optimize(state: PureState, search: BellSearch = BellSearch()
                  ) -> tuple[BellSettings, float]:
    """Maximize the displaced-parity CHSH value |B| over the four settings.

    The local-hidden-variable bound is |B| <= 2, and parity readout has no
    sign-flip symmetry, so the strongest violation may lie on either sign of
    B: the search maximizes |B|, returns it, and the returned settings give
    ``chsh_displaced_parity(state, settings) == +value`` or ``-value``.

    Deterministic, on one ``ParityCorrelator`` per search line: a grid along
    the line (one matrix product) of ``_GRID_FLOOR`` points or more, 1/8 of
    a fringe period apart at most, then a damped Newton ascent of at most
    ``_NEWTON_CAP`` steps on exact derivatives from the best grid point of
    each sign of B.  The "complex" search runs the imaginary and the real
    line search and returns the better, the first on a tie (see
    :class:`BellSearch` for why no off-line step gains on the cat pairs).
    Raises a cutoff error if the search radius would push the state off the
    register's cutoffs on a line it searches, by the edge rule every
    evaluation keeps; the edge off those lines is not checked.
    """
    r = float(search.radius)
    n2 = state.norm_sq()
    nbar = max(occupation_moments(state, m)[0] for m in state.register.modes) / n2 if n2 else 0.0
    # spacing 2r / (n - 1) <= pi / (16 sqrt(nbar)), 1/8 of the fringe period
    n = max(_GRID_FLOOR, 1 + math.ceil(32.0 * r * math.sqrt(nbar) / math.pi))
    axis = np.linspace(-r, r, n)
    units = {"imag": (1j,), "real": (1.0,), "complex": (1j, 1.0)}[search.axis]
    return max((_line_search(state, unit, axis) for unit in units), key=lambda found: found[1])


# ---------------------------------------------------------------------------
# phase estimation


def qfi_phase(state: PureState, probe_mode: ModeLabel) -> float:
    """Quantum Fisher information 4 Var(n) for a phase written onto one mode
    of a normalized pure state."""
    n2 = state.norm_sq()
    m1, m2 = occupation_moments(state, probe_mode)
    m1, m2 = m1 / n2, m2 / n2
    return 4.0 * (m2 - m1 * m1)


@_one_blas_thread
def qfi_phase_decay(state: PureState, probe_mode: ModeLabel) -> float:
    """Overlap-decay estimate of the same Fisher information.

    Uses F(d) = 8(1 - |<psi|e^{i d n}|psi>|)/d^2 at d = 1e-3 and 5e-4 and
    removes the leading O(d^2) bias by Richardson extrapolation.  With p
    the probe mode's photon distribution, |<e^{i d n}>|^2 = 1 - D with
    D = 2 sum p_n p_m sin^2(d(n - m)/2), so 1 - |<e^{i d n}>| is
    D/(1 + sqrt(1 - D)), a sum of positive terms with no cancellation.
    """
    reg = state.register
    n = reg.digit(state.keys, reg.index(probe_mode))
    p = np.bincount(n, np.abs(state.coeffs) ** 2)
    p /= p.sum()
    gap = np.subtract.outer(np.arange(len(p)), np.arange(len(p)))

    def loss(d: float) -> float:  # 1 - |<e^{i d n}>|
        decay = 2.0 * float(p @ np.sin(0.5 * d * gap) ** 2 @ p)
        return decay / (1.0 + math.sqrt(1.0 - decay))

    f1, f2 = (8.0 * loss(d) / d**2 for d in (1e-3, 1e-3 / 2.0))
    return (4.0 * f2 - f1) / 3.0


def total_mean_photons(state: PureState) -> float:
    n2 = state.norm_sq()
    return sum(occupation_moments(state, m)[0] for m in state.register.modes) / n2
