"""Entanglement quantification, Bell-value optimization, metrology figures.

Entropies are in bits (log base 2) so a maximally entangled qubit pair
scores exactly 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elements import ParityLineCorrelator, displaced_parity_expect
from .fock import (
    CutoffError,
    ModeLabel,
    PureState,
    _lookup,
    _mass,
    _one_blas_thread,
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

    @property
    def schmidt_rank(self) -> int:
        return len(self.schmidt_spectrum)


@dataclass(frozen=True)
class BellSettings:
    """Four displacement settings of a CHSH displaced-parity test."""

    beta1: complex
    beta1p: complex
    beta2: complex
    beta2p: complex

    def as_array(self) -> np.ndarray:
        return np.array([self.beta1, self.beta1p, self.beta2, self.beta2p])


@dataclass(frozen=True)
class BellSearch:
    """Deterministic search plan: coarse line grid + simplex refinement.

    ``axis`` selects the line the grid and refinement live on.  The cat
    pairs produced here have their phase-space interference fringes along
    the imaginary displacement axis, so that is the default and gives their
    largest |B|; a purely real search falls well short of it (its |B| tends
    to 2 as alpha grows), and "complex" opens the full 8-parameter refinement for
    states with no such symmetry, seeded from the better of the imaginary
    and real line searches.

    ``grid_density`` is a floor on the points of each line grid: the search
    uses more where the state needs them, so that the grid spacing stays at
    most 1/8 of the fringe period pi / (2 sqrt(nbar)) of its larger per-mode
    mean photon number nbar.
    """

    grid_density: int = 25
    refine_iters: int = 600
    radius: float = 1.0
    axis: str = "imag"

    def __post_init__(self) -> None:
        if self.axis not in ("imag", "real", "complex"):
            raise ValueError("axis must be 'imag', 'real' or 'complex'")
        if self.grid_density < 2:
            raise ValueError("grid_density must be at least 2")


@_one_blas_thread
def entanglement(state: PureState, partition: Sequence[ModeLabel],
                 norm_tol: float = 1e-8) -> EntanglementSummary:
    """Schmidt decomposition of a normalized pure state across ``partition``.

    Returns the entanglement entropy in bits, the logarithmic negativity
    (log2 of the squared sum of Schmidt coefficients) and the Schmidt
    spectrum itself.
    """
    n = state.norm()
    if abs(n - 1.0) > norm_tol:
        raise ValueError(f"entanglement needs a normalized state (norm {n:.6g})")
    reg = state.register
    keep_idx = [reg.index(m) for m in partition]
    if not keep_idx or len(set(keep_idx)) == reg.n_modes:
        raise ValueError("partition must be a nonempty proper subset")
    s = np.linalg.svd(amplitude_matrix(state, partition)[0], compute_uv=False)
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


_PATTERNS = (("H", "H"), ("H", "V"), ("V", "H"), ("V", "V"))


@_one_blas_thread
def polarization_qubit_state(state: PureState, path_a: int, path_b: int) -> QubitExtraction:
    rest, group, occ = group_by(state, [mode(path, s) for path in (path_a, path_b)
                                        for s in ("H", "V")])
    on = occ > 0
    # one occupied rail per path, else outside the logical subspace
    logical = (on[:, 0] != on[:, 1]) & (on[:, 2] != on[:, 3])
    occ, on = occ[logical], on[logical]
    # a component: the other modes' occupations and each path's rail-agnostic
    # envelope; each column of ``table`` holds one rail pattern of _PATTERNS
    env_a, env_b = occ[:, 0] + occ[:, 1], occ[:, 2] + occ[:, 3]
    span = int(occ.max(initial=0)) + 1
    comps, row = np.unique((group[logical] * span + env_a) * span + env_b, return_inverse=True)
    table = np.zeros((len(comps), len(_PATTERNS)), dtype=complex)
    table[row, 2 * on[:, 1] + on[:, 3]] = state.coeffs[logical]
    total = state.norm_sq()
    captured = _mass(table)
    rho = table.T @ table.conj()
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


def chsh_displaced_parity(state: PureState, settings: BellSettings) -> float:
    """E(b1,b2) + E(b1,b2') + E(b1',b2) - E(b1',b2') with parity readout."""
    e = displaced_parity_expect
    return (e(state, settings.beta1, settings.beta2)
            + e(state, settings.beta1, settings.beta2p)
            + e(state, settings.beta1p, settings.beta2)
            - e(state, settings.beta1p, settings.beta2p))


def _nelder_mead(f, x0: np.ndarray, maxiter: int, xatol: float, fatol: float
                 ) -> tuple[np.ndarray, float]:
    """Minimize ``f`` by the Nelder-Mead simplex from ``x0``: the standard,
    non-adaptive and unbounded method of ``scipy.optimize.minimize``, step
    for step (reflection 1, expansion 2, contractions and shrink 1/2, a first
    simplex 5 % or 0.00025 off ``x0`` along each axis).  It stops after
    ``maxiter`` iterations, or once every vertex lies within ``xatol`` of the
    best and every value within ``fatol``.  Returns the best vertex and value.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(x) for x in sim], dtype=float)

    def order(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    # sorted twice, as scipy does: argsort need not keep the order of ties
    sim, fsim = order(*order(sim, fsim))
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                keep = fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                keep = fxc < fsim[-1]
            if keep:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink toward the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        sim, fsim = order(sim, fsim)
    return sim[0], np.min(fsim)


def _refine(chsh, x0: np.ndarray, start_val: float, iters: int) -> tuple[np.ndarray, float]:
    """Fixed-budget Nelder-Mead on |chsh(x)| from ``x0``; keeps the start if
    it is better.  A setting that raises a cutoff error scores -inf."""

    def objective(x):
        try:
            return -abs(chsh(x))
        except CutoffError:
            return np.inf

    x, fun = _nelder_mead(objective, x0, iters, xatol=1e-8, fatol=1e-11)
    if float(-fun) >= start_val:
        return x, float(-fun)
    return x0, start_val


def _best_seed(E: np.ndarray) -> tuple[float, tuple]:
    """Grid indices (a, a', b, b') with a != a', b != b' that maximize
    B = E[a,b] + E[a,b'] + E[a',b] - E[a',b'], and that B.

    For fixed (a, a'), B = s[b] + d[b'] with s = E[a] + E[a'] and
    d = E[a] - E[a'], so the best b != b' pairs the top two entries of s
    and of d; one row of a at a time keeps the memory O(n^2).
    """
    n = len(E)
    rows = np.arange(n)
    best, seed = -np.inf, None
    for a in range(n):
        s, d = E[a] + E, E[a] - E
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
        val[a] = -np.inf  # a == a'
        ap = int(np.argmax(val))
        if val[ap] > best:
            best, seed = float(val[ap]), (a, ap, int(b[ap]), int(bp[ap]))
    return best, seed


def _line_search(state: PureState, search: BellSearch, unit: complex
                 ) -> tuple[BellSettings, float]:
    """Grid over the line ``unit * [-r, r]``, then refine along that line.

    Every correlator comes from one ``ParityLineCorrelator`` of the state:
    the grid is one matrix product and each refinement step one 2x2 block.
    Maximizing B and maximizing -B are separate problems, so the best grid
    point of each sign seeds its own refinement and the larger |B| wins.
    Grid points with a == a' or b == b' are skipped as seeds: there B
    collapses to 2 E(a, b), so many of them tie at |B| = 2 (for a parity
    eigenstate, every one with a = b = 0) and would pick an arbitrary seed.
    """
    r = float(search.radius)
    n2 = state.norm_sq()
    nbar = max(occupation_moments(state, m)[0] for m in state.register.modes) / n2 if n2 else 0.0
    # spacing 2r / (n - 1) <= pi / (16 sqrt(nbar)), 1/8 of the fringe period
    n = max(search.grid_density, 1 + math.ceil(32.0 * r * math.sqrt(nbar) / math.pi))
    axis = np.linspace(-r, r, n)
    corr = ParityLineCorrelator(state, unit)
    E = corr(axis, axis)

    def chsh(x):
        e = corr(x[:2], x[2:])
        return e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]

    found = []
    for sign in (1.0, -1.0):
        val, seed = _best_seed(sign * E)
        found.append(_refine(chsh, axis[list(seed)], abs(val), search.refine_iters))
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

    Deterministic: a grid along the search line (one matrix product of a
    ``ParityLineCorrelator``) followed by fixed-budget Nelder-Mead
    refinements from the best grid point of each sign of B.  The "complex" search runs both the
    imaginary and the real line search and refines all 8 real parameters
    from the better of the two, so it never returns less than either line
    search.  Raises a cutoff error if the search radius would push the
    state off the register's cutoffs.
    """
    r = float(search.radius)
    for probe in (r, -r, 1j * r, -1j * r):
        try:
            displaced_parity_expect(state, probe, probe)
        except CutoffError as err:
            raise CutoffError(f"search radius {r} is not cutoff-safe: {err}") from err

    if search.axis != "complex":
        return _line_search(state, search, 1j if search.axis == "imag" else 1.0)

    seed, seed_val = max((_line_search(state, search, unit) for unit in (1j, 1.0)),
                         key=lambda found: found[1])
    x0 = np.array([[b.real, b.imag] for b in seed.as_array()]).ravel()

    def to_settings(x):
        return BellSettings(x[0] + 1j * x[1], x[2] + 1j * x[3],
                            x[4] + 1j * x[5], x[6] + 1j * x[7])

    x, val = _refine(lambda x: chsh_displaced_parity(state, to_settings(x)), x0,
                     seed_val, search.refine_iters)
    return to_settings(x), val


# ---------------------------------------------------------------------------
# phase estimation


def qfi_phase(state: PureState, probe_mode: ModeLabel) -> float:
    """Quantum Fisher information 4 Var(n) for a phase written onto one mode
    of a normalized pure state."""
    n2 = state.norm_sq()
    m1, m2 = occupation_moments(state, probe_mode)
    m1, m2 = m1 / n2, m2 / n2
    return 4.0 * (m2 - m1 * m1)


def qfi_phase_decay(state: PureState, probe_mode: ModeLabel,
                    deltas: tuple = (1e-3, 5e-4)) -> float:
    """Overlap-decay estimate of the same Fisher information.

    Uses F(d) = 8(1 - |<psi|e^{i d n}|psi>|)/d^2 at two step sizes and
    removes the leading O(d^2) bias by Richardson extrapolation.
    """
    from .elements import phase_shift

    d1, d2 = deltas
    if not math.isclose(d1, 2.0 * d2):
        vals = []
        for d in deltas:
            c = abs(inner_product(state, phase_shift(state, probe_mode, d)))
            vals.append(8.0 * (1.0 - c / state.norm_sq()) / d**2)
        return vals[-1]
    n2 = state.norm_sq()
    f1 = 8.0 * (1.0 - abs(inner_product(state, phase_shift(state, probe_mode, d1))) / n2) / d1**2
    f2 = 8.0 * (1.0 - abs(inner_product(state, phase_shift(state, probe_mode, d2))) / n2) / d2**2
    return (4.0 * f2 - f1) / 3.0


def total_mean_photons(state: PureState) -> float:
    n2 = state.norm_sq()
    return sum(occupation_moments(state, m)[0] for m in state.register.modes) / n2
