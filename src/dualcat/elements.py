"""Optical elements, conditional gates and measurement channels.

Conventions (fixed once, used everywhere):

* PBS transmits H and reflects V with reflection phase +1, so it acts as a
  pure exchange of the V-mode contents of its two ports.
* HWP exchanges the H and V mode contents of one path with no extra phase.
* The 45-degree polarizer rotation maps |H> -> (|H>+|V>)/sqrt2 and
  |V> -> (|V>-|H>)/sqrt2.
* Controlled polarization gates read their control path branch-wise:
  a component flips when the control's V mode is occupied and its H mode
  empty, passes when V is empty.  Components with both control
  polarizations occupied violate the gate contract and raise, unless the
  caller opts into pass-through (physically: the gate fails to actuate on
  ambiguous control light, which is how miscalibrated displacements
  degrade the protocol).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .fock import (
    DEFAULT_PRUNE_EPS,
    BranchedOutcome,
    ContractViolationError,
    CutoffError,
    ModeLabel,
    ModeRegister,
    PureState,
    RegisterMismatchError,
    _finish,
    _mass,
    _one_blas_thread,
    _replace,
    _wrap,
    add,
    apply_single_mode_matrix,
    apply_two_mode_mixer,
    displacement_matrix,
    generator_spectrum,
    mode,
    squeeze_matrix,
)


@dataclass(frozen=True)
class Imperfection:
    """Deviations of the polarization-access hardware from its set points.

    ``displacement_actual`` (if given) replaces the intended amplitude of the
    tagging displacements outright; otherwise ``displacement_offset`` is added
    to it.  ``flip_angle`` = pi is a perfect controlled polarization flip and
    ``cphase_angle`` = pi a perfect conditional phase.
    """

    displacement_actual: complex | None = None
    displacement_offset: complex = 0.0
    flip_angle: float = math.pi
    cphase_angle: float = math.pi

    def actual_displacement(self, intended: complex) -> complex:
        if self.displacement_actual is not None:
            return self.displacement_actual
        return intended + self.displacement_offset

    @property
    def on_ambiguous(self) -> str:
        """How the controlled gates meet ambiguous control light: "error" with
        no displacement error set, since the tags then land on target and
        such light is a contract violation; "pass" with one set, since off
        target tags make it, and the gate does not actuate on it."""
        exact = self.displacement_actual is None and self.displacement_offset == 0
        return "error" if exact else "pass"

    def __post_init__(self) -> None:
        if not 0.0 <= self.flip_angle <= math.pi:
            raise ValueError("flip_angle must lie in [0, pi]")


PERFECT = Imperfection()


def _pol_pair(state: PureState, path: int) -> tuple[int, int]:
    reg = state.register
    h, v = mode(path, "H"), mode(path, "V")
    if not (reg.has(h) and reg.has(v)):
        raise RegisterMismatchError(f"path {path} must carry both H and V modes")
    return reg.index(h), reg.index(v)


def _swapped(register: ModeRegister, keys: np.ndarray, pairs) -> np.ndarray:
    """Keys with the occupations of each mode pair (i, j) exchanged."""
    out = keys.copy()
    for i, j in pairs:
        ni, nj = register.digit(keys, i), register.digit(keys, j)
        if (ni > register.cutoffs[j]).any() or (nj > register.cutoffs[i]).any():
            raise CutoffError(f"exchanging modes {register.modes[i]} and {register.modes[j]} "
                              f"exceeds a cutoff")
        out += (nj - ni) * (register.strides[i] - register.strides[j])
    return out


def _split(state: PureState, mask: np.ndarray) -> tuple[PureState, PureState]:
    """The components where ``mask`` holds and the others.  Both keep the
    input's deficit, which bounds the mass either of them may be missing."""
    return tuple(_wrap(state.register, state.keys[m], state.coeffs[m], state.norm_deficit)
                 for m in (mask, ~mask))


# ---------------------------------------------------------------------------
# passive elements


def pbs(state: PureState, path1: int, path2: int) -> PureState:
    """Polarizing beam splitter between two paths: H passes, V is exchanged."""
    _pol_pair(state, path1)
    _pol_pair(state, path2)
    iv1 = state.register.index(mode(path1, "V"))
    iv2 = state.register.index(mode(path2, "V"))
    return _wrap(state.register, _swapped(state.register, state.keys, [(iv1, iv2)]),
                 state.coeffs, state.norm_deficit)


def hwp(state: PureState, path: int) -> PureState:
    """Half-wave plate: exchange the H and V contents of one path."""
    return _wrap(state.register, _swapped(state.register, state.keys, [_pol_pair(state, path)]),
                 state.coeffs, state.norm_deficit)


def phase_shift(state: PureState, m: ModeLabel, phi: float) -> PureState:
    """Multiply each amplitude by e^{i phi n} for the occupation n of ``m``."""
    i = state.register.index(m)
    phases = np.exp(1j * phi * np.arange(state.register.cutoffs[i] + 1))
    return _wrap(state.register, state.keys,
                 state.coeffs * phases[state.register.digit(state.keys, i)],
                 state.norm_deficit)


def polarizer(state: PureState, path: int, kind: str) -> BranchedOutcome:
    """Polarizer on one path.

    ``kind`` "H" or "V" keeps the matching polarization and diverts any
    photons of the orthogonal one into a "blocked" branch.  ``kind``
    "diag45" is the unitary 45-degree basis rotation (single branch).  Its
    dark-H branch alone, without the rotated state, is
    ``fock.mixer_dark_branch``.
    """
    ih, iv = _pol_pair(state, path)
    if kind == "diag45":
        rotated = apply_two_mode_mixer(state, mode(path, "H"), mode(path, "V"),
                                       theta=-math.pi / 4.0, phase=0.0)
        return BranchedOutcome((("pass", rotated, rotated.norm_sq()),))
    if kind not in ("H", "V"):
        raise ValueError(f"unknown polarizer kind {kind!r}")
    keep, lost = _split(state, state.register.digit(state.keys, iv if kind == "H" else ih) == 0)
    return BranchedOutcome((("pass", keep, keep.norm_sq()),
                            ("blocked", lost, lost.norm_sq())))


def displace(state: PureState, m: ModeLabel, beta: complex,
             tail_eps: float = 1e-10) -> PureState:
    """Displacement D(beta) on one mode, exactly unitary on the truncated space.

    Raises a cutoff error when the displaced state piles more than
    ``tail_eps`` probability onto the top retained Fock level.
    """
    dim = state.register.cutoff_of(m) + 1
    return apply_single_mode_matrix(state, m, displacement_matrix(complex(beta), dim),
                                    tail_eps=tail_eps)


def squeeze(state: PureState, m: ModeLabel, r: float,
            tail_eps: float = 1e-10) -> PureState:
    """Squeezing S(r) on one mode; negative r anti-squeezes."""
    dim = state.register.cutoff_of(m) + 1
    return apply_single_mode_matrix(state, m, squeeze_matrix(float(r), dim),
                                    tail_eps=tail_eps)


# ---------------------------------------------------------------------------
# controlled polarization gates


#: ambiguous control mass below this fraction of the state is truncation dust
AMBIGUOUS_TOL = 1e-10


def _control(state: PureState, ich: int, icv: int, on_ambiguous: str) -> np.ndarray:
    """Mask of the components whose control path is V-polarized (V occupied,
    H empty).  Components with both control polarizations occupied raise
    unless ``on_ambiguous`` is "pass" or their mass is truncation dust."""
    lit = state.register.digit(state.keys, icv) > 0
    dark = state.register.digit(state.keys, ich) == 0
    mass = 0.0 if on_ambiguous == "pass" else _mass(state.coeffs[lit & ~dark])
    if mass > 0.0 and mass > AMBIGUOUS_TOL * max(state.norm_sq(), 1e-300):
        raise ContractViolationError(
            f"control path has both polarizations occupied on probability mass "
            f"{mass:.3g}; the gate is only defined on definite-polarization "
            f"control branches")
    lit &= dark
    return lit


def _controlled(state: PureState, where: np.ndarray, *gates) -> PureState:
    """Apply ``gates`` in turn to the components ``where`` holds and merge
    the output back in once, by :func:`fock._replace`; the rest of the
    state is not touched.

    Each gate maps the selected components, as a state of their own, to a
    state whose deficit is the mass that gate loses (it does not read the
    deficit of its input); these join the output's deficit gate by gate.  A
    gate must leave the control occupations as they are, so that its output
    keys stay apart from the rest of the state.  An empty selection returns
    the state itself, and a selection of all of it is mapped with no merge.
    """
    sel = np.flatnonzero(where)
    if not len(sel):
        return state
    reg, whole = state.register, len(sel) == len(state.keys)
    part = state if whole else _wrap(reg, state.keys[sel], state.coeffs[sel], 0.0)
    deficit = state.norm_deficit
    for gate in gates:
        part = gate(part)
        deficit += part.norm_deficit
    if whole:
        return _wrap(reg, part.keys, part.coeffs, deficit)
    return _replace(state, sel, part, deficit)


def _flip(state: PureState, control_path: int, target_path: int, flip_angle: float):
    """The map of :func:`cnot_pol` on the components its control selects."""
    ith, itv = _pol_pair(state, target_path)
    if control_path == target_path:
        raise ValueError("control and target paths must differ")
    stay = 0.5 * (1.0 + np.exp(-1j * flip_angle))
    swap = 0.5 * (1.0 - np.exp(-1j * flip_angle))

    def flip(part: PureState) -> PureState:
        reg, keys, coeffs = part.register, part.keys, part.coeffs
        flipped = _swapped(reg, keys, [(ith, itv)])
        moved = flipped != keys
        if abs(stay) * np.max(np.abs(coeffs[moved]), initial=0.0) <= DEFAULT_PRUNE_EPS:
            return _finish(reg, flipped, np.where(moved, coeffs * swap, coeffs),
                           abs(stay) ** 2 * _mass(coeffs[moved]))
        return add(_wrap(reg, keys, np.where(moved, coeffs * stay, coeffs), 0.0),
                   _wrap(reg, flipped[moved], coeffs[moved] * swap, 0.0))

    return flip


def _phase(state: PureState, target_path: int, angle: float):
    """The map of :func:`cphase_pol` on the components its control selects."""
    ith, itv = _pol_pair(state, target_path)
    reg = state.register
    phases = np.exp(1j * angle * np.arange(reg.cutoffs[ith] + reg.cutoffs[itv] + 1))

    def phase(part: PureState) -> PureState:
        n = reg.digit(part.keys, ith) + reg.digit(part.keys, itv)
        return _wrap(reg, part.keys, part.coeffs * phases[n], 0.0)

    return phase


@_one_blas_thread
def controlled_pol_gates(state: PureState, control_path: int,
                         flips: Sequence[tuple[int, float]] = (),
                         phases: Sequence[tuple[int, float]] = (),
                         on_ambiguous: str = "error") -> PureState:
    """:func:`cnot_pol` for each (target path, flip angle) of ``flips``, then
    :func:`cphase_pol` for each (target path, angle) of ``phases``, all under
    one control path, in one pass.

    No gate moves the control, so the control mask and its ambiguity check
    are computed once, the gates map the selected components in turn, and
    their output is merged back once.  The output equals the gates run one
    by one, bit for bit, deficit included.
    """
    ich, icv = _pol_pair(state, control_path)
    gates = ([_flip(state, control_path, target, angle) for target, angle in flips]
             + [_phase(state, target, angle) for target, angle in phases])
    return _controlled(state, _control(state, ich, icv, on_ambiguous), *gates)


def cnot_pol(state: PureState, control_path: int, target_path: int,
             flip_angle: float = math.pi, on_ambiguous: str = "error") -> PureState:
    """Flip the target path's polarization where the control path is V-polarized.

    A partial ``flip_angle`` z applies exp[i(z/2)(F - 1)] on the conditioned
    components, F being the H/V exchange: identity at z=0, exact flip at z=pi.
    The exchanged part can land on patterns the conditioned components hold,
    so it joins the part that stays through :func:`add`.  Where every
    amplitude of the staying part of a moved component is at most
    ``DEFAULT_PRUNE_EPS`` (about 6e-17 of the amplitude at z=pi), that part
    is not built: its mass goes to the deficit.
    """
    return controlled_pol_gates(state, control_path, flips=[(target_path, flip_angle)],
                                on_ambiguous=on_ambiguous)


def cphase_pol(state: PureState, control_path: int, target_path: int,
               angle: float = math.pi, on_ambiguous: str = "error") -> PureState:
    """Phase e^{i angle n} on all target-path photons where the control is V."""
    return controlled_pol_gates(state, control_path, phases=[(target_path, angle)],
                                on_ambiguous=on_ambiguous)


def parity_controlled_flip(state: PureState, control_mode: ModeLabel,
                           target_path: int) -> PureState:
    """Swap the target path's H/V contents on components whose control-mode
    occupation is odd; even components pass untouched."""
    target = _pol_pair(state, target_path)
    ic = state.register.index(control_mode)
    if ic in target:
        raise ValueError("the control mode must not lie on the target path")
    odd = state.register.digit(state.keys, ic) % 2 == 1
    return _controlled(state, odd, lambda part: _finish(
        part.register, _swapped(part.register, part.keys, [target]), part.coeffs, 0.0))


def cswap_pol(state: PureState, control_path: int, path_a: int, path_b: int,
              on_ambiguous: str = "error") -> PureState:
    """Fredkin-type exchange of two paths where the control path is V-polarized.

    The exchange swaps beam contents across the paths while preserving each
    photon's polarization slot pattern: (aH <-> bV) and (aV <-> bH), i.e. a
    path swap followed by a half-wave plate on both paths.
    """
    ich, icv = _pol_pair(state, control_path)
    iah, iav = _pol_pair(state, path_a)
    ibh, ibv = _pol_pair(state, path_b)
    if path_a == path_b:
        raise ValueError("the exchanged paths must differ")
    if control_path in (path_a, path_b):
        raise ValueError("the control path must not be one of the exchanged paths")
    return _controlled(state, _control(state, ich, icv, on_ambiguous), lambda part: _finish(
        part.register, _swapped(part.register, part.keys, [(iah, ibv), (iav, ibh)]),
        part.coeffs, 0.0))


# ---------------------------------------------------------------------------
# measurement channels


def onoff_detect(state: PureState, modes: ModeLabel | tuple) -> BranchedOutcome:
    """On/off detector: "click" projects onto >= 1 photon in the watched
    mode(s), "no_click" onto vacuum there."""
    watch = (modes,) if isinstance(modes, ModeLabel) else tuple(modes)
    idx = [state.register.index(m) for m in watch]
    click, dark = _split(state, state.register.digits(state.keys, idx).any(axis=1))
    return BranchedOutcome((("click", click, click.norm_sq()),
                            ("no_click", dark, dark.norm_sq())))


def absorb_arm(state: PureState, m: ModeLabel) -> BranchedOutcome:
    """Absorbing obstacle in one arm: any photon there destroys the run.

    The "explode" branch records only its probability (the state is gone);
    the "survive" branch is the unnormalized vacuum projection.
    """
    empty = state.register.digit(state.keys, state.register.index(m)) == 0
    survive = _split(state, empty)[0]
    return BranchedOutcome((("explode", None, _mass(state.coeffs[~empty])),
                            ("survive", survive, survive.norm_sq())))


# ---------------------------------------------------------------------------
# displaced parity correlation


def _state_matrix(state: PureState) -> np.ndarray:
    reg = state.register
    if reg.n_modes != 2:
        raise ValueError("displaced parity expectation needs a two-mode state")
    out = np.zeros(reg.dims, dtype=complex)
    out[reg.digit(state.keys, 0), reg.digit(state.keys, 1)] = state.coeffs
    return out


@_one_blas_thread
def displaced_parity_expect(state: PureState, beta1: complex, beta2: complex,
                            tail_eps: float = 1e-9) -> float:
    """< D(b1)D(b2) (-1)^{n1+n2} D†(b2)D†(b1) > for a two-mode state.

    Computed by displacing the state by (-b1, -b2) and summing the signed
    photon-number probabilities; the result lies in [-1, 1].
    """
    reg = state.register
    m = _state_matrix(state)
    d1 = displacement_matrix(-complex(beta1), reg.cutoffs[0] + 1)
    d2 = displacement_matrix(-complex(beta2), reg.cutoffs[1] + 1)
    shifted = d1 @ m @ d2.T
    top = float(np.sum(np.abs(shifted[-1, :]) ** 2) + np.sum(np.abs(shifted[:, -1]) ** 2))
    if top > tail_eps:
        raise CutoffError(
            f"displacement ({beta1}, {beta2}) pushes mass {top:.3g} onto the cutoff edge")
    probs = np.abs(shifted) ** 2
    signs1 = (-1.0) ** np.arange(probs.shape[0])
    signs2 = (-1.0) ** np.arange(probs.shape[1])
    return float(signs1 @ probs @ signs2)


#: derivative evaluations refuse edge masses above this share of ``tail_eps``.
#: A refinement can converge onto the edge, and the edge masses summed here
#: and by ``displaced_parity_expect`` differ by up to about 1.5e-17 (1.5e-8 of
#: the default 1e-9); the margin keeps the points it accepts inside both.
_JET_EDGE = 1.0 - 1e-6


def _check_edge(mass1: np.ndarray, mass2: np.ndarray, tail_eps: float,
                beta1: np.ndarray, beta2: np.ndarray) -> None:
    """Raise a cutoff error when a pair (beta1[i], beta2[j]) of displacements
    pushes more than ``tail_eps`` onto the cutoff edges, given the edge mass of
    each side."""
    top = mass1[:, None] + mass2
    if np.any(top > tail_eps):
        i, j = np.unravel_index(int(np.argmax(top > tail_eps)), top.shape)
        raise CutoffError(f"displacement ({beta1[i]}, {beta2[j]}) pushes mass "
                          f"{top[i, j]:.3g} onto the cutoff edge")


class ParityLineCorrelator:
    """Displaced-parity correlator of one two-mode state on the line
    beta = t * unit, as a bilinear form in two phase vectors.

    The truncated a† - a couples only levels n and n +- 1, so parity
    anticommutes with it and D(b) P D†(b) = D(2b) P holds exactly on the
    truncated space.  With i(a† - a) = V diag(lam) V† per mode and
    Phi = diag(e^{i arg(unit) n}), E(t1, t2) = Re[e1^T W e2] with
    e = exp(-2i t |unit| lam) and W = A ∘ B^T, A = V1† Phi1† P1 M P2 Phi2* V2*,
    B = V2^T Phi2 M† Phi1 V1 built once from the amplitude matrix M.  Each
    correlator costs O(dim^2) and a grid of them is one matrix product.  The
    cutoff-edge masses of the displaced state are the quadratic forms
    x C x† with x = V[-1, :] ∘ e^{i t |unit| lam}, so every evaluation keeps
    the edge check of ``displaced_parity_expect``.
    """

    @_one_blas_thread
    def __init__(self, state: PureState, unit: complex, tail_eps: float = 1e-9):
        m = _state_matrix(state)
        self.unit, self.tail_eps = complex(unit), tail_eps
        spectra = [generator_spectrum("displace", d) for d in m.shape]
        pv1, pv2 = (np.exp(1j * np.angle(unit) * np.arange(len(lam)))[:, None] * v
                    for lam, v, _ in spectra)
        p1, p2 = ((-1.0) ** np.arange(d) for d in m.shape)
        a = pv1.conj().T @ (p1[:, None] * m * p2) @ pv2.conj()
        b = pv2.T @ m.conj().T @ pv1
        self.w = a * b.T
        # per mode: (lam, top row of V, C) with the edge mass x C x†
        self.sides = [(lam, v[-1], pv.conj().T @ mm @ pv) for (lam, v, _), pv, mm
                      in zip(spectra, (pv1, pv2), (m @ m.conj().T, m.T @ m.conj()))]

    @_one_blas_thread
    def _side(self, t: np.ndarray, lam: np.ndarray, top: np.ndarray, c: np.ndarray):
        """Cutoff-edge mass and correlator phase vector at each coordinate."""
        phases = np.exp(1j * abs(self.unit) * t[:, None] * lam)
        x = top * phases
        return ((x @ c) * x.conj()).sum(axis=1).real, phases.conj() ** 2

    @_one_blas_thread
    def _phases(self, t1: np.ndarray, t2: np.ndarray, tail_eps: float
                ) -> tuple[np.ndarray, np.ndarray]:
        """Phase vectors of both sides, once every pair passed the edge check."""
        t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
        (mass1, e1), (mass2, e2) = (self._side(t, *side) for t, side in zip((t1, t2), self.sides))
        _check_edge(mass1, mass2, tail_eps, t1 * self.unit, t2 * self.unit)
        return e1, e2

    @_one_blas_thread
    def __call__(self, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
        """E[i, j] = displaced_parity_expect(state, t1[i] * unit, t2[j] * unit).

        Raises a cutoff error when any pair pushes more than ``tail_eps``
        of mass onto the cutoff edge.
        """
        e1, e2 = self._phases(t1, t2, self.tail_eps)
        return (e1 @ self.w @ e2.T).real

    @_one_blas_thread
    def jets(self, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
        """J[i, k, j, l] = d^k/dt1^k d^l/dt2^l E(t1[i], t2[j]) for k, l in 0, 1, 2.

        d/dt multiplies e by kappa = -2i |unit| lam, so one product of the
        stacked [e, kappa e, kappa^2 e] of each side gives them all, with the
        edge check of ``__call__`` held ``_JET_EDGE`` inside the edge.
        """
        e1, e2 = self._phases(t1, t2, self.tail_eps * _JET_EDGE)
        left, right = ((e[:, None, :] * (-2j * abs(self.unit) * side[0]) ** np.arange(3)[:, None]
                        ).reshape(-1, e.shape[1]) for e, side in zip((e1, e2), self.sides))
        return (left @ self.w @ right.T).real.reshape(len(e1), 3, len(e2), 3)


class ParityPolarCorrelator:
    """Displaced-parity correlator of one two-mode state at settings
    beta = rho e^{i phi}, with its exact derivatives in (rho, phi).

    With R = diag(e^{i phi n}), D(2 beta) P = R D(2 rho) P R†, so entry [m, n]
    of Pi = D(2 beta) P is e^{i phi (m - n)} Q[m, n] with
    Q = V diag(e^{-2i rho lam}) V† P from the cached spectrum of i(a† - a).
    A rho-derivative multiplies e^{-2i rho lam} by -2i lam and a
    phi-derivative multiplies entry [m, n] by i(m - n), and
    E = sum conj(M) ∘ (Pi1 M Pi2^T) for the amplitude matrix M.  An
    evaluation costs O(dim^3) and keeps the edge check of
    ``displaced_parity_expect``: the edge mass of each side is x C x† with
    x the last row of D(-beta).
    """

    @_one_blas_thread
    def __init__(self, state: PureState, tail_eps: float = 1e-9):
        self.m = _state_matrix(state)
        self.tail_eps = tail_eps
        self.sides = [(*generator_spectrum("displace", d), mm) for d, mm
                      in zip(self.m.shape, (self.m @ self.m.conj().T, self.m.T @ self.m.conj()))]

    @staticmethod
    @_one_blas_thread
    def _side(rho: np.ndarray, phi: np.ndarray, lam: np.ndarray, v: np.ndarray,
              vh: np.ndarray, c: np.ndarray):
        """Cutoff-edge mass and the jets [Pi, Pi_rho, Pi_phi, Pi_rr, Pi_rp, Pi_pp]
        of each setting (rho[k], phi[k])."""
        n = np.arange(len(lam))
        x = ((v[-1] * np.exp(1j * rho[:, None] * lam)) @ vh) * np.exp(-1j * phi[:, None] * n)
        mass = ((x @ c) * x.conj()).sum(axis=1).real
        kappa = (-2j * lam) ** np.arange(3)[:, None]
        q = (v * (kappa * np.exp(-2j * rho[:, None, None] * lam))[:, :, None, :]) @ vh
        q = q * (-1.0) ** n
        dn = 1j * (n[:, None] - n)
        ph = np.exp(phi[:, None, None] * dn)[:, None]
        pi = ph * np.stack([q[:, 0], q[:, 1], dn * q[:, 0], q[:, 2], dn * q[:, 1], dn * dn * q[:, 0]],
                           axis=1)
        return mass, pi

    @_one_blas_thread
    def jets(self, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
        """J[i, k, j, l] = the derivative of E(s1[i], s2[j]) that entry k of the
        setting s1[i] = (rho, phi) of mode 1 and entry l of s2[j] name, in the
        order value, d/drho, d/dphi, d2/drho2, d2/drho dphi, d2/dphi2.  Raises
        a cutoff error like ``jets`` of ``ParityLineCorrelator``."""
        s1, s2 = np.asarray(s1, dtype=float), np.asarray(s2, dtype=float)
        (mass1, pi1), (mass2, pi2) = (self._side(s[:, 0], s[:, 1], *side)
                                      for s, side in zip((s1, s2), self.sides))
        _check_edge(mass1, mass2, self.tail_eps * _JET_EDGE,
                    *(s[:, 0] * np.exp(1j * s[:, 1]) for s in (s1, s2)))
        # sum conj(M) ∘ (Pi1 M Pi2^T) = sum Pi1 ∘ (conj(M) Pi2 M^T)
        z = self.m.conj() @ pi2 @ self.m.T
        return np.einsum("ikab,jlab->ikjl", pi1, z).real
