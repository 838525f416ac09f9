"""Optical elements, conditional gates and measurement channels.

Conventions (fixed once, used everywhere):

* PBS transmits H and reflects V with reflection phase +1, so it acts as a
  pure exchange of the V-mode contents of its two ports.
* HWP exchanges the H and V mode contents of one path with no extra phase.
* The 45-degree rotation ``rotate_45`` maps |H> -> (|H>+|V>)/sqrt2 and
  |V> -> (|V>-|H>)/sqrt2.
* Measurement channels return their branches as a tuple of unnormalized
  states; a branch's probability is its norm², and its probability given
  the input is that over the input's norm².
* Controlled polarization gates (``controlled_pol_gates``, the one op for
  path-controlled flips and phases, and ``cswap_pol``) read their control
  path branch-wise: a component is acted on when the control's V mode is
  occupied and its H mode empty, passes when V is empty.  Components with
  both control polarizations occupied violate the gate contract and raise,
  unless the caller opts into pass-through (physically: the gate fails to
  actuate on ambiguous control light, which is how miscalibrated
  displacements degrade the protocol).
* Every displaced-parity correlator of a two-mode state comes from one
  ``ParityCorrelator``, on one ray of settings per side, with derivatives
  along the rays, under the one cutoff-edge rule of its ``check``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .blas import _one_blas_thread
from .fock import (
    DEFAULT_PRUNE_EPS,
    ContractViolationError,
    CutoffError,
    ModeLabel,
    ModeRegister,
    PureState,
    RegisterMismatchError,
    _finish,
    _mass,
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

    ``displacement_offset`` is added to the intended amplitude of the
    tagging displacements.  ``flip_angle`` = pi is a perfect controlled
    polarization flip.
    """

    displacement_offset: complex = 0.0
    flip_angle: float = math.pi

    @property
    def on_ambiguous(self) -> str:
        """How the controlled gates meet ambiguous control light: "error" with
        no displacement error set, since the tags then land on target and
        such light is a contract violation; "pass" with one set, since off
        target tags make it, and the gate does not actuate on it."""
        return "error" if self.displacement_offset == 0 else "pass"

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


def rotate_45(state: PureState, path: int) -> PureState:
    """The 45-degree polarization rotation of one path.  Its dark-H branch
    alone, without the rotated state, is ``mixer_dark_branch`` in
    ``tests/staged.py``, the tests' reference for the polarization access."""
    return apply_two_mode_mixer(state, mode(path, "H"), mode(path, "V"),
                                theta=-math.pi / 4.0, phase=0.0)


#: probability mass a displacement or squeeze may leave on the top Fock level
TOP_LEVEL_TOL = 1e-10


def displace(state: PureState, m: ModeLabel, beta: complex) -> PureState:
    """Displacement D(beta) on one mode, exactly unitary on the truncated space.

    Raises a cutoff error when the displaced state piles more than
    ``TOP_LEVEL_TOL`` probability onto the top retained Fock level.
    """
    dim = state.register.cutoff_of(m) + 1
    return apply_single_mode_matrix(state, m, displacement_matrix(complex(beta), dim),
                                    tail_eps=TOP_LEVEL_TOL)


def squeeze(state: PureState, m: ModeLabel, r: float) -> PureState:
    """Squeezing S(r) on one mode; negative r anti-squeezes.  The top-level
    rule is that of :func:`displace`."""
    dim = state.register.cutoff_of(m) + 1
    return apply_single_mode_matrix(state, m, squeeze_matrix(float(r), dim),
                                    tail_eps=TOP_LEVEL_TOL)


# ---------------------------------------------------------------------------
# controlled polarization gates


#: ambiguous control mass below this fraction of the state is truncation dust
AMBIGUOUS_TOL = 1e-10


def _refuse_ambiguous(mass: float, norm_sq: float) -> None:
    """Raise a contract violation unless ``mass``, the mass of the components
    whose control path has both polarizations occupied, is at most truncation
    dust of a state of squared norm ``norm_sq``: a NaN mass is refused too."""
    if not mass <= AMBIGUOUS_TOL * max(norm_sq, 1e-300):
        raise ContractViolationError(
            f"control path has both polarizations occupied on probability mass "
            f"{mass:.3g}; the gate is only defined on definite-polarization "
            f"control branches")


def _control(state: PureState, ich: int, icv: int, on_ambiguous: str) -> np.ndarray:
    """Mask of the components whose control path is V-polarized (V occupied,
    H empty).  Components with both control polarizations occupied raise
    unless ``on_ambiguous`` is "pass" or their mass is truncation dust."""
    lit = state.register.digit(state.keys, icv) > 0
    dark = state.register.digit(state.keys, ich) == 0
    if on_ambiguous != "pass":
        _refuse_ambiguous(_mass(state.coeffs[lit & ~dark]), state.norm_sq())
    lit &= dark
    return lit


def _controlled(state: PureState, where: np.ndarray, *gates) -> PureState:
    """Apply ``gates`` in turn to the components ``where`` holds and join
    the output to the rest of the state once: the two sorted runs are
    concatenated and the one stable sort merges them.

    Each gate maps the selected components, as a state of their own, to a
    state whose deficit is the mass that gate loses (it does not read the
    deficit of its input); these join the output's deficit gate by gate.  A
    gate must leave the control occupations as they are, so that its output
    keys stay apart from the rest of the state.  A selection of all of it is
    mapped with no merge.
    """
    sel = np.flatnonzero(where)
    reg, whole = state.register, len(sel) == len(state.keys)
    part = state if whole else _wrap(reg, state.keys[sel], state.coeffs[sel], 0.0)
    deficit = state.norm_deficit
    for gate in gates:
        part = gate(part)
        deficit += part.norm_deficit
    if whole:
        return _wrap(reg, part.keys, part.coeffs, deficit)
    return _wrap(reg, np.concatenate((state.keys[~where], part.keys)),
                 np.concatenate((state.coeffs[~where], part.coeffs)), deficit)


def _flip(state: PureState, control_path: int, target_path: int, flip_angle: float):
    """The polarization flip of the target path on the components the control
    selects: exp[i(z/2)(F - 1)] at ``flip_angle`` z, F being the H/V
    exchange, so identity at z=0 and exact flip at z=pi.

    The exchanged part can land on patterns the selected components hold,
    so it joins the part that stays through :func:`add`.  Where every
    amplitude of the staying part of a moved component is at most
    ``DEFAULT_PRUNE_EPS`` (about 6e-17 of the amplitude at z=pi), that part
    is not built: its mass goes to the deficit.
    """
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
    """The phase e^{i angle n} on all target-path photons of the components
    the control selects."""
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
    """Polarization flips, then photon-number phases, on target paths where
    the control path is V-polarized, all under one control, in one pass.

    Each (target path, flip angle) of ``flips`` flips the target's
    polarization by that angle (pi is an exact flip, partial angles rotate
    part way: see :func:`_flip`); each (target path, angle) of ``phases``
    applies e^{i angle n} on all the target's photons.  No gate moves the
    control, so the control mask and its ambiguity check are computed once,
    the gates map the selected components in turn, and their output is
    merged back once.  The output equals one call per gate, run in turn,
    bit for bit, deficit included.
    """
    ich, icv = _pol_pair(state, control_path)
    gates = ([_flip(state, control_path, target, angle) for target, angle in flips]
             + [_phase(state, target, angle) for target, angle in phases])
    return _controlled(state, _control(state, ich, icv, on_ambiguous), *gates)


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


def onoff_detect(state: PureState, m: ModeLabel) -> tuple[PureState, PureState]:
    """On/off detector watching mode ``m``: ``(click, no_click)``, the
    projections onto >= 1 photon in ``m`` and onto vacuum there."""
    reg = state.register
    return _split(state, reg.digit(state.keys, reg.index(m)) > 0)


# ---------------------------------------------------------------------------
# displaced parity correlation


class ParityCorrelator:
    """E(b1, b2) = < D(b1)D(b2) (-1)^{n1+n2} D†(b2)D†(b1) > of one two-mode
    state with amplitude matrix M on one ray of settings b = t u per side,
    E(t1, t2) = E(t1 u1, t2 u2), with exact derivatives along them (:meth:`jets`).

    Parity anticommutes with the truncated a† - a, so D(b) P D†(b) = D(2b) P
    exactly.  With i(a† - a) = V diag(lam) V† (the cached spectrum) and
    Phi = diag(e^{i arg(u) n}) on each side, D(2 t u) = Phi V diag(e) V† Phi†
    with e = exp(-2i t |u| lam), so E(t1, t2) = Re[e1^T W e2] with W = A ∘ B^T,
    A = V1† Phi1† P1 M P2 Phi2* V2*, B = V2^T Phi2 M† Phi1 V1.  Each correlator
    costs O(dim^2) and a grid of them is one matrix product.

    Every evaluation first runs the edge rule of ``check`` on (t1 u1, t2 u2):
    with x the last row of D(-b), the displaced state holds |x M|^2 on the top
    level of mode 1 and |x M^T|^2 on that of mode 2, and a pair of settings
    whose edge masses sum above ``tail_eps`` is refused.
    """

    @_one_blas_thread
    def __init__(self, state: PureState, u1: complex, u2: complex, tail_eps: float = 1e-9):
        reg = state.register
        if reg.n_modes != 2:
            raise ValueError("displaced parity expectation needs a two-mode state")
        self.m = m = np.zeros(reg.dims, dtype=complex)
        m[reg.digit(state.keys, 0), reg.digit(state.keys, 1)] = state.coeffs
        self.units, self.tail_eps = (complex(u1), complex(u2)), tail_eps
        self.spectra = [generator_spectrum("displace", d) for d in m.shape]
        pv1, pv2 = (np.exp(1j * np.angle(u) * np.arange(len(lam)))[:, None] * v
                    for u, (lam, v, _) in zip(self.units, self.spectra))
        p1, p2 = ((-1.0) ** np.arange(d) for d in m.shape)
        a = pv1.conj().T @ (p1[:, None] * m * p2) @ pv2.conj()
        b = pv2.T @ m.conj().T @ pv1
        self.w = a * b.T

    @staticmethod
    @_one_blas_thread
    def _edge(b: np.ndarray, lam: np.ndarray, v: np.ndarray, vh: np.ndarray,
              m: np.ndarray) -> np.ndarray:
        """|x m|^2 at each setting b[k], x the last row of D(-b[k]) up to a
        phase.  Each row is a product of its own, as a k-row product sums in
        another order for some k: a setting gets one edge mass in every
        evaluation, whatever the batch."""
        rho, phi = np.abs(b), np.angle(b)
        x = ((v[-1] * np.exp(1j * rho[:, None] * lam))[:, None] @ vh
             * np.exp(-1j * phi)[:, None, None] ** np.arange(len(lam)))
        return (np.abs(x @ m) ** 2).sum(axis=(1, 2))

    def check(self, b1, b2) -> np.ndarray:
        """The cutoff-edge mass top[i, j] of the state displaced by
        (-b1[i], -b2[j]); raises a cutoff error, naming the settings as given,
        unless each is at most ``tail_eps`` (a NaN mass is refused too)."""
        b1, b2 = (np.atleast_1d(np.asarray(b, dtype=complex)) for b in (b1, b2))
        top = (self._edge(b1, *self.spectra[0], self.m)[:, None]
               + self._edge(b2, *self.spectra[1], self.m.T))
        if not (top <= self.tail_eps).all():
            i, j = np.unravel_index(int(np.argmin(top <= self.tail_eps)), top.shape)
            raise CutoffError(f"displacement ({b1[i]}, {b2[j]}) puts mass {top[i, j]:.3g} on the edge")
        return top

    def _phases(self, t1, t2) -> list:
        """The phase vectors e of both sides, once every pair passed the check."""
        t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
        self.check(t1 * self.units[0], t2 * self.units[1])
        return [np.exp(1j * abs(u) * t[:, None] * lam).conj() ** 2
                for t, u, (lam, _, _) in zip((t1, t2), self.units, self.spectra)]

    @_one_blas_thread
    def __call__(self, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
        """E[i, j] = E(t1[i] u1, t2[j] u2), in [-1, 1]."""
        e1, e2 = self._phases(t1, t2)
        return (e1 @ self.w @ e2.T).real

    @_one_blas_thread
    def jets(self, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
        """J[i, k, j, l] = d^k/dt1^k d^l/dt2^l E(t1[i], t2[j]) for k, l in 0, 1, 2:
        d/dt multiplies e by kappa = -2i |u| lam, so one product of the
        stacked [e, kappa e, kappa^2 e] of each side gives them all."""
        e1, e2 = self._phases(t1, t2)
        left, right = ((e[:, None, :] * (-2j * abs(u) * lam) ** np.arange(3)[:, None]
                        ).reshape(-1, e.shape[1])
                       for e, u, (lam, _, _) in zip((e1, e2), self.units, self.spectra))
        return (left @ self.w @ right.T).real.reshape(len(e1), 3, len(e2), 3)


def displaced_parity_expect(state: PureState, beta1: complex, beta2: complex,
                            tail_eps: float = 1e-9) -> float:
    """E(beta1, beta2) of a two-mode state, in [-1, 1]: the
    :class:`ParityCorrelator` on the rays (beta1, beta2) at t = 1."""
    return float(ParityCorrelator(state, beta1, beta2, tail_eps)([1.0], [1.0])[0, 0])
