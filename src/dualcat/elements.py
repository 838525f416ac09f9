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
  ``ParityCorrelator``, at any settings, on a line or with derivatives,
  under the one cutoff-edge rule of its ``check``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

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
    _one_blas_thread,
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
    """Raise a contract violation when ``mass``, the mass of the components
    whose control path has both polarizations occupied, is more than
    truncation dust of a state of squared norm ``norm_sq``."""
    if mass > 0.0 and mass > AMBIGUOUS_TOL * max(norm_sq, 1e-300):
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


def onoff_detect(state: PureState, modes: ModeLabel | tuple) -> tuple[PureState, PureState]:
    """On/off detector: ``(click, no_click)``, the projections onto >= 1
    photon in the watched mode(s) and onto vacuum there."""
    watch = (modes,) if isinstance(modes, ModeLabel) else tuple(modes)
    idx = [state.register.index(m) for m in watch]
    return _split(state, state.register.digits(state.keys, idx).any(axis=1))


# ---------------------------------------------------------------------------
# displaced parity correlation


def _polar(betas) -> tuple[np.ndarray, np.ndarray]:
    """Complex settings as (rho, phi) = (|beta|, arg beta)."""
    b = np.atleast_1d(np.asarray(betas, dtype=complex))
    return np.abs(b), np.angle(b)


class ParityCorrelator:
    """E(b1, b2) = < D(b1)D(b2) (-1)^{n1+n2} D†(b2)D†(b1) > of one two-mode
    state with amplitude matrix M, at any settings, with exact derivatives.

    Parity anticommutes with the truncated a† - a, so D(b) P D†(b) = D(2b) P
    exactly.  With i(a† - a) = V diag(lam) V† (the cached spectrum), entry
    [m, n] of Pi = D(2 beta) P at beta = rho e^{i phi} is e^{i phi (m - n)}
    Q[m, n], Q = V diag(e^{-2i rho lam}) V† P, and E = sum conj(M) ∘ (Pi1 M Pi2^T).
    d/drho multiplies e^{-2i rho lam} by -2i lam, d/dphi entry [m, n] by i(m - n).

    Every evaluation, ``line`` forms included, keeps the edge rule of
    ``check``: with x the last row of D(-beta), the displaced state holds
    |x M|^2 on the top level of mode 1 and |x M^T|^2 on that of mode 2, and
    a pair of settings whose edge masses sum above ``tail_eps`` is refused.
    """

    def __init__(self, state: PureState, tail_eps: float = 1e-9):
        reg = state.register
        if reg.n_modes != 2:
            raise ValueError("displaced parity expectation needs a two-mode state")
        self.m = np.zeros(reg.dims, dtype=complex)
        self.m[reg.digit(state.keys, 0), reg.digit(state.keys, 1)] = state.coeffs
        self.tail_eps = tail_eps
        self.spectra = [generator_spectrum("displace", d) for d in self.m.shape]

    @staticmethod
    @_one_blas_thread
    def _edge(rho: np.ndarray, phi: np.ndarray, lam: np.ndarray, v: np.ndarray,
              vh: np.ndarray, m: np.ndarray) -> np.ndarray:
        """|x m|^2 at each setting (rho[k], phi[k]), x the last row of
        D(-rho e^{i phi}) up to a phase.  Each row is a product of its own, as
        a k-row product sums in another order for some k: a setting gets one
        edge mass in every evaluation, whatever the batch."""
        x = ((v[-1] * np.exp(1j * rho[:, None] * lam))[:, None] @ vh
             * np.exp(-1j * phi)[:, None, None] ** np.arange(len(lam)))
        return (np.abs(x @ m) ** 2).sum(axis=(1, 2))

    def _check(self, s1: tuple, s2: tuple) -> np.ndarray:
        top = (self._edge(*s1, *self.spectra[0], self.m)[:, None]
               + self._edge(*s2, *self.spectra[1], self.m.T))
        if np.any(top > self.tail_eps):
            i, j = np.unravel_index(int(np.argmax(top > self.tail_eps)), top.shape)
            b1, b2 = s1[0][i] * np.exp(1j * s1[1][i]), s2[0][j] * np.exp(1j * s2[1][j])
            raise CutoffError(f"displacement ({b1}, {b2}) puts mass {top[i, j]:.3g} on the edge")
        return top

    def check(self, b1, b2) -> np.ndarray:
        """The cutoff-edge mass top[i, j] of the state displaced by
        (-b1[i], -b2[j]); raises a cutoff error when one exceeds ``tail_eps``."""
        return self._check(_polar(b1), _polar(b2))

    @staticmethod
    @_one_blas_thread
    def _pi(rho: np.ndarray, phi: np.ndarray, lam: np.ndarray, v: np.ndarray,
            vh: np.ndarray) -> np.ndarray:
        """The jets [Pi, Pi_rho, Pi_phi, Pi_rr, Pi_rp, Pi_pp] of Pi = D(2 beta) P
        at each setting (rho[k], phi[k])."""
        n = np.arange(len(lam))
        kappa = (-2j * lam) ** np.arange(3)[:, None]
        q = (v * (kappa * np.exp(-2j * rho[:, None, None] * lam))[:, :, None, :]) @ vh
        q = q * (-1.0) ** n
        dn = 1j * (n[:, None] - n)
        ph = np.exp(phi[:, None, None] * dn)[:, None]
        return ph * np.stack([q[:, 0], q[:, 1], dn * q[:, 0], q[:, 2], dn * q[:, 1],
                              dn * dn * q[:, 0]], axis=1)

    @_one_blas_thread
    def _jets(self, s1: tuple, s2: tuple) -> np.ndarray:
        self._check(s1, s2)
        pi1, pi2 = (self._pi(*s, *spectrum) for s, spectrum in zip((s1, s2), self.spectra))
        z = self.m.conj() @ pi2 @ self.m.T  # sum conj(M) ∘ (Pi1 M Pi2^T) = sum Pi1 ∘ z
        return np.einsum("ikab,jlab->ikjl", pi1, z).real

    def __call__(self, b1, b2) -> np.ndarray:
        """E[i, j] = E(b1[i], b2[j]) at any complex settings, in [-1, 1]: the
        value entry of their jets."""
        return self._jets(_polar(b1), _polar(b2))[:, 0, :, 0]

    def jets(self, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
        """J[i, k, j, l] = the derivative of E(s1[i], s2[j]) that entry k of the
        setting s1[i] = (rho, phi) of mode 1 and entry l of s2[j] name, in the
        order value, d/drho, d/dphi, d2/drho2, d2/drho dphi, d2/dphi2."""
        return self._jets(np.asarray(s1, dtype=float).T, np.asarray(s2, dtype=float).T)

    def line(self, unit: complex) -> ParityLine:
        """The correlator on the line of settings beta = t * unit."""
        return ParityLine(self, unit)


class ParityLine:
    """A :class:`ParityCorrelator` on the line beta = t * unit, as a bilinear
    form: with Phi = diag(e^{i arg(unit) n}), E(t1, t2) = Re[e1^T W e2] with
    e = exp(-2i t |unit| lam) and W = A ∘ B^T, A = V1† Phi1† P1 M P2 Phi2* V2*,
    B = V2^T Phi2 M† Phi1 V1.  Each correlator costs O(dim^2), a grid of them
    is one matrix product, and each evaluation first runs ``check`` on t * unit.
    """

    @_one_blas_thread
    def __init__(self, corr: ParityCorrelator, unit: complex):
        self.corr, self.unit, m = corr, complex(unit), corr.m
        pv1, pv2 = (np.exp(1j * np.angle(self.unit) * np.arange(len(lam)))[:, None] * v
                    for lam, v, _ in corr.spectra)
        p1, p2 = ((-1.0) ** np.arange(d) for d in m.shape)
        a = pv1.conj().T @ (p1[:, None] * m * p2) @ pv2.conj()
        b = pv2.T @ m.conj().T @ pv1
        self.w = a * b.T

    def _phases(self, t1, t2) -> list:
        """The phase vectors e of both sides, once every pair passed the check."""
        t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
        self.corr.check(t1 * self.unit, t2 * self.unit)
        return [np.exp(1j * abs(self.unit) * t[:, None] * lam).conj() ** 2
                for t, (lam, _, _) in zip((t1, t2), self.corr.spectra)]

    @_one_blas_thread
    def __call__(self, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
        """E[i, j] = E(t1[i] * unit, t2[j] * unit)."""
        e1, e2 = self._phases(t1, t2)
        return (e1 @ self.w @ e2.T).real

    @_one_blas_thread
    def jets(self, t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
        """J[i, k, j, l] = d^k/dt1^k d^l/dt2^l E(t1[i], t2[j]) for k, l in 0, 1, 2:
        d/dt multiplies e by kappa = -2i |unit| lam, so one product of the
        stacked [e, kappa e, kappa^2 e] of each side gives them all."""
        e1, e2 = self._phases(t1, t2)
        left, right = ((e[:, None, :] * (-2j * abs(self.unit) * lam) ** np.arange(3)[:, None]
                        ).reshape(-1, e.shape[1])
                       for e, (lam, _, _) in zip((e1, e2), self.corr.spectra))
        return (left @ self.w @ right.T).real.reshape(len(e1), 3, len(e2), 3)


def displaced_parity_expect(state: PureState, beta1: complex, beta2: complex,
                            tail_eps: float = 1e-9) -> float:
    """E(beta1, beta2) of a two-mode state, in [-1, 1]: see :class:`ParityCorrelator`."""
    return float(ParityCorrelator(state, tail_eps)(beta1, beta2)[0, 0])
