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
from dataclasses import dataclass

import numpy as np

from .fock import (
    BranchedOutcome,
    ContractViolationError,
    ModeLabel,
    PureState,
    RegisterMismatchError,
    _finish,
    apply_single_mode_matrix,
    apply_two_mode_mixer,
    displacement_matrix,
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


def _swap_positions(occ: tuple, i: int, j: int) -> tuple:
    if occ[i] == occ[j]:
        return occ
    lst = list(occ)
    lst[i], lst[j] = lst[j], lst[i]
    return tuple(lst)


# ---------------------------------------------------------------------------
# passive elements


def pbs(state: PureState, path1: int, path2: int) -> PureState:
    """Polarizing beam splitter between two paths: H passes, V is exchanged."""
    _pol_pair(state, path1)
    _pol_pair(state, path2)
    iv1 = state.register.index(mode(path1, "V"))
    iv2 = state.register.index(mode(path2, "V"))
    amps = {_swap_positions(occ, iv1, iv2): amp for occ, amp in state.amps.items()}
    return PureState(state.register, amps, state.norm_deficit)


def hwp(state: PureState, path: int) -> PureState:
    """Half-wave plate: exchange the H and V contents of one path."""
    ih, iv = _pol_pair(state, path)
    amps = {_swap_positions(occ, ih, iv): amp for occ, amp in state.amps.items()}
    return PureState(state.register, amps, state.norm_deficit)


def phase_shift(state: PureState, m: ModeLabel, phi: float) -> PureState:
    """Multiply each amplitude by e^{i phi n} for the occupation n of ``m``."""
    i = state.register.index(m)
    phases = np.exp(1j * phi * np.arange(state.register.cutoffs[i] + 1))
    amps = {occ: amp * phases[occ[i]] for occ, amp in state.amps.items()}
    return PureState(state.register, amps, state.norm_deficit)


def polarizer(state: PureState, path: int, kind: str) -> BranchedOutcome:
    """Polarizer on one path.

    ``kind`` "H" or "V" keeps the matching polarization and diverts any
    photons of the orthogonal one into a "blocked" branch.  ``kind``
    "diag45" is the unitary 45-degree basis rotation (single branch).
    """
    ih, iv = _pol_pair(state, path)
    if kind == "diag45":
        rotated = apply_two_mode_mixer(state, mode(path, "H"), mode(path, "V"),
                                       theta=-math.pi / 4.0, phase=0.0)
        return BranchedOutcome((("pass", rotated, rotated.norm_sq()),))
    if kind not in ("H", "V"):
        raise ValueError(f"unknown polarizer kind {kind!r}")
    blocked_idx = iv if kind == "H" else ih
    pass_amps, blocked_amps = {}, {}
    for occ, amp in state.amps.items():
        (pass_amps if occ[blocked_idx] == 0 else blocked_amps)[occ] = amp
    keep = PureState(state.register, pass_amps, state.norm_deficit)
    lost = PureState(state.register, blocked_amps, 0.0)
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


def _control_case(occ: tuple, ich: int, icv: int) -> str:
    nh, nv = occ[ich], occ[icv]
    if nv == 0:
        return "pass"
    if nh == 0:
        return "flip"
    return "ambiguous"


def _check_ambiguous(mass: float, total: float, on_ambiguous: str) -> None:
    if on_ambiguous == "pass" or mass <= AMBIGUOUS_TOL * max(total, 1e-300):
        return
    raise ContractViolationError(
        f"control path has both polarizations occupied on probability mass "
        f"{mass:.3g}; the gate is only defined on definite-polarization "
        f"control branches")


def cnot_pol(state: PureState, control_path: int, target_path: int,
             flip_angle: float = math.pi, on_ambiguous: str = "error") -> PureState:
    """Flip the target path's polarization where the control path is V-polarized.

    A partial ``flip_angle`` z applies exp[i(z/2)(F - 1)] on the conditioned
    components, F being the H/V exchange: identity at z=0, exact flip at z=pi.
    """
    ich, icv = _pol_pair(state, control_path)
    ith, itv = _pol_pair(state, target_path)
    if control_path == target_path:
        raise ValueError("control and target paths must differ")
    stay = 0.5 * (1.0 + np.exp(-1j * flip_angle))
    swap = 0.5 * (1.0 - np.exp(-1j * flip_angle))
    amps: dict = {}
    amb_mass = 0.0
    for occ, amp in state.amps.items():
        case = _control_case(occ, ich, icv)
        if case != "flip":
            if case == "ambiguous":
                amb_mass += abs(amp) ** 2
            amps[occ] = amps.get(occ, 0.0) + amp
            continue
        flipped = _swap_positions(occ, ith, itv)
        if flipped == occ:
            amps[occ] = amps.get(occ, 0.0) + amp
            continue
        amps[occ] = amps.get(occ, 0.0) + amp * stay
        amps[flipped] = amps.get(flipped, 0.0) + amp * swap
    _check_ambiguous(amb_mass, state.norm_sq(), on_ambiguous)
    return _finish(state.register, amps, state.norm_deficit)


def cphase_pol(state: PureState, control_path: int, target_path: int,
               angle: float = math.pi, on_ambiguous: str = "error") -> PureState:
    """Phase e^{i angle n} on all target-path photons where the control is V."""
    ich, icv = _pol_pair(state, control_path)
    ith, itv = _pol_pair(state, target_path)
    amps = {}
    amb_mass = 0.0
    for occ, amp in state.amps.items():
        case = _control_case(occ, ich, icv)
        if case == "flip":
            amp = amp * np.exp(1j * angle * (occ[ith] + occ[itv]))
        elif case == "ambiguous":
            amb_mass += abs(amp) ** 2
        amps[occ] = amp
    _check_ambiguous(amb_mass, state.norm_sq(), on_ambiguous)
    return PureState(state.register, amps, state.norm_deficit)


def parity_controlled_flip(state: PureState, control_mode: ModeLabel,
                           target_path: int) -> PureState:
    """Swap the target path's H/V contents on components whose control-mode
    occupation is odd; even components pass untouched."""
    ic = state.register.index(control_mode)
    ith, itv = _pol_pair(state, target_path)
    amps: dict = {}
    for occ, amp in state.amps.items():
        key = _swap_positions(occ, ith, itv) if occ[ic] % 2 == 1 else occ
        amps[key] = amps.get(key, 0.0) + amp
    return _finish(state.register, amps, state.norm_deficit)


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
    amps: dict = {}
    amb_mass = 0.0
    for occ, amp in state.amps.items():
        case = _control_case(occ, ich, icv)
        if case == "flip":
            lst = list(occ)
            lst[iah], lst[ibv] = occ[ibv], occ[iah]
            lst[iav], lst[ibh] = occ[ibh], occ[iav]
            key = tuple(lst)
        else:
            if case == "ambiguous":
                amb_mass += abs(amp) ** 2
            key = occ
        amps[key] = amps.get(key, 0.0) + amp
    _check_ambiguous(amb_mass, state.norm_sq(), on_ambiguous)
    return _finish(state.register, amps, state.norm_deficit)


# ---------------------------------------------------------------------------
# measurement channels


def onoff_detect(state: PureState, modes: ModeLabel | tuple) -> BranchedOutcome:
    """On/off detector: "click" projects onto >= 1 photon in the watched
    mode(s), "no_click" onto vacuum there."""
    watch = (modes,) if isinstance(modes, ModeLabel) else tuple(modes)
    idx = [state.register.index(m) for m in watch]
    click_amps, dark_amps = {}, {}
    for occ, amp in state.amps.items():
        if all(occ[i] == 0 for i in idx):
            dark_amps[occ] = amp
        else:
            click_amps[occ] = amp
    click = PureState(state.register, click_amps, state.norm_deficit)
    dark = PureState(state.register, dark_amps, 0.0)
    return BranchedOutcome((("click", click, click.norm_sq()),
                            ("no_click", dark, dark.norm_sq())))


def absorb_arm(state: PureState, m: ModeLabel) -> BranchedOutcome:
    """Absorbing obstacle in one arm: any photon there destroys the run.

    The "explode" branch records only its probability (the state is gone);
    the "survive" branch is the unnormalized vacuum projection.
    """
    i = state.register.index(m)
    survive_amps = {}
    explode_p = 0.0
    for occ, amp in state.amps.items():
        if occ[i] == 0:
            survive_amps[occ] = amp
        else:
            explode_p += abs(amp) ** 2
    survive = PureState(state.register, survive_amps, state.norm_deficit)
    return BranchedOutcome((("explode", None, explode_p),
                            ("survive", survive, survive.norm_sq())))


# ---------------------------------------------------------------------------
# displaced parity correlation


def _state_matrix(state: PureState) -> np.ndarray:
    reg = state.register
    if reg.n_modes != 2:
        raise ValueError("displaced parity expectation needs a two-mode state")
    out = np.zeros((reg.cutoffs[0] + 1, reg.cutoffs[1] + 1), dtype=complex)
    for (n1, n2), amp in state.amps.items():
        out[n1, n2] = amp
    return out


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
        from .fock import CutoffError

        raise CutoffError(
            f"displacement ({beta1}, {beta2}) pushes mass {top:.3g} onto the cutoff edge")
    probs = np.abs(shifted) ** 2
    signs1 = (-1.0) ** np.arange(probs.shape[0])
    signs2 = (-1.0) ** np.arange(probs.shape[1])
    return float(signs1 @ probs @ signs2)
