"""Composite circuits: generation, DOF access, bomb testing, squeezed route.

Every circuit returns a :class:`CircuitReport` whose ``branch_log`` records
the probability of each measurement branch that was kept; the product of
those probabilities is the reported post-selection probability.  States are
never renormalized behind the caller's back: conditioning is explicit.
Each circuit runs as a whole on one OpenBLAS thread (see ``blas._one_blas_thread``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import elements, states
from .elements import PERFECT, Imperfection
from .fock import (
    DegenerateInputError,
    ModeLabel,
    ModeRegister,
    PureState,
    _one_blas_thread,
    add,
    apply_annihilation,
    apply_creation,
    apply_two_mode_mixer,
    basis_state,
    coherent_cutoff,
    embed,
    mean_occupation,
    mixer_dark_branch,
    mode,
    normalized,
    polarized_register,
    plain_register,
    product,
    scale,
    squeezed_cutoff,
)
from .results import ExperimentResult

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CircuitReport:
    """Conditioned circuit output plus post-selection bookkeeping."""

    output_state: PureState
    postselect_probability: float
    branch_log: tuple

    def branch_product(self) -> float:
        return math.prod((p for _, p in self.branch_log), start=1.0)


# ---------------------------------------------------------------------------
# generation: odd cat -> 50:50 splitter -> polarizers -> PBS


def generate_entangled_cat(alpha: float, sign: str = "-",
                           tail_eps: float = 1e-12) -> CircuitReport:
    """Split an odd cat of amplitude sqrt(2)*alpha on a 50:50 beam splitter
    and fold the two arms onto one path as H/V rails.

    The output lives on path 1 and is the maximally entangled state
    (|even>_H |odd>_V -+ |odd>_H |even>_V)/sqrt2 of cat amplitude ``alpha``.
    """
    return _generate(alpha, "odd", sign, tail_eps)


def generate_even_cat_control(alpha: float, sign: str = "-",
                              tail_eps: float = 1e-12) -> CircuitReport:
    """Same interferometer fed with an even cat: the negative control.

    The output Schmidt weights are proportional to {Ne^-4, No^-4}, short of
    a full ebit at any finite amplitude.
    """
    return _generate(alpha, "even", sign, tail_eps)


def generation_cutoff(alpha: float, tail_eps: float) -> int:
    """Cutoff of the registers the generation circuit builds: the tail rule
    of its input cat, of amplitude sqrt(2)*alpha."""
    return coherent_cutoff(SQRT2 * alpha, tail_eps)


@_one_blas_thread
def _generate(alpha: float, parity: str, sign: str, tail_eps: float) -> CircuitReport:
    if alpha == 0 and parity == "odd":
        raise DegenerateInputError("odd cat input is undefined at alpha = 0")
    reg = polarized_register([1, 2], generation_cutoff(alpha, tail_eps))
    src = states.cat(reg, mode(1, "H"), states.CatParams(SQRT2 * alpha, parity), tail_eps)
    # splitter phase 0 gives the "-" pair, phase pi the "+" pair
    phase = 0.0 if sign == "-" else math.pi
    split = apply_two_mode_mixer(src, mode(1, "H"), mode(2, "V"),
                                 theta=math.pi / 4.0, phase=phase)
    log = []
    out = split
    for path, kind in ((1, "H"), (2, "V")):
        branch = elements.polarizer(out, path, kind)
        out = branch.state("pass")
        log.append((f"path{path}_{kind}_polarizer_pass", branch.probability("pass")))
    out = elements.pbs(out, 1, 2)
    return CircuitReport(out, math.prod((p for _, p in log), start=1.0), tuple(log))


# ---------------------------------------------------------------------------
# analytic targets (built straight from the state factories)


def _hv_pair(f, g, sign: str, paths: tuple = (1, 2)) -> PureState:
    """Normalized f(pH) g(qV) ± f(pV) g(qH) on paths (p, q), the sign
    ``sign``, where ``f`` and ``g`` build a one-mode state on the mode given."""
    s = -1.0 if sign == "-" else 1.0
    p, q = paths
    return normalized(add(product(f(mode(p, "H")), g(mode(q, "V"))),
                          scale(product(f(mode(p, "V")), g(mode(q, "H"))), s)))


def _subtracted_pair(register: ModeRegister, m1: ModeLabel, m2: ModeLabel, r: float,
                     weights: tuple, tail_eps: float) -> PureState:
    """(w1 a_m1 + w2 a_m2) |S(r)>_m1 |S(r)>_m2, unnormalized."""
    prod = product(*(states.squeezed_vacuum(register, m, states.SqueezeParams(r), tail_eps)
                     for m in (m1, m2)))
    return add(scale(apply_annihilation(prod, m1), weights[0]),
               scale(apply_annihilation(prod, m2), weights[1]))


def analytic_dual_rail_pair(register: ModeRegister, alpha: float, sign: str = "-",
                            path: int = 1, tail_eps: float = 1e-12) -> PureState:
    """(|even>_H |odd>_V -+ |odd>_H |even>_V)/sqrt2 on one path."""
    even, odd = (functools.partial(states.cat, register, params=states.CatParams(alpha, parity),
                                   tail_eps=tail_eps) for parity in ("even", "odd"))
    return _hv_pair(even, odd, sign, (path, path))


def analytic_coherent_bell(register: ModeRegister, amplitude: complex,
                           sign: str = "-", tail_eps: float = 1e-12) -> PureState:
    """(|H>_A,1 |V>_A,2 -+ |V>_A,1 |H>_A,2)/sqrt2 with coherent envelopes."""
    envelope = functools.partial(states.coherent, register, alpha=amplitude, tail_eps=tail_eps)
    return _hv_pair(envelope, envelope, sign)


def analytic_subtracted_bell(register: ModeRegister, r: float, sign: str = "+",
                             tail_eps: float = 1e-12) -> PureState:
    """(|H>1|V>2 ± |V>1|H>2)/sqrt2 on identical subtracted-squeezed envelopes."""
    envelope = functools.partial(states.subtracted_sv, register, params=states.SqueezeParams(r),
                                 tail_eps=tail_eps)
    return _hv_pair(envelope, envelope, sign)


def analytic_balanced_sv_pair(register: ModeRegister, r: float,
                              tail_eps: float = 1e-12) -> PureState:
    """(a_H + a_V)|S>_H |S>_V / (sqrt2 sinh r) on path 1, the output of
    :func:`sv_generate` at transmittance 1/2."""
    pair = _subtracted_pair(register, mode(1, "H"), mode(1, "V"), r, (1.0, 1.0), tail_eps)
    return scale(pair, 1.0 / (SQRT2 * math.sinh(r)))


# ---------------------------------------------------------------------------
# accessing the parity degree of freedom (PBS + HWP)


def access_parity(state: PureState) -> CircuitReport:
    """Send H and V rails of path 1 to separate paths with a common
    polarization: the parity-entangled two-path form."""
    reg = state.register
    if not (reg.has(mode(2, "H")) and reg.has(mode(2, "V"))):
        spec = {m: c for m, c in zip(reg.modes, reg.cutoffs)}
        for pol in ("H", "V"):
            spec.setdefault(mode(2, pol), max(reg.cutoffs))
        state = embed(state, ModeRegister.of(spec))
    out = elements.pbs(state, 1, 2)
    out = elements.hwp(out, 2)
    return CircuitReport(out, 1.0, ())


# ---------------------------------------------------------------------------
# accessing the polarization degree of freedom (tagged displacement scheme)


def _infer_cat_amplitude(state: PureState) -> float:
    """Cat amplitude of an H/V entangled cat pair on path 1.

    The total path photon number of (|e>|o> ± |o>|e>)/sqrt2 with cat
    amplitude a is 2 a^2 coth(2 a^2), which rises with a; invert it by
    bisection down to adjacent floats.
    """
    n_tot = (mean_occupation(state, mode(1, "H"))
             + mean_occupation(state, mode(1, "V"))) / state.norm_sq()

    def gap(a: float) -> float:
        x = 2.0 * a * a
        return a * a / math.tanh(x) * 2.0 - n_tot

    lo, hi = 1e-4, max(4.0 * math.sqrt(n_tot), 1.0)
    if gap(lo) > 0:  # below any resolvable amplitude
        return math.sqrt(max(n_tot / 2.0, 1e-12))
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if gap(mid) > 0 else (mid, hi)
    return float(lo)


def tag_cutoff(envelope: float, imperfection: Imperfection, tail_eps: float) -> int:
    """Cutoff of the tag modes of :func:`access_polarization` for the
    envelope amplitude alpha/sqrt2."""
    tag_amp = abs(envelope) + abs(imperfection.actual_displacement(envelope)) + 0.5
    return coherent_cutoff(tag_amp, tail_eps)


@_one_blas_thread
def access_polarization(state: PureState, imperfection: Imperfection | None = None,
                        tail_eps: float = 1e-12) -> CircuitReport:
    """Sort the polarization entanglement of the H/V cat pair onto a common
    coherent envelope of amplitude A = alpha/sqrt2.

    Pipeline: split the rails onto paths 1 (H) and 2 (V); mix each with a
    vacuum tag mode (paths 3, 4); displace the tags by A so one branch's tag
    light collects in 3H and the other's in 4V; recombine tags on a PBS so
    path 3 carries |2A> in H or V depending on the branch; flip the target
    polarizations and phases under that control; finally rotate path 3 to
    the diagonal basis, where the branch tags share a common vertical
    component and an equal-amplitude vacuum projection of the horizontal
    one erases which-branch information.  Conditioning keeps the dark
    horizontal port and a click on the vertical port; the rotation and the
    dark port run as one op, ``fock.mixer_dark_branch``.  The rotation is
    unitary, and what the cutoffs drop from the dark port is in its deficit,
    so the dark port's probability is its norm² over that of its input.

    With perfect settings the conditioned output is exactly
    (|H>_A,1 |V>_A,2 - |V>_A,1 |H>_A,2)/sqrt2.
    """
    imp = imperfection or PERFECT
    reg = state.register
    alpha_est = _infer_cat_amplitude(state)
    A = alpha_est / SQRT2
    B = imp.actual_displacement(A)

    cut_path = max(reg.cutoffs)
    cut_tag = tag_cutoff(A, imp, tail_eps)
    big = ModeRegister.of({mode(p, pol): cut_path if p < 3 else cut_tag
                           for p in (1, 2, 3, 4) for pol in ("H", "V")})
    psi = embed(state, big)

    psi = elements.pbs(psi, 1, 2)  # H stays on 1, V moves to 2
    psi = apply_two_mode_mixer(psi, mode(1, "H"), mode(3, "H"),
                               theta=math.pi / 4.0, phase=math.pi)
    psi = apply_two_mode_mixer(psi, mode(2, "V"), mode(4, "V"),
                               theta=math.pi / 4.0, phase=math.pi)
    psi = elements.displace(psi, mode(3, "H"), B)
    psi = elements.displace(psi, mode(4, "V"), B)
    psi = elements.pbs(psi, 3, 4)
    psi = elements.phase_shift(psi, mode(2, "V"), math.pi)

    psi = elements.controlled_pol_gates(
        psi, 3, flips=[(target, imp.flip_angle) for target in (1, 2)],
        phases=[(target, imp.cphase_angle) for target in (1, 2)], on_ambiguous=imp.on_ambiguous)

    dark = mixer_dark_branch(psi, mode(3, "H"), mode(3, "V"), theta=-math.pi / 4.0)
    if dark.norm_sq() < 1e-12:
        # no dark H port: report the unconditioned rotated state.  At flip_angle
        # 0 the port does stay dark (p ~ 0.05); the V click below is the dust
        psi = elements.polarizer(psi, 3, "diag45").state("pass")
        return CircuitReport(normalized(psi), 0.0, (("tag_dark_port", 0.0),))
    click = elements.onoff_detect(dark, mode(3, "V"))
    log = (("tag_dark_port", dark.norm_sq() / psi.norm_sq()),
           ("tag_click", click.probability("click") / max(dark.norm_sq(), 1e-300)))
    out = normalized(click.state("click"))
    return CircuitReport(out, math.prod((p for _, p in log), start=1.0), log)


# ---------------------------------------------------------------------------
# interaction-free bomb test


#: beam-splitter angle for the asymptotic single-photon interferometer
SINGLE_PHOTON_THETA = 1e-5


@_one_blas_thread
def run_ifm(state_kind: str, bomb: bool, theta: float = math.pi / 6,
            sign: str = "+") -> ExperimentResult:
    """Bomb test in a polarizing Mach-Zehnder interferometer.

    ``state_kind`` is ``"entangled"`` (the Bell pair
    (|H>1|V>2 + |V>1|H>2)/sqrt2, sign configurable), ``"nonmaximal"``
    (cos(theta)|HV> + sin(theta)|VH>), or ``"single_photon"`` (the plain
    one-photon interferometer run at near-unit transmittance, where its
    efficiency approaches 1/2).

    Scalars: same_pol, diff_pol, explode, other, p_ifm, p_bomb and eta.
    The protocol efficiency eta = P_ifm/(P_bomb + P_ifm) is reported as 0
    whenever the bomb-free interferometer already produces the "detection"
    signature, because then nothing discriminates the two scenarios.
    """
    if state_kind == "single_photon":
        events = _single_photon_events
    elif state_kind in ("entangled", "nonmaximal"):
        th = math.pi / 4 if state_kind == "entangled" else theta
        events = functools.partial(_polarization_events, th, sign=sign)
    else:
        raise ValueError(f"unknown state kind {state_kind!r}")

    (probs_bomb, deficit_bomb), (probs_ref, deficit_ref) = events(True), events(False)
    probs = probs_bomb if bomb else probs_ref
    p_ifm_bomb = probs_bomb["diff_pol"]
    p_bomb = probs_bomb["explode"]
    discriminable = probs_ref["diff_pol"] <= 1e-12
    eta = p_ifm_bomb / (p_bomb + p_ifm_bomb) if discriminable and (p_bomb + p_ifm_bomb) > 0 else 0.0

    scalars = dict(probs)
    scalars["p_ifm"] = p_ifm_bomb
    scalars["p_bomb"] = p_bomb
    scalars["eta"] = eta
    scalars["discriminable"] = float(discriminable)
    return ExperimentResult(scalars=scalars,
                            convergence={"norm_deficit": max(deficit_bomb, deficit_ref)})


def _polarization_events(theta: float, bomb: bool, sign: str) -> tuple[dict, float]:
    """Detection probabilities of one run and the norm deficit of its final
    state (deficits only grow along the run)."""
    reg = polarized_register([1, 2], 2)
    hv = basis_state(reg, {mode(1, "H"): 1, mode(2, "V"): 1})
    vh = basis_state(reg, {mode(1, "V"): 1, mode(2, "H"): 1})
    s = 1.0 if sign == "+" else -1.0

    psi = add(scale(hv, math.cos(theta)), scale(vh, s * math.sin(theta)))

    explode = 0.0
    if bomb:
        branch = elements.absorb_arm(psi, mode(1, "V"))
        explode = branch.probability("explode")
        psi = branch.state("survive")
    for path in (1, 2):
        psi = elements.polarizer(psi, path, "diag45").state("pass")

    # rail of each path: +1 for H only, -1 for V only, 0 for neither or both
    on = reg.digits(psi.keys, [reg.index(mode(p, s)) for p in (1, 2) for s in "HV"]) > 0
    rail = on[:, ::2].astype(int) - on[:, 1::2]
    w = np.abs(psi.coeffs) ** 2
    product = rail[:, 0] * rail[:, 1]
    return ({"same_pol": float(w[product == 1].sum()), "diff_pol": float(w[product == -1].sum()),
             "other": float(w[product == 0].sum()), "explode": explode}, psi.norm_deficit)


def _single_photon_events(bomb: bool, theta: float = SINGLE_PHOTON_THETA) -> tuple[dict, float]:
    """As :func:`_polarization_events`, for the one-photon interferometer."""
    reg = plain_register([1, 2], 2)
    psi = basis_state(reg, {mode(1): 1})
    psi = apply_two_mode_mixer(psi, mode(1), mode(2), theta)
    explode = 0.0
    if bomb:
        branch = elements.absorb_arm(psi, mode(2))
        explode = branch.probability("explode")
        psi = branch.state("survive")
    psi = apply_two_mode_mixer(psi, mode(1), mode(2), -theta)
    bright = abs(psi.amps.get((1, 0), 0.0)) ** 2
    dark = abs(psi.amps.get((0, 1), 0.0)) ** 2
    other = psi.norm_sq() - bright - dark
    # the dark port plays the role of the diff-pol signature
    return ({"same_pol": bright, "diff_pol": dark, "other": abs(other),
             "explode": explode}, psi.norm_deficit)


# ---------------------------------------------------------------------------
# NOON-type coherent state


def noon_cutoff(alpha: float, tail_eps: float) -> int:
    """Cutoff of the register :func:`noon_from_cat_pair` builds, less its
    ``extra_cutoff``: the tail rule of the displaced amplitude 2*alpha."""
    return coherent_cutoff(2.0 * alpha, tail_eps)


@_one_blas_thread
def noon_from_cat_pair(alpha: float, tail_eps: float = 1e-12,
                       extra_cutoff: int = 0) -> PureState:
    """Displace each mode of the two-path entangled cat pair by alpha,
    turning it into the normalized |2a,0> - |0,2a> superposition."""
    reg = plain_register([1, 2], noon_cutoff(alpha, tail_eps) + extra_cutoff)
    pair = states.entangled_cat_pair(reg, mode(1), mode(2), alpha, "-", tail_eps)
    out = elements.displace(pair, mode(1), alpha)
    out = elements.displace(out, mode(2), alpha)
    return out


# ---------------------------------------------------------------------------
# squeezed-vacuum alternative


@_one_blas_thread
def sv_generate(r: float, transmittance: float = 0.5,
                tail_eps: float = 1e-12) -> CircuitReport:
    """Subtraction-superposition source on two squeezed vacua, folded onto
    one path as H/V rails.

    Applies sqrt(T) a_H + sqrt(1-T) a_V to |S>_H |S>_V and normalizes; at
    T = 1/2 this is the balanced pair with prefactor 1/(sqrt2 sinh r).
    """
    if not 0.0 <= transmittance <= 1.0:
        raise ValueError("transmittance must lie in [0, 1]")
    if r <= 0.0:
        raise DegenerateInputError("generation needs r > 0")
    reg = polarized_register([1], squeezed_cutoff(r, tail_eps))
    weights = (math.sqrt(transmittance), math.sqrt(1.0 - transmittance))
    out = _subtracted_pair(reg, mode(1, "H"), mode(1, "V"), r, weights, tail_eps)
    return CircuitReport(normalized(out), 1.0, ())


@_one_blas_thread
def sv_antisqueeze_to_single_photon(r: float, tail_eps: float = 1e-12) -> CircuitReport:
    """Anti-squeeze each path of the two-path subtraction-superposition state,
    landing on the single-photon entangled state (|1,0> + |0,1>)/sqrt2."""
    if r <= 0.0:
        raise DegenerateInputError("needs r > 0")
    reg = plain_register([1, 2], squeezed_cutoff(r, tail_eps) + 4)
    out = normalized(_subtracted_pair(reg, mode(1), mode(2), r, (1.0, 1.0), tail_eps))
    out = elements.squeeze(out, mode(1), -r)
    out = elements.squeeze(out, mode(2), -r)
    return CircuitReport(out, 1.0, ())


@_one_blas_thread
def sv_access_polarization(report_or_state, skip_cswap: bool = False) -> CircuitReport:
    """Nondestructive parity sorting of the squeezed pair into a heralded
    polarization Bell state on identical photon-subtracted envelopes.

    Stages: split the H/V rails onto paths 1 and 2; attach an H single
    photon on path 3; flip path 3's polarization on odd photon number in
    mode (2,V); apply two polarization flips on paths 1 and 2 controlled by
    path 3; exchange the path contents under the same control; subtract one
    photon from path 2; rotate path 3 to the diagonal basis and condition
    on its vertical detector.  ``skip_cswap`` ablates the exchange stage
    (the envelopes then no longer match).
    """
    state = report_or_state.output_state if isinstance(report_or_state, CircuitReport) else report_or_state
    reg = state.register
    cut = max(reg.cutoffs)
    spec: dict[ModeLabel, int] = {}
    for p in (1, 2):
        for pol in ("H", "V"):
            spec[mode(p, pol)] = cut
    for pol in ("H", "V"):
        spec[mode(3, pol)] = 2
    big = ModeRegister.of(spec)
    psi = embed(state, big)

    psi = elements.pbs(psi, 1, 2)                       # V rail -> path 2
    psi = apply_creation(psi, mode(3, "H"))             # attach |H>_3
    psi = elements.parity_controlled_flip(psi, mode(2, "V"), 3)
    psi = elements.cnot_pol(psi, 3, 1)
    psi = elements.cnot_pol(psi, 3, 2)
    if not skip_cswap:
        psi = elements.cswap_pol(psi, 3, 1, 2)
    psi = normalized(add(apply_annihilation(psi, mode(2, "H")),
                         apply_annihilation(psi, mode(2, "V"))))
    psi = elements.polarizer(psi, 3, "diag45").state("pass")
    herald = elements.onoff_detect(psi, mode(3, "V"))
    p = herald.probability("click") / max(psi.norm_sq(), 1e-300)
    log = (("diag_herald_V", p),)
    out = normalized(herald.state("click"))
    return CircuitReport(out, p, log)
