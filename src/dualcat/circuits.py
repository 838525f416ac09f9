"""Composite circuits: generation, DOF access, bomb testing, squeezed route.

Every circuit returns a :class:`CircuitReport` whose ``branch_log`` records
the probability of each measurement branch that was kept, given the state
that entered the measurement: a branch is an unnormalized state, so this is
its norm² over its input's.  The product of those probabilities is the
reported post-selection probability.  States are never renormalized behind
the caller's back: conditioning is explicit.
Each circuit runs as a whole on one OpenBLAS thread (see ``blas._one_blas_thread``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import elements, states
from .blas import _one_blas_thread
from .elements import PERFECT, Imperfection
from .fock import (
    _CHUNK,
    DEFAULT_PRUNE_EPS,
    DEFAULT_TAIL_EPS,
    CutoffError,
    DegenerateInputError,
    ModeLabel,
    ModeRegister,
    PureState,
    _finish,
    _joined,
    _lookup,
    _mass,
    _mixer_table,
    _refuse_top_mass,
    add,
    apply_annihilation,
    apply_creation,
    apply_two_mode_mixer,
    basis_state,
    coherent_cutoff,
    displacement_matrix,
    embed,
    group_by,
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
    branch_log: tuple

    @property
    def postselect_probability(self) -> float:
        """The product of the kept branches' probabilities."""
        return math.prod((p for _, p in self.branch_log), start=1.0)


# ---------------------------------------------------------------------------
# generation: odd cat -> 50:50 splitter -> PBS


def generate_entangled_cat(alpha: float, sign: str = "-",
                           tail_eps: float = DEFAULT_TAIL_EPS) -> CircuitReport:
    """Split an odd cat of amplitude sqrt(2)*alpha on a 50:50 beam splitter
    and fold the two arms onto one path as H/V rails.

    The output lives on path 1 and is the maximally entangled state
    (|even>_H |odd>_V -+ |odd>_H |even>_V)/sqrt2 of cat amplitude ``alpha``.
    """
    return _generate(alpha, "odd", sign, tail_eps)


def generate_even_cat_control(alpha: float, sign: str = "-",
                              tail_eps: float = DEFAULT_TAIL_EPS) -> CircuitReport:
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
    phase = 0.0 if states._pair_sign(sign) < 0 else math.pi
    reg = polarized_register([1, 2], generation_cutoff(alpha, tail_eps))
    h1, v2 = mode(1, "H"), mode(2, "V")
    src = states.cat(reg, h1, SQRT2 * alpha, parity, tail_eps)
    # the 50:50 splitter meets an empty 2V port: it sends t photons in 1H to
    # (n, t - n) on (1H, 2V) with amplitude U_t[n, t] = K[t - n, n]
    # (:func:`fock._mixer_table`); phase 0 gives the "-" pair, pi the "+" pair
    table = _mixer_table(math.pi / 4.0, phase, reg.cutoff_of(h1) + 1)
    t = reg.digit(src.keys, reg.index(h1))
    row, n = np.nonzero(np.arange(t.max(initial=0) + 1) <= t[:, None])
    moved = t[row] - n  # the photons sent to 2V
    shift = reg.strides[reg.index(v2)] - reg.strides[reg.index(h1)]
    split = _finish(reg, src.keys[row] + moved * shift, src.coeffs[row] * table[moved, n],
                    src.norm_deficit)
    # the arms' polarizations are their mode labels, 1H and 2V, so the PBS
    # alone folds them onto path 1
    return CircuitReport(elements.pbs(split, 1, 2), ())


# ---------------------------------------------------------------------------
# analytic targets (built straight from the state factories)


def _hv_pair(f, g, sign: str, paths: tuple = (1, 2)) -> PureState:
    """Normalized f(pH) g(qV) ± f(pV) g(qH) on paths (p, q), the sign
    ``sign``, where ``f`` and ``g`` build a one-mode state on the mode given."""
    s = states._pair_sign(sign)
    p, q = paths
    return normalized(add(product(f(mode(p, "H")), g(mode(q, "V"))),
                          scale(product(f(mode(p, "V")), g(mode(q, "H"))), s)))


def _subtracted_pair(register: ModeRegister, m1: ModeLabel, m2: ModeLabel, r: float,
                     weights: tuple, tail_eps: float) -> PureState:
    """(w1 a_m1 + w2 a_m2) |S(r)>_m1 |S(r)>_m2, unnormalized."""
    prod = product(*(states.squeezed_vacuum(register, m, r, tail_eps) for m in (m1, m2)))
    return add(scale(apply_annihilation(prod, m1), weights[0]),
               scale(apply_annihilation(prod, m2), weights[1]))


def analytic_dual_rail_pair(register: ModeRegister, alpha: float, sign: str = "-",
                            tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """(|even>_H |odd>_V -+ |odd>_H |even>_V)/sqrt2 on path 1."""
    even, odd = (functools.partial(states.cat, register, alpha=alpha, parity=parity,
                                   tail_eps=tail_eps) for parity in ("even", "odd"))
    return _hv_pair(even, odd, sign, (1, 1))


def analytic_coherent_bell(register: ModeRegister, amplitude: complex,
                           tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """(|H>_A,1 |V>_A,2 - |V>_A,1 |H>_A,2)/sqrt2 with coherent envelopes."""
    envelope = functools.partial(states.coherent, register, alpha=amplitude, tail_eps=tail_eps)
    return _hv_pair(envelope, envelope, "-")


def analytic_subtracted_bell(register: ModeRegister, r: float,
                             tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """(|H>1|V>2 + |V>1|H>2)/sqrt2 on identical subtracted-squeezed envelopes."""
    envelope = functools.partial(states.subtracted_sv, register, r=r, tail_eps=tail_eps)
    return _hv_pair(envelope, envelope, "+")


def analytic_balanced_sv_pair(register: ModeRegister, r: float,
                              tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """(a_H + a_V)|S>_H |S>_V / (sqrt2 sinh r) on path 1, the output of
    :func:`sv_generate` at transmittance 1/2."""
    pair = _subtracted_pair(register, mode(1, "H"), mode(1, "V"), r, (1.0, 1.0), tail_eps)
    return scale(pair, 1.0 / (SQRT2 * math.sinh(r)))


# ---------------------------------------------------------------------------
# accessing the parity degree of freedom (PBS + HWP)


def access_parity(state: PureState) -> CircuitReport:
    """Send H and V rails of path 1 to separate paths with a common
    polarization: the parity-entangled two-path form.  The register must
    hold the H and V modes of paths 1 and 2."""
    out = elements.pbs(state, 1, 2)
    out = elements.hwp(out, 2)
    return CircuitReport(out, ())


# ---------------------------------------------------------------------------
# accessing the polarization degree of freedom (tagged displacement scheme)


def _infer_cat_amplitude(state: PureState) -> float:
    """Cat amplitude |a| of an H/V entangled cat pair on path 1: in
    (|e>|o> ∓ |o>|e>)/sqrt2 on (1H, 1V), for either sign of the pair and of
    a, c(2, 1)/c(0, 1) = e_2/e_0 = a^2/sqrt2.  A pair that lacks either
    amplitude (the one-photon pair of a generation cutoff of 2, or a
    register with no level 2 in 1H) raises :class:`DegenerateInputError`."""
    reg = state.register
    h, v = reg.index(mode(1, "H")), reg.index(mode(1, "V"))
    try:
        keys = [reg.encode([{h: n, v: 1}.get(i, 0) for i in range(reg.n_modes)]) for n in (0, 2)]
    except CutoffError as err:
        raise DegenerateInputError(f"{err}: the pair carries no amplitude information") from err
    pos, hit = _lookup(state, np.array(keys))
    if not hit.all():
        raise DegenerateInputError("the pair lacks c(0, 1) or c(2, 1) on (1H, 1V), as the "
                                   "one-photon pair does: it carries no amplitude information")
    c0, c2 = state.coeffs[pos]
    return math.sqrt(SQRT2 * abs(c2 / c0))


def access_register(path_cutoff: int, envelope: float, imperfection: Imperfection,
                    tail_eps: float) -> ModeRegister:
    """The register of :func:`access_polarization` for a pair at
    ``path_cutoff`` and the envelope amplitude alpha/sqrt2.  It holds only the
    fields light can reach: paths 1 and 2 at the path cutoff, 3V at the tag
    cutoff, which is also the dimension of the erasure contraction, and 3H at
    cutoff 1, empty, which the gates read as their control."""
    tag_amp = abs(envelope) + abs(envelope + imperfection.displacement_offset) + 0.5
    return ModeRegister.of({**{mode(p, pol): path_cutoff for p in (1, 2) for pol in ("H", "V")},
                            mode(3, "H"): 1, mode(3, "V"): coherent_cutoff(tag_amp, tail_eps)})


@_one_blas_thread
def access_polarization(state: PureState, imperfection: Imperfection | None = None,
                        tail_eps: float = DEFAULT_TAIL_EPS) -> CircuitReport:
    """Sort the polarization entanglement of the H/V cat pair onto a common
    coherent envelope of amplitude A = alpha/sqrt2, with |alpha| read off
    two amplitudes of the pair (:func:`_infer_cat_amplitude`).

    Pipeline: split the rails onto paths 1 (H) and 2 (V); mix each with a
    vacuum tag mode (paths 3, 4); displace the tags by A so one branch's tag
    light collects in 3H and the other's in 4V; recombine tags on a PBS so
    path 3 carries |2A> in H or V depending on the branch; flip the target
    polarizations and phases under that control; finally rotate path 3 to
    the diagonal basis, where the branch tags share a common vertical
    component and an equal-amplitude vacuum projection of the horizontal
    one erases which-branch information.  Conditioning keeps the dark
    horizontal port and a click on the vertical port.  Every stage after the
    rail PBS (tag mixers, displacements, tag PBS, gates, rotation and dark
    port) runs as one contraction, :func:`_erased_tags`, which builds no tag
    state: one kernel per access maps each pair of tag levels to the dark
    port, so a slice of rails reaches it in one product.  It keeps the
    guards and the deficit of those stages run one by one.  The stages are
    unitary, and what the cutoffs drop on the way is in the dark port's
    deficit, so the dark port's probability is its norm² over that of the
    PBS output.

    The register is :func:`access_register` at the input's largest cutoff.
    The tag light of 3H and path 4 lives only inside the contraction, so
    path 4 is not in the register: a 160-level pair at tag cutoff 162 takes
    41 key bits, where eight equal fields would take 64 of the 63 an int64
    key holds.

    With perfect settings the conditioned output is exactly
    (|H>_A,1 |V>_A,2 - |V>_A,1 |H>_A,2)/sqrt2.  A branch that holds nothing
    leaves nothing to condition on and raises :class:`DegenerateInputError`,
    as does a pair without the amplitudes :func:`_infer_cat_amplitude`
    reads alpha from.
    """
    imp = imperfection or PERFECT
    reg = state.register
    if any(m.path > 2 for m in reg.modes):
        raise ValueError("the cat pair must live on paths 1 and 2; paths 3 and 4 carry the tags")
    A = _infer_cat_amplitude(state) / SQRT2
    B = A + imp.displacement_offset
    psi = embed(state, access_register(max(reg.cutoffs), A, imp, tail_eps))
    psi = elements.pbs(psi, 1, 2)  # H stays on 1, V moves to 2
    # e^{i pi n} on 2V, which the staged ops apply after the 4V tag mixer:
    # ahead of it, the mixer's phase pi turns into 0
    psi = elements.phase_shift(psi, mode(2, "V"), math.pi)
    dark = _erased_tags(psi, B, imp)
    click, _ = elements.onoff_detect(dark, mode(3, "V"))
    log = (("tag_dark_port", dark.norm_sq() / psi.norm_sq()),
           ("tag_click", click.norm_sq() / max(dark.norm_sq(), 1e-300)))
    return CircuitReport(normalized(click), log)


def _tag_extents(mag: np.ndarray, kmag: np.ndarray) -> np.ndarray:
    """ext[r, s]: one past the largest tag level a of the first rail at
    which some amplitude mag[r + a, s + b] kmag[a, r] kmag[b, s] of rest
    (r, s) beats the prune level, else 0.  ``mag`` holds the rails'
    magnitudes up to (t, u) and zeros to twice that size.  The largest over
    b comes first, so no 4-index array is built."""
    t, u = mag.shape[0] // 2 - 1, mag.shape[1] // 2 - 1
    n, m = np.arange(t + 1), np.arange(u + 1)
    peak = np.zeros((2 * t + 1, u + 1))
    peak[:t + 1] = (mag[:t + 1, m[:, None] + m] * kmag[:u + 1, :u + 1]).max(axis=1)
    live = peak[n[:, None] + n] * kmag[:t + 1, :t + 1, None] > DEFAULT_PRUNE_EPS  # [a, r, s]
    return np.where(live.any(axis=0), t + 1 - np.argmax(live[::-1], axis=0), 0)


def _shell_pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Tag pairs (a, b), a, b < ``size``, in order of max(a, b): the pairs of
    a block of side s are the first s**2."""
    n = np.arange(size)
    return np.divmod(np.argsort(np.maximum.outer(n, n), axis=None, kind="stable"), size)


@_one_blas_thread
def _erasure_kernel(d: np.ndarray, w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """K[j, t] = sum_n d[n, a_j] w[n, t - n] d[t - n, b_j] over n > 0 (and
    n = 0 at t = 0 only), t < 2 dim - 1: the dark port at 3V = t of the tag
    pair (a_j, b_j), where (a, b) runs once over the pairs below a size
    (:func:`_shell_pairs`).

    Built a few columns b at a time: the weighted rows w[n, m] d[m, b] are
    laid out at t = n + m by padding each row n to 2 dim and reading the
    rows back at length 2 dim - 1, and one product sums over n.
    """
    dim, size = len(d), int(a.max()) + 1
    span = 2 * dim - 1
    row = np.empty((size, size), dtype=np.intp)
    row[a, b] = np.arange(len(a))
    kernel = np.empty((len(a), span), dtype=complex)
    step = max(_CHUNK // (dim * span), 1)
    for lo in range(0, size, step):
        cols = slice(lo, min(lo + step, size))
        width = cols.stop - lo
        pad = np.zeros((dim, 2 * dim, width), dtype=complex)
        np.multiply(w[:, :, None], d[:, cols], out=pad[:, :dim])
        pad[0, 1:] = 0.0
        skew = pad.reshape(-1, width)[:dim * span].reshape(dim, span * width)  # [n, (n + m, b)]
        kernel[row[:, cols]] = (d[:, :size].T @ skew).reshape(size, span, width).transpose(0, 2, 1)
    return kernel


@_one_blas_thread
def _erased_tags(psi: PureState, beta: complex, imp: Imperfection) -> PureState:
    """The dark port of :func:`access_polarization` from its PBS output.

    ``psi`` holds rails R1 in 1H and R2 in 2V (phase e^{i pi R2} applied),
    the other rail modes as spectators, and an empty path 3; its 3V cutoff
    is the tag cutoff, dim - 1, shared by both tags, and 4V is a label
    only, of the guard below, not a mode of the register.  Each tag mixer
    meets an empty port, so it leaves c[r, a, b] = psi(r1 + a, r2 + b)
    K3[a, r1] K4[b, r2]: rails r, tags a in 3H and b in 4V, with K3 and K4
    from :func:`fock._mixer_table` (phase pi, and 0 for 4V, which meets the
    2V phase first).  Tag mass past the cutoff joins the deficit, as a
    mixer's does; tag levels of dust alone (:func:`_tag_extents`) are not
    built, and their mass, at most 1e-32 an amplitude, joins no deficit.
    The tag displacements D and the PBS make phi[r, n, m] =
    sum D[n, a] D[m, b] c (n in 3H, m in 3V), the gates G act where n = 0,
    and the dark port keeps sum_n U_t[0, n] phi[r, n, t - n] at 3V = t.  So
    the port is c[r, a, b] K[(a, b), t], one product with the kernel of
    :func:`_erasure_kernel` (the n > 0 terms), plus G(held), held =
    U_t[0, 0] phi[r, 0, t] for t > 0, and no tag state is built.  Rests go
    in order of their extent s, the larger of their two :func:`_tag_extents`,
    in slices of k rests with k max(s**2, 2 dim - 1) at most ``_CHUNK``, so
    neither the block nor the port outgrows it; each slice is a (k, s, s)
    block whose pairs, in the kernel's row order (:func:`_shell_pairs`),
    meet its first s**2 rows.  The kernel is freed before the gates.
    The guards and the deficit are those of the staged ops: the top-level
    mass of 3H, then of 4V, then the ambiguous control mass (n, m > 0); the
    input deficit, the tag mass past the cutoff, the dark mass past the
    cutoff of 3V, the pruned dust and what the gates lose.  The truncated D
    is exactly unitary, so displacing a tag keeps its mass: the top mass of
    4V is that of c D[-1]^T, and the ambiguous mass is |c|^2 less the n = 0
    and m = 0 masses, |D[0] c|^2 and |c D[0]^T|^2, plus their overlap.
    """
    reg = psi.register
    h1, v2, h3, v3, v4 = mode(1, "H"), mode(2, "V"), mode(3, "H"), mode(3, "V"), mode(4, "V")
    dim = reg.cutoff_of(v3) + 1  # the tag cutoff, which both tags share
    d = displacement_matrix(complex(beta), dim)
    w = _mixer_table(-math.pi / 4.0, 0.0, dim)  # w[n, m] = U_{n+m}[0, n]
    spectators, group, occ = group_by(psi, [h1, v2])
    size = int(occ.max(initial=0)) + 1  # rails and tag levels stay below it
    k3, k4 = (_mixer_table(math.pi / 4.0, phase, size) for phase in (math.pi, 0.0))
    kmag = np.abs(k3)  # that of k4 too
    pairs = _shell_pairs(min(dim, size))
    kernel = _erasure_kernel(d, w, *pairs)
    held_row = d.T * w[0]  # d[m, b] U_m[0, 0]
    n, span = np.arange(dim), 2 * dim - 1
    s1, s2, s3 = (int(reg.strides[reg.index(m)]) for m in (h1, v2, v3))
    dark, held, lost, top_h, top_v, ambiguous = [], [], 0.0, 0.0, 0.0, 0.0
    for g, spectator in enumerate(spectators.tolist()):
        on = group == g
        top1, top2 = occ[on].max(axis=0).tolist()
        top = max(top1, top2)
        rails = np.zeros((top1 + top + 2, top2 + top + 2), dtype=complex)  # zero past the tops
        rails[occ[on, 0], occ[on, 1]] = psi.coeffs[on]
        mag = np.abs(rails[:2 * top1 + 2, :2 * top2 + 2])
        ext1, ext2 = _tag_extents(mag, kmag), _tag_extents(mag.T, kmag).T
        rests = np.flatnonzero(np.minimum(ext1, ext2))  # the two agree but for rounding
        sides = np.maximum(ext1, ext2).ravel()[rests]
        order = np.argsort(sides, kind="stable")
        rests, sides = rests[order], sides[order].tolist()
        cuts, lo = [], 0
        for i, side in enumerate(sides):
            if i > lo and (i - lo + 1) * max(side * side, span) > _CHUNK:
                cuts.append(i)
                lo = i
        for lo, hi in zip([0, *cuts], [*cuts, len(rests)]):
            r1, r2 = np.divmod(rests[lo:hi], top2 + 1)
            s = sides[hi - 1]
            c = sliding_window_view(rails, (s, s))[r1, r2]  # c[r, a, b]
            c *= k3[:s, r1].T[:, :, None] * k4[:s, r2].T[:, None]
            if s > dim:
                lost += _mass(c[:, dim:]) + _mass(c[:, :dim, dim:])
                c, s = c[:, :dim, :dim], dim
            dr = d[:, :s]
            top_h += _mass(dr[-1] @ c)  # 3H displaced
            top_v += _mass(c @ dr[-1])  # and 4V, moved to 3V
            row = dr[0] @ c  # n = 0
            if imp.on_ambiguous == "error":
                col = c @ dr[0]  # m = 0
                ambiguous += _mass(c) - _mass(row) - _mass(col) + _mass(col @ dr[0])
            rest = spectator + s1 * r1 + s2 * r2
            held.append(_finish(reg, (rest[:, None] + s3 * n[1:]).ravel(),
                                (row @ held_row[:s, 1:]).ravel(), 0.0))
            a, b = pairs[0][:s * s], pairs[1][:s * s]
            port = c[:, a, b] @ kernel[:s * s]
            dark.append(_finish(reg, (rest[:, None] + s3 * n).ravel(), port[:, :dim].ravel(),
                                _mass(port[:, dim:])))
    del kernel
    _refuse_top_mass(h3, top_h, elements.TOP_LEVEL_TOL)
    _refuse_top_mass(v4, top_v, elements.TOP_LEVEL_TOL)
    if imp.on_ambiguous == "error":
        elements._refuse_ambiguous(ambiguous, psi.norm_sq())
    gated = elements.controlled_pol_gates(
        _joined(reg, held, 0.0), 3, flips=[(target, imp.flip_angle) for target in (1, 2)],
        phases=[(target, math.pi) for target in (1, 2)], on_ambiguous="pass")
    return add(_joined(reg, dark, psi.norm_deficit + lost), gated)


# ---------------------------------------------------------------------------
# interaction-free bomb test


#: beam-splitter angle for the asymptotic single-photon interferometer
SINGLE_PHOTON_THETA = 1e-5


@_one_blas_thread
def run_ifm(state_kind: str, bomb: bool, theta: float = math.pi / 6) -> ExperimentResult:
    """Bomb test in a polarizing Mach-Zehnder interferometer.

    ``state_kind`` is ``"entangled"`` (the Bell pair
    (|H>1|V>2 + |V>1|H>2)/sqrt2), ``"nonmaximal"``
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
        events = functools.partial(_polarization_events, th)
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


def _polarization_events(theta: float, bomb: bool) -> tuple[dict, float]:
    """Detection probabilities of one run and the norm deficit of its final
    state (deficits only grow along the run)."""
    reg = polarized_register([1, 2], 2)
    hv = basis_state(reg, {mode(1, "H"): 1, mode(2, "V"): 1})
    vh = basis_state(reg, {mode(1, "V"): 1, mode(2, "H"): 1})
    psi = add(scale(hv, math.cos(theta)), scale(vh, math.sin(theta)))

    explode = 0.0
    if bomb:
        exploded, psi = elements.onoff_detect(psi, mode(1, "V"))
        explode = exploded.norm_sq()
    for path in (1, 2):
        psi = elements.rotate_45(psi, path)

    # rail of each path: +1 for H only, -1 for V only, 0 for neither or both
    on = reg.digits(psi.keys, [reg.index(mode(p, s)) for p in (1, 2) for s in "HV"]) > 0
    rail = on[:, ::2].astype(int) - on[:, 1::2]
    w = np.abs(psi.coeffs) ** 2
    product = rail[:, 0] * rail[:, 1]
    return ({"same_pol": float(w[product == 1].sum()), "diff_pol": float(w[product == -1].sum()),
             "other": float(w[product == 0].sum()), "explode": explode}, psi.norm_deficit)


def _single_photon_events(bomb: bool) -> tuple[dict, float]:
    """As :func:`_polarization_events`, for the one-photon interferometer."""
    reg = plain_register([1, 2], 2)
    psi = basis_state(reg, {mode(1): 1})
    psi = apply_two_mode_mixer(psi, mode(1), mode(2), SINGLE_PHOTON_THETA)
    explode = 0.0
    if bomb:
        exploded, psi = elements.onoff_detect(psi, mode(2))
        explode = exploded.norm_sq()
    psi = apply_two_mode_mixer(psi, mode(1), mode(2), -SINGLE_PHOTON_THETA)
    bright = abs(psi.amps.get((1, 0), 0.0)) ** 2
    dark = abs(psi.amps.get((0, 1), 0.0)) ** 2
    other = psi.norm_sq() - bright - dark
    # the dark port plays the role of the diff-pol signature
    return ({"same_pol": bright, "diff_pol": dark, "other": abs(other),
             "explode": explode}, psi.norm_deficit)


# ---------------------------------------------------------------------------
# NOON-type coherent state


def noon_cutoff(alpha: float, tail_eps: float) -> int:
    """Cutoff of the register :func:`noon_from_cat_pair` builds: the tail
    rule of the displaced amplitude 2*alpha."""
    return coherent_cutoff(2.0 * alpha, tail_eps)


@_one_blas_thread
def noon_from_cat_pair(alpha: float, tail_eps: float = DEFAULT_TAIL_EPS) -> PureState:
    """Displace each mode of the two-path entangled cat pair by alpha,
    turning it into the normalized |2a,0> - |0,2a> superposition."""
    reg = plain_register([1, 2], noon_cutoff(alpha, tail_eps))
    pair = states.entangled_cat_pair(reg, mode(1), mode(2), alpha, "-", tail_eps)
    out = elements.displace(pair, mode(1), alpha)
    out = elements.displace(out, mode(2), alpha)
    return out


# ---------------------------------------------------------------------------
# squeezed-vacuum alternative


@_one_blas_thread
def sv_generate(r: float, transmittance: float = 0.5,
                tail_eps: float = DEFAULT_TAIL_EPS) -> CircuitReport:
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
    return CircuitReport(normalized(out), ())


@_one_blas_thread
def sv_antisqueeze_to_single_photon(r: float, tail_eps: float = DEFAULT_TAIL_EPS) -> CircuitReport:
    """Anti-squeeze each path of the two-path subtraction-superposition state,
    landing on the single-photon entangled state (|1,0> + |0,1>)/sqrt2."""
    if r <= 0.0:
        raise DegenerateInputError("needs r > 0")
    reg = plain_register([1, 2], squeezed_cutoff(r, tail_eps) + 4)
    out = normalized(_subtracted_pair(reg, mode(1), mode(2), r, (1.0, 1.0), tail_eps))
    out = elements.squeeze(out, mode(1), -r)
    out = elements.squeeze(out, mode(2), -r)
    return CircuitReport(out, ())


@_one_blas_thread
def sv_access_polarization(state: PureState) -> CircuitReport:
    """Nondestructive parity sorting of the squeezed pair into a heralded
    polarization Bell state on identical photon-subtracted envelopes.

    Stages: split the H/V rails onto paths 1 and 2; attach an H single
    photon on path 3; flip path 3's polarization on odd photon number in
    mode (2,V); apply two polarization flips on paths 1 and 2 controlled by
    path 3; exchange the path contents under the same control; subtract one
    photon from path 2; rotate path 3 to the diagonal basis and condition
    on its vertical detector.
    """
    reg = state.register
    cut = max(reg.cutoffs)
    big = ModeRegister.of({mode(p, pol): cut if p < 3 else 2
                           for p in (1, 2, 3) for pol in ("H", "V")})
    psi = embed(state, big)

    psi = elements.pbs(psi, 1, 2)                       # V rail -> path 2
    psi = apply_creation(psi, mode(3, "H"))             # attach |H>_3
    psi = elements.parity_controlled_flip(psi, mode(2, "V"), 3)
    psi = elements.controlled_pol_gates(psi, 3, flips=[(1, math.pi), (2, math.pi)])
    psi = elements.cswap_pol(psi, 3, 1, 2)
    psi = normalized(add(apply_annihilation(psi, mode(2, "H")),
                         apply_annihilation(psi, mode(2, "V"))))
    psi = elements.rotate_45(psi, 3)
    click, _ = elements.onoff_detect(psi, mode(3, "V"))
    p = click.norm_sq() / max(psi.norm_sq(), 1e-300)
    return CircuitReport(normalized(click), (("diag_herald_V", p),))
