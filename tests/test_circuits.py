import math
import tracemalloc

import numpy as np
import pytest

from dualcat.analysis import (
    entanglement,
    fidelity,
    negativity_two_qubit,
    polarization_qubit_state,
    subsystem_fidelity,
)
from dualcat.circuits import (
    access_parity,
    access_polarization,
    analytic_coherent_bell,
    analytic_dual_rail_pair,
    analytic_subtracted_bell,
    generate_entangled_cat,
    generate_even_cat_control,
    noon_from_cat_pair,
    run_ifm,
    sv_access_polarization,
    sv_antisqueeze_to_single_photon,
    sv_generate,
)
from dualcat import circuits, elements, fock
from dualcat.elements import Imperfection
from dualcat.fock import (
    DEFAULT_TAIL_EPS,
    ContractViolationError,
    CutoffError,
    DegenerateInputError,
    ModeRegister,
    PureState,
    RegisterMismatchError,
    add,
    apply_two_mode_mixer,
    basis_state,
    embed,
    mode,
    normalized,
    plain_register,
    polarized_register,
    product,
    scale,
)
from dualcat.states import SqueezeParams, coherent
from staged import mixer_dark_branch

PATH12_RAILS = [mode(1, "H"), mode(1, "V"), mode(2, "H"), mode(2, "V")]


# ---------------------------------------------------------------------------
# generation


@pytest.mark.parametrize("alpha", [0.8, 1.2, 2.0])
def test_generation_hits_the_analytic_dual_rail_pair(alpha):
    rep = generate_entangled_cat(alpha)
    target = analytic_dual_rail_pair(rep.output_state.register, alpha, "-")
    assert fidelity(rep.output_state, target) >= 1.0 - 1e-9


def test_generation_plus_sign_variant():
    rep = generate_entangled_cat(1.0, sign="+")
    target = analytic_dual_rail_pair(rep.output_state.register, 1.0, "+")
    assert fidelity(rep.output_state, target) >= 1.0 - 1e-9


@pytest.mark.parametrize("alpha", [0.8, 1.2, 2.0])
def test_generation_delivers_one_ebit(alpha):
    rep = generate_entangled_cat(alpha)
    s = entanglement(rep.output_state, [mode(1, "H")])
    assert s.entropy_bits == pytest.approx(1.0, abs=1e-6)


def test_generation_postselection_is_lossless():
    rep = generate_entangled_cat(1.2)
    assert rep.postselect_probability == pytest.approx(1.0, abs=1e-9)
    assert rep.postselect_probability == pytest.approx(
        math.prod(p for _, p in rep.branch_log), abs=1e-12)


def test_generation_folds_both_arms_onto_path_1():
    # the split writes the arms as 1H and 2V, so no step blocks any mass and
    # the PBS alone brings every photon onto path 1
    for make in (generate_entangled_cat, generate_even_cat_control):
        rep = make(1.2, "-", 1e-6)
        assert rep.branch_log == ()
        assert rep.postselect_probability == 1.0
        out, reg = rep.output_state, rep.output_state.register
        for pol in ("H", "V"):
            assert not reg.digit(out.keys, reg.index(mode(2, pol))).any()


def test_generation_rejects_zero_alpha():
    with pytest.raises(DegenerateInputError):
        generate_entangled_cat(0.0)


def test_even_cat_control_schmidt_ratio():
    # Schmidt coefficient ratio (odd/even) equals (1 - x)/(1 + x), x = e^{-2a^2}
    alpha = 1.0
    rep = generate_even_cat_control(alpha)
    s = entanglement(rep.output_state, [mode(1, "H")])
    lam = sorted(s.schmidt_spectrum, reverse=True)[:2]
    ratio = math.sqrt(lam[1] / lam[0])
    x = math.exp(-2.0 * alpha**2)
    assert ratio == pytest.approx((1.0 - x) / (1.0 + x), abs=1e-9)
    assert s.entropy_bits < 1.0


def test_even_cat_control_entropy_grows_with_alpha():
    entropies = [entanglement(generate_even_cat_control(a).output_state,
                              [mode(1, "H")]).entropy_bits
                 for a in (0.5, 1.0, 2.0)]
    assert entropies[0] < entropies[1] < entropies[2] < 1.0


# ---------------------------------------------------------------------------
# parity access


def test_parity_access_reproduces_two_path_form():
    alpha = 1.0
    rep = generate_entangled_cat(alpha)
    out = access_parity(rep.output_state).output_state
    # (|even>|odd> - |odd>|even>)/sqrt2 on the H rails of paths 1 and 2
    reg = out.register
    from dualcat.states import CatParams, cat

    e1 = cat(reg, mode(1, "H"), CatParams(alpha, "even"))
    o2 = cat(reg, mode(2, "H"), CatParams(alpha, "odd"))
    o1 = cat(reg, mode(1, "H"), CatParams(alpha, "odd"))
    e2 = cat(reg, mode(2, "H"), CatParams(alpha, "even"))
    target = normalized(add(product(e1, o2), scale(product(o1, e2), -1.0)))
    assert fidelity(out, target) >= 1.0 - 1e-9


def test_parity_access_preserves_entropy():
    rep = generate_entangled_cat(1.2)
    before = entanglement(rep.output_state, [mode(1, "H")]).entropy_bits
    out = access_parity(rep.output_state).output_state
    after = entanglement(out, [mode(1, "H"), mode(1, "V")]).entropy_bits
    assert after == pytest.approx(before, abs=1e-9)


def test_parity_access_maps_products_to_products():
    reg = polarized_register([1, 2], 16)
    psi = product(coherent(reg, mode(1, "H"), 0.8),
                  coherent(reg, mode(1, "V"), 0.8))
    out = access_parity(psi).output_state
    s = entanglement(out, [mode(1, "H"), mode(1, "V")])
    assert s.entropy_bits == pytest.approx(0.0, abs=1e-9)


def test_parity_access_needs_paths_1_and_2():
    # the PBS needs the H and V modes of both paths
    psi = basis_state(polarized_register([1], 2), {mode(1, "H"): 1, mode(1, "V"): 2})
    with pytest.raises(RegisterMismatchError):
        access_parity(psi)


# ---------------------------------------------------------------------------
# polarization access


def test_polarization_access_conditions_on_the_coherent_bell_state():
    alpha = 1.4
    rep = generate_entangled_cat(alpha)
    acc = access_polarization(rep.output_state)
    out = acc.output_state
    target = analytic_coherent_bell(
        polarized_register([1, 2], max(out.register.cutoffs)),
        alpha / math.sqrt(2.0))
    assert subsystem_fidelity(out, target, PATH12_RAILS) >= 1.0 - 1e-6
    q = polarization_qubit_state(out, 1, 2)
    _, logneg = negativity_two_qubit(q.rho)
    assert logneg == pytest.approx(1.0, abs=1e-6)


def test_polarization_access_bookkeeping_is_consistent():
    rep = generate_entangled_cat(1.2)
    acc = access_polarization(rep.output_state)
    assert acc.postselect_probability == pytest.approx(
        math.prod(p for _, p in acc.branch_log), abs=1e-10)
    assert 0.0 < acc.postselect_probability < 1.0


def test_polarization_access_entropy_matches_generation():
    rep = generate_entangled_cat(1.2)
    gen_entropy = entanglement(rep.output_state, [mode(1, "H")]).entropy_bits
    acc = access_polarization(rep.output_state)
    pol_entropy = entanglement(acc.output_state,
                               [mode(1, "H"), mode(1, "V")]).entropy_bits
    assert pol_entropy == pytest.approx(gen_entropy, abs=1e-6)


def test_polarization_access_negativity_decreases_with_displacement_error():
    rep = generate_entangled_cat(1.2)
    negs = []
    for off in (0.0, 0.3):
        acc = access_polarization(rep.output_state, Imperfection(displacement_offset=off))
        q = polarization_qubit_state(acc.output_state, 1, 2)
        negs.append(negativity_two_qubit(q.rho)[0])
    assert negs[0] == pytest.approx(0.5, abs=1e-6)
    assert negs[1] < negs[0]


def test_polarization_access_partial_flip_gives_partial_entanglement():
    rep = generate_entangled_cat(1.2)
    acc = access_polarization(rep.output_state, Imperfection(flip_angle=math.pi / 2))
    q = polarization_qubit_state(acc.output_state, 1, 2)
    _, logneg = negativity_two_qubit(q.rho)
    assert 0.0 + 1e-6 < logneg < 1.0 - 1e-6


def test_polarization_access_zero_flip_gives_no_entanglement():
    rep = generate_entangled_cat(1.2)
    acc = access_polarization(rep.output_state, Imperfection(flip_angle=0.0))
    q = polarization_qubit_state(acc.output_state, 1, 2)
    neg, _ = negativity_two_qubit(q.rho)
    assert neg == pytest.approx(0.0, abs=1e-9)


def test_zero_flip_keeps_a_dark_port_but_no_v_click():
    # without the flip the H port still stays dark; it is the V click that
    # falls to rounding dust, so normalizing it leaves a huge deficit
    rep = generate_entangled_cat(1.2)
    acc = access_polarization(rep.output_state, Imperfection(flip_angle=0.0))
    (dark, p_dark), (click, p_click) = acc.branch_log
    assert (dark, click) == ("tag_dark_port", "tag_click")
    assert p_dark == pytest.approx(0.0531511364, rel=1e-8)
    assert 0.0 < p_click < 1e-14
    assert acc.output_state.norm_deficit > 1e3


def test_polarization_access_keeps_the_input_deficit():
    # the deficit bounds the missing mass, so conditioning can only raise it
    gen = generate_entangled_cat(1.19).output_state
    out = access_polarization(gen).output_state
    assert out.norm_deficit >= gen.norm_deficit > 0.0


def test_polarization_access_is_deterministic():
    rep = generate_entangled_cat(1.0)
    a = access_polarization(rep.output_state)
    b = access_polarization(rep.output_state)
    assert a.branch_log == b.branch_log
    assert a.output_state.amps == b.output_state.amps


# ---------------------------------------------------------------------------
# interaction-free measurement


def test_ifm_entangled_with_bomb():
    r = run_ifm("entangled", bomb=True)
    assert r.scalars["explode"] == pytest.approx(0.5, abs=1e-9)
    assert r.scalars["diff_pol"] == pytest.approx(0.25, abs=1e-9)
    assert r.scalars["same_pol"] == pytest.approx(0.25, abs=1e-9)
    assert r.scalars["eta"] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_ifm_entangled_without_bomb_is_noiseless():
    r = run_ifm("entangled", bomb=False)
    assert r.scalars["same_pol"] == pytest.approx(1.0, abs=1e-12)
    assert r.scalars["diff_pol"] <= 1e-12


def test_ifm_single_photon_baseline():
    r = run_ifm("single_photon", bomb=True)
    assert r.scalars["eta"] == pytest.approx(0.5, abs=1e-9)


def test_ifm_nonmaximal_input_is_not_discriminable():
    r = run_ifm("nonmaximal", bomb=False, theta=math.pi / 6)
    assert r.scalars["diff_pol"] > 1e-3
    assert r.scalars["eta"] == 0.0
    assert r.scalars["discriminable"] == 0.0


def test_ifm_rejects_unknown_state_kind():
    with pytest.raises(ValueError):
        run_ifm("thermal", bomb=False)


# ---------------------------------------------------------------------------
# NOON helper


def test_noon_state_structure():
    noon = noon_from_cat_pair(1.0)
    reg = noon.register
    big = product(coherent(reg, mode(1), 2.0), coherent(reg, mode(2), 0.0))
    from dualcat.fock import scale

    target = normalized(add(big, scale(
        product(coherent(reg, mode(1), 0.0), coherent(reg, mode(2), 2.0)), -1.0)))
    assert fidelity(noon, target) >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# squeezed-vacuum route


def test_sv_generate_balanced_matches_closed_form():
    r = 0.8
    rep = sv_generate(r, 0.5)
    out = rep.output_state
    reg = out.register
    from dualcat.fock import apply_annihilation, scale
    from dualcat.states import squeezed_vacuum

    prod = product(squeezed_vacuum(reg, mode(1, "H"), SqueezeParams(r)),
                   squeezed_vacuum(reg, mode(1, "V"), SqueezeParams(r)))
    target = scale(add(apply_annihilation(prod, mode(1, "H")),
                       apply_annihilation(prod, mode(1, "V"))),
                   1.0 / (math.sqrt(2.0) * math.sinh(r)))
    assert abs(target.norm() - 1.0) < 1e-9  # the closed-form prefactor normalizes
    assert fidelity(out, target) >= 1.0 - 1e-9


def test_sv_generate_unbalanced_limit_is_separable():
    rep = sv_generate(0.8, 1.0)
    s = entanglement(rep.output_state, [mode(1, "H")])
    assert s.entropy_bits == pytest.approx(0.0, abs=1e-9)


def test_sv_generate_entropy_peaks_at_balance():
    entropies = {t: entanglement(sv_generate(0.8, t).output_state,
                                 [mode(1, "H")]).entropy_bits
                 for t in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)}
    assert max(entropies, key=entropies.get) == 0.5
    assert entropies[0.5] == pytest.approx(1.0, abs=1e-9)


def test_sv_generate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        sv_generate(0.8, 1.3)
    with pytest.raises(DegenerateInputError):
        sv_generate(0.0, 0.5)


def test_sv_access_heralds_the_subtracted_bell_state():
    rep = sv_generate(0.7, 0.5)
    acc = sv_access_polarization(rep.output_state)
    out = acc.output_state
    target = analytic_subtracted_bell(
        polarized_register([1, 2], max(out.register.cutoffs)), 0.7)
    assert subsystem_fidelity(out, target, PATH12_RAILS) >= 1.0 - 1e-6
    assert acc.postselect_probability == pytest.approx(0.5, abs=1e-9)
    assert acc.postselect_probability == pytest.approx(
        math.prod(p for _, p in acc.branch_log), abs=1e-10)


def test_sv_access_without_the_exchange_stage_mismatches_envelopes(monkeypatch):
    rep = sv_generate(0.7, 0.5)
    monkeypatch.setattr(circuits.elements, "cswap_pol", lambda psi, *args, **kwargs: psi)
    acc = sv_access_polarization(rep.output_state)
    target = analytic_subtracted_bell(
        polarized_register([1, 2], max(acc.output_state.register.cutoffs)), 0.7)
    assert subsystem_fidelity(acc.output_state, target, PATH12_RAILS) < 0.9


@pytest.mark.parametrize("r", [0.5, 1.2])
def test_antisqueezing_lands_on_single_photon_entanglement(r):
    rep = sv_antisqueeze_to_single_photon(r)
    out = rep.output_state
    reg = out.register
    bell = normalized(add(basis_state(reg, {mode(1): 1}),
                          basis_state(reg, {mode(2): 1})))
    assert fidelity(out, bell) >= 1.0 - 1e-9


def test_antisqueezing_preserves_entropy():
    r = 0.8
    gen_reg = plain_register([1, 2], 90)
    from dualcat.fock import apply_annihilation
    from dualcat.states import squeezed_vacuum

    prod = product(squeezed_vacuum(gen_reg, mode(1), SqueezeParams(r)),
                   squeezed_vacuum(gen_reg, mode(2), SqueezeParams(r)))
    before = normalized(add(apply_annihilation(prod, mode(1)),
                            apply_annihilation(prod, mode(2))))
    e_before = entanglement(before, [mode(1)]).entropy_bits
    rep = sv_antisqueeze_to_single_photon(r)
    e_after = entanglement(normalized(rep.output_state), [mode(1)]).entropy_bits
    assert e_after == pytest.approx(e_before, abs=1e-9)
    assert e_after == pytest.approx(1.0, abs=1e-9)


def test_local_unitaries_preserve_every_entanglement_measure():
    from dualcat.elements import displace, hwp, phase_shift

    rep = generate_entangled_cat(1.0)
    base = entanglement(rep.output_state, [mode(1, "H")])
    moved = phase_shift(rep.output_state, mode(1, "H"), 0.9)
    moved = displace(moved, mode(2, "H"), 0.2)
    moved = hwp(moved, 2)
    after = entanglement(moved, [mode(1, "H")])
    assert after.entropy_bits == pytest.approx(base.entropy_bits, abs=1e-9)
    assert after.log_negativity == pytest.approx(base.log_negativity, abs=1e-9)


def test_polarization_access_accepts_single_path_registers():
    reg = polarized_register([1], 22)
    pair = analytic_dual_rail_pair(reg, 1.0, "-")
    acc = access_polarization(pair)
    target = analytic_coherent_bell(
        polarized_register([1, 2], max(acc.output_state.register.cutoffs)),
        1.0 / math.sqrt(2.0))
    assert subsystem_fidelity(acc.output_state, target, PATH12_RAILS) >= 1.0 - 1e-6


def test_polarization_access_register_keeps_only_the_fields_light_reaches():
    """Path 3's H is the empty control, with cutoff 1, and path 4 holds no
    photon in the output, so it is not in the register.  A 160-level pair at
    a tail budget of 1e-200 (tag cutoff 162) then needs 41 key bits, where
    eight equal fields would need 64 of the 63 an int64 key holds."""
    pair = analytic_dual_rail_pair(polarized_register([1], 160), 1.0, "-", tail_eps=1e-200)
    out = access_polarization(pair, tail_eps=1e-200).output_state
    reg = out.register
    assert reg.modes == (*PATH12_RAILS, mode(3, "H"), mode(3, "V"))
    assert reg.cutoffs[:5] == (160, 160, 160, 160, 1)
    assert reg.cutoffs[5] == circuits.tag_cutoff(1.0 / math.sqrt(2.0), Imperfection(), 1e-200)
    target = analytic_coherent_bell(polarized_register([1, 2], max(reg.cutoffs)),
                                    1.0 / math.sqrt(2.0), tail_eps=1e-200)
    assert subsystem_fidelity(out, target, PATH12_RAILS) >= 1.0 - 1e-9


def test_polarization_access_refuses_a_register_with_tag_paths():
    reg = polarized_register([1, 2, 3], 22)
    with pytest.raises(ValueError, match="paths 3 and 4"):
        access_polarization(analytic_dual_rail_pair(reg, 1.0, "-"))


def test_polarization_access_refuses_an_empty_dark_port(monkeypatch):
    """An empty dark port leaves nothing to condition on: the access raises
    rather than report a state it did not condition."""
    monkeypatch.setattr(circuits, "_erased_tags", lambda psi, *args: PureState(psi.register, {}))
    with pytest.raises(DegenerateInputError):
        access_polarization(generate_entangled_cat(1.2).output_state)


# ---------------------------------------------------------------------------
# the erasure step against the staged ops it contracts


def staged_access(state, imp=Imperfection(), tail_eps=DEFAULT_TAIL_EPS):
    """The polarization access up to its dark port as a chain of public ops,
    each stage a state: the reference the one-contraction erasure step must
    reproduce.  Returns the dark port and the squared norm of the state that
    meets it."""
    A = circuits._infer_cat_amplitude(state) / math.sqrt(2.0)
    B = A + imp.displacement_offset
    cut_tag = circuits.tag_cutoff(A, imp, tail_eps)
    big = ModeRegister.of({mode(p, pol): max(state.register.cutoffs) if p < 3 else cut_tag
                           for p in (1, 2, 3, 4) for pol in ("H", "V")})
    psi = elements.pbs(embed(state, big), 1, 2)
    psi = apply_two_mode_mixer(psi, mode(1, "H"), mode(3, "H"), math.pi / 4.0, math.pi)
    psi = apply_two_mode_mixer(psi, mode(2, "V"), mode(4, "V"), math.pi / 4.0, math.pi)
    psi = elements.displace(psi, mode(3, "H"), B)
    psi = elements.displace(psi, mode(4, "V"), B)
    psi = elements.pbs(psi, 3, 4)
    psi = elements.phase_shift(psi, mode(2, "V"), math.pi)
    psi = elements.controlled_pol_gates(
        psi, 3, flips=[(target, imp.flip_angle) for target in (1, 2)],
        phases=[(target, math.pi) for target in (1, 2)], on_ambiguous=imp.on_ambiguous)
    return mixer_dark_branch(psi, mode(3, "H"), mode(3, "V"), -math.pi / 4.0), psi.norm_sq()


def max_gap(a, b) -> float:
    """The largest amplitude of a - b, with ``a`` carried into the register
    of ``b``: the staged register holds every tag mode the access drops."""
    return float(np.max(np.abs(add(embed(a, b.register), scale(b, -1.0)).coeffs), initial=0.0))


@pytest.mark.parametrize("alpha", [1.0, 1.19, 2.0])
@pytest.mark.parametrize("offset", [0.0, 0.2, 0.6])
@pytest.mark.parametrize("flip", [math.pi, math.pi / 2.0, 0.0])
def test_polarization_access_matches_the_staged_ops(monkeypatch, alpha, offset, flip):
    """Dark port and output amplitudes within 1e-12 of the norm, the dark
    port's deficit within 1e-9 relative (it holds the dark mass past the
    cutoff, 1e-21 next to an input deficit of 1e-13), branch probabilities
    within 1e-12 relative.  A click probability that both put below 1e-14
    is rounding dust (at the zero flip), whose digits carry nothing."""
    gen = generate_entangled_cat(alpha).output_state
    imp = Imperfection(displacement_offset=offset, flip_angle=flip)
    ports = []
    erase = circuits._erased_tags
    monkeypatch.setattr(circuits, "_erased_tags", lambda *args: ports.append(erase(*args)) or ports[0])
    acc = access_polarization(gen, imp)
    dark, norm_sq = staged_access(gen, imp)
    assert max_gap(ports[0], dark) <= 1e-12 * math.sqrt(norm_sq)
    assert ports[0].norm_deficit == pytest.approx(dark.norm_deficit, rel=1e-9, abs=0.0)
    assert acc.output_state.norm_deficit >= gen.norm_deficit / gen.norm_sq()

    click, _ = elements.onoff_detect(dark, mode(3, "V"))
    (_, q_dark), (_, q_click) = acc.branch_log
    assert q_dark == pytest.approx(dark.norm_sq() / norm_sq, rel=1e-12, abs=0.0)
    assert q_click == pytest.approx(click.norm_sq() / dark.norm_sq(), rel=1e-12, abs=1e-14)
    ours = scale(acc.output_state, math.sqrt(q_dark * q_click * norm_sq))
    assert max_gap(ours, click) <= 1e-12 * math.sqrt(norm_sq)


@pytest.mark.parametrize("offset", [0.0, 0.6])
def test_erasure_slices_do_not_change_the_output(monkeypatch, offset):
    """Slices of one or two rests (one rest holds a 35 x 35 dense block at
    alpha 1.19, offset 0.6) give the output of the default slices."""
    gen = generate_entangled_cat(1.19).output_state
    imp = Imperfection(displacement_offset=offset)
    whole = access_polarization(gen, imp)
    monkeypatch.setattr(circuits, "_CHUNK", 2000)
    sliced = access_polarization(gen, imp)
    for (_, p), (_, q) in zip(whole.branch_log, sliced.branch_log):
        assert q == pytest.approx(p, rel=1e-12, abs=0.0)
    assert max_gap(whole.output_state, sliced.output_state) <= 1e-12


@pytest.mark.parametrize("offset", [0.0, 0.6])
def test_erasure_slices_of_one_rest_do_not_change_the_output(monkeypatch, offset):
    """Slices of one rest each, and a kernel built one column at a time,
    give the output of the default slices."""
    gen = generate_entangled_cat(1.19).output_state
    imp = Imperfection(displacement_offset=offset)
    whole = access_polarization(gen, imp)
    monkeypatch.setattr(circuits, "_CHUNK", 1)
    sliced = access_polarization(gen, imp)
    for (_, p), (_, q) in zip(whole.branch_log, sliced.branch_log):
        assert q == pytest.approx(p, rel=1e-12, abs=0.0)
    assert max_gap(whole.output_state, sliced.output_state) <= 1e-12


def test_shell_pairs_of_a_block_come_first():
    """The first s**2 tag pairs are exactly those with max(a, b) < s, once
    each, so a block of side s meets the first s**2 rows of the kernel."""
    a, b = circuits._shell_pairs(7)
    assert len(a) == 49
    for s in range(8):
        assert set(zip(a[:s * s].tolist(), b[:s * s].tolist())) == {
            (i, j) for i in range(s) for j in range(s)}


@pytest.mark.parametrize("size", [6, 4])
@pytest.mark.parametrize("chunk", [None, 132])
def test_erasure_kernel_is_the_sum_over_each_antidiagonal(monkeypatch, size, chunk):
    """K[j, t] = sum_n d[n, a_j] w[n, t - n] d[t - n, b_j] over n > 0, and
    n = 0 at t = 0 only, for every t < 2 dim - 1: at dim 6, beta 0.7 + 0.2i,
    built in one pass or two columns at a time."""
    if chunk is not None:
        monkeypatch.setattr(circuits, "_CHUNK", chunk)
    dim = 6
    d = fock.displacement_matrix(0.7 + 0.2j, dim)
    w = fock._mixer_table(-math.pi / 4.0, 0.0, dim)
    a, b = circuits._shell_pairs(size)
    kernel = circuits._erasure_kernel(d, w, a, b)
    assert kernel.shape == (size * size, 2 * dim - 1)
    for j, (aj, bj) in enumerate(zip(a.tolist(), b.tolist())):
        for t in range(2 * dim - 1):
            want = sum(d[n, aj] * w[n, t - n] * d[t - n, bj]
                       for n in range(max(t - dim + 1, 0), min(t, dim - 1) + 1) if n > 0 or t == 0)
            assert kernel[j, t] == pytest.approx(want, abs=1e-15), (aj, bj, t)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ambiguous_mass_from_unitarity_is_the_direct_sum(monkeypatch, seed):
    """On random rails the tag blocks hold O(1) ambiguous control light.
    The contraction's mass from unitarity, |c|^2 less the n = 0 and m = 0
    masses plus their overlap, equals the direct sum of |phi|^2 over
    n, m > 0 that the staged gates take, to 1e-13 relative."""
    rng = np.random.default_rng(seed)
    reg = polarized_register([1], 22)
    state = normalized(PureState(reg, {(h, v): complex(*rng.normal(size=2))
                                       for h in range(4) for v in range(4)}))
    masses = []
    monkeypatch.setattr(elements, "_refuse_ambiguous", lambda mass, norm_sq: masses.append(mass))
    access_polarization(state)
    staged_access(state)
    ours, direct = masses
    assert direct > 0.1
    assert ours == pytest.approx(direct, rel=1e-13, abs=0.0)


def _spectator_pair():
    """The generated pair at alpha 1.19 with light on 2H and 2V beside it,
    which the rail PBS moves to 2H and 1V: rails the tags never touch."""
    gen = generate_entangled_cat(1.19).output_state
    reg = gen.register
    side = add(basis_state(reg, {mode(2, "H"): 1}), scale(basis_state(reg, {mode(2, "V"): 2}), 0.3))
    return normalized(add(scale(gen, 0.9), scale(product(gen, normalized(side)), 0.4))), 1e-12


def _pair_past_the_tag_cutoff():
    """The analytic pair at alpha 1 on 40 levels, whose rails reach past
    the tag cutoff (16 at a tail budget of 1e-8, offset -0.3)."""
    return analytic_dual_rail_pair(polarized_register([1], 40), 1.0, "-"), 1e-8


@pytest.mark.parametrize("make, imp", [
    (_spectator_pair, Imperfection()),
    (_spectator_pair, Imperfection(displacement_offset=0.6, flip_angle=math.pi / 2.0)),
    (_pair_past_the_tag_cutoff, Imperfection(displacement_offset=-0.3, flip_angle=2.0)),
])
def test_erasure_matches_the_staged_ops_off_the_generated_pair(monkeypatch, make, imp):
    """Rails beside 1H and 2V ride through the erasure as the staged ops
    carry them, and tag mass past the tag cutoff joins the deficit as the
    staged mixers drop it: with the pair on 40 levels that mass, 5.7e-19,
    is nearly all of the deficit, which is held to 1e-9 relative."""
    state, eps = make()
    ports = []
    erase = circuits._erased_tags
    monkeypatch.setattr(circuits, "_erased_tags", lambda *args: ports.append(erase(*args)) or ports[0])
    access_polarization(state, imp, eps)
    dark, norm_sq = staged_access(state, imp, eps)
    assert max_gap(ports[0], dark) <= 1e-12 * math.sqrt(norm_sq)
    assert ports[0].norm_deficit == pytest.approx(dark.norm_deficit, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("eps, error, mass", [
    (1e-6, CutoffError, "mode 3H: top-level mass 9.27e-10"),
    (1e-8, ContractViolationError, "probability mass 4.74e-10"),
])
def test_polarization_access_guards_match_the_staged_ops(eps, error, mass):
    """At a loose tail budget the tags outgrow their cutoff (1e-6) or leave
    ambiguous control light (1e-8): the access refuses as the staged ops do,
    with the same error and message."""
    gen = generate_entangled_cat(1.2, "-", eps).output_state
    with pytest.raises(error) as ours:
        access_polarization(gen, tail_eps=eps)
    with pytest.raises(error) as staged:
        staged_access(gen, tail_eps=eps)
    assert str(ours.value) == str(staged.value)
    assert mass in str(ours.value)


# ---------------------------------------------------------------------------
# how access_polarization meets ambiguous control light, and its memory


@pytest.mark.parametrize("imperfection, refused", [
    (None, True),
    (Imperfection(flip_angle=2.0), True),
    (Imperfection(displacement_offset=0.2), False),
])
def test_on_ambiguous_follows_the_imperfection(monkeypatch, imperfection, refused):
    """At a tail budget of 1e-8 the tags leave 4.7e-10 of ambiguous control
    light.  On target (no displacement error) that is a contract violation;
    off target the gates do not actuate on it.  The four path-3 gates run as
    one fused call with both flips and both phases."""
    seen = []
    gates = elements.controlled_pol_gates

    def recorded(*args, **kwargs):
        seen.append((len(kwargs["flips"]), len(kwargs["phases"])))
        return gates(*args, **kwargs)

    monkeypatch.setattr(elements, "controlled_pol_gates", recorded)
    gen = generate_entangled_cat(1.2, "-", 1e-8).output_state
    if refused:
        with pytest.raises(ContractViolationError):
            access_polarization(gen, imperfection, 1e-8)
        access_polarization(generate_entangled_cat(1.2).output_state, imperfection)
    else:
        access_polarization(gen, imperfection, 1e-8)
    assert seen == [(2, 2)]
    assert (imperfection or Imperfection()).on_ambiguous == ("error" if refused else "pass")


@pytest.mark.parametrize("alpha, offset, bound_mb", [(1.19, 0.6, 12.8), (2.8, 0.0, 50.0)])
def test_polarization_access_peak_stays_under_a_fixed_bound(alpha, offset, bound_mb):
    """The numpy peak of one access.  At alpha 1.19, offset 0.6 (tag cutoff
    34) the bound is 80 bytes per amplitude of the 160,520-amplitude tag
    state that a staged erasure builds; at alpha 2.8 (1.42 M amplitudes
    there) staged ops peak at about 85 MB."""
    state = generate_entangled_cat(alpha).output_state
    imp = Imperfection(displacement_offset=offset)
    access_polarization(state, imp)  # the cached spectra are not the access's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        access_polarization(state, imp)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6


def test_polarization_access_builds_no_state_twice_its_output(monkeypatch):
    """At alpha 1.19, offset 0.6 no state the access builds holds more than
    twice the amplitudes of its output (a staged erasure holds 160,520
    against 13,320)."""
    sizes = []
    fill = fock._fill

    def counted(state, register, keys, *args):
        sizes.append(len(keys))
        return fill(state, register, keys, *args)

    state = generate_entangled_cat(1.19).output_state
    monkeypatch.setattr(fock, "_fill", counted)
    out = access_polarization(state, Imperfection(displacement_offset=0.6)).output_state
    assert max(sizes) <= 2 * len(out)


def test_polarization_access_runs_no_mixer(monkeypatch):
    """The tag mixers meet empty ports, and so does the dark port of the
    45° rotation: the access reads those entries in closed form, so it runs
    no two-mode mixer and builds or reads no mixer spectrum."""
    state = generate_entangled_cat(1.19).output_state
    calls = []
    mixer, spectrum = fock.apply_two_mode_mixer, fock.generator_spectrum

    def counted_mixer(*args, **kwargs):
        calls.append("apply_two_mode_mixer")
        return mixer(*args, **kwargs)

    def counted_spectrum(kind, dim):
        calls.append(kind)
        return spectrum(kind, dim)

    for module in (fock, elements, circuits):
        for name, counted in (("apply_two_mode_mixer", counted_mixer),
                              ("generator_spectrum", counted_spectrum)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    access_polarization(state, Imperfection(displacement_offset=0.6, flip_angle=2.0))
    assert "displace" in calls  # the counters see the calls they count
    assert "apply_two_mode_mixer" not in calls and "mix" not in calls
