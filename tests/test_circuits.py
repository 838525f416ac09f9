import math
import tracemalloc

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
from dualcat import elements
from dualcat.elements import Imperfection
from dualcat.fock import (
    DegenerateInputError,
    add,
    basis_state,
    mode,
    normalized,
    plain_register,
    polarized_register,
    product,
)
from dualcat.states import SqueezeParams, coherent

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
    assert rep.postselect_probability == pytest.approx(rep.branch_product(), abs=1e-12)


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
    from dualcat.fock import scale

    target = normalized(add(product(e1, o2), scale(product(o1, e2), -1.0)))
    assert fidelity(out, target) >= 1.0 - 1e-9


def test_parity_access_preserves_entropy():
    rep = generate_entangled_cat(1.2)
    before = entanglement(rep.output_state, [mode(1, "H")]).entropy_bits
    out = access_parity(rep.output_state).output_state
    after = entanglement(out, [mode(1, "H"), mode(1, "V")]).entropy_bits
    assert after == pytest.approx(before, abs=1e-9)


def test_parity_access_maps_products_to_products():
    reg = polarized_register([1], 16)
    psi = product(coherent(reg, mode(1, "H"), 0.8),
                  coherent(reg, mode(1, "V"), 0.8))
    out = access_parity(psi).output_state
    s = entanglement(out, [mode(1, "H"), mode(1, "V")])
    assert s.entropy_bits == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# polarization access


def test_polarization_access_conditions_on_the_coherent_bell_state():
    alpha = 1.4
    rep = generate_entangled_cat(alpha)
    acc = access_polarization(rep.output_state)
    out = acc.output_state
    target = analytic_coherent_bell(
        polarized_register([1, 2], max(out.register.cutoffs)),
        alpha / math.sqrt(2.0), "-")
    assert subsystem_fidelity(out, target, PATH12_RAILS) >= 1.0 - 1e-6
    q = polarization_qubit_state(out, 1, 2)
    _, logneg = negativity_two_qubit(q.rho)
    assert logneg == pytest.approx(1.0, abs=1e-6)


def test_polarization_access_bookkeeping_is_consistent():
    rep = generate_entangled_cat(1.2)
    acc = access_polarization(rep.output_state)
    assert acc.postselect_probability == pytest.approx(acc.branch_product(), abs=1e-10)
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
    acc = sv_access_polarization(rep)
    out = acc.output_state
    target = analytic_subtracted_bell(
        polarized_register([1, 2], max(out.register.cutoffs)), 0.7)
    assert subsystem_fidelity(out, target, PATH12_RAILS) >= 1.0 - 1e-6
    assert acc.postselect_probability == pytest.approx(0.5, abs=1e-9)
    assert acc.postselect_probability == pytest.approx(acc.branch_product(), abs=1e-10)


def test_sv_access_without_the_exchange_stage_mismatches_envelopes():
    rep = sv_generate(0.7, 0.5)
    acc = sv_access_polarization(rep, skip_cswap=True)
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
        1.0 / math.sqrt(2.0), "-")
    assert subsystem_fidelity(acc.output_state, target, PATH12_RAILS) >= 1.0 - 1e-6


# ---------------------------------------------------------------------------
# how access_polarization meets ambiguous control light, and its memory


@pytest.mark.parametrize("imperfection, expected", [
    (None, "error"),
    (Imperfection(flip_angle=2.0, cphase_angle=1.0), "error"),
    (Imperfection(displacement_offset=0.2), "pass"),
    (Imperfection(displacement_actual=1.2 / math.sqrt(2.0)), "pass"),
])
def test_on_ambiguous_follows_the_imperfection(monkeypatch, imperfection, expected):
    """The four path-3 gates run as one fused call; it gets the mode the
    imperfection asks for, and both flips and both phases."""
    seen = []
    gates = elements.controlled_pol_gates

    def recorded(*args, on_ambiguous, **kwargs):
        seen.append((on_ambiguous, len(kwargs["flips"]), len(kwargs["phases"])))
        return gates(*args, on_ambiguous=on_ambiguous, **kwargs)

    monkeypatch.setattr(elements, "controlled_pol_gates", recorded)
    access_polarization(generate_entangled_cat(1.2).output_state, imperfection)
    assert seen == [(expected, 2, 2)]
    assert (imperfection or Imperfection()).on_ambiguous == expected


def test_polarization_access_peak_is_at_most_80_bytes_per_amplitude(monkeypatch):
    """The numpy peak of one access at alpha 1.19, offset 0.6 (tag cutoff 34,
    160,520 amplitudes before erasure) against its largest register."""
    state = generate_entangled_cat(1.19).output_state
    sizes = []
    for name in ("pbs", "displace", "cnot_pol", "cphase_pol"):
        op = getattr(elements, name)

        def counted(psi, *args, _op=op, **kwargs):
            sizes.append(len(psi))
            return _op(psi, *args, **kwargs)

        monkeypatch.setattr(elements, name, counted)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        access_polarization(state, Imperfection(displacement_offset=0.6))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert max(sizes) > 150_000
    assert peak <= 80 * max(sizes)
