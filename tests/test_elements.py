import gc
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from dualcat.elements import (
    ParityCorrelator,
    controlled_pol_gates,
    cswap_pol,
    displace,
    displaced_parity_expect,
    hwp,
    onoff_detect,
    parity_controlled_flip,
    pbs,
    phase_shift,
    rotate_45,
    squeeze,
)
from dualcat.fock import (
    ContractViolationError,
    CutoffError,
    PureState,
    RegisterMismatchError,
    add,
    apply_annihilation,
    basis_state,
    coherent_cutoff,
    inner_product,
    mode,
    normalized,
    plain_register,
    polarized_register,
    product,
    scale,
)
from dualcat.states import cat, coherent, squeezed_vacuum
from dualcat.circuits import analytic_dual_rail_pair


def fid(a, b):
    return abs(inner_product(normalized(a), normalized(b))) ** 2


# ---------------------------------------------------------------------------
# PBS / HWP


def test_pbs_transmits_horizontal():
    reg = polarized_register([1, 2], 3)
    s = basis_state(reg, {mode(1, "H"): 1})
    out = pbs(s, 1, 2)
    assert out.amps == s.amps


def test_pbs_reflects_vertical():
    reg = polarized_register([1, 2], 3)
    s = basis_state(reg, {mode(1, "V"): 2})
    out = pbs(s, 1, 2)
    assert list(out.amps) == [
        tuple(2 if m == mode(2, "V") else 0 for m in reg.modes)]


def test_pbs_folds_two_path_state_onto_one_path():
    # |even>_{H,1} |odd>_{V,2} - |odd>_{H,1} |even>_{V,2}  ->  dual-rail pair
    alpha = 1.0
    reg = polarized_register([1, 2], coherent_cutoff(alpha))
    eH1 = cat(reg, mode(1, "H"), alpha, "even")
    oV2 = cat(reg, mode(2, "V"), alpha, "odd")
    oH1 = cat(reg, mode(1, "H"), alpha, "odd")
    eV2 = cat(reg, mode(2, "V"), alpha, "even")
    two_path = normalized(add(product(eH1, oV2),
                              scale(product(oH1, eV2), -1.0)))
    folded = pbs(two_path, 1, 2)
    target = analytic_dual_rail_pair(reg, alpha, "-")
    assert fid(folded, target) >= 1.0 - 1e-9


def test_pbs_is_an_involution():
    reg = polarized_register([1, 2], 4)
    s = basis_state(reg, {mode(1, "V"): 1, mode(2, "H"): 2})
    assert pbs(pbs(s, 1, 2), 1, 2).amps == s.amps


def test_pbs_needs_both_polarizations():
    reg = plain_register([1, 2], 3)
    with pytest.raises(RegisterMismatchError):
        pbs(basis_state(reg, {}), 1, 2)


def test_hwp_swaps_rails_and_is_involution():
    reg = polarized_register([1], 4)
    s = basis_state(reg, {mode(1, "H"): 2})
    swapped = hwp(s, 1)
    assert list(swapped.amps) == [
        tuple(2 if m == mode(1, "V") else 0 for m in reg.modes)]
    assert hwp(swapped, 1).amps == s.amps


# ---------------------------------------------------------------------------
# 45-degree rotation


def test_rotate_45_is_a_rotation():
    # the 45-degree map is a proper rotation: twice gives the rail swap up
    # to a sign, four times returns the input up to a global phase
    reg = polarized_register([1], 6)
    s = basis_state(reg, {mode(1, "H"): 1, mode(1, "V"): 2})
    out = s
    for k in range(2):
        out = rotate_45(out, 1)
    assert fid(out, hwp(s, 1)) == pytest.approx(1.0, abs=1e-12)
    for k in range(2):
        out = rotate_45(out, 1)
    assert fid(out, s) == pytest.approx(1.0, abs=1e-12)


def test_rotate_45_matches_caption_map_on_single_photons():
    reg = polarized_register([1], 3)
    h = basis_state(reg, {mode(1, "H"): 1})
    v = basis_state(reg, {mode(1, "V"): 1})
    out_h = rotate_45(h, 1)
    out_v = rotate_45(v, 1)
    target_h = normalized(add(h, v))              # (|H> + |V>)/sqrt2
    target_v = normalized(add(v, scale(h, -1.0)))  # (|V> - |H>)/sqrt2
    assert abs(inner_product(out_h, target_h) - 1.0) < 1e-12
    assert abs(inner_product(out_v, target_v) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# displacement, phase shift, squeezing


def test_displacement_of_vacuum_is_coherent():
    reg = plain_register([1], 25)
    out = displace(basis_state(reg, {}), mode(1), 0.9)
    target = coherent(reg, mode(1), 0.9)
    assert fid(out, target) >= 1.0 - 1e-12


def test_displacement_cancels_opposite_coherent():
    reg = plain_register([1], 25)
    s = coherent(reg, mode(1), -0.8)
    out = displace(s, mode(1), 0.8)
    assert abs(out.amps[(0,)]) == pytest.approx(1.0, abs=1e-10)


def test_displacement_matches_laguerre_oracle(rng):
    reg = plain_register([1], 22)
    beta = complex(0.35, -0.2)
    psi = normalized(PureState(reg, {(0,): 1.0, (2,): 0.5j, (5,): -0.3}, 0.0))
    out = displace(psi, mode(1), beta)
    dense = oracles.laguerre_displacement(beta, 23) @ oracles.dense_vector(psi)
    assert np.linalg.norm(oracles.dense_vector(out) - dense) < 1e-9


def test_displacement_turns_cat_pair_into_noon_superposition():
    from dualcat.states import entangled_cat_pair

    alpha = 1.0
    reg = plain_register([1, 2], coherent_cutoff(2.0 * alpha) + 4)
    pair = entangled_cat_pair(reg, mode(1), mode(2), alpha, "-")
    out = displace(displace(pair, mode(1), alpha), mode(2), alpha)
    big = product(coherent(reg, mode(1), 2.0 * alpha), basis_state(reg, {}))
    small = product(basis_state(reg, {}), coherent(reg, mode(2), 2.0 * alpha))
    target = normalized(add(big, scale(small, -1.0)))
    assert fid(out, target) >= 1.0 - 1e-9


def test_displacement_cache_stays_bounded_over_many_amplitudes():
    from dualcat import fock

    reg = plain_register([1], 31)
    psi = coherent(reg, mode(1), 0.5)
    displace(psi, mode(1), 0.1)
    cached = set(fock._SPECTRA)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for k in range(500):
            displace(psi, mode(1), (0.3 + k / 1000) * np.exp(2j * math.pi * k / 500))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    # one spectrum per (generator, dim), none per amplitude
    assert set(fock._SPECTRA) == cached
    assert ("displace", 32) in cached
    assert all(isinstance(kind, str) and isinstance(dim, int) for kind, dim in cached)
    # 500 retained 32x32 complex matrices would hold 8 MB
    assert grown < 500_000


def test_displacement_catches_cutoff_violation():
    reg = plain_register([1], 6)
    with pytest.raises(CutoffError):
        displace(basis_state(reg, {}), mode(1), 3.0)


def test_phase_shift_pi_flips_coherent_sign():
    reg = plain_register([1], 25)
    s = coherent(reg, mode(1), 0.9)
    out = phase_shift(s, mode(1), math.pi)
    target = coherent(reg, mode(1), -0.9)
    assert abs(inner_product(out, target) - 1.0) < 1e-10


def test_phase_shift_zero_is_identity_and_preserves_parity():
    reg = plain_register([1], 20)
    s = cat(reg, mode(1), 0.9, "odd")
    assert phase_shift(s, mode(1), 0.0).amps == s.amps
    shifted = phase_shift(s, mode(1), math.pi)
    parity = inner_product(shifted, phase_shift(shifted, mode(1), math.pi)).real
    assert parity == pytest.approx(-1.0)


def test_squeeze_inverts_squeezed_vacuum():
    reg = plain_register([1], 80)
    s = squeezed_vacuum(reg, mode(1), 0.7)
    out = squeeze(s, mode(1), -0.7)
    assert abs(out.amps[(0,)]) ** 2 == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# controlled gates


def _control_target_state(control_pol, target_alpha, a_env=1.0):
    """Product state: target path 1 coherent |a>_H, control path 3 |2A>_pol."""
    cut = coherent_cutoff(2.0 * a_env + abs(target_alpha))
    reg = polarized_register([1, 3], cut)
    t = coherent(reg, mode(1, "H"), target_alpha)
    c = coherent(reg, mode(3, control_pol), 2.0 * a_env)
    return product(t, c), reg


def test_controlled_flip_passes_on_h_control():
    s, reg = _control_target_state("H", 1.0)
    out = controlled_pol_gates(s, 3, flips=[(1, math.pi)])
    assert fid(out, s) == pytest.approx(1.0, abs=1e-12)


def test_controlled_gates_without_a_control_photon_return_the_input():
    # no component has a V photon on the control path, so each gate maps an
    # empty selection: the keys, amplitudes and deficit come back as they were
    reg = polarized_register([1, 2, 3], 8)
    s = product(coherent(reg, mode(1, "H"), 1.0, tail_eps=1e-3),
                coherent(reg, mode(3, "H"), 1.5, tail_eps=1e-3))
    assert s.norm_deficit > 0.0
    for out in (controlled_pol_gates(s, 3, flips=[(1, math.pi)], phases=[(2, 0.5)]),
                cswap_pol(s, 3, 1, 2)):
        assert np.array_equal(out.keys, s.keys)
        assert np.array_equal(out.coeffs, s.coeffs)
        assert out.norm_deficit == s.norm_deficit


def test_controlled_flip_flips_on_v_control():
    # the gate actuates only where the control rail is occupied; a coherent
    # control therefore leaves its vacuum slice's target untouched
    s, reg = _control_target_state("V", -1.0)
    out = controlled_pol_gates(s, 3, flips=[(1, math.pi)])
    click, no_click = onoff_detect(coherent(reg, mode(3, "V"), 2.0), mode(3, "V"))
    flipped = product(coherent(reg, mode(1, "V"), -1.0), click)
    passed = product(coherent(reg, mode(1, "H"), -1.0), no_click)
    target = add(flipped, passed)
    assert fid(out, target) == pytest.approx(1.0, abs=1e-12)
    # conditioned on a click the flip is exact
    clicked, _ = onoff_detect(out, mode(3, "V"))
    assert fid(clicked, flipped) == pytest.approx(1.0, abs=1e-12)


def test_controlled_flip_at_zero_angle_is_identity():
    s, _ = _control_target_state("V", 0.7)
    out = controlled_pol_gates(s, 3, flips=[(1, 0.0)])
    assert fid(out, s) == pytest.approx(1.0, abs=1e-12)


def test_controlled_flip_at_a_partial_angle_is_unitary():
    s, _ = _control_target_state("V", 0.7)
    out = controlled_pol_gates(s, 3, flips=[(1, math.pi / 2)])
    assert out.norm() == pytest.approx(s.norm(), abs=1e-10)
    assert fid(out, s) < 1.0 - 1e-3


def test_controlled_flip_rejects_ambiguous_control():
    cut = 12
    reg = polarized_register([1, 3], cut)
    both = product(coherent(reg, mode(3, "H"), 0.8, tail_eps=1e-6),
                   coherent(reg, mode(3, "V"), 0.8, tail_eps=1e-6))
    s = product(both, coherent(reg, mode(1, "H"), 0.5, tail_eps=1e-6))
    with pytest.raises(ContractViolationError):
        controlled_pol_gates(s, 3, flips=[(1, math.pi)])
    # explicit pass-through mode accepts the same state
    out = controlled_pol_gates(s, 3, flips=[(1, math.pi)], on_ambiguous="pass")
    assert out.norm() == pytest.approx(s.norm(), abs=1e-9)


def test_controlled_phase_applies_pi_phase_on_v_control():
    s, reg = _control_target_state("V", -0.9)
    out = controlled_pol_gates(s, 3, phases=[(1, math.pi)])
    click, no_click = onoff_detect(coherent(reg, mode(3, "V"), 2.0), mode(3, "V"))
    # e^{i pi n}|-a> = |a> on the occupied-control slice
    target = add(product(coherent(reg, mode(1, "H"), 0.9), click),
                 product(coherent(reg, mode(1, "H"), -0.9), no_click))
    assert fid(out, target) == pytest.approx(1.0, abs=1e-12)


def test_parity_controlled_flip_on_fock_controls():
    reg = polarized_register([3], 4)
    spec = {m: c for m, c in zip(reg.modes, reg.cutoffs)}
    spec[mode(2)] = 4
    from dualcat.fock import ModeRegister

    reg = ModeRegister.of(spec)
    odd_ctrl = basis_state(reg, {mode(2): 1, mode(3, "H"): 1})
    even_ctrl = basis_state(reg, {mode(2): 2, mode(3, "H"): 1})
    flipped = parity_controlled_flip(odd_ctrl, mode(2), 3)
    same = parity_controlled_flip(even_ctrl, mode(2), 3)
    assert fid(flipped, basis_state(reg, {mode(2): 1, mode(3, "V"): 1})) == pytest.approx(1.0)
    assert fid(same, even_ctrl) == pytest.approx(1.0)


def test_parity_controlled_flip_on_squeezed_controls():
    from dualcat.fock import ModeRegister
    from dualcat.fock import apply_creation

    spec = {mode(2): 80, mode(3, "H"): 2, mode(3, "V"): 2}
    reg = ModeRegister.of(spec)
    sv = squeezed_vacuum(reg, mode(2), 0.7)
    sv = apply_creation(sv, mode(3, "H"))
    never = parity_controlled_flip(sv, mode(2), 3)
    assert fid(never, sv) == pytest.approx(1.0, abs=1e-12)

    lowered = normalized(apply_annihilation(sv, mode(2)))  # odd support now
    always = parity_controlled_flip(lowered, mode(2), 3)
    hv_swapped = hwp(lowered, 3)
    assert fid(always, hv_swapped) == pytest.approx(1.0, abs=1e-12)


def test_cswap_pol_identity_on_h_control():
    reg = polarized_register([1, 2, 3], 8)
    s = product(product(coherent(reg, mode(1, "H"), 0.6, tail_eps=1e-6),
                        coherent(reg, mode(2, "V"), 0.4, tail_eps=1e-6)),
                basis_state(reg, {mode(3, "H"): 1}))
    assert fid(cswap_pol(s, 3, 1, 2), s) == pytest.approx(1.0, abs=1e-12)


def test_cswap_pol_needs_two_distinct_paths():
    reg = polarized_register([1, 2], 2)
    with pytest.raises(ValueError):
        cswap_pol(basis_state(reg, {mode(2, "V"): 1}), 2, 1, 1)


def test_cswap_pol_refuses_a_control_path_among_the_exchanged_paths():
    # the exchange would move the control light and merge two components
    reg = polarized_register([1, 2], 2)
    psi = normalized(PureState(reg, {(0, 1, 0, 0): 1, (0, 0, 1, 0): 1}))
    with pytest.raises(ValueError):
        cswap_pol(psi, 1, 1, 2)
    with pytest.raises(ValueError):
        cswap_pol(psi, 2, 1, 2)


def test_parity_controlled_flip_refuses_a_control_mode_on_the_target_path():
    reg = polarized_register([1], 1)
    psi = normalized(PureState(reg, {(1, 0): 1, (0, 1): 1}))
    for control in (mode(1, "H"), mode(1, "V")):
        with pytest.raises(ValueError):
            parity_controlled_flip(psi, control, 1)


def test_cswap_pol_cross_exchanges_contents_on_v_control():
    reg = polarized_register([1, 2, 3], 8)
    s = product(product(coherent(reg, mode(1, "V"), 0.6, tail_eps=1e-6),
                        coherent(reg, mode(2, "H"), 0.4, tail_eps=1e-6)),
                basis_state(reg, {mode(3, "V"): 1}))
    out = cswap_pol(s, 3, 1, 2)
    # explicit permutation oracle: (1V)<->(2H) and (1H)<->(2V)
    i = {m: reg.index(m) for m in reg.modes}
    expected = {}
    for occ, amp in s.amps.items():
        lst = list(occ)
        lst[i[mode(1, "H")]], lst[i[mode(2, "V")]] = occ[i[mode(2, "V")]], occ[i[mode(1, "H")]]
        lst[i[mode(1, "V")]], lst[i[mode(2, "H")]] = occ[i[mode(2, "H")]], occ[i[mode(1, "V")]]
        expected[tuple(lst)] = amp
    assert out.amps.keys() == expected.keys()
    for k, v in expected.items():
        assert out.amps[k] == pytest.approx(v, abs=1e-14)
    # and it moved the envelopes: path 1 V rail now holds the 0.4 amplitude
    target = product(product(coherent(reg, mode(1, "V"), 0.4, tail_eps=1e-6),
                             coherent(reg, mode(2, "H"), 0.6, tail_eps=1e-6)),
                     basis_state(reg, {mode(3, "V"): 1}))
    assert fid(out, target) == pytest.approx(1.0, abs=1e-10)


def test_cswap_pol_is_involution_on_v_control():
    reg = polarized_register([1, 2, 3], 6)
    s = product(product(coherent(reg, mode(1, "V"), 0.5, tail_eps=1e-5),
                        coherent(reg, mode(2, "H"), 0.3, tail_eps=1e-5)),
                basis_state(reg, {mode(3, "V"): 1}))
    assert fid(cswap_pol(cswap_pol(s, 3, 1, 2), 3, 1, 2), s) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# detectors


def test_onoff_detect_vacuum_never_clicks():
    reg = plain_register([1], 4)
    click, no_click = onoff_detect(basis_state(reg, {}), mode(1))
    assert no_click.norm_sq() == pytest.approx(1.0)
    assert click.norm_sq() == pytest.approx(0.0)


def test_onoff_detect_click_probability_of_coherent_light():
    reg = plain_register([1], 25)
    s = coherent(reg, mode(1), 2.0)  # |2A> with A = 1
    click, no_click = onoff_detect(s, mode(1))
    assert click.norm_sq() == pytest.approx(1.0 - math.exp(-4.0), abs=1e-10)
    assert click.norm_sq() + no_click.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_onoff_detect_single_photon_always_clicks():
    reg = plain_register([1], 4)
    click, no_click = onoff_detect(basis_state(reg, {mode(1): 1}), mode(1))
    assert click.norm_sq() == pytest.approx(1.0)
    assert len(no_click) == 0


def test_onoff_detect_on_bell_input_clicks_half():
    # the bomb arm of the interaction-free test: a photon in 1V is absorbed
    reg = polarized_register([1, 2], 2)
    hv = basis_state(reg, {mode(1, "H"): 1, mode(2, "V"): 1})
    vh = basis_state(reg, {mode(1, "V"): 1, mode(2, "H"): 1})
    psi = normalized(add(hv, vh))
    exploded, survived = onoff_detect(psi, mode(1, "V"))
    assert survived.norm_sq() == pytest.approx(0.5, abs=1e-12)
    assert exploded.norm_sq() == pytest.approx(0.5, abs=1e-12)
    assert fid(survived, hv) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# displaced parity


def test_displaced_parity_of_vacuum_is_plus_one():
    reg = plain_register([1, 2], 8)
    assert displaced_parity_expect(basis_state(reg, {}), 0.0, 0.0) == pytest.approx(1.0)


def test_displaced_parity_of_single_photon_is_minus_one():
    reg = plain_register([1, 2], 8)
    s = basis_state(reg, {mode(1): 1})
    assert displaced_parity_expect(s, 0.0, 0.0) == pytest.approx(-1.0)


def test_displaced_parity_matches_dense_oracle_at_zero():
    from dualcat.states import entangled_cat_pair

    reg = plain_register([1, 2], coherent_cutoff(1.5))
    pair = entangled_cat_pair(reg, mode(1), mode(2), 1.5, "-")
    got = displaced_parity_expect(pair, 0.0, 0.0)
    want = oracles.dense_displaced_parity(pair, 0.0, 0.0)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(-1.0, abs=1e-10)


def test_displaced_parity_matches_laguerre_oracle(rng):
    from dualcat.states import entangled_cat_pair

    reg = plain_register([1, 2], coherent_cutoff(1.0 + 1.0))
    pair = entangled_cat_pair(reg, mode(1), mode(2), 1.0, "-")
    for _ in range(5):
        b1 = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        b2 = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
        got = displaced_parity_expect(pair, b1, b2)
        want = oracles.dense_displaced_parity(pair, b1, b2)
        assert got == pytest.approx(want, abs=1e-10)
        assert -1.0 <= got <= 1.0


def test_displaced_parity_shift_consistency():
    # displacing the state and shifting both settings by the same amount
    # leaves the correlator unchanged
    from dualcat.states import entangled_cat_pair

    shift = 0.35
    reg = plain_register([1, 2], coherent_cutoff(1.0 + 2.0 * shift) + 8)
    pair = entangled_cat_pair(reg, mode(1), mode(2), 1.0, "-")
    moved = displace(displace(pair, mode(1), shift), mode(2), shift)
    for b1, b2 in ((0.0, 0.0), (0.2j, -0.1j), (0.1 + 0.2j, 0.3)):
        base = displaced_parity_expect(pair, b1, b2)
        shifted = displaced_parity_expect(moved, b1 + shift, b2 + shift)
        assert shifted == pytest.approx(base, abs=1e-9)


@pytest.mark.parametrize("alpha", [0.5, 2.0])
@pytest.mark.parametrize("unit", [1j, 1.0])
def test_line_correlator_raises_exactly_where_displaced_parity_does(alpha, unit):
    # the criterion-6 pair; settings out to |beta| = 5 push well past the cutoff
    from dualcat.states import entangled_cat_pair

    reg = plain_register([1, 2], coherent_cutoff(alpha + 1.3))
    pair = entangled_cat_pair(reg, mode(1), mode(2), alpha, "-")
    corr = ParityCorrelator(pair).line(unit)
    ts = np.linspace(-5.0, 5.0, 25)
    refused = np.zeros((len(ts), len(ts)), dtype=bool)
    for i, t1 in enumerate(ts):
        for j, t2 in enumerate(ts):
            try:
                want = displaced_parity_expect(pair, t1 * unit, t2 * unit)
            except CutoffError:
                refused[i, j] = True
                with pytest.raises(CutoffError):
                    corr([t1], [t2])
                continue
            assert corr([t1], [t2])[0, 0] == pytest.approx(want, abs=1e-12)
    assert 0 < refused.sum() < refused.size
    # a grid is refused when any of its pairs is
    with pytest.raises(CutoffError):
        corr(ts, ts)
    safe = ~refused.any(axis=1)
    assert corr(ts[safe], ts[safe]).shape == (safe.sum(), safe.sum())


def test_displaced_parity_needs_two_modes():
    reg = plain_register([1, 2, 3], 4)
    with pytest.raises(ValueError):
        displaced_parity_expect(basis_state(reg, {}), 0.0, 0.0)


# ---------------------------------------------------------------------------
# composition against the dense oracle


def test_unitary_elements_preserve_inner_products(rng):
    reg = polarized_register([1, 2], 10)

    def rand_state():
        keys = set()
        while len(keys) < 8:
            keys.add(tuple(int(rng.integers(0, 3)) for _ in reg.modes))
        return normalized(PureState(
            reg, {k: complex(rng.normal(), rng.normal()) for k in keys}, 0.0))

    ops = [
        lambda s: pbs(s, 1, 2),
        lambda s: hwp(s, 1),
        lambda s: phase_shift(s, mode(2, "V"), 0.7),
        lambda s: rotate_45(s, 2),
        lambda s: displace(s, mode(1, "H"), 0.15),
    ]
    a, b = rand_state(), rand_state()
    before = inner_product(a, b)
    for op in ops:
        a, b = op(a), op(b)
    assert abs(inner_product(a, b) - before) < 1e-9


def test_element_pipeline_matches_dense_oracle():
    # three modes, cutoff 5: hwp / pbs relabelings plus a displacement,
    # checked against explicit kron matrices
    from dualcat.fock import ModeRegister

    d = 10
    spec = {mode(1, "H"): d - 1, mode(1, "V"): d - 1, mode(2): d - 1}
    reg = ModeRegister.of(spec)
    psi = normalized(PureState(reg, {
        (1, 0, 0): 0.6, (0, 2, 1): 0.5j, (2, 1, 0): -0.4, (0, 0, 3): 0.2}, 0.0))

    out = hwp(psi, 1)
    out = phase_shift(out, mode(2), 1.3)
    out = displace(out, mode(1, "H"), 0.2)

    swap = np.zeros((d * d, d * d))
    for nh in range(d):
        for nv in range(d):
            swap[nv * d + nh, nh * d + nv] = 1.0
    u_hwp = np.kron(swap, np.eye(d))
    u_phase = oracles.mode_operator(reg, 2, np.diag(np.exp(1.3j * np.arange(d))))
    u_disp = oracles.mode_operator(reg, 0, oracles.laguerre_displacement(0.2, d))
    vec = u_disp @ u_phase @ u_hwp @ oracles.dense_vector(psi)
    assert np.linalg.norm(oracles.dense_vector(out) - vec) < 1e-8


def test_rotate_45_in_dense_pipeline():
    from dualcat.fock import ModeRegister

    d = 8
    reg = ModeRegister.of({mode(1, "H"): d - 1, mode(1, "V"): d - 1})
    psi = normalized(PureState(reg, {
        (1, 0): 0.7, (0, 2): -0.4j, (2, 1): 0.5, (3, 0): 0.2j}, 0.0))
    out = rotate_45(psi, 1)
    # dense two-mode mixer with the rotate_45 angle convention
    dense = oracles.dense_mixer(reg, 0, 1, -math.pi / 4.0, 0.0)
    want = dense @ oracles.dense_vector(psi)
    assert np.linalg.norm(oracles.dense_vector(out) - want) < 1e-10


def test_measurement_branches_partition_the_input():
    # each channel splits the input's components into two states: disjoint
    # keys whose union is the input's, norms² summing to the input's, and
    # the input's deficit on both
    reg = polarized_register([1], 6)
    psi = add(coherent(reg, mode(1, "H"), 1.0, tail_eps=1e-3),
              coherent(reg, mode(1, "V"), -0.5, tail_eps=1e-3))
    assert psi.norm_deficit > 0.0
    channels = (onoff_detect(psi, mode(1, "V")), onoff_detect(psi, mode(1, "H")))
    for first, second in channels:
        assert len(first) and len(second)
        assert not set(first.keys.tolist()) & set(second.keys.tolist())
        assert sorted(first.keys.tolist() + second.keys.tolist()) == psi.keys.tolist()
        assert first.norm_sq() + second.norm_sq() == pytest.approx(psi.norm_sq(), rel=1e-14)
        assert first.norm_deficit == second.norm_deficit == psi.norm_deficit
