import math

import pytest

import oracles
from dualcat.fock import (
    CutoffError,
    DegenerateInputError,
    add,
    coherent_cutoff,
    inner_product,
    mode,
    occupation_moments,
    plain_register,
    product,
    scale,
)
from dualcat.elements import displaced_parity_expect, phase_shift
from dualcat.states import (
    cat,
    coherent,
    entangled_cat_pair,
    squeezed_vacuum,
    subtracted_sv,
)


def parity(s):
    """<(-1)^n> of a one-mode state, as <s| e^{i pi n} |s>."""
    return inner_product(s, phase_shift(s, mode(1), math.pi)).real


@pytest.fixture
def reg():
    return plain_register([1], 130)


# ---------------------------------------------------------------------------
# coherent states


def test_coherent_at_zero_is_vacuum(reg):
    s = coherent(reg, mode(1), 0.0)
    assert s.amps == {(0,) * reg.n_modes: pytest.approx(1.0)}


def test_coherent_mean_photon_number(reg):
    s = coherent(reg, mode(1), 1.3)
    assert occupation_moments(s, mode(1))[0] == pytest.approx(1.3**2, abs=1e-9)


def test_coherent_is_normalized(reg):
    assert coherent(reg, mode(1), 1.3).norm() == pytest.approx(1.0, abs=1e-12)


def test_coherent_rejects_small_cutoff():
    small = plain_register([1], 4)
    with pytest.raises(CutoffError):
        coherent(small, mode(1), 2.0)


def test_coherent_matches_series_oracle(reg):
    s = coherent(reg, mode(1), 0.9)
    series = oracles.coherent_series(0.9, 130)
    for n in range(10):
        assert s.amps[(n,)] == pytest.approx(series[n], abs=1e-14)


# ---------------------------------------------------------------------------
# cat states


def test_cat_normalization_constants(reg):
    # Ne = [2(1+e^{-2a^2})]^{-1/2}, No with a minus sign; check through the
    # amplitude of the n=0 / n=1 components against the coherent series
    alpha = 1.0
    even = cat(reg, mode(1), alpha, "even")
    odd = cat(reg, mode(1), alpha, "odd")
    series = oracles.coherent_series(alpha, 130)
    ne = 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-2.0 * alpha**2)))
    no = 1.0 / math.sqrt(2.0 * (1.0 - math.exp(-2.0 * alpha**2)))
    assert even.amps[(0,)] == pytest.approx(2.0 * ne * series[0], abs=1e-14)
    assert odd.amps[(1,)] == pytest.approx(2.0 * no * series[1], abs=1e-14)
    assert even.norm() == pytest.approx(1.0, abs=1e-12)
    assert odd.norm() == pytest.approx(1.0, abs=1e-12)


def test_even_cat_has_no_odd_support(reg):
    even = cat(reg, mode(1), 1.2, "even")
    assert all(occ[0] % 2 == 0 for occ in even.amps)


def test_cat_parity_expectations(reg):
    assert parity(cat(reg, mode(1), 1.2, "even")) == pytest.approx(1.0)
    assert parity(cat(reg, mode(1), 1.2, "odd")) == pytest.approx(-1.0)


def test_even_and_odd_cats_are_orthogonal(reg):
    even = cat(reg, mode(1), 0.9, "even")
    odd = cat(reg, mode(1), 0.9, "odd")
    assert abs(inner_product(even, odd)) < 1e-13


def test_odd_cat_at_zero_is_degenerate(reg):
    with pytest.raises(DegenerateInputError):
        cat(reg, mode(1), 0.0, "odd")


def test_cat_rejects_an_unknown_parity(reg):
    with pytest.raises(ValueError, match="parity must be 'even' or 'odd'"):
        cat(reg, mode(1), 1.0, "odd ")


@pytest.mark.parametrize("alpha", [1e-4, 1e-6, 1e-7, 1e-9, 1e-100, 1e-154])
def test_small_odd_cat_is_normalized(reg, alpha):
    # 1 - <a|-a> = 1 - exp(-2|a|^2) cancels here, and rounds to 0 below
    # |a| ~ 7.5e-9; expm1 does not
    assert abs(cat(reg, mode(1), alpha, "odd").norm_sq() - 1.0) <= 1e-15


@pytest.mark.parametrize("alpha", [0.0, 7e-155, 1e-162, 1e-300])
def test_odd_cat_below_float_resolution_is_degenerate(reg, alpha):
    # -expm1(-2|a|^2) is 0 or so small that (2N)^2 = 2/(1 - <a|-a>) overflows
    with pytest.raises(DegenerateInputError, match="too small to normalize"):
        cat(reg, mode(1), alpha, "odd")


def test_cats_span_the_coherent_pair(reg):
    # |±a> must decompose exactly in the {even, odd} basis
    alpha = 1.1
    even = cat(reg, mode(1), alpha, "even")
    odd = cat(reg, mode(1), alpha, "odd")
    for sgn in (1.0, -1.0):
        c = coherent(reg, mode(1), sgn * alpha)
        w_even = inner_product(even, c)
        w_odd = inner_product(odd, c)
        assert abs(w_even) ** 2 + abs(w_odd) ** 2 == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# squeezed vacuum


def test_squeezed_vacuum_at_zero_is_vacuum(reg):
    s = squeezed_vacuum(reg, mode(1), 0.0)
    assert s.amps == {(0,) * reg.n_modes: pytest.approx(1.0)}


def test_squeezed_vacuum_has_even_support_only(reg):
    s = squeezed_vacuum(reg, mode(1), 0.9)
    assert all(occ[0] % 2 == 0 for occ in s.amps)


def test_squeezed_vacuum_mean_photons(reg):
    s = squeezed_vacuum(reg, mode(1), 0.8)
    assert occupation_moments(s, mode(1))[0] == pytest.approx(math.sinh(0.8) ** 2, abs=1e-9)


def test_squeezed_vacuum_is_normalized(reg):
    s = squeezed_vacuum(reg, mode(1), 1.1)
    assert s.norm() == pytest.approx(1.0, abs=1e-10)


def test_squeeze_params_reject_negative_r(reg):
    with pytest.raises(ValueError, match="generation requires r >= 0"):
        squeezed_vacuum(reg, mode(1), -0.3)


# ---------------------------------------------------------------------------
# photon-subtracted squeezed vacuum


def test_subtracted_sv_has_odd_support(reg):
    s = subtracted_sv(reg, mode(1), 0.8)
    assert all(occ[0] % 2 == 1 for occ in s.amps)
    assert parity(s) == pytest.approx(-1.0)


def test_subtracted_sv_norm_comes_from_sinh(reg):
    # || a S(r)|0> ||^2 = <n> = sinh^2 r, so the 1/sinh(r) prefactor normalizes
    r = 0.8
    from dualcat.fock import apply_annihilation

    sv = squeezed_vacuum(reg, mode(1), r)
    lowered = apply_annihilation(sv, mode(1))
    m1, _ = occupation_moments(sv, mode(1))
    assert lowered.norm() == pytest.approx(math.sinh(r), abs=1e-9)
    assert lowered.norm_sq() == pytest.approx(m1, abs=1e-12)
    assert subtracted_sv(reg, mode(1), r).norm() == pytest.approx(1.0, abs=1e-9)


def test_subtracted_sv_small_r_limit_is_single_photon(reg):
    s = subtracted_sv(reg, mode(1), 1e-3)
    assert abs(s.amps[(1,)]) ** 2 == pytest.approx(1.0, abs=1e-5)


def test_subtracted_sv_rejects_r_zero(reg):
    with pytest.raises(DegenerateInputError):
        subtracted_sv(reg, mode(1), 0.0)


# ---------------------------------------------------------------------------
# entangled cat pair


def test_entangled_cat_pair_is_normalized():
    reg2 = plain_register([1, 2], 30)
    pair = entangled_cat_pair(reg2, mode(1), mode(2), 1.0, "-")
    assert pair.norm() == pytest.approx(1.0, abs=1e-12)


def test_entangled_cat_pair_parity_structure():
    # even x odd and odd x even components only: joint parity is always -1
    reg2 = plain_register([1, 2], 30)
    pair = entangled_cat_pair(reg2, mode(1), mode(2), 1.0, "-")
    assert displaced_parity_expect(pair, 0.0, 0.0) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_entangled_cat_pair_has_the_form_of_its_sign(alpha):
    # with |a> = |E| |e> + |O| |o>: |a,-a> - |-a,a> is 2|E||O| (|o,e> - |e,o>),
    # and |a,-a> + |-a,a> is 2(|E|^2 |e,e> - |O|^2 |o,o>)
    reg2 = plain_register([1, 2], coherent_cutoff(alpha))
    e1, e2, o1, o2 = (cat(reg2, m, alpha, parity) for parity in ("even", "odd")
                      for m in (mode(1), mode(2)))
    even_w, odd_w = (1.0 + math.exp(-2.0 * alpha**2)) / 2.0, (1.0 - math.exp(-2.0 * alpha**2)) / 2.0
    targets = {"-": add(product(o1, e2), scale(product(e1, o2), -1.0)),
               "+": add(scale(product(e1, e2), even_w), scale(product(o1, o2), -odd_w))}
    for sign, target in targets.items():
        pair = entangled_cat_pair(reg2, mode(1), mode(2), alpha, sign)
        overlap = abs(inner_product(target, pair)) ** 2 / target.norm_sq()
        assert overlap == pytest.approx(1.0, abs=1e-12), sign


#: (call, exception, message) of each input refusal of the state factories
STATE_REFUSALS = {
    "pair-at-alpha-0": (lambda: entangled_cat_pair(plain_register([1, 2], 4), mode(1), mode(2),
                                                   0.0),
                        DegenerateInputError, "entangled cat pair is undefined at alpha = 0"),
    "pair-sign": (lambda: entangled_cat_pair(plain_register([1, 2], 4), mode(1), mode(2),
                                             1.0, "minus"),
                  ValueError, "sign must be '\\+' or '-', got 'minus'"),
}


@pytest.mark.parametrize("call, error, message", STATE_REFUSALS.values(), ids=STATE_REFUSALS)
def test_state_factories_refuse_bad_input_with_their_own_message(call, error, message):
    with pytest.raises(error, match=message) as caught:
        call()
    assert type(caught.value) is error
