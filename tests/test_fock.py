import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import oracles
from dualcat.fock import (
    CutoffError,
    ModeRegister,
    PureState,
    RegisterMismatchError,
    UnknownModeError,
    _gaussian_unitary,
    _mass,
    _mixer_table,
    _runs,
    add,
    apply_annihilation,
    apply_creation,
    apply_two_mode_mixer,
    basis_state,
    coherent_cutoff,
    displacement_matrix,
    embed,
    inner_product,
    mode,
    normalized,
    partial_trace,
    plain_register,
    polarized_register,
    product,
    scale,
    squeeze_matrix,
    squeezed_cutoff,
)
from dualcat.states import (
    CatParams,
    SqueezeParams,
    cat,
    coherent,
    entangled_cat_pair,
    squeezed_vacuum,
)


def random_state(register, rng, n_terms=6, headroom=2):
    """Random sparse state with total occupation low enough that the
    two-mode mixer cannot push weight past any cutoff."""
    cap = min(register.cutoffs) // headroom
    n_terms = min(n_terms, (cap + 1) ** register.n_modes)
    keys = set()
    while len(keys) < n_terms:
        keys.add(tuple(int(rng.integers(0, cap + 1)) for _ in register.cutoffs))
    amps = {k: complex(rng.normal(), rng.normal()) for k in keys}
    return normalized(PureState(register, amps, 0.0))


# ---------------------------------------------------------------------------
# registers and basic state plumbing


@settings(max_examples=80, deadline=None)
@given(cutoffs=st.lists(st.integers(1, 120), min_size=1, max_size=8), data=st.data())
def test_keys_sort_as_the_occupations_and_decode_to_them(cutoffs, data):
    reg = ModeRegister(tuple(mode(p) for p in range(len(cutoffs))), tuple(cutoffs))
    occupations = data.draw(st.lists(st.tuples(*(st.integers(0, c) for c in cutoffs)),
                                     min_size=1, max_size=30, unique=True))
    keys = np.array([reg.encode(occ) for occ in occupations], dtype=np.int64)
    assert (keys >= 0).all()
    assert [occupations[k] for k in np.argsort(keys)] == sorted(occupations)
    assert list(map(tuple, reg.digits(keys).tolist())) == occupations
    for i in range(len(cutoffs)):
        assert reg.digit(keys, i).tolist() == [occ[i] for occ in occupations]


@settings(max_examples=40, deadline=None)
@given(cutoffs=st.lists(st.integers(1, 2**40), min_size=1, max_size=8))
def test_register_needing_more_than_63_key_bits_is_refused(cutoffs):
    modes = tuple(mode(p) for p in range(len(cutoffs)))
    if sum(c.bit_length() for c in cutoffs) > 63:
        with pytest.raises(CutoffError):
            ModeRegister(modes, tuple(cutoffs))
    else:
        reg = ModeRegister(modes, tuple(cutoffs))
        key = np.array([reg.encode(cutoffs)], dtype=np.int64)
        assert key[0] >= 0 and reg.digits(key).tolist() == [cutoffs]


def test_63_key_bits_fit_and_64_do_not():
    full = ModeRegister((mode(1),), (2**62,))
    assert full.digits(np.array([full.encode([2**62])])).tolist() == [[2**62]]
    ModeRegister((mode(1), mode(2)), (2**62 - 1, 1))
    ModeRegister(tuple(mode(p) for p in range(9)), (120,) * 9)
    # the last: 63 bits, but its dims, cutoff + 1, would overflow int64
    for cutoffs in ((2**63,), (2**62, 1), (120,) * 9 + (1,), (2**63 - 1,)):
        with pytest.raises(CutoffError):
            ModeRegister(tuple(mode(p) for p in range(len(cutoffs))), cutoffs)


def test_register_rejects_duplicate_modes():
    with pytest.raises(ValueError):
        ModeRegister((mode(1), mode(1)), (3, 3))


def test_unknown_mode_raises():
    reg = plain_register([1, 2], 3)
    s = basis_state(reg, {})
    with pytest.raises(UnknownModeError):
        apply_annihilation(s, mode(7))


def test_register_mismatch_raises():
    a = basis_state(plain_register([1], 3), {})
    b = basis_state(plain_register([2], 3), {})
    with pytest.raises(RegisterMismatchError):
        inner_product(a, b)


def test_basis_state_respects_cutoff():
    reg = plain_register([1], 3)
    with pytest.raises(CutoffError):
        basis_state(reg, {mode(1): 4})


def test_embed_keeps_every_amplitude_with_the_new_modes_empty():
    small = plain_register([1], 12)
    big = plain_register([1, 2, 3], 12)
    s = coherent(small, mode(1), 0.7, tail_eps=1e-6)
    lifted = embed(s, big)
    assert lifted.register is big
    assert dict(lifted.amps) == {(n, 0, 0): c for (n,), c in s.amps.items()}
    assert lifted.norm_deficit == s.norm_deficit


# ---------------------------------------------------------------------------
# ladder operators


def test_annihilation_lowers_single_photon():
    reg = plain_register([1], 4)
    one = basis_state(reg, {mode(1): 1})
    out = apply_annihilation(one, mode(1))
    assert out.amps == {(0,): pytest.approx(1.0)}


def test_annihilation_of_vacuum_is_zero():
    reg = plain_register([1], 4)
    out = apply_annihilation(basis_state(reg, {}), mode(1))
    assert out.norm() == 0.0
    assert out.norm_deficit == 0.0


def test_annihilation_maps_even_cat_to_odd_cat():
    # lowering an even cat leaves support only on odd levels, proportional
    # to the odd cat; compare against the explicit coefficient recursion
    reg = plain_register([1], 40)
    even = cat(reg, mode(1), CatParams(1.1, "even"))
    lowered = apply_annihilation(even, mode(1))
    odd = cat(reg, mode(1), CatParams(1.1, "odd"))
    overlap = abs(inner_product(normalized(lowered), odd))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_creation_raises_single_photon():
    reg = plain_register([1], 4)
    out = apply_creation(basis_state(reg, {}), mode(1))
    assert out.amps == {(1,): pytest.approx(1.0)}


def test_commutator_on_random_state(rng):
    reg = plain_register([1, 2], 12)
    psi = random_state(reg, rng)
    lowered = apply_annihilation(psi, mode(1))
    raised = apply_creation(psi, mode(1))
    # <a a†> - <a† a> = 1 when no weight sits at the cutoff
    assert raised.norm_sq() - lowered.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_creation_at_cutoff_feeds_deficit():
    reg = plain_register([1], 3)
    top = basis_state(reg, {mode(1): 3})
    out = apply_creation(top, mode(1))
    assert out.norm() == 0.0
    assert out.norm_deficit == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# two-mode mixer


@pytest.mark.parametrize("alpha", [0.8, 1.5])
def test_mixer_splits_odd_cat_into_entangled_pair(alpha):
    cutoff = coherent_cutoff(math.sqrt(2.0) * alpha)
    reg = plain_register([1, 2], cutoff)
    src = cat(reg, mode(1), CatParams(math.sqrt(2.0) * alpha, "odd"))
    out = apply_two_mode_mixer(src, mode(1), mode(2), math.pi / 4.0)
    target = entangled_cat_pair(reg, mode(1), mode(2), alpha, "-")
    fid = abs(inner_product(normalized(out), target)) ** 2
    assert fid >= 1.0 - 1e-9


def test_mixer_theta_zero_is_identity(rng):
    reg = plain_register([1, 2], 8)
    psi = random_state(reg, rng)
    out = apply_two_mode_mixer(psi, mode(1), mode(2), 0.0)
    assert abs(inner_product(out, psi) - 1.0) < 1e-12


def test_two_half_mixers_equal_one_swap(rng):
    reg = plain_register([1, 2], 10)
    psi = random_state(reg, rng)
    twice = apply_two_mode_mixer(
        apply_two_mode_mixer(psi, mode(1), mode(2), math.pi / 4.0),
        mode(1), mode(2), math.pi / 4.0)
    once = apply_two_mode_mixer(psi, mode(1), mode(2), math.pi / 2.0)
    assert abs(abs(inner_product(twice, once)) - 1.0) < 1e-10


def test_mixer_rejects_identical_modes():
    reg = plain_register([1, 2], 4)
    with pytest.raises(ValueError):
        apply_two_mode_mixer(basis_state(reg, {}), mode(1), mode(1), 0.3)


def test_mixer_matches_dense_oracle(rng):
    reg = plain_register([1, 2], 5)
    psi = random_state(reg, rng, n_terms=10)
    theta, phase = 0.613, 1.1
    out = apply_two_mode_mixer(psi, mode(1), mode(2), theta, phase)
    dense = oracles.dense_mixer(reg, 0, 1, theta, phase) @ oracles.dense_vector(psi)
    got = oracles.dense_vector(out)
    # dense operator truncates differently only beyond the cutoffs; against a
    # cutoff-respecting input both agree on the retained block
    assert np.linalg.norm(got - dense) < 1e-9


def test_mixer_with_phase_matches_dense_oracle_on_larger_register(rng):
    reg = plain_register([1, 2], 12)
    psi = random_state(reg, rng, n_terms=30)
    theta, phase = 0.942, -2.3
    for ia, ib in ((0, 1), (1, 0)):
        out = apply_two_mode_mixer(psi, reg.modes[ia], reg.modes[ib], theta, phase)
        dense = oracles.dense_mixer(reg, ia, ib, theta, phase) @ oracles.dense_vector(psi)
        assert np.max(np.abs(oracles.dense_vector(out) - dense)) <= 1e-12


def test_mixer_preserves_norm_on_cat_split():
    reg = plain_register([1, 2], coherent_cutoff(2.0))
    src = cat(reg, mode(1), CatParams(1.4, "odd"))
    out = apply_two_mode_mixer(src, mode(1), mode(2), math.pi / 4.0)
    assert abs(out.norm() - 1.0) < 1e-9
    assert out.norm_deficit < 1e-12


@pytest.mark.parametrize("theta", [math.pi / 4.0, -math.pi / 4.0, 0.3])
@pytest.mark.parametrize("phase", [0.0, math.pi, 1.1])
def test_mixer_table_holds_the_empty_port_entries_of_the_mixer_blocks(theta, phase):
    """Row 0 of the block of total t is K[n, t - n], and the column of an
    empty second port is K[t - n, n]."""
    table = _mixer_table(theta, phase, 40)
    for t in range(40):
        block = _gaussian_unitary("mix", t + 1, theta, phase)
        n = np.arange(t + 1)
        assert np.max(np.abs(block[0] - table[n, t - n])) <= 1e-13
        assert np.max(np.abs(block[:, t] - table[t - n, n])) <= 1e-13


@pytest.mark.parametrize("theta, phase", [(math.pi / 4.0, math.pi), (0.3, 1.1), (-1.2, 0.0)])
def test_mixer_table_is_exact_to_rounding_relative_to_each_entry(theta, phase):
    """Up to t = 200 the entries reach 1e-26 and below, where the spectral
    blocks carry about 1e-14 absolute error; the table keeps each entry to
    1e-12 of itself against sqrt(C(k+j, k)) cos^j (-sin e^{-i phase})^k."""
    table = _mixer_table(theta, phase, 201)
    z = -math.sin(theta) * complex(math.cos(phase), -math.sin(phase))
    for k in range(201):
        for j in range(201 - k):
            exact = math.sqrt(math.comb(k + j, k)) * math.cos(theta) ** j * z ** k
            assert abs(table[k, j] - exact) <= 1e-12 * abs(exact), (k, j)


def test_cutoff_monotonicity_of_split_fidelity():
    alpha = 1.0
    fids = []
    for cutoff in (coherent_cutoff(math.sqrt(2.0), 1e-6),
                   coherent_cutoff(math.sqrt(2.0), 1e-9),
                   coherent_cutoff(math.sqrt(2.0), 1e-12)):
        reg = plain_register([1, 2], cutoff)
        src = cat(reg, mode(1), CatParams(math.sqrt(2.0) * alpha, "odd"),
                  tail_eps=1e-5)
        out = apply_two_mode_mixer(src, mode(1), mode(2), math.pi / 4.0)
        target = entangled_cat_pair(reg, mode(1), mode(2), alpha, "-",
                                    tail_eps=1e-5)
        fids.append(abs(inner_product(normalized(out), target)) ** 2)
    assert fids[0] <= fids[1] <= fids[2]


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(-1.5, 1.5), seed=st.integers(0, 2**31 - 1))
def test_mixer_of_opposite_angles_is_identity(theta, seed):
    reg = plain_register([1, 2], 7)
    psi = random_state(reg, np.random.default_rng(seed), n_terms=5)
    back = apply_two_mode_mixer(
        apply_two_mode_mixer(psi, mode(1), mode(2), theta),
        mode(1), mode(2), -theta)
    assert abs(inner_product(back, psi)) ** 2 >= 1.0 - 1e-10


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(-1.5, 1.5), phase=st.floats(0.0, 6.3),
       seed=st.integers(0, 2**31 - 1))
def test_mixer_preserves_inner_products(theta, phase, seed):
    reg = plain_register([1, 2], 7)
    gen = np.random.default_rng(seed)
    a, b = random_state(reg, gen, 5), random_state(reg, gen, 5)
    before = inner_product(a, b)
    after = inner_product(apply_two_mode_mixer(a, mode(1), mode(2), theta, phase),
                          apply_two_mode_mixer(b, mode(1), mode(2), theta, phase))
    assert abs(before - after) < 1e-9


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(0, 40), max_size=30), presorted=st.booleans())
def test_runs_numbers_distinct_values_as_unique_does(values, presorted):
    # the mixer groups each total's rows with _runs in place of np.unique
    keys = np.array(sorted(values) if presorted else values, dtype=np.int64)
    rest, group = _runs(keys.copy())
    want, inverse = np.unique(keys, return_inverse=True)
    assert np.array_equal(rest, want)
    assert np.array_equal(group, inverse)


# ---------------------------------------------------------------------------
# inner products


def test_even_odd_cats_are_orthogonal():
    reg = plain_register([1], 30)
    even = cat(reg, mode(1), CatParams(1.0, "even"))
    odd = cat(reg, mode(1), CatParams(1.0, "odd"))
    assert abs(inner_product(even, odd)) < 1e-12


def test_opposite_coherent_overlap_matches_series():
    alpha = 0.5
    reg = plain_register([1], 25)
    plus = coherent(reg, mode(1), alpha, tail_eps=1e-8)
    minus = coherent(reg, mode(1), -alpha, tail_eps=1e-8)
    series = oracles.coherent_series(alpha, 25) @ oracles.coherent_series(-alpha, 25)
    assert inner_product(plus, minus) == pytest.approx(math.exp(-2 * alpha**2), abs=1e-12)
    assert inner_product(plus, minus) == pytest.approx(series, abs=1e-12)


def test_factory_states_are_normalized():
    reg = plain_register([1], 35)
    for s in (coherent(reg, mode(1), 1.3), cat(reg, mode(1), CatParams(1.3, "odd"))):
        assert abs(s.norm() - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_of_product_state_is_rank_one():
    reg = plain_register([1, 2], 12)
    s = coherent(reg, mode(1), 0.9, tail_eps=1e-8)
    view = partial_trace(s, [mode(1)])
    eigs = np.sort(np.linalg.eigvalsh(view.matrix))
    assert eigs[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.all(eigs[:-1] < 1e-10)


def test_partial_trace_of_dual_rail_pair_is_balanced():
    from dualcat.circuits import analytic_dual_rail_pair

    reg = polarized_register([1], coherent_cutoff(1.0))
    psi = analytic_dual_rail_pair(reg, 1.0)
    view = partial_trace(psi, [mode(1, "H")])
    eigs = np.sort(np.linalg.eigvalsh(view.matrix))[::-1]
    assert eigs[0] == pytest.approx(0.5, abs=1e-8)
    assert eigs[1] == pytest.approx(0.5, abs=1e-8)
    assert np.trace(view.matrix).real == pytest.approx(1.0, abs=1e-10)


def test_partial_trace_matches_dense_oracle(rng):
    reg = plain_register([1, 2], 4)
    psi = random_state(reg, rng, n_terms=12)
    view = partial_trace(psi, [mode(1)])
    dense = oracles.dense_reduced_density(psi, [0])
    # lift the occurring-pattern matrix into the full basis for comparison
    lifted = np.zeros_like(dense)
    for i, pi in enumerate(view.basis):
        for j, pj in enumerate(view.basis):
            lifted[pi[0], pj[0]] = view.matrix[i, j]
    assert np.allclose(lifted, dense, atol=1e-12)


def test_partial_trace_known_spectrum():
    reg = plain_register([1, 2], 4)
    amps = {(0, 0): 0.6, (1, 1): math.sqrt(1 - 0.36 - 0.25), (2, 2): 0.5}
    psi = PureState(reg, {k: complex(v) for k, v in amps.items()}, 0.0)
    eigs = np.sort(np.linalg.eigvalsh(partial_trace(psi, [mode(2)]).matrix))[::-1]
    assert eigs[0] == pytest.approx(0.39, abs=1e-12)
    assert eigs[1] == pytest.approx(0.36, abs=1e-12)
    assert eigs[2] == pytest.approx(0.25, abs=1e-12)


def test_reduced_expectation_equals_full_expectation(rng):
    reg = plain_register([1, 2, 3], 3)
    psi = random_state(reg, rng, n_terms=14)
    view = partial_trace(psi, [mode(1)])
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    lifted = np.zeros((4, 4), dtype=complex)
    for i, pi in enumerate(view.basis):
        for j, pj in enumerate(view.basis):
            lifted[pi[0], pj[0]] = view.matrix[i, j]
    reduced_val = np.trace(lifted @ h).real
    full_op = oracles.mode_operator(reg, 0, h)
    vec = oracles.dense_vector(psi)
    full_val = (vec.conj() @ full_op @ vec).real
    assert reduced_val == pytest.approx(full_val, abs=1e-10)


def test_partial_trace_rejects_improper_subsets():
    reg = plain_register([1, 2], 3)
    s = basis_state(reg, {})
    with pytest.raises(ValueError):
        partial_trace(s, [])
    with pytest.raises(ValueError):
        partial_trace(s, [mode(1), mode(2)])


# ---------------------------------------------------------------------------
# bookkeeping


def test_norm_plus_deficit_is_conserved_through_truncation():
    # drive a coherent state into a deliberately small register
    reg = plain_register([1, 2], 6)
    src = coherent(reg, mode(1), 1.1, tail_eps=1e-3)
    total0 = src.norm_sq() + src.norm_deficit
    out = apply_two_mode_mixer(src, mode(1), mode(2), math.pi / 4.0)
    for _ in range(3):
        out = apply_creation(out, mode(1))
        total_in = out.norm_sq()
        out = apply_two_mode_mixer(out, mode(1), mode(2), 0.4)
        assert out.norm_sq() + out.norm_deficit >= total_in - 1e-12
    assert total0 == pytest.approx(1.0, abs=1e-3)


def test_scale_and_add_compose():
    reg = plain_register([1], 5)
    a = basis_state(reg, {mode(1): 0})
    b = basis_state(reg, {mode(1): 1})
    s = add(scale(a, 3.0), scale(b, 4.0j))
    assert s.norm() == pytest.approx(5.0)
    n = normalized(s)
    assert n.norm() == pytest.approx(1.0)


def test_product_deficit_is_the_mass_the_product_misses():
    # loose tails leave each factor a deficit; one factor is off unit norm
    reg = ModeRegister.of({mode(1): squeezed_cutoff(0.8, 1e-2),
                           mode(2): coherent_cutoff(0.9, 1e-2)})
    a = squeezed_vacuum(reg, mode(1), SqueezeParams(0.8), tail_eps=1e-2)
    b = scale(coherent(reg, mode(2), 0.9, tail_eps=1e-2), 0.7)
    na, nb, da, db = a.norm_sq(), b.norm_sq(), a.norm_deficit, b.norm_deficit
    assert da > 1e-4 and db > 1e-4
    p = product(a, b)
    assert p.amps == {(n, m): ca * cb for (n, _), ca in a.amps.items()
                      for (_, m), cb in b.amps.items()}
    assert p.norm_deficit == pytest.approx(na * db + da * nb + da * db, rel=1e-15, abs=0.0)
    assert p.norm_sq() + p.norm_deficit == pytest.approx((na + da) * (nb + db), rel=1e-15, abs=0.0)


def test_product_refuses_factors_on_a_common_mode():
    reg = plain_register([1, 2], 3)
    one, two = basis_state(reg, {mode(1): 1}), basis_state(reg, {mode(1): 2})
    assert product(one, basis_state(reg, {})).amps == one.amps
    # the keys of |1> and |2> share no bit, yet both occupy mode 1
    for a, b in ((one, two), (one, one), (product(one, basis_state(reg, {mode(2): 1})), two)):
        with pytest.raises(ValueError, match="disjoint modes"):
            product(a, b)
    with pytest.raises(RegisterMismatchError):
        product(one, basis_state(plain_register([1, 2], 4), {}))


def test_cutoff_rules_are_monotone_in_amplitude():
    assert coherent_cutoff(0.0) == 1
    assert coherent_cutoff(1.0, 1e20) == 1  # a budget past all the mass
    assert coherent_cutoff(1.0) < coherent_cutoff(2.0)
    assert squeezed_cutoff(0.0) == 1
    assert squeezed_cutoff(0.5) < squeezed_cutoff(1.5)
    assert squeezed_cutoff(0.8) % 2 == 0


def _poisson_tail(lam, n, parity=None):
    """Poisson mass above n, of the levels of one parity if given, summed
    term by term."""
    return math.fsum(math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1))
                     for k in range(n + 1, n + 400) if parity is None or k % 2 == parity)


def _squeezed_tail(r, m):
    """Squeezed-vacuum mass above 2m, summed term by term."""
    log_t2, log_c0 = 2.0 * math.log(abs(math.tanh(r))), -math.log(math.cosh(r))
    return math.fsum(
        math.exp(log_c0 + j * log_t2 + math.lgamma(2 * j + 1)
                 - 2.0 * math.lgamma(j + 1) - 2 * j * math.log(2.0))
        for j in range(m + 1, m + 5000))


@pytest.mark.parametrize("alpha, eps", [(1.0, 1e-20), (0.5, 1e-6), (2.0, 1e-12),
                                        (3.3, 1e-12)])
def test_coherent_cutoff_is_the_smallest_with_tail_below_eps(alpha, eps):
    n = coherent_cutoff(alpha, eps)
    assert _poisson_tail(alpha**2, n) <= eps < _poisson_tail(alpha**2, n - 1)


@pytest.mark.parametrize("r, eps", [(2.0, 1e-12), (0.8, 1e-12), (-1.4065, 1e-12),
                                    (0.5, 1e-9)])
def test_squeezed_cutoff_is_the_smallest_with_tail_below_eps(r, eps):
    n = squeezed_cutoff(r, eps)
    assert n % 2 == 0
    assert _squeezed_tail(r, n // 2) <= eps < _squeezed_tail(r, n // 2 - 1)


def test_cutoff_rules_past_their_old_loop_caps():
    assert coherent_cutoff(1.0, 1e-20) == 20
    assert squeezed_cutoff(2.0) == 694
    # no tail can be certified: tanh^2 r rounds to 1, a NaN amplitude, eps < 0,
    # or |alpha|^2 overflows a float
    for uncertifiable in (lambda: squeezed_cutoff(30.0),
                          lambda: coherent_cutoff(float("nan")),
                          lambda: coherent_cutoff(1.0, -1.0),
                          lambda: coherent_cutoff(1e200),
                          lambda: coherent_cutoff(1e200j)):
        with pytest.raises(CutoffError):
            uncertifiable()


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12, 1e-15])
def test_coherent_cutoff_matches_the_scipy_poisson_tail(eps):
    # pdtrc(n, lam) is the Poisson mass above n
    from scipy.special import pdtrc

    ns = np.arange(400)
    for alpha in 0.02 * np.arange(1, 401):
        above = pdtrc(ns, alpha**2) <= eps
        assert above[-1]
        assert coherent_cutoff(alpha, eps) == max(int(np.argmax(above)), 1)


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12, 1e-15])
def test_squeezed_cutoff_matches_the_scipy_beta_tail(eps):
    # betainc(m + 1, 1/2, tanh^2 r) is the squeezed-vacuum mass above 2m
    from scipy.special import betainc

    ms = np.arange(1000)
    for r in 0.01 * np.arange(1, 201):
        above = betainc(ms + 1, 0.5, np.tanh(r) ** 2) <= eps
        assert above[-1]
        assert squeezed_cutoff(r, eps) == max(2 * int(np.argmax(above)), 2)


#: relative rounding of an upward pass of a few hundred products
PASS_ROUNDING = 1e-12


@pytest.mark.parametrize("eps", [1e-12, 1e-13, 1e-14, 1e-15, 1e-16])
@pytest.mark.parametrize("kind, x", [
    ("coherent", 0.5), ("coherent", 1.2), ("coherent", 2.0 + 1.0j),
    ("coherent", 3.2 * math.sqrt(2.0)), ("even", 1.2), ("even", 3.2 * math.sqrt(2.0)),
    ("odd", 1.2), ("odd", 3.2 * math.sqrt(2.0)),
    ("squeezed", 0.3), ("squeezed", 0.8), ("squeezed", 1.2)])
def test_factory_seeds_its_deficit_with_the_tail_past_the_cutoff(kind, x, eps):
    # 1 - (kept mass) reads low and, below about 1e-15, rounds to 0
    if kind == "squeezed":
        cutoff = squeezed_cutoff(x, eps)
        state = squeezed_vacuum(plain_register([1], cutoff), mode(1), SqueezeParams(x), eps)
        levels, exact = range(0, cutoff + 1, 2), _squeezed_tail(x, cutoff // 2)
    elif kind == "coherent":
        cutoff = coherent_cutoff(x, eps)
        state = coherent(plain_register([1], cutoff), mode(1), x, eps)
        levels, exact = range(cutoff + 1), _poisson_tail(abs(x) ** 2, cutoff)
    else:
        cutoff, keep, overlap = coherent_cutoff(x, eps), int(kind == "odd"), math.exp(-2.0 * x * x)
        state = cat(plain_register([1], cutoff), mode(1), CatParams(x, kind), eps)
        weight = 2.0 / (1.0 - overlap if keep else 1.0 + overlap)  # (2N)^2
        levels, exact = range(keep, cutoff + 1, 2), weight * _poisson_tail(x * x, cutoff, keep)
    assert len(state) == len(levels)  # nothing pruned: the deficit is the seed alone
    assert exact * (1.0 - PASS_ROUNDING) <= state.norm_deficit <= 2.0 * exact


@pytest.mark.parametrize("build", [
    lambda reg: coherent(reg, mode(1), 1.2 + 0.5j),
    lambda reg: cat(reg, mode(1), CatParams(1.2, "odd")),
    lambda reg: squeezed_vacuum(reg, mode(1), SqueezeParams(0.8)),
])
def test_factory_sums_its_mass_series_once(monkeypatch, build):
    """The cutoff check and the amplitudes of a factory read one pass of
    its mass series, on a register past the cutoff its rule needs."""
    from dualcat import fock, states

    calls = []
    for name in ("_poisson_masses", "_squeezed_masses"):
        def counted(*args, _series=getattr(fock, name)):
            calls.append(args)
            return _series(*args)

        # count a call by either name the factories can reach the series by
        monkeypatch.setattr(fock, name, counted)
        monkeypatch.setattr(states, name, counted, raising=False)
    build(plain_register([1], 100))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Gaussian-gate unitaries against a dense matrix exponential


@pytest.mark.parametrize("dim", [23, 42, 55])
def test_displacement_matrix_matches_dense_exponential(dim):
    a, ad = oracles.annihilation_matrix(dim), oracles.creation_matrix(dim)
    for beta in (2.3 * np.exp(0.4j), 1.7 * np.exp(2.0j), 0.9 * np.exp(3.5j),
                 2.3 * np.exp(5.2j), -1.1, 0.6j):
        ref = expm(beta * ad - np.conj(beta) * a)
        assert np.max(np.abs(displacement_matrix(beta, dim) - ref)) <= 1e-12


@pytest.mark.parametrize("dim", [23, 42, 55])
def test_squeeze_matrix_matches_dense_exponential(dim):
    a, ad = oracles.annihilation_matrix(dim), oracles.creation_matrix(dim)
    for r in (0.7, -0.7):
        s = squeeze_matrix(r, dim)
        assert np.max(np.abs(s - expm(0.5 * r * (ad @ ad - a @ a)))) <= 1e-12
        assert not s[::2, 1::2].any() and not s[1::2, ::2].any()  # parity is kept exactly


@settings(max_examples=20, deadline=None)
@given(angle=st.floats(0.0, math.pi), seed=st.integers(0, 2**31 - 1))
def test_partial_polarization_flip_is_unitary(angle, seed):
    from dualcat.elements import controlled_pol_gates

    reg = polarized_register([1, 3], 6)
    gen = np.random.default_rng(seed)
    # control path 3 in a definite polarization per component
    keys = set()
    while len(keys) < 6:
        ctrl = (0, int(gen.integers(1, 3))) if gen.random() < 0.5 \
            else (int(gen.integers(0, 3)), 0)
        keys.add((int(gen.integers(0, 3)), int(gen.integers(0, 3))) + ctrl)
    psi = normalized(PureState(
        reg, {k: complex(gen.normal(), gen.normal()) for k in keys}, 0.0))
    out = controlled_pol_gates(psi, 3, flips=[(1, angle)])
    assert abs(out.norm() - 1.0) < 1e-10


def test_mass_holds_1e_15_on_a_long_array_without_a_temporary_its_size():
    # magnitudes over 6 decades, as a state's amplitudes spread: one np.vdot
    # reads about 1e-14 low on these
    gen = np.random.default_rng(11)
    n = 400_000
    coeffs = np.exp(2j * np.pi * gen.random(n) - gen.uniform(0.0, 15.0, n))
    parts = coeffs.view(np.float64)
    exact = math.fsum((parts * parts).tolist())
    tracemalloc.start()
    try:
        got = _mass(coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(got - exact) <= 1e-15 * exact
    assert peak < coeffs.nbytes / 20
    # short arrays take one dot product, and agree with the long path
    assert _mass(coeffs[:100]) == pytest.approx(math.fsum((parts[:200] ** 2).tolist()), rel=1e-15)
