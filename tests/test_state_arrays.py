"""Property tests of the array-backed sparse state against the dense oracles.

Registers of 2-3 modes with cutoffs up to 5 (polarized registers of 1-3
paths with cutoffs up to 3 for the gates) carry random sparse states; each
engine operation must agree with the dense Kronecker-product reference of
``tests/oracles.py`` to 1e-12.  The expected gate permutations are written
out here index by index.
"""

import cmath
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dualcat import fock
from dualcat.elements import (
    ParityCorrelator,
    controlled_pol_gates,
    cswap_pol,
    displaced_parity_expect,
    hwp,
    onoff_detect,
    parity_controlled_flip,
    pbs,
    rotate_45,
)
from dualcat.fock import (
    ContractViolationError,
    CutoffError,
    FockError,
    ModeRegister,
    PureState,
    _wrap,
    add,
    apply_creation,
    apply_single_mode_matrix,
    apply_two_mode_mixer,
    embed,
    mode,
    group_by,
    normalized,
    partial_trace,
    polarized_register,
)
from staged import mixer_dark_branch

TOL = 1e-12
SETTINGS = settings(max_examples=60, deadline=None)


def random_state(register, seed, n_terms, top=None):
    """Normalized-free random state on ``n_terms`` distinct patterns whose
    occupations stay at or below ``top`` (the cutoffs by default)."""
    gen = np.random.default_rng(seed)
    caps = [min(c, top) if top is not None else c for c in register.cutoffs]
    patterns = list(product(*(range(c + 1) for c in caps)))
    picks = gen.choice(len(patterns), size=min(n_terms, len(patterns)), replace=False)
    return PureState(register, {patterns[k]: complex(gen.normal(), gen.normal())
                                for k in picks}, 0.0)


@st.composite
def plain_states(draw, modes=(2, 3), max_cutoff=5, headroom=1):
    n = draw(st.integers(*modes))
    cutoffs = tuple(draw(st.integers(1, max_cutoff)) for _ in range(n))
    reg = ModeRegister(tuple(mode(p) for p in range(1, n + 1)), cutoffs)
    top = min(cutoffs) // headroom
    return random_state(reg, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 12)), top)


@st.composite
def polarized_states(draw, paths=(1, 3)):
    n = draw(st.integers(*paths))
    reg = polarized_register(range(1, n + 1), draw(st.integers(1, 3)))
    return random_state(reg, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 12)))


def dense(state):
    return oracles.dense_vector(state).reshape(oracles.dims(state.register))


def permuted(state, move):
    """Dense array of ``state`` with the amplitude at each pattern moved to
    ``move(pattern)``."""
    src = dense(state)
    out = np.zeros_like(src)
    for occ in product(*(range(d) for d in src.shape)):
        out[move(occ)] += src[occ]
    return out


def swap(occ, *pairs):
    lst = list(occ)
    for i, j in pairs:
        lst[i], lst[j] = occ[j], occ[i]
    return tuple(lst)


# ---------------------------------------------------------------------------
# mixer, single-mode matrix, superposition


@SETTINGS
@given(psi=plain_states(headroom=2), theta=st.floats(-3.2, 3.2), phase=st.floats(-3.2, 3.2),
       pair=st.permutations(range(3)))
def test_mixer_matches_dense_exponential_in_both_mode_orders(psi, theta, phase, pair):
    # occupations at most half the smallest cutoff keep every total-photon
    # block inside the truncation, where the dense exponential is exact
    ia, ib = [i for i in pair if i < psi.register.n_modes][:2]
    reg = psi.register
    out = apply_two_mode_mixer(psi, reg.modes[ia], reg.modes[ib], theta, phase)
    ref = oracles.dense_mixer(reg, ia, ib, theta, phase) @ oracles.dense_vector(psi)
    assert np.max(np.abs(oracles.dense_vector(out) - ref)) <= TOL


@st.composite
def past_cutoff_states(draw):
    """A state on a spectator mode and two mixed modes of unequal cutoffs,
    with light at the full pattern of both cutoffs, whose total lies past
    the smaller one, and an input deficit."""
    small = draw(st.integers(1, 2))
    mixed = draw(st.permutations((small, draw(st.integers(small + 1, 4)))))
    reg = ModeRegister((mode(2), mode(1, "H"), mode(1, "V")), (draw(st.integers(1, 2)), *mixed))
    psi = random_state(reg, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 20)))
    amps = dict(psi.amps)
    amps.setdefault((0, *mixed), 0.5 + 0.25j)
    return PureState(reg, amps, draw(st.sampled_from([0.125, 0.25])))


@SETTINGS
@given(psi=past_cutoff_states(), theta=st.floats(0.1, 3.0), phase=st.floats(-3.2, 3.2))
def test_mixer_drops_exactly_the_dense_mass_past_the_cutoffs(psi, theta, phase):
    """On a register wide enough for every total, the dense mixer holds the
    kept amplitudes within the cutoffs; the deficit is the input's plus the
    dense mass past either cutoff.  Theta stays off 0 and pi, where the
    mixer keeps every photon number and drops nothing."""
    h, v = mode(1, "H"), mode(1, "V")
    out = apply_two_mode_mixer(psi, h, v, theta, phase)
    cuts = psi.register.cutoffs
    wide = ModeRegister(psi.register.modes, (cuts[0],) + (cuts[1] + cuts[2],) * 2)
    exact = (oracles.dense_mixer(wide, 1, 2, theta, phase)
             @ oracles.dense_vector(embed(psi, wide))).reshape(oracles.dims(wide))
    kept = exact[:, :cuts[1] + 1, :cuts[2] + 1]
    got = oracles.dense_vector(out).reshape(oracles.dims(psi.register))
    assert np.max(np.abs(got - kept)) <= TOL
    occurs = {tuple(occ) for occ in np.argwhere(np.abs(kept) > TOL).tolist()}
    assert occurs <= set(out.amps)
    dropped = np.sum(np.abs(exact) ** 2) - np.sum(np.abs(kept) ** 2)
    assert dropped > 0.0
    assert abs(out.norm_deficit - (psi.norm_deficit + dropped)) <= TOL


@SETTINGS
@given(psi=plain_states(), which=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_single_mode_matrix_matches_kronecker_lift(psi, which, seed):
    reg = psi.register
    i = which % reg.n_modes
    gen = np.random.default_rng(seed)
    dim = reg.cutoffs[i] + 1
    matrix = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    out = apply_single_mode_matrix(psi, reg.modes[i], matrix)
    ref = oracles.mode_operator(reg, i, matrix) @ oracles.dense_vector(psi)
    assert np.max(np.abs(oracles.dense_vector(out) - ref)) <= TOL


@SETTINGS
@given(a=plain_states(), seed=st.integers(0, 2**32 - 1), c=st.complex_numbers(max_magnitude=3),
       near=st.sampled_from([None, 0.0, 1e-17]))
def test_add_matches_dense_sum(a, seed, c, near):
    """The sum matches the dense one, its keys strictly increase, and its
    deficit is the inputs' plus the mass pruned from the sum; with ``near``
    given, b holds -a on every other key of a, exactly (0.0) or to within
    ``near`` (the real part cancels and ``near`` is left in the imaginary)."""
    b = random_state(a.register, seed, 8)
    amps = {k: c * v for k, v in b.amps.items()}
    if near is not None:
        cancelled = set(list(a.amps)[::2])
        a = PureState(a.register, {k: v.real if k in cancelled else v
                                   for k, v in a.amps.items()}, 0.0)
        amps.update({k: complex(-a.amps[k].real, near) for k in cancelled})
    b = PureState(b.register, amps, 1e-33)
    out = add(a, b)
    ref = oracles.dense_vector(a) + oracles.dense_vector(b)
    assert np.max(np.abs(oracles.dense_vector(out) - ref)) <= TOL
    assert (out.keys[1:] > out.keys[:-1]).all()
    pruned = np.abs(ref) <= fock.DEFAULT_PRUNE_EPS
    assert out.norm_deficit == pytest.approx(
        a.norm_deficit + b.norm_deficit + np.sum(np.abs(ref[pruned]) ** 2), rel=1e-12, abs=0.0)


EMPTY = PureState(polarized_register(range(1, 4), 2), {}, 0.25)


@pytest.mark.parametrize("op, deficit", [
    (lambda s: apply_single_mode_matrix(s, mode(1, "H"), np.eye(3), tail_eps=1e-12), 0.25),
    (lambda s: apply_two_mode_mixer(s, mode(1, "H"), mode(2, "V"), 0.3, 0.2), 0.25),
    (lambda s: mixer_dark_branch(s, mode(1, "H"), mode(1, "V"), -math.pi / 4.0), 0.25),
    (lambda s: add(s, fock.scale(s, 0.5)), 0.25 + 0.0625),
    (lambda s: controlled_pol_gates(s, 3, flips=[(1, 2.0)], phases=[(2, math.pi)]), 0.25),
], ids=["single-mode", "mixer", "dark-branch", "add", "controlled-gates"])
def test_ops_on_an_empty_state_keep_its_deficit(op, deficit):
    """Each op returns an empty state that carries the deficit of its input
    (for add, of both terms)."""
    out = op(EMPTY)
    assert len(out) == 0 and out.register == EMPTY.register
    assert out.norm_deficit == deficit


@SETTINGS
@given(cutoffs=st.tuples(st.integers(24, 30), st.integers(24, 30)),
       seed=st.integers(0, 2**32 - 1), b1=st.complex_numbers(max_magnitude=0.6),
       b2=st.complex_numbers(max_magnitude=0.6))
def test_displaced_parity_matches_laguerre_oracle(cutoffs, seed, b1, b2):
    # low occupations keep the truncated displacement equal to the
    # infinite-space Laguerre elements far below the tolerance
    reg = ModeRegister((mode(1), mode(2)), cutoffs)
    psi = random_state(reg, seed, 8, top=3)
    got = displaced_parity_expect(psi, b1, b2, tail_eps=1.0)
    assert abs(got - oracles.dense_displaced_parity(psi, b1, b2)) <= TOL


units = st.one_of(st.just(1j), st.just(1.0),
                 st.floats(-math.pi, math.pi).map(lambda phi: cmath.exp(1j * phi)))


@st.composite
def line_cases(draw, cutoffs, top, reach):
    """A normalized two-mode state on unequal cutoffs, a ray unit per side
    (drawn apart or equal) and two short lists of ray coordinates in
    [-reach, reach]."""
    c1 = draw(cutoffs)
    c2 = draw(cutoffs.filter(lambda c: c != c1))
    reg = ModeRegister((mode(1), mode(2)), (c1, c2))
    psi = normalized(random_state(reg, draw(st.integers(0, 2**32 - 1)),
                                  draw(st.integers(1, 12)), top))
    ts = st.lists(st.floats(-reach, reach), min_size=1, max_size=4)
    u1 = draw(units)
    return psi, u1, draw(st.one_of(st.just(u1), units)), np.array(draw(ts)), np.array(draw(ts))


@SETTINGS
@given(case=line_cases(st.integers(1, 8), None, 1.5))
def test_line_correlator_grid_matches_truncated_dense_parity(case):
    # exact on the truncated space, at any occupation and amplitude
    psi, u1, u2, t1, t2 = case
    got = ParityCorrelator(psi, u1, u2, tail_eps=math.inf)(t1, t2)
    want = [[oracles.truncated_displaced_parity(psi, a * u1, b * u2) for b in t2] for a in t1]
    assert np.max(np.abs(got - want)) <= TOL


@SETTINGS
@given(case=line_cases(st.integers(24, 30), 3, 0.6))
def test_line_correlator_grid_matches_laguerre_oracle(case):
    # low occupations keep the truncated displacement equal to the
    # infinite-space Laguerre elements far below the tolerance
    psi, u1, u2, t1, t2 = case
    got = ParityCorrelator(psi, u1, u2, tail_eps=math.inf)(t1, t2)
    dense = oracles.cached_dense_correlator(psi)
    want = [[dense(a * u1, b * u2) for b in t2] for a in t1]
    assert np.max(np.abs(got - want)) <= TOL


@st.composite
def tag_path_states(draw):
    """A state on path 1 (H and V, cutoffs 1-3 each) and a plain spectator
    mode, holding the pattern with both path-1 modes full, so some mixer
    blocks have a total above a cutoff and drop columns; plus an input
    deficit."""
    cuts = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    reg = ModeRegister((mode(1, "H"), mode(1, "V"), mode(2)), cuts)
    psi = random_state(reg, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 12)))
    full = PureState(reg, {(cuts[0], cuts[1], draw(st.integers(0, cuts[2]))): 1.0}, 0.0)
    if full.keys[0] not in psi.keys:
        psi = add(psi, full)
    return _wrap(reg, psi.keys, psi.coeffs, draw(st.sampled_from([0.0, 0.25])))


def dense_dark_branch(psi, theta, phase):
    """Exact mixer of path 1 on a register wide enough for every total, then
    the vacuum projection of 1H: the dark branch with nothing dropped."""
    cuts = psi.register.cutoffs
    wide = ModeRegister(psi.register.modes, (cuts[0] + cuts[1],) * 2 + cuts[2:])
    mixed = oracles.dense_mixer(wide, 0, 1, theta, phase) @ oracles.dense_vector(embed(psi, wide))
    return wide, mixed.reshape(oracles.dims(wide))[0]


def test_dark_branch_norm_leaves_out_what_the_rotation_prunes():
    # |1, 1> on cutoffs 1, 1: the rotation drops |2, 0> and |0, 2>, and the
    # |1, 1> it keeps interferes away to about 5e-17 of the amplitude, which
    # the rotation prunes; that remnant is not in the dark column, so the
    # dark branch is empty and its deficit is the dropped |0, 2> alone
    reg = ModeRegister((mode(1, "H"), mode(1, "V"), mode(2)), (1, 1, 1))
    psi = PureState(reg, {(1, 1, 0): 0.11346}, 0.0)
    dark = mixer_dark_branch(psi, mode(1, "H"), mode(1, "V"), -math.pi / 4.0)
    rotated = rotate_45(psi, 1)
    assert len(rotated) == len(dark) == 0
    assert dark.norm_sq() == rotated.norm_sq() == 0.0
    _, exact = dense_dark_branch(psi, -math.pi / 4.0, 0.0)
    dropped_dark = np.sum(np.abs(exact[2:]) ** 2)
    assert abs(dark.norm_deficit - dropped_dark) <= TOL
    assert abs(dark.norm_deficit - 0.5 * 0.11346**2) <= TOL
    assert dark.norm_deficit <= rotated.norm_deficit


def test_dark_branch_norm_counts_a_fitting_block_whole():
    # a block whose dark column fits and is pruned counts its whole dark
    # mass in the deficit: |1, 0> at 1.2e-16 rotates to two amplitudes of
    # 8.5e-17, both pruned, and the dark one, |0, 1>, fits cutoff 1V
    reg = ModeRegister((mode(1, "H"), mode(1, "V"), mode(2)), (1, 1, 1))
    psi = PureState(reg, {(1, 0, 0): 1.2e-16}, 0.0)
    dark = mixer_dark_branch(psi, mode(1, "H"), mode(1, "V"), -math.pi / 4.0)
    rotated = rotate_45(psi, 1)
    assert len(rotated) == len(dark) == 0
    assert dark.norm_sq() == rotated.norm_sq() == 0.0
    _, exact = dense_dark_branch(psi, -math.pi / 4.0, 0.0)
    assert dark.norm_deficit == pytest.approx(np.sum(np.abs(exact) ** 2), rel=1e-12)
    assert dark.norm_deficit == pytest.approx(0.5 * psi.norm_sq(), rel=1e-12)
    assert dark.norm_deficit <= rotated.norm_deficit * (1.0 + 1e-15)


@st.composite
def spread_tag_path_states(draw):
    """A state on a spectator mode and path 1, with 1H's cutoff below 1V's,
    holding blocks of total t in (cutoff 1H, cutoff 1V] and blocks whose
    dark column lies past cutoff 1V on every spectator value, of a total
    drawn for each value, so a later spectator value may hold a larger
    total than the first; plus an input deficit."""
    cut_h = draw(st.integers(1, 2))
    cuts = (draw(st.integers(1, 3)), cut_h, draw(st.integers(cut_h + 1, 4)))
    reg = ModeRegister((mode(2), mode(1, "H"), mode(1, "V")), cuts)
    psi = random_state(reg, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 24)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = dict(psi.amps)
    for n in range(cuts[0] + 1):
        past = draw(st.integers(cuts[2] - cut_h + 1, cuts[2]))  # cut_h + past > cutoff 1V
        for occ in ((n, cut_h, 1), (n, cut_h, past)):
            amps.setdefault(occ, complex(gen.normal(), gen.normal()))
    return PureState(reg, amps, draw(st.sampled_from([0.0, 0.25])))


@SETTINGS
@given(psi=spread_tag_path_states())
def test_dark_branch_is_one_bincount_pass(psi):
    """No block unitary is built, and the output matches the rotation
    followed by the dark port.  The deficit is the input's plus the mass of
    the dark column past the cutoff of 1V."""
    def dense(*args):
        raise AssertionError("the dark branch built a block unitary")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "_gaussian_unitary", dense)
        dark = mixer_dark_branch(psi, mode(1, "H"), mode(1, "V"), -math.pi / 4.0)
    rotated = rotate_45(psi, 1)
    _, composed = onoff_detect(rotated, mode(1, "H"))
    assert dark.keys.tolist() == composed.keys.tolist()
    assert np.max(np.abs(dark.coeffs - composed.coeffs), initial=0.0) <= 1e-14
    # the dense mixer on a register wide enough for every total, then 1H = 0
    cuts = psi.register.cutoffs
    wide = ModeRegister(psi.register.modes, (cuts[0],) + (cuts[1] + cuts[2],) * 2)
    exact = (oracles.dense_mixer(wide, 1, 2, -math.pi / 4.0, 0.0)
             @ oracles.dense_vector(embed(psi, wide))).reshape(oracles.dims(wide))[:, 0]
    dropped_dark = np.sum(np.abs(exact[:, cuts[2] + 1:]) ** 2)
    assert abs(dark.norm_deficit - (psi.norm_deficit + dropped_dark)) <= TOL
    assert dark.norm_deficit <= composed.norm_deficit + TOL


@SETTINGS
@given(psi=tag_path_states())
def test_dark_branch_matches_rotation_then_dark_port(psi):
    dark = mixer_dark_branch(psi, mode(1, "H"), mode(1, "V"), -math.pi / 4.0)
    rotated = rotate_45(psi, 1)
    _, composed = onoff_detect(rotated, mode(1, "H"))
    assert dark.keys.tolist() == composed.keys.tolist()
    assert np.max(np.abs(dark.coeffs - composed.coeffs), initial=0.0) <= 1e-14
    # the mass of the n_1H = 0 column that the cutoff of 1V drops
    wide, exact = dense_dark_branch(psi, -math.pi / 4.0, 0.0)
    dropped_dark = np.sum(np.abs(exact[psi.register.cutoffs[1] + 1:]) ** 2)
    assert abs(dark.norm_deficit - (psi.norm_deficit + dropped_dark)) <= TOL
    assert dark.norm_deficit <= composed.norm_deficit


@SETTINGS
@given(psi=tag_path_states(), theta=st.floats(-3.2, 3.2), phase=st.floats(-3.2, 3.2))
def test_dark_branch_deficit_bounds_its_missing_mass(psi, theta, phase):
    dark = mixer_dark_branch(psi, mode(1, "H"), mode(1, "V"), theta, phase)
    wide, exact = dense_dark_branch(psi, theta, phase)
    got = dense(embed(dark, wide))[0]
    assert np.sum(np.abs(exact - got) ** 2) <= dark.norm_deficit + TOL


# ---------------------------------------------------------------------------
# partial trace, embedding


@SETTINGS
@given(psi=plain_states(modes=(2, 3)), order=st.permutations(range(3)),
       n_keep=st.integers(1, 2))
def test_partial_trace_matches_dense_reduction(psi, order, n_keep):
    reg = psi.register
    keep = [i for i in order if i < reg.n_modes][:min(n_keep, reg.n_modes - 1)]
    view = partial_trace(psi, [reg.modes[i] for i in keep])
    kept_dims = [reg.cutoffs[i] + 1 for i in keep]
    lifted = np.zeros((math.prod(kept_dims),) * 2, dtype=complex)
    flat = [np.ravel_multi_index(p, kept_dims) for p in view.basis]
    lifted[np.ix_(flat, flat)] = view.matrix
    assert np.max(np.abs(lifted - oracles.dense_reduced_density(psi, keep))) <= TOL
    assert list(view.basis) == sorted(view.basis)


@SETTINGS
@given(psi=plain_states(), order=st.permutations(range(5)), extra=st.integers(0, 2))
def test_embed_places_amplitudes_and_reads_them_back(psi, order, extra):
    reg = psi.register
    labels = list(reg.modes) + [mode(p) for p in (7, 8)]
    order = [i for i in order if i < len(labels)]
    big = ModeRegister(tuple(labels[i] for i in order),
                       tuple((reg.cutoffs[i] + extra if i < reg.n_modes else 2) for i in order))
    lifted = embed(psi, big)
    src = dense(psi)
    ref = np.zeros(oracles.dims(big), dtype=complex)
    for occ in product(*(range(d) for d in src.shape)):
        target = [0] * big.n_modes
        for i, n in enumerate(occ):
            target[big.index(reg.modes[i])] = n
        ref[tuple(target)] = src[occ]
    assert np.max(np.abs(dense(lifted) - ref)) <= TOL
    positions = [big.index(m) for m in reg.modes]
    back = {tuple(occ[j] for j in positions): c for occ, c in lifted.amps.items()}
    assert back == dict(psi.amps)
    assert all(occ[j] == 0 for occ in lifted.amps for j in set(range(big.n_modes)) - set(positions))


# ---------------------------------------------------------------------------
# gate permutations


@SETTINGS
@given(psi=polarized_states(paths=(2, 3)))
def test_pbs_and_hwp_permute_as_written(psi):
    idx = psi.register.index
    v1, v2 = idx(mode(1, "V")), idx(mode(2, "V"))
    assert np.array_equal(dense(pbs(psi, 1, 2)), permuted(psi, lambda o: swap(o, (v1, v2))))
    h2 = idx(mode(2, "H"))
    assert np.array_equal(dense(hwp(psi, 2)), permuted(psi, lambda o: swap(o, (h2, v2))))


@SETTINGS
@given(psi=polarized_states(paths=(3, 3)))
def test_cswap_and_parity_flip_permute_as_written(psi):
    idx = psi.register.index
    c = {(p, s): idx(mode(p, s)) for p in (1, 2, 3) for s in "HV"}

    def fredkin(o):
        if o[c[3, "V"]] > 0 and o[c[3, "H"]] == 0:
            return swap(o, (c[1, "H"], c[2, "V"]), (c[1, "V"], c[2, "H"]))
        return o

    out = cswap_pol(psi, 3, 1, 2, on_ambiguous="pass")
    assert np.max(np.abs(dense(out) - permuted(psi, fredkin))) <= TOL

    def parity(o):
        return swap(o, (c[2, "H"], c[2, "V"])) if o[c[3, "V"]] % 2 else o

    out = parity_controlled_flip(psi, mode(3, "V"), 2)
    assert np.max(np.abs(dense(out) - permuted(psi, parity))) <= TOL


@st.composite
def flip_closed_states(draw):
    """Random states on two polarized paths that also hold, for each pattern,
    the pattern with the target path's H and V occupations exchanged, so
    exchanged components land on patterns already present."""
    control, target = draw(st.permutations((1, 2)))
    reg = polarized_register([1, 2], draw(st.integers(1, 3)))
    th, tv = reg.index(mode(target, "H")), reg.index(mode(target, "V"))
    psi = random_state(reg, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 8)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = dict(psi.amps)
    for occ in list(amps):
        amps.setdefault(swap(occ, (th, tv)), complex(gen.normal(), gen.normal()))
    return PureState(reg, amps, 0.0), control, target


@SETTINGS
@given(case=flip_closed_states(), angle=st.floats(0.0, math.pi))
def test_partial_controlled_flip_matches_dense_oracle(case, angle):
    psi, control, target = case
    out = controlled_pol_gates(psi, control, flips=[(target, angle)], on_ambiguous="pass")
    gate = oracles.dense_cnot_pol(psi.register, control, target, angle)
    expected = (gate @ oracles.dense_vector(psi)).reshape(oracles.dims(psi.register))
    assert np.max(np.abs(dense(out) - expected)) <= TOL
    assert np.all(np.diff(out.keys) > 0)


@SETTINGS
@given(case=flip_closed_states(), angle=st.floats(-7.0, 7.0))
def test_controlled_phase_matches_dense_oracle(case, angle):
    psi, control, target = case
    out = controlled_pol_gates(psi, control, phases=[(target, angle)], on_ambiguous="pass")
    gate = oracles.dense_cphase_pol(psi.register, control, target, angle)
    expected = (gate @ oracles.dense_vector(psi)).reshape(oracles.dims(psi.register))
    assert np.max(np.abs(dense(out) - expected)) <= TOL


@st.composite
def mixed_control_states(draw):
    """Random states on three polarized paths whose control path 3 holds V
    light alone, H light alone, both or neither, on different components;
    some components also hold their partner under the H/V exchange of the
    target path, so exchanged parts land on patterns already present."""
    reg = polarized_register([1, 2, 3], draw(st.integers(1, 2)))
    target = draw(st.sampled_from([1, 2]))
    th, tv = reg.index(mode(target, "H")), reg.index(mode(target, "V"))
    psi = random_state(reg, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 24)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = dict(psi.amps)
    for occ in list(amps)[::2]:
        amps.setdefault(swap(occ, (th, tv)), complex(gen.normal(), gen.normal()))
    return PureState(reg, amps, 0.0), target


@settings(max_examples=25, deadline=None)
@given(case=mixed_control_states(), angle=st.floats(0.0, math.pi))
def test_controlled_gates_match_dense_oracles_on_mixed_controls(case, angle):
    psi, target = case
    reg, vec = psi.register, oracles.dense_vector(psi)
    gates = [(controlled_pol_gates(psi, 3, flips=[(target, angle)], on_ambiguous="pass"),
              oracles.dense_cnot_pol(reg, 3, target, angle)),
             (controlled_pol_gates(psi, 3, phases=[(target, 2.0 * angle)], on_ambiguous="pass"),
              oracles.dense_cphase_pol(reg, 3, target, 2.0 * angle)),
             (cswap_pol(psi, 3, 1, 2, on_ambiguous="pass"), oracles.dense_cswap_pol(reg, 3, 1, 2)),
             (parity_controlled_flip(psi, mode(3, "V"), target),
              oracles.dense_parity_flip(reg, mode(3, "V"), target))]
    for out, gate in gates:
        assert np.max(np.abs(oracles.dense_vector(out) - gate @ vec)) <= TOL
        assert np.all(np.diff(out.keys) > 0)
        # only pruned dust may leave, and its mass is in the deficit
        assert abs(out.norm_sq() + out.norm_deficit - psi.norm_sq()) <= TOL


@st.composite
def fused_gate_cases(draw):
    """A :func:`mixed_control_states` state, with its ambiguous control
    components or without them, an input deficit, flips on both target
    paths, phases on both, and a way to meet ambiguous control light."""
    psi, target = draw(mixed_control_states())
    if draw(st.booleans()):
        reg = psi.register
        ch, cv = reg.digit(psi.keys, reg.index(mode(3, "H"))), reg.digit(psi.keys, reg.index(mode(3, "V")))
        definite = (ch == 0) | (cv == 0)
        psi = PureState(reg, dict(zip(map(tuple, reg.digits(psi.keys[definite]).tolist()),
                                      psi.coeffs[definite])), 0.0)
    # deficits from the scale of a pi flip's dust up: their sum order shows
    deficit = draw(st.sampled_from([0.0, 0.25, 3e-13, 2e-33, 7e-32]))
    psi = _wrap(psi.register, psi.keys, psi.coeffs, deficit)
    paths = (target, 3 - target)
    flips = [(p, draw(st.one_of(st.just(math.pi), st.floats(0.0, math.pi)))) for p in paths]
    phases = [(p, draw(st.one_of(st.just(math.pi), st.floats(-7.0, 7.0)))) for p in paths]
    return psi, flips, phases, draw(st.sampled_from(["pass", "error"]))


def gates_one_by_one(psi, flips, phases, on_ambiguous):
    for flip in flips:
        psi = controlled_pol_gates(psi, 3, flips=[flip], on_ambiguous=on_ambiguous)
    for phase in phases:
        psi = controlled_pol_gates(psi, 3, phases=[phase], on_ambiguous=on_ambiguous)
    return psi


@SETTINGS
@given(case=fused_gate_cases())
def test_one_pass_of_path_3_gates_equals_them_one_by_one_bit_for_bit(case):
    psi, flips, phases, on_ambiguous = case
    try:
        expected = gates_one_by_one(psi, flips, phases, on_ambiguous)
    except ContractViolationError:
        with pytest.raises(ContractViolationError):
            controlled_pol_gates(psi, 3, flips, phases, on_ambiguous=on_ambiguous)
        return
    out = controlled_pol_gates(psi, 3, flips, phases, on_ambiguous=on_ambiguous)
    assert out.keys.tolist() == expected.keys.tolist()
    assert out.coeffs.view(np.float64).tolist() == expected.coeffs.view(np.float64).tolist()
    assert out.norm_deficit == expected.norm_deficit


@pytest.mark.parametrize("control_light, selected", [((1, 0), 0), ((0, 1), 4)])
def test_controlled_gates_keep_the_deficit_on_no_selection_and_on_all(control_light, selected):
    # path 3 holds H light alone (no component selected) or V light alone (all)
    reg = polarized_register([1, 2, 3], 2)
    gen = np.random.default_rng(11)
    psi = PureState(reg, {(a, b, 1, 0) + control_light: complex(gen.normal(), gen.normal())
                          for a in range(2) for b in range(2)}, 0.0)
    psi = _wrap(reg, psi.keys, psi.coeffs, 0.125)
    outputs = [controlled_pol_gates(psi, 3, flips=[(1, 2.0)]),
               controlled_pol_gates(psi, 3, phases=[(2, 1.0)]), cswap_pol(psi, 3, 1, 2),
               controlled_pol_gates(psi, 3, [(1, 2.0), (2, math.pi)], [(1, 1.0), (2, -0.5)])]
    for out in outputs:
        assert out.norm_deficit == 0.125
        assert abs(out.norm_sq() - psi.norm_sq()) <= TOL
        same = np.array_equal(out.keys, psi.keys) and np.array_equal(out.coeffs, psi.coeffs)
        assert same == (selected == 0)


def flip_test_state(seed):
    """A normalized state on two polarized paths, control path 1: V-controlled
    components whose target patterns are exchange partners of each other,
    ones without a partner, and components the control leaves alone."""
    reg = polarized_register([1, 2], 2)
    gen = np.random.default_rng(seed)
    amps = {}
    for occ in [(0, 1, 2, 0), (0, 1, 0, 2), (0, 2, 1, 0), (0, 2, 0, 1), (0, 1, 2, 1),
                (0, 1, 1, 1), (1, 0, 2, 0), (0, 0, 1, 0), (1, 1, 0, 2)]:
        amps[occ] = complex(gen.normal(), gen.normal())
    return normalized(PureState(reg, amps, 0.0))


@pytest.mark.parametrize("seed", range(4))
def test_controlled_flip_at_pi_leaves_out_the_stay_dust(seed):
    psi = flip_test_state(seed)
    out = controlled_pol_gates(psi, 1, flips=[(2, math.pi)], on_ambiguous="pass")
    gate = oracles.dense_cnot_pol(psi.register, 1, 2, math.pi)
    assert np.max(np.abs(oracles.dense_vector(out) - gate @ oracles.dense_vector(psi))) <= 1e-15
    # the partner-less component moves and leaves no dust behind
    assert len(out) == len(psi)
    # the dust's mass, |stay|^2 times the mass of the moved components, is the deficit
    moved = [(0, 1, 2, 0), (0, 1, 0, 2), (0, 2, 1, 0), (0, 2, 0, 1), (0, 1, 2, 1)]
    stay = abs(0.5 * (1.0 + np.exp(-1j * math.pi)))
    expected = stay ** 2 * sum(abs(psi.amps[occ]) ** 2 for occ in moved)
    assert expected > 0.0
    assert out.norm_deficit == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("angle", [0.3, 2.0, math.pi - 1e-3])
def test_controlled_flip_at_a_partial_angle_joins_both_parts(angle):
    psi = flip_test_state(7)
    out = controlled_pol_gates(psi, 1, flips=[(2, angle)], on_ambiguous="pass")
    gate = oracles.dense_cnot_pol(psi.register, 1, 2, angle)
    assert np.max(np.abs(oracles.dense_vector(out) - gate @ oracles.dense_vector(psi))) <= 1e-15
    # the staying part of the moved component without a partner is kept
    assert len(out) == len(psi) + 1
    assert out.norm_deficit == 0.0


# ---------------------------------------------------------------------------
# the state's own contract


@SETTINGS
@given(psi=plain_states(modes=(1, 4)), data=st.data())
def test_group_by_matches_dict_grouping(psi, data):
    reg = psi.register
    chosen = data.draw(st.lists(st.integers(0, reg.n_modes - 1), unique=True))
    rest, group, occ = group_by(psi, [reg.modes[i] for i in chosen])
    groups: dict = {}
    for j, pattern in enumerate(psi.amps):
        emptied = tuple(0 if i in chosen else n for i, n in enumerate(pattern))
        groups.setdefault(emptied, []).append(j)
        assert occ[j].tolist() == [pattern[i] for i in chosen]
    assert rest.tolist() == [reg.encode(emptied) for emptied in sorted(groups)]
    for g, emptied in enumerate(sorted(groups)):
        assert np.flatnonzero(group == g).tolist() == groups[emptied]


def test_wrap_refuses_a_repeated_key():
    reg = polarized_register([1], 2)
    for keys in ([3, 1, 3], [1, 1]):
        with pytest.raises(FockError):
            _wrap(reg, np.array(keys, dtype=np.int64), np.ones(len(keys), dtype=complex), 0.0)


@SETTINGS
@given(psi=polarized_states(paths=(3, 3)), seed=st.integers(0, 2**32 - 1))
def test_gate_outputs_have_strictly_increasing_keys(psi, seed):
    dim = psi.register.cutoff_of(mode(2, "H")) + 1
    gen = np.random.default_rng(seed)
    matrix = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    outputs = (apply_two_mode_mixer(psi, mode(1, "H"), mode(2, "V"), 0.7, 0.3),
               apply_single_mode_matrix(psi, mode(2, "H"), matrix),
               pbs(psi, 1, 2),
               controlled_pol_gates(psi, 3, flips=[(1, 1.1)], on_ambiguous="pass"),
               cswap_pol(psi, 3, 1, 2, on_ambiguous="pass"),
               apply_creation(psi, mode(1, "V")))
    for out in outputs:
        assert np.all(np.diff(out.keys) > 0)


def test_register_whose_keys_overflow_int64_is_refused():
    ModeRegister((mode(1), mode(2)), (2**31 - 1, 2**31 - 1))  # 2**62 patterns fit
    with pytest.raises(CutoffError):
        ModeRegister((mode(1), mode(2)), (2**32, 2**32))


def test_amps_is_a_read_only_mapping_over_read_only_arrays():
    reg = polarized_register([1], 3)
    psi = PureState(reg, {(2, 1): 0.6j, (0, 3): 0.8}, 0.0)
    assert psi.amps == {(0, 3): 0.8, (2, 1): 0.6j}
    assert len(psi.amps) == 2 and psi.amps.get((1, 1)) is None
    (occ, amp), _ = psi.amps.items()
    assert all(type(n) is int for n in occ) and type(amp) is complex
    with pytest.raises(TypeError):
        psi.amps[(1, 1)] = 1.0
    for array in (psi.keys, psi.coeffs):
        with pytest.raises(ValueError):
            array[0] = 0


@SETTINGS
@given(psi=plain_states(), seed=st.integers(0, 2**32 - 1))
def test_iteration_order_is_sorted_whatever_the_insertion_order(psi, seed):
    items = list(psi.amps.items())
    shuffled = [items[k] for k in np.random.default_rng(seed).permutation(len(items))]
    again = PureState(psi.register, dict(shuffled), 0.0)
    assert list(again.amps) == list(psi.amps) == sorted(psi.amps)
    assert again.amps.items() == items


def test_occupation_beyond_a_cutoff_is_refused():
    with pytest.raises(CutoffError):
        PureState(polarized_register([1], 2), {(3, 0): 1.0}, 0.0)
