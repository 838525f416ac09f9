import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dualcat import analysis
from dualcat.analysis import (
    BellSearch,
    BellSettings,
    chsh_displaced_parity,
    chsh_optimize,
    entanglement,
    fidelity,
    negativity_two_qubit,
    polarization_qubit_state,
    qfi_phase,
    qfi_phase_decay,
    subsystem_fidelity,
    total_mean_photons,
)
from dualcat.circuits import (
    Imperfection,
    _infer_cat_amplitude,
    access_polarization,
    analytic_dual_rail_pair,
    generate_entangled_cat,
    noon_from_cat_pair,
)
from dualcat.elements import (
    ParityCorrelator,
    displace,
    displaced_parity_expect,
)
from dualcat.fock import (
    CutoffError,
    DegenerateInputError,
    ModeRegister,
    PureState,
    add,
    amplitude_matrix,
    apply_two_mode_mixer,
    basis_state,
    coherent_cutoff,
    mode,
    normalized,
    partial_trace,
    plain_register,
    polarized_register,
    product,
    scale,
)
from dualcat.states import cat, coherent, entangled_cat_pair

TSIRELSON = 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# entanglement


def test_dual_rail_pair_carries_one_ebit():
    reg = polarized_register([1], coherent_cutoff(1.0))
    psi = analytic_dual_rail_pair(reg, 1.0)
    s = entanglement(psi, [mode(1, "H")])
    assert s.entropy_bits == pytest.approx(1.0, abs=1e-6)
    assert s.log_negativity == pytest.approx(1.0, abs=1e-6)


def test_product_state_has_zero_entanglement():
    reg = plain_register([1, 2], 20)
    psi = product(coherent(reg, mode(1), 0.9),
                  coherent(reg, mode(2), -0.4))
    s = entanglement(psi, [mode(1)])
    assert s.entropy_bits == pytest.approx(0.0, abs=1e-10)
    assert s.log_negativity == pytest.approx(0.0, abs=1e-10)


def test_even_cat_split_entropy_matches_closed_form():
    # weights of the even-cat interferometer output are (1±x)^2 with
    # x = e^{-2 a^2}, normalized
    from dualcat.circuits import generate_even_cat_control

    alpha = 1.0
    rep = generate_even_cat_control(alpha)
    s = entanglement(rep.output_state, [mode(1, "H")])
    x = math.exp(-2.0 * alpha**2)
    pe, po = (1.0 + x) ** 2, (1.0 - x) ** 2
    z = pe + po
    expected = -(pe / z) * math.log2(pe / z) - (po / z) * math.log2(po / z)
    assert s.entropy_bits == pytest.approx(expected, abs=1e-9)
    assert s.entropy_bits < 1.0


def test_entropy_consistent_with_schmidt_spectrum():
    reg = plain_register([1, 2], 6)
    psi = normalized(PureState(reg, {(0, 0): 0.8, (1, 1): 0.6}, 0.0))
    s = entanglement(psi, [mode(1)])
    direct = -sum(w * math.log2(w) for w in s.schmidt_spectrum)
    assert s.entropy_bits == pytest.approx(direct, abs=1e-10)
    assert sum(s.schmidt_spectrum) == pytest.approx(1.0, abs=1e-10)


def test_entanglement_invariant_under_local_unitaries(rng):
    reg = plain_register([1, 2, 3, 4], 8)
    pair = entangled_cat_pair(
        plain_register([1, 2], 8), mode(1), mode(2), 0.6, "-", tail_eps=1e-6)
    from dualcat.fock import embed

    psi = embed(pair, reg)
    base = entanglement(psi, [mode(1), mode(3)]).entropy_bits
    # local mixers act within each side of the partition
    moved = apply_two_mode_mixer(psi, mode(1), mode(3), 0.7, 0.3)
    moved = apply_two_mode_mixer(moved, mode(2), mode(4), -0.4, 1.1)
    after = entanglement(moved, [mode(1), mode(3)]).entropy_bits
    assert after == pytest.approx(base, abs=1e-8)


@st.composite
def plain_states(draw):
    """A normalized random state on 2-4 plain modes with cutoffs 1-5."""
    n = draw(st.integers(2, 4))
    reg = ModeRegister(tuple(mode(p) for p in range(1, n + 1)),
                       tuple(draw(st.integers(1, 5)) for _ in range(n)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = {tuple(int(gen.integers(0, c + 1)) for c in reg.cutoffs): complex(*gen.normal(size=2))
            for _ in range(draw(st.integers(1, 16)))}
    return normalized(PureState(reg, amps, 0.0))


def assert_same_schmidt_data(state, partition):
    """The Schmidt data across ``partition`` and across its complement agree,
    one side's amplitude matrix wide and the other's tall (or both square)."""
    complement = [m for m in state.register.modes if m not in partition]
    shape = amplitude_matrix(state, partition)[0].shape
    assert amplitude_matrix(state, complement)[0].shape == shape[::-1]
    a, b = entanglement(state, partition), entanglement(state, complement)
    assert abs(a.entropy_bits - b.entropy_bits) <= 1e-12
    assert len(a.schmidt_spectrum) == len(b.schmidt_spectrum)
    assert np.max(np.abs(np.subtract(a.schmidt_spectrum, b.schmidt_spectrum)),
                  initial=0.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(psi=plain_states(), order=st.permutations(range(4)), n_keep=st.integers(1, 3))
def test_schmidt_data_match_across_a_partition_and_its_complement(psi, order, n_keep):
    modes = psi.register.modes
    keep = [modes[i] for i in order if i < len(modes)][:min(n_keep, len(modes) - 1)]
    assert_same_schmidt_data(psi, keep)


def test_schmidt_data_of_the_access_output_match_across_path_1_and_its_complement():
    gen = generate_entangled_cat(1.19, "-").output_state
    out = access_polarization(gen, Imperfection(displacement_offset=0.4)).output_state
    rows, cols = amplitude_matrix(out, [mode(1, "H"), mode(1, "V")])[0].shape
    assert rows < cols  # path 1's side is wide, its complement's tall
    assert_same_schmidt_data(out, [mode(1, "H"), mode(1, "V")])


def test_entanglement_requires_normalized_input():
    reg = plain_register([1, 2], 4)
    s = scale(basis_state(reg, {}), 0.5)
    with pytest.raises(ValueError):
        entanglement(s, [mode(1)])


@pytest.mark.parametrize("whole", [False, True])
def test_the_partition_rule_has_one_home(whole):
    # amplitude_matrix checks the kept modes, and entanglement and
    # partial_trace leave the check to it: the same error from all three
    state = generate_entangled_cat(1.0).output_state
    keep = list(state.register.modes) if whole else []
    for f in (amplitude_matrix, entanglement, partial_trace):
        with pytest.raises(ValueError) as err:
            f(state, keep)
        assert str(err.value) == "the kept modes must be a nonempty proper subset of the register"


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_of_identical_states_is_one():
    reg = plain_register([1], 25)
    s = coherent(reg, mode(1), 1.1)
    assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_of_orthogonal_cats_is_zero():
    reg = plain_register([1], 25)
    even = cat(reg, mode(1), 1.1, "even")
    odd = cat(reg, mode(1), 1.1, "odd")
    assert fidelity(even, odd) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_normalizes_unnormalized_inputs():
    reg = plain_register([1], 10)
    a = basis_state(reg, {mode(1): 1})
    assert fidelity(scale(a, 0.3), scale(a, -2.0)) == pytest.approx(1.0, abs=1e-12)


def test_subsystem_fidelity_on_product_states():
    reg = plain_register([1, 2], 20)
    psi = product(coherent(reg, mode(1), 0.8),
                  coherent(reg, mode(2), 0.5))
    target = coherent(plain_register([1], 20), mode(1), 0.8)
    assert subsystem_fidelity(psi, target, [mode(1)]) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# logical qubit extraction


def test_qubit_extraction_of_coherent_bell_state():
    from dualcat.circuits import analytic_coherent_bell

    reg = polarized_register([1, 2], 16)
    bell = analytic_coherent_bell(reg, 1.0)
    q = polarization_qubit_state(bell, 1, 2)
    neg, logneg = negativity_two_qubit(q.rho)
    assert neg == pytest.approx(0.5, abs=1e-10)
    assert logneg == pytest.approx(1.0, abs=1e-10)
    assert 0.0 < q.captured_weight <= 1.0


def test_qubit_extraction_refuses_one_path_twice():
    from dualcat.circuits import analytic_coherent_bell

    bell = analytic_coherent_bell(polarized_register([1, 2], 16), 1.0)
    with pytest.raises(ValueError, match="paths must differ"):
        polarization_qubit_state(bell, 1, 1)


def test_qubit_extraction_of_product_pattern():
    reg = polarized_register([1, 2], 16)
    psi = product(coherent(reg, mode(1, "H"), 1.0),
                  coherent(reg, mode(2, "V"), 1.0))
    q = polarization_qubit_state(psi, 1, 2)
    neg, logneg = negativity_two_qubit(q.rho)
    assert neg == pytest.approx(0.0, abs=1e-12)
    assert logneg == pytest.approx(0.0, abs=1e-12)


def reference_qubit_state(state, path_a, path_b):
    """rho and captured weight from ``state.amps`` in a dict loop: each
    component (other occupations, envelope of path a, envelope of path b)
    collects its amplitudes on the four rail patterns HH, HV, VH, VV."""
    modes = state.register.modes
    rails = [modes.index(mode(p, s)) for p in (path_a, path_b) for s in "HV"]
    comps = {}
    for occ, c in state.amps.items():
        n = [occ[i] for i in rails]
        if (n[0] > 0) == (n[1] > 0) or (n[2] > 0) == (n[3] > 0):
            continue  # both rails or neither occupied on a path
        rest = tuple(v for i, v in enumerate(occ) if i not in rails)
        vec = comps.setdefault((rest, n[0] + n[1], n[2] + n[3]), np.zeros(4, dtype=complex))
        vec[2 * (n[1] > 0) + (n[3] > 0)] = c
    rho = sum((np.outer(v, v.conj()) for v in comps.values()), np.zeros((4, 4), dtype=complex))
    captured = rho.trace().real
    total = sum(abs(c) ** 2 for c in state.amps.values())
    return (rho / captured if captured > 0 else rho), (captured / total if total > 0 else 0.0)


@st.composite
def rail_states(draw):
    """A random state on paths 1, 2 and a spectator path 3 (H and V each),
    modes in a drawn order with unequal cutoffs 1-4.  It holds components
    that fill some of their four rail patterns of paths 1 and 2, where the
    envelopes fit: an envelope above one rail's cutoff has no partner on
    that rail.  A few arbitrary patterns, most outside the logical
    subspace, join them."""
    labels = [mode(p, s) for p in (1, 2, 3) for s in "HV"]
    reg = ModeRegister(tuple(draw(st.permutations(labels))),
                       tuple(draw(st.integers(1, 4)) for _ in labels))
    cut = dict(zip(reg.modes, reg.cutoffs))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = {}

    def put(occ):
        amps[tuple(occ.get(m, 0) for m in reg.modes)] = complex(*gen.normal(size=2))

    for _ in range(draw(st.integers(0, 8))):
        spectator = {m: int(gen.integers(0, cut[m] + 1)) for m in labels[4:]}
        env = [int(gen.integers(1, max(cut[mode(p, "H")], cut[mode(p, "V")]) + 1)) for p in (1, 2)]
        for ra, rb in itertools.product("HV", repeat=2):
            if env[0] <= cut[mode(1, ra)] and env[1] <= cut[mode(2, rb)] and gen.random() < 0.8:
                put({**spectator, mode(1, ra): env[0], mode(2, rb): env[1]})
    for _ in range(draw(st.integers(0, 4))):
        put({m: int(gen.integers(0, cut[m] + 1)) for m in reg.modes})
    return PureState(reg, amps, 0.0)


@settings(max_examples=100, deadline=None)
@given(psi=rail_states(), paths=st.sampled_from([(1, 2), (2, 1)]))
def test_qubit_extraction_matches_a_dict_loop_reference(psi, paths):
    q = polarization_qubit_state(psi, *paths)
    rho, weight = reference_qubit_state(psi, *paths)
    assert np.max(np.abs(q.rho - rho)) <= 1e-12
    assert abs(q.captured_weight - weight) <= 1e-12


# ---------------------------------------------------------------------------
# CHSH with displaced parity


def test_chsh_at_zero_settings_is_degenerate_combination():
    reg = plain_register([1, 2], coherent_cutoff(1.0))
    pair = entangled_cat_pair(reg, mode(1), mode(2), 1.0, "-")
    settings = BellSettings(0.0, 0.0, 0.0, 0.0)
    e00 = oracles.dense_displaced_parity(pair, 0.0, 0.0)
    assert chsh_displaced_parity(pair, settings) == pytest.approx(2.0 * e00, abs=1e-10)


def test_chsh_on_product_coherent_state_stays_classical(rng):
    reg = plain_register([1, 2], 20)
    psi = product(coherent(reg, mode(1), 0.6),
                  coherent(reg, mode(2), -0.3))
    for _ in range(10):
        vals = rng.uniform(-0.6, 0.6, 8)
        s = BellSettings(complex(vals[0], vals[1]), complex(vals[2], vals[3]),
                         complex(vals[4], vals[5]), complex(vals[6], vals[7]))
        assert abs(chsh_displaced_parity(psi, s)) <= 2.0 + 1e-6


def test_chsh_on_fock_qubit_bell_state_matches_hand_computation():
    # |01> - |10> embedded in Fock space; at zero displacements each parity
    # readout is dichotomic on the {0,1} subspace and E(0,0) = -1
    reg = plain_register([1, 2], 12)
    psi = normalized(add(basis_state(reg, {mode(2): 1}),
                         scale(basis_state(reg, {mode(1): 1}), -1.0)))
    e00 = displaced_parity_expect(psi, 0.0, 0.0)
    assert e00 == pytest.approx(-1.0, abs=1e-12)
    # hand-computed correlator at small pure-imaginary settings via the
    # 4-dim restriction: E = e^{-2(y1^2+y2^2)} (2(y1-y2)^2 - 1) + O(y^4)
    for y1, y2 in ((0.1, 0.0), (0.05, -0.1), (0.2, 0.2)):
        got = displaced_parity_expect(psi, 1j * y1, 1j * y2)
        approx = math.exp(-2 * (y1**2 + y2**2)) * (2 * (y1 - y2) ** 2 - 1)
        assert got == pytest.approx(approx, abs=5e-3)
        dense = oracles.dense_displaced_parity(psi, 1j * y1, 1j * y2)
        assert got == pytest.approx(dense, abs=1e-12)


def test_chsh_optimize_beats_its_own_grid():
    reg = plain_register([1, 2], coherent_cutoff(2.6))
    pair = entangled_cat_pair(reg, mode(1), mode(2), 1.5, "-")
    coarse = BellSearch(grid_density=5, refine_iters=0, radius=0.8)
    fine = BellSearch(grid_density=5, refine_iters=400, radius=0.8)
    _, v_coarse = chsh_optimize(pair, coarse)
    _, v_fine = chsh_optimize(pair, fine)
    assert v_fine >= v_coarse - 1e-12


def first_best_pair(E: np.ndarray) -> tuple[float, tuple]:
    """By brute force: the largest B = E[a,b] + E[a,b'] + E[a',b] - E[a',b']
    over a != a', b != b', and the first (a, a') in row order that reaches it."""
    pairs = list(itertools.permutations(range(len(E)), 2))  # in row order
    best, first = -np.inf, None
    for a, ap in pairs:
        value = max(E[a, b] + E[a, bp] + E[ap, b] - E[ap, bp] for b, bp in pairs)
        if value > best:
            best, first = value, (a, ap)
    return best, first


def row_by_row_seed(E: np.ndarray) -> tuple[float, tuple]:
    """The seed search one row of a at a time: the reference whose every
    sum the blocked search repeats, so the two agree exactly."""
    n = len(E)
    rows = np.arange(n)
    best, seed = -np.inf, None
    for a in range(n):
        s, d = E[a] + E, E[a] - E
        i1, j1 = s.argmax(axis=1), d.argmax(axis=1)
        s1, d1 = s[rows, i1], d[rows, j1]
        s[rows, i1] = d[rows, j1] = -np.inf
        i2, j2 = s.argmax(axis=1), d.argmax(axis=1)
        s2, d2 = s[rows, i2], d[rows, j2]
        clash = i1 == j1
        take_s2 = clash & (s2 + d1 > s1 + d2)
        b = np.where(take_s2, i2, i1)
        bp = np.where(clash & ~take_s2, j2, j1)
        val = np.where(clash, np.maximum(s1 + d2, s2 + d1), s1 + d1)
        val[a] = -np.inf
        ap = int(np.argmax(val))
        if val[ap] > best:
            best, seed = float(val[ap]), (a, ap, int(b[ap]), int(bp[ap]))
    return best, seed


@pytest.mark.parametrize("chunk", [1, analysis._CHUNK])
def test_bell_seed_is_the_first_best_grid_point(monkeypatch, rng, chunk):
    """On small-integer grids, full of exact ties, the seed search finds the
    largest B and keeps the first (a, a') that reaches it, in blocks of one
    row of a or of all of them; on these and on uniform grids it returns
    what the row-by-row search returns."""
    monkeypatch.setattr(analysis, "_CHUNK", chunk)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        E = rng.integers(-2, 3, size=(n, n)).astype(float)
        value, (a, ap, b, bp) = analysis._best_seed(E)
        assert (value, (a, ap)) == first_best_pair(E)
        assert a != ap and b != bp
        assert E[a, b] + E[a, bp] + E[ap, b] - E[ap, bp] == value
        assert analysis._best_seed(E) == row_by_row_seed(E)
    for n in (2, 9, 25, 40):
        E = rng.uniform(-1.0, 1.0, size=(n, n))
        assert analysis._best_seed(E) == row_by_row_seed(E)


@pytest.mark.parametrize("radius", [0.0, -1.0, math.nan])
def test_bell_search_refuses_a_radius_that_is_not_positive(radius):
    with pytest.raises(ValueError, match="radius"):
        BellSearch(radius=radius)


def test_chsh_optimize_on_vacuum_stays_classical():
    reg = plain_register([1, 2], 12)
    _, val = chsh_optimize(basis_state(reg, {}), BellSearch(grid_density=7, radius=0.8))
    assert val <= 2.0 + 1e-6


def test_chsh_optimize_matches_closed_form_optimum():
    alpha = 1.5
    reg = plain_register([1, 2], coherent_cutoff(alpha + 1.0))
    pair = entangled_cat_pair(reg, mode(1), mode(2), alpha, "-")
    _, val = chsh_optimize(pair, BellSearch(radius=1.0))
    corr = oracles.cat_pair_correlator(alpha)
    oracle = oracles.zoom_grid_chsh(corr, 1.0)
    assert val == pytest.approx(oracle, abs=1e-3)
    assert 2.0 < val <= TSIRELSON + 1e-3


def test_chsh_complex_search_contains_imaginary_line_search():
    # the complex search must never fall below the line search it contains
    alpha, radius = 1.0, 1.0
    reg = plain_register([1, 2], coherent_cutoff(alpha + radius + 0.3))
    pair = entangled_cat_pair(reg, mode(1), mode(2), alpha, "-")
    _, imag_val = chsh_optimize(pair, BellSearch(radius=radius))
    settings, complex_val = chsh_optimize(pair, BellSearch(radius=radius, axis="complex"))
    assert complex_val >= imag_val - 1e-9
    assert abs(chsh_displaced_parity(pair, settings)) == pytest.approx(complex_val, abs=1e-12)


def test_chsh_optimize_maximizes_magnitude_of_negative_branch():
    # at small amplitude the pair's only violation has B < -2 (at alpha 0.5
    # the largest positive B is about 1.609); the search must report |B|
    alpha, radius = 0.5, 1.0
    reg = plain_register([1, 2], coherent_cutoff(alpha + radius + 0.3))
    pair = entangled_cat_pair(reg, mode(1), mode(2), alpha, "-")
    settings, val = chsh_optimize(pair, BellSearch(radius=radius))
    assert chsh_displaced_parity(pair, settings) == pytest.approx(-val, abs=1e-12)
    oracle = oracles.zoom_grid_chsh(oracles.cat_pair_correlator(alpha), radius)
    assert val == pytest.approx(oracle, abs=1e-3)
    assert 2.0 < val <= TSIRELSON + 1e-3


def test_chsh_invariant_under_common_displacement():
    alpha = 0.8
    shift = 0.3
    reg = plain_register([1, 2], coherent_cutoff(alpha + 1.5) + 6)
    pair = entangled_cat_pair(reg, mode(1), mode(2), alpha, "-")
    moved = displace(displace(pair, mode(1), shift), mode(2), shift)
    s = BellSettings(0.2j, -0.15j, 0.1j, 0.25j)
    s_shifted = BellSettings(s.beta1 + shift, s.beta1p + shift,
                             s.beta2 + shift, s.beta2p + shift)
    assert chsh_displaced_parity(moved, s_shifted) == pytest.approx(
        chsh_displaced_parity(pair, s), abs=1e-8)


def test_chsh_optimize_rejects_unsafe_radius():
    reg = plain_register([1, 2], 8)
    pair = entangled_cat_pair(reg, mode(1), mode(2), 0.5, "-", tail_eps=1e-6)
    with pytest.raises(CutoffError):
        chsh_optimize(pair, BellSearch(radius=2.5))


def test_chsh_search_checks_the_cutoff_edge_only_on_its_lines():
    # this pair stays on the cutoff to radius 1.405 on the imaginary line
    # but only to 0.756 on the real one
    reg = plain_register([1, 2], coherent_cutoff(1.5))
    pair = entangled_cat_pair(reg, mode(1), mode(2), 1.0, "-", tail_eps=1e-6)
    settings, value = chsh_optimize(pair, BellSearch(axis="imag", radius=1.0))
    assert value > 2.0
    with pytest.raises(CutoffError, match=r"^search radius 1\.5 is not cutoff-safe: "):
        chsh_optimize(pair, BellSearch(axis="imag", radius=1.5))
    with pytest.raises(CutoffError, match=r"^search radius 1\.0 is not cutoff-safe: "):
        chsh_optimize(pair, BellSearch(axis="real", radius=1.0))


def _central_differences(f, x: np.ndarray, h_grad: float = 1e-5, h_hess: float = 1e-4):
    """Central-difference gradient and Hessian of a scalar f at x."""
    steps = np.eye(len(x))
    grad = np.array([(f(x + h_grad * e) - f(x - h_grad * e)) / (2 * h_grad) for e in steps])
    hess = np.empty((len(x), len(x)))
    for i, j in zip(*np.triu_indices(len(x))):
        a, b = h_hess * steps[i], h_hess * steps[j]
        hess[i, j] = hess[j, i] = (f(x + a + b) - f(x + a - b) - f(x - a + b)
                                   + f(x - a - b)) / (4 * h_hess**2)
    return grad, hess


def _cat_pair(alpha: float, cutoff: int | None = None, tail_eps: float = 1e-12):
    reg = plain_register([1, 2], cutoff or coherent_cutoff(alpha + 1.3))
    return entangled_cat_pair(reg, mode(1), mode(2), alpha, "-", tail_eps)


@pytest.mark.parametrize("alpha, axis", [(0.5, "imag"), (1.0, "imag"), (2.0, "imag"),
                                         (3.0, "imag"), (1.0, "real"), (0.5, "complex"),
                                         (2.0, "complex")])
def test_chsh_optimum_is_a_local_maximum_of_abs_b(alpha, axis):
    # finite differences of chsh_displaced_parity only: along the search line
    # for a line search, over all 8 real parameters for the complex search
    pair = _cat_pair(alpha)
    settings, val = chsh_optimize(pair, BellSearch(axis=axis))
    betas = np.array([settings.beta1, settings.beta1p, settings.beta2, settings.beta2p])
    if axis == "complex":
        x0 = np.concatenate([betas.real, betas.imag])

        def to_settings(x):
            return BellSettings(*(x[:4] + 1j * x[4:]))
    else:
        unit = 1j if axis == "imag" else 1.0
        x0 = (betas / unit).real

        def to_settings(x):
            return BellSettings(*(x * unit))

    sign = math.copysign(1.0, chsh_displaced_parity(pair, settings))

    def abs_b(x):
        return sign * chsh_displaced_parity(pair, to_settings(x))

    assert abs_b(x0) == pytest.approx(val, abs=1e-12)
    grad, hess = _central_differences(abs_b, x0)
    assert np.abs(grad).max() <= 1e-7
    assert np.linalg.eigvalsh(hess).max() <= 1e-5


def test_chsh_derivatives_match_central_differences(rng):
    # B, gradient and Hessian of the Newton ascent on a line, against central
    # differences of the plain correlators
    from dualcat.analysis import _chsh_derivatives

    pair = _cat_pair(1.0)
    for unit in (1j, 1.0, complex(math.cos(0.4), math.sin(0.4))):
        corr = ParityCorrelator(pair).line(unit)

        def line_b(x):
            e = corr(x[:2], x[2:])
            return e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]

        x = rng.uniform(-0.6, 0.6, 4)
        val, grad, hess = _chsh_derivatives(corr.jets(x[:2], x[2:]))
        fd_grad, fd_hess = _central_differences(line_b, x)
        assert val == pytest.approx(line_b(x), abs=1e-13)
        assert np.abs(grad - fd_grad).max() <= 1e-7
        assert np.abs(hess - fd_hess).max() <= 1e-5
        assert np.array_equal(hess, hess.T)


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_complex_search_is_the_better_line_search(alpha):
    # on a cat pair no off-line step gains, so the complex search returns the
    # better line search's settings and |B| as they are
    pair = _cat_pair(alpha)
    found = chsh_optimize(pair, BellSearch(axis="complex"))
    lines = [chsh_optimize(pair, BellSearch(axis=axis)) for axis in ("imag", "real")]
    assert found == max(lines, key=lambda line: line[1])


def _safe_radius_limit(pair) -> float:
    """Largest radius that chsh_optimize accepts, by bisection on its probes."""
    def safe(r):
        try:
            for probe in (r, -r, 1j * r, -1j * r):
                displaced_parity_expect(pair, probe, probe)
        except CutoffError:
            return False
        return True

    lo, hi = 0.0, 5.0
    for _ in range(60):
        lo, hi = ((lo + hi) / 2, hi) if safe((lo + hi) / 2) else (lo, (lo + hi) / 2)
    return lo


@pytest.mark.parametrize("axis", ["imag", "real", "complex"])
def test_chsh_refinement_stays_inside_the_cutoff_edge(axis):
    # a tight register: the real-line optimum lies on the cutoff edge, where
    # the ascent must stop short of it
    pair = _cat_pair(1.0, cutoff=coherent_cutoff(1.5), tail_eps=1e-6)
    radius = _safe_radius_limit(pair) * (1.0 - 1e-6)
    seed_settings, seed_val = chsh_optimize(pair, BellSearch(radius=radius, axis=axis,
                                                             refine_iters=0))
    settings, val = chsh_optimize(pair, BellSearch(radius=radius, axis=axis))
    assert abs(chsh_displaced_parity(pair, settings)) == pytest.approx(val, abs=1e-12)
    assert val >= seed_val
    if axis != "complex":
        # refine_iters=0 returns a grid seed as it is
        grid = np.linspace(-radius, radius, BellSearch().grid_density)
        unit = 1j if axis == "imag" else 1.0
        assert all(np.any((b / unit).real == grid) and (b / unit).imag == 0.0
                   for b in (seed_settings.beta1, seed_settings.beta1p,
                             seed_settings.beta2, seed_settings.beta2p))
    assert abs(chsh_displaced_parity(pair, seed_settings)) == pytest.approx(seed_val, abs=1e-12)


@pytest.mark.parametrize("unit", [1j, 1.0, complex(math.cos(0.4), math.sin(0.4))])
def test_every_evaluator_keeps_one_edge_rule(monkeypatch, unit):
    # a tight register and settings on the imaginary line, the real line and
    # neither: with tail_eps at a pair's own edge-mass sum every evaluator
    # accepts the pair, and one ulp below it every one refuses it
    from dualcat import analysis

    pair = _cat_pair(1.0, cutoff=coherent_cutoff(1.5), tail_eps=1e-6)
    t1, t2 = np.array([0.9]), np.array([-0.7])
    b1, b2 = t1 * unit, t2 * unit
    top = ParityCorrelator(pair, tail_eps=math.inf).check(b1, b2)[0, 0]
    assert top > 0.0
    # the grid around the pair: the pair holds its largest edge mass
    grid1, grid2 = np.array([0.0, t1[0]]), np.array([t2[0], 0.3])
    assert ParityCorrelator(pair, tail_eps=math.inf).check(grid1 * unit, grid2 * unit).max() == top
    for tail_eps, accepted in ((top, True), (np.nextafter(top, 0.0), False)):
        corr = ParityCorrelator(pair, tail_eps)
        line = corr.line(unit)
        monkeypatch.setattr(analysis, "ParityCorrelator",
                            lambda state: ParityCorrelator(state, tail_eps))
        evaluators = {
            "call": lambda: corr(b1, b2),
            "line grid": lambda: line(grid1, grid2),
            "line jets": lambda: line.jets(t1, t2),
            "displaced_parity_expect": lambda: displaced_parity_expect(pair, b1[0], b2[0],
                                                                        tail_eps),
            "chsh_displaced_parity": lambda: chsh_displaced_parity(
                pair, BellSettings(b1[0], b1[0], b2[0], b2[0])),
        }
        for name, evaluate in evaluators.items():
            if accepted:
                evaluate()
            else:
                with pytest.raises(CutoffError):
                    evaluate()
                    pytest.fail(f"{name} accepted an edge mass above tail_eps")


@pytest.mark.parametrize("axis", ["imag", "real", "complex"])
def test_chsh_optimize_builds_no_displacement_matrix(monkeypatch, axis):
    from dualcat import elements, fock

    calls = []
    for module in (fock, elements):
        real = module.displacement_matrix
        monkeypatch.setattr(module, "displacement_matrix",
                            lambda *args, real=real: calls.append(args) or real(*args))
    pair = _cat_pair(0.5)
    chsh_optimize(pair, BellSearch(axis=axis))
    assert calls == []
    displace(pair, mode(1), 0.1)  # the counter sees a displacement matrix
    assert len(calls) == 1


@pytest.mark.parametrize("alpha", [0.01, 0.02, 0.05, 0.1, 0.3, 0.49, 1.0, 1.5, 3.0, 4.4, -1.2])
def test_cat_amplitude_readout_is_the_true_amplitude(alpha):
    reg = polarized_register([1], coherent_cutoff(alpha))
    for pair in (generate_entangled_cat(alpha).output_state,
                 analytic_dual_rail_pair(reg, alpha, "-"), analytic_dual_rail_pair(reg, alpha, "+")):
        assert abs(_infer_cat_amplitude(pair) - abs(alpha)) <= 2e-15 * abs(alpha)


def test_cat_amplitude_readout_refuses_a_register_without_two_photons_in_1h():
    reg = ModeRegister.of({mode(1, "H"): 1, mode(1, "V"): 3})
    pair = normalized(add(basis_state(reg, {mode(1, "H"): 1}),
                          scale(basis_state(reg, {mode(1, "V"): 1}), -1.0)))
    with pytest.raises(DegenerateInputError, match="no amplitude information"):
        _infer_cat_amplitude(pair)


# ---------------------------------------------------------------------------
# quantum Fisher information


def test_qfi_of_coherent_probe_is_shot_noise():
    reg = plain_register([1, 2], coherent_cutoff(1.3))
    s = coherent(reg, mode(1), 1.3)
    assert qfi_phase(s, mode(1)) == pytest.approx(4 * 1.3**2, abs=1e-9)


def test_qfi_of_fock_state_vanishes():
    reg = plain_register([1, 2], 6)
    s = basis_state(reg, {mode(1): 4})
    assert qfi_phase(s, mode(1)) == pytest.approx(0.0, abs=1e-12)


def test_qfi_matches_overlap_decay_oracle():
    noon = noon_from_cat_pair(1.5)
    direct = qfi_phase(noon, mode(1))
    decay = qfi_phase_decay(noon, mode(1))
    assert abs(decay - direct) / direct < 1e-3


def test_noon_state_beats_shot_noise_for_alpha_at_least_one():
    for alpha in (1.0, 1.5, 2.0):
        noon = noon_from_cat_pair(alpha)
        qfi = qfi_phase(noon, mode(1))
        nbar = total_mean_photons(noon)
        assert qfi > 4.0 * nbar


def test_qfi_heisenberg_ratio_approaches_constant():
    ratios = []
    for alpha in (1.0, 1.5, 2.0, 2.5):
        noon = noon_from_cat_pair(alpha)
        nbar = total_mean_photons(noon)
        ratios.append(qfi_phase(noon, mode(1)) / nbar**2)
    # 1 + 1/(2 a^2): decreasing toward the Heisenberg coefficient 1
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1.0 + 1.0 / (2 * 2.5**2), abs=1e-6)
