"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criterion 6 checks the displaced-parity CHSH value |B| of the cat pair
(the strongest violation has B < -2, so |B| is maximized), and criterion 7
checks the Fisher information of the |2a,0> - |0,2a> probe against its
exact closed form, whose Heisenberg-limited plateau is QFI / (nbar^2 +
2 nbar) (see the repository README).
"""

import math
import time

import numpy as np

import oracles
from dualcat import analysis
from dualcat.analysis import (
    BellSearch,
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
    access_parity,
    access_polarization,
    analytic_coherent_bell,
    analytic_subtracted_bell,
    generate_entangled_cat,
    generate_even_cat_control,
    noon_from_cat_pair,
    run_ifm,
    sv_access_polarization,
    sv_antisqueeze_to_single_photon,
    sv_generate,
)
from dualcat.elements import Imperfection
from dualcat.fock import (
    PureState,
    add,
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
PATH12_RAILS = [mode(1, "H"), mode(1, "V"), mode(2, "H"), mode(2, "V")]


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


def test_criterion_1_split_exactness():
    t0 = time.time()
    worst_coh = worst_cat = 1.0
    for alpha in (0.8, 1.5):
        cutoff = coherent_cutoff(math.sqrt(2.0) * alpha)
        reg = plain_register([1, 2], cutoff)
        src = cat(reg, mode(1), math.sqrt(2.0) * alpha, "odd")
        out = apply_two_mode_mixer(src, mode(1), mode(2), math.pi / 4.0)
        coh_target = entangled_cat_pair(reg, mode(1), mode(2), alpha, "-")
        worst_coh = min(worst_coh, fidelity(out, coh_target))
        # and the same output expressed in the orthogonal cat basis
        eo = product(cat(reg, mode(1), alpha, "even"),
                     cat(reg, mode(2), alpha, "odd"))
        oe = product(cat(reg, mode(1), alpha, "odd"),
                     cat(reg, mode(2), alpha, "even"))
        cat_target = normalized(add(eo, scale(oe, -1.0)))
        worst_cat = min(worst_cat, fidelity(out, cat_target))
    elapsed = time.time() - t0
    ok = worst_coh >= 1.0 - 1e-9 and worst_cat >= 1.0 - 1e-10 and elapsed < 1.0
    report(1, ok, f"coherent-pair fidelity {worst_coh:.3e} (>=1-1e-9), "
                  f"cat-basis fidelity {worst_cat:.3e} (>=1-1e-10), {elapsed:.2f}s")
    assert worst_coh >= 1.0 - 1e-9
    assert worst_cat >= 1.0 - 1e-10
    assert elapsed < 1.0


def test_criterion_2_full_ebit_generation():
    worst = 0.0
    for alpha in (0.8, 1.2, 2.0):
        rep = generate_entangled_cat(alpha)
        e = entanglement(rep.output_state, [mode(1, "H")]).entropy_bits
        worst = max(worst, abs(e - 1.0))

    ctrl_err = 0.0
    below_one = True
    for alpha in (0.8, 1.2, 2.0):
        rep = generate_even_cat_control(alpha)
        s = entanglement(rep.output_state, [mode(1, "H")])
        x = math.exp(-2.0 * alpha**2)
        pe, po = (1.0 + x) ** 2, (1.0 - x) ** 2
        z = pe + po
        expected = -(pe / z) * math.log2(pe / z) - (po / z) * math.log2(po / z)
        ctrl_err = max(ctrl_err, abs(s.entropy_bits - expected))
        below_one = below_one and s.entropy_bits < 1.0
    ok = worst <= 1e-6 and ctrl_err <= 1e-6 and below_one
    report(2, ok, f"odd-cat entropy off by {worst:.2e} (<=1e-6); even-cat control "
                  f"off closed form by {ctrl_err:.2e} (<=1e-6), strictly below 1 bit: {below_one}")
    assert worst <= 1e-6
    assert ctrl_err <= 1e-6
    assert below_one


def test_criterion_3_duality_invariant():
    alpha = 1.2
    gen = generate_entangled_cat(alpha)
    e_gen = entanglement(gen.output_state, [mode(1, "H")]).entropy_bits
    e_par = entanglement(access_parity(gen.output_state).output_state,
                         [mode(1, "H"), mode(1, "V")]).entropy_bits
    acc = access_polarization(gen.output_state)
    e_pol = entanglement(acc.output_state,
                         [mode(1, "H"), mode(1, "V")]).entropy_bits
    target = analytic_coherent_bell(
        polarized_register([1, 2], max(acc.output_state.register.cutoffs)),
        alpha / math.sqrt(2.0))
    bell_fid = subsystem_fidelity(acc.output_state, target, PATH12_RAILS)
    ok = (abs(e_par - e_gen) <= 1e-6 and abs(e_pol - e_gen) <= 1e-6
          and bell_fid >= 1.0 - 1e-6)
    report(3, ok, f"entropies gen/parity/polarization = "
                  f"{e_gen:.8f}/{e_par:.8f}/{e_pol:.8f} (match to 1e-6), "
                  f"conditional Bell fidelity {bell_fid:.8f} (>=1-1e-6)")
    assert abs(e_par - e_gen) <= 1e-6
    assert abs(e_pol - e_gen) <= 1e-6
    assert bell_fid >= 1.0 - 1e-6


def test_criterion_4_imperfection_behavior():
    gen = generate_entangled_cat(1.2)
    negs = []
    for off in (0.0, 0.1, 0.3, 0.6):
        acc = access_polarization(gen.output_state, Imperfection(displacement_offset=off))
        q = polarization_qubit_state(acc.output_state, 1, 2)
        negs.append(negativity_two_qubit(q.rho)[0])
    monotone = all(a >= b - 1e-12 for a, b in zip(negs, negs[1:]))
    maximal_at_zero = negs[0] == max(negs)

    acc0 = access_polarization(gen.output_state, Imperfection(flip_angle=0.0))
    q0 = polarization_qubit_state(acc0.output_state, 1, 2)
    neg0 = negativity_two_qubit(q0.rho)[0]
    ok = monotone and maximal_at_zero and neg0 <= 1e-9
    report(4, ok, f"negativity along |B-A| grid {[round(n, 6) for n in negs]} "
                  f"non-increasing: {monotone}; flip_angle=0 negativity {neg0:.2e}")
    assert monotone
    assert maximal_at_zero
    assert neg0 <= 1e-9


def test_criterion_5_interaction_free_measurement():
    t0 = time.time()
    bomb = run_ifm("entangled", bomb=True)
    clear = run_ifm("entangled", bomb=False)
    single = run_ifm("single_photon", bomb=True)
    nonmax = run_ifm("nonmaximal", bomb=False, theta=math.pi / 6)
    elapsed = time.time() - t0

    checks = {
        "explode": abs(bomb.scalars["explode"] - 0.5) <= 1e-9,
        "diff": abs(bomb.scalars["diff_pol"] - 0.25) <= 1e-9,
        "eta": abs(bomb.scalars["eta"] - 1.0 / 3.0) <= 1e-9,
        "no-bomb diff": clear.scalars["diff_pol"] <= 1e-12,
        "single-photon eta": abs(single.scalars["eta"] - 0.5) <= 1e-9,
        "nonmaximal diff": nonmax.scalars["diff_pol"] > 1e-3,
        "nonmaximal eta": nonmax.scalars["eta"] == 0.0,
        "runtime": elapsed < 1.0,
    }
    ok = all(checks.values())
    report(5, ok, f"P(explode)={bomb.scalars['explode']:.9f}, "
                  f"P(diff)={bomb.scalars['diff_pol']:.9f}, eta={bomb.scalars['eta']:.9f}, "
                  f"single-photon eta={single.scalars['eta']:.9f}, "
                  f"nonmaximal no-bomb diff={nonmax.scalars['diff_pol']:.4f} "
                  f"(eta reported {nonmax.scalars['eta']}), {elapsed:.2f}s")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_6_bell_violation_grid():
    """Optimized CHSH value |B| on |a,-a> - |-a,a>: a violation (> 2) at
    every alpha, a monotone approach to the quantum bound 2 sqrt 2, and
    agreement with an independent zoom-grid oracle.  The strongest violation
    of this anti-correlated pair has B < -2, so both the engine and the
    oracle maximize |B|, the quantity the local bound |B| <= 2 constrains."""
    t0 = time.time()
    alphas = (0.5, 1.0, 1.5, 2.0)
    radius = 1.0
    values = {}
    oracle_gap = 0.0
    for alpha in alphas:
        cutoff = coherent_cutoff(alpha + radius + 0.3)
        reg = plain_register([1, 2], cutoff)
        pair = entangled_cat_pair(reg, mode(1), mode(2), alpha, "-")
        _, val = analysis.chsh_optimize(pair, BellSearch(radius=radius))
        values[alpha] = val

        # independent dense-grid oracle: Laguerre-matrix correlators fed to
        # an iterative zoom grid, same cutoff
        oracle_val = oracles.zoom_grid_chsh(oracles.cached_dense_correlator(pair),
                                            radius)
        oracle_gap = max(oracle_gap, abs(val - oracle_val))

    elapsed = time.time() - t0
    ordered = [values[a] for a in alphas]
    increasing = all(a < b for a, b in zip(ordered, ordered[1:]))
    bounded = all(v <= TSIRELSON + 1e-3 for v in ordered)
    violated = all(v > 2.0 for v in ordered)
    ok = increasing and bounded and violated and oracle_gap <= 1e-3 and elapsed < 300
    report(6, ok, f"optimized |CHSH| {[round(v, 6) for v in ordered]} on alpha {list(alphas)}; "
                  f"increasing: {increasing}, <=2sqrt2+1e-3: {bounded}, "
                  f"all > 2: {violated}, max |opt - oracle| = {oracle_gap:.2e}, "
                  f"{elapsed:.0f}s")
    assert increasing
    assert bounded
    assert oracle_gap <= 1e-3
    assert elapsed < 300
    assert violated, f"no displaced-parity CHSH violation (|B| > 2): optimized values {values}"


def test_criterion_7_phase_estimation():
    """Heisenberg-limited Fisher information of N(|2a,0> - |0,2a>): shot-noise
    beating, the overlap-decay oracle, the exact closed form
    QFI = 2(g^4 + g^2)/(1-x) - g^4/(1-x)^2 with g^2 = 4 a^2, x = e^{-g^2},
    and the flatness of QFI / (nbar^2 + 2 nbar) between alpha = 1.5 and 2.5.
    (QFI / nbar^2 itself is 1 + 1/(2 a^2) and is not flat.)"""
    beats_shot = True
    oracle_rel = 0.0
    closed_rel = 0.0
    heisenberg = {}
    for alpha in (1.0, 1.5, 2.0, 2.5):
        noon = noon_from_cat_pair(alpha)
        qfi = qfi_phase(noon, mode(1))
        nbar = total_mean_photons(noon)
        if alpha >= 1.0 and qfi <= 4.0 * nbar:
            beats_shot = False
        oracle_rel = max(oracle_rel, abs(qfi_phase_decay(noon, mode(1)) - qfi) / qfi)
        exact_qfi, _ = oracles.displaced_cat_pair_fisher(alpha)
        closed_rel = max(closed_rel, abs(qfi - exact_qfi) / exact_qfi)
        heisenberg[alpha] = qfi / (nbar**2 + 2.0 * nbar)

    plateau = abs(heisenberg[1.5] - heisenberg[2.5]) / heisenberg[1.5]
    ok = beats_shot and oracle_rel <= 1e-3 and closed_rel <= 1e-9 and plateau < 0.05
    report(7, ok, f"QFI > 4 nbar for alpha >= 1: {beats_shot}; decay-oracle "
                  f"relative error {oracle_rel:.2e} (<=1e-3); closed-form relative "
                  f"error {closed_rel:.2e} (<=1e-9); QFI/(nbar^2 + 2 nbar) at 1.5/2.5 = "
                  f"{heisenberg[1.5]:.6f}/{heisenberg[2.5]:.6f}, variation {plateau:.3%} (<5%)")
    assert beats_shot
    assert oracle_rel <= 1e-3
    assert closed_rel <= 1e-9, (
        f"qfi_phase is {closed_rel:.2e} relative off the exact Fisher information "
        f"of N(|2a,0> - |0,2a>)")
    assert plateau < 0.05, (
        f"QFI/(nbar^2 + 2 nbar) varies by {plateau:.3%} between alpha 1.5 and 2.5; "
        f"the exact ratio is flat to e^(-4 alpha^2)")


def test_criterion_8_squeezed_vacuum_variant():
    rep = sv_generate(0.8, 0.5)
    reg = rep.output_state.register
    from dualcat.fock import apply_annihilation
    from dualcat.states import squeezed_vacuum

    prod = product(squeezed_vacuum(reg, mode(1, "H"), 0.8),
                   squeezed_vacuum(reg, mode(1, "V"), 0.8))
    target = scale(add(apply_annihilation(prod, mode(1, "H")),
                       apply_annihilation(prod, mode(1, "V"))),
                   1.0 / (math.sqrt(2.0) * math.sinh(0.8)))
    gen_fid = fidelity(rep.output_state, target)

    entropies = {t: entanglement(sv_generate(0.8, t).output_state,
                                 [mode(1, "H")]).entropy_bits
                 for t in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)}
    peak_at_balance = max(entropies, key=entropies.get) == 0.5

    anti_fid = 1.0
    for r in (0.5, 1.2):
        out = sv_antisqueeze_to_single_photon(r).output_state
        bell = normalized(add(basis_state(out.register, {mode(1): 1}),
                              basis_state(out.register, {mode(2): 1})))
        anti_fid = min(anti_fid, fidelity(out, bell))

    acc = sv_access_polarization(sv_generate(0.7, 0.5).output_state)
    pipeline_target = analytic_subtracted_bell(
        polarized_register([1, 2], max(acc.output_state.register.cutoffs)), 0.7)
    pipe_fid = subsystem_fidelity(acc.output_state, pipeline_target, PATH12_RAILS)
    book = abs(acc.postselect_probability - math.prod(p for _, p in acc.branch_log))

    ok = (gen_fid >= 1.0 - 1e-9 and peak_at_balance and anti_fid >= 1.0 - 1e-9
          and pipe_fid >= 1.0 - 1e-6 and book <= 1e-10)
    report(8, ok, f"source fidelity {gen_fid:.3e}, entropy peak at T=1/2: "
                  f"{peak_at_balance}, anti-squeeze fidelity {anti_fid:.3e}, "
                  f"pipeline fidelity {pipe_fid:.3e}, bookkeeping gap {book:.1e}")
    assert gen_fid >= 1.0 - 1e-9
    assert peak_at_balance
    assert anti_fid >= 1.0 - 1e-9
    assert pipe_fid >= 1.0 - 1e-6
    assert book <= 1e-10


def test_criterion_9_engine_invariants():
    t0 = time.time()
    rng = np.random.default_rng(7)

    # unitarity and norm bookkeeping through a mixed pipeline
    reg = plain_register([1, 2], 24)
    psi = coherent(reg, mode(1), 1.0)
    for theta, phase in ((0.61, 0.0), (-0.61, 0.0), (math.pi / 4, 1.2)):
        psi = apply_two_mode_mixer(psi, mode(1), mode(2), theta, phase)
    unitary_ok = abs(psi.norm() - 1.0) < 1e-9 and psi.norm_deficit < 1e-12

    # partial trace equals the dense oracle on <=3 modes, cutoff <= 5
    reg3 = plain_register([1, 2, 3], 5)
    keys = set()
    while len(keys) < 12:
        keys.add(tuple(int(rng.integers(0, 3)) for _ in range(3)))
    state = normalized(PureState(
        reg3, {k: complex(rng.normal(), rng.normal()) for k in keys}, 0.0))
    view = partial_trace(state, [mode(1), mode(3)])
    dense = oracles.dense_reduced_density(state, [0, 2])
    lifted = np.zeros_like(dense)
    for i, pi in enumerate(view.basis):
        for j, pj in enumerate(view.basis):
            lifted[pi[0] * 6 + pi[1], pj[0] * 6 + pj[1]] = view.matrix[i, j]
    trace_ok = np.allclose(lifted, dense, atol=1e-10)

    # local unitaries leave entanglement untouched
    pair = entangled_cat_pair(plain_register([1, 2], 16), mode(1), mode(2),
                              0.8, "-", tail_eps=1e-9)
    from dualcat.fock import embed

    big = plain_register([1, 2, 3, 4], 16)
    lifted_pair = embed(pair, big)
    base = entanglement(lifted_pair, [mode(1), mode(3)]).entropy_bits
    moved = apply_two_mode_mixer(lifted_pair, mode(1), mode(3), 0.9, 0.4)
    moved = apply_two_mode_mixer(moved, mode(2), mode(4), -1.1, 2.0)
    local_ok = abs(entanglement(moved, [mode(1), mode(3)]).entropy_bits - base) < 1e-8

    elapsed = time.time() - t0
    ok = unitary_ok and trace_ok and local_ok and elapsed < 30.0
    report(9, ok, f"unitarity/bookkeeping: {unitary_ok}, dense partial-trace "
                  f"oracle: {trace_ok}, local-unitary invariance: {local_ok}, "
                  f"{elapsed:.1f}s (<30s)")
    assert unitary_ok
    assert trace_ok
    assert local_ok
    assert elapsed < 30.0
