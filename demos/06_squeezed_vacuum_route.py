"""The squeezed-vacuum alternative to the cat-state source.

A squeezed vacuum has even photon-number support, its photon-subtracted
partner odd support: together they form another parity-orthogonal basis.
A coherent superposition of single-photon subtractions on two squeezed
modes yields the same dual-structure entanglement; a beam-splitter
transmittance T detunes the balance.  Anti-squeezing converts the pair to
single-photon entanglement, and the conditional parity-sorting pipeline
heralds a polarization Bell state on identical subtracted envelopes.
"""

from dualcat import (
    analytic_subtracted_bell,
    basis_state,
    add,
    entanglement,
    fidelity,
    mode,
    normalized,
    polarized_register,
    subsystem_fidelity,
    sv_access_polarization,
    sv_antisqueeze_to_single_photon,
    sv_generate,
)

r = 0.8
print(f"subtraction-superposition source at r = {r}:")
for t in (0.1, 0.3, 0.5, 0.7, 0.9):
    rep = sv_generate(r, t)
    e = entanglement(rep.output_state, [mode(1, "H")]).entropy_bits
    print(f"  T = {t}: entropy = {e:.6f} bits")

print("\nanti-squeezing to single-photon entanglement:")
for rr in (0.5, 1.2):
    rep = sv_antisqueeze_to_single_photon(rr)
    reg = rep.output_state.register
    bell = normalized(add(basis_state(reg, {mode(1): 1}),
                          basis_state(reg, {mode(2): 1})))
    print(f"  r = {rr}: fidelity to (|1,0> + |0,1>)/sqrt2 = "
          f"{fidelity(rep.output_state, bell):.12f}")

print("\nconditional polarization access (r = 0.7):")
acc = sv_access_polarization(sv_generate(0.7, 0.5).output_state)
target = analytic_subtracted_bell(
    polarized_register([1, 2], max(acc.output_state.register.cutoffs)), 0.7)
rails = [mode(1, "H"), mode(1, "V"), mode(2, "H"), mode(2, "V")]
print(f"  heralded fidelity = "
      f"{subsystem_fidelity(acc.output_state, target, rails):.12f} "
      f"at herald probability {acc.postselect_probability:.3f}")
