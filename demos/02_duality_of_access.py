"""Access the same entanglement through either degree of freedom.

The generated state can be read as polarization entanglement between
parity-labelled subsystems or as parity entanglement between
polarization-labelled subsystems.  A PBS + half-wave plate exposes the
parity form; the tagged-displacement circuit conditions the polarization
form onto a common coherent envelope.  All three entropies agree.
"""

import math

from dualcat import (
    access_parity,
    access_polarization,
    analytic_coherent_bell,
    entanglement,
    generate_entangled_cat,
    mode,
    negativity_two_qubit,
    polarization_qubit_state,
    polarized_register,
    subsystem_fidelity,
)

alpha = 1.2
gen = generate_entangled_cat(alpha)
e_gen = entanglement(gen.output_state, [mode(1, "H")]).entropy_bits
print(f"generation entropy across the H|V rails : {e_gen:.9f} bits")

parity = access_parity(gen.output_state)
e_par = entanglement(parity.output_state, [mode(1, "H"), mode(1, "V")]).entropy_bits
print(f"parity access entropy across the paths  : {e_par:.9f} bits")

pol = access_polarization(gen.output_state)
e_pol = entanglement(pol.output_state, [mode(1, "H"), mode(1, "V")]).entropy_bits
print(f"polarization access entropy             : {e_pol:.9f} bits")
print(f"herald probability of the access stage  : {pol.postselect_probability:.4f}")
print(f"branch log                              : {pol.branch_log}")

target = analytic_coherent_bell(
    polarized_register([1, 2], max(pol.output_state.register.cutoffs)),
    alpha / math.sqrt(2.0))
rails = [mode(1, "H"), mode(1, "V"), mode(2, "H"), mode(2, "V")]
print(f"conditional fidelity to the coherent-envelope Bell state: "
      f"{subsystem_fidelity(pol.output_state, target, rails):.12f}")

q = polarization_qubit_state(pol.output_state, 1, 2)
neg, logneg = negativity_two_qubit(q.rho)
print(f"logical qubit pair: negativity = {neg:.6f}, log-negativity = {logneg:.6f} "
      f"(captured weight {q.captured_weight:.3f})")
