"""dualcat: truncated Fock-space toolkit for polarization/parity entangled
macroscopic light — generation, degree-of-freedom access, displaced-parity
Bell tests, interaction-free measurement and the squeezed-vacuum route."""

from .analysis import (
    BellSearch,
    BellSettings,
    EntanglementSummary,
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
from .circuits import (
    CircuitReport,
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
from .elements import (
    Imperfection,
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
from .fock import (
    ContractViolationError,
    CutoffError,
    DegenerateInputError,
    DensityView,
    FockError,
    ModeLabel,
    ModeRegister,
    PureState,
    RegisterMismatchError,
    UnknownModeError,
    add,
    apply_annihilation,
    apply_creation,
    apply_two_mode_mixer,
    basis_state,
    coherent_cutoff,
    embed,
    inner_product,
    mode,
    normalized,
    partial_trace,
    plain_register,
    polarized_register,
    scale,
    squeezed_cutoff,
)
from .results import ExperimentResult, Table
from .states import (
    CatParams,
    SqueezeParams,
    cat,
    coherent,
    entangled_cat_pair,
    squeezed_vacuum,
    subtracted_sv,
)

__version__ = "0.1.0"
