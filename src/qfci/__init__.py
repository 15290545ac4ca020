"""Full-CI energies by iterative phase estimation on a simulated register."""

from .errors import (
    CapExceeded,
    ConsistencyError,
    DegenerateState,
    DimensionMismatch,
    ElectronCountExceedsOrbitals,
    EmptyAfterThreshold,
    IndexOutOfRange,
    MalformedLine,
    MissingSector,
    OverlapWithCore,
    ParseError,
    QfciError,
    SectorTooLarge,
    WeightNormalization,
)
from .guess import (
    GuessState,
    hf_determinant,
    load_amplitude_guess,
    open_shell_csf,
    random_sector_state,
    write_amplitude_guess,
)
from .hamiltonian import (
    FermionTerm,
    FermionTerms,
    PauliOperator,
    PauliString,
    SectorSpectrum,
    apply_operator,
    build_second_quantized,
    enumerate_sector,
    exact_eigensolve,
    jordan_wigner,
    sector_of,
)
from .integrals import (
    MolecularIntegrals,
    SpinOrbitalIntegrals,
    parse_fcidump,
    random_molecular_integrals,
    to_spin_orbitals,
)
from .phase_estimation import (
    IpeaConfig,
    OutcomeRecord,
    PhaseBits,
    bit_probability,
    ipea_a_run,
    ipea_a_success_probability,
    ipea_b_run,
    ipea_b_success_probability,
    pea_distribution,
    rounding_masses,
    sample_b_outcomes,
)
from .propagator import (
    EvolutionWindow,
    TrotterPlan,
    controlled_u_power_exact,
    recommend_slices,
    trotter_u,
    u_power_exact,
)
from .resources import (
    GateCounts,
    count_controlled_u,
    count_u,
    fci_dimension,
    fitted_exponent,
)
from .statevector import (
    StateVector,
    apply_gate,
    measure_qubit,
    new_register,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded", "ConsistencyError", "DegenerateState", "DimensionMismatch",
    "ElectronCountExceedsOrbitals", "EmptyAfterThreshold",
    "IndexOutOfRange", "MalformedLine", "MissingSector", "OverlapWithCore",
    "ParseError", "QfciError", "SectorTooLarge", "WeightNormalization",
    "GuessState", "hf_determinant", "load_amplitude_guess", "open_shell_csf",
    "random_sector_state", "write_amplitude_guess",
    "FermionTerm", "FermionTerms", "PauliOperator", "PauliString", "SectorSpectrum",
    "apply_operator", "build_second_quantized",
    "enumerate_sector", "exact_eigensolve", "jordan_wigner", "sector_of",
    "MolecularIntegrals", "SpinOrbitalIntegrals", "parse_fcidump",
    "random_molecular_integrals", "to_spin_orbitals",
    "IpeaConfig", "OutcomeRecord", "PhaseBits", "bit_probability", "ipea_a_run",
    "ipea_a_success_probability", "ipea_b_run", "ipea_b_success_probability",
    "pea_distribution", "rounding_masses", "sample_b_outcomes",
    "EvolutionWindow", "TrotterPlan", "controlled_u_power_exact",
    "recommend_slices", "trotter_u", "u_power_exact",
    "GateCounts", "count_controlled_u", "count_u", "fci_dimension", "fitted_exponent",
    "StateVector", "apply_gate", "measure_qubit", "new_register",
    "__version__",
]
