"""Perfect routing of single excitations through cavity-atom networks.

The package builds single-excitation Hamiltonians for three topologies
(diamond chain, four-port switch, honeycomb-style lattice), block-decomposes
them into invariant collective subspaces, evolves states exactly by
eigendecomposition, locates transfer-time peaks, and runs routing schedules
built from free evolution windows and local atomic phase flips.
"""

from .closed_form import (
    analytic_u4,
    analytic_u6,
    validate_analytic,
)
from .collective import (
    BlockHamiltonian,
    OrthogonalTransform,
    block_coupling,
    block_decompose,
    chain_collective_basis,
    extract_block,
    lattice_collective_basis,
    switch_collective_basis,
)
from .evolution import (
    ExcitationState,
    Spectrum,
    TransferResult,
    auto_grid_points,
    eigendecompose,
    find_transfer_time,
    photon_population,
    propagate,
    site_population,
    transition_amplitudes,
)
from .network import (
    DISPERSIVE,
    HADAMARD_SIGNS,
    RESONANT,
    HexLatticeDescriptor,
    HexLayout,
    NetworkSpec,
    Site,
    SystemParams,
    atom_index,
    build_diamond_chain,
    build_hex_lattice,
    build_single_excitation_hamiltonian,
    build_switch,
    cavity_index,
    hex_lattice_layout,
)
from .routing import (
    EntanglementResult,
    Evolve,
    PhaseFlip,
    PhaseShift,
    Schedule,
    TraceResult,
    chain_routing_schedule,
    entanglement_transfer,
    hex_routing_schedule,
    local_phase_flip,
    run_schedule,
    switch_port_flip,
    switch_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "BlockHamiltonian",
    "DISPERSIVE",
    "EntanglementResult",
    "Evolve",
    "ExcitationState",
    "HADAMARD_SIGNS",
    "HexLatticeDescriptor",
    "HexLayout",
    "NetworkSpec",
    "OrthogonalTransform",
    "PhaseFlip",
    "PhaseShift",
    "RESONANT",
    "Schedule",
    "Site",
    "Spectrum",
    "SystemParams",
    "TraceResult",
    "TransferResult",
    "analytic_u4",
    "analytic_u6",
    "atom_index",
    "auto_grid_points",
    "block_coupling",
    "block_decompose",
    "build_diamond_chain",
    "build_hex_lattice",
    "build_single_excitation_hamiltonian",
    "build_switch",
    "cavity_index",
    "chain_collective_basis",
    "chain_routing_schedule",
    "eigendecompose",
    "entanglement_transfer",
    "extract_block",
    "find_transfer_time",
    "hex_lattice_layout",
    "hex_routing_schedule",
    "lattice_collective_basis",
    "local_phase_flip",
    "photon_population",
    "propagate",
    "run_schedule",
    "site_population",
    "switch_collective_basis",
    "switch_port_flip",
    "switch_schedule",
    "transition_amplitudes",
    "validate_analytic",
    "__version__",
]
