"""Oscillator-bath excitation transfer and bath-partition entanglement.

A central harmonic oscillator couples linearly to N bath oscillators; the
coherent-state ansatz reduces the dynamics to a linear amplitude system
solved spectrally (with an RK4 cross-check).  Entanglement between any two
bath partitions is computed in closed form and validated against an
independent Wootters spin-flip pipeline.
"""

from .concurrence import (ConcurrenceSeries, asymptotic_concurrence,
                          concurrence_closed_form, concurrence_series,
                          distinguishability)
from .model import (BathGrid, PartitionSpec, SuperpositionInit, SystemConfig,
                    banded_blocks, build_bath_grid, centered_bipartition,
                    coherent_log_overlap, coherent_overlap,
                    interleaved_bipartition, normalize_superposition)
from .observables import (ExcitationProfile, OverlapSeries,
                          branch_overlap_series, excitation_profile,
                          mean_excitations, verify_overlap_factorization)
from .propagation import (AmplitudeTrajectory, IntegrationFailure,
                          build_generator, evolve_exact, evolve_rk4,
                          gershgorin_bound, norm_residual)
from .scenarios import (TOOL_VERSION, RunManifest, Scenario, preset,
                        preset_document, preset_names, run_scenario,
                        run_sweep, scenario_from_dict, scenario_to_dict)
from .wootters import (QubitEmbedding, TwoQubitDensityMatrix,
                       build_density_matrix, crosscheck,
                       factored_product_eigenvalues, oracle_residuals,
                       product_eigenvalues, qubit_embedding, spin_flip,
                       wootters_concurrence)
from .checks import CheckResult, run_verification

__version__ = TOOL_VERSION

__all__ = [
    "SystemConfig", "BathGrid", "PartitionSpec", "SuperpositionInit",
    "coherent_log_overlap", "coherent_overlap", "build_bath_grid",
    "centered_bipartition", "banded_blocks", "interleaved_bipartition",
    "normalize_superposition",
    "AmplitudeTrajectory", "IntegrationFailure", "build_generator",
    "evolve_exact", "evolve_rk4", "norm_residual", "gershgorin_bound",
    "ExcitationProfile", "OverlapSeries", "excitation_profile",
    "mean_excitations", "branch_overlap_series", "verify_overlap_factorization",
    "ConcurrenceSeries", "distinguishability", "concurrence_closed_form",
    "asymptotic_concurrence", "concurrence_series",
    "QubitEmbedding", "TwoQubitDensityMatrix", "qubit_embedding",
    "build_density_matrix", "spin_flip", "wootters_concurrence",
    "product_eigenvalues", "factored_product_eigenvalues", "oracle_residuals",
    "crosscheck",
    "Scenario", "RunManifest", "preset", "preset_names", "preset_document",
    "scenario_from_dict", "scenario_to_dict", "run_scenario", "run_sweep",
    "CheckResult", "run_verification", "TOOL_VERSION",
]
