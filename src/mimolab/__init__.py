"""mimolab: sparse multipath MIMO channels, their estimation limits, and
greedy direction-estimation benchmarks.

The package synthesizes physical-model channels from path parameters,
models hybrid pilot/combiner observation, computes Fisher information and
the Cramer-Rao bound on relative channel error, and benchmarks joint
versus sequential greedy direction estimation inside Matching Pursuit.
"""

from .bench import (BenchRow, ScenarioConfig, draw_scenario, format_table,
                    generate_paths, monte_carlo, run_trial)
from .channel import (ChannelMatrix, PathParams, PathSet, merge_paths,
                      steering_derivatives, steering_matrix, steering_vector,
                      synthesize)
from .estimation import (Dictionary, DirectionGrid, EstimationReport,
                         build_dictionaries, estimate_gain, hemisphere_directions,
                         joint_select, matching_pursuit, reports_to_csv,
                         sequential_select)
from .fim import (CrbResult, channel_jacobian, check_optimal_observation,
                  crb_report, crb_trace, fim_block, fisher_factor, fisher_matrix,
                  inter_path_coupling_mass, intra_path_block, optimal_bound)
from .geometry import (ArrayGeometry, Direction, direction_from_unit,
                       tangent_basis, ula, unit_vector, upa)
from .observation import (ObservationSetup, identity_setup, noise_for_snr, observe,
                          orthogonal_pilots, projection_apply, projection_matrix, snr,
                          span_combiners, span_pilots)

__all__ = [
    "ArrayGeometry", "BenchRow", "ChannelMatrix", "CrbResult", "Dictionary",
    "Direction", "DirectionGrid", "EstimationReport", "ObservationSetup",
    "PathParams", "PathSet", "ScenarioConfig",
    "build_dictionaries", "channel_jacobian",
    "check_optimal_observation", "crb_report", "crb_trace",
    "direction_from_unit", "draw_scenario", "estimate_gain", "fim_block",
    "fisher_factor", "fisher_matrix",
    "format_table", "generate_paths", "hemisphere_directions",
    "identity_setup", "inter_path_coupling_mass", "intra_path_block",
    "joint_select", "matching_pursuit", "merge_paths", "monte_carlo",
    "noise_for_snr", "observe", "optimal_bound", "orthogonal_pilots",
    "projection_apply",
    "projection_matrix", "reports_to_csv", "run_trial",
    "sequential_select", "snr", "span_combiners", "span_pilots",
    "steering_derivatives", "steering_matrix", "steering_vector",
    "synthesize", "tangent_basis", "ula", "unit_vector", "upa",
]

__version__ = "0.1.0"
