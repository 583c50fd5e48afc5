"""Heterogeneous angular synchronization over SO(2).

Recovers k latent groups of angles from a single pool of pairwise circular
offset measurements: spectral (raw and degree-normalized) and low-rank SDP
solvers, generative mixture models with closed-form theory oracles, an
iterative graph-disentangling procedure, and a two-configuration graph
realization pipeline built on patch alignment.
"""

from .core import (
    OUTLIER,
    UNKNOWN,
    AngleGroups,
    MeasurementGraph,
    SyncEstimate,
    build_measurement_matrix,
    circular_distance,
    correlation,
    load_graph,
    save_graph,
    to_unit_vectors,
    wrap_angle,
)
from .disentangle import (
    DisentangleConfig,
    DisentangleState,
    assign_edges,
    bad_subgraph,
    classification_errors,
    default_bad_fractions,
    good_subgraph,
    iterate_disentangle,
    residual_matrices,
)
from .genmodel import (
    MixtureParams,
    TheoryReport,
    chain_bound,
    child_seed,
    delta_orthogonality,
    expected_measurement_matrix,
    noise_constant,
    rank2_eigenvalues,
    sample_angles,
    sample_ba_mixture,
    sample_er_mixture,
    sigma_bar,
    spectral_norm_bound,
    substream,
    theory_bounds,
)
from .grp import (
    PatchSet,
    PointCloudPair,
    asap_recover,
    build_patches,
    make_two_configurations,
    procrustes_error,
    procrustes_rotation,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    derive_setup2_probs,
    emit_plot,
    plot_svg,
    run_sweep,
    write_csv,
)
from .linalg import EigenPairs, degree_normalized_eig, spectral_norm, top_k_eig
from .sync import (
    EIG_H,
    EIG_R,
    SDP_BM,
    SOLVERS,
    EvalResult,
    angle_objective,
    estimate_from_angles,
    evaluate,
    normalized_spectral_ksync,
    sdp_bm_ksync,
    solve,
    spectral_ksync,
)

__version__ = "0.1.0"
