"""Two-stage estimation toolkit for hierarchical exponential random graph models.

Simulate block-structured networks whose within-cluster ties follow an
exponential random graph model, recover cluster memberships with a latent
position cluster model or SCORE spectral clustering, fit cluster-specific
models by pseudo- or Monte Carlo maximum likelihood, and check the result
with simulation-based goodness of fit.
"""

from .graph import (
    Graph,
    Partition,
    between_edge_counts,
    dyad,
    read_edge_list,
    read_partition,
    within_subgraph,
    write_edge_list,
    write_partition,
)
from .stats import (
    ChangeStatEngine,
    StatisticSpec,
    Term,
    change_statistics,
    dsp_histogram,
    esp_histogram,
    parse_spec,
    stat_vector,
)
from .sampler import (
    ClusterSpec,
    HergmSpec,
    SamplerControls,
    exact_distribution,
    gibbs_sample,
    simulate_hergm,
)
from .fit import (
    ErgmFit,
    McmleControls,
    MpleNotConvergedError,
    NonFiniteMleError,
    SamplesDegenerateError,
    between_density_mle,
    mcmle,
    mple,
)
from .lsm import (
    LsmControls,
    LsmPosterior,
    init_positions,
    lsm_mcmc,
    map_membership,
    procrustes_align,
)
from .spectral import kmeans, score_cluster
from .twostage import (
    GofReport,
    TwoStageControls,
    TwoStageFit,
    gof,
    misclustering_rate,
    two_stage_fit,
)
from .experiments import (
    misrate_experiment,
    score_experiment,
    sensitivity_experiment,
)

__version__ = "0.1.0"
