"""Joint PMF recovery for finite-alphabet random vectors.

Estimates low-order marginal PMFs from (possibly incomplete) categorical
data, couples them through a shared simplex-constrained CP factorization to
recover the full joint distribution, and uses the recovered model for MAP
classification, conditional-expectation prediction, and identifiability
analysis.
"""

from .errors import (
    CapacityError,
    DataError,
    NumericalError,
    PmfrecError,
    ZeroEvidenceError,
)
from .factorization import (
    FitConfig,
    FitReport,
    coupled_cost,
    fit,
    project_simplex,
    random_bundle,
    update_factor,
    update_loadings,
)
from .harness import (
    ExperimentSpec,
    empirical_joint,
    eval_metrics,
    exact_marginals,
    hide_entries,
    mre_fact,
    mre_ten,
    mre_ten_models,
    oracle_mle,
    random_model,
    sample_dataset,
    sample_labeled,
)
from .identifiability import (
    IdentifiabilityReport,
    build_report,
    kruskal_generic_bound,
    lemma2_bound,
    lemma3_bound,
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
    triples_bound,
)
from .marginals import (
    MISSING,
    DiscreteDataset,
    MarginalSet,
    estimate_marginals,
    load_csv,
    marginalize_tensor,
)
from .model import (
    JointPmfModel,
    conditional_expectation,
    construct_trivial_cpd,
    joint_prob,
    map_predict,
    posterior_batch,
    posterior_over,
)
from .serialize import (
    load_bundle,
    load_marginal_set,
    save_bundle,
    save_marginal_set,
)
from .tensor_ops import (
    DenseTensor,
    FactorBundle,
    khatri_rao,
    khatri_rao_stack,
    mttkrp,
    synthesize,
    unfold,
    fold,
    vectorize,
)

__version__ = "0.1.0"
