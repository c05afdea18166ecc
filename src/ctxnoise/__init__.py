"""Context-based noisy-label detection and noise-robust active learning."""

from .baselines import consensus_detect, majority_detect, probabilistic_detect
from .classifiers import (
    AuxConfig,
    AuxEnsemble,
    MlrConfig,
    MlrModel,
    aux_predictions,
    load_mlr,
    predict_proba,
    save_mlr,
    train_aux,
    train_mlr,
)
from .dataset import (
    BatchPlan,
    CoraFormatError,
    CsrIndex,
    Dataset,
    GroundTruth,
    Instance,
    SyntheticConfig,
    generate_synthetic,
    load_cora,
    load_synthetic,
    save_cora,
    save_synthetic,
    split_batches,
)
from .detector import (
    DEFAULT_BETA,
    DetectionResult,
    batch_weights,
    cnld_detect,
    detect_topk,
    detection_to_csv,
    dissimilarity,
)
from .harness import (
    ConfigError,
    DetectionSuiteRow,
    ExperimentConfig,
    ExperimentLog,
    derive_seed,
    load_config,
    parse_config,
    run_active_learning,
    run_detection_suite,
    run_pseudo,
    select_informative,
    split_train_test,
    summarize_detection,
    summarize_learning,
)
from .inference import (
    InstanceGraph,
    NoContextError,
    PosteriorConditionals,
    batch_posterior_rows,
    build_instance_graph,
    clamped_leaf_marginals,
    posterior_conditionals,
    star_as_tree,
    sum_product,
)
from .metrics import DetectionMetrics, accuracy, detection_metrics, ranking_auc
from .noise import (
    NoisePlan,
    TransitionMatrix,
    estimate_transition,
    inject_nar,
    inject_ncar,
    noise_plan_to_csv,
)
from .relationship import (
    Conditionals,
    RelationshipModel,
    build_relationship,
    empty_relationship,
    load_relationship,
    prior_conditionals,
    save_relationship,
    update_relationship,
)

__version__ = "0.1.0"
