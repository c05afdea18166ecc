"""Context-based noisy-label detection and noise-robust active learning."""

from .baselines import (
    SuspicionTable,
    VotingTable,
    consensus_detect,
    majority_detect,
    probabilistic_detect,
    suspicion_table,
    voting_table,
)
from .classifiers import (
    AuxEnsemble,
    MlrConfig,
    MlrModel,
    TrainingDiverged,
    aux_predictions,
    predict_proba,
    train_aux,
    train_mlr,
    train_mlr_lockstep,
)
from .dataset import (
    CoraFormatError,
    CsrIndex,
    Dataset,
    Instance,
    SyntheticConfig,
    generate_synthetic,
    load_cora,
    load_synthetic,
    save_cora,
    save_synthetic,
    split_batches,
    synthetic_conditionals,
)
from .detector import (
    DEFAULT_BETA,
    StarDivergences,
    batch_weights,
    cnld_detect,
    detect_topk,
    dissimilarity,
    star_divergences,
)
from .harness import (
    ConfigError,
    DetectionSuiteRow,
    ExperimentConfig,
    ExperimentLog,
    RunStart,
    derive_seed,
    load_config,
    parse_config,
    run_active_learning,
    run_detection_suite,
    run_pseudo,
    run_starts,
    select_informative,
    split_train_test,
    summarize_detection,
    summarize_learning,
)
from .inference import batch_posterior_rows
from .metrics import DetectionMetrics, accuracy, detection_metrics, first_k, ranking_auc, remove_first
from .noise import (
    NoisePlan,
    TransitionMatrix,
    estimate_transition,
    inject_nar,
    inject_ncar,
)
from .relationship import (
    Conditionals,
    RelationshipModel,
    build_relationship,
    prior_conditionals,
    update_relationship,
)

__version__ = "0.1.0"
