"""Large-margin filter learning for signal sequence labeling.

Jointly learns per-channel FIR filters and a Gaussian-kernel SVM so the
filtered samples are maximally separable, with optional channel selection
via a group-sparse penalty, Platt-calibrated class probabilities, and
Viterbi sequence decoding.
"""

__version__ = "0.1.0"

from .signals import (
    FilterBank,
    ToyParams,
    apply_filter,
    decimate,
    generate_toy,
    make_average_filter,
    make_delta_filter,
)
from .svm import (
    KernelParams,
    MulticlassModel,
    PlattParams,
    SvmModel,
    bank_scores,
    class_probabilities,
    decision_scores,
    kernel_matrix,
    oao_vote,
    platt_fit,
    solve_svm_dual,
    train_multiclass,
)
from .filter_learning import (
    LearnerConfig,
    RegularizerSpec,
    TrainedFilterModel,
    filter_objective,
    filter_objective_gradient,
    frobenius_reg,
    learn_kf_svm,
    learn_multiclass_filter,
    learn_skf_svm,
    mixed_norm,
)
from .decoding import (
    TransitionMatrix,
    decode_offline,
    decode_online,
    estimate_transitions,
    viterbi,
)
from .harness import (
    GridSpec,
    error_rate,
    grid_search,
    run_toy_sweep,
    wilcoxon_signed_rank,
)

__all__ = [
    "FilterBank",
    "GridSpec",
    "KernelParams",
    "LearnerConfig",
    "MulticlassModel",
    "PlattParams",
    "RegularizerSpec",
    "SvmModel",
    "ToyParams",
    "TrainedFilterModel",
    "TransitionMatrix",
    "apply_filter",
    "bank_scores",
    "class_probabilities",
    "decimate",
    "decision_scores",
    "decode_offline",
    "decode_online",
    "error_rate",
    "estimate_transitions",
    "filter_objective",
    "filter_objective_gradient",
    "frobenius_reg",
    "generate_toy",
    "grid_search",
    "kernel_matrix",
    "learn_kf_svm",
    "learn_multiclass_filter",
    "learn_skf_svm",
    "make_average_filter",
    "make_delta_filter",
    "mixed_norm",
    "oao_vote",
    "platt_fit",
    "run_toy_sweep",
    "solve_svm_dual",
    "train_multiclass",
    "viterbi",
    "wilcoxon_signed_rank",
]
