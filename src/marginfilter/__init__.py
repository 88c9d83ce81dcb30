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
    generate_toy,
    make_average_filter,
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
    fit_shared_filter,
    frobenius_reg,
    mixed_norm,
)
from .decoding import (
    TransitionMatrix,
    decode_offline,
    estimate_transitions,
    viterbi,
)
from .harness import (
    GridSpec,
    error_rate,
    grid_search,
    run_toy_sweep,
    train_pipeline,
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
    "TransitionMatrix",
    "apply_filter",
    "bank_scores",
    "class_probabilities",
    "decision_scores",
    "decode_offline",
    "error_rate",
    "estimate_transitions",
    "fit_shared_filter",
    "frobenius_reg",
    "generate_toy",
    "grid_search",
    "kernel_matrix",
    "make_average_filter",
    "mixed_norm",
    "oao_vote",
    "platt_fit",
    "run_toy_sweep",
    "solve_svm_dual",
    "train_multiclass",
    "train_pipeline",
    "viterbi",
    "wilcoxon_signed_rank",
]
