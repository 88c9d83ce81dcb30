"""The package's public names, and what importing the package loads."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import marginfilter
from marginfilter import LearnerConfig

# the whole public API; the filter is learned through fit_shared_filter
# alone, and train_pipeline builds a method's pipeline around it
PUBLIC = {
    "FilterBank", "GridSpec", "KernelParams", "LearnerConfig", "MulticlassModel",
    "PlattParams", "RegularizerSpec", "SvmModel", "ToyParams", "TransitionMatrix",
    "apply_filter", "bank_scores", "class_probabilities",
    "decision_scores", "decode_offline", "error_rate",
    "estimate_transitions", "fit_shared_filter", "frobenius_reg", "generate_toy",
    "grid_search", "kernel_matrix", "make_average_filter",
    "mixed_norm", "oao_vote", "platt_fit", "run_toy_sweep", "solve_svm_dual",
    "train_multiclass", "train_pipeline", "viterbi", "wilcoxon_signed_rank",
}


# the learner's settable fields; the descent, L-BFGS and line-search
# constants live in filter_learning, as no caller sets another value
LEARNER_FIELDS = ("C", "kernel", "reg", "f", "n0", "max_cg_iters", "tol_dF",
                  "mm_max_outer", "svm_tol")


def test_learner_config_fields_are_pinned():
    assert tuple(f.name for f in dataclasses.fields(LearnerConfig)) == LEARNER_FIELDS


def test_every_exported_name_resolves():
    missing = [name for name in marginfilter.__all__ if not hasattr(marginfilter, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(marginfilter.__all__) == len(set(marginfilter.__all__))


def test_exports_are_the_public_api():
    """No name is exported beyond the public API (nor missing from it)."""
    assert set(marginfilter.__all__) == PUBLIC


def test_cli_import_loads_no_scipy():
    # the package runs on numpy alone: scipy.spatial, which cdist came
    # from, costs about 30 MB of resident memory to import
    src = str(Path(marginfilter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, marginfilter.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
