"""Command-line interface.

Subcommands: generate-toy, train, predict, decode, grid-search, sweep,
compare.  Every command exits 0 on success and nonzero with a message on
stderr for any rejection; randomness is controlled entirely by --seed
flags, so reruns with identical arguments produce identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import harness, persistence
from .harness import (
    DEFAULT_AXIS_VALUES,
    GridSpec,
    Pipeline,
    calibrate_pipeline,
    grid_search,
    run_toy_sweep,
    train_pipeline,
    wilcoxon_signed_rank,
)
from .signals import ToyParams, generate_toy

METHOD_FLAGS = {"svm": "svm", "avg-svm": "avg_svm",
                "kf-svm": "kf_svm", "skf-svm": "skf_svm"}


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marginfilter",
        description="Learn per-channel FIR filters jointly with a kernel SVM "
                    "for signal sequence labeling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-toy", help="write a synthetic benchmark dataset CSV")
    p.add_argument("--n", type=int, default=1000, help="sample count")
    p.add_argument("--sigma-n", type=float, default=1.0, help="noise std dev")
    p.add_argument("--lag", type=int, default=0, help="max per-channel time lag")
    p.add_argument("--nbtot", type=int, default=2, help="total channel count")
    p.add_argument("--run-min", type=int, default=30)
    p.add_argument("--run-max", type=int, default=40)
    p.add_argument("--classes", type=int, default=2, choices=(2, 3))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", type=_int_list, metavar="NTRAIN,NVAL,NTEST",
                   help="slice one signal into <out>.train/.val/.test CSVs "
                        "sharing the channel lags (overrides --n)")
    p.add_argument("--out", "-o", required=True, help="output dataset CSV")

    p = sub.add_parser("train", help="train a labeling pipeline")
    p.add_argument("--data", required=True, help="training dataset CSV (labeled)")
    p.add_argument("--val", help="validation CSV for probability calibration")
    p.add_argument("--method", required=True, choices=sorted(METHOD_FLAGS))
    p.add_argument("--f", type=int, default=1, help="filter length")
    p.add_argument("--n0", type=int, default=0, help="filter delay")
    p.add_argument("--C", type=float, default=100.0)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="filter regularization strength")
    p.add_argument("--sigma-k", type=float, default=1.0, help="kernel bandwidth")
    p.add_argument("--max-cg-iters", type=int, default=200)
    p.add_argument("--svm-tol", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for interface uniformity; training itself "
                        "is deterministic")
    p.add_argument("--out-dir", required=True,
                   help="directory for model.json, filter.json, history.csv")

    for name, descr in (("predict", "label samples online"),
                        ("decode", "label samples online or by Viterbi")):
        p = sub.add_parser(name, help=descr)
        p.add_argument("--model", required=True, help="model.json from train")
        p.add_argument("--filter", required=True, help="filter.json from train")
        p.add_argument("--data", required=True, help="dataset CSV to label")
        p.add_argument("--out", "-o", required=True, help="output labels CSV")
        if name == "decode":
            p.add_argument("--mode", choices=("online", "viterbi"), default="online")
        else:
            p.set_defaults(mode="online")

    p = sub.add_parser("grid-search", help="validation grid search for one method")
    p.add_argument("--train", required=True, help="training dataset CSV")
    p.add_argument("--val", required=True, help="validation dataset CSV")
    p.add_argument("--method", required=True, choices=sorted(METHOD_FLAGS))
    p.add_argument("--C-grid", type=_float_list, default=[1.0, 10.0, 100.0])
    p.add_argument("--lambda-grid", type=_float_list, default=[0.1, 1.0, 10.0])
    p.add_argument("--sigma-k-grid", type=_float_list, default=[1.0])
    p.add_argument("--f-grid", type=_int_list, default=[1])
    p.add_argument("--n0-grid", type=_int_list, default=[0])
    p.add_argument("--decode", choices=("online", "viterbi"), default="online")
    p.add_argument("--max-cg-iters", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", "-o", required=True, help="best-parameters JSON")

    p = sub.add_parser("sweep", help="benchmark methods along one axis")
    p.add_argument("--axis", required=True, choices=sorted(DEFAULT_AXIS_VALUES))
    p.add_argument("--values", type=_float_list, default=None,
                   help="comma-separated axis values (defaults per axis)")
    p.add_argument("--methods", default="svm,avg-svm,kf-svm",
                   help="comma-separated method names")
    p.add_argument("--seeds", type=int, default=10, help="number of seeds (0..k-1)")
    p.add_argument("--n-train", type=int, default=1000)
    p.add_argument("--n-val", type=int, default=1000)
    p.add_argument("--n-test", type=int, default=10000)
    p.add_argument("--sigma-n", type=float, default=1.0)
    p.add_argument("--lag", type=int, default=5)
    p.add_argument("--nbtot", type=int, default=2)
    p.add_argument("--max-cg-iters", type=int, default=30,
                   help="cap on the filter descent's steps for sweep-scale runs")
    p.add_argument("--config", help="JSON file overriding per-method grids")
    p.add_argument("--out-dir", required=True,
                   help="directory for results.csv and summary.csv")

    p = sub.add_parser("compare", help="Wilcoxon signed-rank test on two result CSVs")
    p.add_argument("--file-a", required=True)
    p.add_argument("--file-b", required=True)
    p.add_argument("--method-a", help="filter rows of file A by method")
    p.add_argument("--method-b", help="filter rows of file B by method")
    p.add_argument("--decode-a", help="filter rows of file A by decode mode")
    p.add_argument("--decode-b", help="filter rows of file B by decode mode")

    return parser


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _cmd_generate_toy(args) -> int:
    if args.split is not None and (len(args.split) != 3 or any(v < 1 for v in args.split)):
        raise ValueError("--split needs three positive sizes: NTRAIN,NVAL,NTEST")
    n = sum(args.split) if args.split else args.n
    params = ToyParams(n=n, sigma_n=args.sigma_n, lag=args.lag,
                       nbtot=args.nbtot, run_min=args.run_min,
                       run_max=args.run_max, n_classes=args.classes,
                       seed=args.seed)
    X, y = generate_toy(params)
    if args.split:
        stem = args.out[:-4] if args.out.endswith(".csv") else args.out
        bounds = np.cumsum([0] + list(args.split))
        for part, lo, hi in zip(("train", "val", "test"), bounds[:-1], bounds[1:]):
            path = f"{stem}.{part}.csv"
            persistence.save_dataset(path, X[lo:hi], y[lo:hi])
            print(f"wrote {path}: {hi - lo} samples")
        return 0
    persistence.save_dataset(args.out, X, y)
    print(f"wrote {args.out}: {X.shape[0]} samples, {X.shape[1]} channels, "
          f"{args.classes} classes")
    return 0


def _cmd_train(args) -> int:
    X, y = persistence.load_dataset(args.data)
    if y is None:
        raise ValueError(f"{args.data}: training data must be labeled")
    method = METHOD_FLAGS[args.method]
    learner_kwargs = {"max_cg_iters": args.max_cg_iters, "svm_tol": args.svm_tol}
    pipe = train_pipeline(X, y, method, C=args.C, sigma_k=args.sigma_k,
                          lam=args.lam, f=args.f, n0=args.n0,
                          learner_kwargs=learner_kwargs)
    if args.val:
        Xval, yval = persistence.load_dataset(args.val)
        if yval is None:
            raise ValueError(f"{args.val}: validation data must be labeled")
        calibrate_pipeline(pipe, Xval, yval)

    os.makedirs(args.out_dir, exist_ok=True)
    persistence.save_filter(os.path.join(args.out_dir, "filter.json"), pipe.filter)
    persistence.save_model(os.path.join(args.out_dir, "model.json"), pipe)
    persistence.save_history(os.path.join(args.out_dir, "history.csv"),
                             pipe.history, pipe.filter_norms)
    calibrated = "calibrated" if pipe.platt is not None else "uncalibrated"
    print(f"trained {args.method} on {len(y)} samples "
          f"({len(pipe.model.classes)} classes, {calibrated}); "
          f"artifacts in {args.out_dir}")
    return 0


def _load_pipeline(args) -> Pipeline:
    bank = persistence.load_filter(args.filter)
    return persistence.load_model(args.model, bank)


def _cmd_decode(args) -> int:  # also ``predict``, whose mode is online
    pipe = _load_pipeline(args)
    X, _ = persistence.load_dataset(args.data)
    labels = pipe.predict(X, decode=args.mode)
    persistence.save_predictions(args.out, labels)
    print(f"wrote {args.out}: {len(labels)} labels ({args.mode})")
    return 0


def _cmd_grid_search(args) -> int:
    Xtr, ytr = persistence.load_dataset(args.train)
    Xval, yval = persistence.load_dataset(args.val)
    if ytr is None or yval is None:
        raise ValueError("grid search needs labeled train and validation data")
    method = METHOD_FLAGS[args.method]
    grid = GridSpec(method=method, C=tuple(args.C_grid), lam=tuple(args.lambda_grid),
                    sigma_k=tuple(args.sigma_k_grid), f=tuple(args.f_grid),
                    n0=tuple(args.n0_grid), decode=args.decode)
    result = grid_search((Xtr, ytr), (Xval, yval), grid,
                         learner_kwargs={"max_cg_iters": args.max_cg_iters})
    doc = {
        "method": args.method,
        "decode": args.decode,
        "best": result.best,
        "validation_error": result.best_error,
        "cells_evaluated": len(result.table),
        "cells_failed": [
            {"cell": cell, "error": msg} for cell, msg in result.failures
        ],
    }
    persistence.write_json(args.out, doc)
    print(f"best {args.method} cell: {result.best} "
          f"(validation error {result.best_error:.4f})")
    return 0


def _read_grids(path) -> dict:
    """Per-method grids of a sweep config: a JSON object that maps each
    method to lists of grid-axis values and, optionally, a decode mode,
    such as ``{"kf_svm": {"C": [10, 100], "lam": [1.0]}}``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict) or not all(isinstance(s, dict) for s in raw.values()):
            raise ValueError("a sweep config maps each method to an object of grid axes")
        for method, spec in raw.items():
            for key, value in spec.items():
                if key not in ("C", "lam", "sigma_k", "f", "n0", "decode"):
                    raise ValueError(f"{method}: unknown grid axis {key!r}")
                if key != "decode" and not isinstance(value, list):
                    raise ValueError(f"{method}: grid axis {key} must be a list")
        return {m: GridSpec(method=m, **{k: v if k == "decode" else tuple(v)
                                          for k, v in spec.items()})
                for m, spec in raw.items()}
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_sweep(args) -> int:
    names = [m.strip() for m in args.methods.split(",") if m.strip()]
    unknown = [m for m in names if m not in METHOD_FLAGS]
    if unknown:
        raise ValueError(f"--methods: unknown method(s) {', '.join(unknown)}; "
                         f"expected a comma-separated list of {', '.join(METHOD_FLAGS)}")
    methods = [METHOD_FLAGS[m] for m in names]
    values = args.values
    if values is None:
        values = list(DEFAULT_AXIS_VALUES[args.axis])
    grids = _read_grids(args.config) if args.config else None
    base = ToyParams(n=args.n_train, sigma_n=args.sigma_n, lag=args.lag,
                     nbtot=args.nbtot)
    result = run_toy_sweep(
        args.axis, values, methods, seeds=tuple(range(args.seeds)), base=base,
        grids=grids, n_train=args.n_train, n_val=args.n_val, n_test=args.n_test,
        learner_kwargs={"max_cg_iters": args.max_cg_iters})
    for key, msg in result.failures:
        print(f"warning: cell {key} failed: {msg}", file=sys.stderr)
    if not result.rows:
        print(f"error: every sweep task failed ({len(result.failures)}); nothing written",
              file=sys.stderr)
        return 1
    os.makedirs(args.out_dir, exist_ok=True)
    persistence.atomic_write_text(os.path.join(args.out_dir, "results.csv"),
                                  harness.sweep_rows_csv(result))
    persistence.atomic_write_text(os.path.join(args.out_dir, "summary.csv"),
                                  harness.sweep_summary_csv(result))
    print(f"wrote {args.out_dir}/results.csv and summary.csv "
          f"({len(result.rows)} rows, {len(result.failures)} failures)")
    return 0


def _read_result_rows(path, method=None, decode=None):
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        try:
            vi = header.index("axis_value")
            mi = header.index("method")
            di = header.index("decode")
            si = header.index("seed")
            ei = header.index("test_error")
        except ValueError as exc:
            raise persistence.DataFormatError(
                f"{path}: missing result column ({exc})") from exc
        for lineno, ln in enumerate(fh, start=2):
            if not ln.strip():
                continue
            cells = ln.strip().split(",")
            if len(cells) != len(header):
                raise persistence.DataFormatError(
                    f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}")
            if method is not None and cells[mi] != method:
                continue
            if decode is not None and cells[di] != decode:
                continue
            try:
                rows.append(((cells[vi], int(cells[si])), float(cells[ei])))
            except ValueError as exc:
                raise persistence.DataFormatError(f"{path}:{lineno}: {exc}") from exc
    out = dict(rows)
    if len(out) != len(rows):
        raise ValueError(
            f"{path}: several rows share an (axis_value, seed) pair; "
            f"narrow the selection with --method-a/--method-b and "
            f"--decode-a/--decode-b")
    return out


def _cmd_compare(args) -> int:
    method_a = METHOD_FLAGS.get(args.method_a, args.method_a) if args.method_a else None
    method_b = METHOD_FLAGS.get(args.method_b, args.method_b) if args.method_b else None
    a = _read_result_rows(args.file_a, method_a, args.decode_a)
    b = _read_result_rows(args.file_b, method_b, args.decode_b)
    keys = sorted(set(a) & set(b))
    if len(keys) < 5:
        raise ValueError(f"only {len(keys)} matched (axis_value, seed) pairs; need >= 5")
    errs_a = np.array([a[k] for k in keys])
    errs_b = np.array([b[k] for k in keys])
    p = wilcoxon_signed_rank(errs_a, errs_b)
    print(f"pairs={len(keys)} mean_a={errs_a.mean():.4f} mean_b={errs_b.mean():.4f} "
          f"wilcoxon_p={p:.6g}")
    return 0


_COMMANDS = {
    "generate-toy": _cmd_generate_toy,
    "train": _cmd_train,
    "predict": _cmd_decode,
    "decode": _cmd_decode,
    "grid-search": _cmd_grid_search,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, ArithmeticError, RuntimeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
