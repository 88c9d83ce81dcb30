"""Dataset, model and filter persistence.

Datasets are wide CSVs with header ``t,ch1,...,chd[,label]``, one row per
sample, '.' decimal separators and LF line endings.  Models, filters and
transition matrices are versioned JSON; floats survive the round trip
exactly (shortest-repr encoding), so reloaded models reproduce decision
scores bit-for-bit.  All writes go through a temp file and an atomic
rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import repeat

import numpy as np

from .decoding import TransitionMatrix
from .harness import Pipeline
from .signals import FilterBank, as_labels, as_signal
from .svm import KernelParams, MulticlassModel, PlattParams, SvmModel

FORMAT_VERSION = 1
# Dataset rows formatted or parsed at a time; bounds the Python floats and
# strings alive at once.
CSV_CHUNK_ROWS = 256


class DataFormatError(ValueError):
    """A file does not match the expected on-disk format."""


def atomic_write_text(path, text: str):
    """Write text to path via a same-directory temp file and rename."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def save_dataset(path, X, y=None):
    """Write a dataset CSV (header t,ch1..chd[,label]).

    Samples are written as the shortest repr that reads back to the same
    double, so a saved dataset reloads exactly.
    """
    X = as_signal(X)
    n, d = X.shape
    if y is not None:
        y = as_labels(y, n)
    header = "t," + ",".join(f"ch{v + 1}" for v in range(d))
    if y is not None:
        header += ",label"
    lines = [header]
    for start in range(0, n, CSV_CHUNK_ROWS):
        rows = slice(start, start + CSV_CHUNK_ROWS)
        # the cells of a chunk by column, joined row-wise; repr of a
        # Python float is its shortest round-trip form
        columns = [map(str, range(n)[rows])]
        columns += [map(repr, column.tolist()) for column in X[rows].T]
        if y is not None:
            columns.append(map(str, y[rows].tolist()))
        lines.extend(map(",".join, zip(*columns)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _parse_rows(path, rows, d: int, labeled: bool):
    """Row-by-row parse of the data lines; names the first bad line."""
    n = len(rows)
    X = np.empty((n, d))
    y = np.empty(n, dtype=np.int64) if labeled else None
    width = d + 1 + labeled
    for i, ln in enumerate(rows, start=2):
        cells = ln.split(",")
        if len(cells) != width:
            raise DataFormatError(
                f"{path}:{i}: expected {width} columns, got {len(cells)}")
        try:
            X[i - 2] = [float(c) for c in cells[1 : 1 + d]]
        except ValueError as exc:
            raise DataFormatError(f"{path}:{i}: non-numeric cell ({exc})") from exc
        if labeled:
            try:
                y[i - 2] = int(cells[-1])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{i}: non-integer label") from exc
    return X, y


def load_dataset(path):
    """Parse a dataset CSV strictly.

    Returns (X, y) with y None when the label column is absent.  Ragged
    rows, non-numeric cells and empty files are rejected with the
    offending line number.  The body is parsed as tables of
    CSV_CHUNK_ROWS rows, with float() and int() semantics per cell; a
    file that fails that is parsed again row by row to name its first
    bad line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    lines = [ln for ln in lines if ln != ""]
    if not lines:
        raise DataFormatError(f"{path}: empty dataset file")
    header = lines[0].split(",")
    if len(header) < 2 or header[0] != "t":
        raise DataFormatError(f"{path}:1: expected header 't,ch1,...[,label]'")
    labeled = header[-1] == "label"
    d = len(header) - 1 - (1 if labeled else 0)
    if d < 1:
        raise DataFormatError(f"{path}:1: no channel columns in header")
    expected = [f"ch{v + 1}" for v in range(d)]
    if header[1 : 1 + d] != expected:
        raise DataFormatError(f"{path}:1: channel columns must be ch1..ch{d}")

    rows = lines[1:]
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    width = len(header)
    X = np.empty((len(rows), d))
    y = np.empty(len(rows), dtype=np.int64) if labeled else None
    try:
        if any(c != width - 1 for c in map(str.count, rows, repeat(","))):
            raise ValueError("ragged rows")
        # CSV_CHUNK_ROWS rows at a time, so that few cells exist as
        # Python strings at once; casting an object cell calls float() or
        # int() on it, as the row parser does
        for start in range(0, len(rows), CSV_CHUNK_ROWS):
            part = rows[start : start + CSV_CHUNK_ROWS]
            table = np.array(",".join(part).split(","), dtype=object).reshape(len(part), width)
            X[start : start + len(part)] = table[:, 1 : 1 + d].astype(np.float64)
            if labeled:
                y[start : start + len(part)] = table[:, -1].astype(np.int64)
    except ValueError:
        X, y = _parse_rows(path, rows, d, labeled)
    if not np.all(np.isfinite(X)):
        raise DataFormatError(f"{path}: non-finite sample values")
    if y is not None and y.min() < 1:
        raise DataFormatError(f"{path}: labels must be >= 1")
    return X, y


def save_predictions(path, labels):
    """Write a prediction CSV (header t,label), one row per sample."""
    labels = as_labels(labels)
    n = len(labels)
    # the body in one formatting pass over the interleaved (t, label) cells
    cells = np.empty(2 * n, dtype=np.int64)
    cells[0::2] = np.arange(n)
    cells[1::2] = labels
    atomic_write_text(path, "t,label\n" + "%d,%d\n" * n % tuple(cells.tolist()))


def load_predictions(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "t,label":
        raise DataFormatError(f"{path}: expected header 't,label'")
    try:
        return np.array([int(ln.split(",")[1]) for ln in lines[1:]], dtype=np.int64)
    except (IndexError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed prediction row ({exc})") from exc


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def _check_version(doc: dict, path, kind: str):
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise DataFormatError(f"{path}: not a {kind} document")
    if doc.get("format_version") != FORMAT_VERSION:
        raise DataFormatError(
            f"{path}: format_version {doc.get('format_version')!r} "
            f"not supported (expected {FORMAT_VERSION})")


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc


def save_filter(path, bank: FilterBank):
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "filter",
        "f": bank.f,
        "d": bank.d,
        "n0": bank.n0,
        "coeffs": [float(x) for x in bank.coeffs.ravel(order="C")],
    }
    atomic_write_text(path, json.dumps(doc, indent=1) + "\n")


def load_filter(path) -> FilterBank:
    doc = _load_json(path)
    _check_version(doc, path, "filter")
    for key in ("f", "d", "n0", "coeffs"):
        if key not in doc:
            raise DataFormatError(f"{path}: missing field {key!r}")
    f, d = int(doc["f"]), int(doc["d"])
    coeffs = np.asarray(doc["coeffs"], dtype=np.float64)
    if coeffs.size != f * d:
        raise DataFormatError(
            f"{path}: field 'coeffs' has {coeffs.size} values, expected f*d={f * d}")
    try:
        return FilterBank(coeffs.reshape(f, d), n0=int(doc["n0"]))
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _svm_to_doc(model: SvmModel) -> dict:
    if model.sv_rows is None:
        raise ValueError("cannot persist a model without support-vector rows")
    return {
        "alpha": [float(a) for a in model.alpha],
        "bias": float(model.bias),
        "C": float(model.C),
        "box": float(model.box),
        "sigma_k": float(model.kernel.sigma_k),
        "objective": float(model.objective),
        "sv_idx": [int(i) for i in model.sv_idx],
        "sv_labels": [int(v) for v in model.sv_labels],
        "sv_alpha": [float(a) for a in model.sv_alpha],
        "sv_rows": [[float(x) for x in row] for row in model.sv_rows],
    }


def _svm_from_doc(doc: dict, path, d: int) -> SvmModel:
    """Parse one SVM whose support vectors score d-channel samples."""
    try:
        sv_idx = np.asarray(doc["sv_idx"], dtype=np.int64)
        sv_labels = np.asarray(doc["sv_labels"], dtype=np.int64)
        sv_alpha = np.asarray(doc["sv_alpha"], dtype=np.float64)
        sv_rows = np.asarray(doc["sv_rows"], dtype=np.float64)
        model = SvmModel(
            alpha=np.asarray(doc["alpha"], dtype=np.float64),
            bias=float(doc["bias"]),
            C=float(doc["C"]),
            box=float(doc["box"]),
            kernel=KernelParams(float(doc["sigma_k"])),
            objective=float(doc["objective"]),
            sv_idx=sv_idx,
            sv_labels=sv_labels,
            sv_alpha=sv_alpha,
            sv_rows=sv_rows.reshape(0, d) if sv_rows.size == 0 else sv_rows,
        )
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing SVM field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed SVM field ({exc})") from exc
    if model.sv_rows.ndim != 2:
        raise DataFormatError(f"{path}: field 'sv_rows' is not a list of rows")
    if model.sv_rows.shape[1] != d:
        raise DataFormatError(
            f"{path}: model expects {model.sv_rows.shape[1]} channels, "
            f"filter bank has {d}")
    # a bank's coefficients are scattered by row, so one model's mismatch
    # would shift its pulls onto other rows
    sizes = {"sv_idx": len(sv_idx), "sv_labels": len(sv_labels),
             "sv_alpha": len(sv_alpha), "sv_rows": len(model.sv_rows)}
    if len(set(sizes.values())) != 1:
        raise DataFormatError(f"{path}: support-vector fields disagree in length {sizes}")
    if not np.all(np.abs(sv_labels) == 1):
        raise DataFormatError(f"{path}: field 'sv_labels' holds values outside {{-1, +1}}")
    return model


def _transitions_to_doc(t: TransitionMatrix) -> dict:
    return {
        "M": [[float(x) for x in row] for row in t.M],
        "prior": [float(x) for x in t.prior],
    }


def _transitions_from_doc(doc: dict, path) -> TransitionMatrix:
    try:
        return TransitionMatrix(M=np.asarray(doc["M"], dtype=np.float64),
                                prior=np.asarray(doc["prior"], dtype=np.float64))
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing transition field {exc}") from exc
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def save_transitions(path, t: TransitionMatrix):
    doc = {"format_version": FORMAT_VERSION, "kind": "transitions"}
    doc.update(_transitions_to_doc(t))
    atomic_write_text(path, json.dumps(doc, indent=1) + "\n")


def load_transitions(path) -> TransitionMatrix:
    doc = _load_json(path)
    _check_version(doc, path, "transitions")
    return _transitions_from_doc(doc, path)


def save_model(path, pipe: Pipeline):
    """Persist a trained pipeline (minus the filter, stored separately)."""
    mc = pipe.model
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "model",
        "method": pipe.method,
        "classes": [int(c) for c in mc.classes],
        "pairwise": [
            {"a": a, "b": b, "model": _svm_to_doc(m)}
            for (a, b), m in sorted(mc.pairwise.items())
        ],
        "one_vs_all": [_svm_to_doc(m) for m in mc.one_vs_all],
        "platt": None if pipe.platt is None else [
            {"A": p.A, "B": p.B} for p in pipe.platt
        ],
        "transitions": _transitions_to_doc(pipe.transitions),
    }
    atomic_write_text(path, json.dumps(doc, indent=1) + "\n")


def load_model(path, bank: FilterBank) -> Pipeline:
    """Rebuild a pipeline from a model document plus its filter bank."""
    doc = _load_json(path)
    _check_version(doc, path, "model")
    try:
        classes = np.asarray(doc["classes"], dtype=np.int64)
        pairwise = {
            (int(e["a"]), int(e["b"])): _svm_from_doc(e["model"], path, bank.d)
            for e in doc["pairwise"]
        }
        one_vs_all = [_svm_from_doc(e, path, bank.d) for e in doc["one_vs_all"]]
        mc = MulticlassModel(classes=classes, pairwise=pairwise,
                             one_vs_all=one_vs_all)
        platt = doc["platt"]
        if platt is not None:
            platt = [PlattParams(A=float(p["A"]), B=float(p["B"])) for p in platt]
        transitions = _transitions_from_doc(doc["transitions"], path)
        method = doc["method"]
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing model field {exc}") from exc
    # each bank is scored through one kernel (svm.bank_scores)
    sigmas = sorted({m.kernel.sigma_k for m in list(pairwise.values()) + one_vs_all})
    if len(sigmas) > 1:
        raise DataFormatError(f"{path}: models disagree on sigma_k {sigmas}")
    return Pipeline(method=method, filter=bank, model=mc,
                    transitions=transitions, platt=platt)


def save_history(path, history, filter_norms):
    """Objective trajectory CSV: iter,J,normF."""
    lines = ["iter,J,normF"]
    for i, (j, nf) in enumerate(zip(history, filter_norms)):
        lines.append(f"{i},{j!r},{nf!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
