"""Dataset, model and filter persistence.

Datasets are wide CSVs with header ``t,ch1,...,chd[,label]``, one row per
sample, '.' decimal separators and LF line endings.  They are read by
numpy's C reader (np.loadtxt), with the strict row parser as the fallback
for any file it does not take.  Models and filters are versioned JSON,
written on one line with no whitespace (``python -m json.tool`` prints
one indented), and a model file embeds the pipeline's transition matrix
and class prior; floats survive the round trip exactly (shortest-repr
encoding), so reloaded models reproduce decision scores bit-for-bit.  A
non-finite number is never written, and a model file that holds one, or
a string or boolean where a number belongs, is rejected.  All writes go
through a temp file and an atomic rename, and a written file gets the
mode a plain ``open(path, "w")`` gives it.

A model file (format version 2) stores each support vector once: one
table of the distinct support-vector rows of every model in both banks,
in ``svm.support_table`` order, and ``sigma_k`` once; each model holds
its bias, C, box, dual objective and stop reason, the indices of its
support rows in the table, and its signed coefficients alpha_j y_j.  The
length-n dual vector and the training-row indices are not stored, as no
scorer reads them (a loaded ``SvmModel`` has None for both).  Version-1
model files, where every model holds its full dual vector and its own
copy of its support rows, are still read; their models' stop reason is
unknown (None).  Filter files are at version 1.
"""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager
from functools import partial
from itertools import chain

import numpy as np

from .decoding import TransitionMatrix
from .harness import Pipeline
from .signals import FilterBank, as_labels, as_signal
from .svm import (
    STOP_BOUND,
    STOP_CONVERGED,
    STOP_MAX_ITER,
    STOP_STUCK,
    KernelParams,
    MulticlassModel,
    PlattParams,
    SvmModel,
    support_table,
)

# The format version written for each kind of JSON document, and the
# versions read back.
WRITE_VERSION = {"filter": 1, "model": 2}
READ_VERSIONS = {"filter": (1,), "model": (1, 2)}
# SvmModel.stop values a version-2 model file may hold; None where the
# model was read from a version-1 file, which does not record it
STOP_REASONS = (STOP_CONVERGED, STOP_BOUND, STOP_MAX_ITER, STOP_STUCK, None)
# Dataset rows formatted at a time by save_dataset; bounds the Python
# floats and strings alive at once.
CSV_CHUNK_ROWS = 256
# ASCII separators 0x1c-0x1f: np.loadtxt strips them around a cell as
# whitespace, where float() and int() reject the cell
LOADTXT_ONLY_SPACES = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


class DataFormatError(ValueError):
    """A file does not match the expected on-disk format."""


def atomic_write_text(path, text: str):
    """Write text to path via a same-directory temp file and rename.

    A new file gets mode 0o666 less the umask, and a replaced file keeps
    its mode, as with a plain ``open(path, "w")``.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    # O_EXCL as in tempfile.mkstemp, which would create the file 0o600
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
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


def _header(line: str, path, lineno: int = 1) -> tuple[int, bool]:
    """The channel count and whether there is a label column, of the
    header line ``line``, which is line ``lineno`` of the file."""
    header = line.split(",")
    if len(header) < 2 or header[0] != "t":
        raise DataFormatError(f"{path}:{lineno}: expected header 't,ch1,...[,label]'")
    labeled = header[-1] == "label"
    d = len(header) - 1 - (1 if labeled else 0)
    if d < 1:
        raise DataFormatError(f"{path}:{lineno}: no channel columns in header")
    expected = [f"ch{v + 1}" for v in range(d)]
    if header[1 : 1 + d] != expected:
        raise DataFormatError(f"{path}:{lineno}: channel columns must be ch1..ch{d}")
    return d, labeled


def _parse_rows(path, rows, d: int, labeled: bool):
    """Row-by-row parse of the data lines, given as (line number, text)
    pairs; names the first bad line."""
    n = len(rows)
    X = np.empty((n, d))
    y = np.empty(n, dtype=np.int64) if labeled else None
    width = d + 1 + labeled
    for k, (i, ln) in enumerate(rows):
        cells = ln.split(",")
        if len(cells) != width:
            raise DataFormatError(
                f"{path}:{i}: expected {width} columns, got {len(cells)}")
        try:
            X[k] = [float(c) for c in cells[1 : 1 + d]]
        except ValueError as exc:
            raise DataFormatError(f"{path}:{i}: non-numeric cell ({exc})") from exc
        if labeled:
            try:
                y[k] = int(cells[-1])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{i}: non-integer label") from exc
            except OverflowError as exc:
                raise DataFormatError(f"{path}:{i}: label outside the int64 range") from exc
    return X, y


def _load_rows(path):
    """The whole file parsed line by line; names the first bad line.

    Blank lines are skipped, and every other line keeps its number in
    the file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(i, ln.rstrip("\n").rstrip("\r")) for i, ln in enumerate(fh, start=1)]
    lines = [(i, ln) for i, ln in lines if ln != ""]
    if not lines:
        raise DataFormatError(f"{path}: empty dataset file")
    d, labeled = _header(lines[0][1], path, lines[0][0])
    rows = lines[1:]
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return _parse_rows(path, rows, d, labeled)


def _load_table(path):
    """(X, y) as np.loadtxt reads them, or None for a file the row parser must read.

    np.loadtxt accepts a subset of the cells float() and int() accept and
    reads each as the same number, except that it strips the separators in
    LOADTXT_ONLY_SPACES around a cell.  None for a file that holds one of
    those, whose first line is no header, whose body has no data line (on
    which np.loadtxt warns), or that np.loadtxt rejects.
    """
    with open(path, "rb") as fh:
        if any(map(fh.read().__contains__, LOADTXT_ONLY_SPACES)):
            return None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d, labeled = _header(fh.readline().rstrip("\n"), path)
            first = next((ln for ln in fh if ln != "\n"), None)
            if first is None:
                return None
            fields = [("t", np.float64), ("X", np.float64, (d,))]
            if labeled:
                fields.append(("label", np.int64))
            table = np.loadtxt(chain([first], fh), dtype=fields, delimiter=",",
                               comments=None, ndmin=1)
        except ValueError:  # DataFormatError and UnicodeDecodeError among them
            return None
    return (np.ascontiguousarray(table["X"]),
            np.ascontiguousarray(table["label"]) if labeled else None)


def load_dataset(path):
    """Parse a dataset CSV strictly.

    Returns (X, y) with y None when the label column is absent.  Ragged
    rows, non-numeric cells and empty files are rejected with the
    offending line number; each cell reads as float() (samples) or int()
    (labels) reads it.  The body is parsed by numpy's C reader
    (np.loadtxt); a file it does not take is parsed again row by row, to
    give float() and int() semantics or to name the first bad line.
    """
    table = _load_table(path)
    X, y = table if table is not None else _load_rows(path)
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
    """Parse a prediction CSV strictly, as save_predictions writes it.

    The header ``t,label``, then one row ``t,label`` per sample: t counts
    the rows from 0, and the label is an integer >= 1 (each cell as int()
    reads it).  A malformed file is rejected with the offending line
    number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    if not lines or lines[0] != "t,label":
        raise DataFormatError(f"{path}:1: expected header 't,label'")
    labels = np.empty(len(lines) - 1, dtype=np.int64)
    for t, ln in enumerate(lines[1:]):
        where = f"{path}:{t + 2}"
        cells = ln.split(",")
        if len(cells) != 2:
            raise DataFormatError(f"{where}: expected 2 columns, got {len(cells)}")
        try:
            row, labels[t] = int(cells[0]), int(cells[1])
        except (ValueError, OverflowError) as exc:
            raise DataFormatError(f"{where}: malformed cell ({exc})") from exc
        if row != t:
            raise DataFormatError(f"{where}: t is {row}, expected {t}")
        if labels[t] < 1:
            raise DataFormatError(f"{where}: labels must be >= 1")
    return labels


# ---------------------------------------------------------------------------
# JSON documents
# ---------------------------------------------------------------------------

def _check_version(doc: dict, path, kind: str) -> int:
    """The document's format version, checked against those read for ``kind``."""
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise DataFormatError(f"{path}: not a {kind} document")
    version = doc.get("format_version")
    if version not in READ_VERSIONS[kind]:
        raise DataFormatError(
            f"{path}: format_version {version!r} not supported "
            f"(expected {' or '.join(map(str, READ_VERSIONS[kind]))})")
    return version


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc


def write_json(path, doc: dict):
    """Write ``doc`` as one line of JSON with no whitespace.

    Without ``indent`` json.dumps takes its C encoder.  allow_nan=False: a
    non-finite number raises here instead of being written as the non-JSON
    NaN or Infinity.
    """
    text = json.dumps(doc, separators=(",", ":"), allow_nan=False)
    atomic_write_text(path, text + "\n")


@contextmanager
def _fields(path, what: str):
    """Report a missing or malformed field read in the block as a DataFormatError."""
    try:
        yield
    except KeyError as exc:
        raise DataFormatError(f"{path}: missing {what} field {exc}") from exc
    except DataFormatError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{path}: malformed {what} field ({exc})") from exc


def _numbers(values, path, name: str, kinds: str, what: str) -> np.ndarray:
    """A JSON number, or list (of lists) of them, as an array of a dtype kind
    in ``kinds``; DataFormatError for any other value.

    A cast would parse a string ("2") and read a boolean as 0 or 1; numpy
    reads a boolean among numbers as one of them, so the leaves' types are
    checked too.
    """
    array = np.asarray(values)
    if array.size == 0:
        return array.astype(np.float64)
    if (array.dtype.kind not in kinds
            or bool in set(map(type, np.asarray(values, dtype=object).flat))):
        raise DataFormatError(f"{path}: field {name!r} must hold {what}")
    return array


def _finite(values, path, name: str) -> np.ndarray:
    """A JSON number, or list (of lists) of them, as float64;
    DataFormatError for any other value or one that is not finite."""
    values = _numbers(values, path, name, "iuf", "numbers").astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise DataFormatError(f"{path}: non-finite value in field {name!r}")
    return values


def _number(value, path, name: str) -> float:
    """A finite JSON number as a float; DataFormatError for anything else."""
    value = _finite(value, path, name)
    if value.ndim:
        raise DataFormatError(f"{path}: field {name!r} must hold numbers")
    return float(value)


def _integers(values, path, name: str) -> np.ndarray:
    """A JSON integer, or list of them, as int64; DataFormatError for any
    other value, which int() would truncate (1.5 to 1) or parse ("2")."""
    return _numbers(values, path, name, "i", "integers").astype(np.int64)


def _integer(value, path, name: str) -> int:
    """A JSON integer as an int; DataFormatError for anything else."""
    value = _integers(value, path, name)
    if value.ndim:
        raise DataFormatError(f"{path}: field {name!r} must hold integers")
    return int(value)


def _rows(values, path, name: str, d: int) -> np.ndarray:
    """A list of d-channel sample rows as an (m, d) float64 array."""
    rows = _finite(values, path, name)
    if rows.size == 0:
        rows = rows.reshape(0, d)
    if rows.ndim != 2:
        raise DataFormatError(f"{path}: field {name!r} is not a list of rows")
    if rows.shape[1] != d:
        raise DataFormatError(
            f"{path}: model expects {rows.shape[1]} channels, filter bank has {d}")
    return rows


def save_filter(path, bank: FilterBank):
    doc = {
        "format_version": WRITE_VERSION["filter"],
        "kind": "filter",
        "f": bank.f,
        "d": bank.d,
        "n0": bank.n0,
        "coeffs": [float(x) for x in bank.coeffs.ravel(order="C")],
    }
    write_json(path, doc)


def load_filter(path) -> FilterBank:
    doc = _load_json(path)
    _check_version(doc, path, "filter")
    for key in ("f", "d", "n0", "coeffs"):
        if key not in doc:
            raise DataFormatError(f"{path}: missing field {key!r}")
    f, d, n0 = (_integer(doc[key], path, key) for key in ("f", "d", "n0"))
    coeffs = _finite(doc["coeffs"], path, "coeffs")
    if coeffs.size != f * d:
        raise DataFormatError(
            f"{path}: field 'coeffs' has {coeffs.size} values, expected f*d={f * d}")
    try:
        return FilterBank(coeffs.reshape(f, d), n0=n0)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _svm_to_doc(model: SvmModel, where) -> dict:
    """One model of a version-2 file; ``where`` indexes its rows in the table."""
    return {
        "bias": float(model.bias),
        "C": float(model.C),
        "box": float(model.box),
        "objective": float(model.objective),
        "stop": model.stop,
        "sv_index": where.tolist(),
        "sv_coef": (model.sv_alpha * model.sv_labels).tolist(),
    }


def _svm_scalars(doc: dict, path) -> dict:
    return {key: _number(doc[key], path, key) for key in ("bias", "C", "box", "objective")}


def _svm_from_v1(doc: dict, path, d: int) -> SvmModel:
    """Parse one SVM of a version-1 file, which holds its own support rows."""
    with _fields(path, "SVM"):
        # read for the length check only: no scorer needs the training rows
        sv_idx = _integers(doc["sv_idx"], path, "sv_idx")
        sv_labels = _integers(doc["sv_labels"], path, "sv_labels")
        sv_alpha = _finite(doc["sv_alpha"], path, "sv_alpha")
        sv_rows = _rows(doc["sv_rows"], path, "sv_rows", d)
        kernel = KernelParams(_number(doc["sigma_k"], path, "sigma_k"))
        scalars = _svm_scalars(doc, path)
    # a bank's coefficients are scattered by row, so one model's mismatch
    # would shift its pulls onto other rows
    sizes = {"sv_idx": len(sv_idx), "sv_labels": len(sv_labels),
             "sv_alpha": len(sv_alpha), "sv_rows": len(sv_rows)}
    if len(set(sizes.values())) != 1:
        raise DataFormatError(f"{path}: support-vector fields disagree in length {sizes}")
    if not np.all(np.abs(sv_labels) == 1):
        raise DataFormatError(f"{path}: field 'sv_labels' holds values outside {{-1, +1}}")
    return SvmModel(alpha=None, kernel=kernel, sv_idx=None, sv_labels=sv_labels,
                    sv_alpha=sv_alpha, sv_rows=sv_rows, stop=None, **scalars)


def _svm_from_v2(doc: dict, path, table: np.ndarray, kernel: KernelParams) -> SvmModel:
    """Parse one SVM of a version-2 file, whose support rows index ``table``."""
    with _fields(path, "SVM"):
        index = _integers(doc["sv_index"], path, "sv_index")
        coef = _finite(doc["sv_coef"], path, "sv_coef")
        scalars = _svm_scalars(doc, path)
        stop = doc["stop"]
    if index.ndim != 1:
        raise DataFormatError(f"{path}: field 'sv_index' is not a list of integers")
    if coef.ndim != 1:
        raise DataFormatError(f"{path}: field 'sv_coef' is not a list of numbers")
    if len(index) != len(coef):
        raise DataFormatError(
            f"{path}: support-vector fields disagree in length "
            f"{{'sv_index': {len(index)}, 'sv_coef': {len(coef)}}}")
    if np.any((index < 0) | (index >= len(table))):
        raise DataFormatError(
            f"{path}: field 'sv_index' holds a row index outside [0, {len(table)})")
    if np.any(coef == 0):
        raise DataFormatError(f"{path}: field 'sv_coef' holds a zero coefficient")
    if stop not in STOP_REASONS:
        raise DataFormatError(f"{path}: unknown stop reason {stop!r}")
    # |c| * sign(c) is c exactly, so bank_scores scatters the written sv_coef
    return SvmModel(alpha=None, kernel=kernel, sv_idx=None,
                    sv_labels=np.sign(coef).astype(np.int64), sv_alpha=np.abs(coef),
                    sv_rows=table[index], stop=stop, **scalars)


def _transitions_to_doc(t: TransitionMatrix) -> dict:
    return {
        "M": [[float(x) for x in row] for row in t.M],
        "prior": [float(x) for x in t.prior],
    }


def _transitions_from_doc(doc: dict, path) -> TransitionMatrix:
    with _fields(path, "transition"):
        return TransitionMatrix(M=_finite(doc["M"], path, "M"),
                                prior=_finite(doc["prior"], path, "prior"))


def save_model(path, pipe: Pipeline):
    """Persist a trained pipeline (minus the filter, stored separately).

    Writes format version 2: the distinct support rows of both banks once,
    as ``support_table`` orders them, and per model its row indices and
    signed coefficients alpha_j y_j.
    """
    mc = pipe.model
    pairs = sorted(mc.pairwise)
    models = [mc.pairwise[pair] for pair in pairs] + list(mc.one_vs_all)
    if any(m.sv_rows is None for m in models):
        raise ValueError("cannot persist a model without support-vector rows")
    kernels = {m.kernel for m in models}
    if len(kernels) != 1:
        raise ValueError(f"cannot persist models that disagree on the kernel {kernels}")
    table, where = support_table(models)
    entries = [_svm_to_doc(m, w) for m, w in zip(models, where)]
    doc = {
        "format_version": WRITE_VERSION["model"],
        "kind": "model",
        "method": pipe.method,
        "classes": [int(c) for c in mc.classes],
        "sigma_k": float(kernels.pop().sigma_k),
        "support_vectors": table.tolist(),
        "pairwise": [
            {"a": a, "b": b, "model": entry}
            for (a, b), entry in zip(pairs, entries)
        ],
        "one_vs_all": entries[len(pairs):],
        "platt": None if pipe.platt is None else [
            {"A": p.A, "B": p.B} for p in pipe.platt
        ],
        "transitions": _transitions_to_doc(pipe.transitions),
    }
    write_json(path, doc)


def load_model(path, bank: FilterBank) -> Pipeline:
    """Rebuild a pipeline from a model document (version 1 or 2) plus its filter bank.

    The banks must match the class list: one pairwise model for each pair
    of class indices a < b, and one one-vs-all model, Platt sigmoid and
    transition state per class.
    """
    doc = _load_json(path)
    version = _check_version(doc, path, "model")
    with _fields(path, "model"):
        classes = _integers(doc["classes"], path, "classes")
        if version == 1:
            parse = partial(_svm_from_v1, path=path, d=bank.d)
        else:
            parse = partial(_svm_from_v2, path=path,
                            table=_rows(doc["support_vectors"], path, "support_vectors", bank.d),
                            kernel=KernelParams(_number(doc["sigma_k"], path, "sigma_k")))
        pairs = [(_integer(e["a"], path, "a"), _integer(e["b"], path, "b"))
                 for e in doc["pairwise"]]
        pairwise = dict(zip(pairs, (parse(e["model"]) for e in doc["pairwise"])))
        one_vs_all = [parse(e) for e in doc["one_vs_all"]]
        platt = doc["platt"]
        if platt is not None:
            platt = [PlattParams(A=_number(p["A"], path, "A"),
                                 B=_number(p["B"], path, "B")) for p in platt]
        transitions = _transitions_from_doc(doc["transitions"], path)
        method = doc["method"]

    if classes.ndim != 1 or len(classes) < 2 or np.any(np.diff(classes) <= 0):
        raise DataFormatError(f"{path}: field 'classes' must hold 2 or more ascending labels")
    c = len(classes)
    expected = [(a, b) for a in range(c) for b in range(a + 1, c)]
    if sorted(pairs) != expected:
        raise DataFormatError(
            f"{path}: pairwise models {sorted(pairs)} do not match the {c} classes "
            f"(expected {expected})")
    counts = {"one_vs_all": len(one_vs_all), "transitions": len(transitions.prior)}
    if platt is not None:
        counts["platt"] = len(platt)
    wrong = {key: n for key, n in counts.items() if n != c}
    if wrong:
        raise DataFormatError(f"{path}: entries per class {wrong} do not match the {c} classes")
    # each bank is scored through one kernel (svm.bank_scores)
    sigmas = sorted({m.kernel.sigma_k for m in list(pairwise.values()) + one_vs_all})
    if len(sigmas) > 1:
        raise DataFormatError(f"{path}: models disagree on sigma_k {sigmas}")
    mc = MulticlassModel(classes=classes, pairwise=dict(sorted(pairwise.items())),
                         one_vs_all=one_vs_all)
    return Pipeline(method=method, filter=bank, model=mc,
                    transitions=transitions, platt=platt)


def save_history(path, history, filter_norms):
    """Objective trajectory CSV: iter,J,normF."""
    lines = ["iter,J,normF"]
    for i, (j, nf) in enumerate(zip(history, filter_norms)):
        lines.append(f"{i},{j!r},{nf!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
