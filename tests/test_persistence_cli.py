import json
import os
import re
import shutil
import stat
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from marginfilter import persistence
from marginfilter.cli import main
from marginfilter.harness import calibrate_pipeline, train_pipeline
from marginfilter.persistence import (
    DataFormatError,
    load_dataset,
    load_filter,
    load_model,
    load_predictions,
    save_dataset,
    save_filter,
    save_model,
    save_predictions,
)
from marginfilter.signals import FilterBank, ToyParams, generate_toy, make_average_filter
from marginfilter.svm import (
    STOP_MAX_ITER,
    PlattParams,
    bank_scores,
    class_probabilities,
    decision_scores,
)
from test_decoding import sequential_viterbi


@pytest.fixture
def toy_files(tmp_path):
    X, y = generate_toy(ToyParams(n=420, sigma_n=0.5, lag=1, nbtot=2,
                                  run_min=10, run_max=15, seed=8))
    train, val, test = tmp_path / "tr.csv", tmp_path / "va.csv", tmp_path / "te.csv"
    save_dataset(train, X[:200], y[:200])
    save_dataset(val, X[200:320], y[200:320])
    save_dataset(test, X[320:], y[320:])
    return train, val, test


class TestDatasetRoundTrip:
    def test_small_fixture_roundtrips(self, tmp_path):
        X = np.array([[1.5, -2.0], [0.0, 3.25], [4.0, 5.0]])
        y = np.array([1, 2, 1])
        path = tmp_path / "data.csv"
        save_dataset(path, X, y)
        X2, y2 = load_dataset(path)
        assert_array_equal(X2, X)
        assert_array_equal(y2, y)

    def test_unlabeled_roundtrip(self, tmp_path, rng):
        X = rng.normal(size=(10, 4))
        path = tmp_path / "data.csv"
        save_dataset(path, X)
        X2, y2 = load_dataset(path)
        assert_allclose(X2, X, atol=0)  # repr round trip is exact
        assert y2 is None

    def test_class_count_inferred(self, tmp_path):
        X = np.zeros((6, 1))
        y = np.array([1, 2, 3, 3, 2, 1])
        path = tmp_path / "data.csv"
        save_dataset(path, X, y)
        _, y2 = load_dataset(path)
        assert len(np.unique(y2)) == 3

    def test_ragged_row_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,ch1,label\n0,1.0,1\n1,2.0\n")
        with pytest.raises(DataFormatError, match="bad.csv:3"):
            load_dataset(path)

    def test_non_numeric_cell_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,ch1,label\n0,1.0,1\n1,oops,2\n")
        with pytest.raises(DataFormatError, match="bad.csv:3"):
            load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataFormatError, match="empty"):
            load_dataset(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,c1\n0,1.0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_dataset(path)

    @pytest.mark.parametrize("body, line, match", [
        # the cell count adds up, and the shifted table would parse
        ("0,1.0,1\n1,2.0,2,3\n2,3\n", 3, "expected 3 columns, got 4"),
        ("0,1.0,1\n1,2.0,1.0\n", 3, "label"),  # int(), not float()
        ("0,1.0,1\n1,,2\n", 3, "non-numeric"),
        # int() takes it, int64 does not
        ("0,1.0,99999999999999999999\n", 2, "label outside the int64 range"),
        ("0,1.0,1\n1,2.0,-9223372036854775809\n", 3, "label outside the int64 range"),
    ])
    def test_table_parse_falls_back_to_name_the_line(self, tmp_path, body, line, match):
        path = tmp_path / "bad.csv"
        path.write_text("t,ch1,label\n" + body)
        with pytest.raises(DataFormatError, match=f"bad.csv:{line}: .*{match}"):
            load_dataset(path)

    def test_cells_read_as_float_and_int_read_them(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,ch1,ch2,label\n0, 1_0 ,-0.0,+2\n1,nan_free,1e-3, 3\n")
        with pytest.raises(DataFormatError, match="data.csv:3"):
            load_dataset(path)
        path.write_text("t,ch1,ch2,label\n0, 1_0 ,-0.0,+2\nx,0x1,1e-3, 3\n")
        with pytest.raises(DataFormatError, match="data.csv:3"):
            load_dataset(path)
        path.write_text("t,ch1,ch2,label\n0, 1_0 ,-0.0,+2\nx,5E-324,1e-3, 3_0\n")
        X, y = load_dataset(path)
        assert_array_equal(X, [[10.0, -0.0], [5e-324, 1e-3]])
        assert np.signbit(X[0, 1])
        assert_array_equal(y, [2, 30])

    @pytest.mark.parametrize("bad_line", [None, 2, 4, 5, 9])
    def test_chunked_csv(self, tmp_path, rng, monkeypatch, bad_line):
        """8 rows written in chunks of 3 (the last chunk short) read back; a bad
        cell on any line is named by the row parser; CSV_CHUNK_ROWS governs
        only the writer."""
        monkeypatch.setattr(persistence, "CSV_CHUNK_ROWS", 3)
        X, y = rng.normal(size=(8, 2)), rng.integers(1, 4, size=8)
        path = tmp_path / "data.csv"
        save_dataset(path, X, y)
        if bad_line is None:
            X2, y2 = load_dataset(path)
            assert_array_equal(X2, X)
            assert_array_equal(y2, y)
            return
        lines = path.read_text().split("\n")
        cells = lines[bad_line - 1].split(",")
        lines[bad_line - 1] = ",".join([cells[0], "oops", *cells[2:]])
        path.write_text("\n".join(lines))
        with pytest.raises(DataFormatError, match=f"data.csv:{bad_line}: non-numeric"):
            load_dataset(path)

    @pytest.mark.parametrize("chunk", [7, 256])  # 50 rows: short last chunk, one chunk
    def test_saved_bytes_match_the_row_writer(self, tmp_path, rng, monkeypatch, chunk):
        monkeypatch.setattr(persistence, "CSV_CHUNK_ROWS", chunk)
        X = rng.normal(size=(50, 3)) * np.logspace(-8, 17, 3)
        X[0] = [-0.0, 5e-324, 1e16]
        y = rng.integers(1, 5, size=50)
        for labels in (y, None):
            path = tmp_path / "data.csv"
            save_dataset(path, X, labels)
            lines = ["t,ch1,ch2,ch3" + (",label" if labels is not None else "")]
            for i in range(len(X)):
                row = [str(i)] + [repr(float(x)) for x in X[i]]
                lines.append(",".join(row + ([] if labels is None else [str(int(labels[i]))])))
            assert path.read_text() == "\n".join(lines) + "\n"
            X2, y2 = load_dataset(path)
            assert_array_equal(X2, X)
            assert y2 is None if labels is None else np.array_equal(y2, labels)

    @pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
    @pytest.mark.parametrize("d", [1, 2, 6])
    def test_c_reader_matches_the_row_parser(self, tmp_path, rng, d, labeled):
        """np.loadtxt reads every double as float() does: any finite bit pattern,
        both zeros, the extremes, in shortest, 17-digit and exponent form."""
        n = 400
        X = rng.integers(0, 2**64, size=(n, d), dtype=np.uint64).view(np.float64)
        X[~np.isfinite(X)] = 1.0
        edges = [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308, 0.0, -0.0, 1.0]
        X.flat[: len(edges)] = edges
        y = rng.integers(1, 2**62, size=n)
        forms = [repr, "{:.17g}".format, "{:.25e}".format, "{:+.3E}".format, " {!r} ".format]
        header = "t," + ",".join(f"ch{v + 1}" for v in range(d)) + (",label" if labeled else "")
        lines = [header]
        for i in range(n):
            cells = [str(i)] + [forms[(i + v) % len(forms)](float(x)) for v, x in enumerate(X[i])]
            lines.append(",".join(cells + ([str(y[i])] if labeled else [])))
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        table = persistence._load_table(path)
        assert table is not None
        rows = persistence._load_rows(path)
        for fast, slow in zip(table, rows):
            if slow is None:
                assert fast is None
                continue
            assert fast.dtype == slow.dtype and fast.flags.c_contiguous
            assert_array_equal(fast, slow)
            assert_array_equal(np.signbit(fast), np.signbit(slow))
        assert np.signbit(table[0].flat[6]) and not np.signbit(table[0].flat[5])

    @pytest.mark.parametrize("body, value", [
        ("0,1_0,1\n", ([[10.0]], [1])),
        ("0,\u0661.5,1\n", ([[1.5]], [1])),  # Arabic-Indic digit one
        ("0,1.5,\u0662\n", ([[1.5]], [2])),
        ("x,1.5,2\n", ([[1.5]], [2])),  # the t cell is not read
        ("0,1.5,1.0\n", "data.csv:2: non-integer label"),
        ("0,0x1p3,1\n", "data.csv:2: non-numeric cell"),
        ("0,1.5\x1f,1\n", "data.csv:2: non-numeric cell"),
        ("0,1.5,\x1c1\n", "data.csv:2: non-integer label"),
        ("0,1.5,1\n\x1d\n", "data.csv:3: expected 3 columns, got 1"),
        ("0,1.5,1\n  \n", "data.csv:3: expected 3 columns, got 1"),
    ], ids=["underscore", "arabic-digit", "arabic-label", "text-t", "float-label", "hex",
            "x1f-after", "x1c-before", "x1d-line", "space-line"])
    def test_cells_the_c_reader_rejects_fall_back(self, tmp_path, body, value):
        path = tmp_path / "data.csv"
        path.write_text("t,ch1,label\n" + body)
        assert persistence._load_table(path) is None
        if isinstance(value, str):
            with pytest.raises(DataFormatError, match=re.escape(value)):
                load_dataset(path)
        else:
            X, y = load_dataset(path)
            assert_array_equal(X, value[0])
            assert_array_equal(y, value[1])

    def test_header_after_a_blank_line_falls_back(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\nt,ch1\n0,1.5\n\n1,2.5\n")
        assert persistence._load_table(path) is None
        X, y = load_dataset(path)
        assert_array_equal(X, [[1.5], [2.5]])
        assert y is None

    @pytest.mark.parametrize("text, message", [
        ("t,ch1,label\n0,1.0,1\n\n1,oops,2\n", "data.csv:4: non-numeric cell"),
        ("\nt,ch1,label\n0,1.0,1\n1,oops,2\n", "data.csv:4: non-numeric cell"),
        ("\nt,x1,label\n0,1.0,1\n", "data.csv:2: channel columns must be ch1..ch1"),
    ], ids=["blank-in-body", "blank-before-header", "bad-header-on-line-2"])
    def test_lines_are_numbered_as_in_the_file(self, tmp_path, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=re.escape(message)):
            load_dataset(path)

    @pytest.mark.parametrize("body", ["", "\n", "\n\n\r\n"])
    def test_header_only_file_has_no_data_rows(self, tmp_path, body):
        path = tmp_path / "data.csv"
        path.write_text("t,ch1,label\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="no data rows"):
                load_dataset(path)

    def test_crlf_and_blank_lines_read_by_the_c_reader(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"t,ch1,label\r\n\r\n0,+.5,+1\r\n1, 5. , 2\r\n\n2,-0,3")
        table = persistence._load_table(path)
        assert table is not None
        X, y = load_dataset(path)
        assert_array_equal(X, [[0.5], [5.0], [-0.0]])
        assert np.signbit(X[2, 0])
        assert_array_equal(y, [1, 2, 3])

    def test_lf_line_endings_and_dot_decimals(self, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(path, np.array([[1.25]]), [1])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert b"1.25" in raw


@pytest.fixture
def restore_umask():
    """Restore the process umask after a test that sets it."""
    old = os.umask(0o022)
    yield
    os.umask(old)


class TestFileModes:
    """Written files get the mode a plain open(path, "w") gives them."""

    @pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_new_file_mode_follows_the_umask(self, tmp_path, restore_umask, mask, mode):
        os.umask(mask)
        for name, save in (("data.csv", lambda p: save_dataset(p, np.ones((2, 1)), [1, 2])),
                           ("pred.csv", lambda p: save_predictions(p, [1, 2])),
                           ("filter.json", lambda p: save_filter(p, make_average_filter(3, 1, 2)))):
            save(tmp_path / name)
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "filter.json",
                                                              "pred.csv"]

    def test_overwritten_file_keeps_its_mode(self, tmp_path, restore_umask):
        path = tmp_path / "pred.csv"
        path.write_text("old\n")
        os.chmod(path, 0o640)
        save_predictions(path, [1, 2])
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
        assert load_predictions(path).tolist() == [1, 2]
        assert [p.name for p in tmp_path.iterdir()] == ["pred.csv"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        with pytest.raises(ValueError, match="JSON compliant"):
            persistence.write_json(tmp_path / "doc.json", {"x": float("nan")})
        with pytest.raises(TypeError):
            persistence.atomic_write_text(tmp_path / "doc.json", None)
        assert list(tmp_path.iterdir()) == []


class TestPredictionFile:
    @pytest.mark.parametrize("labels", [
        [], [1], [3.0, 1.0], list(range(1, 13)) * 9,
        np.random.default_rng(4).integers(1, 4, size=1000),
    ], ids=["empty", "one", "floats", "two-digit", "1000"])
    def test_bytes_match_the_row_writer(self, tmp_path, labels):
        path = tmp_path / "pred.csv"
        save_predictions(path, labels)
        lines = ["t,label"] + [f"{i},{int(v)}" for i, v in enumerate(labels)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert_array_equal(load_predictions(path), np.asarray(labels, dtype=np.int64))

    @pytest.mark.parametrize("text, line, match", [
        ("", 1, "expected header 't,label'"),
        ("t,lab\n0,1\n", 1, "expected header 't,label'"),
        ("t,label\n0,1,junk\n7,2\n", 2, "expected 2 columns, got 3"),
        ("t,label\n0,1\n1\n", 3, "expected 2 columns, got 1"),
        ("t,label\n0,1\n\n", 3, "expected 2 columns, got 1"),
        ("t,label\n0,1\n7,2\n", 3, "t is 7, expected 1"),
        ("t,label\n1,1\n", 2, "t is 1, expected 0"),
        ("t,label\n0,1.0\n", 2, "malformed cell"),
        ("t,label\nzero,1\n", 2, "malformed cell"),
        ("t,label\n0,99999999999999999999\n", 2, "malformed cell"),
        ("t,label\n0,1\n1,0\n", 3, "labels must be >= 1"),
    ])
    def test_malformed_file_rejected_with_line(self, tmp_path, text, line, match):
        path = tmp_path / "pred.csv"
        path.write_text(text)
        with pytest.raises(DataFormatError, match=f"pred.csv:{line}: {match}"):
            load_predictions(path)


class TestFilterRoundTrip:
    def test_exact_coefficients(self, tmp_path, rng):
        bank = FilterBank(rng.normal(size=(5, 3)), n0=2)
        path = tmp_path / "filter.json"
        save_filter(path, bank)
        bank2 = load_filter(path)
        assert_array_equal(bank2.coeffs, bank.coeffs)
        assert bank2.n0 == 2

    def test_field_mismatch_rejected(self, tmp_path):
        path = tmp_path / "filter.json"
        save_filter(path, make_average_filter(3, 1, 2))
        doc = json.loads(path.read_text())
        doc["f"] = 4  # now inconsistent with len(coeffs)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="coeffs"):
            load_filter(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "filter.json"
        save_filter(path, make_average_filter(3, 1, 2))
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="format_version"):
            load_filter(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "filter.json"
        save_filter(path, make_average_filter(3, 1, 2))
        path.write_text(path.read_text()[:40])
        with pytest.raises(DataFormatError, match="JSON"):
            load_filter(path)


@pytest.fixture
def trained_pipeline(toy_files):
    train, val, _ = toy_files
    X, y = load_dataset(train)
    pipe = train_pipeline(X, y, "avg_svm", C=20.0, sigma_k=1.0, f=3, n0=1)
    Xval, yval = load_dataset(val)
    calibrate_pipeline(pipe, Xval, yval)
    return pipe


@pytest.fixture
def three_class_pipeline():
    X, y = generate_toy(ToyParams(n=200, sigma_n=0.4, lag=1, nbtot=2, run_min=10,
                                  run_max=15, n_classes=3, seed=94))
    pipe = train_pipeline(X[:80], y[:80], "avg_svm", C=10.0, sigma_k=1.0, f=3, n0=1)
    return calibrate_pipeline(pipe, X[80:140], y[80:140])


# Model files written by save_model at format version 1, before version 2:
# a binary and a 3-class avg_svm pipeline (f=3, n0=1, C=10, sigma_k=1,
# Platt-calibrated), each with its filter, a 60-sample input and the labels
# the writing version gave it online and by Viterbi.
V1_FIXTURES = Path(__file__).parent / "data" / "model_v1"


def model_file(version, tmp_path, pipe):
    """A 3-class model file at ``version`` in tmp_path, its document and filter.

    Version 1 is the committed fixture; version 2 is ``pipe`` saved now.
    """
    mp = tmp_path / "model.json"
    if version == 1:
        shutil.copy(V1_FIXTURES / "three_class" / "model.json", mp)
        bank = load_filter(V1_FIXTURES / "three_class" / "filter.json")
    else:
        save_model(mp, pipe)
        bank = pipe.filter
    return mp, json.loads(mp.read_text()), bank


def edited(mp, doc):
    """Write ``doc`` (NaN and Infinity allowed) over the model file."""
    mp.write_text(json.dumps(doc))
    return mp


def assert_rejected(mp, bank, match):
    with pytest.raises(DataFormatError, match=match) as info:
        load_model(mp, bank)
    assert str(mp) in str(info.value)


class TestModelRoundTrip:
    def test_scores_preserved(self, tmp_path, trained_pipeline, rng):
        pipe = trained_pipeline
        mp, fp = tmp_path / "model.json", tmp_path / "filter.json"
        save_filter(fp, pipe.filter)
        save_model(mp, pipe)
        pipe2 = load_model(mp, load_filter(fp))

        Xte = rng.normal(size=(40, 2))
        Xf = pipe.filtered(Xte)
        for key in pipe.model.pairwise:
            s1 = decision_scores(pipe.model.pairwise[key], Xf)
            s2 = decision_scores(pipe2.model.pairwise[key], Xf)
            assert_allclose(s1, s2, atol=1e-10)
        assert_array_equal(pipe.predict(Xte, "online"), pipe2.predict(Xte, "online"))
        assert_array_equal(pipe.predict(Xte, "viterbi"), pipe2.predict(Xte, "viterbi"))

    @pytest.mark.parametrize("pipe_name", ["trained_pipeline", "three_class_pipeline"])
    def test_support_rows_stored_once_and_scores_exact(self, tmp_path, rng, request,
                                                       pipe_name):
        pipe = request.getfixturevalue(pipe_name)
        mp = tmp_path / "model.json"
        save_model(mp, pipe)
        doc = json.loads(mp.read_text())
        assert doc["format_version"] == 2
        mc = pipe.model
        trained = [mc.pairwise[p] for p in sorted(mc.pairwise)] + mc.one_vs_all
        table = np.asarray(doc["support_vectors"])
        # each distinct support row once, in np.unique order
        assert_array_equal(table, np.unique(np.concatenate([m.sv_rows for m in trained]),
                                            axis=0))
        entries = [e["model"] for e in doc["pairwise"]] + doc["one_vs_all"]
        for entry, model in zip(entries, trained):
            # nothing of training-set length: only the support vectors' entries
            assert set(entry) == {"bias", "C", "box", "objective", "stop",
                                  "sv_index", "sv_coef"}
            assert len(entry["sv_index"]) == len(entry["sv_coef"]) == len(model.sv_alpha)
            assert_array_equal(table[entry["sv_index"]], model.sv_rows)

        loaded = load_model(mp, pipe.filter).model
        assert list(loaded.pairwise) == list(mc.pairwise)
        Xf = pipe.filtered(rng.normal(size=(300, 2)))
        for bank, bank2 in ((list(mc.pairwise.values()), list(loaded.pairwise.values())),
                            (mc.one_vs_all, loaded.one_vs_all)):
            assert_array_equal(bank_scores(bank2, Xf), bank_scores(bank, Xf))
        for model in list(loaded.pairwise.values()) + loaded.one_vs_all:
            assert model.alpha is None and model.sv_idx is None

    def test_stop_reason_roundtrips(self, tmp_path, three_class_pipeline):
        mp = tmp_path / "model.json"
        mc = three_class_pipeline.model
        mc.one_vs_all[1].stop = STOP_MAX_ITER
        save_model(mp, three_class_pipeline)
        loaded = load_model(mp, three_class_pipeline.filter).model
        for key, model in mc.pairwise.items():
            assert loaded.pairwise[key].stop == model.stop
        assert [m.stop for m in loaded.one_vs_all] == [m.stop for m in mc.one_vs_all]
        assert not loaded.one_vs_all[1].converged

    def test_v1_stop_reason_unknown(self):
        bank = load_filter(V1_FIXTURES / "binary" / "filter.json")
        loaded = load_model(V1_FIXTURES / "binary" / "model.json", bank).model
        for model in list(loaded.pairwise.values()) + loaded.one_vs_all:
            assert model.stop is None and not model.converged
            assert model.alpha is None and model.sv_idx is None

    @pytest.mark.parametrize("name", ["binary", "three_class"])
    def test_v1_files_label_as_written(self, tmp_path, name):
        """Version-1 files still load, and label the fixed input as when written;
        saved again (version 2) they label it the same."""
        fixture = V1_FIXTURES / name
        assert json.loads((fixture / "model.json").read_text())["format_version"] == 1
        bank = load_filter(fixture / "filter.json")
        pipe = load_model(fixture / "model.json", bank)
        X, _ = load_dataset(fixture / "input.csv")
        mp = tmp_path / "model.json"
        save_model(mp, pipe)
        resaved = load_model(mp, bank)
        for decode in ("online", "viterbi"):
            want = load_predictions(fixture / f"{decode}.csv")
            assert_array_equal(pipe.predict(X, decode), want)
            assert_array_equal(resaved.predict(X, decode), want)

    @pytest.mark.parametrize("kind, version, match", [
        ("model", 3, "format_version"),
        ("model", 1, "missing SVM field"),  # a version-2 body is no version-1 one
        ("filter", 2, "format_version"),
    ])
    def test_version_read_per_kind(self, tmp_path, trained_pipeline, kind, version, match):
        path = tmp_path / f"{kind}.json"
        if kind == "model":
            save_model(path, trained_pipeline)
        else:
            save_filter(path, trained_pipeline.filter)
        doc = json.loads(path.read_text())
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=match):
            if kind == "model":
                load_model(path, trained_pipeline.filter)
            else:
                load_filter(path)

    def test_truncated_model_rejected(self, tmp_path, trained_pipeline):
        mp = tmp_path / "model.json"
        save_model(mp, trained_pipeline)
        mp.write_text(mp.read_text()[:100])
        with pytest.raises(DataFormatError, match="JSON"):
            load_model(mp, trained_pipeline.filter)

    @pytest.mark.parametrize("version, edit, match", [
        (1, lambda d, m: m["sv_labels"].__setitem__(0, 2), "sv_labels"),
        (1, lambda d, m: m["sv_labels"].__setitem__(-1, 0), "sv_labels"),
        (1, lambda d, m: m["sv_alpha"].pop(), "disagree in length"),
        (1, lambda d, m: m["sv_idx"].append(0), "disagree in length"),
        (1, lambda d, m: m["sv_rows"].pop(0), "disagree in length"),
        (1, lambda d, m: m["sv_rows"][0].append(1.0), "malformed"),
        (2, lambda d, m: m["sv_index"].__setitem__(0, len(d["support_vectors"])),
         "outside"),
        (2, lambda d, m: m["sv_index"].__setitem__(0, -1), "outside"),
        (2, lambda d, m: m["sv_index"].__setitem__(0, 1.5), "integers"),
        (2, lambda d, m: m["sv_coef"].pop(), "disagree in length"),
        (2, lambda d, m: m["sv_index"].append(0), "disagree in length"),
        (2, lambda d, m: m["sv_coef"].__setitem__(0, 0.0), "zero coefficient"),
        (2, lambda d, m: d["support_vectors"][0].append(1.0), "malformed"),
        (2, lambda d, m: d["support_vectors"][0].pop(), "malformed"),
        (2, lambda d, m: m.__setitem__("stop", "done"), "stop reason"),
    ], ids=["label-2", "label-0", "short-alpha", "long-idx", "short-rows", "ragged-rows",
            "v2-index-past-table", "v2-negative-index", "v2-float-index", "v2-short-coef",
            "v2-long-index", "v2-zero-coef", "v2-ragged-rows-long", "v2-ragged-rows-short",
            "v2-unknown-stop"])
    def test_inconsistent_support_vectors_rejected(self, tmp_path, three_class_pipeline,
                                                   version, edit, match):
        mp, doc, bank = model_file(version, tmp_path, three_class_pipeline)
        edit(doc, doc["one_vs_all"][1])
        assert_rejected(edited(mp, doc), bank, match)

    @pytest.mark.parametrize("version, edit, field", [
        (1, lambda d: d["classes"].__setitem__(1, 2.5), "classes"),
        (2, lambda d: d["classes"].__setitem__(1, 2.5), "classes"),
        (1, lambda d: d["one_vs_all"][0]["sv_labels"].__setitem__(0, 0.5), "sv_labels"),
        (1, lambda d: d["one_vs_all"][0]["sv_idx"].__setitem__(0, 1.5), "sv_idx"),
        (1, lambda d: d["pairwise"][2].__setitem__("a", 1.5), "a"),
        (2, lambda d: d["pairwise"][2].__setitem__("a", 1.5), "a"),
        (1, lambda d: d["pairwise"][0].__setitem__("b", 1.0), "b"),
        (2, lambda d: d["pairwise"][0].__setitem__("b", "1"), "b"),
        (2, lambda d: d["pairwise"][0].__setitem__("b", [1]), "b"),
        (2, lambda d: d["classes"].__setitem__(0, True), "classes"),
    ], ids=["v1-classes", "v2-classes", "v1-label", "v1-idx", "v1-a", "v2-a",
            "v1-b-float", "v2-b-string", "v2-b-list", "v2-classes-boolean"])
    def test_non_integers_rejected(self, tmp_path, three_class_pipeline, version, edit, field):
        # int() and an int64 cast would read 2.5 as 2 and 1.5 as 1
        mp, doc, bank = model_file(version, tmp_path, three_class_pipeline)
        edit(doc)
        assert_rejected(edited(mp, doc), bank, f"field '{field}' must hold integers")

    @pytest.mark.parametrize("bad", ["1.5", True], ids=["string", "boolean"])
    @pytest.mark.parametrize("version, edit, field", [
        (1, lambda d, m, v: m.__setitem__("bias", v), "bias"),
        (2, lambda d, m, v: m.__setitem__("bias", v), "bias"),
        (2, lambda d, m, v: m.__setitem__("C", v), "C"),
        (2, lambda d, m, v: m.__setitem__("box", v), "box"),
        (2, lambda d, m, v: m.__setitem__("objective", v), "objective"),
        (1, lambda d, m, v: m.__setitem__("sigma_k", v), "sigma_k"),
        (2, lambda d, m, v: d.__setitem__("sigma_k", v), "sigma_k"),
        (1, lambda d, m, v: m["sv_alpha"].__setitem__(0, v), "sv_alpha"),
        (2, lambda d, m, v: m["sv_coef"].__setitem__(0, v), "sv_coef"),
        (1, lambda d, m, v: m["sv_rows"][-1].__setitem__(1, v), "sv_rows"),
        (2, lambda d, m, v: d["support_vectors"][-1].__setitem__(1, v), "support_vectors"),
        (2, lambda d, m, v: d["platt"][1].__setitem__("A", v), "A"),
        (2, lambda d, m, v: d["platt"][1].__setitem__("B", v), "B"),
        (2, lambda d, m, v: d["transitions"]["M"][1].__setitem__(2, v), "M"),
        (2, lambda d, m, v: d["transitions"]["prior"].__setitem__(0, v), "prior"),
    ], ids=["v1-bias", "v2-bias", "C", "box", "objective", "v1-sigma_k", "v2-sigma_k",
            "v1-sv_alpha", "v2-sv_coef", "v1-sv_rows", "v2-support_vectors", "platt-A",
            "platt-B", "transitions-M", "prior"])
    def test_float_fields_take_numbers_only(self, tmp_path, three_class_pipeline,
                                            version, edit, field, bad):
        """A float field holds JSON numbers: a cast would parse a string and read
        a boolean, alone or among numbers, as 0 or 1."""
        mp, doc, bank = model_file(version, tmp_path, three_class_pipeline)
        edit(doc, doc["pairwise"][1]["model"], bad)
        assert_rejected(edited(mp, doc), bank, f"field '{field}' must hold numbers")

    @pytest.mark.parametrize("coeffs", [["1", "2"], [True, 2.0], [1.0, None], "1.0"],
                             ids=["strings", "boolean", "null", "string"])
    def test_filter_coefficients_take_numbers_only(self, tmp_path, coeffs):
        path = tmp_path / "filter.json"
        path.write_text(json.dumps({"format_version": 1, "kind": "filter",
                                    "f": 2, "d": 1, "n0": 0, "coeffs": coeffs}))
        with pytest.raises(DataFormatError, match="field 'coeffs' must hold numbers"):
            load_filter(path)

    @pytest.mark.parametrize("field", ["f", "d", "n0"])
    def test_filter_non_integers_rejected(self, tmp_path, field):
        doc = json.loads((V1_FIXTURES / "three_class" / "filter.json").read_text())
        doc[field] += 0.5
        path = tmp_path / "filter.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=f"field '{field}' must hold integers"):
            load_filter(path)

    def test_model_without_support_vectors_loads(self, tmp_path, three_class_pipeline, rng):
        Xf = rng.normal(size=(5, 2))
        for version, keys in ((1, ("sv_idx", "sv_labels", "sv_alpha", "sv_rows")),
                              (2, ("sv_index", "sv_coef"))):
            mp, doc, bank = model_file(version, tmp_path, three_class_pipeline)
            ova = doc["one_vs_all"][0]
            for key in keys:
                ova[key] = []
            model = load_model(edited(mp, doc), bank).model.one_vs_all[0]
            assert_array_equal(decision_scores(model, Xf), np.full(5, ova["bias"]))
        # no model with a support vector: an empty table
        mp, doc, bank = model_file(2, tmp_path, three_class_pipeline)
        doc["support_vectors"] = []
        for entry in [e["model"] for e in doc["pairwise"]] + doc["one_vs_all"]:
            entry["sv_index"], entry["sv_coef"] = [], []
        mc = load_model(edited(mp, doc), bank).model
        assert_array_equal(bank_scores(mc.one_vs_all, Xf),
                           np.tile([e["bias"] for e in doc["one_vs_all"]], (5, 1)))

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", [
        "bias", "C", "box", "coef", "row", "platt-A", "platt-B", "sigma_k"])
    def test_non_finite_numbers_rejected(self, tmp_path, three_class_pipeline,
                                         version, value, field):
        mp, doc, bank = model_file(version, tmp_path, three_class_pipeline)
        model = doc["pairwise"][1]["model"]
        if field in ("bias", "C", "box"):
            model[field] = value
        elif field == "coef":
            model["sv_alpha" if version == 1 else "sv_coef"][0] = value
        elif field == "row":
            rows = model["sv_rows"] if version == 1 else doc["support_vectors"]
            rows[-1][0] = value
        elif field == "sigma_k":
            (model if version == 1 else doc)["sigma_k"] = value
        else:
            doc["platt"][2][field[-1]] = value
        assert_rejected(edited(mp, doc), bank, "non-finite|sigma_k")

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("value", [1e-300, 1e200])
    def test_bandwidth_out_of_range_rejected(self, tmp_path, three_class_pipeline,
                                             version, value):
        mp, doc, bank = model_file(version, tmp_path, three_class_pipeline)
        for entry in [e["model"] for e in doc["pairwise"]] + doc["one_vs_all"] \
                if version == 1 else [doc]:
            entry["sigma_k"] = value
        assert_rejected(edited(mp, doc), bank, re.escape(f"sigma_k={value!r}"))

    @pytest.mark.parametrize("field", ["bias", "platt"])
    def test_non_finite_numbers_never_written(self, tmp_path, three_class_pipeline, field):
        pipe = three_class_pipeline
        if field == "bias":
            pipe.model.pairwise[(0, 2)].bias = np.nan
        else:
            pipe.platt[1] = PlattParams(A=np.inf, B=0.0)
        mp = tmp_path / "model.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            save_model(mp, pipe)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("edit, match", [
        (lambda d: d["pairwise"].pop(1), "pairwise models"),
        (lambda d: d["pairwise"][2].__setitem__("b", 5), "pairwise models"),
        (lambda d: d["pairwise"][2].update(a=0, b=1), "pairwise models"),
        (lambda d: d["one_vs_all"].pop(), "one_vs_all"),
        (lambda d: d["platt"].pop(), "platt"),
        (lambda d: d["classes"].pop(), "pairwise models"),
        (lambda d: d["classes"].reverse(), "ascending"),
    ], ids=["missing-pair", "pair-index-5", "repeated-pair", "short-one-vs-all",
            "short-platt", "short-classes", "descending-classes"])
    def test_banks_must_match_the_classes(self, tmp_path, three_class_pipeline,
                                          version, edit, match):
        mp, doc, bank = model_file(version, tmp_path, three_class_pipeline)
        edit(doc)
        assert_rejected(edited(mp, doc), bank, match)

    def test_mixed_kernel_bandwidths_rejected(self, tmp_path):
        # only a version-1 file stores a bandwidth per model
        mp, doc, bank = model_file(1, tmp_path, None)
        doc["pairwise"][0]["model"]["sigma_k"] *= 2.0
        assert_rejected(edited(mp, doc), bank, "sigma_k")

    @pytest.mark.parametrize("method, nbtot, n_classes", [
        ("kf_svm", 2, 2), ("skf_svm", 6, 2), ("avg_svm", 2, 3)],
        ids=["headline-kf_svm", "skf-select-skf_svm", "label-long-avg_svm"])
    def test_workload_pipelines_roundtrip_exactly(self, tmp_path, rng, method, nbtot,
                                                  n_classes):
        """Each benchmark workload's pipeline type, saved and loaded, scores
        bit for bit as trained; its files are single-line compact JSON."""
        X, y = generate_toy(ToyParams(n=160, sigma_n=0.5, lag=1, nbtot=nbtot,
                                      run_min=10, run_max=15, n_classes=n_classes, seed=3))
        pipe = train_pipeline(X[:100], y[:100], method, C=10.0, sigma_k=1.0,
                              lam=2.0 if method == "skf_svm" else 0.0, f=3, n0=1,
                              learner_kwargs={"max_cg_iters": 3})
        calibrate_pipeline(pipe, X[100:], y[100:])
        mp, fp = tmp_path / "model.json", tmp_path / "filter.json"
        save_model(mp, pipe)
        save_filter(fp, pipe.filter)
        for path in (mp, fp):
            text = path.read_text()
            assert text.count("\n") == 1 and text.endswith("\n")
            assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"
        loaded = load_model(mp, load_filter(fp))
        assert_array_equal(loaded.filter.coeffs, pipe.filter.coeffs)
        Xf = pipe.filtered(rng.normal(size=(300, nbtot)))
        mc, mc2 = pipe.model, loaded.model
        for bank, bank2 in ((list(mc.pairwise.values()), list(mc2.pairwise.values())),
                            (mc.one_vs_all, mc2.one_vs_all)):
            assert_array_equal(bank_scores(bank2, Xf), bank_scores(bank, Xf))

    def test_transitions_roundtrip(self, tmp_path, trained_pipeline):
        """The model file embeds the transition matrix and the class prior."""
        path = tmp_path / "model.json"
        save_model(path, trained_pipeline)
        t = load_model(path, trained_pipeline.filter).transitions
        assert_array_equal(t.M, trained_pipeline.transitions.M)
        assert_array_equal(t.prior, trained_pipeline.transitions.prior)


class TestCli:
    def run(self, *argv):
        return main([str(a) for a in argv])

    def test_generate_train_predict_pipeline(self, tmp_path):
        data = tmp_path / "toy.csv"
        out = tmp_path / "run"
        assert self.run("generate-toy", "--n", 300, "--sigma-n", 0.4, "--lag", 1,
                        "--nbtot", 2, "--run-min", 8, "--run-max", 12,
                        "--seed", 0, "-o", data) == 0
        assert self.run("train", "--data", data, "--method", "avg-svm",
                        "--f", 3, "--n0", 1, "--C", 20, "--out-dir", out) == 0
        assert (out / "model.json").exists() and (out / "filter.json").exists()
        pred = tmp_path / "pred.csv"
        assert self.run("predict", "--model", out / "model.json",
                        "--filter", out / "filter.json",
                        "--data", data, "-o", pred) == 0
        labels = load_predictions(pred)
        assert len(labels) == 300

    def test_decode_viterbi_needs_calibration(self, tmp_path):
        data = tmp_path / "toy.csv"
        out = tmp_path / "run"
        self.run("generate-toy", "--n", 300, "--run-min", 8, "--run-max", 12,
                 "--sigma-n", 0.4, "-o", data)
        self.run("train", "--data", data, "--method", "svm", "--out-dir", out)
        rc = self.run("decode", "--model", out / "model.json",
                      "--filter", out / "filter.json", "--data", data,
                      "--mode", "viterbi", "-o", tmp_path / "d.csv")
        assert rc != 0  # trained without --val: no Platt parameters

    def test_decode_viterbi_with_calibration(self, tmp_path):
        data = tmp_path / "toy.csv"
        val = tmp_path / "val.csv"
        test = tmp_path / "test.csv"
        out = tmp_path / "run"
        for path, n, seed in ((data, 400, 1), (val, 200, 2), (test, 3200, 3)):
            self.run("generate-toy", "--n", n, "--run-min", 8, "--run-max", 12,
                     "--sigma-n", 0.4, "--seed", seed, "-o", path)
        assert self.run("train", "--data", data, "--val", val, "--method", "avg-svm",
                        "--f", 3, "--n0", 1, "--out-dir", out) == 0
        dec = tmp_path / "dec.csv"
        assert self.run("decode", "--model", out / "model.json",
                        "--filter", out / "filter.json", "--data", test,
                        "--mode", "viterbi", "-o", dec) == 0
        labels = load_predictions(dec)
        # 3200 samples: Viterbi runs 57 blocks of up to 57 steps
        pipe = load_model(out / "model.json", load_filter(out / "filter.json"))
        X, _ = load_dataset(test)
        assert_array_equal(labels, pipe.predict(X, "viterbi"))
        E = np.log(class_probabilities(pipe.model, pipe.platt, pipe.filtered(X)))
        want = pipe.model.classes[sequential_viterbi(E, pipe.transitions) - 1]
        assert_array_equal(labels, want)
        assert np.any(labels != pipe.predict(X, "online"))

    def test_avg_svm_f1_equals_plain_svm(self, tmp_path):
        """A length-1 average filter is the identity, so both methods must
        emit identical predictions."""
        data = tmp_path / "toy.csv"
        self.run("generate-toy", "--n", 250, "--run-min", 8, "--run-max", 12,
                 "--sigma-n", 0.5, "-o", data)
        preds = {}
        for method in ("svm", "avg-svm"):
            out = tmp_path / method
            self.run("train", "--data", data, "--method", method, "--f", 1,
                     "--n0", 0, "--out-dir", out)
            pred = tmp_path / f"{method}.pred.csv"
            self.run("predict", "--model", out / "model.json",
                     "--filter", out / "filter.json", "--data", data, "-o", pred)
            preds[method] = load_predictions(pred)
        assert_array_equal(preds["svm"], preds["avg-svm"])

    def test_rerun_writes_identical_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["generate-toy", "--n", 200, "--sigma-n", 1.0, "--lag", 2,
                "--seed", 7]
        self.run(*args, "-o", a)
        self.run(*args, "-o", b)
        assert a.read_bytes() == b.read_bytes()

    def test_input_files_not_mutated(self, tmp_path):
        data = tmp_path / "toy.csv"
        self.run("generate-toy", "--n", 220, "--run-min", 8, "--run-max", 12,
                 "--sigma-n", 0.4, "-o", data)
        before = data.read_bytes()
        self.run("train", "--data", data, "--method", "svm",
                 "--out-dir", tmp_path / "out")
        assert data.read_bytes() == before

    def test_split_mode_shares_lags(self, tmp_path):
        stem = tmp_path / "bench.csv"
        assert self.run("generate-toy", "--sigma-n", 0.3, "--lag", 3,
                        "--seed", 4, "--split", "100,50,80", "-o", stem) == 0
        Xtr, ytr = load_dataset(tmp_path / "bench.train.csv")
        Xva, _ = load_dataset(tmp_path / "bench.val.csv")
        Xte, _ = load_dataset(tmp_path / "bench.test.csv")
        assert len(Xtr) == 100 and len(Xva) == 50 and len(Xte) == 80
        X, y = generate_toy(ToyParams(n=230, sigma_n=0.3, lag=3, nbtot=2, seed=4))
        assert_allclose(np.vstack([Xtr, Xva, Xte]), X)
        assert_array_equal(ytr, y[:100])

    @pytest.mark.parametrize("split", ["0,0,0", "10,20", "10,20,30,40", "10,-5,30", ""])
    def test_split_is_checked_before_a_signal_is_generated(self, tmp_path, capsys,
                                                            monkeypatch, split):
        def generating(params):
            raise AssertionError("a signal was generated")

        monkeypatch.setattr("marginfilter.cli.generate_toy", generating)
        rc = self.run("generate-toy", "--split", split, "-o", tmp_path / "bench.csv")
        assert rc == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == "error: --split needs three positive sizes: NTRAIN,NVAL,NTEST"
        assert list(tmp_path.iterdir()) == []

    def test_grid_search_writes_best_cell(self, tmp_path, toy_files):
        train, val, _ = toy_files
        best = tmp_path / "best.json"
        rc = self.run("grid-search", "--train", train, "--val", val,
                      "--method", "avg-svm", "--C-grid", "1,20",
                      "--sigma-k-grid", "1.0", "--f-grid", "3", "--n0-grid", "1",
                      "-o", best)
        assert rc == 0
        text = best.read_text()
        assert text.count("\n") == 1  # the compact writer of model files
        doc = json.loads(text)
        assert set(doc) == {"method", "decode", "best", "validation_error",
                            "cells_evaluated", "cells_failed"}
        assert doc["method"] == "avg-svm" and doc["decode"] == "online"
        assert doc["best"]["C"] in (1.0, 20.0)
        assert 0.0 <= doc["validation_error"] <= 1.0
        assert doc["cells_evaluated"] == 2 and doc["cells_failed"] == []

    def test_sweep_and_compare_pipeline(self, tmp_path):
        out = tmp_path / "sweep"
        rc = self.run("sweep", "--axis", "noise", "--values", "0.5",
                      "--methods", "svm,avg-svm", "--seeds", 5,
                      "--n-train", 400, "--n-val", 400, "--n-test", 400,
                      "--lag", 0, "--out-dir", out)
        assert rc == 0
        results = out / "results.csv"
        assert results.exists() and (out / "summary.csv").exists()
        rc = self.run("compare", "--file-a", results, "--file-b", results,
                      "--method-a", "svm", "--method-b", "avg-svm",
                      "--decode-a", "online", "--decode-b", "online")
        assert rc == 0

    @staticmethod
    def write_results(path, n_seeds, tail=""):
        lines = ["axis_value,method,decode,seed,test_error"]
        for seed in range(n_seeds):
            lines.append(f"0.5,svm,online,{seed},{0.1 + 0.01 * seed!r}")
            lines.append(f"0.5,avg_svm,online,{seed},{0.05 + 0.01 * seed!r}")
        path.write_text("\n".join(lines) + "\n" + tail)
        return path

    def test_compare_skips_blank_lines(self, tmp_path, capsys):
        results = self.write_results(tmp_path / "results.csv", 7, tail="\n\n")
        rc = self.run("compare", "--file-a", results, "--file-b", results,
                      "--method-a", "svm", "--method-b", "avg-svm")
        assert rc == 0
        assert "pairs=7" in capsys.readouterr().out

    @pytest.mark.parametrize("tail, message", [
        ("0.5,avg_svm,online,7", "expected 5 columns, got 4"),
        ("0.5,svm,online,7,0.2,x", "expected 5 columns, got 6"),
        ("0.5,svm,online,x,0.2", "invalid literal for int"),
    ], ids=["truncated", "extra-column", "bad-seed"])
    def test_compare_rejects_a_malformed_row(self, tmp_path, capsys, tail, message):
        results = self.write_results(tmp_path / "results.csv", 7, tail=tail + "\n")
        rc = self.run("compare", "--file-a", results, "--file-b", results,
                      "--method-a", "svm", "--method-b", "avg-svm")
        assert rc == 1
        assert f"{results}:16: {message}" in capsys.readouterr().err

    def test_sweep_with_no_rows_fails(self, tmp_path, capsys):
        # an empty test set fails every task after its grid search
        out = tmp_path / "sweep"
        rc = self.run("sweep", "--axis", "noise", "--values", "0.5,1.0", "--methods", "svm",
                      "--seeds", 1, "--n-train", 200, "--n-val", 200, "--n-test", 0,
                      "--out-dir", out)
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert [ln.split(" failed:")[0] for ln in err[:2]] == [
            "warning: cell (0.5, 'svm', 0)", "warning: cell (1.0, 'svm', 0)"]
        assert err[2:] == ["error: every sweep task failed (2); nothing written"]
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["f", "size", "lag"])
    def test_sweep_rejects_non_integer_values(self, tmp_path, capsys, axis):
        rc = self.run("sweep", "--axis", axis, "--values", "2.5,4", "--methods", "svm",
                      "--seeds", 1, "--out-dir", tmp_path / "sweep")
        assert rc == 1
        assert "integer values, got [2.5]" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_sweep_rejects_an_unknown_method(self, tmp_path, capsys):
        # --methods takes the flag spellings; the internal names are refused
        out = tmp_path / "sweep"
        rc = self.run("sweep", "--axis", "noise", "--methods", "svm,kf_svm", "--seeds", 1,
                      "--out-dir", out)
        assert rc == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == ("error: --methods: unknown method(s) kf_svm; expected a "
                        "comma-separated list of svm, avg-svm, kf-svm, skf-svm")
        assert not out.exists()

    @pytest.mark.parametrize("doc, message", [
        ({"kf_svm": {"lambda": [1.0]}}, "kf_svm: unknown grid axis 'lambda'"),
        ({"kf_svm": {"C": 5}}, "kf_svm: grid axis C must be a list"),
        ([1, 2], "a sweep config maps each method to an object of grid axes"),
        ({"avg_svm": {"f": [2.5], "n0": [1]}}, "grid axis f takes integers, got [2.5]"),
    ], ids=["unknown-axis", "scalar-axis", "not-an-object", "float-f"])
    def test_sweep_rejects_a_malformed_config(self, tmp_path, capsys, doc, message):
        config = tmp_path / "grids.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "sweep"
        rc = self.run("sweep", "--axis", "noise", "--values", "0.5", "--methods", "avg-svm",
                      "--seeds", 1, "--n-train", 60, "--n-val", 60, "--n-test", 60,
                      "--config", config, "--out-dir", out)
        assert rc == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {config}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_a_negative_max_cg_iters_is_rejected(self, tmp_path, capsys, toy_files, command):
        out = tmp_path / "out"
        if command == "train":
            argv = ("train", "--data", toy_files[0], "--method", "kf-svm", "--f", 3,
                    "--n0", 1, "--max-cg-iters", -3, "--out-dir", out)
        else:
            argv = ("sweep", "--axis", "noise", "--values", "0.5", "--methods", "kf-svm",
                    "--seeds", 1, "--n-train", 60, "--n-val", 60, "--n-test", 60,
                    "--max-cg-iters", -3, "--out-dir", out)
        assert self.run(*argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == "error: max_cg_iters must be an integer >= 0, got -3"
        assert not out.exists()

    def test_a_fixed_filter_writes_a_one_row_history(self, tmp_path, toy_files):
        """A fixed filter is a fit of zero steps: its history is the one
        objective value at the average filter."""
        out = tmp_path / "svm"
        assert self.run("train", "--data", toy_files[0], "--method", "svm",
                        "--out-dir", out) == 0
        hist = (out / "history.csv").read_text().strip().split("\n")
        assert hist[0] == "iter,J,normF" and len(hist) == 2
        assert hist[1].startswith("0,")

    def test_predict_is_online_decode(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        out = tmp_path / "run"
        self.run("generate-toy", "--n", 240, "--run-min", 8, "--run-max", 12,
                 "--sigma-n", 0.5, "-o", data)
        self.run("train", "--data", data, "--method", "avg-svm", "--f", 3, "--n0", 1,
                 "--out-dir", out)
        files = ("--model", out / "model.json", "--filter", out / "filter.json",
                 "--data", data)
        assert self.run("predict", *files, "-o", tmp_path / "p.csv") == 0
        assert self.run("decode", *files, "--mode", "online", "-o", tmp_path / "d.csv") == 0
        assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()
        assert capsys.readouterr().out.splitlines()[-2].endswith("240 labels (online)")

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert self.run("frobnicate") != 0

    def test_unknown_flag_is_usage_error(self):
        assert self.run("generate-toy", "--wat", 1, "-o", "x.csv") != 0

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        rc = self.run("train", "--data", tmp_path / "nope.csv",
                      "--method", "svm", "--out-dir", tmp_path / "out")
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["1e-300", "1e200"])
    def test_out_of_range_bandwidth_fails_cleanly(self, tmp_path, capsys, toy_files, sigma):
        # 2 sigma_k^2 underflows to 0 or overflows to inf
        rc = self.run("train", "--data", toy_files[0], "--method", "svm",
                      "--sigma-k", sigma, "--out-dir", tmp_path / "out")
        assert rc == 1
        assert "error: 2 sigma_k^2 " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_history_csv_written_for_learned_filters(self, tmp_path):
        data = tmp_path / "toy.csv"
        self.run("generate-toy", "--n", 260, "--run-min", 8, "--run-max", 12,
                 "--sigma-n", 0.5, "--lag", 1, "-o", data)
        out = tmp_path / "kf"
        assert self.run("train", "--data", data, "--method", "kf-svm",
                        "--f", 3, "--n0", 1, "--C", 20, "--lambda", 0.5,
                        "--max-cg-iters", 4, "--out-dir", out) == 0
        hist = (out / "history.csv").read_text().strip().split("\n")
        assert hist[0] == "iter,J,normF"
        assert len(hist) >= 2
        # J column non-increasing over accepted steps
        js = [float(ln.split(",")[1]) for ln in hist[1:]]
        assert all(b <= a + 1e-10 for a, b in zip(js, js[1:]))
