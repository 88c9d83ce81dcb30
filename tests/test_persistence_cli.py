import json

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from marginfilter.cli import main
from marginfilter.harness import calibrate_pipeline, train_pipeline
from marginfilter.persistence import (
    DataFormatError,
    load_dataset,
    load_filter,
    load_model,
    load_predictions,
    load_transitions,
    save_dataset,
    save_filter,
    save_model,
    save_transitions,
)
from marginfilter.signals import FilterBank, ToyParams, generate_toy, make_average_filter
from marginfilter.svm import decision_scores


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

    def test_lf_line_endings_and_dot_decimals(self, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(path, np.array([[1.25]]), [1])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert b"1.25" in raw


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

    def test_truncated_model_rejected(self, tmp_path, trained_pipeline):
        mp = tmp_path / "model.json"
        save_model(mp, trained_pipeline)
        mp.write_text(mp.read_text()[:100])
        with pytest.raises(DataFormatError, match="JSON"):
            load_model(mp, trained_pipeline.filter)

    @pytest.mark.parametrize("edit, match", [
        (lambda m: m["sv_labels"].__setitem__(0, 2), "sv_labels"),
        (lambda m: m["sv_labels"].__setitem__(-1, 0), "sv_labels"),
        (lambda m: m["sv_alpha"].pop(), "disagree in length"),
        (lambda m: m["sv_idx"].append(0), "disagree in length"),
        (lambda m: m["sv_rows"].pop(0), "disagree in length"),
        (lambda m: m["sv_rows"][0].append(1.0), "malformed"),
    ], ids=["label-2", "label-0", "short-alpha", "long-idx", "short-rows", "ragged-rows"])
    def test_inconsistent_support_vectors_rejected(self, tmp_path, trained_pipeline,
                                                   edit, match):
        mp = tmp_path / "model.json"
        save_model(mp, trained_pipeline)
        doc = json.loads(mp.read_text())
        edit(doc["one_vs_all"][1])
        mp.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=match) as info:
            load_model(mp, trained_pipeline.filter)
        assert str(mp) in str(info.value)

    def test_model_without_support_vectors_loads(self, tmp_path, trained_pipeline, rng):
        mp = tmp_path / "model.json"
        save_model(mp, trained_pipeline)
        doc = json.loads(mp.read_text())
        ova = doc["one_vs_all"][0]
        for key in ("sv_idx", "sv_labels", "sv_alpha", "sv_rows"):
            ova[key] = []
        mp.write_text(json.dumps(doc))
        model = load_model(mp, trained_pipeline.filter).model.one_vs_all[0]
        assert_array_equal(decision_scores(model, rng.normal(size=(5, 2))),
                           np.full(5, ova["bias"]))

    def test_mixed_kernel_bandwidths_rejected(self, tmp_path, trained_pipeline):
        mp = tmp_path / "model.json"
        save_model(mp, trained_pipeline)
        doc = json.loads(mp.read_text())
        doc["pairwise"][0]["model"]["sigma_k"] *= 2.0
        mp.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="sigma_k") as info:
            load_model(mp, trained_pipeline.filter)
        assert str(mp) in str(info.value)

    def test_transitions_roundtrip(self, tmp_path, trained_pipeline):
        path = tmp_path / "transitions.json"
        save_transitions(path, trained_pipeline.transitions)
        t = load_transitions(path)
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
        out = tmp_path / "run"
        self.run("generate-toy", "--n", 400, "--run-min", 8, "--run-max", 12,
                 "--sigma-n", 0.4, "--seed", 1, "-o", data)
        self.run("generate-toy", "--n", 200, "--run-min", 8, "--run-max", 12,
                 "--sigma-n", 0.4, "--seed", 2, "-o", val)
        assert self.run("train", "--data", data, "--val", val, "--method", "avg-svm",
                        "--f", 3, "--n0", 1, "--out-dir", out) == 0
        dec = tmp_path / "dec.csv"
        assert self.run("decode", "--model", out / "model.json",
                        "--filter", out / "filter.json", "--data", data,
                        "--mode", "viterbi", "-o", dec) == 0
        assert len(load_predictions(dec)) == 400

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

    def test_grid_search_writes_best_cell(self, tmp_path, toy_files):
        train, val, _ = toy_files
        best = tmp_path / "best.json"
        rc = self.run("grid-search", "--train", train, "--val", val,
                      "--method", "avg-svm", "--C-grid", "1,20",
                      "--sigma-k-grid", "1.0", "--f-grid", "3", "--n0-grid", "1",
                      "-o", best)
        assert rc == 0
        doc = json.loads(best.read_text())
        assert doc["best"]["C"] in (1.0, 20.0)
        assert 0.0 <= doc["validation_error"] <= 1.0

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

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert self.run("frobnicate") != 0

    def test_unknown_flag_is_usage_error(self):
        assert self.run("generate-toy", "--wat", 1, "-o", "x.csv") != 0

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        rc = self.run("train", "--data", tmp_path / "nope.csv",
                      "--method", "svm", "--out-dir", tmp_path / "out")
        assert rc == 1
        assert "error:" in capsys.readouterr().err

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
