import csv
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import coxmix
from coxmix import cli
from coxmix.cli import main
from coxmix.model import DcmModel


def run(argv):
    return main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run(["synth", "--n", "400", "--preset", "separated",
                "--censoring", "0.2", "--with-groups", "--seed", "1",
                "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model_dir(cohort_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    code = run(["train", "--data", str(cohort_dir / "cohort.csv"),
                "--group-col", "group", "--k", "2", "--layers", "8",
                "--epochs", "3", "--seed", "0", "--out", str(out)])
    assert code == 0
    return out


class TestSynth:
    def test_outputs(self, cohort_dir):
        rows = read_csv(cohort_dir / "cohort.csv")
        assert rows[0] == ["x0", "x1", "x2", "time", "event", "group"]
        assert len(rows) == 401
        sidecar = json.loads((cohort_dir / "sidecar.json").read_text())
        assert len(sidecar["latent"]) == 400
        cfg = json.loads((cohort_dir / "run_config.json").read_text())
        assert cfg["preset"] == "separated"

    def test_deterministic_bytes(self, tmp_path):
        args = ["synth", "--n", "50", "--preset", "ph", "--seed", "4"]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "cohort.csv").read_bytes()
        b = (tmp_path / "b" / "cohort.csv").read_bytes()
        assert a == b

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "clusters": [{"shape": 1.0, "scale": 2.0, "beta": [0.5, 0.0]}],
            "gating": [[0.0, 0.0]],
        }))
        assert run(["synth", "--n", "30", "--spec", str(spec),
                    "--out", str(tmp_path / "o")]) == 0
        rows = read_csv(tmp_path / "o" / "cohort.csv")
        assert rows[0] == ["x0", "x1", "time", "event"]


class TestTrain:
    def test_outputs(self, model_dir):
        assert (model_dir / "model.json").exists()
        log = read_csv(model_dir / "training_log.csv")
        assert log[0] == ["epoch", "train_q", "val_q", "batch_loss",
                          "starved_clusters"]
        assert len(log) >= 2
        cfg = json.loads((model_dir / "run_config.json").read_text())
        assert cfg["effective_dcm_config"]["n_clusters"] == 2

    def test_drop_columns(self, cohort_dir, tmp_path):
        code = run(["train", "--data", str(cohort_dir / "cohort.csv"),
                    "--group-col", "group", "--drop-columns", "x2",
                    "--k", "2", "--layers", "8", "--epochs", "2",
                    "--out", str(tmp_path)])
        assert code == 0
        model = json.loads((tmp_path / "model.json").read_text())
        assert model["feature_names"] == ["x0", "x1"]

    def test_missing_file_nonzero_exit_and_cleanup(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["train", "--data", str(tmp_path / "nope.csv"),
                    "--out", str(out)])
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not any(out.iterdir())


class TestPredict:
    def test_outputs(self, cohort_dir, model_dir, tmp_path):
        code = run(["predict", "--data", str(cohort_dir / "cohort.csv"),
                    "--group-col", "group",
                    "--model", str(model_dir / "model.json"),
                    "--horizons", "q50,2.0", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "predictions.csv")
        assert len(rows) == 401
        assert len(rows[0]) == 2
        vals = np.array([[float(v) for v in r] for r in rows[1:]])
        assert np.all((vals >= 0) & (vals <= 1))

    def test_feature_mismatch_fails(self, model_dir, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,time,event\n1,2,1.0,1\n3,4,2.0,0\n")
        code = run(["predict", "--data", str(bad),
                    "--model", str(model_dir / "model.json"),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert "feature names" in capsys.readouterr().err

    def test_permuted_columns_same_predictions(self, cohort_dir, model_dir, tmp_path):
        rows = read_csv(cohort_dir / "cohort.csv")
        permuted = tmp_path / "permuted.csv"
        with open(permuted, "w", newline="") as fh:
            csv.writer(fh).writerows(row[::-1] for row in rows)
        outputs = []
        for name, data in (("a", cohort_dir / "cohort.csv"), ("b", permuted)):
            assert run(["predict", "--data", str(data), "--group-col", "group",
                        "--model", str(model_dir / "model.json"),
                        "--horizons", "q50,2.0", "--out", str(tmp_path / name)]) == 0
            outputs.append((tmp_path / name / "predictions.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestEval:
    def test_outputs(self, cohort_dir, model_dir, tmp_path):
        code = run(["eval", "--data", str(cohort_dir / "cohort.csv"),
                    "--group-col", "group",
                    "--model", str(model_dir / "model.json"),
                    "--horizons", "q50", "--bootstrap", "10",
                    "--dump-baselines", "--out", str(tmp_path)])
        assert code == 0
        report = read_csv(tmp_path / "report.csv")
        assert report[0] == ["metric", "horizon", "group", "estimate", "se", "n"]
        groups = {r[2] for r in report[1:]}
        assert groups == {"population", "pos", "neg"}
        cal = read_csv(tmp_path / "calibration_bins.csv")
        assert len(cal) == 21  # header + 20 bins for one horizon
        assert (tmp_path / "baseline_0.csv").exists()
        assert (tmp_path / "baseline_1.csv").exists()
        js = json.loads((tmp_path / "report.json").read_text())
        assert all(set(r) == {"metric", "horizon", "group", "estimate",
                              "se", "n"} for r in js)


class TestCv:
    def test_pooled_report(self, cohort_dir, tmp_path):
        code = run(["cv", "--data", str(cohort_dir / "cohort.csv"),
                    "--group-col", "group", "--k", "2", "--layers", "8",
                    "--epochs", "2", "--folds", "2", "--horizons", "q50",
                    "--bootstrap", "5", "--out", str(tmp_path)])
        assert code == 0
        report = read_csv(tmp_path / "report.csv")
        pop = [r for r in report[1:] if r[2] == "population"]
        assert len(pop) == 4  # one row per metric
        assert (tmp_path / "report.json").exists()

    def test_grid_splits_and_standardizes_once(self, cohort_dir, tmp_path, monkeypatch):
        # 12 configurations share one split and one standardization per fold
        calls = []
        for name in ("k_fold_split", "standardize"):
            fn = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, fn=fn, name=name, **kw:
                                calls.append(name) or fn(*a, **kw))
        code = run(["cv", "--grid", "--data", str(cohort_dir / "cohort.csv"),
                    "--group-col", "group", "--folds", "5", "--epochs", "1", "--horizons", "q50",
                    "--bootstrap", "0", "--out", str(tmp_path)])
        assert code == 0
        assert calls.count("k_fold_split") == 1
        assert calls.count("standardize") == 5


class TestNanPredictions:
    """A NaN prediction stops eval and cv with the named error before any
    report is written, rather than leaving blank estimates in it."""

    bad, message = np.nan, "surv_matrix contains NaN predictions"

    @pytest.fixture(autouse=True)
    def bad_prediction(self, monkeypatch):
        predict, bad = DcmModel.predict_dataset, self.bad

        def poisoned(self, ds, horizons):
            surv = predict(self, ds, horizons)
            surv[0, 0] = bad
            return surv
        monkeypatch.setattr(DcmModel, "predict_dataset", poisoned)

    def check_failed(self, code, out, capsys):
        assert code == 1
        assert self.message in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_eval(self, cohort_dir, model_dir, tmp_path, capsys):
        code = run(["eval", "--data", str(cohort_dir / "cohort.csv"),
                    "--group-col", "group", "--model", str(model_dir / "model.json"),
                    "--horizons", "q50", "--bootstrap", "2", "--out", str(tmp_path)])
        self.check_failed(code, tmp_path, capsys)

    def test_cv(self, cohort_dir, tmp_path, capsys):
        code = run(["cv", "--data", str(cohort_dir / "cohort.csv"),
                    "--group-col", "group", "--k", "2", "--layers", "8",
                    "--epochs", "1", "--folds", "2", "--horizons", "q50",
                    "--bootstrap", "2", "--out", str(tmp_path)])
        self.check_failed(code, tmp_path, capsys)


class TestOutOfRangePredictions(TestNanPredictions):
    """A prediction above 1 stops eval and cv the same way; it used to be
    scored into finite estimates."""

    bad, message = 1.5, "surv_matrix contains predictions outside [0, 1]"


def test_runs_without_scipy(tmp_path):
    """numpy is the only runtime dependency: importing the package and its
    CLI loads no scipy, and synth -> train -> predict -> eval succeed in a
    fresh interpreter where every scipy import fails."""
    script = textwrap.dedent(f"""
        import sys
        import coxmix
        assert "scipy" not in sys.modules, "import coxmix loaded scipy"
        import coxmix.cli
        assert "scipy" not in sys.modules, "import coxmix.cli loaded scipy"
        sys.modules["scipy"] = None
        out = {str(tmp_path)!r}
        for argv in (
                ["synth", "--n", "200", "--censoring", "0.2", "--out", out + "/s"],
                ["train", "--data", out + "/s/cohort.csv", "--k", "2", "--layers", "8",
                 "--epochs", "2", "--out", out + "/t"],
                ["predict", "--data", out + "/s/cohort.csv", "--model", out + "/t/model.json",
                 "--out", out + "/p"],
                ["eval", "--data", out + "/s/cohort.csv", "--model", out + "/t/model.json",
                 "--bootstrap", "2", "--dump-baselines", "--out", out + "/e"]):
            assert coxmix.cli.main(argv) == 0, argv
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxmix.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "e" / "report.csv").exists()


class TestAtomicWrites:
    def test_failed_row_write_leaves_no_partial_file(self, tmp_path):
        def rows():
            yield [1.0, 2]
            raise RuntimeError("disk full")

        target = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            cli._write_csv(str(target), ["a", "b"], rows())
        assert os.listdir(tmp_path) == []
        target.write_text("kept\n")
        with pytest.raises(RuntimeError):
            cli._write_csv(str(target), ["a", "b"], rows())
        assert target.read_text() == "kept\n"
        assert os.listdir(tmp_path) == ["out.csv"]


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit):
            main(["synth", "--n", "10"])
