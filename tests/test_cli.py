import csv
import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
from dataclasses import fields

import numpy as np
import pytest

import coxmix
from coxmix import cli
from coxmix.cli import main
from coxmix.model import DcmConfig, DcmModel, ModelError
from coxmix.synth import SynthConfig


def run(argv):
    return main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def subprocess_env():
    """This environment, with the tested sources first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxmix.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


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

    @pytest.mark.parametrize("cluster", [
        {"shape": 1.0, "scale": 0.0, "beta": [0.5, 0.0]},  # wrote all-zero times
        {"shape": -1.0, "scale": 2.0, "beta": [0.5, 0.0]},  # generated a cohort
    ])
    def test_bad_spec_fails(self, tmp_path, capsys, cluster):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"clusters": [cluster], "gating": [[0.0, 0.0]]}))
        assert run(["synth", "--n", "30", "--spec", str(spec),
                    "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("coxmix synth: error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec, named", [
        ({"clusters": [{"shape": 1.0, "scale": 2.0, "beta": [0.5]}]}, "needs a 'gating' entry"),
        ({"clusters": [{"shape": 1.0, "scale": 2.0, "beta": 0.5}], "gating": [[0.0]]},
         "'beta' must be a list of numbers, got 0.5"),
        ({"clusters": [{"scale": 2.0, "beta": [0.5]}], "gating": [[0.0]]},
         "cluster 0 needs a 'shape' entry"),
        ({"clusters": [{"shape": "1", "scale": 2.0, "beta": [0.5]}], "gating": [[0.0]]},
         "'shape' must be a number"),
        ({"clusters": [{"shape": 1.0, "scale": 2.0, "beta": [0.5]}], "gating": [0.0]},
         "'gating' must be a list of lists"),
        ([1, 2], "needs a 'clusters' entry"),
    ])
    def test_spec_entry_errors_are_named(self, tmp_path, capsys, spec, named):
        # a missing gating printed "error: 'gating'", and "beta": 0.5 printed
        # "'float' object is not iterable"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert run(["synth", "--n", "5", "--spec", str(path),
                    "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("coxmix synth: error: ") and named in err, err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, message", [
    (["--n", "-5"], "--n needs at least one record, got -5"),
    (["--n", "10", "--censoring", "1.5"], "--censoring must be in [0, 0.95], got 1.5"),
], ids=["n", "censoring"])
def test_synth_refusals_name_their_flag(tmp_path, capsys, flags, message):
    # these printed "need at least one record, got n=-5" and "censoring
    # fraction must be in [0, 0.95]", which named no flag
    out = tmp_path / "o"
    assert run(["synth", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"coxmix synth: error: {message}"]
    assert not out.exists()


class TestFlagTable:
    """A config field's flag takes its name, default and help text from the field."""

    TRAINING_FLAGS = ["--k", "--layers", "--lr", "--batch", "--epochs", "--patience"]

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_training_defaults_are_the_config_defaults(self, command):
        args = cli.build_parser().parse_args([command, "--data", "d.csv", "--out", "o"])
        assert cli._dcm_config(args) == DcmConfig()

    def test_synth_defaults_are_the_config_defaults(self):
        args = cli.build_parser().parse_args(["synth", "--n", "5", "--out", "o"])
        default = {f.name: f.default for f in fields(SynthConfig)}
        assert args.censoring == default["censoring_fraction"]
        assert args.with_groups is default["with_groups"]

    @pytest.mark.parametrize("command", ["synth", "train", "eval", "cv", "predict"])
    def test_help(self, command, capsys, monkeypatch):
        # argparse formats the help texts only here: a % in one would crash it
        monkeypatch.setenv("COLUMNS", "200")  # no help text is wrapped
        with pytest.raises(SystemExit) as info:
            cli.build_parser().parse_args([command, "--help"])
        assert info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        helps = {f.metadata["flag"]: f.metadata["help"] for f in fields(DcmConfig) if f.metadata}
        assert list(helps) == self.TRAINING_FLAGS
        trains = command in ("train", "cv")
        for flag, help_text in helps.items():
            assert (f"{flag} {flag[2:].upper()} {help_text}" in text) is trains
        horizons = "--horizons HORIZONS qNN quantile tags or explicit times, comma separated"
        assert (horizons in text) is (command in ("eval", "cv", "predict"))


class TestTrain:
    def test_outputs(self, model_dir):
        assert (model_dir / "model.json").exists()
        log = read_csv(model_dir / "training_log.csv")
        assert log[0] == ["epoch", "train_q", "val_q", "batch_loss",
                          "starved_clusters"]
        assert len(log) >= 2
        model = json.loads((model_dir / "model.json").read_text())
        assert model["config"]["n_clusters"] == 2
        assert "effective_dcm_config" not in json.loads(
            (model_dir / "run_config.json").read_text())

    def test_drop_columns(self, cohort_dir, tmp_path):
        code = run(["train", "--data", str(cohort_dir / "cohort.csv"),
                    "--group-col", "group", "--drop-columns", "x2",
                    "--k", "2", "--layers", "8", "--epochs", "2",
                    "--out", str(tmp_path)])
        assert code == 0
        model = json.loads((tmp_path / "model.json").read_text())
        assert model["feature_names"] == ["x0", "x1"]

    def test_drop_columns_trailing_comma(self, cohort_dir, tmp_path):
        args = cli.build_parser().parse_args(
            ["train", "--data", str(cohort_dir / "cohort.csv"), "--group-col", "group",
             "--drop-columns", "x2,", "--out", str(tmp_path)])
        assert cli._load_dataset(args).feature_names == ("x0", "x1")

    def test_unknown_drop_column_fails(self, cohort_dir, tmp_path, capsys):
        # used to exit 0 and train on every column
        out = tmp_path / "o"
        code = run(["train", "--data", str(cohort_dir / "cohort.csv"),
                    "--group-col", "group", "--drop-columns", "x9",
                    "--k", "2", "--layers", "8", "--epochs", "1", "--out", str(out)])
        assert code == 1
        assert "x9" in capsys.readouterr().err
        assert not out.exists()  # the --out directory it made is removed too

    def test_missing_file_nonzero_exit_and_cleanup(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run(["train", "--data", str(tmp_path / "nope.csv"),
                    "--out", str(out)])
        assert code == 1
        assert "error" in capsys.readouterr().err
        assert not out.exists()  # the --out directory it made is removed too

    @pytest.mark.parametrize("flag", [["--epochs", "0"], ["--lr", "-0.01"], ["--k", "0"]])
    def test_untrainable_values_fail(self, tmp_path, capsys, flag):
        # --epochs 0 used to save an untrained model, --lr -0.01 to train, and
        # --k 0 to report n_clusters; the flags are checked before --data is
        # read, so the missing file is not what fails
        out = tmp_path / "o"
        code = run(["train", "--data", str(tmp_path / "nope.csv"), "--k", "2", "--layers", "8",
                    *flag, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"coxmix train: error: {flag[0]} must be")
        assert not out.exists()  # the --out directory it made is removed too


@pytest.mark.parametrize("command, got", [("train", 15), ("cv", 12)])
def test_training_split_no_minibatch_can_use_refused(tmp_path, capsys, command, got):
    """On 15 records at --k 8 --batch 16 no minibatch holds 2K = 16 rows
    (cv's folds train on 12), so no Adam step could run: the command fails
    in one line naming both counts, before it leaves an untrained model."""
    cohort = tmp_path / "s"
    assert run(["synth", "--n", "15", "--preset", "crossing", "--seed", "3",
                "--out", str(cohort)]) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    assert run([command, "--data", str(cohort / "cohort.csv"), "--k", "8", "--batch", "16",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"coxmix {command}: error: 8 clusters need at least 16 training records, got {got}"]
    assert not out.exists()


def test_featureless_dataset_refused_by_name(cohort_dir, tmp_path, capsys):
    # a time,event-only CSV loads; fit names the missing features itself
    rows = read_csv(cohort_dir / "cohort.csv")
    data = tmp_path / "time_event.csv"
    data.write_text("".join(f"{row[3]},{row[4]}\n" for row in rows))
    out = tmp_path / "o"
    assert run(["train", "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "coxmix train: error: cannot fit without a feature column"]
    assert not out.exists()


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
        assert report[0] == ["metric", "horizon", "group", "estimate", "se", "n", "records",
                             "dropped"]
        groups = {r[2] for r in report[1:]}
        assert groups == {"population", "pos", "neg"}
        cal = read_csv(tmp_path / "calibration_bins.csv")
        assert len(cal) == 21  # header + 20 bins for one horizon
        assert (tmp_path / "baseline_0.csv").exists()
        assert (tmp_path / "baseline_1.csv").exists()
        js = json.loads((tmp_path / "report.json").read_text())
        assert all(set(r) == {"metric", "horizon", "group", "estimate",
                              "se", "n", "records", "dropped"} for r in js)
        n_rows = len(read_csv(cohort_dir / "cohort.csv")) - 1
        assert {r["records"] for r in js if r["group"] == "population"} == {n_rows}
        assert all(type(r["dropped"]) is int and r["dropped"] >= 0 for r in js)


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

    @pytest.mark.parametrize("flags, named", [
        (["--k", "0"], "--k must be"),
        (["--grid", "--batch", "8"], "--batch must be at least"),
    ])
    def test_training_flags_checked_before_data(self, tmp_path, capsys, flags, named):
        # cv used to read --data first, as train no longer does, and report
        # the missing file rather than the flag
        out = tmp_path / "o"
        assert run(["cv", "--data", str(tmp_path / "missing.csv"), *flags,
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"coxmix cv: error: {named}"), err
        assert not out.exists()

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


class TestForkedFits:
    """cv runs its fits in one process per usable CPU: the parent works
    share 0 and forks one child for each other share."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """cpus(n) makes n CPUs usable and returns the list of forks so far."""
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

        def use(n):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
            return forks
        return use

    def cv(self, cohort_dir, out, *flags):
        return run(["cv", "--data", str(cohort_dir / "cohort.csv"), "--group-col", "group",
                    "--k", "2", "--layers", "8", "--epochs", "2", "--horizons", "q25,q50",
                    "--bootstrap", "3", *flags, "--out", str(out)])

    @pytest.mark.parametrize("flags", [("--grid", "--epochs", "1"), ()])
    def test_parallel_writes_serial_bytes(self, cohort_dir, tmp_path, cpus, flags):
        out, outputs = tmp_path / "o", []
        for n in (1, 2):
            forks = cpus(n)
            assert self.cv(cohort_dir, out, "--folds", "3", *flags) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
            shutil.rmtree(out)
        assert len(forks) == 1  # none for the serial run, one for the parallel
        assert outputs[0] == outputs[1]
        assert {"report.csv", "report.json", "run_config.json"} <= set(outputs[0])
        assert ("grid.csv" in outputs[0]) == bool(flags)

    @pytest.mark.parametrize("failing_fold", [1, 0])  # a child's share, then the parent's
    def test_failing_fit(self, cohort_dir, tmp_path, cpus, capsys, monkeypatch, failing_fold):
        cpus(2)
        fit = cli.fit

        def failing(train, config):
            if config.seed == failing_fold:  # --seed 0: a fold's seed is its index
                raise ModelError(f"fold {failing_fold} failed")
            return fit(train, config)
        monkeypatch.setattr(cli, "fit", failing)
        assert self.cv(cohort_dir, tmp_path / "made" / "o", "--folds", "2") == 1
        err = capsys.readouterr().err.splitlines()
        assert [e for e in err if e.startswith("coxmix cv: error:")] == [
            f"coxmix cv: error: fold {failing_fold} failed"]
        assert not (tmp_path / "made").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)  # every child was reaped

    @pytest.mark.parametrize("flags, message", [
        (("--grid", "--batch", "8"),
         "--batch must be at least 2 * --k = 12, got 8 for grid configuration k=6,layers=1,width=50"),
        (("--epochs", "0"), "--epochs must be >= 1, got 0"),
        (("--k", "0"), "--k must be >= 1, got 0"),
        # the flags' own configuration is checked under --grid too
        (("--grid", "--k", "0"), "--k must be >= 1, got 0"),
        (("--lr", "0"), "--lr must be finite and positive, got 0.0"),
    ], ids=["grid_batch", "epochs", "k", "grid_k", "lr"])
    def test_invalid_configuration_fails_before_any_fit(self, cohort_dir, tmp_path, cpus,
                                                        capsys, monkeypatch, flags, message):
        # every fit's configuration is checked first: --grid --batch 8 used to
        # fail at its first K=6 fit, after 20 others and a fork
        forks, fits, fit = cpus(2), [], cli.fit
        monkeypatch.setattr(cli, "fit", lambda *a: fits.append(1) or fit(*a))
        assert self.cv(cohort_dir, tmp_path / "made" / "o", *flags) == 1
        assert capsys.readouterr().err.splitlines() == [f"coxmix cv: error: {message}"]
        assert fits == [] and forks == []
        assert not (tmp_path / "made").exists()

    @pytest.mark.parametrize("n_cpus, n_forks", [(1, 0), (8, 1)])
    def test_workers_never_outnumber_fits(self, cohort_dir, tmp_path, cpus, n_cpus, n_forks):
        forks = cpus(n_cpus)
        assert self.cv(cohort_dir, tmp_path, "--folds", "2", "--epochs", "1") == 0
        assert len(forks) == n_forks

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_serial_without_fork_or_affinity(self, monkeypatch, missing):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert cli._workers(12) == 3
        monkeypatch.delattr(os, missing, raising=False)
        assert cli._workers(12) == 1

    def test_child_error_keeps_its_class(self, cpus):
        cpus(2)

        def fn(task):
            if task == 1:
                raise ModelError("task 1 failed")
            return task
        with pytest.raises(ModelError, match="^task 1 failed$"):
            cli._map_forked(fn, [0, 1, 2])
        assert cli._map_forked(lambda t: t * t, [0, 1, 2]) == [0, 1, 4]

    @pytest.mark.parametrize("how, message", [
        ("exit", "a fit process died (exit status 3)"),
        ("unpicklable", "a fit process failed and its error did not unpickle"),
    ])
    def test_lost_child_error_is_named(self, cpus, how, message):
        cpus(2)

        def fn(task):
            if task and how == "exit":
                os._exit(3)
            if task:
                raise TwoArgError("a", "b")
            return task
        with pytest.raises(cli.WorkerError, match=re.escape(message)):
            cli._map_forked(fn, [0, 1])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TwoArgError(Exception):
    """Pickles, but does not unpickle: unpickling passes the message alone."""

    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


class TestSmallCohort:
    """Below MIN_GROUP_SIZE records eval and cv follow one stratum rule:
    every stratum, the population included, is reported blank with n = 0.
    eval used to fail on its 20 population calibration bins for 15 records,
    while cv scored the population and left its ECE blank."""

    @pytest.fixture(scope="class")
    def small(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("small")
        assert run(["synth", "--n", "15", "--preset", "crossing", "--censoring", "0.2",
                    "--with-groups", "--seed", "1", "--out", str(out / "synth")]) == 0
        data = ["--data", str(out / "synth" / "cohort.csv"), "--group-col", "group"]
        assert run(["train", *data, "--k", "2", "--layers", "8", "--epochs", "3",
                    "--out", str(out / "train")]) == 0
        return out, data

    def check_blank(self, report, cohort):
        groups = [row[-1] for row in read_csv(cohort)[1:]]
        sizes = {"population": len(groups), **{g: groups.count(g) for g in set(groups)}}
        assert len(report) == 1 + 4 * 3 * len(sizes)
        for metric, horizon, group, estimate, se, n, records, dropped in report[1:]:
            assert (estimate, se, n, records, dropped) == ("", "", "0", str(sizes[group]), "")

    def test_eval(self, small, tmp_path):
        out, data = small
        assert run(["eval", *data, "--model", str(out / "train" / "model.json"),
                    "--bootstrap", "5", "--out", str(tmp_path)]) == 0
        self.check_blank(read_csv(tmp_path / "report.csv"), out / "synth" / "cohort.csv")
        assert read_csv(tmp_path / "calibration_bins.csv") == [
            ["horizon", "bin", "mean_predicted", "km_observed", "n"]]

    def test_cv(self, small, tmp_path):
        out, data = small
        assert run(["cv", *data, "--k", "2", "--layers", "8", "--epochs", "2",
                    "--bootstrap", "5", "--out", str(tmp_path)]) == 0
        self.check_blank(read_csv(tmp_path / "report.csv"), out / "synth" / "cohort.csv")

    def test_cv_grid_refused(self, small, tmp_path, capsys):
        # --grid ranks on the population, which is not scored below
        # MIN_GROUP_SIZE; it used to rank all 12 configurations on it anyway
        out, data = small
        assert run(["cv", *data, "--grid", "--folds", "5", "--epochs", "1",
                    "--out", str(tmp_path / "grid")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["coxmix cv: error: --grid needs 20 records, not 15"]
        assert not (tmp_path / "grid").exists()


@pytest.mark.parametrize("command", ["eval", "cv"])
def test_negative_bootstrap_rejected(cohort_dir, model_dir, tmp_path, capsys, command):
    """--bootstrap -3 stops eval and cv before any output; it used to write
    a report with blank SEs."""
    args = {"cv": ["--k", "2", "--layers", "8", "--epochs", "1", "--folds", "2"]}.get(
        command, ["--model", str(model_dir / "model.json")])
    out = tmp_path / "o"
    with pytest.raises(SystemExit):
        run([command, "--data", str(cohort_dir / "cohort.csv"), "--group-col", "group",
             *args, "--horizons", "q50", "--bootstrap", "-3", "--out", str(out)])
    assert "--bootstrap: must be 0 or more" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, args", [
    ("synth", ["--n", "10", "--spec"]), ("train", ["--data"]), ("eval", ["--model", "m", "--data"]),
    ("cv", ["--data"]), ("predict", ["--model", "m", "--data"])])
def test_negative_seed_refused_by_name(tmp_path, capsys, command, args):
    """numpy's generators refuse a negative seed: --seed -1 stops every
    command while its flags are parsed, before any file is read. train used
    to read --data first and then print an error that named no flag."""
    out = tmp_path / "o"
    with pytest.raises(SystemExit):
        run([command, *args, str(tmp_path / "missing"), "--seed", "-1", "--out", str(out)])
    assert "--seed: must be 0 or more, got -1" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("spec", ["nan", "inf", ",", "q50,nan"])
@pytest.mark.parametrize("command", ["predict", "eval", "cv"])
def test_horizons_must_be_given_and_finite(cohort_dir, model_dir, tmp_path, capsys,
                                           command, spec):
    """An empty or non-finite --horizons list stops the command before any
    output is written; it used to give NaN predictions, an empty header or
    an unrelated unpacking error."""
    args = {"cv": ["--k", "2", "--layers", "8", "--epochs", "1", "--folds", "2"]}.get(
        command, ["--model", str(model_dir / "model.json")])
    out = tmp_path / "o"
    code = run([command, "--data", str(cohort_dir / "cohort.csv"), "--group-col", "group",
                *args, "--horizons", spec, "--out", str(out)])
    assert code == 1
    assert "--horizons needs at least one finite time" in capsys.readouterr().err
    assert not out.exists()  # the --out directory it made is removed too


@pytest.mark.parametrize("command, flag, value", [
    ("eval", "--horizons", "-1"),  # scored as a perfect model before any event
    ("predict", "--horizons", "q50,0"),
    ("cv", "--horizons", "-1"),
    ("eval", "--horizons", "qabc"),
    ("predict", "--horizons", "q150"),
    ("cv", "--layers", "abc"),
    ("cv", "--layers", "0"),
    ("cv", "--folds", "1"),
])
def test_bad_flag_value_names_the_flag(cohort_dir, model_dir, tmp_path, capsys,
                                       command, flag, value):
    """A horizon <= 0 is refused, and every refused value names its flag:
    these used to print Python's parse error or a library argument's name."""
    args = {"cv": ["--k", "2", "--layers", "8", "--epochs", "1", "--folds", "2"]}.get(
        command, ["--model", str(model_dir / "model.json")])
    out = tmp_path / "o"
    code = run([command, "--data", str(cohort_dir / "cohort.csv"), "--group-col", "group",
                *args, f"{flag}={value}", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"coxmix {command}: error: {flag}")
    assert not out.exists()


def test_latin1_file_refused_in_one_line(cohort_dir, tmp_path, capsys):
    """A Latin-1 copy of the cohort fails with one error line that names
    the file, and leaves no --out directory."""
    latin1, out = tmp_path / "latin1.csv", tmp_path / "o"
    text = (cohort_dir / "cohort.csv").read_text(encoding="utf-8")
    latin1.write_bytes(text.replace(",neg", ",négatif").encode("latin-1"))
    assert run(["train", "--data", str(latin1), "--group-col", "group", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"coxmix train: error: {latin1}: the file is not UTF-8 text"]
    assert not out.exists()


def test_bool_n_clusters_in_model_file_refused(cohort_dir, model_dir, tmp_path, capsys):
    """A model file's config must hold integers: "n_clusters": true used to
    act as 1. predict fails with one line naming the file and the field."""
    text = (model_dir / "model.json").read_text()
    bad, out = tmp_path / "bool_k.json", tmp_path / "o"
    bad.write_text(re.sub(r'"n_clusters": \d+', '"n_clusters": true', text))
    assert '"n_clusters": true' in bad.read_text()
    assert run(["predict", "--data", str(cohort_dir / "cohort.csv"), "--group-col", "group",
                "--model", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"coxmix predict: error: {bad}: n_clusters ")
    assert not out.exists()


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
    proc = subprocess.run([sys.executable, "-c", script], env=subprocess_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "e" / "report.csv").exists()


@pytest.mark.skipif(
    (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()) < 2,
    reason="OpenBLAS starts one thread per usable CPU, so one CPU gives one thread either way")
def test_model_bytes_do_not_depend_on_blas_threads(tmp_path):
    """Importing coxmix pins OpenBLAS to one thread unless
    OPENBLAS_NUM_THREADS is set, so a two-layer train writes the same model
    with the variable unset as at 1. Unset, OpenBLAS used to start one
    thread per usable CPU, and its sums depend on the thread count."""
    cohort = tmp_path / "s"
    assert run(["synth", "--n", "1000", "--preset", "crossing", "--censoring", "0.3",
                "--with-groups", "--seed", "8", "--out", str(cohort)]) == 0
    env = subprocess_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    models = []
    for name, threads in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        proc = subprocess.run(
            [sys.executable, "-m", "coxmix.cli", "train", "--data", str(cohort / "cohort.csv"),
             "--group-col", "group", "--k", "3", "--layers", "100,100", "--epochs", "3",
             "--out", str(tmp_path / name)],
            env={**env, **threads}, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        models.append((tmp_path / name / "model.json").read_bytes())
    assert models[0] == models[1]


def test_group_labelled_population_refused(cohort_dir, model_dir, tmp_path, capsys):
    """A group labelled population was reported as a second population stratum."""
    data = tmp_path / "cohort.csv"
    data.write_text((cohort_dir / "cohort.csv").read_text().replace(",pos\n", ",population\n"))
    out = tmp_path / "o"
    assert run(["eval", "--data", str(data), "--group-col", "group",
                "--model", str(model_dir / "model.json"), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("coxmix eval: error: group labels"), err
    assert not out.exists()


def test_write_csv_takes_numpy_rows(tmp_path):
    target = tmp_path / "out.csv"
    cli._write_csv(str(target), ["a", "b"],
                   [np.array([0.5, 1.25]), [np.int64(1), np.float64(2.0)]])
    assert target.read_text() == "a,b\n0.5,1.25\n1,2.0\n"


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


class TestFailedCommandDirectories:
    """A failed command removes the directories it made for --out, deepest
    first, while they are empty; they used to be left behind empty."""

    def test_nested_new_out_removed(self, tmp_path, capsys):
        assert run(["synth", "--n", "0", "--out", str(tmp_path / "od" / "a" / "b")]) == 1
        assert "error" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_existing_directories_kept(self, tmp_path):
        (tmp_path / "od").mkdir()
        assert run(["synth", "--n", "0", "--out", str(tmp_path / "od")]) == 1
        assert run(["synth", "--n", "0", "--out", str(tmp_path / "od" / "new")]) == 1
        assert os.listdir(tmp_path) == ["od"] and os.listdir(tmp_path / "od") == []

    @pytest.mark.parametrize("out", [("afile",), ("afile", "sub"), ("afile", "sub", "dir"),
                                     ("new", "a" * 300, "b")],  # "new" is made, then removed
                             ids=["file", "below_file", "two_below_file", "name_too_long"])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, out):
        # each was a traceback, and the too-long name left "new" behind
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert run(["synth", "--n", "10", "--out", str(tmp_path.joinpath(*out))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("coxmix synth: error: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["afile"] and afile.read_text() == "kept\n"


class TestFailedCommandOutputs:
    """A command that fails after it has written files removes them and the
    directories it made for --out; a file it did not write stays, and so
    does the directory that holds it."""

    @pytest.mark.parametrize("case", ["new_nested", "existing_with_user_file",
                                      "made_parent_gains_a_file"])
    def test_written_files_removed(self, cohort_dir, model_dir, tmp_path, capsys,
                                   monkeypatch, case):
        out = tmp_path / "od" / ("new" if case == "made_parent_gains_a_file" else "")
        user_file = None if case == "new_nested" else tmp_path / "od" / "notes.txt"
        if case == "existing_with_user_file":
            out.mkdir()
            user_file.write_text("kept\n")
        written = []

        def fail(tracker, args, extra=None):  # the last step of every command
            written.extend(os.listdir(tracker.out_dir))
            if case == "made_parent_gains_a_file":
                user_file.write_text("kept\n")  # written by someone else meanwhile
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_echo_config", fail)
        assert run(["eval", "--data", str(cohort_dir / "cohort.csv"), "--group-col", "group",
                    "--model", str(model_dir / "model.json"), "--bootstrap", "0",
                    "--dump-baselines", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "coxmix eval: error: disk full\n"
        assert set(written) - {"notes.txt"} == {"baseline_0.csv", "baseline_1.csv",
                                                "calibration_bins.csv", "report.csv",
                                                "report.json"}
        if user_file is None:
            assert os.listdir(tmp_path) == []
        else:
            assert os.listdir(tmp_path) == ["od"] and os.listdir(tmp_path / "od") == ["notes.txt"]
            assert user_file.read_text() == "kept\n"


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit):
            main(["synth", "--n", "10"])
