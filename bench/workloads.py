"""The benchmark's workloads: set-up commands, the timed command sequence
and the checks on what each command writes.

Every command is one in-process call of ``coxmix.cli.main(argv)``. All
cohorts use the ``crossing`` preset (two components whose baseline survival
curves cross) with 30% censoring and two groups, so evaluation covers three
strata. ``--patience`` equals ``--epochs`` so every fit runs the same number
of epochs whatever the data.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

import oracle
from coxmix import cli
from coxmix import synth as synth_mod
from coxmix.dataset import load_csv
from coxmix.estimators import censoring_km
from coxmix.metrics import MIN_GROUP_SIZE, auc_ipcw, brier_ipcw, concordance_td

COHORT = ("--preset", "crossing", "--censoring", "0.3", "--with-groups")
HORIZONS = "q25,q50,q75"
REFERENCE_TOL = 1e-9
SYNTH_FILES = ("cohort.csv", "sidecar.json", "run_config.json")
TRAIN_FILES = ("model.json", "training_log.csv", "run_config.json")
PREDICT_FILES = ("predictions.csv", "run_config.json")
EVAL_FILES = ("report.csv", "report.json", "calibration_bins.csv", "run_config.json")
CV_FILES = ("grid.csv", "report.csv", "report.json", "run_config.json")
GRID_CONFIGS = 12  # cv --grid: K in {3, 4, 6} x layers in {1, 2} x width in {50, 100}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the files it must leave in ``out``."""

    argv: tuple
    out: str
    files: tuple

    @property
    def name(self):
        return self.argv[0]

    def run(self):
        """Returns (exit code, wall seconds)."""
        start = time.perf_counter()
        code = cli.main(list(self.argv))
        return code, time.perf_counter() - start


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_matrix(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return np.asarray([[float(v) for v in row] for row in rows[1:]], dtype=float)


def _synth(n, seed, out):
    return Command(("synth", "--n", str(n), *COHORT, "--seed", str(seed),
                    "--out", out), out, SYNTH_FILES)


def _dataset(synth_cmd):
    return load_csv(os.path.join(synth_cmd.out, "cohort.csv"), "time", "event",
                    group_col="group")


def _mean_brier(pred, ds, horizons):
    g = censoring_km(ds.times, ds.events)
    return float(np.mean([brier_ipcw(pred[:, i], ds.times, ds.events, g, h)
                          for i, h in enumerate(horizons)]))


def _surv_mae_truth(pred, synth_cmd, ds, horizons):
    sidecar = _read_json(os.path.join(synth_cmd.out, "sidecar.json"))
    config = synth_mod.config_from_sidecar(sidecar)
    truth = synth_mod.true_survival(config, ds.features, np.asarray(horizons))
    return float(np.mean(np.abs(pred - truth.reshape(pred.shape))))


def check_predictions(cmd):
    """Predictions lie in [0, 1] and never increase with the horizon."""
    horizons = _read_json(os.path.join(cmd.out, "run_config.json"))["horizons"]
    pred = _read_matrix(os.path.join(cmd.out, "predictions.csv"))
    order = np.argsort(horizons)
    ok = (pred.ndim == 2 and pred.shape[1] == len(horizons)
          and bool(np.all((pred >= 0) & (pred <= 1)))
          and bool(np.all(np.diff(pred[:, order], axis=1) <= 0)))
    return [("predictions_in_range_and_monotone", ok)]


def check_report(cmd, group_sizes):
    """Every estimate and SE is finite and in range for each stratum with at
    least MIN_GROUP_SIZE records."""
    rows = _read_json(os.path.join(cmd.out, "report.json"))
    ok = bool(rows)
    for row in rows:
        if group_sizes.get(row["group"], 0) < MIN_GROUP_SIZE:
            continue
        est, se = row["estimate"], row["se"]
        ok &= (est is not None and se is not None and math.isfinite(est)
               and math.isfinite(se) and 0.0 <= est <= 1.0 and se >= 0.0)
    strata = {row["group"] for row in rows}
    ok &= strata == set(group_sizes)
    return [("report_estimates_finite_in_range", ok)]


def _group_sizes(ds):
    sizes = {"population": len(ds)}
    for label in ds.groups:
        sizes[label] = sizes.get(label, 0) + 1
    return sizes


class Workload:
    """Base: ``setup_commands`` build the inputs, ``step_commands`` are the
    timed closed-loop iteration, ``check`` inspects one command's outputs
    and ``finish`` computes quality numbers and the one-off checks."""

    name = ""

    def __init__(self, work_dir, seed):
        self.seed = seed
        self.setup_dir = os.path.join(work_dir, "setup")
        self.step_dir = os.path.join(work_dir, "step")

    def _in(self, *parts):
        return os.path.join(self.setup_dir, *parts)

    def _step(self, name):
        return os.path.join(self.step_dir, name)

    def cohort_seed(self, k):
        return 1000 * self.seed + k

    def setup_commands(self):
        raise NotImplementedError

    def step_commands(self):
        raise NotImplementedError

    @functools.cached_property
    def strata(self):
        """Records per evaluated stratum (population and each group) of
        the workload's ``cohort``."""
        return _group_sizes(_dataset(self.cohort))

    def check(self, cmd):
        """Checks on the outputs of one step command."""
        return []

    def finish(self):
        """Returns (quality dict, list of (check name, ok))."""
        raise NotImplementedError


class Train16k(Workload):
    name = "train-16k"
    epochs = 4

    def __init__(self, work_dir, seed):
        super().__init__(work_dir, seed)
        self.cohort = _synth(16000, self.cohort_seed(1), self._in("cohort"))
        self.heldout = _synth(4000, self.cohort_seed(2), self._in("heldout"))
        self.train = Command(
            ("train", "--data", os.path.join(self.cohort.out, "cohort.csv"),
             "--group-col", "group", "--k", "3", "--layers", "100",
             "--lr", "0.01", "--epochs", str(self.epochs),
             "--patience", str(self.epochs), "--seed", str(seed),
             "--out", self._step("train")), self._step("train"), TRAIN_FILES)
        self.predict = Command(
            ("predict", "--data", os.path.join(self.heldout.out, "cohort.csv"),
             "--group-col", "group", "--model",
             os.path.join(self.train.out, "model.json"),
             "--horizons", HORIZONS, "--seed", str(seed),
             "--out", self._step("predict")), self._step("predict"), PREDICT_FILES)

    def setup_commands(self):
        return [self.cohort, self.heldout]

    def step_commands(self):
        return [self.train, self.predict]

    def check(self, cmd):
        return check_predictions(cmd) if cmd is self.predict else []

    def finish(self):
        ds = _dataset(self.heldout)
        horizons = _read_json(os.path.join(self.predict.out, "run_config.json"))["horizons"]
        pred = _read_matrix(os.path.join(self.predict.out, "predictions.csv"))
        return ({"brier": _mean_brier(pred, ds, horizons),
                 "surv_mae_truth": _surv_mae_truth(pred, self.heldout, ds, horizons)},
                [])


class Eval4k(Workload):
    name = "eval-4k"
    bootstrap = 2

    def __init__(self, work_dir, seed):
        super().__init__(work_dir, seed)
        self.cohort = _synth(4000, self.cohort_seed(1), self._in("cohort"))
        data = os.path.join(self.cohort.out, "cohort.csv")
        model_dir = self._in("model")
        self.train = Command(
            ("train", "--data", data, "--group-col", "group", "--k", "2",
             "--layers", "50", "--lr", "0.01", "--epochs", "5", "--patience", "5",
             "--seed", str(seed), "--out", model_dir), model_dir, TRAIN_FILES)
        model = os.path.join(model_dir, "model.json")
        self.eval = Command(
            ("eval", "--data", data, "--group-col", "group", "--model", model,
             "--horizons", HORIZONS, "--bootstrap", str(self.bootstrap),
             "--seed", str(seed), "--out", self._step("eval")),
            self._step("eval"), EVAL_FILES)
        self.predict = Command(
            ("predict", "--data", data, "--group-col", "group", "--model", model,
             "--horizons", HORIZONS, "--seed", str(seed),
             "--out", os.path.join(work_dir, "reference")),
            os.path.join(work_dir, "reference"), PREDICT_FILES)

    def setup_commands(self):
        return [self.cohort, self.train]

    def step_commands(self):
        return [self.eval]

    def check(self, cmd):
        return check_report(cmd, self.strata) if cmd is self.eval else []

    def finish(self):
        """Quality of the evaluated model, and the brute-force reference
        check of concordance, AUC and Brier on three data sets: the full
        population; one bootstrap resample like those the timed eval step
        scores, whose repeated rows tie in time; and that resample with
        predictions rounded to two decimals, so that records with different
        times tie in prediction and the half credit for ties counts."""
        code, _ = self.predict.run()
        if code != 0:
            return {}, [("reference_predict_exit_0", False)]
        ds = _dataset(self.cohort)
        horizons = _read_json(os.path.join(self.predict.out, "run_config.json"))["horizons"]
        pred = _read_matrix(os.path.join(self.predict.out, "predictions.csv"))
        idx = np.random.default_rng(self.seed).integers(0, len(ds), len(ds))
        t, e = ds.times[idx], ds.events[idx]
        checks = (_reference_checks("population", pred, ds.times, ds.events, horizons)
                  + _reference_checks("resample", pred[idx], t, e, horizons)
                  + _reference_checks("rounded", np.round(pred[idx], 2), t, e, horizons))
        return ({"brier": _mean_brier(pred, ds, horizons),
                 "surv_mae_truth": _surv_mae_truth(pred, self.cohort, ds, horizons)},
                checks)


def _reference_checks(tag, pred, times, events, horizons):
    """The library's concordance, AUC and Brier against the brute-force
    references in oracle.py, at each horizon."""
    g = censoring_km(times, events)
    checks = []
    for i, h in enumerate(horizons):
        pi = pred[:, i]
        for label, lib, ref in (
                ("concordance_td", concordance_td(pi, times, events, g, h),
                 oracle.concordance(pi, times, events, h)),
                ("auc_ipcw", auc_ipcw(pi, times, events, g, h),
                 oracle.auc(pi, times, events, h)),
                ("brier_ipcw", brier_ipcw(pi, times, events, g, h),
                 oracle.brier(pi, times, events, h))):
            checks.append((f"reference_{label}_{tag}_q{i}", abs(lib - ref) <= REFERENCE_TOL))
    return checks


class CvGrid1k(Workload):
    name = "cv-grid-1k"
    epochs = 1

    def __init__(self, work_dir, seed):
        super().__init__(work_dir, seed)
        self.cohort = _synth(1000, self.cohort_seed(1), self._in("cohort"))
        self.cv = Command(
            ("cv", "--data", os.path.join(self.cohort.out, "cohort.csv"),
             "--group-col", "group", "--grid", "--folds", "5", "--lr", "0.01",
             "--epochs", str(self.epochs), "--patience", str(self.epochs),
             "--horizons", HORIZONS, "--bootstrap", "2", "--seed", str(seed),
             "--out", self._step("cv")), self._step("cv"), CV_FILES)

    def setup_commands(self):
        return [self.cohort]

    def step_commands(self):
        return [self.cv]

    def check(self, cmd):
        if cmd is not self.cv:
            return []
        with open(os.path.join(cmd.out, "grid.csv"), newline="", encoding="utf-8") as fh:
            grid_rows = list(csv.reader(fh))[1:]
        selected = _read_json(os.path.join(cmd.out, "run_config.json")).get("selected", {})
        ok = (len(grid_rows) == GRID_CONFIGS
              and all(math.isfinite(float(r[1])) for r in grid_rows)
              and math.isfinite(selected.get("mean_brier", math.nan)))
        return check_report(cmd, self.strata) + [("grid_complete_and_finite", ok)]

    def finish(self):
        selected = _read_json(os.path.join(self.cv.out, "run_config.json"))["selected"]
        return {"brier": float(selected["mean_brier"])}, []


WORKLOADS = {w.name: w for w in (Train16k, Eval4k, CvGrid1k)}
