"""Command-line entry points: synthetic cohort generation, training,
evaluation, cross-validation and prediction.

Every command takes --seed and --out and is deterministic given the seed;
on failure all partially written outputs are removed and the exit code is
nonzero. The effective configuration is echoed into the output directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import pickle
import signal
import sys
from dataclasses import astuple, fields, replace

import numpy as np

from coxmix import metrics as metrics_mod
from coxmix import synth as synth_mod
from coxmix.dataset import atomic_write, event_quantiles, k_fold_split, load_csv, standardize
from coxmix.estimators import censoring_km
from coxmix.model import ConfigError, DcmConfig, DcmConfigError, DcmModel, fit


class _OutputTracker:
    """Records the files a command writes and the directories ``main``
    creates for them, so they can be removed if a later step fails."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.written = []
        self.made = []  # missing directories on the way to out_dir, deepest first
        d = os.path.abspath(out_dir)
        while not os.path.exists(d):
            self.made.append(d)
            d = os.path.dirname(d)

    def path(self, name):
        p = os.path.join(self.out_dir, name)
        self.written.append(p)
        return p

    def cleanup(self):
        for p in self.written:
            if os.path.exists(p):
                os.remove(p)
        for d in self.made:
            if not os.path.isdir(d):
                continue  # never made: creating out_dir failed on the way
            if os.listdir(d):
                break  # a directory that holds anything is kept, and so are its parents
            os.rmdir(d)


def _write_json(path, payload):
    with atomic_write(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path, header, rows):
    with atomic_write(path, newline="") as fh:
        w = csv.writer(fh)  # writes a float, numpy's included, as its repr
        w.writerow(header)
        w.writerows(rows)


def _echo_config(tracker, args, extra=None):
    payload = {k: v for k, v in vars(args).items() if k != "func"}
    if extra:
        payload.update(extra)
    _write_json(tracker.path("run_config.json"), payload)


def _load_dataset(args):
    return load_csv(
        args.data, time_col=args.time_col, event_col=args.event_col,
        group_col=args.group_col, drop_missing=args.drop_missing,
        drop_columns=tuple(filter(None, args.drop_columns.split(","))),
    )


def _resolve_horizons(spec, ds):
    """'q25,q50,q75' quantile tags (lower nearest-rank rule over the uncensored
    event times) or explicit comma-separated times: at least one, all finite
    and positive."""
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    try:
        out = [event_quantiles(ds, [float(p[1:]) / 100.0])[0] if p.startswith("q")
               else float(p) for p in parts]
    except ValueError as exc:  # an unparsed number or a tag outside (0, 100)
        raise ValueError(f"--horizons {spec!r}: {exc}") from None
    if not out or not np.all(np.isfinite(out)):
        raise ValueError(f"--horizons needs at least one finite time, got {spec!r}")
    if min(out) <= 0:  # no record can have an event by then
        raise ValueError(f"--horizons needs positive times, got {spec!r} = {out}")
    return out


def _dcm_config(args, grid=None):
    """The training flags as a DcmConfig; a --grid entry (k, layers, width)
    replaces --k and --layers. A refused value names its flag, and the grid
    entry as grid.csv does."""
    widths = [v.strip() for v in args.layers.split(",") if v.strip()]
    if not all(v.isdecimal() and int(v) > 0 for v in widths):
        raise DcmConfigError("{hidden_dims} needs comma-separated positive widths, got {!r}",
                             args.layers)
    k, hidden = (grid[0], (grid[2],) * grid[1]) if grid else (args.k, tuple(map(int, widths)))
    try:
        return DcmConfig(n_clusters=k, hidden_dims=hidden, lr=args.lr, batch_size=args.batch,
                         max_epochs=args.epochs, patience=args.patience, seed=args.seed)
    except ConfigError as exc:
        where = f" for grid configuration {_grid_name(*grid)}" if grid else ""
        raise ValueError(exc.render("flag") + where) from None


# -- synth ----------------------------------------------------------------

_PRESETS = {
    # two components with crossing baseline survival curves (non-PH)
    "crossing": dict(
        clusters=[
            {"shape": 0.7, "scale": 6.0, "beta": [0.0, 0.8, 0.0]},
            {"shape": 5.0, "scale": 5.0, "beta": [0.0, 0.0, 0.8]},
        ],
        gating=[[2.5, 0.0, 0.0], [-2.5, 0.0, 0.0]],
    ),
    # two well-separated components; the shapes differ so membership cannot
    # be absorbed into a proportional-hazards shift
    "separated": dict(
        clusters=[
            {"shape": 6.0, "scale": 4.0, "beta": [0.0, 0.3, 0.0]},
            {"shape": 0.8, "scale": 0.8, "beta": [0.0, 0.0, 0.3]},
        ],
        gating=[[3.0, 0.0, 0.0], [-3.0, 0.0, 0.0]],
    ),
    # single proportional-hazards component
    "ph": dict(
        clusters=[{"shape": 1.0, "scale": 1.0, "beta": [1.0, -0.5, 0.25]}],
        gating=[[0.0, 0.0, 0.0]],
    ),
}


def cmd_synth(args, tracker):
    if args.spec:
        with open(args.spec, encoding="utf-8") as fh:
            raw = json.load(fh)
    else:
        raw = _PRESETS[args.preset]
    config = replace(synth_mod.config_from_sidecar(raw), n=args.n, seed=args.seed,
                     censoring_fraction=args.censoring, with_groups=args.with_groups)
    ds, sidecar = synth_mod.generate_cohort(config)
    header = [*ds.feature_names, "time", "event"]
    columns = [c.tolist() for c in (*ds.features.T, ds.times, ds.events)]  # written faster
    if ds.groups is not None:
        header.append("group")
        columns.append(ds.groups.tolist())
    _write_csv(tracker.path("cohort.csv"), header, zip(*columns))
    _write_json(tracker.path("sidecar.json"), sidecar)
    _echo_config(tracker, args)


# -- train ----------------------------------------------------------------

def cmd_train(args, tracker):
    config = _dcm_config(args)  # a refused flag fails before --data is read
    model = fit(standardize(_load_dataset(args)), config)
    model.save(tracker.path("model.json"))
    log = model.training_log
    _write_csv(tracker.path("training_log.csv"), log[0].keys(), map(dict.values, log))
    _echo_config(tracker, args)


# -- predict / eval ---------------------------------------------------------

def cmd_predict(args, tracker):
    model = DcmModel.load(args.model)
    ds = _load_dataset(args)
    horizons = _resolve_horizons(args.horizons, ds)
    surv = model.predict_dataset(ds, horizons)
    _write_csv(tracker.path("predictions.csv"), [f"surv_at_{h}" for h in horizons],
               surv.tolist())  # Python floats: the same text, written faster
    _echo_config(tracker, args, {"horizons": horizons})


def _write_report(tracker, rows):
    """report.csv and report.json, one entry per MetricRow; a NaN (an undefined
    estimate or SE, an unscored stratum's dropped) is a blank cell in the CSV
    and null in the JSON."""
    header = [f.name for f in fields(metrics_mod.MetricRow)]
    table = [[None if v != v else v for v in astuple(r)] for r in rows]  # NaN != NaN
    _write_csv(tracker.path("report.csv"), header, table)  # csv writes None as ""
    _write_json(tracker.path("report.json"), [dict(zip(header, row)) for row in table])


def cmd_eval(args, tracker):
    model = DcmModel.load(args.model)
    ds = _load_dataset(args)
    horizons = _resolve_horizons(args.horizons, ds)
    surv = model.predict_dataset(ds, horizons)
    calibration = []
    rows = metrics_mod.evaluate_by_group(
        surv, ds.times, ds.events, horizons, ds.groups,
        n_replicates=args.bootstrap, seed=args.seed, calibration=calibration)
    _write_report(tracker, rows)
    _write_csv(tracker.path("calibration_bins.csv"),
               ["horizon", "bin", "mean_predicted", "km_observed", "n"],
               [[h, b, mean, km, size] for h, bins in zip(horizons, calibration)
                for b, (mean, km, size, _) in enumerate(bins)])
    if args.dump_baselines:
        for k, bl in enumerate(model.baselines):
            grid = np.linspace(bl.knots[0], bl.knots[-1], 200)
            _write_csv(tracker.path(f"baseline_{k}.csv"), ["time", "survival"],
                       zip(grid.tolist(), bl(grid).tolist()))
    _echo_config(tracker, args, {"horizons": horizons})


# -- cross-validation -------------------------------------------------------

_GRID = [(k, layers, width)
         for k in (3, 4, 6) for layers in (1, 2) for width in (50, 100)]


def _grid_name(k, layers, width):
    return f"k={k},layers={layers},width={width}"


class WorkerError(RuntimeError):
    """A forked fit process died or sent back an error that does not unpickle."""


def _workers(n_tasks):
    """Processes for ``n_tasks`` fits: one per usable CPU, never more than
    the fits; 1 where the platform cannot fork or list its usable CPUs."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), n_tasks)


def _child_share(fn, share, read_end, write_end):
    """In a forked child: run one share and pickle (True, results) or
    (False, exception) to the pipe. It leaves through ``os._exit``, so no
    atexit handler, output cleanup or inherited buffer runs here."""
    code = 1
    try:
        os.close(read_end)
        try:
            payload = (True, [fn(t) for t in share])
        except Exception as exc:  # noqa: BLE001 - raised again in the parent
            payload = (False, exc)
        data = pickle.dumps(payload, pickle.HIGHEST_PROTOCOL)
        with open(write_end, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _map_forked(fn, tasks):
    """``[fn(t) for t in tasks]``, with task i in share i % w of ``_workers``
    processes: this process runs share 0 and a forked child each other
    share. The results come back in task order; a child's exception is
    raised here, and every child is reaped before this returns or raises."""
    w = _workers(len(tasks))
    children = {}  # pid -> read end of its pipe, until the child is reaped
    try:
        for share in range(1, w):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child_share(fn, tasks[share::w], read_end, write_end)
            os.close(write_end)
            children[pid] = read_end
        shares = [[fn(t) for t in tasks[::w]]]
        for pid, read_end in list(children.items()):
            with open(read_end, "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if status != 0 or not data:
                raise WorkerError(f"a fit process died (exit status {status})")
            try:
                ok, value = pickle.loads(data)
            except Exception as exc:  # noqa: BLE001 - any unpickling failure
                raise WorkerError(f"a fit process failed and its error did not "
                                  f"unpickle: {exc}") from None
            if not ok:
                raise value
            shares.append(value)
    finally:  # on an error, stop the children that are still running
        for pid, read_end in children.items():
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [shares[i % w][i // w] for i in range(len(tasks))]


def cmd_cv(args, tracker):
    configs = _GRID if args.grid else [None]  # None: the flags alone
    # a refused flag fails before --data is read, as in train
    checked = [_dcm_config(args, grid) for grid in configs]
    ds = _load_dataset(args)
    if args.grid and len(ds) < metrics_mod.MIN_GROUP_SIZE:  # it ranks on the unscored population
        raise metrics_mod.MetricError(
            f"--grid needs {metrics_mod.MIN_GROUP_SIZE} records, not {len(ds)}")
    if not 2 <= args.folds <= len(ds):
        raise ValueError(f"--folds must be from 2 to the {len(ds)} records, got {args.folds}")
    horizons = _resolve_horizons(args.horizons, ds)
    # every fit's configuration, built before any split, fit or fork: a
    # fold adds its index to --seed
    tasks = [(replace(config, seed=config.seed + fold), fold)
             for config in checked for fold in range(args.folds)]
    fold_of = k_fold_split(ds, args.folds, args.seed)
    folds = [(standardize(ds.subset(fold_of != fold)), ds.subset(fold_of == fold))
             for fold in range(args.folds)]

    def fit_fold(task):
        config, fold = task
        train, test = folds[fold]
        return fit(train, config).predict_dataset(test, horizons)

    pooled = np.full((len(configs), len(ds), len(horizons)), np.nan)  # [configuration, record]
    for i, surv in enumerate(_map_forked(fit_fold, tasks)):
        pooled[i // args.folds, fold_of == i % args.folds] = surv

    best = 0  # the one configuration, unless --grid selects another
    extra = {"horizons": horizons}
    if args.grid:
        g = censoring_km(ds.times, ds.events)
        briers = [float(np.mean([metrics_mod.brier_ipcw(surv[:, i], ds.times, ds.events, g, h)
                                 for i, h in enumerate(horizons)])) for surv in pooled]
        order = sorted(range(len(_GRID)), key=lambda c: (briers[c], _GRID[c]))
        _write_csv(tracker.path("grid.csv"), ["config", "mean_brier"],
                   [[_grid_name(*_GRID[c]), briers[c]] for c in order])
        best = order[0]
        k, layers, width = _GRID[best]
        extra["selected"] = {"k": k, "layers": layers, "width": width,
                             "mean_brier": briers[best]}

    rows = metrics_mod.evaluate_by_group(
        pooled[best], ds.times, ds.events, horizons, ds.groups,
        n_replicates=args.bootstrap, seed=args.seed)
    _write_report(tracker, rows)
    _echo_config(tracker, args, extra)


# -- argument parsing --------------------------------------------------------

def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


def build_parser():
    """One table of flags: each is declared once with the commands that take it,
    which list them in its order; a config field's flag is named in its metadata."""
    parser = argparse.ArgumentParser(
        prog="coxmix",
        description="Cox mixture survival models: synthesize, train, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, text in (("synth", cmd_synth, "generate a synthetic censored cohort"),
                             ("train", cmd_train, "fit a model on a CSV dataset"),
                             ("eval", cmd_eval, "evaluate a saved model"),
                             ("cv", cmd_cv, "k-fold cross-validation with pooled report"),
                             ("predict", cmd_predict, "survival probabilities at horizons")):
        commands[name] = sub.add_parser(name, help=text)
        commands[name].set_defaults(func=func)

    def add(names, flag, **kwargs):  # a config field's metadata gives its flag and help
        for name in names.split():
            commands[name].add_argument(flag, **kwargs)

    cohort = {f.name: f for f in fields(synth_mod.SynthConfig)}
    add("synth", **cohort["n"].metadata, type=int, required=True)
    add("synth", "--preset", choices=sorted(_PRESETS), default="ph")
    add("synth", "--spec", help="JSON file with clusters/gating overriding --preset")
    censoring = cohort["censoring_fraction"]
    add("synth", **censoring.metadata, type=float, default=censoring.default)
    add("synth", **cohort["with_groups"].metadata, action="store_true")
    data = "train eval cv predict"  # every command that reads a CSV
    add(data, "--data", required=True, help="input CSV path")
    add(data, "--time-col", default="time")
    add(data, "--event-col", default="event")
    add(data, "--group-col")
    add(data, "--drop-missing", action="store_true",
        help="drop rows with a missing or non-finite time, event or feature instead of failing")
    add(data, "--drop-columns", default="",
        help="comma-separated columns to exclude from the features")
    add("synth " + data, "--seed", type=_non_negative_int, default=0)
    add("synth " + data, "--out", required=True, help="output directory")
    for f in fields(DcmConfig):  # every field but seed, which --seed sets
        if f.name == "hidden_dims":  # the one flag that is not of its field's type
            add("train cv", **f.metadata, default=",".join(map(str, f.default)))
        elif f.metadata:
            add("train cv", **f.metadata, type=type(f.default), default=f.default)
    add("cv", "--folds", type=int, default=5)
    add("eval predict", "--model", required=True, help="model.json written by train")
    add("eval cv predict", "--horizons", default="q25,q50,q75",
        help="qNN quantile tags or explicit times, comma separated")
    add("eval cv", "--bootstrap", type=_non_negative_int, default=100)
    add("eval", "--dump-baselines", action="store_true")
    add("cv", "--grid", action="store_true",
        help="sweep K/layers/width and select by lowest pooled Brier")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    tracker = _OutputTracker(args.out)
    try:
        os.makedirs(args.out, exist_ok=True)
        args.func(args, tracker)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        tracker.cleanup()
        if isinstance(exc, ConfigError):  # a flag set the refused field: name the flag
            exc = exc.render("flag")
        print(f"coxmix {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
