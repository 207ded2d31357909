"""Outside-in span tracer for coxmix.

The tracer wraps public functions of the library from the benchmark's side,
without any change to the library. A function is replaced at every place it
is bound inside the ``coxmix`` package: its defining module, each module that
imported it with ``from ... import``, and the package namespace. Methods are
replaced on their class. Calls made through a module attribute at call time
(``metrics_mod.evaluate_by_group``, local imports) see the wrapper too.

Each call records one span: name, start, end, parent span and the command
invocation it belongs to, plus optional work counts (rows, points, ...).
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# span record fields, kept as lists for speed
NAME, START, END, PARENT, INVOCATION, WORK = range(6)


def _arg(params, name, args, kwargs):
    """Value of parameter ``name`` in a call, falling back to its default."""
    idx = list(params).index(name)
    if idx < len(args):
        return args[idx]
    return kwargs.get(name, params[name].default)


@dataclass(frozen=True)
class Target:
    """One traced callable. ``span`` is the span name; ``module`` and
    ``attr`` locate the definition (``attr`` may be ``Class.method``);
    ``on`` names the workloads meant to exercise it; ``work`` maps
    (argument getter, result) to a dict of counts, of which ``counts`` are
    reported as metrics."""

    span: str
    module: str
    attr: str
    on: tuple
    work: object = None
    counts: tuple = ()


def _rows(arg):
    return lambda get, result: {"rows": int(np.shape(get(arg))[0])}


def _points(get, result):
    return {"points": int(np.size(get("t")))}


def _loaded_rows(get, result):
    return {"rows": len(result) if result is not None else 0}


def _epochs(get, result):
    epochs = len(result.training_log) if result is not None else 0
    return {"epochs": epochs, "row_epochs": epochs * len(get("dataset"))}


def _replicates(get, result):
    return {"replicates": int(get("n_replicates")),
            "used": int(result[2]) if result is not None else 0}


TRAIN, EVAL, CV = "train-16k", "eval-4k", "cv-grid-1k"

TARGETS = (
    Target("cli", "coxmix.cli", "main", (TRAIN, EVAL, CV)),
    Target("dataset.load_csv", "coxmix.dataset", "load_csv", (TRAIN,),
           _loaded_rows, ("rows",)),
    Target("synth.generate_cohort", "coxmix.synth", "generate_cohort", (TRAIN, EVAL, CV)),
    Target("estimators.kaplan_meier", "coxmix.estimators", "kaplan_meier", (EVAL,)),
    Target("estimators.censoring_km", "coxmix.estimators", "censoring_km", (EVAL,)),
    Target("estimators.breslow", "coxmix.estimators", "breslow", (TRAIN,)),
    Target("spline.fit_spline", "coxmix.spline", "fit_spline", (CV,)),
    Target("spline.spline_eval", "coxmix.spline", "spline_eval", (TRAIN, CV),
           _points, ("points",)),
    Target("spline.density_given_cluster", "coxmix.spline", "density_given_cluster",
           (TRAIN, CV)),
    Target("neural.forward", "coxmix.neural", "forward", (TRAIN,), _rows("x"), ("rows",)),
    Target("neural.backward", "coxmix.neural", "backward", (TRAIN,)),
    Target("neural.adam_step", "coxmix.neural", "adam_step", (TRAIN,)),
    Target("objective.partial_log_likelihood", "coxmix.objective",
           "partial_log_likelihood", (TRAIN,)),
    Target("objective.q_hat", "coxmix.objective", "q_hat", (TRAIN,)),
    Target("model.e_step", "coxmix.model", "e_step", (TRAIN, CV), _rows("x"), ("rows",)),
    Target("model.update_baselines", "coxmix.model", "update_baselines", (TRAIN, CV)),
    Target("model.expected_q_loss", "coxmix.model", "expected_q_loss", (TRAIN, CV)),
    Target("model.fit", "coxmix.model", "fit", (CV,), _epochs, ("epochs",)),
    Target("model.predict_survival", "coxmix.model", "DcmModel.predict_survival", (TRAIN,)),
    Target("model.save", "coxmix.model", "DcmModel.save", (TRAIN,)),
    Target("model.load", "coxmix.model", "DcmModel.load", (TRAIN,)),
    Target("metrics.concordance_td", "coxmix.metrics", "concordance_td", (EVAL,)),
    Target("metrics.auc_ipcw", "coxmix.metrics", "auc_ipcw", (EVAL,)),
    Target("metrics.ece", "coxmix.metrics", "ece", (EVAL,)),
    Target("metrics.brier_ipcw", "coxmix.metrics", "brier_ipcw", (EVAL,)),
    Target("metrics.bootstrap_se", "coxmix.metrics", "bootstrap_se", (EVAL,),
           _replicates, ("replicates",)),
    Target("metrics.evaluate_by_group", "coxmix.metrics", "evaluate_by_group", (EVAL,)),
)


@dataclass
class Tracer:
    """Collects spans while installed. ``begin_invocation`` opens a new
    command-invocation id; every span opened afterwards carries it."""

    spans: list = field(default_factory=list)
    invocations: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    missing: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def begin_invocation(self, phase, argv):
        self.invocations.append({"id": len(self.invocations), "phase": phase,
                                 "command": argv[0]})

    def _wrap(self, target, fn):
        spans, stack, invocations = self.spans, self._stack, self.invocations
        name, work = target.span, target.work
        params = inspect.signature(fn).parameters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   len(invocations) - 1, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[END] = clock()
                stack.pop()
                if work is not None:
                    rec[WORK] = work(lambda n: _arg(params, n, args, kwargs), result)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Replace every target at each binding inside the coxmix package.
        A target the library no longer defines is listed in ``missing``
        and reports zero; the benchmark's self-check catches it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "coxmix" or n.startswith("coxmix.")) and m is not None]
        for target in TARGETS:
            owner_name, _, attr = target.attr.rpartition(".")
            owner = importlib.import_module(target.module)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(target.span)
                continue
            if owner_name:  # a method: patch the class once
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(target, raw.__func__))
                else:
                    new = self._wrap(target, raw)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            wrapped = self._wrap(target, raw)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patches.append((module, key, raw))
                        setattr(module, key, wrapped)
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path):
        """Write gzipped JSON lines: invocations, then one list per span
        (fields named in the ``span_fields`` line)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for inv in self.invocations:
                fh.write(json.dumps({"invocation": inv}) + "\n")
            fh.write(json.dumps({"span_fields": ["id", "name", "start", "end",
                                                 "parent", "invocation", "work"]}) + "\n")
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps([i, *rec]) + "\n")


def summarize(spans, lo, hi):
    """Per-span-name totals over spans[lo:hi]: calls, self seconds and
    summed work counts. Self time is a span's duration minus the durations
    of its direct children (calls here are single-threaded, so children
    never overlap). ``neural.forward`` also gets ``rows_in_fit``, its rows
    inside ``model.fit``."""
    child = {}
    for rec in spans[lo:hi]:
        if rec[PARENT] >= lo:
            child[rec[PARENT]] = child.get(rec[PARENT], 0.0) + rec[END] - rec[START]
    in_fit = {}
    out = {}
    for i in range(lo, hi):
        rec = spans[i]
        in_fit[i] = rec[NAME] == "model.fit" or in_fit.get(rec[PARENT], False)
        agg = out.setdefault(rec[NAME], {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += rec[END] - rec[START] - child.get(i, 0.0)
        for key, value in (rec[WORK] or {}).items():
            agg[key] = agg.get(key, 0) + value
        if rec[NAME] == "neural.forward" and in_fit[i]:
            agg["rows_in_fit"] = agg.get("rows_in_fit", 0) + rec[WORK]["rows"]
    return out
