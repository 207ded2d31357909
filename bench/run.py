#!/usr/bin/env python3
"""coxmix benchmark: closed-loop CLI workloads with checked outputs.

    python3 bench/run.py --workload train-16k --seed 1 --seconds 35 --trace 0

One client runs one ``coxmix`` command at a time, in-process through
``coxmix.cli.main``, on inputs synthesised from ``--seed``. With
``--trace 0`` the timed iteration repeats for ``--seconds`` and the
end-to-end metrics are printed. Each iteration runs between two timings of a
fixed reference kernel (calibrate.py), which cancel the shared host's
changing speed. With ``--trace 1`` untraced and traced iterations
alternate; the traced ones wrap each library layer from outside (see
tracer.py) and the per-layer metrics and tracing overhead are printed.
The last stdout line is one JSON object: correct, attempted, failed,
metrics. Full results, samples and run metadata go to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``, spans of a traced
run next to it as ``.spans.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
MIN_ITERATIONS = 3      # untraced run: timed iterations, at least
MIN_TRACED_PAIRS = 2    # traced run: (untraced, traced) pairs, at least
COMMANDS = ("train", "predict", "eval", "cv")


def _git_commit():
    """HEAD commit, or None outside a git repository. The search for a
    repository stops at the benchmark's own tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    return proc.stdout.strip() or None


def _src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return None
    q = statistics.quantiles(values, n=4)
    return [q[0], q[2]]


class Session:
    """Runs commands of one workload, counts attempts and failures, and
    keeps the first digest of every command's outputs so that each repeat
    (untraced or traced) must reproduce it byte for byte."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.notes = {}  # facts for the results file that are not checks
        self._reference = {}

    def check(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)

    def execute(self, cmd):
        """Run one command on an empty output directory and check what it
        wrote. Returns its wall seconds, or None if it failed."""
        shutil.rmtree(cmd.out, ignore_errors=True)
        code, seconds = cmd.run()
        self.check(f"{cmd.name}_exit_0", code == 0)
        if code != 0:
            return None
        present = all(os.path.isfile(os.path.join(cmd.out, f)) for f in cmd.files)
        self.check(f"{cmd.name}_files_present", present)
        if not present:
            return None
        digest = {f: _digest(os.path.join(cmd.out, f)) for f in cmd.files}
        self.check(f"{cmd.name}_outputs_repeat",
                   digest == self._reference.setdefault(cmd.out, digest))
        for name, ok in self.workload.check(cmd):
            self.check(name, ok)
        return seconds

    def sequence(self, commands, tracer=None, phase="step"):
        """Run commands in order, stopping at the first failure (the rest
        count as failed). Returns {command: seconds} or None."""
        walls = {}
        for i, cmd in enumerate(commands):
            if tracer is not None:
                tracer.begin_invocation(phase, cmd.argv)
            seconds = self.execute(cmd)
            if seconds is None:
                for skipped in commands[i + 1:]:
                    self.check(f"{skipped.name}_skipped", False)
                return None
            walls[cmd.name] = seconds
        return walls


def _per_ref(seconds, refs):
    """A wall time over the mean of the reference-kernel times measured just
    before and just after it (the last two of ``refs``)."""
    return seconds / ((refs[-2] + refs[-1]) / 2)


def _setup(session, workload, refs):
    """Set up SETUP_REPEATS times, timing the reference kernel after each
    (appended to ``refs``); returns the per-repeat wall seconds and the same
    over the reference."""
    import calibrate

    samples, per_ref = [], []
    for _ in range(SETUP_REPEATS):
        walls = session.sequence(workload.setup_commands())
        refs.append(calibrate.timed())
        if walls is not None:
            samples.append(sum(walls.values()))
            per_ref.append(_per_ref(samples[-1], refs))
    return samples, per_ref


def _finish(session, workload):
    """Quality numbers and one-off checks, after the timed iterations."""
    try:
        quality, checks = workload.finish()
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench: final checks failed: {exc!r}", file=sys.stderr)
        quality, checks = {}, [("final_checks", False)]
    for name, ok in checks:
        session.check(name, ok)
    return quality


def run_untraced(session, workload, seconds, import_s):
    """Set-up and timed iterations, each between two timings of the
    reference kernel (calibrate.py); see README.md for the metrics."""
    import calibrate

    refs = calibrate.first_timing()
    # the import ran before numpy could time the kernel: the first run after it
    import_ref = import_s / refs[0]
    setup_samples, setup_per_ref = _setup(session, workload, refs)
    steps, per_ref, per_cmd = [], [], {}
    deadline = time.perf_counter() + seconds
    iterations = 0
    while iterations < MIN_ITERATIONS or time.perf_counter() < deadline:
        iterations += 1
        walls = session.sequence(workload.step_commands())
        refs.append(calibrate.timed())
        if walls is None:
            continue
        steps.append(sum(walls.values()))
        per_ref.append(_per_ref(steps[-1], refs))
        for name, wall in walls.items():
            per_cmd.setdefault(name, []).append(wall)
    # high-water mark of set-up and timed loop, before the reference checks
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    quality = _finish(session, workload)
    attempted = max(session.attempted, 1)
    metrics = {
        "setup_s": ((import_ref + _median(setup_per_ref)) * calibrate.REFERENCE_S, "s"),
        "step_per_ref": (_median(per_ref), "ratio"),
        # a run without predictions reports the worst possible score
        "brier": (quality.get("brier", 1.0), "score"),
        "ok_frac": ((attempted - session.failed) / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    samples = {"import_s": [import_s], "setup_repeat_s": setup_samples,
               "setup_wall_s": [import_s + _median(setup_samples)],
               "step_s": steps, "ref_s": refs, "step_per_ref": per_ref,
               **{f"{k}_s": v for k, v in per_cmd.items()}}
    return metrics, samples, quality


def run_traced(session, workload, seconds, spans_path):
    import calibrate
    from tracer import TARGETS, Tracer, summarize

    tracer = Tracer().install()
    session.sequence(workload.setup_commands(), tracer, phase="setup")
    setup_summary = summarize(tracer.spans, 0, len(tracer.spans))
    tracer.uninstall()

    plain, traced, summaries, per_cmd = [], [], [], {}
    plain_per_ref, traced_per_ref = [], []
    refs = calibrate.first_timing()
    deadline = time.perf_counter() + seconds
    pairs = 0
    while pairs < MIN_TRACED_PAIRS or time.perf_counter() < deadline:
        pairs += 1
        walls = session.sequence(workload.step_commands())
        refs.append(calibrate.timed())
        if walls is not None:
            plain.append(sum(walls.values()))
            plain_per_ref.append(_per_ref(plain[-1], refs))
            for name, wall in walls.items():
                per_cmd.setdefault(name, []).append(wall)
        tracer.install()
        lo = len(tracer.spans)
        try:
            walls = session.sequence(workload.step_commands(), tracer)
        finally:
            tracer.uninstall()
        refs.append(calibrate.timed())
        if walls is not None:
            traced.append(sum(walls.values()))
            traced_per_ref.append(_per_ref(traced[-1], refs))
            summaries.append(summarize(tracer.spans, lo, len(tracer.spans)))
    tracer.write(spans_path)
    if tracer.missing:
        session.notes["untraced_layers"] = tracer.missing
        print("bench: layers not found, reported as zero: " + ", ".join(tracer.missing),
              file=sys.stderr)
    quality = _finish(session, workload)

    metrics = {}
    for target in TARGETS:
        # no timed step synthesises, so synth is measured over the set-up
        per_iter = [setup_summary] if target.span == "synth.generate_cohort" else summaries
        aggs = [s.get(target.span, {}) for s in per_iter] or [{}]
        for count in ("calls", *target.counts):
            metrics[f"{target.span}.{count}"] = (aggs[0].get(count, 0), "count")
        metrics[f"{target.span}.self_s"] = (_median([a.get("self_s", 0.0) for a in aggs]), "s")
    first = summaries[0] if summaries else {}
    boot = first.get("metrics.bootstrap_se", {})
    metrics["metrics.bootstrap_se.used_frac"] = (
        boot["used"] / boot["replicates"] if boot.get("replicates") else 0.0, "ratio")
    row_epochs = first.get("model.fit", {}).get("row_epochs", 0)
    metrics["neural.forward.passes_per_epoch"] = (
        first.get("neural.forward", {}).get("rows_in_fit", 0) / row_epochs if row_epochs
        else 0.0, "ratio")
    for name in COMMANDS:
        metrics[f"cli.{name}.wall_s"] = (_median(per_cmd.get(name, [])), "s")
    # traced over untraced iterations, each over its neighbouring kernel runs,
    # so that the host's changing speed does not pass for tracing cost
    overhead_frac = (_median(traced_per_ref) / _median(plain_per_ref) - 1.0
                     if plain_per_ref and traced_per_ref else 0.0)
    metrics["trace.overhead_s"] = (overhead_frac * _median(plain), "s")
    metrics["trace.overhead_frac"] = (overhead_frac, "ratio")

    samples = {"untraced_step_s": plain, "traced_step_s": traced, "ref_s": refs,
               "untraced_step_per_ref": plain_per_ref, "traced_step_per_ref": traced_per_ref,
               **{f"{k}_s": v for k, v in per_cmd.items()}}
    return metrics, samples, quality


def metadata(seed, workload_name, trace, seconds):
    import numpy
    import scipy

    return {
        "workload": workload_name, "seed": seed, "trace": trace, "seconds": seconds,
        "git_commit": _git_commit(),
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "src_lines": _src_lines(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-16k", "eval-4k", "cv-grid-1k"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "coxmix" / "__init__.py").is_file():
        print(f"bench: no coxmix sources under {SRC}", file=sys.stderr)
        return 2
    # one thread: the library's matrices are too small to gain from more
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import coxmix.cli
    import_s = time.perf_counter() - start
    if Path(coxmix.__file__).resolve().parent != SRC / "coxmix":
        print(f"bench: imported coxmix from {coxmix.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"work-{stem}-{os.getpid()}"
    workload = WORKLOADS[args.workload](str(work_dir), args.seed)
    session = Session(workload)
    try:
        if args.trace:
            metrics, samples, quality = run_traced(
                session, workload, args.seconds, OUT / f"{stem}.spans.jsonl.gz")
        else:
            metrics, samples, quality = run_untraced(session, workload, args.seconds, import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    results = {
        "metadata": metadata(args.seed, args.workload, args.trace, args.seconds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "quality": quality,
        "samples": samples,
        "quartiles": {k: _quartiles(v) for k, v in samples.items()},
        "attempted": session.attempted, "failed": session.failed,
        "failures": session.failures, "notes": session.notes,
        "run_wall_s": time.perf_counter() - started,
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{session.attempted} checks, {session.failed} failed")
    for name, values in samples.items():
        print(f"  sample {name}: median {_median(values):.4f} of {len(values)}, "
              f"quartiles {_quartiles(values)}")
    for name, value in quality.items():
        print(f"  quality {name}: {value:.6f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value} {unit}")
    if session.failures:
        print("  failed: " + ", ".join(session.failures))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
