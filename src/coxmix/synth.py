"""Synthetic right-censored cohort generator with known ground truth.

Covariates are standard normal; a latent cluster per individual is drawn
from a softmax gate over the covariates; the event time comes from that
cluster's exponential or Weibull baseline with the hazard scaled by
exp(beta_z . x). Independent exponential censoring is calibrated by
bisection to hit a target censoring fraction. The generator parameters
and latent labels live in a sidecar so trained models can never see them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from coxmix.dataset import SurvivalDataset
from coxmix.model import ConfigError, mixture_survival, sample_assignments
from coxmix.neural import log_softmax

CENSORING_TOL = 0.02      # calibrated censored fraction: within this of the target
CENSORING_MAX_STEPS = 60  # bisection steps before the calibration gives up


class SynthError(ValueError):
    pass


@dataclass(frozen=True)
class ClusterSpec:
    """One mixture component: a Weibull baseline (shape=1 gives the
    exponential with rate 1/scale) and its hazard coefficients."""

    shape: float
    scale: float
    beta: tuple

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.shape, self.scale)):  # NaN fails too
            raise SynthError(f"cluster shape and scale must be finite and positive, "
                             f"got shape={self.shape}, scale={self.scale}")

    def baseline_survival(self, t):
        return np.exp(-np.power(np.asarray(t, dtype=float) / self.scale, self.shape))


@dataclass(frozen=True)
class SynthConfig:
    n: int = field(metadata={"flag": "--n", "help": "number of records"})  # as DcmConfig's
    clusters: tuple            # tuple of ClusterSpec
    gating: tuple              # K rows of d gating coefficients
    censoring_fraction: float = field(default=0.0, metadata={
        "flag": "--censoring", "help": "target censored fraction, from 0 to 0.95"})
    seed: int = 0
    with_groups: bool = field(default=False, metadata={
        "flag": "--with-groups", "help": "label rows pos or neg by the sign of x0"})

    def __post_init__(self):
        if self.n < 1:
            raise SynthConfigError("{n} needs at least one record, got {}", self.n)
        if not 0.0 <= self.censoring_fraction <= 0.95:
            raise SynthConfigError("{censoring_fraction} must be in [0, 0.95], got {}",
                                   self.censoring_fraction)
        if len(self.clusters) < 1:
            raise SynthError("need at least one cluster")
        if len(self.gating) != len(self.clusters):
            raise SynthError("one gating row per cluster required")
        d = self.n_features
        if any(len(row) != d for row in (*(c.beta for c in self.clusters), *self.gating)):
            raise SynthError(f"every beta and gating row needs {d} entries, "
                             "as many as the first cluster's beta")

    @property
    def n_features(self):
        return len(self.clusters[0].beta)


class SynthConfigError(ConfigError, SynthError):
    config = SynthConfig


def true_survival(config, x, t):
    """Ground-truth conditional survival S(t | x) under the generator, by
    ``mixture_survival`` over the Weibull baselines and linear heads."""
    rows = np.atleast_2d(np.asarray(x, dtype=float))
    f = np.stack([rows @ np.asarray(c.beta, dtype=float) for c in config.clusters], axis=1)
    w = log_softmax(rows @ np.asarray(config.gating, dtype=float).T)[1]
    return mixture_survival(x, t, f, w, [c.baseline_survival for c in config.clusters])


def generate_cohort(config):
    """Draw a cohort; returns (SurvivalDataset, sidecar dict).

    The sidecar records the generator parameters, the latent cluster per
    row, the uncensored event times, and the calibrated censoring rate.
    """
    rng = np.random.default_rng(config.seed)
    d = config.n_features
    x = rng.standard_normal((config.n, d))

    z = sample_assignments(log_softmax(x @ np.asarray(config.gating, dtype=float).T)[1], rng)

    event_times = np.empty(config.n)
    e_draw = rng.exponential(1.0, size=config.n)
    for k, spec in enumerate(config.clusters):
        rows = z == k
        ef = np.exp(x[rows] @ np.asarray(spec.beta, dtype=float))
        # S(T|x) = exp(-(T/scale)^shape * ef); invert a unit exponential draw
        event_times[rows] = spec.scale * np.power(e_draw[rows] / ef, 1.0 / spec.shape)

    censor_rate = 0.0
    if config.censoring_fraction > 0:
        v = rng.random(config.n)
        censor_rate = _calibrate_censoring(event_times, v, config.censoring_fraction)
        censor_times = -np.log(v) / censor_rate
        events = (event_times <= censor_times).astype(int)
        times = np.minimum(event_times, censor_times)
    else:
        events = np.ones(config.n, dtype=int)
        times = event_times.copy()

    groups = None
    if config.with_groups:
        groups = np.where(x[:, 0] >= 0, "pos", "neg").astype(object)
    ds = SurvivalDataset(
        features=x, times=times, events=events,
        feature_names=tuple(f"x{i}" for i in range(d)),
        groups=groups,
    )
    sidecar = {
        "seed": config.seed,
        "latent": z.tolist(),
        "event_times": event_times.tolist(),
        "censor_rate": censor_rate,
        "gating": [list(row) for row in config.gating],
        "clusters": [asdict(c) for c in config.clusters],
    }
    return ds, sidecar


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_numbers(v):
    return isinstance(v, (list, tuple)) and all(map(_is_number, v))


def _entry(table, key, where, kind, check):
    """table[key]; SynthError naming the entry if it is missing or is not ``kind``."""
    if not isinstance(table, dict) or key not in table:
        raise SynthError(f"{where} needs a {key!r} entry")
    if not check(table[key]):
        raise SynthError(f"{where} entry {key!r} must be {kind}, got {table[key]!r}")
    return table[key]


def config_from_sidecar(sidecar):
    """Rebuild a SynthConfig (n = 1, other fields at their defaults) with the
    generator parameters of a sidecar or a --spec file, for ground-truth
    survival. SynthError names an entry that is missing or of the wrong type."""
    clusters = _entry(sidecar, "clusters", "spec", "a list of clusters",
                      lambda v: isinstance(v, (list, tuple)))
    gating = _entry(sidecar, "gating", "spec", "a list of lists of numbers",
                    lambda v: isinstance(v, (list, tuple)) and all(map(_is_numbers, v)))
    clusters = tuple(
        ClusterSpec(shape=_entry(c, "shape", f"cluster {k}", "a number", _is_number),
                    scale=_entry(c, "scale", f"cluster {k}", "a number", _is_number),
                    beta=tuple(_entry(c, "beta", f"cluster {k}", "a list of numbers",
                                      _is_numbers)))
        for k, c in enumerate(clusters))
    return SynthConfig(n=1, clusters=clusters, gating=tuple(tuple(row) for row in gating))


def _calibrate_censoring(event_times, uniform_draws, target):
    """Bisection on the exponential censoring rate so the observed censored
    fraction hits the target within CENSORING_TOL, or, when no attainable
    fraction k/n lies that close, the nearest attainable one. The fraction
    is monotone in the rate for fixed draws."""
    def frac(rate):
        c = -np.log(uniform_draws) / rate
        return float(np.mean(event_times > c))

    miss = np.abs(np.arange(event_times.size + 1) / event_times.size - target)
    if not (miss <= CENSORING_TOL).any():
        target = np.argmin(miss) / event_times.size

    lo, hi = 1e-9, 1.0
    while frac(hi) < target and hi < 1e12:
        hi *= 4.0
    for _ in range(CENSORING_MAX_STEPS):
        mid = np.sqrt(lo * hi)
        f = frac(mid)
        if abs(f - target) <= CENSORING_TOL:
            return mid
        if f < target:
            lo = mid
        else:
            hi = mid
    raise SynthError(
        f"censoring calibration did not converge to {target:.3f} "
        f"within {CENSORING_MAX_STEPS} bisection steps")
