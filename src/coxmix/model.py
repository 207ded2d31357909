"""The Cox mixture model: K proportional-hazards components with neural
log-hazard and gating heads, trained by hard-assignment Monte Carlo EM.

Each EM sweep alternates, per minibatch, a posterior (E) step using the
current spline baselines, a categorical draw of hard assignments, and one
Adam step on the hard-assignment objective; once per epoch the per-cluster
Breslow baselines are recomputed over the full training data and re-splined.
Every posterior reads the baselines through a baseline table: each row's
S0 and dS0/dt under every cluster's spline. The baselines are fixed between
refreshes, so the training rows' table is built once per refresh; each
epoch puts it in the epoch's row order once, with the rows themselves, and
the minibatch E-steps slice it. The validation objective and a bare
``e_step`` build one for their own rows.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, asdict, field, fields

import numpy as np

from coxmix import neural, objective
from coxmix.dataset import atomic_write
from coxmix.estimators import breslow, kaplan_meier
from coxmix.spline import (
    density_given_cluster, fit_spline, spline_from_dict, spline_to_dict, spline_value_and_slope,
)

MODEL_FORMAT_VERSION = 3  # versions 1 and 2 still load: they hold every version-3 key
# config keys written by earlier releases; they only steered training, so
# files that carry them still load and predict the same
_RETIRED_CONFIG_KEYS = ("use_prior_in_estep", "baseline_smoothing",
                        "max_spline_knots", "val_fraction")
VAL_FRACTION = 0.1  # share of rows fit holds out to monitor the objective
POSTERIOR_FLOOR = 1e-10  # least unnormalized posterior weight; dimensionless


class ModelError(ValueError):
    pass


class ConfigError(ValueError):
    """A refused value of a subclass's dataclass ``config``: a ``str.format`` template
    over its field names, then the positional values. ``str()`` writes each field as
    its name, ``render(key)`` as its metadata's ``key`` entry where it has one."""

    def render(self, key=None):
        template, *values = self.args
        return template.format(*values, **{f.name: f.metadata.get(key, f.name)
                                           for f in fields(self.config)})

    __str__ = render


@dataclass
class DcmConfig:
    """Training configuration. Each field but ``seed``, which every command's
    --seed sets, names its command-line ``flag`` and the flag's ``help`` text."""

    n_clusters: int = field(default=3, metadata={
        "flag": "--k", "help": "number of mixture components"})
    hidden_dims: tuple = field(default=(100,), metadata={
        "flag": "--layers", "help": "comma-separated hidden widths; empty for a linear model"})
    lr: float = field(default=1e-3, metadata={
        "flag": "--lr", "help": "Adam's learning rate; finite and positive"})
    batch_size: int = field(default=128, metadata={
        "flag": "--batch", "help": "rows per minibatch; at least 2 per mixture component"})
    max_epochs: int = field(default=50, metadata={
        "flag": "--epochs", "help": "most EM epochs; at least 1"})
    patience: int = field(default=3, metadata={
        "flag": "--patience", "help": "epochs without a lower validation loss before stopping"})
    seed: int = 0

    def __post_init__(self):
        """Each refused value raises a DcmConfigError whose message starts with its field."""
        for name in ("n_clusters", "batch_size", "max_epochs", "patience", "seed"):
            if not _is_integer(value := getattr(self, name)):
                raise DcmConfigError("{" + name + "} must be an integer, got {!r}", value)
        if not all(_is_integer(w) and w > 0 for w in self.hidden_dims):
            raise DcmConfigError("{hidden_dims} must be positive integers, got {!r}",
                                 self.hidden_dims)
        if isinstance(self.lr, bool) or not isinstance(self.lr, numbers.Real):
            raise DcmConfigError("{lr} must be a real number, got {!r}", self.lr)
        if self.n_clusters < 1:
            raise DcmConfigError("{n_clusters} must be >= 1, got {}", self.n_clusters)
        if self.seed < 0:  # numpy's generators refuse it
            raise DcmConfigError("{seed} must be >= 0, got {}", self.seed)
        if self.batch_size < 2 * self.n_clusters:
            raise DcmConfigError("{batch_size} must be at least 2 * {n_clusters} = {}, got {}",
                                 2 * self.n_clusters, self.batch_size)
        for name in ("max_epochs", "patience"):
            if (value := getattr(self, name)) < 1:
                raise DcmConfigError("{" + name + "} must be >= 1, got {}", value)
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise DcmConfigError("{lr} must be finite and positive, got {}", self.lr)


class DcmConfigError(ConfigError, ModelError):
    config = DcmConfig


def _is_integer(value):
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


class DcmModel:
    """A trained Cox mixture: encoder + heads, one baseline survival
    spline per cluster, and the standardization stats used at fit time."""

    def __init__(self, params, heads, baselines, config, standardization=None,
                 feature_names=None):
        self.params = params
        self.heads = heads
        self.baselines = list(baselines)
        self.config = config
        self.standardization = standardization
        self.feature_names = tuple(feature_names) if feature_names else None
        self.training_log = []  # fit appends one entry per epoch; it is not saved
        if len(self.baselines) != config.n_clusters:
            raise ModelError("baseline count must equal n_clusters")

    def _heads_out(self, x):
        # the encoder's activations are freed before the softmax allocates
        f, g = neural.heads_forward(self.heads, neural.forward(self.params, x)[0])
        return f, neural.log_softmax(g)

    def predict_survival(self, x, t):
        """Mixture survival P(T > t | x) of a vector or (N, d) batch x at a
        scalar or grid t, by ``mixture_survival`` over the spline baselines."""
        f, (_, w) = self._heads_out(np.atleast_2d(np.asarray(x, dtype=float)))
        return mixture_survival(x, t, f, w, self.baselines)

    def predict_dataset(self, ds, horizons):
        """Survival at each horizon for every row of a raw (unstandardized)
        dataset, shape (len(ds), len(horizons)). Columns are matched to the
        model's features by name, then the stored standardization applies."""
        x = ds.features
        if self.feature_names and tuple(ds.feature_names) != self.feature_names:
            if sorted(ds.feature_names) != sorted(self.feature_names):
                differ = set(self.feature_names) ^ set(ds.feature_names)
                raise ModelError(f"feature names differ from the model's: {sorted(differ)}")
            x = x[:, [list(ds.feature_names).index(name) for name in self.feature_names]]
        if self.standardization is not None:
            mean, std = self.standardization
            x = (x - mean) / std
        return self.predict_survival(x, np.atleast_1d(np.asarray(horizons, dtype=float)))

    # -- persistence ----------------------------------------------------

    def save(self, path):
        payload = {
            "format_version": MODEL_FORMAT_VERSION,
            "config": asdict(self.config),
            "standardization": None if self.standardization is None else {
                "mean": [float(v) for v in self.standardization[0]],
                "std": [float(v) for v in self.standardization[1]],
            },
            "feature_names": list(self.feature_names) if self.feature_names else None,
            "mlp": {
                "weights": [w.tolist() for w in self.params.weights],
                "biases": [b.tolist() for b in self.params.biases],
            },
            "heads": {k: v.tolist() for k, v in vars(self.heads).items()},
            "splines": [spline_to_dict(b) for b in self.baselines],
        }
        with atomic_write(path) as fh:  # dumps runs the C encoder, dump never does
            fh.write(json.dumps(payload, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ModelError(f"{path}: corrupt model file ({exc})") from None
        version = payload.get("format_version") if isinstance(payload, dict) else None
        if type(version) is not int or not 1 <= version <= MODEL_FORMAT_VERSION:  # not True or 1.0
            raise ModelError(
                f"{path}: unsupported model format version {version!r}, "
                f"expected 1 to {MODEL_FORMAT_VERSION}")
        try:
            return cls._from_payload(payload)
        except ModelError as exc:
            raise ModelError(f"{path}: {exc}") from None
        except KeyError as exc:
            raise ModelError(f"{path}: missing key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ModelError(f"{path}: malformed model file ({exc})") from None

    @classmethod
    def _from_payload(cls, payload):
        """Rebuild a model from a parsed file, checking every shape against
        ``hidden_dims``, the first matrix's input width and K = ``n_clusters``."""
        raw = {k: v for k, v in payload["config"].items() if k not in _RETIRED_CONFIG_KEYS}
        known = {f.name for f in fields(DcmConfig)}
        if set(raw) != known:
            raise ModelError(f"config keys: missing {sorted(known - set(raw))}, "
                             f"unknown {sorted(set(raw) - known)}")
        cfg = DcmConfig(**{**raw, "hidden_dims": tuple(raw["hidden_dims"])})
        k, mlp, h = cfg.n_clusters, payload["mlp"], payload["heads"]
        if not len(mlp["weights"]) == len(mlp["biases"]) == len(cfg.hidden_dims):
            raise ModelError("need one weight matrix and one bias per hidden layer")
        first = mlp["weights"][0] if cfg.hidden_dims else h["f_w"]
        dims = (len(first), *cfg.hidden_dims)
        params = neural.MlpParams(
            weights=[_array(w, (a, b), "weights") for w, a, b in
                     zip(mlp["weights"], dims[:-1], dims[1:])],
            biases=[_array(v, (b,), "biases") for v, b in zip(mlp["biases"], dims[1:])],
            layer_dims=dims)
        heads = neural.HeadParams(
            **{key: _array(h[key], (dims[-1], k) if key.endswith("_w") else (k,), "heads")
               for key in ("f_w", "f_b", "g_w", "g_b")})
        std = payload["standardization"]
        if std is not None:
            std = (_array(std["mean"], dims[:1], "mean"), _array(std["std"], dims[:1], "std"))
            if np.any(std[1] <= 0):
                raise ModelError("standardization std must be positive")
        names = payload["feature_names"]
        if names is not None and (not isinstance(names, list) or len(names) != dims[0]
                                  or not all(isinstance(v, str) for v in names)):
            raise ModelError("feature_names disagree with the input width")
        return cls(params=params, heads=heads,
                   baselines=[spline_from_dict(d) for d in payload["splines"]],
                   config=cfg, standardization=std, feature_names=names)


def _array(value, shape, what):
    """``value`` as a float array; ModelError unless it is finite with ``shape``."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape or not np.all(np.isfinite(arr)):
        raise ModelError(f"{what}: need finite values of shape {shape}, got {arr.shape}")
    return arr


# -- EM steps ------------------------------------------------------------


def baseline_table(baselines, times):
    """Every row's spline terms under each cluster's baseline, S0_k(t_i) and
    dS0_k/dt(t_i), as two (N, K) arrays filled one curve at a time with one
    interval lookup per curve. Every posterior reads its rows from one."""
    times = np.asarray(times, dtype=float)
    order = times.argsort()  # searchsorted runs several times faster on ascending times
    s0 = np.empty((times.size, len(baselines)))
    ds0 = np.empty_like(s0)
    for k, bl in enumerate(baselines):
        s0[order, k], ds0[order, k] = spline_value_and_slope(bl, times[order])
    return s0, ds0


def cluster_log_densities(log_hazards, events, table):
    """Per-row, per-cluster log likelihood terms: log density for events,
    exp(f_k) * log S_k(t) for censored rows. Shape (N, K). ``table`` holds
    the rows' (S0, dS0) from ``baseline_table``."""
    f = np.asarray(log_hazards, dtype=float)
    if not np.isfinite(f).all():
        raise ModelError("non-finite log hazard")
    ev = np.asarray(events, dtype=int)[:, None] == 1
    s0, ds0 = table
    ef = np.exp(f)
    return np.where(ev, np.log(density_given_cluster(ef, s0, ds0)), ef * np.log(s0))


def _posterior(f, log_gate, events, table):
    """Log joint weights log(p(t, delta | k, x) * gate_k(x)), shape (N, K),
    and the posterior responsibilities: density^delta *
    conditional-survival^(1-delta) * gate, each row shifted by its max,
    exponentiated, floored at POSTERIOR_FLOOR (a share of the row's largest
    weight, so it does not depend on the unit of time) and normalized; a row
    with a NaN weight gets 1/K. ``log_gate``: the log half of
    ``neural.log_softmax(logits)``."""
    log_joint = cluster_log_densities(f, events, table) + log_gate
    shifted = log_joint - neural.over_clusters(np.maximum, log_joint)[:, None]
    w = np.maximum(np.exp(shifted), POSTERIOR_FLOOR)
    total = neural.over_clusters(np.add, w)
    # each weight lies in [POSTERIOR_FLOOR, 1] or is NaN, so a row holds a NaN
    # exactly where its sum is not finite
    bad = ~np.isfinite(total)
    w[bad], total[bad] = 1.0, w.shape[1]
    return log_joint, w / total[:, None]


def _q_loss(log_joint, gamma):
    """Negated posterior-weighted complete-data log likelihood per row."""
    return -float(np.sum(gamma * log_joint)) / gamma.shape[0]


def e_step(model, x, times, events, heads=None, table=None):
    """Posterior cluster responsibilities for a batch of rows x. ``heads``:
    the batch's log hazards and gate (``neural.log_softmax`` of the gating
    logits) when the encoder has already run on x; ``table``: the batch's
    rows of a ``baseline_table``, built for ``times`` when not given."""
    f, gate = model._heads_out(x) if heads is None else heads
    table = baseline_table(model.baselines, times) if table is None else table
    return _posterior(f, gate[0], events, table)[1]


def mixture_survival(x, t, f, w, baselines):
    """sum_k w_k * S0_k(t)^exp(f_k), clamped at 1, for the (N, K) log hazards f
    and gate w of x's rows and K baseline survival callables S0_k; shape
    x.shape[:-1] + t.shape, and a single value is a Python float."""
    t = np.asarray(t, dtype=float)
    ef = np.exp(f)
    out = np.zeros((f.shape[0], t.size))
    for k, s0 in enumerate(baselines):
        out += w[:, k:k + 1] * np.power(s0(t.reshape(-1))[None, :], ef[:, k:k + 1])
    np.minimum(out, 1.0, out=out)  # the gate weights may sum to 1 + 1 ulp
    out = out.reshape(np.shape(x)[:-1] + t.shape)
    return float(out) if out.ndim == 0 else out


def sample_assignments(gamma, rng):
    """Draw one categorical hard assignment per row from its posterior: the
    number of the first K - 1 cumulative posteriors below a uniform draw,
    so a row whose posterior sums to just under 1 still gets a cluster."""
    u = rng.random(gamma.shape[0])
    cdf = neural.over_clusters(np.add, gamma[:, :-1], accumulate=True)
    return neural.over_clusters(np.add, (u[:, None] > cdf).astype(int))


def update_baselines(model, log_hazards, times, events, zeta):
    """Refresh each cluster's Breslow baseline over its assigned rows,
    given every row's log hazards (N, K), and refit the spline. Clusters
    with fewer than 2 events keep their previous spline; returns the
    number of such starved clusters. Splines are replaced, never mutated,
    so a shallow copy of ``model.baselines`` is a snapshot."""
    starved = 0
    for k in range(len(model.baselines)):
        rows = np.flatnonzero(zeta == k)
        if rows.size < 2 or events[rows].sum() < 2:
            starved += 1
            continue
        curve = breslow(times[rows], events[rows], log_hazards[rows, k])
        model.baselines[k] = fit_spline(curve)
    return starved


def expected_q_loss(model, x, times, events):
    """Soft-count EM objective on held-out data (negated, a loss): the
    posterior-weighted complete-data log likelihood, averaged per row.
    Deterministic; used for epoch monitoring and early stopping."""
    f, (log_gate, _) = model._heads_out(x)
    return _q_loss(*_posterior(f, log_gate, events,
                               baseline_table(model.baselines, times)))


def _refresh_phase(model, train, table, rng):
    """One encoder pass over the training rows: draw hard assignments
    against the current baseline table, refresh the baselines, build their
    table and score the training objective against it. Returns (starved
    clusters, objective, new table). Only the log gate is held, and the
    heads are freed on return: kept until the next epoch, they stop the
    allocator from handing the freed encoder activations back, which raises
    peak memory."""
    f, (log_gate, _) = model._heads_out(train.features)
    zeta = sample_assignments(_posterior(f, log_gate, train.events, table)[1], rng)
    starved = update_baselines(model, f, train.times, train.events, zeta)
    table = baseline_table(model.baselines, train.times)
    return starved, _q_loss(*_posterior(f, log_gate, train.events, table)), table


def _minibatch_phase(model, train, table, adam, rng):
    """One sweep of minibatch EM over the training rows in a fresh random
    order: per minibatch an E-step against the baseline ``table``, a draw of
    hard assignments and one Adam step. The rows and their table entries are
    put in that order once, and each minibatch slices the ordered copies.
    Returns the minibatch losses. The copies are freed on return, before the
    refresh allocates."""
    order = rng.permutation(len(train))
    x, times, events = train.features[order], train.times[order], train.events[order]
    s0, ds0 = table[0][order], table[1][order]
    k, size = model.config.n_clusters, model.config.batch_size
    losses = []
    # batch_size >= 2K and fit keeps >= 2K rows, so only a short final
    # minibatch, never the first, can hold fewer than 2K rows; it is skipped
    for lo in range(0, order.size - 2 * k + 1, size):
        xb, tb, eb = x[lo:lo + size], times[lo:lo + size], events[lo:lo + size]
        rep, cache = neural.forward(model.params, xb)
        f, g = neural.heads_forward(model.heads, rep)
        gate = neural.log_softmax(g)  # one gate for both steps
        gamma = e_step(model, xb, tb, eb, heads=(f, gate),
                       table=(s0[lo:lo + size], ds0[lo:lo + size]))
        zeta = sample_assignments(gamma, rng)
        # M-step: one Adam step on the hard-assignment objective
        loss, d_f, d_g = objective.q_hat(tb, eb, gamma, zeta, f, gate)
        neural.backward(model.params, model.heads, cache, rep, d_f, d_g, adam.grads)
        neural.adam_step(adam)
        losses.append(loss)
    return losses


def fit(dataset, config):
    """Train a Cox mixture on a (standardized) dataset.

    Carves out an internal validation split, initializes all baselines to
    the pooled Kaplan-Meier spline, then runs minibatch EM epochs with a
    full-data baseline refresh per epoch. Early-stops when the validation
    objective fails to improve for ``patience`` epochs and returns the
    best-validation snapshot.
    """
    if dataset.features.shape[1] == 0:
        raise ModelError("cannot fit without a feature column")
    if dataset.events.sum() == 0:
        raise ModelError("cannot fit with no observed events")
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(len(dataset))
    n_val = max(int(round(VAL_FRACTION * perm.size)), 1) if perm.size >= 20 else 0
    train, val = dataset.subset(perm[n_val:]), dataset.subset(perm[:n_val])
    if train.events.sum() == 0:
        raise ModelError("no events left in the training split")
    if len(train) < 2 * config.n_clusters:  # no minibatch could take a step
        raise ModelError(f"{config.n_clusters} clusters need at least "
                         f"{2 * config.n_clusters} training records, got {len(train)}")
    if val.events.sum() == 0:  # below 20 records or no validation event: monitor on train
        val = train

    params, heads = neural.init_params((train.features.shape[1], *config.hidden_dims),
                                       config.n_clusters, config.seed)
    pooled = fit_spline(kaplan_meier(train.times, train.events))
    model = DcmModel(params, heads,
                     baselines=[pooled] * config.n_clusters,
                     config=config,
                     standardization=dataset.standardization,
                     feature_names=dataset.feature_names)
    adam = neural.AdamState.create(params, heads, config.lr)
    table = tuple(np.repeat(c, config.n_clusters, axis=1)
                  for c in baseline_table([pooled], train.times))

    best = (np.inf, None, None)
    stale = 0
    for epoch in range(config.max_epochs):
        batch_losses = _minibatch_phase(model, train, table, adam, rng)
        starved, train_q, table = _refresh_phase(model, train, table, rng)
        val_q = expected_q_loss(model, val.features, val.times, val.events)
        if not np.isfinite(val_q):
            raise ModelError(f"non-finite objective at epoch {epoch}")
        model.training_log.append({
            "epoch": epoch,
            "train_q": train_q,
            "val_q": val_q,
            "batch_loss": float(np.mean(batch_losses)),
            "starved_clusters": starved,
        })

        if val_q < best[0] - 1e-12:
            best = (val_q, adam.theta.copy(), list(model.baselines))
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    # epoch 0's finite val_q beats np.inf; the parameters are views into adam.theta
    adam.theta[:], model.baselines = best[1:]
    return model
