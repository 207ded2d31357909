"""The Cox mixture model: K proportional-hazards components with neural
log-hazard and gating heads, trained by hard-assignment Monte Carlo EM.

Each EM sweep alternates, per minibatch, a posterior (E) step using the
current spline baselines, a categorical draw of hard assignments, and one
Adam step on the hard-assignment objective; once per epoch the per-cluster
Breslow baselines are recomputed over the full training data and re-splined.
The baselines are fixed between refreshes, so each training row's spline
terms are evaluated once per refresh into a baseline table that the
minibatch E-steps read.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, fields

import numpy as np

from coxmix import neural, objective
from coxmix.dataset import atomic_write
from coxmix.estimators import breslow, kaplan_meier
from coxmix.spline import (
    EPS_DENSITY, density_given_cluster, event_density, fit_spline, spline_derivative,
    spline_eval, spline_from_dict, spline_to_dict,
)

MODEL_FORMAT_VERSION = 1
# config keys written by earlier releases; they only steered training, so
# files that carry them still load and predict the same
_RETIRED_CONFIG_KEYS = ("use_prior_in_estep", "baseline_smoothing",
                        "max_spline_knots", "val_fraction")
VAL_FRACTION = 0.1  # share of rows fit holds out to monitor the objective


class ModelError(ValueError):
    pass


@dataclass
class DcmConfig:
    """Training configuration. Defaults follow: Adam lr 1e-3, minibatch
    128, degree-3 baseline splines."""

    n_clusters: int = 3
    hidden_dims: tuple = (100,)
    lr: float = 1e-3
    batch_size: int = 128
    max_epochs: int = 50
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ModelError("n_clusters must be >= 1")
        if self.batch_size < 2 * self.n_clusters:
            raise ModelError("batch_size must be at least 2 * n_clusters")


class DcmModel:
    """A trained Cox mixture: encoder + heads, one baseline survival
    spline per cluster, and the standardization stats used at fit time."""

    def __init__(self, params, heads, baselines, config, standardization=None,
                 feature_names=None, training_log=None):
        self.params = params
        self.heads = heads
        self.baselines = list(baselines)
        self.config = config
        self.standardization = standardization
        self.feature_names = tuple(feature_names) if feature_names else None
        self.training_log = training_log or []
        if len(self.baselines) != config.n_clusters:
            raise ModelError("baseline count must equal n_clusters")

    @property
    def n_clusters(self):
        return self.config.n_clusters

    def _heads_out(self, x):
        rep, _ = neural.forward(self.params, x)
        return neural.heads_forward(self.heads, rep)

    def predict_survival(self, x, t):
        """Mixture survival P(T > t | x) = sum_k S_k(t)^exp(f_k(x)) *
        gate_k(x). Accepts a single vector or (N, d) batch for x and a
        scalar or grid for t; returns matching scalar/vector/matrix."""
        x = np.asarray(x, dtype=float)
        single_x = x.ndim == 1
        xb = np.atleast_2d(x)
        t = np.asarray(t, dtype=float)
        single_t = t.ndim == 0
        tg = np.atleast_1d(t)

        f, g = self._heads_out(xb)
        w = neural.softmax(g)                       # (N, K)
        ef = np.exp(f)                              # (N, K)
        out = np.zeros((xb.shape[0], tg.size))
        for k, bl in enumerate(self.baselines):
            s0 = spline_eval(bl, tg)                # (H,)
            out += w[:, k:k + 1] * np.power(s0[None, :], ef[:, k:k + 1])
        np.minimum(out, 1.0, out=out)  # the gate weights may sum to 1 + 1 ulp
        if single_x and single_t:
            return float(out[0, 0])
        if single_x:
            return out[0]
        if single_t:
            return out[:, 0]
        return out

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
                "layer_dims": list(self.params.layer_dims),
                "weights": [w.tolist() for w in self.params.weights],
                "biases": [b.tolist() for b in self.params.biases],
            },
            "heads": {
                "f_w": self.heads.f_w.tolist(), "f_b": self.heads.f_b.tolist(),
                "g_w": self.heads.g_w.tolist(), "g_b": self.heads.g_b.tolist(),
            },
            "splines": [spline_to_dict(b) for b in self.baselines],
            "training_log": self.training_log,
        }
        with atomic_write(path) as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ModelError(f"{path}: corrupt model file ({exc})") from None
        version = payload.get("format_version") if isinstance(payload, dict) else None
        if version != MODEL_FORMAT_VERSION:
            raise ModelError(
                f"{path}: unsupported model format version {version!r}, "
                f"expected {MODEL_FORMAT_VERSION}")
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
        ``layer_dims`` and K = ``n_clusters``."""
        raw = {k: v for k, v in payload["config"].items() if k not in _RETIRED_CONFIG_KEYS}
        known = {f.name for f in fields(DcmConfig)}
        if set(raw) != known:
            raise ModelError(f"config keys: missing {sorted(known - set(raw))}, "
                             f"unknown {sorted(set(raw) - known)}")
        cfg = DcmConfig(**{**raw, "hidden_dims": tuple(raw["hidden_dims"])})
        k, mlp, h = cfg.n_clusters, payload["mlp"], payload["heads"]
        dims = tuple(mlp["layer_dims"])
        if (not dims or not all(type(v) is int and v > 0 for v in dims)
                or dims[1:] != cfg.hidden_dims
                or not len(mlp["weights"]) == len(mlp["biases"]) == len(dims) - 1):
            raise ModelError("layer_dims disagree with hidden_dims or the layer count")
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
            raise ModelError("feature_names disagree with layer_dims")
        if len(payload["splines"]) != k or not isinstance(payload["training_log"], list):
            raise ModelError("need one spline per cluster and a training_log list")
        return cls(params=params, heads=heads,
                   baselines=[spline_from_dict(d) for d in payload["splines"]],
                   config=cfg, standardization=std, feature_names=names,
                   training_log=payload["training_log"])


def _array(value, shape, what):
    """``value`` as a float array; ModelError unless it is finite with ``shape``."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape or not np.all(np.isfinite(arr)):
        raise ModelError(f"{what}: need finite values of shape {shape}, got {arr.shape}")
    return arr


# -- EM steps ------------------------------------------------------------


def baseline_table(baselines, times, events):
    """Every row's spline terms under each cluster's baseline: S0_k(t_i) for
    all rows and dS0_k/dt(t_i) for event rows (0 for censored rows), as two
    (N, K) arrays. Rows gathered from it stand in for the splines in
    ``cluster_log_densities``."""
    times = np.asarray(times, dtype=float)
    ev = np.asarray(events, dtype=int) == 1
    s0 = np.column_stack([spline_eval(bl, times) for bl in baselines])
    ds0 = np.zeros_like(s0)
    ds0[ev] = np.column_stack([spline_derivative(bl, times[ev]) for bl in baselines])
    return s0, ds0


def cluster_log_densities(baselines, log_hazards, times, events, table=None):
    """Per-row, per-cluster log likelihood terms: log density for events,
    exp(f_k) * log S_k(t) for censored rows. Shape (N, K). With ``table``,
    the rows' (S0, dS0) from ``baseline_table``, no spline is evaluated;
    without it each row's spline terms are evaluated for its own case only.
    Both give the same bits."""
    f = np.asarray(log_hazards, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ModelError("non-finite log hazard")
    ev = np.asarray(events, dtype=int) == 1
    out = np.empty(f.shape)
    if table is not None:
        s0, ds0 = table
        out[ev] = np.log(event_density(np.exp(f[ev]), s0[ev], ds0[ev]))
        out[~ev] = np.exp(f[~ev]) * np.log(s0[~ev])
        return out
    times = np.asarray(times, dtype=float)
    for c, bl in enumerate(baselines):
        out[ev, c] = np.log(density_given_cluster(bl, f[ev, c], times[ev]))
        out[~ev, c] = np.exp(f[~ev, c]) * np.log(spline_eval(bl, times[~ev]))
    return out


def _posterior(model, f, g, times, events, table=None):
    """Log joint weights log(p(t, delta | k, x) * gate_k(x)), shape (N, K),
    and the posterior responsibilities: density^delta *
    conditional-survival^(1-delta) * gate, each row shifted by its max,
    exponentiated, floored at EPS_DENSITY and normalized."""
    z = g - g.max(axis=1, keepdims=True)
    log_joint = cluster_log_densities(model.baselines, f, times, events, table) + (
        z - np.log(np.exp(z).sum(axis=1, keepdims=True)))
    w = np.maximum(np.exp(log_joint - log_joint.max(axis=1, keepdims=True)), EPS_DENSITY)
    w[~np.all(np.isfinite(w), axis=1)] = 1.0
    return log_joint, w / w.sum(axis=1, keepdims=True)


def _q_loss(log_joint, gamma):
    """Negated posterior-weighted complete-data log likelihood per row."""
    return -float(np.sum(gamma * log_joint)) / gamma.shape[0]


def e_step(model, x, times, events, heads=None, table=None):
    """Posterior cluster responsibilities for a batch of rows x. ``heads``:
    the batch's (log hazards, gating logits) when the encoder has already
    run on x; ``table``: the batch's rows of a ``baseline_table``."""
    f, g = model._heads_out(x) if heads is None else heads
    return _posterior(model, f, g, times, events, table)[1]


def sample_assignments(gamma, rng):
    """Draw one categorical hard assignment per row from its posterior."""
    u = rng.random(gamma.shape[0])
    cdf = np.cumsum(gamma, axis=1)
    return (u[:, None] > cdf).sum(axis=1).astype(int)


def m_step(model, adam, encoded, times, events, gamma, zeta):
    """One Adam step on the hard-assignment objective, backpropagating
    through ``encoded`` = (rep, cache, log hazards, gating logits), the
    encoder pass over the batch under the current parameters. Returns the
    batch loss before the update."""
    rep, cache, f, g = encoded
    loss, d_f, d_g = objective.q_hat(times, events, gamma, zeta, f, g)
    mlp_grads, head_grads = neural.backward(model.params, model.heads, cache, rep, d_f, d_g)
    neural.adam_step(mlp_grads, head_grads, adam)
    return loss


def update_baselines(model, log_hazards, times, events, zeta):
    """Refresh each cluster's Breslow baseline over its assigned rows,
    given every row's log hazards (N, K), and refit the spline. Clusters
    with fewer than 2 events keep their previous spline; returns the
    number of such starved clusters. Splines are replaced, never mutated,
    so a shallow copy of ``model.baselines`` is a snapshot."""
    starved = 0
    for k in range(model.n_clusters):
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
    return _q_loss(*_posterior(model, *model._heads_out(x), times, events))


def _refresh_phase(model, x, times, events, table, rng):
    """One encoder pass over the training rows: draw hard assignments
    against the current baseline table, refresh the baselines, build their
    table and score the training objective against it. Returns (starved
    clusters, objective, new table). The heads are freed on return: kept
    until the next epoch, they stop the allocator from handing the freed
    encoder activations back, which raises peak memory."""
    f, g = model._heads_out(x)
    zeta = sample_assignments(_posterior(model, f, g, times, events, table)[1], rng)
    starved = update_baselines(model, f, times, events, zeta)
    table = baseline_table(model.baselines, times, events)
    return starved, _q_loss(*_posterior(model, f, g, times, events, table)), table


def fit(dataset, config):
    """Train a Cox mixture on a (standardized) dataset.

    Carves out an internal validation split, initializes all baselines to
    the pooled Kaplan-Meier spline, then runs minibatch EM epochs with a
    full-data baseline refresh per epoch. Early-stops when the validation
    objective fails to improve for ``patience`` epochs and returns the
    best-validation snapshot.
    """
    if dataset.events.sum() == 0:
        raise ModelError("cannot fit with no observed events")
    n, d = dataset.features.shape
    rng = np.random.default_rng(config.seed)

    perm = rng.permutation(n)
    n_val = max(int(round(VAL_FRACTION * n)), 1) if n >= 20 else 0
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if dataset.events[train_idx].sum() == 0:
        raise ModelError("no events left in the training split")

    xt = dataset.features[train_idx]
    tt = dataset.times[train_idx]
    et = dataset.events[train_idx]
    xv = dataset.features[val_idx]
    tv = dataset.times[val_idx]
    ev = dataset.events[val_idx]
    if n_val == 0 or ev.sum() == 0:  # tiny datasets: monitor on train
        xv, tv, ev = xt, tt, et

    layer_dims = (d, *config.hidden_dims)
    params, heads = neural.init_params(layer_dims, config.n_clusters, config.seed)
    pooled = fit_spline(kaplan_meier(tt, et))
    model = DcmModel(params, heads,
                     baselines=[pooled] * config.n_clusters,
                     config=config,
                     standardization=dataset.standardization,
                     feature_names=dataset.feature_names)
    adam = neural.AdamState.create(params, heads, config.lr)
    table = baseline_table(model.baselines, tt, et)

    best = (np.inf, None, None)
    stale = 0
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(train_idx))
        batch_losses = []
        for lo in range(0, len(order), config.batch_size):
            rows = order[lo:lo + config.batch_size]
            if rows.size < 2 * config.n_clusters:
                continue
            xb, tb, eb = xt[rows], tt[rows], et[rows]
            rep, cache = neural.forward(model.params, xb)
            f, g = neural.heads_forward(model.heads, rep)
            gamma = e_step(model, xb, tb, eb, heads=(f, g),
                           table=(table[0][rows], table[1][rows]))
            zeta = sample_assignments(gamma, rng)
            batch_losses.append(m_step(model, adam, (rep, cache, f, g), tb, eb, gamma, zeta))

        starved, train_q, table = _refresh_phase(model, xt, tt, et, table, rng)
        val_q = expected_q_loss(model, xv, tv, ev)
        if not np.isfinite(val_q):
            raise ModelError(f"non-finite objective at epoch {epoch}")
        model.training_log.append({
            "epoch": epoch,
            "train_q": train_q,
            "val_q": val_q,
            "batch_loss": float(np.mean(batch_losses)) if batch_losses else None,
            "starved_clusters": starved,
        })

        if val_q < best[0] - 1e-12:
            best = (val_q, adam.theta.copy(), list(model.baselines))
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    if best[1] is not None:  # the parameters are views into adam.theta
        adam.theta[:], model.baselines = best[1:]
    return model
