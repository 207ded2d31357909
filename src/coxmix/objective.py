"""Training objective for the Cox mixture: per-cluster Cox partial
log-likelihood over the hard-assigned rows plus a soft-count cross-entropy
on the gating logits. All quantities are exposed as losses to minimize
(negated log-likelihoods) together with exact gradients.
"""

from __future__ import annotations

import numpy as np

from coxmix.neural import softmax


class ObjectiveError(ValueError):
    pass


def partial_log_likelihood(log_hazards, times, events):
    """Cox partial log-likelihood with Breslow tie handling.

    Returns (value, gradient wrt log_hazards). The risk set at an event
    time holds everyone with time >= it; tied events share one
    denominator. Computed with a max-shifted cumulative sum so |f| up to
    ~50 stays finite. Zero events gives (0, zeros).
    """
    f = np.asarray(log_hazards, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    if not np.all(np.isfinite(f)):
        raise ObjectiveError("non-finite log hazards")
    if events.sum() == 0:
        return 0.0, np.zeros_like(f)

    order = np.argsort(times, kind="stable")
    t, e, fo = times[order], events[order], f[order]
    fmax = fo.max()
    w = np.exp(fo - fmax)
    # risk-set sums over {j : t_j >= t_i}, shared within a tie group
    tail = np.cumsum(w[::-1])[::-1]
    start = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))  # tie-group starts
    denom = tail[start]  # scaled by exp(-fmax)

    counts = np.diff(np.append(start, t.size))
    d = np.add.reduceat(e, start)  # events per distinct time

    ev = d > 0
    value = float(np.sum(fo[e == 1]) - np.sum(d[ev] * (np.log(denom[ev]) + fmax)))

    # gradient: delta_i - exp(f_i) * sum_{event times <= t_i} d / riskset_sum
    ratio_cum = np.cumsum(np.where(ev, d / denom, 0.0))
    pos = np.repeat(np.arange(start.size), counts)  # tie-group index per sorted row
    grad_sorted = e - w * ratio_cum[pos]
    grad = np.empty_like(f)
    grad[order] = grad_sorted
    return value, grad


def gating_cross_entropy(gamma, gating_logits):
    """Soft-count log-likelihood of the gating head:
    sum_i sum_k gamma_ik * log softmax_k(logits_i) (to be maximized).

    Returns (value, gradient wrt logits = gamma - softmax).
    """
    gamma = np.asarray(gamma, dtype=float)
    logits = np.asarray(gating_logits, dtype=float)
    if np.any(np.abs(gamma.sum(axis=1) - 1.0) > 1e-6):
        raise ObjectiveError("gamma rows must lie on the simplex")
    z = logits - logits.max(axis=1, keepdims=True)
    log_sm = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    value = float(np.sum(gamma * log_sm))
    grad = gamma - softmax(logits)
    return value, grad


def q_hat(times, events, gamma, zeta, log_hazards, gating_logits):
    """Hard-assignment objective: gating cross-entropy over all rows plus,
    per cluster, the partial log-likelihood restricted to rows assigned to
    it (column k of log_hazards). Clusters with fewer than 2 members or no
    events contribute nothing (the partial likelihood is undefined on an
    empty risk set).

    Returned negated, as (loss, d_loss/d_log_hazards, d_loss/d_gating_logits).
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    zeta = np.asarray(zeta, dtype=int)
    f = np.asarray(log_hazards, dtype=float)
    n, k = f.shape

    gate_val, gate_grad = gating_cross_entropy(gamma, gating_logits)
    total = gate_val
    d_f = np.zeros_like(f)
    for c in range(k):
        rows = np.flatnonzero(zeta == c)
        if rows.size < 2 or events[rows].sum() == 0:
            continue
        val, grad = partial_log_likelihood(f[rows, c], times[rows], events[rows])
        total += val
        d_f[rows, c] = grad
    return -total, -d_f, -gate_grad
