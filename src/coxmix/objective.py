"""Training objective for the Cox mixture: per-cluster Cox partial
log-likelihood over the hard-assigned rows plus a soft-count cross-entropy
on the gating logits. All quantities are exposed as losses to minimize
(negated log-likelihoods) together with exact gradients.
"""

from __future__ import annotations

import numpy as np


class ObjectiveError(ValueError):
    pass


def partial_log_likelihood(log_hazards, times, events, strata=None):
    """Cox partial log-likelihood with Breslow tie handling, stratified by
    the non-negative integer labels ``strata`` (one stratum when None).

    Returns (value, gradient wrt log_hazards). The risk set at an event
    time holds everyone in its stratum with time >= it; tied events share
    one denominator. One sort serves all strata (Kalbfleisch & Prentice
    1980): each stratum's risk sums are a reverse cumulative sum down its
    column of an (N, K) array that is zero off the stratum's rows, shifted
    by the stratum's max so |f| up to ~50 stays finite. The zeros are
    exact, so a stratum gets the bits it gets alone. Zero events gives
    (0, zeros).
    """
    f = np.asarray(log_hazards, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    if not np.all(np.isfinite(f)):
        raise ObjectiveError("non-finite log hazards")
    if events.sum() == 0:
        return 0.0, np.zeros_like(f)
    strata = np.zeros(f.size, dtype=int) if strata is None else np.asarray(strata, dtype=int)

    order = np.argsort(times, kind="stable")
    t, e, fo, so = times[order], events[order], f[order], strata[order]
    member = so[:, None] == np.arange(so.max() + 1)  # (N, K) stratum indicator
    fmax = np.where(member, fo[:, None], -np.inf).max(axis=0)
    w = np.exp(fo - fmax[so])
    # risk-set sums over {j in stratum k : t_j >= t_i}, shared within a tie group
    tail = np.cumsum(np.where(member, w[:, None], 0.0)[::-1], axis=0)[::-1]
    first = np.concatenate(([True], t[1:] != t[:-1]))  # rows that start a tie group
    start = np.flatnonzero(first)
    denom = tail[start]  # (groups, K), stratum k scaled by exp(-fmax_k)
    d = np.add.reduceat(member * e[:, None], start)  # events per distinct time and stratum

    ev = d > 0
    value = float(np.sum(fo[e == 1])
                  - np.sum(d[ev] * (np.log(denom[ev]) + fmax[np.nonzero(ev)[1]])))

    # gradient: delta_i - exp(f_i) * sum_{event times <= t_i} d / riskset_sum
    ratio_cum = np.cumsum(np.divide(d, denom, out=np.zeros(denom.shape), where=ev), axis=0)
    grad = np.empty_like(f)
    grad[order] = e - w * ratio_cum[np.cumsum(first) - 1, so]  # row's tie group, stratum
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
    ez = np.exp(z)
    total = ez.sum(axis=1, keepdims=True)
    value = float(np.sum(gamma * (z - np.log(total))))
    return value, gamma - ez / total


def q_hat(times, events, gamma, zeta, log_hazards, gating_logits):
    """Hard-assignment objective: gating cross-entropy over all rows plus,
    per cluster, the partial log-likelihood restricted to rows assigned to
    it (column k of log_hazards), all clusters in one stratified call.
    Clusters with fewer than 2 members or no events contribute exact
    zeros (the partial likelihood is undefined on an empty risk set).

    Returned negated, as (loss, d_loss/d_log_hazards, d_loss/d_gating_logits).
    """
    zeta = np.asarray(zeta, dtype=int)
    f = np.asarray(log_hazards, dtype=float)
    rows = np.arange(f.shape[0])

    gate_val, gate_grad = gating_cross_entropy(gamma, gating_logits)
    val, grad = partial_log_likelihood(f[rows, zeta], times, events, strata=zeta)
    d_f = np.zeros_like(f)
    d_f[rows, zeta] = grad
    return -(gate_val + val), -d_f, -gate_grad
