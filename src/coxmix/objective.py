"""Training objective for the Cox mixture: per-cluster Cox partial
log-likelihood over the hard-assigned rows plus a soft-count cross-entropy
on the gating logits. All quantities are exposed as losses to minimize
(negated log-likelihoods) together with exact gradients.
"""

from __future__ import annotations

import numpy as np

from coxmix.neural import over_clusters


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
    if not np.isfinite(f).all():
        raise ObjectiveError("non-finite log hazards")
    if events.sum() == 0:
        return 0.0, np.zeros_like(f)
    strata = np.zeros(f.size, dtype=int) if strata is None else np.asarray(strata, dtype=int)

    order = times.argsort(kind="stable")
    t, e, fo, so = times[order], events[order], f[order], strata[order]
    member = so[:, None] == np.arange(so.max() + 1)  # (N, K) stratum indicator
    fmax = np.where(member, fo[:, None], -np.inf).max(axis=0)
    w = np.exp(fo - fmax[so])
    # risk-set sums over {j in stratum k : t_j >= t_i}, shared within a tie group
    tail = np.where(member, w[:, None], 0.0)[::-1].cumsum(axis=0)[::-1]
    first = np.concatenate(([True], t[1:] != t[:-1]))  # rows that start a tie group
    start = first.nonzero()[0]
    denom = tail[start]  # (groups, K), stratum k scaled by exp(-fmax_k)
    d = np.add.reduceat(member * e[:, None], start)  # events per distinct time and stratum

    ev = d > 0
    value = float(fo[e == 1].sum()
                  - (d[ev] * (np.log(denom[ev]) + fmax[ev.nonzero()[1]])).sum())

    # gradient: delta_i - exp(f_i) * sum_{event times <= t_i} d / riskset_sum
    ratio_cum = np.divide(d, denom, out=np.zeros(denom.shape), where=ev).cumsum(axis=0)
    grad = np.empty_like(f)
    grad[order] = e - w * ratio_cum[first.cumsum() - 1, so]  # row's tie group, stratum
    return value, grad


def q_hat(times, events, gamma, zeta, log_hazards, gate):
    """Hard-assignment objective: the soft-count log-likelihood of the gate,
    ``neural.log_softmax`` of the gating logits, over all rows plus, per
    cluster, the partial log-likelihood restricted to rows assigned to it
    (column k of log_hazards), all clusters in one stratified call.
    Clusters with fewer than 2 members or no events contribute exact zeros
    (the partial likelihood is undefined on an empty risk set).

    Returned negated, as (loss, d_loss/d_log_hazards, d_loss/d_gating_logits).
    """
    gamma = np.asarray(gamma, dtype=float)
    if (np.abs(over_clusters(np.add, gamma) - 1.0) > 1e-6).any():
        raise ObjectiveError("gamma rows must lie on the simplex")
    zeta = np.asarray(zeta, dtype=int)
    f = np.asarray(log_hazards, dtype=float)
    rows = np.arange(f.shape[0])

    val, grad = partial_log_likelihood(f[rows, zeta], times, events, strata=zeta)
    d_f = np.zeros_like(f)
    d_f[rows, zeta] = grad
    return -(float((gamma * gate[0]).sum()) + val), -d_f, -(gamma - gate[1])
