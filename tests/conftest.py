import numpy as np
import pytest

from coxmix.estimators import StepSurvivalCurve
from coxmix.spline import fit_spline
from coxmix.synth import ClusterSpec, SynthConfig


# ---- independent oracles (kept free of the library code paths) ----------

def brute_force_km(times, events):
    """Product-limit estimate by direct risk-set enumeration.
    Returns (event_times, survival_values)."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    out_t, out_s = [], []
    s = 1.0
    for ut in np.unique(times):
        d = int(np.sum((times == ut) & (events == 1)))
        if d == 0:
            continue
        n_at_risk = int(np.sum(times >= ut))
        s *= 1.0 - d / n_at_risk
        out_t.append(float(ut))
        out_s.append(s)
    return np.asarray(out_t), np.asarray(out_s)


def brute_force_breslow(times, events, log_hazards):
    """Baseline cumulative hazard by direct risk-set enumeration.
    Returns (event_times, cumulative_hazard)."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    ef = np.exp(np.asarray(log_hazards, dtype=float))
    out_t, out_h = [], []
    h = 0.0
    for ut in np.unique(times):
        d = int(np.sum((times == ut) & (events == 1)))
        if d == 0:
            continue
        h += d / float(np.sum(ef[times >= ut]))
        out_t.append(float(ut))
        out_h.append(h)
    return np.asarray(out_t), np.asarray(out_h)


def naive_concordance(surv_probs, times, events, horizon):
    """Unweighted comparable-pair concordance (no censoring adjustment)."""
    num = den = 0.0
    n = len(times)
    for i in range(n):
        if events[i] != 1 or times[i] > horizon:
            continue
        for j in range(n):
            if times[j] <= times[i]:
                continue
            den += 1
            if surv_probs[i] < surv_probs[j]:
                num += 1
            elif surv_probs[i] == surv_probs[j]:
                num += 0.5
    return num / den


def naive_auc(surv_probs, times, events, horizon):
    """Unweighted case/control AUC with half credit for ties."""
    risk = 1.0 - np.asarray(surv_probs, dtype=float)
    cases = (np.asarray(events) == 1) & (np.asarray(times) <= horizon)
    controls = np.asarray(times) > horizon
    num = den = 0.0
    for ri in risk[cases]:
        for rj in risk[controls]:
            den += 1
            if ri > rj:
                num += 1
            elif ri == rj:
                num += 0.5
    return num / den


def brute_force_censoring_left(times, events):
    """Censoring Kaplan-Meier just before each record's own time, G(T_i-),
    from brute_force_km with the flipped indicator."""
    cut, surv = brute_force_km(times, 1 - np.asarray(events, dtype=int))
    out = []
    for t in np.asarray(times, dtype=float):
        before = surv[cut < t]
        out.append(before[-1] if before.size else 1.0)
    return np.asarray(out)


def ipcw_pair_concordance(surv_probs, times, events, horizon, weight_floor):
    """Uno's IPCW concordance by enumerating every (case, later record) pair:
    cases are events at or before the horizon with G(T-) above the floor,
    weighted 1 / G(T-)^2; ties in time are not comparable, ties in
    prediction count half. None when there is no comparable pair."""
    g = brute_force_censoring_left(times, events)
    num = den = 0.0
    for i in range(len(times)):
        if events[i] != 1 or times[i] > horizon or g[i] <= weight_floor:
            continue
        w = 1.0 / g[i] ** 2
        for j in range(len(times)):
            if times[j] <= times[i]:
                continue
            den += w
            if surv_probs[i] < surv_probs[j]:
                num += w
            elif surv_probs[i] == surv_probs[j]:
                num += 0.5 * w
    return num / den if den > 0 else None


def ipcw_pair_auc(surv_probs, times, events, horizon, weight_floor):
    """IPCW cumulative/dynamic AUC as a weighted Mann-Whitney count over
    every (case, control) pair: cases as in ipcw_pair_concordance, weighted
    1 / G(T-); controls are records with T > horizon; risk 1 - prediction,
    ties count half. None without a case or a control."""
    g = brute_force_censoring_left(times, events)
    risk = 1.0 - np.asarray(surv_probs, dtype=float)
    controls = [j for j in range(len(times)) if times[j] > horizon]
    num = total = 0.0
    for i in range(len(times)):
        if events[i] != 1 or times[i] > horizon or g[i] <= weight_floor:
            continue
        w = 1.0 / g[i]
        total += w
        for j in controls:
            if risk[i] > risk[j]:
                num += w
            elif risk[i] == risk[j]:
                num += 0.5 * w
    if total == 0 or not controls:
        return None
    return num / (total * len(controls))


def brute_force_partial_likelihood(log_hazards, times, events):
    """Cox partial log-likelihood with Breslow ties and its gradient wrt the
    log hazards, one loop per distinct event time: the d rows failing at
    tau share the denominator sum_{t_j >= tau} exp(f_j)."""
    f = np.asarray(log_hazards, dtype=float)
    value, grad = 0.0, np.asarray(events, dtype=float).copy()
    for tau in np.unique(times[events == 1]):
        failing = (times == tau) & (events == 1)
        at_risk = times >= tau
        denom = np.sum(np.exp(f[at_risk]))
        d = failing.sum()
        value += f[failing].sum() - d * np.log(denom)
        grad[at_risk] -= d * np.exp(f[at_risk]) / denom
    return value, grad


def unstratified_partial_likelihood(log_hazards, times, events):
    """The single-stratum partial likelihood as one sort, one max shift and
    one reverse cumulative sum, in the float operations the stratified
    library call must reproduce for each stratum. Returns (value, grad)."""
    f = np.asarray(log_hazards, dtype=float)
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    order = np.argsort(times, kind="stable")
    t, e, fo = times[order], events[order], f[order]
    fmax = fo.max()
    w = np.exp(fo - fmax)
    tail = np.cumsum(w[::-1])[::-1]
    start = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
    denom = tail[start]
    d = np.add.reduceat(e, start)
    ev = d > 0
    value = float(np.sum(fo[e == 1]) - np.sum(d[ev] * (np.log(denom[ev]) + fmax)))
    ratio_cum = np.cumsum(np.where(ev, d / denom, 0.0))
    pos = np.repeat(np.arange(start.size), np.diff(np.append(start, t.size)))
    grad = np.empty_like(f)
    grad[order] = e - w * ratio_cum[pos]
    return value, grad


def per_cluster_q_hat(times, events, gamma, zeta, log_hazards, gating_logits):
    """The hard-assignment objective with one unstratified likelihood per
    cluster over its assigned rows, skipping clusters with fewer than 2
    rows or no events, and the gating softmax taken on its own. Returns
    (loss, d_loss/d_log_hazards, d_loss/d_gating_logits)."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=int)
    f = np.asarray(log_hazards, dtype=float)
    z = gating_logits - gating_logits.max(axis=1, keepdims=True)
    total = float(np.sum(gamma * (z - np.log(np.exp(z).sum(axis=1, keepdims=True)))))
    softmax = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    d_f = np.zeros_like(f)
    for c in range(f.shape[1]):
        rows = np.flatnonzero(zeta == c)
        if rows.size < 2 or events[rows].sum() == 0:
            continue
        val, grad = unstratified_partial_likelihood(f[rows, c], times[rows], events[rows])
        total += val
        d_f[rows, c] = grad
    return -total, -d_f, -(gamma - softmax)


class PerArrayAdam:
    """Adam moments held per parameter array, updated array by array by
    ``per_array_adam_step``: the oracle for the flat-buffer update."""

    def __init__(self, arrays, lr):
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.step, self.lr = 0, lr


def per_array_adam_step(arrays, grads, state, beta1=0.9, beta2=0.999, eps=1e-8,
                        clip=10.0):
    """Adam with bias correction on each array in place, after clipping the
    global gradient norm (summed array by array) at ``clip``."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    scale = clip / total if total > clip else 1.0
    state.step += 1
    bc1 = 1.0 - beta1 ** state.step
    bc2 = 1.0 - beta2 ** state.step
    for a, g, m, v in zip(arrays, grads, state.m, state.v):
        g = g * scale
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        a -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def random_survival_instance(rng, n, tie_prob=0.3):
    """Times with deliberate ties, mixed censoring, random log hazards."""
    times = rng.integers(1, max(n // 2, 2), size=n).astype(float)
    if tie_prob == 0:
        times = times + rng.random(n)
    events = (rng.random(n) < 0.7).astype(int)
    f = rng.normal(0, 1, size=n)
    return times, events, f


def exp_spline(rate=1.0, t_max=6.0, step=0.1):
    """Spline fixture tracking exp(-rate * t)."""
    t = np.arange(step, t_max + step / 2, step)
    curve = StepSurvivalCurve(knot_times=t, cum_hazard=rate * t)
    return fit_spline(curve)


# ---- shared synthetic fixtures ------------------------------------------

PH_CONFIG = SynthConfig(
    n=2000,
    clusters=(ClusterSpec(shape=1.0, scale=1.0, beta=(1.0, -0.5, 0.25)),),
    gating=((0.0, 0.0, 0.0),),
    seed=3,
)

SEPARATED_CONFIG = SynthConfig(
    n=2000,
    clusters=(ClusterSpec(shape=6.0, scale=4.0, beta=(0.0, 0.3, 0.0)),
              ClusterSpec(shape=0.8, scale=0.8, beta=(0.0, 0.0, 0.3))),
    gating=((3.0, 0.0, 0.0), (-3.0, 0.0, 0.0)),
    seed=5,
)

CROSSING_CONFIG = SynthConfig(
    n=4000,
    clusters=(ClusterSpec(shape=0.7, scale=6.0, beta=(0.0, 0.8, 0.0)),
              ClusterSpec(shape=5.0, scale=5.0, beta=(0.0, 0.0, 0.8))),
    gating=((2.5, 0.0, 0.0), (-2.5, 0.0, 0.0)),
    censoring_fraction=0.3,
    seed=11,
)


@pytest.fixture(scope="session")
def ph_cohort():
    from coxmix.synth import generate_cohort
    return generate_cohort(PH_CONFIG)


@pytest.fixture(scope="session")
def crossing_cohort():
    from coxmix.synth import generate_cohort
    return generate_cohort(CROSSING_CONFIG)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criterion results, one line each, at the end of
    the run (stdout from passing tests is otherwise swallowed)."""
    try:
        from test_acceptance import RESULT_LINES
    except ImportError:
        return
    if RESULT_LINES:
        terminalreporter.section("acceptance criteria")
        for line in RESULT_LINES:
            terminalreporter.line(line)
