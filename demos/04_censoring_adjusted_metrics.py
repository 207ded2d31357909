# Censoring-adjusted evaluation: time-dependent concordance, IPCW AUC and
# Brier score, calibration error, bootstrap standard errors, and the
# per-group report used for subgroup auditing.

import numpy as np

from coxmix.dataset import event_quantiles
from coxmix.estimators import censoring_km
from coxmix.metrics import (
    auc_ipcw, brier_ipcw, bootstrap_se, concordance_td, ece,
    evaluate_by_group,
)
from coxmix.synth import ClusterSpec, SynthConfig, generate_cohort, true_survival

config = SynthConfig(
    n=3000,
    clusters=(ClusterSpec(shape=1.0, scale=1.0, beta=(1.0, -0.5, 0.25)),),
    gating=((0.0, 0.0, 0.0),),
    censoring_fraction=0.3,
    seed=2,
    with_groups=True,  # label rows by the sign of the first covariate
)
ds, _ = generate_cohort(config)
horizon = event_quantiles(ds, [0.5])[0]
g = censoring_km(ds.times, ds.events)

# Evaluate the ground-truth predictor against a deliberately degraded one.
pi_true = np.atleast_1d(true_survival(config, ds.features, horizon))
rng = np.random.default_rng(0)
pi_noisy = np.clip(pi_true + rng.normal(0, 0.25, len(ds)), 0.001, 0.999)

print(f"metrics at the median event time (t = {horizon:.2f}):")
print("                   truth    degraded")
for name, fn in [
    ("C-td        ", lambda p: concordance_td(p, ds.times, ds.events, g, horizon)),
    ("IPCW AUC    ", lambda p: auc_ipcw(p, ds.times, ds.events, g, horizon)),
    ("ECE         ", lambda p: ece(p, ds.times, ds.events, horizon)),
    ("IPCW Brier  ", lambda p: brier_ipcw(p, ds.times, ds.events, g, horizon)),
]:
    print(f"  {name}  {fn(pi_true):7.4f}   {fn(pi_noisy):7.4f}")

# Bootstrap standard errors: the metric closure receives one resample as
# record counts (how many times each record was drawn) and recomputes
# everything downstream of them, the censoring curve included. Here it
# copies each record out as often as it was drawn.
def ctd_on(counts):
    idx = np.repeat(np.arange(len(ds)), counts)
    t, e, p = ds.times[idx], ds.events[idx], pi_true[idx]
    return concordance_td(p, t, e, censoring_km(t, e), horizon)

mean, se, used, _ = bootstrap_se(ctd_on, len(ds), n_replicates=100, seed=0)
print(f"\nbootstrap C-td: {mean:.4f} +- {se:.4f} ({used} replicates)")

# The grouped report recomputes every metric within each stratum, with its
# own censoring estimate, flagging subgroups where quality degrades.
pi_biased = pi_true.copy()
neg = ds.groups == "neg"
pi_biased[neg] = np.clip(pi_biased[neg] + 0.25, 0.001, 0.999)  # skew one group

rows = evaluate_by_group(pi_biased[:, None], ds.times, ds.events, [horizon],
                         groups=ds.groups, n_replicates=50, seed=0)
print("\nper-group report with predictions skewed for the 'neg' group:")
print("  metric         group        estimate     se")
for r in rows:
    print(f"  {r.metric:12s}  {r.group:10s}  {r.estimate:8.4f}  {r.se:7.4f}")
