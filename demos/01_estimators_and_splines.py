# Nonparametric survival estimation walkthrough: Kaplan-Meier curves,
# the Breslow baseline for proportional hazards, and the degree-3 spline
# smoothing that turns the step estimate into a differentiable survival
# function with a density.

import numpy as np

from coxmix.estimators import breslow, censoring_km, kaplan_meier
from coxmix.spline import density_given_cluster, fit_spline, spline_value_and_slope

rng = np.random.default_rng(0)

# A small cohort: exponential event times with rate exp(0.8 * x), plus
# independent censoring.
n = 1500
x = rng.standard_normal(n)
event_times = rng.exponential(1.0, n) / np.exp(0.8 * x)
censor_times = rng.exponential(2.0, n)
times = np.minimum(event_times, censor_times)
events = (event_times <= censor_times).astype(int)
print(f"cohort: n={n}, censored fraction {1 - events.mean():.2f}")

# Kaplan-Meier estimate of S(t), and of the censoring distribution G(t)
# (same estimator with the indicator flipped).
km = kaplan_meier(times, events)
g = censoring_km(times, events)
grid = np.quantile(times, [0.1, 0.25, 0.5, 0.75, 0.9])
print("\n   t      KM S(t)   censoring G(t)")
for t in grid:
    print(f"  {t:5.2f}   {km(t):7.3f}   {g(t):7.3f}")

# Breslow baseline: with the true log hazards f = 0.8 x the estimated
# baseline survival should track exp(-t).
base = breslow(times, events, 0.8 * x)
print("\nBreslow baseline vs the true exp(-t) baseline:")
for t in (0.25, 0.5, 1.0, 1.5):
    print(f"  t={t:4.2f}  estimated {base(t):.3f}  true {np.exp(-t):.3f}")

# The step curve has no density. The spline interpolant does: evaluate the
# smoothed survival, its derivative, and the implied event density for an
# individual with log hazard ratio f.
spline = fit_spline(base)
f = 0.8 * 0.5  # an individual with x = 0.5
t_eval = np.array([0.3, 0.6, 1.2])
s0, ds0 = spline_value_and_slope(spline, t_eval)  # one interval lookup for both
print("\nspline-smoothed baseline and implied density at f =", round(f, 2))
print("   t    S0(t)    dS0/dt    density")
for t, s, ds, dens in zip(t_eval, s0, ds0, density_given_cluster(np.exp(f), s0, ds0)):
    print(f"  {t:4.2f}  {s:6.3f}  {ds:8.4f}  {dens:7.4f}")

# Sanity check: the density integrates to the event probability.
tt = np.linspace(1e-4, 6.0, 5000)
integral = np.trapezoid(density_given_cluster(np.exp(f), *spline_value_and_slope(spline, tt)), tt)
print(f"\nintegral of the density over [0, 6]: {integral:.3f} "
      f"(expected {1 - spline(6.0) ** np.exp(f):.3f})")
