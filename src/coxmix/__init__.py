"""Mixtures of Cox proportional-hazards models with neural hazard and gating
heads, nonparametric baseline estimation, spline-smoothed survival curves,
and censoring-adjusted evaluation metrics."""

import os

# one OpenBLAS thread, unless the user set a count: its sums, and so the
# output bytes, depend on the thread count. It must be set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from coxmix.dataset import SurvivalDataset, load_csv, standardize, event_quantiles, k_fold_split
from coxmix.estimators import StepSurvivalCurve, kaplan_meier, censoring_km, breslow
from coxmix.spline import SplineSurvivalCurve, fit_spline
from coxmix.model import DcmConfig, DcmModel, fit
from coxmix.metrics import concordance_td, auc_ipcw, ece, brier_ipcw, bootstrap_se, evaluate_by_group
from coxmix.synth import SynthConfig, generate_cohort

__all__ = [
    "SurvivalDataset", "load_csv", "standardize", "event_quantiles", "k_fold_split",
    "StepSurvivalCurve", "kaplan_meier", "censoring_km", "breslow",
    "SplineSurvivalCurve", "fit_spline",
    "DcmConfig", "DcmModel", "fit",
    "concordance_td", "auc_ipcw", "ece", "brier_ipcw", "bootstrap_se", "evaluate_by_group",
    "SynthConfig", "generate_cohort",
]

__version__ = "0.1.0"
