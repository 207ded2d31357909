"""Loading, standardization, splitting and summary of right-censored
survival datasets.

A dataset holds a feature matrix, an observed time per row (event or
censoring time), a binary event indicator, and an optional group label
used for subgroup evaluation.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import os
from dataclasses import dataclass, replace

import numpy as np


class DatasetError(ValueError):
    """Raised for malformed input files or contract violations."""


@dataclass(frozen=True)
class SurvivalDataset:
    """Immutable collection of right-censored observations.

    features: (N, d) finite float array, one row per individual
    times: (N,) finite, nonnegative observed times
    events: (N,) values in {0, 1}; 1 = event observed, 0 = censored
    groups: optional (N,) array of string labels
    standardization: optional (mean, std) pair of (d,) arrays recorded by
        ``standardize`` so the same transform can be applied to held-out data
    """

    features: np.ndarray
    times: np.ndarray
    events: np.ndarray
    feature_names: tuple[str, ...]
    groups: np.ndarray | None = None
    standardization: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.features.ndim != 2:
            raise DatasetError("features must be a 2-d array")
        n = self.features.shape[0]
        if len(self.times) != n or len(self.events) != n:
            raise DatasetError("times/events length must match feature rows")
        if not np.all(np.isfinite(self.times) & (self.times >= 0)):
            raise DatasetError("times must be finite and nonnegative")
        if not np.all(np.isfinite(self.features)):
            raise DatasetError("features must be finite")
        if not np.all(np.isin(self.events, (0, 1))):
            raise DatasetError("events must be 0 or 1")
        if len(self.feature_names) != self.features.shape[1]:
            raise DatasetError("feature_names length must equal feature count")

    def __len__(self):
        return self.features.shape[0]

    def subset(self, idx) -> "SurvivalDataset":
        idx = np.asarray(idx)
        return replace(self, features=self.features[idx], times=self.times[idx],
                       events=self.events[idx],
                       groups=None if self.groups is None else self.groups[idx])


CHUNK_ROWS = 1024  # records load_csv converts per numpy call


def _floats(cells):
    """The cells as a float array, each parsed by float(), NaN where it fails."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:  # halve until each rejected cell stands alone
        h = len(cells) // 2
        return np.concatenate([_floats(cells[:h]), _floats(cells[h:])]) if h else np.full(1, np.nan)


def load_csv(path, time_col, event_col, group_col=None, drop_missing=False,
             drop_columns=()):
    """Load a survival dataset from a comma-separated file with a header row.

    All columns other than the time, event, group and drop_columns columns
    are treated as numeric features. Column names must be unique, the time,
    event and group columns distinct, and every drop_columns name must be in
    the header. A row whose time, event or a feature is missing, non-numeric
    or non-finite raises a DatasetError naming the row unless drop_missing
    is set, in which case it is dropped.
    """
    named = [c for c in (time_col, event_col, group_col) if c is not None]
    if len(set(named)) < len(named):
        raise DatasetError(f"the time, event and group columns must differ, got {named}")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # -sig: a BOM is not part of a name
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DatasetError(f"{path}: empty file")
            repeated = sorted({c for c in header if header.count(c) > 1})
            if repeated:
                raise DatasetError(f"{path}: repeated column name(s) {repeated}")
            unknown = [c for c in drop_columns if c not in header]
            if unknown:
                raise DatasetError(f"{path}: drop_columns not in the header: {unknown}")
            for col in (time_col, event_col):
                if col not in header:
                    raise DatasetError(f"{path}: missing required column {col!r}")
            if group_col is not None and group_col not in header:
                raise DatasetError(f"{path}: missing group column {group_col!r}")

            skip = {time_col, event_col, group_col, *drop_columns}
            feature_names = [c for c in header if c not in skip]
            numeric = [header.index(c) for c in (time_col, event_col, *feature_names)]
            group = None if group_col is None else header.index(group_col)

            # per chunk: the kept rows' [time, event, *features] and group labels
            values, groups = [np.empty((0, len(numeric)))], [np.empty(0, dtype=object)]
            rownum = 2  # file row of the chunk's first record; the header is row 1
            while chunk := list(itertools.islice(reader, CHUNK_ROWS)):
                wrong = np.fromiter(map(len, chunk), int, len(chunk)) != len(header)
                ragged = wrong.argmax() if wrong.any() else len(chunk)  # zip(*) needs equal rows
                cols = list(zip(*chunk[:ragged])) or [()] * len(header)
                v = np.stack([_floats(cols[i]) for i in numeric], axis=1)
                finite = np.isfinite(v).all(axis=1)
                clean = finite & ((v[:, 1] == 0) | (v[:, 1] == 1)) & (v[:, 0] >= 0)
                bad = np.flatnonzero(~clean & (finite | (not drop_missing)))
                i = bad[0] if bad.size else ragged  # the first offending row
                if i < len(chunk):  # its first broken rule, in the order they are checked
                    row, where = chunk[i], f"{path}: row {rownum + i}"
                    if i == ragged:
                        raise DatasetError(f"{where} has {len(row)} fields, expected {len(header)}")
                    if not finite[i]:  # an unparsable cell counts as a non-finite one
                        raise DatasetError(f"{where} has a missing, non-numeric or non-finite value")
                    if v[i, 1] not in (0, 1):
                        raise DatasetError(f"{where} event value {row[numeric[1]]!r} not in {{0,1}}")
                    raise DatasetError(f"{where} has negative time")
                values.append(v[finite])
                if group is not None:
                    groups.append(np.array(cols[group], dtype=object)[finite])
                rownum += len(chunk)
    except UnicodeDecodeError:  # anywhere in the file: the header or any chunk
        raise DatasetError(f"{path}: the file is not UTF-8 text") from None

    values = np.concatenate(values)  # one C-order table: standardize's sums depend on it
    if not len(values):
        raise DatasetError(f"{path}: no usable rows")
    return SurvivalDataset(
        features=values[:, 2:],
        times=values[:, 0],
        events=values[:, 1].astype(int),
        feature_names=tuple(feature_names),
        groups=None if group is None else np.concatenate(groups),
    )


def standardize(ds):
    """Transform each feature column to zero mean, unit standard deviation.

    Standard deviation uses the N-1 divisor. Both are taken of each column
    divided by a power of two at or below its largest |value|, then
    multiplied back: the scaling is exact, so ordinary columns keep their
    bits and no finite column's sums overflow. A column is constant when its
    standard deviation is at most 1e-12 times its largest |value|, in any
    unit; it is shifted to zero and divided by 1. A column whose standard
    deviation exceeds the float range, or underflows to 0 while its values
    differ, raises a DatasetError naming it. Returns the standardized
    dataset, with the (mean, std) used recorded as its ``standardization``;
    a model applies them to held-out data in ``DcmModel.predict_dataset``.
    """
    if len(ds) == 0:
        raise DatasetError("cannot standardize an empty dataset")
    x = ds.features
    amax = np.abs(x).max(axis=0)
    scale = np.ldexp(1.0, np.frexp(amax)[1] - 1)
    u = x / scale
    with np.errstate(over="ignore"):  # a std beyond the float range is refused below
        mean = u.mean(axis=0) * scale
        std = u.std(axis=0, ddof=1) * scale if len(ds) > 1 else np.zeros(x.shape[1])
    bad = ~np.isfinite(std) | ((std == 0) & (x.min(axis=0) < x.max(axis=0)))
    if bad.any():
        raise DatasetError(f"feature {ds.feature_names[bad.argmax()]!r}: its standard deviation "
                           "is not a finite positive float at this scale; rescale the column")
    std = np.where(std <= 1e-12 * amax, 1.0, std)
    return replace(ds, features=(x - mean) / std, standardization=(mean, std))


def event_quantiles(ds, probs):
    """Empirical quantiles of the uncensored event times.

    Uses the lower nearest-rank rule (no interpolation): the quantile at p
    is the smallest event time whose empirical CDF reaches p. Censored rows
    never affect the result.
    """
    ev = np.sort(ds.times[ds.events == 1])
    if ev.size == 0:
        raise DatasetError("event_quantiles requires at least one uncensored record")
    out = []
    for p in probs:
        if not 0 < p < 1:
            raise DatasetError(f"quantile prob {p} outside (0,1)")
        rank = max(int(np.ceil(p * ev.size)) - 1, 0)
        out.append(float(ev[rank]))
    return out


def k_fold_split(ds, k, seed):
    """Deterministic balanced k-fold partition: the (n,) int array of each
    record's fold in 0..k-1; fold sizes differ by at most one."""
    n = len(ds)
    if k < 2:
        raise DatasetError("k must be >= 2")
    if k > n:
        raise DatasetError(f"k={k} exceeds dataset size {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    fold_of = np.empty(n, dtype=int)
    fold_of[perm] = np.arange(n) % k  # cycle 0..k-1 over the permuted order
    return fold_of


@contextlib.contextmanager
def atomic_write(path, newline=None):
    """Open a UTF-8 text file that appears at ``path`` only once the block
    completes: it is written next to ``path`` and moved there with
    ``os.replace``. If the block raises, the temp file is removed and
    ``path`` is left as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
