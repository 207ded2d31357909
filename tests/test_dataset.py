import re

import numpy as np
import pytest

from coxmix.dataset import (
    DatasetError, SurvivalDataset, event_quantiles, k_fold_split, load_csv,
    standardize,
)
from conftest import per_row_load_csv


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def make_ds(n=10, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return SurvivalDataset(
        features=rng.normal(size=(n, d)),
        times=rng.exponential(1.0, size=n),
        events=(rng.random(n) < 0.7).astype(int),
        feature_names=tuple(f"x{i}" for i in range(d)),
    )


class TestLoadCsv:
    def test_basic_load(self, tmp_path):
        path = write_csv(tmp_path, "age,bp,time,event\n50,120,3.5,1\n61,140,2.0,0\n")
        ds = load_csv(path, "time", "event")
        assert ds.feature_names == ("age", "bp")
        np.testing.assert_allclose(ds.features, [[50, 120], [61, 140]])
        np.testing.assert_allclose(ds.times, [3.5, 2.0])
        np.testing.assert_array_equal(ds.events, [1, 0])
        assert ds.groups is None

    def test_group_column(self, tmp_path):
        path = write_csv(tmp_path, "x,time,event,sex\n1,2,1,f\n2,3,0,m\n")
        ds = load_csv(path, "time", "event", group_col="sex")
        assert ds.feature_names == ("x",)
        assert list(ds.groups) == ["f", "m"]

    def test_drop_columns(self, tmp_path):
        path = write_csv(tmp_path, "id,x,time,event\nA,1,2,1\nB,2,3,0\n")
        ds = load_csv(path, "time", "event", drop_columns=("id",))
        assert ds.feature_names == ("x",)

    def test_repeated_column_names_rejected(self, tmp_path):
        # both x features used to be read from the first x column
        path = write_csv(tmp_path, "x,x,time,event\n1,10,2,1\n2,20,3,0\n3,30,4,1\n")
        with pytest.raises(DatasetError, match="repeated column.*'x'"):
            load_csv(path, "time", "event")

    @pytest.mark.parametrize("columns", [
        ("event", "event"), ("time", "event", "time"), ("time", "event", "event")])
    def test_time_event_and_group_columns_differ(self, tmp_path, columns):
        # time read from the event column used to train on the event indicator
        path = write_csv(tmp_path, "x,time,event\n1,2,1\n2,3,0\n")
        with pytest.raises(DatasetError, match=re.escape(f"must differ, got {list(columns)}")):
            load_csv(path, *columns)

    def test_unknown_drop_column_rejected(self, tmp_path):
        path = write_csv(tmp_path, "id,x,time,event\nA,1,2,1\nB,2,3,0\n")
        with pytest.raises(DatasetError, match="'x9'"):
            load_csv(path, "time", "event", drop_columns=("id", "x9"))

    def test_missing_value_names_row(self, tmp_path):
        path = write_csv(tmp_path, "x,time,event\n1,2,1\n,3,0\n")
        with pytest.raises(DatasetError, match="row 3"):
            load_csv(path, "time", "event")

    def test_drop_missing(self, tmp_path):
        path = write_csv(tmp_path, "x,time,event\n1,2,1\n,3,0\n4,5,1\n")
        ds = load_csv(path, "time", "event", drop_missing=True)
        assert len(ds) == 2

    @pytest.mark.parametrize("text", ["x,time,event\n1,2,1\ninf,3,0\n",
                                      "x,time,event\n1,2,1\n2,nan,0\n",
                                      "x,time,event\n1,2,1\n2,3,nan\n"])
    def test_non_finite_value_names_row(self, tmp_path, text):
        path = write_csv(tmp_path, text)
        with pytest.raises(DatasetError, match="row 3"):
            load_csv(path, "time", "event")
        ds = load_csv(path, "time", "event", drop_missing=True)
        np.testing.assert_array_equal(ds.times, [2.0])

    def test_bad_event_value(self, tmp_path):
        path = write_csv(tmp_path, "x,time,event\n1,2,2\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(path, "time", "event")

    def test_negative_time(self, tmp_path):
        path = write_csv(tmp_path, "x,time,event\n1,-2,1\n")
        with pytest.raises(DatasetError, match="negative time"):
            load_csv(path, "time", "event")

    def test_missing_required_column(self, tmp_path):
        path = write_csv(tmp_path, "x,time\n1,2\n")
        with pytest.raises(DatasetError, match="event"):
            load_csv(path, "time", "event")

    def test_ragged_row(self, tmp_path):
        path = write_csv(tmp_path, "x,time,event\n1,2\n")
        with pytest.raises(DatasetError, match="row 2"):
            load_csv(path, "time", "event")

    @pytest.mark.parametrize("header", ["x,time,event", "time,x,event"])
    def test_byte_order_mark_is_not_a_name(self, tmp_path, header):
        # a spreadsheet's "CSV UTF-8" export starts with U+FEFF
        path = write_csv(tmp_path, "\ufeff" + header + "\r\n1,2,1\r\n3,4,0\r\n")
        ds = load_csv(path, "time", "event")
        assert ds.feature_names == ("x",)
        np.testing.assert_array_equal(ds.features[:, 0], [1, 3] if header[0] == "x" else [2, 4])

    def test_not_utf8_names_the_file(self, tmp_path):
        # a Latin-1 export; the codec's bare message named neither file nor fix
        path = tmp_path / "latin.csv"
        path.write_bytes("x,time,event\n1,2,1\n\xe9,3,0\n".encode("latin-1"))
        with pytest.raises(DatasetError, match=r"latin\.csv: the file is not UTF-8 text"):
            load_csv(str(path), "time", "event")
        # in a later chunk, after rows that parse
        path.write_bytes(("x,time,event\n" + "1,2,1\n" * 3000 + "\xe9,3,0\n").encode("latin-1"))
        with pytest.raises(DatasetError, match="not UTF-8"):
            load_csv(str(path), "time", "event")

    @pytest.mark.parametrize("drop_missing", [False, True])
    @pytest.mark.parametrize("bad", [(), (1024,), (1025,), (1024, 1025), (2048, 3),
                                     (1023, 1026)])
    def test_bad_rows_at_chunk_boundaries(self, tmp_path, drop_missing, bad):
        """At the default CHUNK_ROWS, bad rows just before and after a chunk
        boundary (records 1024 and 1025 are file rows 1025 and 1026) give the
        per-row loader's result or error."""
        rng = np.random.default_rng(0)
        cells = {1023: "nan,1,0", 1024: "1,-3,1", 1025: ",1,1", 1026: "2,1,0.5",
                 2048: "1,2,1,9", 3: "inf,2,0"}
        lines = ["x,time,event"] + [
            cells[i] if i in bad else f"{rng.normal()},{rng.exponential()},{i % 2}"
            for i in range(1, 2101)]
        path = write_csv(tmp_path, "\n".join(lines) + "\n")
        outcomes = []
        for fn in (load_csv, per_row_load_csv):
            try:
                ds = fn(path, "time", "event", drop_missing=drop_missing)
            except DatasetError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append((ds.features.tobytes(), ds.features.strides,
                                 ds.times.tobytes(), ds.events.tobytes()))
        assert outcomes[0] == outcomes[1]


class TestStandardize:
    def test_two_point_column(self):
        ds = SurvivalDataset(
            features=np.array([[1.0], [3.0]]), times=np.array([1.0, 2.0]),
            events=np.array([1, 1]), feature_names=("x",))
        out = standardize(ds)
        mean, std = out.standardization
        # sample (N-1) standard deviation of [1, 3] is sqrt(2)
        np.testing.assert_allclose(mean, [2.0])
        np.testing.assert_allclose(std, [np.sqrt(2.0)])
        np.testing.assert_allclose(out.features[:, 0], [-1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_zero_mean_unit_sd(self):
        ds = make_ds(n=200, d=3, seed=1)
        out = standardize(ds)
        np.testing.assert_allclose(out.features.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(out.features.std(axis=0, ddof=1), 1, atol=1e-12)

    def test_constant_column(self):
        ds = SurvivalDataset(
            features=np.array([[5.0], [5.0], [5.0]]), times=np.ones(3),
            events=np.ones(3, dtype=int), feature_names=("x",))
        out = standardize(ds)
        np.testing.assert_allclose(out.features, 0.0)
        np.testing.assert_allclose(out.standardization[1], [1.0])

    def test_constant_relative_to_the_column_scale(self):
        # spreads of 1e-14 and 1e-9 are not constant beside values of that
        # size; 1e-9 beside 1e6 is
        x = np.array([[1e-14, 1e6, 7.0], [3e-14, 1e6 + 1e-9, 7.0], [2e-14, 1e6, 7.0]])
        ds = SurvivalDataset(features=x, times=np.ones(3), events=np.ones(3, dtype=int),
                             feature_names=("a", "b", "c"))
        std = standardize(ds).standardization[1]
        assert std[0] == x[:, 0].std(ddof=1) and std[1:].tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("scale", [1e160, 1e-300])
    def test_unrepresentable_spread_names_the_column(self, scale):
        ds = make_ds(n=20, d=3, seed=2)
        ds = SurvivalDataset(features=ds.features * [1.0, scale, 1.0], times=ds.times,
                             events=ds.events, feature_names=("a", "b", "c"))
        with pytest.raises(DatasetError, match="^feature 'b': "):
            standardize(ds)


class TestEventQuantiles:
    def test_nearest_rank(self):
        ds = SurvivalDataset(
            features=np.zeros((100, 1)),
            times=np.arange(1.0, 101.0),
            events=np.ones(100, dtype=int),
            feature_names=("x",))
        assert event_quantiles(ds, [0.5]) == [50.0]
        assert event_quantiles(ds, [0.25, 0.75]) == [25.0, 75.0]

    def test_ignores_censored(self):
        ds = SurvivalDataset(
            features=np.zeros((4, 1)),
            times=np.array([1.0, 2.0, 100.0, 200.0]),
            events=np.array([1, 1, 0, 0]),
            feature_names=("x",))
        assert event_quantiles(ds, [0.9]) == [2.0]

    def test_no_events_raises(self):
        ds = SurvivalDataset(
            features=np.zeros((2, 1)), times=np.ones(2),
            events=np.zeros(2, dtype=int), feature_names=("x",))
        with pytest.raises(DatasetError):
            event_quantiles(ds, [0.5])


class TestKFold:
    def test_partition_and_balance(self):
        ds = make_ds(n=103)
        fold_of = k_fold_split(ds, 5, seed=7)
        assert fold_of.shape == (103,) and set(fold_of.tolist()) == set(range(5))
        sizes = np.bincount(fold_of)
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        ds = make_ds(n=40)
        a = k_fold_split(ds, 4, seed=1)
        b = k_fold_split(ds, 4, seed=1)
        np.testing.assert_array_equal(a, b)
        c = k_fold_split(ds, 4, seed=2)
        assert np.any(a != c)

    def test_k_bounds(self):
        ds = make_ds(n=5)
        with pytest.raises(DatasetError):
            k_fold_split(ds, 1, seed=0)
        with pytest.raises(DatasetError):
            k_fold_split(ds, 6, seed=0)


class TestSurvivalDataset:
    def test_subset(self):
        ds = make_ds(n=10)
        sub = ds.subset([2, 5, 7])
        assert len(sub) == 3
        np.testing.assert_allclose(sub.times, ds.times[[2, 5, 7]])

    def test_validation(self):
        with pytest.raises(DatasetError):
            SurvivalDataset(features=np.zeros((2, 1)), times=np.array([1.0, -1.0]),
                            events=np.array([1, 0]), feature_names=("x",))
        with pytest.raises(DatasetError):
            SurvivalDataset(features=np.zeros((2, 1)), times=np.ones(2),
                            events=np.array([1, 2]), feature_names=("x",))
        # non-finite values used to train and predict without an error
        for t in (np.nan, np.inf):
            with pytest.raises(DatasetError, match="times must be finite"):
                SurvivalDataset(features=np.zeros((2, 1)), times=np.array([1.0, t]),
                                events=np.array([1, 0]), feature_names=("x",))
        with pytest.raises(DatasetError, match="features must be finite"):
            SurvivalDataset(features=np.array([[0.0], [np.nan]]), times=np.ones(2),
                            events=np.array([1, 0]), feature_names=("x",))


def _dataset(features, times, names):
    return SurvivalDataset(features=features, times=times,
                           events=np.ones(len(times), dtype=int), feature_names=names)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda p: _dataset(np.zeros(3), np.ones(3), ("x",)),
                 "features must be a 2-d array", id="1d_features"),
    pytest.param(lambda p: _dataset(np.zeros((3, 1)), np.ones(2), ("x",)),
                 "times/events length must match feature rows", id="short_times"),
    pytest.param(lambda p: _dataset(np.zeros((1, 1)), np.ones(1), ("x", "y")),
                 "feature_names length must equal feature count", id="extra_name"),
    pytest.param(lambda p: load_csv(write_csv(p, ""), "time", "event"),
                 "empty file", id="empty_file"),
    pytest.param(lambda p: load_csv(write_csv(p, "x,time,event\n0,1,1\n"), "time", "event",
                                    group_col="g"),
                 "missing group column 'g'", id="missing_group"),
    pytest.param(lambda p: standardize(make_ds(n=0)),
                 "cannot standardize an empty dataset", id="standardize_empty"),
])
def test_named_errors(tmp_path, call, message):
    with pytest.raises(DatasetError, match=re.escape(message)):
        call(tmp_path)
