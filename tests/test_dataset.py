"""CSV ingestion, status filtering, feature engineering, split, scale."""

import itertools
import logging
import math
from datetime import date
from pathlib import Path

import numpy as np
import pytest

import helpers
from qkml import dataset, synth
from qkml.dataset import (
    Dataset,
    FeatureConfig,
    RawTable,
    apply_scaler,
    default_feature_config,
    engineer_features,
    filter_status,
    fit_scaler,
    load_csv,
    load_dataset,
    save_dataset,
    select_features,
    take_features,
    train_test_split,
)


def _write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


# -- CSV parsing -------------------------------------------------------------


def test_load_csv_two_lines(tmp_path):
    table = load_csv(_write(tmp_path, "a,b\n1,2\n"))
    assert table.header == ("a", "b")
    assert table.rows == (("1", "2"),)


def test_load_csv_quoted_field(tmp_path):
    table = load_csv(_write(tmp_path, 'a,b\nx,"p,q"\n'))
    assert table.rows == (("x", "p,q"),)


def test_load_csv_embedded_newline(tmp_path):
    table = load_csv(_write(tmp_path, 'a,b\n"line1\nline2",y\n'))
    assert table.rows[0][0] == "line1\nline2"


def test_load_csv_ragged_row_names_row(tmp_path):
    with pytest.raises(ValueError, match="row 2 has 3 cells"):
        load_csv(_write(tmp_path, "a,b\n1,2\n1,2,3\n"))


def test_load_csv_empty_file(tmp_path):
    with pytest.raises(ValueError, match="empty CSV"):
        load_csv(_write(tmp_path, ""))


def test_load_csv_errors_name_the_first_ragged_row_and_the_empty_file(tmp_path):
    # The messages are pinned byte for byte, row number included.
    text = "a,b\n1,2\n1\n1,2\n1,2,3\n"
    p = _write(tmp_path, text)
    with pytest.raises(ValueError) as err:
        load_csv(p)
    assert str(err.value) == f"{p}: data row 2 has 1 cells, header has 2"
    # A quoted newline keeps a record on one data row.
    p = _write(tmp_path, 'a,b\n"x\ny",2\n1,2,3\n', name="q.csv")
    with pytest.raises(ValueError) as err:
        load_csv(p)
    assert str(err.value) == f"{p}: data row 2 has 3 cells, header has 2"
    p = _write(tmp_path, "", name="empty.csv")
    with pytest.raises(ValueError) as err:
        load_csv(p)
    assert str(err.value) == f"{p}: empty CSV, no header row"


def test_load_csv_header_only_has_no_rows(tmp_path):
    table = load_csv(_write(tmp_path, "a,b\n"))
    assert table.header == ("a", "b") and table.rows == ()


def test_load_csv_strips_bom_and_header_space(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbfa, b \n1,2\n")
    table = load_csv(p)
    assert table.header == ("a", "b")


# -- status filter -----------------------------------------------------------


def _status_table(statuses):
    return RawTable(
        header=("name", "status"),
        rows=tuple((f"co{i}", s) for i, s in enumerate(statuses)),
    )


def test_filter_status_keeps_outcome_rows():
    table = _status_table(("operating", "closed", "acquired", "closed", "operating"))
    kept, summary = filter_status(table)
    assert len(kept.rows) == 3
    assert summary["kept"] == 3
    assert summary["total"] == 5
    assert summary["by_status"] == {"operating": 2, "closed": 2, "acquired": 1}


def test_filter_status_keeps_ipo_case_insensitive():
    kept, _ = filter_status(_status_table(("IPO", "Acquired", "CLOSED")))
    assert len(kept.rows) == 3


def test_filter_status_all_operating_warns():
    table = _status_table(("operating", "operating"))
    with pytest.warns(UserWarning, match="kept 0 of 2"):
        kept, summary = filter_status(table)
    assert kept.rows == ()
    assert summary["kept"] == 0


def test_filter_status_missing_column():
    table = RawTable(header=("name",), rows=(("x",),))
    with pytest.raises(ValueError, match="'status' not found"):
        filter_status(table)


# -- feature engineering -----------------------------------------------------


_ENG_HEADER = ("status", "total", "seed", "founded", "first", "market")


def _eng_config():
    return FeatureConfig.from_dict(
        {
            "status_column": "status",
            "features": [
                {"type": "numeric", "column": "total", "blank": "drop"},
                {"type": "numeric", "column": "seed", "blank": "zero"},
                {
                    "type": "duration_days",
                    "name": "days_to_funding",
                    "start": "founded",
                    "end": "first",
                    "blank": "drop",
                },
                {"type": "frequency", "column": "market"},
            ],
        }
    )


def _eng_table(rows):
    return RawTable(header=_ENG_HEADER, rows=tuple(rows))


def test_engineer_currency_and_commas():
    table = _eng_table(
        [("acquired", "$1,500,000", "5", "2010-01-01", "2010-07-01", "web")]
    )
    ds, _ = engineer_features(table, _eng_config())
    assert ds.features[0, 0] == 1500000.0


def test_engineer_duration_days():
    # 2010-01-01 to 2010-07-01 spans 181 calendar days.
    table = _eng_table(
        [("closed", "10", "", "2010-01-01", "2010-07-01", "web")]
    )
    ds, _ = engineer_features(table, _eng_config())
    assert ds.features[0, 2] == 181.0


def test_engineer_us_date_fallback():
    table = _eng_table(
        [("closed", "10", "", "01/01/2010", "07/01/2010", "web")]
    )
    ds, _ = engineer_features(table, _eng_config())
    assert ds.features[0, 2] == 181.0


def test_engineer_blank_zero_policy():
    table = _eng_table(
        [("acquired", "10", "", "2010-01-01", "2010-07-01", "web")]
    )
    ds, _ = engineer_features(table, _eng_config())
    assert ds.features[0, 1] == 0.0


def test_engineer_blank_drop_policy():
    table = _eng_table(
        [
            ("acquired", "", "1", "2010-01-01", "2010-07-01", "web"),
            ("closed", "10", "1", "2010-01-01", "2010-07-01", "web"),
        ]
    )
    ds, summary = engineer_features(table, _eng_config())
    assert ds.n_rows == 1
    assert summary["dropped_blank"] == 1
    assert summary["rows_in"] == 2 and summary["rows_out"] == 1


def test_engineer_unparseable_cell_drops_row():
    table = _eng_table(
        [
            ("acquired", "oops", "1", "2010-01-01", "2010-07-01", "web"),
            ("closed", "10", "1", "2010-13-45", "2010-07-01", "web"),
            ("closed", "10", "1", "2010-01-01", "2010-07-01", "web"),
        ]
    )
    ds, summary = engineer_features(table, _eng_config())
    assert ds.n_rows == 1
    assert summary["dropped_unparseable"] == 2


def test_engineer_all_rows_dropped_raises():
    table = _eng_table([("acquired", "junk", "1", "2010-01-01", "2010-07-01", "w")])
    with pytest.raises(ValueError, match="dropped all 1 rows"):
        engineer_features(table, _eng_config())


def test_engineer_labels_from_status():
    table = _eng_table(
        [
            ("acquired", "1", "1", "2010-01-01", "2010-07-01", "a"),
            ("ipo", "1", "1", "2010-01-01", "2010-07-01", "a"),
            ("closed", "1", "1", "2010-01-01", "2010-07-01", "a"),
        ]
    )
    ds, _ = engineer_features(table, _eng_config())
    assert ds.labels.tolist() == [1, 1, 0]


def test_engineer_frequency_encoding():
    table = _eng_table(
        [
            ("closed", "1", "1", "2010-01-01", "2010-07-01", "web"),
            ("closed", "1", "1", "2010-01-01", "2010-07-01", "web"),
            ("closed", "1", "1", "2010-01-01", "2010-07-01", "bio"),
            ("acquired", "1", "1", "2010-01-01", "2010-07-01", ""),
        ]
    )
    ds, _ = engineer_features(table, _eng_config())
    assert ds.features[:, 3].tolist() == [0.5, 0.5, 0.25, 0.25]


def test_engineer_missing_column():
    cfg = FeatureConfig.from_dict(
        {"features": [{"type": "numeric", "column": "nope"}]}
    )
    with pytest.raises(ValueError, match="'nope' not found"):
        engineer_features(_eng_table([]), cfg)


def test_feature_config_validation():
    with pytest.raises(ValueError, match="no features"):
        FeatureConfig.from_dict({"features": []})
    with pytest.raises(ValueError, match="unknown feature type"):
        FeatureConfig.from_dict({"features": [{"type": "magic", "column": "x"}]})
    with pytest.raises(ValueError, match="blank policy"):
        FeatureConfig.from_dict(
            {"features": [{"type": "numeric", "column": "x", "blank": "nan"}]}
        )
    with pytest.raises(ValueError, match="start and end"):
        FeatureConfig.from_dict(
            {"features": [{"type": "duration_days", "name": "d"}]}
        )


def test_feature_config_rejects_a_repeated_name():
    features = [
        {"type": "frequency", "column": "x", "name": "f"},
        {"type": "numeric", "column": "y"},
        {"type": "frequency", "column": "z", "name": "f"},
    ]
    with pytest.raises(ValueError, match="names the feature 'f' more than once"):
        FeatureConfig.from_dict({"features": features})
    # A derived name counts too: a frequency feature on `x` is named `x_freq`.
    with pytest.raises(ValueError, match="'x_freq' more than once"):
        FeatureConfig.from_dict({"features": [
            {"type": "frequency", "column": "x"},
            {"type": "numeric", "column": "y", "name": "x_freq"},
        ]})


_ONE = {"type": "numeric", "column": "x"}


@pytest.mark.parametrize("doc,message", [
    ({"features": [_ONE], "blnak": "drop"}, "unknown key(s) in the feature config: ['blnak']"),
    ({"features": [_ONE, {"type": "numeric", "column": "y", "blnak": "drop"}]},
     "unknown key(s) in features[1]: ['blnak']"),
    ({"features": [_ONE, "y"]}, "features[1] must be a JSON object, got 'y'"),
    ({"features": [_ONE, {"column": "y"}]}, "features[1] has no 'type'"),
    ({"features": [{"type": "duration_days", "start": "a", "end": "b"}]},
     "features[0] has no 'name' and no 'column' to derive one from"),
    ({"features": [{"type": "numeric", "column": 3}]}, "features[0].column must be a string or null, got 3"),
    ({"features": [{"type": "numeric", "name": 3, "column": ["x"]}]},
     "features[0].name must be a string, got 3"),
    ({"features": [{**_ONE, "blank": None}]}, "features[0].blank must be a string, got None"),
    ({"features": [_ONE], "status_column": 1}, "status_column must be a string, got 1"),
    ({"features": {"type": "numeric"}}, "features must be a list, got {'type': 'numeric'}"),
    (["features"], "feature config must be a JSON object"),
], ids=["top-level-key", "item-key", "item-not-object", "no-type", "no-name", "column-int",
        "name-int", "blank-null", "status-int", "features-object", "doc-list"])
def test_feature_config_refuses_a_malformed_document(doc, message):
    with pytest.raises(ValueError) as err:
        FeatureConfig.from_dict(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("kwargs,message", [
    ({"type": "numeric", "name": 3, "column": ["x"]}, "name must be a string, got 3"),
    ({"type": "numeric", "name": "a", "column": ["x"]}, "column must be a string or null, got ['x']"),
    ({"type": "duration_days", "name": "d", "start": "a", "end": 2.0},
     "end must be a string or null, got 2.0"),
])
def test_feature_spec_casts_its_fields_like_the_other_configs(kwargs, message):
    # Built through the Python API, not from_dict, the spec still casts.
    with pytest.raises(ValueError) as err:
        dataset.FeatureSpec(**kwargs)
    assert str(err.value) == message


def test_a_numeric_feature_needs_a_source_column():
    with pytest.raises(ValueError, match="feature 'a' needs a source column"):
        dataset.FeatureSpec("numeric", "a")


def test_feature_config_derives_names_and_keeps_cast_values():
    cfg = FeatureConfig.from_dict({"features": [
        {"type": "frequency", "column": "m"}, {**_ONE, "name": ""},
        {"type": "duration_days", "name": "d", "start": "a", "end": "b", "blank": "drop"},
    ]})
    assert [s.name for s in cfg.features] == ["m_freq", "x", "d"]
    assert cfg.features[2] == dataset.FeatureSpec("duration_days", "d", "drop", None, "a", "b")
    assert cfg.status_column == "status"


def test_default_config_has_17_features():
    cfg = default_feature_config()
    assert len(cfg.features) == 17
    assert cfg.status_column == "status"
    names = [s.name for s in cfg.features]
    assert len(set(names)) == 17


# -- splitting ---------------------------------------------------------------


def _toy_dataset(n=10, d=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = np.arange(n) % 2
    return Dataset(x, y, tuple(f"f{i}" for i in range(d)))


def test_split_sizes():
    train, test = train_test_split(_toy_dataset(10), 0.2, seed=1)
    assert test.n_rows == 2
    assert train.n_rows == 8


def test_split_minimum_one_test_row():
    train, test = train_test_split(_toy_dataset(4), 0.1, seed=1)
    assert test.n_rows == 1


def test_split_deterministic_per_seed():
    ds = _toy_dataset(20)
    a_train, a_test = train_test_split(ds, 0.25, seed=9)
    b_train, b_test = train_test_split(ds, 0.25, seed=9)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.features, b_test.features)
    c_train, _ = train_test_split(ds, 0.25, seed=10)
    assert not np.array_equal(a_train.features, c_train.features)


def test_split_is_a_partition():
    ds = _toy_dataset(15)
    train, test = train_test_split(ds, 0.2, seed=3)
    all_rows = np.vstack([train.features, test.features])
    assert sorted(map(tuple, all_rows)) == sorted(map(tuple, ds.features))


def test_split_stratified_keeps_both_classes():
    x = np.arange(40, dtype=float).reshape(20, 2)
    y = np.array([0] * 16 + [1] * 4)
    ds = Dataset(x, y, ("a", "b"))
    _, test = train_test_split(ds, 0.25, seed=5, stratify=True)
    assert sorted(np.unique(test.labels).tolist()) == [0, 1]
    assert int((test.labels == 0).sum()) == 4
    assert int((test.labels == 1).sum()) == 1


def test_split_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="in \\(0, 1\\)"):
        train_test_split(_toy_dataset(10), 1.2, seed=0)
    with pytest.raises(ValueError, match="at least 2 rows"):
        train_test_split(_toy_dataset(1), 0.5, seed=0)


def test_stratified_split_of_one_class_and_of_one_row_per_class():
    train, test = train_test_split(Dataset(np.eye(4), [0, 0, 0, 0], tuple("abcd")), 0.25, 1, True)
    assert (train.n_rows, test.n_rows) == (3, 1)
    with pytest.raises(ValueError, match="split left no training rows"):
        train_test_split(Dataset(np.eye(2), [0, 1], ("a", "b")), 0.5, 1, stratify=True)


def test_split_arguments_pass_the_config_casting_rule():
    ds = _toy_dataset(12)
    want = train_test_split(ds, 0.25, seed=3)
    for fraction, seed in ((0.25, np.int64(3)), (np.float64(0.25), 3.0)):
        got = train_test_split(ds, fraction, seed)
        assert [g.features.tobytes() for g in got] == [w.features.tobytes() for w in want]
    with pytest.raises(ValueError, match="seed must be an integer"):
        train_test_split(ds, 0.25, 1.5)
    with pytest.raises(ValueError, match="test_fraction must be a number"):
        train_test_split(ds, True, 3)


# -- scaling -----------------------------------------------------------------


def test_minmax_pi_endpoints():
    ds = Dataset(np.array([[0.0], [2.0], [4.0]]), [0, 1, 0], ("v",))
    params = fit_scaler(ds, "minmax_pi")
    out = apply_scaler(params, ds)
    assert out.features[:, 0] == pytest.approx(
        [0.0, math.pi / 2, math.pi], abs=1e-15
    )


def test_minmax_pi_clamps_out_of_range():
    train = Dataset(np.array([[0.0], [4.0]]), [0, 1], ("v",))
    params = fit_scaler(train, "minmax_pi")
    probe = Dataset(np.array([[-1.0], [5.0]]), [0, 1], ("v",))
    out = apply_scaler(params, probe)
    assert out.features[0, 0] == 0.0
    assert out.features[1, 0] == math.pi


def test_standardize_two_points():
    ds = Dataset(np.array([[1.0], [3.0]]), [0, 1], ("v",))
    out = apply_scaler(fit_scaler(ds, "standardize"), ds)
    assert out.features[:, 0] == pytest.approx([-1.0, 1.0], abs=1e-15)


def test_scaler_drops_constant_columns():
    ds = Dataset(
        np.array([[1.0, 7.0], [2.0, 7.0]]), [0, 1], ("varies", "flat")
    )
    with pytest.warns(RuntimeWarning, match="flat"):
        params = fit_scaler(ds, "minmax_pi")
    assert params.kept_indices == (0,)
    out = apply_scaler(params, ds)
    assert out.feature_names == ("varies",)
    assert out.features.shape == (2, 1)


def test_scaler_all_constant_rejected():
    ds = Dataset(np.full((3, 2), 5.0), [0, 1, 0], ("a", "b"))
    with pytest.warns(RuntimeWarning):
        with pytest.raises(ValueError, match="constant"):
            fit_scaler(ds)


def test_scaler_empty_fit_rejected():
    ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), ("a", "b"))
    with pytest.raises(ValueError, match="empty"):
        fit_scaler(ds)


def test_scaler_unknown_mode():
    with pytest.raises(ValueError, match="unknown scaler mode"):
        fit_scaler(_toy_dataset(), "robust")


def test_minmax_train_reapplication_attains_endpoints():
    rng = np.random.default_rng(8)
    ds = Dataset(rng.normal(size=(12, 4)), rng.integers(0, 2, 12), ("a", "b", "c", "d"))
    out = apply_scaler(fit_scaler(ds, "minmax_pi"), ds)
    assert out.features.min(axis=0) == pytest.approx([0.0] * 4, abs=1e-12)
    assert out.features.max(axis=0) == pytest.approx([math.pi] * 4, abs=1e-12)


# -- feature selection -------------------------------------------------------


def test_select_features_picks_separated_columns():
    rng = np.random.default_rng(21)
    n = 200
    y = rng.integers(0, 2, n)
    noise = rng.normal(size=(n, 4))
    signal = (y * 3.0).reshape(-1, 1) + rng.normal(scale=0.1, size=(n, 1))
    x = np.hstack([noise[:, :2], signal, noise[:, 2:]])
    ds = Dataset(x, y, tuple("abcde"))
    idx = select_features(ds, k=1)
    assert idx.tolist() == [2]


def test_select_features_k_at_least_d_keeps_all():
    ds = _toy_dataset(10, 3)
    assert select_features(ds, k=3).tolist() == [0, 1, 2]
    assert select_features(ds, k=99).tolist() == [0, 1, 2]


def test_select_features_tie_prefers_lower_index():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    ds = Dataset(x, [0, 1, 0, 1], ("a", "b"))
    assert select_features(ds, k=1).tolist() == [0]


def test_select_features_output_ascending():
    rng = np.random.default_rng(33)
    ds = Dataset(rng.normal(size=(50, 6)), rng.integers(0, 2, 50), tuple("abcdef"))
    idx = select_features(ds, k=4)
    assert idx.tolist() == sorted(idx.tolist())


def test_select_features_validation():
    with pytest.raises(ValueError, match="k must be"):
        select_features(_toy_dataset(), k=0)
    ds = Dataset(np.zeros((4, 2)), [1, 1, 1, 1], ("a", "b"))
    with pytest.raises(ValueError, match="both classes"):
        select_features(ds, k=1)


def test_select_features_k_passes_the_config_casting_rule():
    # Integral values of any type select the same columns; nothing is truncated.
    ds = _toy_dataset()
    for k in (2.0, np.int64(2)):
        assert select_features(ds, k=k).tolist() == select_features(ds, 2).tolist()
    with pytest.raises(ValueError, match="k must be an integer, got 1.5"):
        select_features(ds, k=1.5)


def test_take_features():
    ds = _toy_dataset(5, 3)
    sub = take_features(ds, [2, 0])
    assert sub.feature_names == ("f2", "f0")
    assert np.array_equal(sub.features[:, 0], ds.features[:, 2])


# -- cache round trip --------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    ds = _toy_dataset(8, 3, seed=4)
    save_dataset(tmp_path / "cache", ds)
    back = load_dataset(tmp_path / "cache")
    assert np.array_equal(back.features, ds.features)
    assert back.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(back.labels, ds.labels)
    assert back.feature_names == ds.feature_names


def test_load_missing_cache_mentions_ingest(tmp_path):
    with pytest.raises(ValueError, match="ingest"):
        load_dataset(tmp_path / "nowhere")


def test_dataset_type_validation():
    with pytest.raises(ValueError, match="2-d"):
        Dataset(np.zeros(3), [0, 1, 0], ("a",))
    with pytest.raises(ValueError, match="does not match"):
        Dataset(np.zeros((3, 1)), [0, 1], ("a",))
    with pytest.raises(ValueError, match="names"):
        Dataset(np.zeros((2, 2)), [0, 1], ("a",))
    with pytest.raises(ValueError, match="0/1"):
        Dataset(np.zeros((2, 1)), [0, 3], ("a",))
    with pytest.raises(ValueError, match="0/1"):
        Dataset(np.zeros((2, 1)), [0, 0.5], ("a",))


@pytest.mark.parametrize("labels, extra", [
    ([0, 2, 1], "[2]"), ([0.0, float("nan")], "[nan]"), (["0", "a"], "['0', 'a']"),
    ([0, 1, "x"], "['0', '1', 'x']"), ([[0, 3]], "[3]")])
def test_check_labels_names_every_extra_value(labels, extra):
    with pytest.raises(ValueError) as caught:
        dataset.check_labels(labels)
    assert str(caught.value) == f"labels must be 0/1, got extra values {extra}"


def test_check_labels_takes_any_zero_one_values_as_int64():
    for labels in ([True, False], [0.0, 1.0], np.array([1, 0], dtype=np.uint8), []):
        y = dataset.check_labels(labels)
        assert y.dtype == np.int64 and y.tolist() == [int(v) for v in labels]


def _date_or_error(parse, cell):
    try:
        return parse(cell)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _date_cells():
    cells = [
        "2020-02-30", "2020-13-01", "2020-1-5", "2020-01-0\uff15", "+020-01-05",
        "20200105", "2020-W01-1", "01/05/2020", " 2020-01-05 ", "\t2020-01-05",
        "", "   ", "2020-01-05T00", "2020-00-10", "0000-01-01", "0001-01-01",
        "9999-12-31", "2021-02-29", "2024-02-29", "2020/01/05", "2020-01-5 ",
        "2020--1-05", "2020-1--5", "-020-01-05", "2020-01-\u0665\u0665",
        "2020-01/05", "2020/01-05", "2020.01.05",
    ]
    years = ("2020", "1999", "0000", "20a0")
    months = ("01", "1", "00", "12", "13")
    days = ("05", "5", "00", "29", "31", "32", "0x")
    for y, m, d in itertools.product(years, months, days):
        cells += [f"{y}-{m}-{d}", f"{m}/{d}/{y}"]
    return cells


def test_iso_date_fast_path_agrees_with_strptime():
    """The same date, or the same error, as strptime over every format."""
    for cell in _date_cells():
        want = _date_or_error(helpers.parse_date_strptime, cell)
        assert _date_or_error(dataset._parse_date, cell) == want, cell
    assert dataset._parse_date("2020-01-05") == date(2020, 1, 5)


# -- column-wise feature engineering against the row-by-row oracle ----------

_MDY_CELLS = [
    "3/4/2001", "03/04/2001", "12/31/1999 ", "2/29/2021", "02/29/2024", "01/01/0000",
    "13/01/2001", "0/1/2001", "1/32/2001", "001/01/2001", "\u0661/1/2001", "1/1/01",
]


def _date_code(cell):
    """(days since 1970-01-01, status code) of one cell through ``_parse_date``."""
    try:
        day = dataset._parse_date(cell)
    except ValueError:
        return 0, dataset._BAD
    if day is None:
        return 0, dataset._BLANK
    return day.toordinal() - date(1970, 1, 1).toordinal(), dataset._OK


def test_date_column_agrees_with_parse_date():
    """Alone, together (numpy refuses the column) and with only dates that
    parse (numpy takes every ISO and M/D/Y cell), each cell matches."""
    cells = _date_cells() + _MDY_CELLS
    valid = [c for c in cells if _date_code(c)[1] != dataset._BAD]
    assert len(valid) > 40
    for column in [cells, valid] + [[c] for c in cells]:
        days, codes = dataset._date_column(column)
        got = [(int(d) if c == dataset._OK else 0, int(c)) for d, c in zip(days, codes)]
        assert got == [_date_code(c) for c in column], column[:3]


_GEN_HEADER = ("status", "total", "seed", "founded", "first", "last", "market")
_GEN_STATUSES = ["acquired", "ipo", " Closed ", "IPO", "closed"]
_GEN_NUMBERS = ["12", "0", "3.5", "-7", "$1,234", " 1,234 ", "1e3", "-0", "+5", "\t9\n",
                "1_000", "\u0661\u0662"]
_GEN_NUMBERS_ODD = ["", "-", " - ", "  ", "$", "$-", "oops", "1,2.3.4", "nan", "inf",
                    "-inf", "1e400", "1 e 3"]
_GEN_DATES = ["2010-01-01", "2012-07-15", "3/4/2001", "03/04/2001", "12/31/1999",
              " 2011-05-06 ", "2020-02-29", "9999-12-31", "0001-01-01"]
_GEN_DATES_ODD = ["", " ", "2010-1-5", "2010-01-0\uff15", "2010-1-05", "0000-01-01",
                  "01/01/0000", "13/01/2001", "0/1/2001", "2020-01-\u0665\u0665",
                  "garbage", "-001-01-01", "20100105"]
_GEN_IMPOSSIBLE = ["2021-02-30", "2010-04-31", "2/30/2021"]
_GEN_MARKETS = ["web", "web\x00", "web\x00\x00", " web ", "", "bio", "Bio"]


def _gen_config(blank):
    return FeatureConfig.from_dict({"status_column": "status", "features": [
        {"type": "numeric", "column": "total", "blank": blank},
        {"type": "duration_days", "name": "d1", "start": "founded", "end": "first",
         "blank": blank},
        {"type": "numeric", "column": "seed", "blank": blank},
        {"type": "duration_days", "name": "d2", "start": "first", "end": "last",
         "blank": blank},
        {"type": "frequency", "column": "market"},
    ]})


def _gen_table(seed, n_rows=120):
    """Mostly good cells, with odd ones at a rate that varies by seed; odd
    seeds add dates numpy refuses, which sends a column one cell at a time."""
    rng = np.random.default_rng(seed)
    odd_rate = (0.03, 0.1, 0.25)[seed % 3]
    dates_odd = _GEN_DATES_ODD + (_GEN_IMPOSSIBLE if seed % 2 else [])

    def pick(good, odd):
        pool = odd if rng.random() < odd_rate else good
        return pool[rng.integers(len(pool))]

    rows = []
    for _ in range(n_rows):
        dates = [pick(_GEN_DATES, dates_odd) for _ in range(3)]
        rows.append((
            _GEN_STATUSES[rng.integers(len(_GEN_STATUSES))],
            pick(_GEN_NUMBERS, _GEN_NUMBERS_ODD),
            pick(_GEN_NUMBERS, _GEN_NUMBERS_ODD),
            *dates,
            _GEN_MARKETS[rng.integers(len(_GEN_MARKETS))],
        ))
    return RawTable(header=_GEN_HEADER, rows=tuple(rows))


def _engineering(fn, table, config):
    """Everything a caller can see of one run: bytes, summary, or the error."""
    try:
        ds, summary = fn(table, config)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return (ds.features.tobytes(), ds.features.shape, ds.labels.tobytes(),
            ds.labels.dtype, ds.feature_names, summary)


def _assert_same_as_oracle(table, config):
    got = _engineering(engineer_features, table, config)
    assert got == _engineering(helpers.engineer_features_rows, table, config)
    return got


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("blank", ["zero", "drop"])
def test_engineer_matches_row_oracle_on_generated_tables(seed, blank):
    got = _assert_same_as_oracle(_gen_table(seed), _gen_config(blank))
    summary = got[-1]
    assert isinstance(summary, dict)  # not every row dropped
    assert summary["dropped_unparseable"] > 0
    assert (summary["dropped_blank"] > 0) == (blank == "drop")


def test_engineer_matches_row_oracle_on_the_fixture_csv():
    table, _ = filter_status(load_csv(Path(__file__).parent / "data" / "startups_12.csv"))
    _assert_same_as_oracle(table, default_feature_config())


def test_engineer_counts_a_row_once_under_its_first_failing_feature():
    good = ("closed", "10", "1", "2010-01-01", "2010-07-01", "2011-01-01", "web")
    rows = [
        ("acquired", "", "oops", "2010-01-01", "2010-07-01", "2011-01-01", "web"),
        ("acquired", "oops", "", "2010-01-01", "2010-07-01", "2011-01-01", "web"),
        ("acquired", "10", "1", "", "2010-02-30", "2011-01-01", "web"),
        ("acquired", "10", "oops", "2010-01-01", "", "2011-01-01", "web"),
        ("acquired", "nan", "inf", "bad", "", "", "web"),
        good,
    ]
    table = RawTable(header=_GEN_HEADER, rows=tuple(rows))
    ds, summary = engineer_features(table, _gen_config("drop"))
    # Rows 1 and 4 fail first on a blank; rows 2, 3 and 5 on a bad cell.
    # Row 3's duration has a blank start and a bad end: it counts as bad.
    assert (summary["dropped_blank"], summary["dropped_unparseable"]) == (2, 3)
    assert ds.n_rows == 1
    _assert_same_as_oracle(table, _gen_config("drop"))
    # With blanks read as 0, rows 1 and 4 fail on their bad seed instead.
    _, summary = engineer_features(table, _gen_config("zero"))
    assert (summary["dropped_blank"], summary["dropped_unparseable"]) == (0, 5)
    _assert_same_as_oracle(table, _gen_config("zero"))


@pytest.mark.parametrize("cell", ["nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                                  "1e400", "$1e400", "-1e999"])
@pytest.mark.parametrize("blank", ["zero", "drop"])
def test_engineer_non_finite_number_is_unparseable(cell, blank):
    rows = [
        ("acquired", "10", cell, "2010-01-01", "2010-07-01", "2011-01-01", "web"),
        ("closed", "20", "5", "2010-01-01", "2010-07-01", "2011-01-01", "web"),
    ]
    table = RawTable(header=_GEN_HEADER, rows=tuple(rows))
    ds, summary = engineer_features(table, _gen_config(blank))
    assert summary["dropped_unparseable"] == 1 and ds.n_rows == 1
    assert np.isfinite(ds.features).all()
    _assert_same_as_oracle(table, _gen_config(blank))


def test_engineer_logs_rows_in_out_and_drops(caplog):
    caplog.set_level(logging.INFO, logger="qkml.dataset")
    table = _eng_table(
        [
            ("acquired", "", "1", "2010-01-01", "2010-07-01", "web"),
            ("closed", "10", "1", "2010-13-45", "2010-07-01", "web"),
            ("closed", "10", "1", "2010-01-01", "2010-07-01", "web"),
            ("ipo", "10", "", "2010-01-01", "2010-07-01", "bio"),
        ]
    )
    engineer_features(table, _eng_config())
    lines = [r.getMessage() for r in caplog.records if r.name == "qkml.dataset"]
    assert lines == ["feature engineering kept 2 of 4 rows (dropped 1 blank, 1 unparseable)"]


def _count_date_parses(monkeypatch):
    calls = []
    parse = dataset._parse_date
    monkeypatch.setattr(dataset, "_parse_date", lambda cell: calls.append(cell) or parse(cell))
    return calls


@pytest.mark.parametrize("form", ["iso", "mdy"])
def test_engineer_parses_iso_and_mdy_columns_without_parse_date(monkeypatch, form):
    calls = _count_date_parses(monkeypatch)
    rng = np.random.default_rng(3)
    rows = []
    for i in range(50):
        y, m, d = (int(v) for v in (rng.integers(1990, 2015), rng.integers(1, 13),
                                    rng.integers(1, 29)))
        cell = f"{y}-{m:02d}-{d:02d}" if form == "iso" else f"{m}/{d:02d}/{y}"
        rows.append(("closed" if i % 3 else "acquired", "1", "" if i % 7 else "2",
                     cell, "" if i == 5 else cell, cell, "web"))
    table = RawTable(header=_GEN_HEADER, rows=tuple(rows))
    engineer_features(table, _gen_config("zero"))
    assert calls == []


def test_engineer_parses_each_odd_date_cell_once(monkeypatch):
    """The column ``first`` feeds both durations and is parsed once: k odd
    cells there cost k calls to ``_parse_date``, and blanks cost none."""
    odd = ["2010-1-5", "2010-01-0\uff15", "20100105", "2010-1-05", "junk"]
    rows = []
    for i in range(40):
        first = odd[i // 8] if i % 8 == 0 else ("" if i % 5 == 1 else "2010-03-04")
        rows.append(("closed", "1", "1", "2009-01-01", first, "2012-12-12", "web"))
    table = RawTable(header=_GEN_HEADER, rows=tuple(rows))
    calls = _count_date_parses(monkeypatch)
    engineer_features(table, _gen_config("zero"))
    assert sorted(calls) == sorted(odd)
    monkeypatch.undo()
    _assert_same_as_oracle(table, _gen_config("zero"))


def _error_of(fn, table, config):
    with pytest.raises(ValueError) as info:
        fn(table, config)
    return str(info.value)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([], "feature engineering dropped all 0 rows (blank: 0, unparseable: 0)"),
        (
            [
                ("acquired", "", "1", "2010-01-01", "2010-07-01", "web"),
                ("closed", "junk", "1", "2010-01-01", "2010-07-01", "web"),
            ],
            "feature engineering dropped all 2 rows (blank: 1, unparseable: 1)",
        ),
        (
            [
                ("acquired", "junk", "1", "2010-01-01", "2010-07-01", "web"),
                ("operating", "10", "1", "2010-01-01", "2010-07-01", "web"),
                ("running", "10", "1", "2010-01-01", "2010-07-01", "web"),
            ],
            "status 'operating' survived filtering but has no label mapping",
        ),
    ],
    ids=["empty", "all-dropped", "unlabelled-status"],
)
def test_engineer_edge_errors_unchanged(rows, message):
    table = _eng_table(rows)
    assert _error_of(engineer_features, table, _eng_config()) == message
    assert _error_of(helpers.engineer_features_rows, table, _eng_config()) == message


# -- synthetic sources -------------------------------------------------------


@pytest.mark.parametrize("name, n, message", [
    ("moons", 1, "n must be >= 2, got 1"),
    ("xor", 3, "n must be >= 4, got 3"),
    ("spiral", 10, "unknown synthetic dataset 'spiral'"),
])
def test_synthetic_sources_refuse_too_few_rows_and_unknown_names(name, n, message):
    with pytest.raises(ValueError, match=message):
        synth.make_synthetic(name, n)


def test_noisy_xor_moves_every_point_off_its_corner():
    clean, noisy = (synth.make_xor(8, noise, seed=2) for noise in (0.0, 0.1))
    assert np.all(noisy.features != clean.features)
    np.testing.assert_array_equal(noisy.labels, clean.labels)
