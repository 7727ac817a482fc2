"""Tabular ingestion: CSV -> status filter -> numeric feature matrix.

The pipeline is declarative: a FeatureConfig lists the engineered
columns in output order. Three feature types exist:

* ``numeric`` -- a float, once ``$``, commas and spaces are removed; an
  empty cell or ``-`` is blank, and a cell that is not a finite float
  (``oops``, ``nan``, ``inf``, ``1e400``) is unparseable.
* ``duration_days`` -- calendar days from a start to an end date cell,
  each ``%Y-%m-%d`` or else ``%m/%d/%Y`` as ``strptime`` reads them
  (``3/4/2001`` is 4 March 2001); a blank cell makes the duration blank.
* ``frequency`` -- relative frequency of the cell's value within the
  filtered table (blank is its own category).

Blank cells follow the per-feature policy: ``zero`` substitutes 0.0 and
``drop`` removes the row.  Cells that are present but unparseable always
drop the row.  The summary counts each dropped row once, under its first
failing feature.  Each source column is parsed once, as a whole: one
comprehension per column, one numpy conversion per date column.

Company outcome labels: status ``acquired``/``ipo`` map to class 1
(exit), ``closed`` to class 0; anything else is removed by
``filter_status`` before engineering.
"""

from __future__ import annotations

import csv
import logging
import math
import re
import tokenize
import warnings
from collections import Counter
from dataclasses import dataclass, field
from datetime import date, datetime
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .artifacts import cast_fields, cast_value, field_kinds, read_json

log = logging.getLogger("qkml.dataset")

STATUS_EXIT = ("acquired", "ipo")
STATUS_CLOSED = ("closed",)
KEPT_STATUSES = STATUS_EXIT + STATUS_CLOSED

MINMAX_PI = "minmax_pi"
STANDARDIZE = "standardize"
_SCALER_MODES = (MINMAX_PI, STANDARDIZE)

_DATE_FORMATS = ("%Y-%m-%d", "%m/%d/%Y")


@dataclass(frozen=True)
class RawTable:
    """Parsed CSV: stripped header names plus string rows."""

    header: tuple
    rows: tuple

    def column_index(self, name: str) -> int:
        try:
            return self.header.index(name)
        except ValueError:
            raise ValueError(f"column {name!r} not found; available: {list(self.header)}") from None


def check_labels(labels) -> np.ndarray:
    """``labels`` as an int64 array, refusing any value but 0 and 1."""
    y = np.asarray(labels)
    # Element-wise, not np.unique: its hash path imports numpy.ma.
    if not ((y == 0) | (y == 1)).all():
        bad = set(np.unique(y).tolist()) - {0, 1}
        raise ValueError(f"labels must be 0/1, got extra values {sorted(bad)}")
    return y.astype(np.int64)


def check_xy(features, labels) -> tuple:
    """(features as a float64 2-d array, labels through ``check_labels``),
    refusing any shape but one label per row."""
    x = np.asarray(features, dtype=np.float64)
    y = check_labels(labels)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-d, got shape {x.shape}")
    if y.shape != (x.shape[0],):
        raise ValueError(f"labels shape {y.shape} does not match {x.shape[0]} rows")
    return x, y


@dataclass(frozen=True)
class Dataset:
    """Numeric design matrix with 0/1 labels and column names."""

    features: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    feature_names: tuple

    def __post_init__(self):
        x, y = check_xy(self.features, self.labels)
        if x.shape[1] != len(self.feature_names):
            raise ValueError(f"{len(self.feature_names)} names for {x.shape[1]} columns")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


def load_csv(path) -> RawTable:
    """RFC-4180 CSV reader; rejects ragged rows and empty files.

    Header cells are whitespace-stripped (real-world exports pad them);
    data cells are kept verbatim for the parsers downstream.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV, no header row") from None
        header = tuple(h.strip() for h in header)
        rows = tuple(map(tuple, reader))
    if set(map(len, rows)) - {len(header)}:
        lineno, row = next((i, r) for i, r in enumerate(rows, 1) if len(r) != len(header))
        raise ValueError(
            f"{path}: data row {lineno} has {len(row)} cells, header has {len(header)}"
        )
    return RawTable(header=header, rows=rows)


def filter_status(table: RawTable, status_column: str = "status") -> Tuple[RawTable, dict]:
    """Keep rows whose status maps to a known outcome.

    Returns the filtered table plus a summary with per-status counts
    (statuses compared case-insensitively after stripping).
    """
    col = table.column_index(status_column)
    statuses = [row[col].strip().lower() for row in table.rows]
    kept = [row for row, status in zip(table.rows, statuses) if status in KEPT_STATUSES]
    summary = {
        "total": len(table.rows),
        "kept": len(kept),
        "by_status": dict(sorted(Counter(statuses).items())),
    }
    if not kept:
        warnings.warn(f"status filter kept 0 of {len(table.rows)} rows", stacklevel=2)
    log.info("status filter kept %d of %d rows", len(kept), len(table.rows))
    return RawTable(header=table.header, rows=tuple(kept)), summary


# -- feature configuration ---------------------------------------------------

BLANK_ZERO = "zero"
BLANK_DROP = "drop"


@dataclass(frozen=True)
class FeatureSpec:
    type: str  # numeric | duration_days | frequency
    name: str
    blank: str = BLANK_ZERO
    column: Optional[str] = None
    start: Optional[str] = None
    end: Optional[str] = None

    def __post_init__(self):
        cast_fields(self)
        if self.type not in ("numeric", "duration_days", "frequency"):
            raise ValueError(f"unknown feature type {self.type!r}")
        if self.blank not in (BLANK_ZERO, BLANK_DROP):
            raise ValueError(f"unknown blank policy {self.blank!r}")
        if self.type in ("numeric", "frequency") and not self.column:
            raise ValueError(f"feature {self.name!r} needs a source column")
        if self.type == "duration_days" and not (self.start and self.end):
            raise ValueError(f"feature {self.name!r} needs start and end columns")


@dataclass(frozen=True)
class FeatureConfig:
    status_column: str
    features: tuple

    @staticmethod
    def from_dict(doc: dict) -> "FeatureConfig":
        """Refuses unknown keys, and items that are not objects or have no
        type, or no name and no column; item values go through cast_value."""
        if not isinstance(doc, dict):
            raise ValueError("feature config must be a JSON object")
        unknown = set(doc) - {"status_column", "features"}
        if unknown:
            raise ValueError(f"unknown key(s) in the feature config: {sorted(unknown)}")
        items, kinds, specs = doc.get("features", []), field_kinds(FeatureSpec), []
        if not isinstance(items, list):
            raise ValueError(f"features must be a list, got {items!r}")
        for i, item in enumerate(items):
            where = f"features[{i}]"
            if not isinstance(item, dict):
                raise ValueError(f"{where} must be a JSON object, got {item!r}")
            unknown = set(item) - set(kinds)
            if unknown:
                raise ValueError(f"unknown key(s) in {where}: {sorted(unknown)}")
            item = {key: cast_value(kinds[key], v, f"{where}.{key}") for key, v in item.items()}
            if "type" not in item:
                raise ValueError(f"{where} has no 'type'")
            if not item.get("name"):
                if not item.get("column"):
                    raise ValueError(f"{where} has no 'name' and no 'column' to derive one from")
                item["name"] = item["column"] + ("_freq" if item["type"] == "frequency" else "")
            specs.append(FeatureSpec(**item))
        if not specs:
            raise ValueError("feature config lists no features")
        names = [spec.name for spec in specs]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"feature config names the feature {name!r} more than once")
        status = cast_value(str, doc.get("status_column", "status"), "status_column")
        return FeatureConfig(status, tuple(specs))


def default_feature_config() -> FeatureConfig:
    """17-column default for the startup-investments export schema."""
    numeric_zero = (
        "funding_rounds seed venture equity_crowdfunding convertible_note debt_financing "
        "angel grant private_equity round_A round_B round_C round_D"
    ).split()
    doc = {
        "status_column": "status",
        "features": (
            [{"type": "numeric", "column": "funding_total_usd", "blank": "drop"}]
            + [{"type": "numeric", "column": c, "blank": "zero"} for c in numeric_zero]
            + [
                {"type": "duration_days", "name": "days_founded_to_first_funding",
                 "start": "founded_at", "end": "first_funding_at", "blank": "drop"},
                {"type": "duration_days", "name": "days_first_to_last_funding",
                 "start": "first_funding_at", "end": "last_funding_at", "blank": "drop"},
                {"type": "frequency", "column": "market"},
            ]
        ),
    }
    return FeatureConfig.from_dict(doc)


# ASCII digits only ([0-9], not \d), and no year 0000, which numpy takes
# but ``date`` and ``strptime`` refuse.
_ISO = re.compile(r"(?!0000)[0-9]{4}-[0-9]{2}-[0-9]{2}")
_MDY = re.compile(r"([0-9]{1,2})/([0-9]{1,2})/((?!0000)[0-9]{4})")


def _parse_date(cell: str):
    """One date cell as a ``date``, None when blank; raises when unparseable."""
    text = cell.strip()
    if not text:
        return None
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    raise ValueError(f"unparseable date {cell!r}")


# Cell status codes, in rising precedence for a duration's two cells.
_OK, _BLANK, _BAD = 0, 1, 2
_EPOCH = date(1970, 1, 1).toordinal()


def _numeric_column(cells) -> Tuple[np.ndarray, np.ndarray]:
    """(values, status codes) of one numeric column.

    Blank cells read 0.0; a cell that is not a finite float is bad.
    """
    texts = [c.strip().replace("$", "").replace(",", "").replace(" ", "") for c in cells]
    blank = np.array([t in ("", "-") for t in texts], dtype=bool)
    present = [t for t in texts if t not in ("", "-")]
    try:
        floats = [float(t) for t in present]
    except ValueError:
        floats = [_float_or_nan(t) for t in present]
    values = np.zeros(len(texts))
    values[~blank] = floats
    return values, np.where(blank, _BLANK, np.where(np.isfinite(values), _OK, _BAD))


def _float_or_nan(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def _mdy_as_iso(text: str):
    """A M/D/YYYY cell rewritten as YYYY-MM-DD, else None."""
    mdy = _MDY.fullmatch(text)
    return f"{mdy[3]}-{mdy[1]:0>2}-{mdy[2]:0>2}" if mdy else None


def _date_column(cells) -> Tuple[np.ndarray, np.ndarray]:
    """(days since 1970-01-01, status codes) of one date column.

    Both formats go through one numpy conversion; other cells, or the
    whole column if numpy refuses an impossible date, go through
    ``_parse_date`` one by one.
    """
    texts = [c.strip() for c in cells]
    iso = [t if _ISO.fullmatch(t) else _mdy_as_iso(t) for t in texts]
    fast = np.array([t is not None for t in iso], dtype=bool)
    blank = np.array([not t for t in texts], dtype=bool)
    days = np.zeros(len(texts), dtype=np.int64)
    try:
        days[fast] = np.array([t for t in iso if t], dtype="datetime64[D]").astype(np.int64)
    except ValueError:  # e.g. 2021-02-30
        fast[:] = False
    status = np.where(blank, _BLANK, _OK)
    for i in np.flatnonzero(~fast & ~blank):
        try:
            days[i] = _parse_date(texts[i]).toordinal() - _EPOCH
        except ValueError:
            status[i] = _BAD
    return days, status


def engineer_features(table: RawTable, config: FeatureConfig) -> Tuple[Dataset, dict]:
    """Build the numeric matrix and labels from a filtered table.

    Each source column is parsed once, as a whole.  Returns the dataset
    plus a summary counting the dropped rows; a row is counted once,
    under its first blank (per the drop policy) or unparseable feature.
    """
    sources = [config.status_column] + [
        n for spec in config.features for n in (spec.column, spec.start, spec.end) if n
    ]
    col_idx = {name: table.column_index(name) for name in sources}
    n_total = len(table.rows)
    columns = list(zip(*table.rows)) or [()] * len(table.header)
    statuses = [s.strip().lower() for s in columns[col_idx[config.status_column]]]
    unmapped = [s for s in statuses if s not in KEPT_STATUSES]
    if unmapped:
        raise ValueError(f"status {unmapped[0]!r} survived filtering but has no label mapping")
    labels = np.array([s in STATUS_EXIT for s in statuses], dtype=np.int64)

    date_names = {n for s in config.features if s.type == "duration_days" for n in (s.start, s.end)}
    dates = {name: _date_column(columns[col_idx[name]]) for name in date_names}
    x = np.zeros((n_total, len(config.features)))
    codes = np.zeros(x.shape, dtype=np.int8)
    for j, spec in enumerate(config.features):
        if spec.type == "frequency":
            keys = [c.strip() for c in columns[col_idx[spec.column]]]
            freq = {k: v / n_total for k, v in Counter(keys).items()}
            x[:, j] = [freq[k] for k in keys]
        elif spec.type == "numeric":
            x[:, j], codes[:, j] = _numeric_column(columns[col_idx[spec.column]])
        else:
            (start, start_code), (end, end_code) = dates[spec.start], dates[spec.end]
            codes[:, j] = np.maximum(start_code, end_code)
            x[:, j] = np.where(codes[:, j] == _OK, end - start, 0)
        if spec.blank == BLANK_ZERO:
            codes[codes[:, j] == _BLANK, j] = _OK

    first = codes[np.arange(n_total), (codes != _OK).argmax(axis=1)]
    keep = first == _OK
    dropped_blank = int(np.count_nonzero(first == _BLANK))
    dropped_bad = int(np.count_nonzero(first == _BAD))
    log.info(
        "feature engineering kept %d of %d rows (dropped %d blank, %d unparseable)",
        np.count_nonzero(keep), n_total, dropped_blank, dropped_bad,
    )
    if not keep.any():
        raise ValueError(
            f"feature engineering dropped all {n_total} rows "
            f"(blank: {dropped_blank}, unparseable: {dropped_bad})"
        )
    names = tuple(spec.name for spec in config.features)
    ds = Dataset(x[keep], labels[keep], names)
    summary = {
        "rows_in": n_total,
        "rows_out": ds.n_rows,
        "dropped_blank": dropped_blank,
        "dropped_unparseable": dropped_bad,
        "feature_names": list(names),
    }
    return ds, summary


# -- splitting, scaling, selection -------------------------------------------


def train_test_split(
    ds: Dataset, test_fraction: float, seed: int, stratify: bool = False
) -> Tuple[Dataset, Dataset]:
    """Shuffle rows with the seeded generator, slice the test block.

    The test block holds floor(n * test_fraction) rows, at least 1; with
    ``stratify`` the floor is taken per class (again at least 1 each).
    """
    test_fraction = cast_value(float, test_fraction, "test_fraction")
    seed = cast_value(int, seed, "seed")
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = ds.n_rows
    if n < 2:
        raise ValueError("need at least 2 rows to split")
    rng = np.random.default_rng(seed)
    if stratify:
        test_idx, train_idx = [], []
        for cls in (0, 1):
            members = np.flatnonzero(ds.labels == cls)
            if members.size == 0:
                continue
            perm = members[rng.permutation(members.size)]
            k = max(1, math.floor(perm.size * test_fraction))
            test_idx.append(perm[:k])
            train_idx.append(perm[k:])
        # Interleave the classes, so a prefix of either block is a sample.
        test = rng.permutation(np.concatenate(test_idx))
        train = rng.permutation(np.concatenate(train_idx))
    else:
        perm = rng.permutation(n)
        k = max(1, math.floor(n * test_fraction))
        test = perm[:k]
        train = perm[k:]
    if train.size == 0:
        raise ValueError("split left no training rows; lower test_fraction")
    return take_rows(ds, train), take_rows(ds, test)


@dataclass(frozen=True)
class ScalerParams:
    """Fit statistics plus the surviving (non-constant) column indices."""

    mode: str
    kept_indices: tuple
    feature_names: tuple
    shift: np.ndarray = field(repr=False)  # min (minmax) or mean (standardize)
    scale: np.ndarray = field(repr=False)  # range or population std


def fit_scaler(ds: Dataset, mode: str = MINMAX_PI) -> ScalerParams:
    """Fit on training data only; constant columns are dropped (warned)."""
    if mode not in _SCALER_MODES:
        raise ValueError(f"unknown scaler mode {mode!r}")
    x = ds.features
    if x.shape[0] == 0:
        raise ValueError("cannot fit a scaler on an empty dataset")
    if mode == MINMAX_PI:
        shift = x.min(axis=0)
        scale = x.max(axis=0) - shift
    else:
        shift = x.mean(axis=0)
        scale = x.std(axis=0)  # population std
    keep = np.flatnonzero(scale > 0.0)
    if keep.size < x.shape[1]:
        keep_set = set(keep.tolist())
        dropped = [n for i, n in enumerate(ds.feature_names) if i not in keep_set]
        warnings.warn(f"dropping constant feature column(s): {dropped}", RuntimeWarning,
                      stacklevel=2)
    if keep.size == 0:
        raise ValueError("every feature column is constant; nothing to scale")
    return ScalerParams(
        mode=mode,
        kept_indices=tuple(int(i) for i in keep),
        feature_names=tuple(ds.feature_names[i] for i in keep),
        shift=shift[keep].copy(),
        scale=scale[keep].copy(),
    )


def apply_scaler(params: ScalerParams, ds: Dataset) -> Dataset:
    """Transform any dataset with the fitted statistics.

    minmax_pi maps the training range onto [0, pi] and clips values that
    fall outside it (test rows may); standardize centres and divides by
    the population std.
    """
    idx = list(params.kept_indices)
    x = ds.features[:, idx]
    if params.mode == MINMAX_PI:
        out = (x - params.shift) / params.scale * math.pi
        out = np.clip(out, 0.0, math.pi)
    else:
        out = (x - params.shift) / params.scale
    return Dataset(out, ds.labels, params.feature_names)


def select_features(ds: Dataset, k: int = 8) -> np.ndarray:
    """Indices of the k columns with the largest class-mean separation.

    Score = |mean_1 - mean_0| / (pooled population std + 1e-12); ties
    resolve to the lower column index.  Returned indices are ascending,
    preserving column order for ``take_features``.
    """
    k = cast_value(int, k, "k")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    x, y = ds.features, ds.labels
    d = x.shape[1]
    if k >= d:
        return np.arange(d)
    ones = y == 1
    zeros = ~ones
    if not ones.any() or not zeros.any():
        raise ValueError("feature selection needs both classes present")
    mu1 = x[ones].mean(axis=0)
    mu0 = x[zeros].mean(axis=0)
    var1 = x[ones].var(axis=0)
    var0 = x[zeros].var(axis=0)
    n1, n0 = int(ones.sum()), int(zeros.sum())
    pooled = np.sqrt((n1 * var1 + n0 * var0) / (n1 + n0))
    score = np.abs(mu1 - mu0) / (pooled + 1e-12)
    # Stable sort on negated scores keeps the lower index first on ties.
    ranked = np.argsort(-score, kind="stable")[:k]
    return np.sort(ranked)


def take_rows(ds: Dataset, idx: np.ndarray) -> Dataset:
    return Dataset(ds.features[idx], ds.labels[idx], ds.feature_names)


def take_features(ds: Dataset, indices) -> Dataset:
    idx = [int(i) for i in indices]
    return Dataset(ds.features[:, idx], ds.labels, tuple(ds.feature_names[i] for i in idx))


# -- cache files used by the CLI ---------------------------------------------


def save_dataset(directory, ds: Dataset) -> None:
    """Write features.npy / labels.npy / feature_names.json (all
    byte-deterministic for identical inputs, written atomically)."""
    from io import BytesIO

    from .artifacts import canonical_json, write_bytes_atomic, write_text_atomic

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, arr in (("features.npy", ds.features), ("labels.npy", ds.labels)):
        buf = BytesIO()
        np.save(buf, arr)
        write_bytes_atomic(directory / name, buf.getvalue())
    write_text_atomic(directory / "feature_names.json", canonical_json(list(ds.feature_names)))


def _read_npy(path: Path) -> np.ndarray:
    try:
        arr = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError, tokenize.TokenError) as exc:
        raise ValueError(f"{path}: unreadable .npy file ({exc})") from None
    if not isinstance(arr, np.ndarray):  # an .npz archive
        raise ValueError(f"{path}: not a single .npy array")
    return arr


def load_dataset(directory) -> Dataset:
    """The dataset that ``save_dataset`` wrote under ``directory``.  A cache
    it cannot have written raises one ValueError naming the file: an
    unreadable ``.npy``, features that are not a real, finite 2-d matrix,
    or labels or names that are not one 0/1 label per row and one string
    per column."""
    directory = Path(directory)
    feat_path = directory / "features.npy"
    if not feat_path.exists():
        raise ValueError(f"no cached dataset under {directory} (run the ingest command first)")
    x = _read_npy(feat_path)
    if x.dtype.kind not in "biuf" or x.ndim != 2 or not np.isfinite(x).all():
        raise ValueError(f"{feat_path}: not a 2-d matrix of real, finite numbers")
    label_path = directory / "labels.npy"
    y = _read_npy(label_path)
    if y.dtype.kind not in "biuf" or y.shape != (len(x),) or not np.isin(y, (0, 1)).all():
        raise ValueError(f"{label_path}: not one 0/1 label per row of {feat_path.name}")
    names_path = directory / "feature_names.json"
    names = read_json(names_path)
    if not (isinstance(names, list) and len(names) == x.shape[1]
            and all(isinstance(n, str) for n in names)):
        raise ValueError(f"{names_path}: not one string per column of {feat_path.name}")
    return Dataset(x, y, tuple(names))
