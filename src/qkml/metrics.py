"""Binary classification metrics and a fixed-width report renderer.

Counts are exact integers; rates are derived per class (the class under
evaluation acts as positive): precision = TP/(TP+FP), recall =
TP/(TP+FN), f1 = harmonic mean of the two, accuracy = correct/total.
A zero denominator yields rate 0.0 plus an ``undefined`` flag rather
than NaN.

Displayed rates are rounded half-up to two decimals through
``decimal.Decimal`` on the float's repr, so 0.665 prints as 0.67 (plain
``round`` would fall to banker's rounding and the binary float below
0.665 would truncate to 0.66).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from typing import Sequence

import numpy as np

from .dataset import check_labels


def round_half_up(x: float, ndigits: int = 2) -> float:
    """Decimal round-half-up on the shortest repr of ``x``."""
    return float(format_rate(x, ndigits))


def format_rate(x: float, ndigits: int = 2) -> str:
    """Fixed two-decimal display string, half-up."""
    quantum = Decimal(1).scaleb(-ndigits)
    return str(Decimal(repr(float(x))).quantize(quantum, rounding=ROUND_HALF_UP))


def _check_labels(y_true: Sequence, y_pred: Sequence):
    t = check_labels(y_true).ravel()
    p = check_labels(y_pred).ravel()
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: {t.shape[0]} true vs {p.shape[0]} predicted")
    if t.shape[0] == 0:
        raise ValueError("no samples")
    return t, p


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 integer counts; counts[t][p] = rows with true t predicted p."""

    counts: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (2, 2):
            raise ValueError(f"expected a 2x2 count matrix, got shape {c.shape}")
        if (c < 0).any():
            raise ValueError("negative counts")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion_matrix(y_true: Sequence, y_pred: Sequence) -> ConfusionMatrix:
    t, p = _check_labels(y_true, y_pred)
    c = np.zeros((2, 2), dtype=np.int64)
    np.add.at(c, (t, p), 1)
    return ConfusionMatrix(c)


def confusion_to_csv(cm: ConfusionMatrix) -> str:
    """Two CSV lines, rows = true class, columns = predicted class."""
    c = cm.counts
    return f"{c[0, 0]},{c[0, 1]}\n{c[1, 0]},{c[1, 1]}\n"


def accuracy(y_true: Sequence, y_pred: Sequence) -> float:
    t, p = _check_labels(y_true, y_pred)
    return float((t == p).sum() / t.shape[0])


_RATES = ("precision", "recall", "f1")


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    # Names of rates whose denominator was zero (reported as 0.0).
    undefined: tuple = ()


@dataclass(frozen=True)
class ClassificationReport:
    classes: tuple  # (ClassMetrics for class 0, ClassMetrics for class 1)
    accuracy: float
    macro_avg: tuple  # (precision, recall, f1)
    weighted_avg: tuple
    total_support: int


def _rates_for_class(cm: ConfusionMatrix, label: int) -> ClassMetrics:
    c = cm.counts
    tp = int(c[label, label])
    fp = int(c[1 - label, label])
    fn = int(c[label, 1 - label])
    support = tp + fn
    undefined = []

    def rate(name, num, den):
        """num / den, or 0.0 with ``name`` flagged undefined."""
        if den > 0:
            return num / den
        undefined.append(name)
        return 0.0

    precision = rate("precision", tp, tp + fp)
    recall = rate("recall", tp, support)
    f1 = rate("f1", 2.0 * precision * recall, precision + recall)
    return ClassMetrics(precision, recall, f1, support, tuple(undefined))


def report_from_confusion(cm: ConfusionMatrix) -> ClassificationReport:
    classes = tuple(_rates_for_class(cm, label) for label in (0, 1))
    total = cm.total
    if total == 0:
        raise ValueError("no samples")
    acc = (int(cm.counts[0, 0]) + int(cm.counts[1, 1])) / total
    # sum() adds its int start 0 exactly, so each is the plain two-term sum.
    macro = tuple(sum(getattr(m, f) for m in classes) / 2 for f in _RATES)
    weighted = tuple(sum(m.support * getattr(m, f) for m in classes) / total for f in _RATES)
    return ClassificationReport(
        classes=classes,
        accuracy=acc,
        macro_avg=macro,
        weighted_avg=weighted,
        total_support=total,
    )


def classification_report(y_true: Sequence, y_pred: Sequence) -> ClassificationReport:
    return report_from_confusion(confusion_matrix(y_true, y_pred))


_NAME_W = 12
_COL_W = 9


def _line(name, *cells) -> str:
    """One table line: the row name, then each cell right-aligned."""
    return " ".join([f"{name:>{_NAME_W}}", *(f"{c:>{_COL_W}}" for c in cells)])


def render_report(report: ClassificationReport) -> str:
    """Fixed-width table: per-class rows, then accuracy / macro avg /
    weighted avg, every rate shown half-up at two decimals."""

    def row(name, rates, support):
        return _line(name, *map(format_rate, rates), support)

    lines = [
        _line("", "precision", "recall", "f1-score", "support"),
        "",
        *(row(f"Class {k}", [getattr(c, f) for f in _RATES], c.support)
          for k, c in enumerate(report.classes)),
        "",
        _line("accuracy", "", "", format_rate(report.accuracy), report.total_support),
        row("macro avg", report.macro_avg, report.total_support),
        row("weighted avg", report.weighted_avg, report.total_support),
    ]
    return "\n".join(lines) + "\n"


def report_to_dict(report: ClassificationReport) -> dict:
    """Machine-readable form with unrounded rates and undefined flags."""
    classes = {f"class_{k}": {**asdict(m), "undefined": list(m.undefined)}
               for k, m in enumerate(report.classes)}
    return {
        **classes,
        "accuracy": report.accuracy,
        "macro_avg": dict(zip(_RATES, report.macro_avg)),
        "weighted_avg": dict(zip(_RATES, report.weighted_avg)),
        "total_support": report.total_support,
    }
