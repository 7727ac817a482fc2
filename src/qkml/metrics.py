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

from dataclasses import dataclass, field
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
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision = 0.0
        undefined.append("precision")
    if support > 0:
        recall = tp / support
    else:
        recall = 0.0
        undefined.append("recall")
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
        undefined.append("f1")
    return ClassMetrics(precision, recall, f1, support, tuple(undefined))


def report_from_confusion(cm: ConfusionMatrix) -> ClassificationReport:
    m0 = _rates_for_class(cm, 0)
    m1 = _rates_for_class(cm, 1)
    total = cm.total
    acc = (int(cm.counts[0, 0]) + int(cm.counts[1, 1])) / total
    macro = tuple(
        (getattr(m0, f) + getattr(m1, f)) / 2 for f in ("precision", "recall", "f1")
    )
    weighted = tuple(
        (m0.support * getattr(m0, f) + m1.support * getattr(m1, f)) / total
        for f in ("precision", "recall", "f1")
    )
    return ClassificationReport(
        classes=(m0, m1),
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

    c0, c1 = report.classes
    lines = [
        _line("", "precision", "recall", "f1-score", "support"),
        "",
        row("Class 0", (c0.precision, c0.recall, c0.f1), c0.support),
        row("Class 1", (c1.precision, c1.recall, c1.f1), c1.support),
        "",
        _line("accuracy", "", "", format_rate(report.accuracy), report.total_support),
        row("macro avg", report.macro_avg, report.total_support),
        row("weighted avg", report.weighted_avg, report.total_support),
    ]
    return "\n".join(lines) + "\n"


def report_to_dict(report: ClassificationReport) -> dict:
    """Machine-readable form with unrounded rates and undefined flags."""
    def cls(m: ClassMetrics) -> dict:
        return {
            "precision": m.precision,
            "recall": m.recall,
            "f1": m.f1,
            "support": m.support,
            "undefined": list(m.undefined),
        }

    return {
        "class_0": cls(report.classes[0]),
        "class_1": cls(report.classes[1]),
        "accuracy": report.accuracy,
        "macro_avg": dict(zip(("precision", "recall", "f1"), report.macro_avg)),
        "weighted_avg": dict(
            zip(("precision", "recall", "f1"), report.weighted_avg)
        ),
        "total_support": report.total_support,
    }
