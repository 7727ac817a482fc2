"""Confusion matrices, classification reports, and display rounding."""

import numpy as np
import pytest

from qkml.metrics import (
    ClassificationReport,
    ClassMetrics,
    ConfusionMatrix,
    accuracy,
    classification_report,
    confusion_matrix,
    confusion_to_csv,
    format_rate,
    render_report,
    report_from_confusion,
    report_to_dict,
    round_half_up,
)


# -- confusion matrix --------------------------------------------------------


def test_confusion_perfect_prediction():
    cm = confusion_matrix((0, 1), (0, 1))
    assert cm.counts.tolist() == [[1, 0], [0, 1]]
    assert cm.total == 2


def test_confusion_hand_count():
    cm = confusion_matrix((0, 0, 1, 1), (0, 1, 1, 1))
    assert cm.counts.tolist() == [[1, 1], [0, 2]]


def test_confusion_all_misses():
    cm = confusion_matrix((1, 1), (0, 0))
    assert cm.counts.tolist() == [[0, 0], [2, 0]]


def test_confusion_rejects_bad_input():
    with pytest.raises(ValueError, match="length mismatch"):
        confusion_matrix((0, 1), (0, 1, 1))
    with pytest.raises(ValueError, match="no samples"):
        confusion_matrix((), ())
    with pytest.raises(ValueError, match="0/1"):
        confusion_matrix((0, 2), (0, 1))


def test_confusion_matrix_type_validation():
    with pytest.raises(ValueError, match="2x2"):
        ConfusionMatrix(np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="negative"):
        ConfusionMatrix(np.array([[1, -1], [0, 0]]))


def test_confusion_to_csv():
    cm = confusion_matrix((0, 0, 1, 1), (0, 1, 1, 1))
    assert confusion_to_csv(cm) == "1,1\n0,2\n"


# -- accuracy ----------------------------------------------------------------


def test_accuracy_hand_example():
    assert accuracy((0, 0, 1, 1), (0, 1, 1, 1)) == 0.75


def test_accuracy_equals_trace_over_total():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        t = rng.integers(0, 2, size=n)
        p = rng.integers(0, 2, size=n)
        cm = confusion_matrix(t, p)
        assert accuracy(t, p) == np.trace(cm.counts) / cm.total


# -- classification report ---------------------------------------------------


def test_report_hand_example():
    rep = classification_report((0, 0, 1, 1), (0, 1, 1, 1))
    assert rep.accuracy == 0.75
    assert rep.classes[1].precision == pytest.approx(2 / 3, abs=1e-15)
    assert rep.classes[1].recall == 1.0
    assert rep.classes[1].support == 2
    assert rep.classes[0].support == 2
    assert rep.total_support == 4


def test_f1_is_harmonic_mean():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(4, 60))
        t = rng.integers(0, 2, size=n)
        p = rng.integers(0, 2, size=n)
        rep = classification_report(t, p)
        for m in rep.classes:
            if m.precision + m.recall > 0:
                hm = 2 * m.precision * m.recall / (m.precision + m.recall)
                assert abs(m.f1 - hm) < 1e-9


def test_published_class_row_f1():
    # precision 0.73, recall 0.75 print as f1 0.74.
    f1 = 2 * 0.73 * 0.75 / (0.73 + 0.75)
    assert format_rate(f1) == "0.74"


def test_average_rows_at_display_rounding():
    # Class f1s (0.59, 0.74) with supports (432, 668).
    macro = (0.59 + 0.74) / 2
    weighted = (432 * 0.59 + 668 * 0.74) / 1100
    assert format_rate(macro) == "0.67"
    assert format_rate(weighted) == "0.68"


def test_macro_and_weighted_averaging():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(6, 50))
        t = rng.integers(0, 2, size=n)
        p = rng.integers(0, 2, size=n)
        rep = classification_report(t, p)
        m0, m1 = rep.classes
        for i, f in enumerate(("precision", "recall", "f1")):
            assert rep.macro_avg[i] == (getattr(m0, f) + getattr(m1, f)) / 2
            assert rep.weighted_avg[i] == (
                m0.support * getattr(m0, f) + m1.support * getattr(m1, f)
            ) / rep.total_support


def test_micro_consistency_class1_recall():
    rng = np.random.default_rng(11)
    t = rng.integers(0, 2, size=30)
    p = rng.integers(0, 2, size=30)
    cm = confusion_matrix(t, p)
    rep = report_from_confusion(cm)
    denom = cm.counts[1, 0] + cm.counts[1, 1]
    assert rep.classes[1].recall == cm.counts[1, 1] / denom


def test_permutation_invariance():
    rng = np.random.default_rng(13)
    t = rng.integers(0, 2, size=25)
    p = rng.integers(0, 2, size=25)
    perm = rng.permutation(25)
    assert report_to_dict(classification_report(t, p)) == report_to_dict(
        classification_report(t[perm], p[perm])
    )


def test_zero_denominator_rates_flagged():
    rep = classification_report((0, 0, 0), (0, 0, 0))
    m1 = rep.classes[1]
    assert m1.precision == 0.0 and m1.recall == 0.0 and m1.f1 == 0.0
    assert m1.undefined == ("precision", "recall", "f1")
    assert m1.support == 0
    assert rep.accuracy == 1.0
    assert rep.classes[0].undefined == ()


@pytest.mark.parametrize("true,pred,undefined", [
    ((0, 0, 1), (0, 0, 0), ("precision", "f1")),  # class 1 never predicted
    ((0, 0, 0), (0, 1, 0), ("recall", "f1")),  # class 1 predicted but absent
], ids=["never-predicted", "absent"])
def test_each_undefined_rate_is_flagged_in_report_order(true, pred, undefined):
    m1 = classification_report(true, pred).classes[1]
    assert m1.undefined == undefined
    assert m1.precision == m1.recall == m1.f1 == 0.0


# -- display rounding --------------------------------------------------------


def test_round_half_up_examples():
    assert round_half_up(0.665) == 0.67
    assert round_half_up(0.675) == 0.68
    assert round_half_up(0.664) == 0.66
    assert round_half_up(0.5, 0) == 1.0


def test_format_rate_fixed_width():
    assert format_rate(1.0) == "1.00"
    assert format_rate(0.0) == "0.00"
    assert format_rate(0.7) == "0.70"


# -- rendering ---------------------------------------------------------------


def _figure_style_report():
    return ClassificationReport(
        classes=(
            ClassMetrics(0.60, 0.58, 0.59, 432),
            ClassMetrics(0.73, 0.75, 0.74, 668),
        ),
        accuracy=0.67,
        macro_avg=(0.665, 0.665, 0.665),
        weighted_avg=(0.6790, 0.6832, 0.6811),
        total_support=1100,
    )


def test_render_class1_row():
    text = render_report(_figure_style_report())
    line = [ln for ln in text.splitlines() if ln.lstrip().startswith("Class 1")][0]
    assert line.split() == ["Class", "1", "0.73", "0.75", "0.74", "668"]


def test_render_exact_layout():
    text = render_report(_figure_style_report())
    lines = text.splitlines()
    assert lines[0] == (
        "             precision    recall  f1-score   support"
    )
    assert lines[2] == (
        "     Class 0      0.60      0.58      0.59       432"
    )
    assert lines[6] == (
        "   macro avg      0.67      0.67      0.67      1100"
    )
    assert lines[7] == (
        "weighted avg      0.68      0.68      0.68      1100"
    )


def test_render_accuracy_row():
    text = render_report(_figure_style_report())
    acc = [ln for ln in text.splitlines() if ln.lstrip().startswith("accuracy")][0]
    assert acc.split() == ["accuracy", "0.67", "1100"]


def test_render_perfect_prediction_all_ones():
    text = render_report(classification_report((0, 1), (0, 1)))
    for name in ("Class 0", "Class 1"):
        line = [ln for ln in text.splitlines() if ln.lstrip().startswith(name)][0]
        assert line.split()[2:5] == ["1.00", "1.00", "1.00"]


def test_render_is_deterministic():
    rep = classification_report((0, 1, 1, 0, 1), (0, 1, 0, 0, 1))
    assert render_report(rep) == render_report(rep)
    assert render_report(rep).encode() == render_report(rep).encode()


def test_report_to_dict_full_precision():
    rep = classification_report((0, 0, 1, 1), (0, 1, 1, 1))
    doc = report_to_dict(rep)
    assert doc["class_1"]["precision"] == 2 / 3
    assert doc["accuracy"] == 0.75
    assert doc["total_support"] == 4
    assert doc["class_0"]["undefined"] == []
