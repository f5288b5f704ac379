import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seqids import metrics as M
from seqids.errors import ContractError


def auc_pair_counting(scores: np.ndarray, positive: np.ndarray) -> float:
    """O(N^2) oracle: P(score+ > score-) + 0.5 * P(tie) over all pairs."""
    pos = scores[positive]
    neg = scores[~positive]
    wins = ties = 0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def random_confusion(rng, k):
    return M.ConfusionMatrix(counts=rng.integers(0, 40, size=(k, k)).astype(np.int64),
                             class_names=[str(i) for i in range(k)])


# ---------------------------------------------------------------------------
# Confusion matrix

def test_perfect_predictions_give_diagonal():
    y = np.array([0, 1, 1, 2, 2, 2])
    cm = M.confusion(y, y, 3)
    np.testing.assert_array_equal(cm.counts, np.diag([1, 2, 3]))


def test_confusion_hand_count():
    cm = M.confusion([0, 0, 1], [0, 1, 1], 2)
    np.testing.assert_array_equal(cm.counts, [[1, 1], [0, 1]])


def test_confusion_length_mismatch():
    with pytest.raises(ContractError):
        M.confusion([0, 1], [0], 2)


def per_class_reference(counts: np.ndarray):
    """Class by class: (tp, fp, fn, tn, precision, recall, f1, fpr, degenerate)
    with scalar 0/0 -> 0, and the micro FPR. TN counts the cells outside the
    class's row and column."""
    def ratio(num, den):
        return (0.0, True) if den == 0 else (num / den, False)

    rows, fp_total, tn_total = [], 0, 0
    for c in range(counts.shape[0]):
        tp = int(counts[c, c])
        fp = int(counts[:, c].sum()) - tp
        fn = int(counts[c, :].sum()) - tp
        tn = int(np.delete(np.delete(counts, c, axis=0), c, axis=1).sum())
        p, d1 = ratio(tp, tp + fp)
        r, d2 = ratio(tp, tp + fn)
        fpr, d3 = ratio(fp, fp + tn)
        f1, d4 = (2 * p * r / (p + r), False) if p + r > 0 else (0.0, True)
        rows.append((tp, fp, fn, tn, p, r, f1, fpr, d1 or d2 or d3 or d4))
        fp_total, tn_total = fp_total + fp, tn_total + tn
    return rows, ratio(fp_total, fp_total + tn_total)[0]


confusion_counts = st.integers(1, 6).flatmap(
    lambda k: hnp.arrays(np.int64, (k, k), elements=st.integers(0, 50))
).filter(lambda counts: counts.sum() > 0)


@settings(max_examples=200, deadline=None)
@given(counts=confusion_counts)
def test_class_report_matches_per_class_reference(counts):
    cm = M.ConfusionMatrix(counts=counts, class_names=[str(i) for i in range(len(counts))])
    rep = M.class_report(cm)
    rows, micro_fpr = per_class_reference(counts)
    for tp, fp, fn, tn, *_ in rows:
        assert tp + fp + fn + tn == cm.total
    # exact equality, degenerate flags included
    assert rep.precision.tolist() == [r[4] for r in rows]
    assert rep.recall.tolist() == [r[5] for r in rows]
    assert rep.f1.tolist() == [r[6] for r in rows]
    assert rep.fpr.tolist() == [r[7] for r in rows]
    assert rep.degenerate.tolist() == [r[8] for r in rows]
    assert rep.support.tolist() == [r[0] + r[2] for r in rows]
    assert rep.micro_fpr == micro_fpr
    for rate in (rep.macro_precision, rep.macro_recall, rep.macro_f1):
        assert 0.0 <= rate <= 1.0


# ---------------------------------------------------------------------------
# Class report

def test_f1_from_percent_rounded_precision_recall():
    # precision 0.99 and recall 0.97 give F1 0.9799, i.e. 98% after rounding
    cm = M.ConfusionMatrix(counts=np.array([[97, 3], [1, 899]], dtype=np.int64),
                           class_names=["pos", "rest"])
    rep = M.class_report(cm)
    f1 = 2 * 0.99 * 0.97 / (0.99 + 0.97)
    assert f1 == pytest.approx(0.9799, abs=1e-4)
    assert round(f1, 2) == 0.98
    # same identity straight from the report on a matrix with those rates
    p, r = rep.precision[0], rep.recall[0]
    assert rep.f1[0] == pytest.approx(2 * p * r / (p + r))


def test_f1_equals_rate_when_precision_equals_recall():
    for p in (0.25, 0.5, 0.9):
        f1 = 2 * p * p / (p + p)
        assert f1 == pytest.approx(p)


def test_degenerate_class_flags_zero():
    cm = M.ConfusionMatrix(counts=np.array([[5, 0, 0], [0, 5, 0], [0, 0, 0]],
                                           dtype=np.int64),
                           class_names=["a", "b", "ghost"])
    rep = M.class_report(cm)
    assert rep.precision[2] == rep.recall[2] == rep.f1[2] == 0.0
    assert rep.degenerate[2]
    assert not rep.degenerate[0]
    assert np.isfinite(rep.macro_f1)


def test_support_sums_to_total():
    rng = np.random.default_rng(1)
    cm = random_confusion(rng, 4)
    rep = M.class_report(cm)
    assert rep.support.sum() == cm.total


def test_accuracy_equals_weighted_recall():
    rng = np.random.default_rng(2)
    for _ in range(100):
        cm = random_confusion(rng, int(rng.integers(2, 7)))
        if cm.total == 0:
            continue
        rep = M.class_report(cm)
        assert rep.accuracy == pytest.approx(rep.weighted_recall, abs=1e-12)


# ---------------------------------------------------------------------------
# FPR

def test_perfect_classifier_has_zero_fpr():
    y = np.array([0, 1, 2, 0, 1, 2])
    rep = M.class_report(M.confusion(y, y, 3))
    np.testing.assert_array_equal(rep.fpr, np.zeros(3))
    assert rep.macro_fpr == 0.0


def test_binary_fpr_hand_count():
    # class 1 as positive: FP = cm[0,1] = 2, TN = cm[0,0] = 8
    cm = M.ConfusionMatrix(counts=np.array([[8, 2], [1, 9]], dtype=np.int64),
                           class_names=["neg", "pos"])
    assert M.class_report(cm).fpr[1] == pytest.approx(2 / 10)


def test_constant_predictor_fpr_enumeration():
    # always predicting class 0 on balanced 3-class data: class 0 collects
    # all negatives (FPR 1), the others never fire (FPR 0)
    y = np.array([0] * 10 + [1] * 10 + [2] * 10)
    pred = np.zeros(30, dtype=int)
    rep = M.class_report(M.confusion(y, pred, 3))
    np.testing.assert_allclose(rep.fpr, [1.0, 0.0, 0.0])
    assert rep.macro_fpr == pytest.approx(1 / 3)


# ---------------------------------------------------------------------------
# ROC / AUC

def test_perfectly_separating_scores_have_auc_one():
    y = np.array([0, 0, 1, 1])
    scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9], [0.2, 0.8]])
    curves = M.roc_auc(scores, y)
    assert curves[0].auc == pytest.approx(1.0)
    assert curves[1].auc == pytest.approx(1.0)


def test_label_independent_scores_have_auc_half():
    rng = np.random.default_rng(3)
    n = 2000
    y = rng.integers(0, 2, size=n)
    s = rng.random(n)
    scores = np.column_stack([1 - s, s])
    curves = M.roc_auc(scores, y)
    assert abs(curves[1].auc - 0.5) < 0.05


def test_auc_matches_pair_counting_oracle():
    rng = np.random.default_rng(4)
    for trial in range(20):
        n = int(rng.integers(10, 51))
        y = rng.integers(0, 3, size=n)
        while len(np.unique(y)) < 3:
            y = rng.integers(0, 3, size=n)
        scores = rng.random((n, 3))
        # quantize part of the columns to force ties
        scores[:, trial % 3] = np.round(scores[:, trial % 3], 1)
        curves = M.roc_auc(scores, y)
        for c in range(3):
            oracle = auc_pair_counting(scores[:, c], y == c)
            assert curves[c].auc == pytest.approx(oracle, abs=1e-9)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, size=60)
    s = rng.random(60)
    scores = np.column_stack([1 - s, s])
    base = M.roc_auc(scores, y)[1].auc
    for transform in (lambda x: 3 * x + 1, np.exp, lambda x: x ** 3):
        warped = np.column_stack([1 - s, transform(s)])
        assert M.roc_auc(warped, y)[1].auc == pytest.approx(base, abs=1e-12)


def test_roc_curve_endpoints_and_monotonicity():
    rng = np.random.default_rng(6)
    y = rng.integers(0, 2, size=40)
    scores = rng.random((40, 2))
    for curve in M.roc_auc(scores, y):
        assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
        assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert np.all((curve.tpr >= 0) & (curve.tpr <= 1))


def test_absent_class_yields_undefined_curve():
    y = np.array([0, 0, 1, 1])
    scores = np.full((4, 3), 1 / 3)
    curves = M.roc_auc(scores, y)
    assert [c.defined for c in curves] == [True, True, False]
    assert curves[2].auc is None and curves[2].fpr.size == 0
    # a curve's class is its position in the list, not a field of its own
    assert "class_index" not in {f.name for f in dataclasses.fields(M.RocCurve)}


# ---------------------------------------------------------------------------
# Serialization

def test_report_json_schema():
    y = np.array([0, 1, 2, 0, 1, 2, 0])
    pred = np.array([0, 1, 2, 0, 2, 2, 1])
    cm = M.confusion(y, pred, 3, class_names=["benign", "ddos", "mitm"])
    rep = M.class_report(cm)
    scores = np.eye(3)[pred] * 0.8 + 0.1
    blob = json.loads(json.dumps(M.report_to_dict(rep, cm, M.roc_auc(scores, y))))
    assert set(blob) == {"accuracy", "macro", "weighted", "micro_fpr",
                         "per_class", "confusion", "auc"}
    assert {p["name"] for p in blob["per_class"]} == {"benign", "ddos", "mitm"}
    assert set(blob["auc"]) == {"benign", "ddos", "mitm"}
    assert all(k in blob["per_class"][0]
               for k in ("precision", "recall", "f1", "fpr", "support", "degenerate"))
    assert blob["macro"]["fpr"] == pytest.approx(rep.macro_fpr)


def test_report_text_layout():
    y = np.array([0, 1, 0, 1])
    cm = M.confusion(y, y, 2, class_names=["benign", "attack"])
    text = M.format_report_text(M.class_report(cm))
    assert "precision" in text and "recall" in text and "support" in text
    assert "benign" in text and "attack" in text
    assert "weighted avg" in text and "macro avg" in text


def test_csv_outputs(tmp_path):
    y = np.array([0, 1, 0, 1, 1])
    pred = np.array([0, 1, 1, 1, 0])
    cm = M.confusion(y, pred, 2, class_names=["a", "b"])
    M.confusion_to_csv(cm, tmp_path / "cm.csv")
    lines = (tmp_path / "cm.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[1:] == ["a", "b"]
    assert len(lines) == 3
    scores = np.random.default_rng(7).random((5, 2))
    M.roc_to_csv(M.roc_auc(scores, y), ["a", "b"], tmp_path / "roc.csv")
    roc_lines = (tmp_path / "roc.csv").read_text().strip().splitlines()
    assert roc_lines[0] == "class,threshold,fpr,tpr"
    assert len(roc_lines) > 2
    assert {line.split(",")[0] for line in roc_lines[1:]} == {"a", "b"}


def test_report_independent_of_prediction_order():
    rng = np.random.default_rng(8)
    y = rng.integers(0, 3, size=50)
    pred = rng.integers(0, 3, size=50)
    perm = rng.permutation(50)
    r1 = M.class_report(M.confusion(y, pred, 3))
    r2 = M.class_report(M.confusion(y[perm], pred[perm], 3))
    assert r1.accuracy == r2.accuracy
    np.testing.assert_array_equal(r1.f1, r2.f1)
