"""Multiclass evaluation: confusion matrix, per-class and aggregate
precision/recall/F1, one-vs-rest false-positive rates, ROC curves with
trapezoidal AUC, and report serialization.

All rates are recomputed from the confusion matrix alone, degenerate 0/0
ratios resolve to 0 with an explicit flag, and macro aggregates average
classes uniformly while weighted aggregates weight by support.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass
class ConfusionMatrix:
    counts: np.ndarray           # (K, K) int, rows = true class, cols = predicted
    class_names: list[str]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def confusion(true_labels, predicted_labels, num_classes: int,
              class_names: list[str] | None = None) -> ConfusionMatrix:
    t = np.asarray(true_labels)
    p = np.asarray(predicted_labels)
    if t.shape != p.shape:
        raise ContractError(f"label vectors differ in length: {t.shape} vs {p.shape}")
    if t.size and (min(t.min(), p.min()) < 0 or max(t.max(), p.max()) >= num_classes):
        raise ContractError(f"labels must lie in 0..{num_classes - 1}")
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    if class_names is None:
        class_names = [str(i) for i in range(num_classes)]
    return ConfusionMatrix(counts=counts, class_names=class_names)


def _ratio(num, den) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise num/den with the 0/0 -> 0 convention; the flag marks those entries."""
    num = np.asarray(num, dtype=float)
    zero = np.asarray(den) == 0
    return np.divide(num, den, out=np.zeros_like(num), where=~zero), zero


@dataclass
class ClassReport:
    class_names: list[str]
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    fpr: np.ndarray
    degenerate: np.ndarray       # bool per class: some rate hit 0/0
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    macro_fpr: float
    micro_fpr: float


def class_report(cm: ConfusionMatrix) -> ClassReport:
    """Per-class and aggregate rates, each class taken one-vs-rest."""
    if cm.total == 0:
        raise ContractError("cannot report on an empty confusion matrix")
    tp = np.diag(cm.counts)
    support = cm.counts.sum(axis=1)
    fp = cm.counts.sum(axis=0) - tp
    tn = cm.total - support - fp
    precision, d1 = _ratio(tp, tp + fp)
    recall, d2 = _ratio(tp, support)
    fpr_arr, d3 = _ratio(fp, fp + tn)
    f1, d4 = _ratio(2 * precision * recall, precision + recall)
    weights = support / cm.total
    micro_fpr, _ = _ratio(fp.sum(), fp.sum() + tn.sum())
    return ClassReport(
        class_names=list(cm.class_names),
        precision=precision, recall=recall, f1=f1,
        support=support, fpr=fpr_arr, degenerate=d1 | d2 | d3 | d4,
        accuracy=float(np.trace(cm.counts)) / cm.total,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        weighted_precision=float(precision @ weights),
        weighted_recall=float(recall @ weights),
        weighted_f1=float(f1 @ weights),
        macro_fpr=float(fpr_arr.mean()),
        micro_fpr=float(micro_fpr))


@dataclass
class RocCurve:
    """One class's one-vs-rest curve; its class is its position in
    ``roc_auc``'s list. A curve is undefined when the labels hold no row of
    its class, or no other: it has no points and no ``auc``."""
    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float | None

    @property
    def defined(self) -> bool:
        return self.auc is not None


def roc_auc(scores: np.ndarray, true_labels) -> list[RocCurve]:
    """One-vs-rest ROC per class; ties grouped, AUC by trapezoid rule.

    ``scores`` is (N, K) with one probability (or any monotone score) per
    class. A class absent from the labels yields an undefined curve.
    """
    scores = np.asarray(scores)
    y = np.asarray(true_labels)
    if scores.ndim != 2 or scores.shape[0] != y.shape[0]:
        raise ContractError(f"scores {scores.shape} do not match labels {y.shape}")
    curves = []
    for c in range(scores.shape[1]):
        pos = y == c
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        if n_pos == 0 or n_neg == 0:
            curves.append(RocCurve(np.array([]), np.array([]), np.array([]), auc=None))
            continue
        s = scores[:, c]
        order = np.argsort(-s, kind="stable")
        s_sorted = s[order]
        pos_sorted = pos[order].astype(np.int64)
        # group ties: keep only the last index of each distinct score
        distinct = np.flatnonzero(np.diff(s_sorted) != 0)
        boundaries = np.append(distinct, len(s_sorted) - 1)
        tps = np.cumsum(pos_sorted)[boundaries]
        fps = boundaries + 1 - tps
        tpr = np.concatenate([[0.0], tps / n_pos])
        fpr_pts = np.concatenate([[0.0], fps / n_neg])
        thresholds = np.concatenate([[np.inf], s_sorted[boundaries]])
        auc = float(np.trapezoid(tpr, fpr_pts))
        curves.append(RocCurve(thresholds, fpr_pts, tpr, auc=auc))
    return curves


# ---------------------------------------------------------------------------
# Serialization

def report_to_dict(report: ClassReport, cm: ConfusionMatrix, curves: list[RocCurve]) -> dict:
    return {
        "accuracy": report.accuracy,
        "macro": {"precision": report.macro_precision, "recall": report.macro_recall,
                  "f1": report.macro_f1, "fpr": report.macro_fpr},
        "weighted": {"precision": report.weighted_precision,
                     "recall": report.weighted_recall, "f1": report.weighted_f1},
        "micro_fpr": report.micro_fpr,
        "per_class": [
            {"name": report.class_names[c],
             "precision": float(report.precision[c]),
             "recall": float(report.recall[c]),
             "f1": float(report.f1[c]),
             "fpr": float(report.fpr[c]),
             "support": int(report.support[c]),
             "degenerate": bool(report.degenerate[c])}
            for c in range(len(report.class_names))],
        "confusion": cm.counts.tolist(),
        "auc": {name: c.auc for name, c in zip(report.class_names, curves)},
    }


def format_report_text(report: ClassReport) -> str:
    """Aligned per-class table: precision, recall, F1, support."""
    name_w = max(12, max(len(n) for n in report.class_names) + 2)
    lines = [f"{'':{name_w}s}{'precision':>10s}{'recall':>10s}{'f1':>10s}{'support':>10s}"]
    for c, name in enumerate(report.class_names):
        lines.append(f"{name:{name_w}s}{report.precision[c]:>10.4f}"
                     f"{report.recall[c]:>10.4f}{report.f1[c]:>10.4f}"
                     f"{report.support[c]:>10d}")
    lines.append("")
    lines.append(f"{'accuracy':{name_w}s}{report.accuracy:>40.4f}")
    lines.append(f"{'macro avg':{name_w}s}{report.macro_precision:>10.4f}"
                 f"{report.macro_recall:>10.4f}{report.macro_f1:>10.4f}"
                 f"{int(report.support.sum()):>10d}")
    lines.append(f"{'weighted avg':{name_w}s}{report.weighted_precision:>10.4f}"
                 f"{report.weighted_recall:>10.4f}{report.weighted_f1:>10.4f}"
                 f"{int(report.support.sum()):>10d}")
    lines.append(f"{'macro fpr':{name_w}s}{report.macro_fpr:>40.6f}")
    lines.append(f"{'micro fpr':{name_w}s}{report.micro_fpr:>40.6f}")
    return "\n".join(lines)


def confusion_to_csv(cm: ConfusionMatrix, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true\\pred"] + cm.class_names)
        for name, row in zip(cm.class_names, cm.counts):
            writer.writerow([name] + [int(v) for v in row])


def roc_to_csv(curves: list[RocCurve], class_names: list[str], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["class", "threshold", "fpr", "tpr"])
        for name, curve in zip(class_names, curves):
            for thr, f, t in zip(curve.thresholds, curve.fpr, curve.tpr):
                writer.writerow([name, repr(float(thr)), repr(float(f)), repr(float(t))])
