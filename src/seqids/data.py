"""Data pipeline: CSV ingestion, label encoding, stratified splitting, SMOTE
oversampling, standardization, and synthetic dataset generation.

The processing order is fixed: split first, oversample the training split
only, and fit standardization statistics on the (possibly oversampled)
training split. Synthetic rows therefore never reach the test set and test
features are always scaled with training statistics.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, InputError

#: cell values treated as unparseable in any column
MISSING_MARKERS = {"", "?", "na", "n/a", "nan", "null", "none"}


@dataclass
class LabelEncoder:
    """Bijection between class names and contiguous indices, lexicographic."""
    class_names: list[str] = field(default_factory=list)

    def fit(self, names) -> "LabelEncoder":
        self.class_names = sorted(set(names))
        return self

    @property
    def mapping(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.class_names)}

    def encode(self, names) -> np.ndarray:
        mapping = self.mapping
        try:
            return np.array([mapping[n] for n in names], dtype=np.int64)
        except KeyError as exc:
            raise ContractError(f"unknown class label {exc.args[0]!r}") from None

    def decode(self, indices) -> list[str]:
        return [self.class_names[i] for i in indices]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


@dataclass
class Dataset:
    X: np.ndarray                 # (N, F) float
    y: np.ndarray                 # (N,) int in 0..K-1
    encoder: LabelEncoder
    feature_names: list[str]

    def __post_init__(self):
        if self.X.shape[0] != self.y.shape[0]:
            raise ContractError(f"X has {self.X.shape[0]} rows but y has {self.y.shape[0]}")

    @property
    def num_features(self) -> int:
        return self.X.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.encoder.num_classes)


@dataclass
class SplitPair:
    train: Dataset
    test: Dataset
    fraction: float


@dataclass
class RawTable:
    column_names: list[str]
    rows: list[list[str]]


def read_table(path, delimiter: str = ",") -> RawTable:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: file is empty") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            rows.append(row)
    if not rows:
        raise InputError(f"{path}: no data rows")
    return RawTable(column_names=header, rows=rows)


def table_to_dataset(table: RawTable, label_column: str) -> tuple[Dataset, int]:
    """Numerize a raw table; returns the dataset and the dropped-row count.

    A feature column is numeric when every non-missing cell parses as a
    float; otherwise it is label-encoded per column. Rows containing a
    missing marker, or a non-finite value (``inf``, ``-Infinity``,
    ``1e999``) in a numeric column, are dropped.
    """
    if label_column not in table.column_names:
        raise ConfigError(
            f"label column {label_column!r} not found; columns: {table.column_names}")
    label_idx = table.column_names.index(label_column)
    feature_idx = [i for i in range(len(table.column_names)) if i != label_idx]
    feature_names = [table.column_names[i] for i in feature_idx]

    keep = np.array([r[label_idx].strip().lower() not in MISSING_MARKERS for r in table.rows])
    numeric = {}
    for i in feature_idx:
        cells = [r[i] for r in table.rows]
        present = [c.strip().lower() not in MISSING_MARKERS for c in cells]
        try:
            values = np.array([float(c) if ok else np.nan for c, ok in zip(cells, present)])
        except ValueError:  # a non-numeric cell: the column is categorical
            keep &= present
        else:
            numeric[i] = values
            keep &= np.isfinite(values)  # missing cells are nan here
    kept = [r for r, ok in zip(table.rows, keep) if ok]
    dropped = len(table.rows) - len(kept)
    if not kept:
        raise InputError("all rows dropped during numerization")

    encoder = LabelEncoder().fit(r[label_idx] for r in kept)
    y = encoder.encode([r[label_idx] for r in kept])

    columns = []
    for i in feature_idx:
        if i in numeric:
            columns.append(numeric[i][keep])
        else:
            cells = [r[i] for r in kept]
            columns.append(LabelEncoder().fit(cells).encode(cells).astype(float))
    X = np.column_stack(columns)
    return Dataset(X=X, y=y, encoder=encoder, feature_names=feature_names), dropped


def load_csv(path, label_column: str = "label",
             delimiter: str = ",") -> tuple[Dataset, int]:
    """Read a delimited text file into a numerized dataset."""
    return table_to_dataset(read_table(path, delimiter), label_column)


def save_csv(dataset: Dataset, path, label_column: str = "label",
             delimiter: str = ",") -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(dataset.feature_names + [label_column])
        names = dataset.encoder.decode(dataset.y)
        for row, name in zip(dataset.X, names):
            writer.writerow([repr(float(v)) for v in row] + [name])


def train_test_split(d: Dataset, fraction: float = 0.8, seed: int = 0) -> SplitPair:
    """Seeded stratified split: each class keeps its proportion in both halves."""
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c in range(d.encoder.num_classes):
        members = np.flatnonzero(d.y == c)
        if members.size < 2:
            raise ContractError(
                f"class {d.encoder.class_names[c]!r} has {members.size} sample(s); "
                "stratified split needs at least 2")
        members = rng.permutation(members)
        k = int(round(fraction * members.size))
        k = min(max(k, 1), members.size - 1)
        train_idx.append(members[:k])
        test_idx.append(members[k:])
    train_idx = np.concatenate(train_idx)
    test_idx = np.concatenate(test_idx)

    def subset(idx):
        return Dataset(X=d.X[idx].copy(), y=d.y[idx].copy(),
                       encoder=d.encoder, feature_names=d.feature_names)

    return SplitPair(train=subset(train_idx), test=subset(test_idx), fraction=fraction)


#: rows per block of the SMOTE neighbor search; bounds its memory to
#: about ``_KNN_BLOCK * n`` distances for a class of ``n`` rows
_KNN_BLOCK = 512


def _nearest_neighbors(X: np.ndarray, k: int) -> np.ndarray:
    """(n, k) indices of each row's k nearest other rows, by Euclidean distance.

    Squared distances are |a|^2 + |b|^2 - 2ab, computed ``_KNN_BLOCK`` rows
    at a time, so no n x n x F difference array is built.
    """
    n = X.shape[0]
    sq = np.einsum("ij,ij->i", X, X)
    nn = np.empty((n, k), dtype=np.intp)
    for start in range(0, n, _KNN_BLOCK):
        stop = min(start + _KNN_BLOCK, n)
        d2 = sq[start:stop, None] + sq - 2.0 * (X[start:stop] @ X.T)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf  # not its own neighbor
        nn[start:stop] = np.argsort(d2, axis=1)[:, :k]
    return nn


def smote_oversample(train: Dataset, k_neighbors: int = 5, seed: int = 0) -> Dataset:
    """Equalize class counts by interpolating between same-class neighbors.

    Each synthetic row is x + lam * (x_nn - x) for a base sample x, one of
    its k nearest same-class neighbors x_nn (Euclidean), and lam ~ U[0, 1].
    Original rows are preserved and come first.
    """
    counts = train.class_counts()
    target = counts.max()
    rng = np.random.default_rng(seed)
    new_X, new_y = [train.X], [train.y]
    for c in np.flatnonzero(counts < target):
        need = int(target - counts[c])
        members = np.flatnonzero(train.y == c)
        if members.size < 2:
            raise ContractError(
                f"class {train.encoder.class_names[c]!r} has one sample; SMOTE needs >= 2")
        Xc = train.X[members]
        k = min(k_neighbors, members.size - 1)
        nn_idx = _nearest_neighbors(Xc, k)
        base = rng.integers(0, members.size, size=need)
        pick = nn_idx[base, rng.integers(0, k, size=need)]
        lam = rng.random(need)[:, None]
        synth = Xc[base] + lam * (Xc[pick] - Xc[base])
        new_X.append(synth)
        new_y.append(np.full(need, c, dtype=train.y.dtype))
    return Dataset(X=np.concatenate(new_X), y=np.concatenate(new_y),
                   encoder=train.encoder, feature_names=train.feature_names)


@dataclass
class Standardizer:
    mean: np.ndarray
    scale: np.ndarray   # per-feature std with zero-variance floored to 1

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X - self.mean) / self.scale


def fit_standardizer(X: np.ndarray) -> Standardizer:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    zero = std == 0.0
    if np.any(zero):
        warnings.warn(f"{int(zero.sum())} zero-variance feature(s) standardized to 0")
        std = np.where(zero, 1.0, std)
    return Standardizer(mean=mean, scale=std)


def reshape_for_model(X: np.ndarray, standardizer: Standardizer | None = None) -> np.ndarray:
    """Scale (N, F) features and add the trailing channel axis -> (N, F, 1)."""
    if standardizer is not None:
        X = standardizer.transform(X)
    return X[:, :, None]


def synth_dataset(classes: int = 6, features: int = 60, per_class: int = 500,
                  imbalance_profile=None, seed: int = 0, separation: float = 5.0,
                  sequence_structure: bool = True, structure_strength: float = 0.75,
                  paired_centroids: bool = False) -> Dataset:
    """Gaussian class clusters with optional per-class feature autocorrelation.

    Centroids sit on orthonormal directions scaled so every pair is
    ``2 * separation`` apart in noise-sigma units: ``separation`` is the
    nearest-centroid margin. With ``sequence_structure`` the noise of class
    ``c`` is autoregressive at lag ``2c + 1`` with coefficient
    ``structure_strength`` (unit stationary variance), so classes differ in
    where along the feature axis their autocorrelation sits. Centroids are
    invisible to that signal and vice versa: temporal layers get
    distribution-level structure, including long-range lags no small
    convolution window can reach. ``imbalance_profile`` scales the
    per-class counts.

    With ``paired_centroids`` classes 2k and 2k+1 share centroid k and
    differ only in the sign of a long-lag autocorrelation (lag 5 + 2k).
    Mean-based classifiers then top out near 50% while sequence models can
    in principle reach 100%, which is what makes architecture comparisons
    on this generator informative.
    """
    if per_class < 2:
        raise ContractError("per_class must be >= 2")
    if classes > features:
        raise ContractError("synth_dataset needs features >= classes for orthogonal centroids")
    profile = np.ones(classes) if imbalance_profile is None else np.asarray(
        imbalance_profile, dtype=float)
    if profile.size != classes:
        raise ContractError(f"imbalance profile has {profile.size} entries for {classes} classes")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(features, classes)))
    directions = q.T
    strength = structure_strength if sequence_structure else 0.0

    xs, ys = [], []
    for c in range(classes):
        if paired_centroids:
            centroid = np.sqrt(2.0) * separation * directions[c // 2]
            lag, rho = 5 + 2 * (c // 2), strength * (1 if c % 2 == 0 else -1)
        else:
            centroid = np.sqrt(2.0) * separation * directions[c]
            lag, rho = 2 * c + 1, strength
        n_c = max(2, int(round(per_class * profile[c])))
        white = rng.normal(size=(n_c, features))
        noise = white
        if rho != 0.0 and lag < features:
            noise = white.copy()
            scale = np.sqrt(1.0 - rho ** 2)
            for t in range(lag, features):
                noise[:, t] = rho * noise[:, t - lag] + scale * white[:, t]
        xs.append(centroid + noise)
        ys.append(np.full(n_c, c, dtype=np.int64))
    X = np.concatenate(xs)
    y = np.concatenate(ys)
    encoder = LabelEncoder().fit(f"class{c:02d}" for c in range(classes))
    feature_names = [f"f{i:02d}" for i in range(features)]
    return Dataset(X=X, y=y, encoder=encoder, feature_names=feature_names)
