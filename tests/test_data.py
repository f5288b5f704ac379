import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqids import data as D
from seqids.errors import ConfigError, ContractError, InputError


def nearest_centroid_accuracy(train: D.Dataset, test: D.Dataset) -> float:
    """Brute-force oracle: classify by Euclidean distance to class means."""
    centroids = np.stack([train.X[train.y == c].mean(axis=0)
                          for c in range(train.encoder.num_classes)])
    d2 = ((test.X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(d2.argmin(axis=1) == test.y))


def brute_force_neighbors(X, k):
    """Each row's k nearest other rows from the full n x n x F difference array."""
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1)[:, :k]


def smote_reference(train: D.Dataset, k_neighbors: int = 5, seed: int = 0):
    """SMOTE as first written: dense neighbor search, same draws in the same order."""
    counts = train.class_counts()
    rng = np.random.default_rng(seed)
    xs, ys = [train.X], [train.y]
    for c in np.flatnonzero(counts < counts.max()):
        need = int(counts.max() - counts[c])
        Xc = train.X[train.y == c]
        k = min(k_neighbors, Xc.shape[0] - 1)
        nn = brute_force_neighbors(Xc, k)
        base = rng.integers(0, Xc.shape[0], size=need)
        pick = nn[base, rng.integers(0, k, size=need)]
        lam = rng.random(need)[:, None]
        xs.append(Xc[base] + lam * (Xc[pick] - Xc[base]))
        ys.append(np.full(need, c, dtype=train.y.dtype))
    return np.concatenate(xs), np.concatenate(ys)


def write_csv(path, header, rows):
    path.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")


# ---------------------------------------------------------------------------
# Label encoding and CSV ingestion

def test_encoder_is_lexicographic():
    enc = D.LabelEncoder().fit(["b", "a", "b"])
    assert enc.class_names == ["a", "b"]
    np.testing.assert_array_equal(enc.encode(["a", "b", "a"]), [0, 1, 0])


def test_encoder_round_trip():
    enc = D.LabelEncoder().fit(["ddos", "benign", "mitm"])
    for name in enc.class_names:
        assert enc.decode(enc.encode([name]))[0] == name


def test_load_csv_basic(tmp_path):
    f = tmp_path / "t.csv"
    write_csv(f, ["x1", "x2", "label"], [["1", "4.5", "a"], ["2", "5.5", "b"], ["3", "6.5", "a"]])
    ds, dropped = D.load_csv(f)
    assert dropped == 0
    np.testing.assert_array_equal(ds.y, [0, 1, 0])
    np.testing.assert_allclose(ds.X[:, 1], [4.5, 5.5, 6.5])
    assert ds.feature_names == ["x1", "x2"]


def test_load_csv_drops_unparseable_rows(tmp_path):
    f = tmp_path / "t.csv"
    write_csv(f, ["x1", "label"], [["1", "a"], ["?", "b"], ["3", "a"]])
    ds, dropped = D.load_csv(f)
    assert dropped == 1
    assert ds.X.shape == (2, 1)


def test_load_csv_drops_rows_with_non_finite_numeric_cells(tmp_path):
    f = tmp_path / "t.csv"
    write_csv(f, ["x1", "x2", "proto", "label"],
              [["1", "2", "inf", "a"], ["inf", "3", "tcp", "b"], ["4", "-Infinity", "tcp", "a"],
               ["5", "1e999", "tcp", "b"], ["6", "7", "tcp", "b"]])
    ds, dropped = D.load_csv(f)
    assert dropped == 3
    # "inf" in a categorical column is just a category name
    np.testing.assert_array_equal(ds.X, [[1.0, 2.0, 0.0], [6.0, 7.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the standardizer sees only finite values
        assert np.all(np.isfinite(D.fit_standardizer(ds.X).transform(ds.X)))


def test_load_csv_encodes_categorical_feature_columns(tmp_path):
    f = tmp_path / "t.csv"
    write_csv(f, ["proto", "size", "label"],
              [["tcp", "10", "a"], ["udp", "20", "b"], ["icmp", "30", "a"]])
    ds, _ = D.load_csv(f)
    # icmp < tcp < udp lexicographically
    np.testing.assert_array_equal(ds.X[:, 0], [1.0, 2.0, 0.0])


def test_load_csv_missing_label_column(tmp_path):
    f = tmp_path / "t.csv"
    write_csv(f, ["x1", "target"], [["1", "a"]])
    with pytest.raises(ConfigError):
        D.load_csv(f, label_column="label")


def test_load_csv_empty_file(tmp_path):
    f = tmp_path / "t.csv"
    f.write_text("")
    with pytest.raises(InputError):
        D.load_csv(f)


def test_load_csv_reference_shape(tmp_path):
    ds = D.synth_dataset(classes=6, features=60, per_class=5, seed=0)
    f = tmp_path / "wide.csv"
    D.save_csv(ds, f)
    loaded, dropped = D.load_csv(f)
    assert dropped == 0
    assert loaded.num_features == 60
    assert loaded.encoder.num_classes == 6
    np.testing.assert_allclose(loaded.X, ds.X)
    np.testing.assert_array_equal(loaded.y, ds.y)


# ---------------------------------------------------------------------------
# Splitting

def test_split_sizes():
    ds = D.synth_dataset(classes=2, features=4, per_class=50, seed=1)
    pair = D.train_test_split(ds, fraction=0.8, seed=0)
    assert pair.train.X.shape[0] == 80
    assert pair.test.X.shape[0] == 20


def test_split_is_seed_deterministic():
    ds = D.synth_dataset(classes=3, features=5, per_class=30, seed=2)
    p1 = D.train_test_split(ds, seed=7)
    p2 = D.train_test_split(ds, seed=7)
    np.testing.assert_array_equal(p1.train.X, p2.train.X)
    np.testing.assert_array_equal(p1.test.y, p2.test.y)


def test_stratified_split_preserves_proportions():
    ds = D.synth_dataset(classes=3, features=4, per_class=60, seed=3)
    pair = D.train_test_split(ds, fraction=0.8, seed=0)
    np.testing.assert_array_equal(pair.train.class_counts(), [48, 48, 48])
    np.testing.assert_array_equal(pair.test.class_counts(), [12, 12, 12])


def test_split_train_test_disjoint():
    ds = D.synth_dataset(classes=2, features=3, per_class=25, seed=4)
    pair = D.train_test_split(ds, seed=1)
    train_rows = {tuple(r) for r in pair.train.X}
    assert not any(tuple(r) in train_rows for r in pair.test.X)


def test_stratified_split_rejects_singleton_class():
    enc = D.LabelEncoder().fit(["a", "b"])
    ds = D.Dataset(X=np.zeros((3, 2)), y=np.array([0, 0, 1]), encoder=enc,
                   feature_names=["f0", "f1"])
    with pytest.raises(ContractError) as exc:
        D.train_test_split(ds)
    assert "class 'b' has 1 sample(s)" in str(exc.value)


def row_id_dataset() -> D.Dataset:
    """18 rows in classes of 2, 3, 5 and 8, interleaved; the one feature is the row id."""
    y = np.array([3, 0, 1, 3, 2, 3, 1, 2, 3, 0, 2, 3, 1, 2, 3, 2, 3, 3])
    return D.Dataset(X=np.arange(18.0)[:, None], y=y, encoder=D.LabelEncoder().fit("abcd"),
                     feature_names=["row"])


@pytest.mark.parametrize("fraction, seed, train_rows, test_rows", [
    (0.8, 0, [1, 12, 2, 10, 15, 13, 7, 16, 5, 17, 11, 14, 3], [9, 6, 4, 0, 8]),
    (0.8, 1, [1, 2, 6, 13, 4, 7, 15, 3, 16, 17, 5, 8, 11], [9, 12, 10, 14, 0]),
    (0.2, 0, [1, 12, 10, 16, 5], [9, 2, 6, 15, 13, 7, 4, 17, 11, 14, 3, 0, 8]),
])
def test_split_row_ids_are_pinned(fraction, seed, train_rows, test_rows):
    # the 2-row class hits the n - 1 clamp at 0.8 and the 1-row minimum at 0.2
    pair = D.train_test_split(row_id_dataset(), fraction=fraction, seed=seed)
    assert pair.train.X[:, 0].astype(int).tolist() == train_rows
    assert pair.test.X[:, 0].astype(int).tolist() == test_rows


def test_stratified_carve_keeps_every_row_once():
    y = row_id_dataset().y
    first, rest = D.stratified_carve(y, 0.9, np.random.default_rng(0), min_first=0)
    np.testing.assert_array_equal(np.sort(np.concatenate([first, rest])), np.arange(y.size))
    # round(0.9 * 2) = 2 is clamped to n - 1, so every class keeps a row on each side
    np.testing.assert_array_equal(np.bincount(y[first]), [1, 2, 4, 7])
    np.testing.assert_array_equal(np.bincount(y[rest]), [1, 1, 1, 1])


# ---------------------------------------------------------------------------
# SMOTE

def test_smote_balanced_input_is_unchanged():
    ds = D.synth_dataset(classes=3, features=4, per_class=20, seed=5)
    out = D.smote_oversample(ds, seed=0)
    np.testing.assert_array_equal(out.X, ds.X)
    np.testing.assert_array_equal(out.y, ds.y)


def test_smote_balances_counts():
    ds = D.synth_dataset(classes=3, features=5, per_class=100,
                         imbalance_profile=[1.0, 0.2, 0.1], seed=6)
    np.testing.assert_array_equal(ds.class_counts(), [100, 20, 10])
    out = D.smote_oversample(ds, seed=0)
    np.testing.assert_array_equal(out.class_counts(), [100, 100, 100])
    # brute-force recount
    assert {int((out.y == c).sum()) for c in range(3)} == {100}


def test_smote_preserves_originals_first():
    ds = D.synth_dataset(classes=2, features=3, per_class=30,
                         imbalance_profile=[1.0, 0.5], seed=7)
    out = D.smote_oversample(ds, seed=1)
    np.testing.assert_array_equal(out.X[:ds.X.shape[0]], ds.X)


def test_smote_synthetics_lie_on_base_neighbor_segments():
    ds = D.synth_dataset(classes=2, features=4, per_class=40,
                         imbalance_profile=[1.0, 0.3], seed=8)
    out = D.smote_oversample(ds, k_neighbors=5, seed=2)
    n_orig = ds.X.shape[0]
    synth = out.X[n_orig:]
    assert synth.shape[0] > 0
    minority = ds.X[ds.y == 1]
    # oracle: recompute the 5-NN sets and check each synthetic point is a
    # convex combination of some base point and one of its neighbors
    nn = brute_force_neighbors(minority, 5)
    for s in synth:
        best = np.inf
        for b in range(minority.shape[0]):
            for j in nn[b]:
                seg = minority[j] - minority[b]
                denom = seg @ seg
                lam = 0.0 if denom == 0 else float(np.clip((s - minority[b]) @ seg / denom, 0, 1))
                best = min(best, float(np.abs(minority[b] + lam * seg - s).max()))
        assert best < 1e-9


@pytest.mark.parametrize("n", [2, 511, 512, 513, 1100])
def test_blocked_neighbors_match_brute_force(n):
    # class sizes on both sides of the 512-row block boundary
    X = np.random.default_rng(n).normal(size=(n, 6))
    k = min(5, n - 1)
    np.testing.assert_array_equal(D._nearest_neighbors(X, k), brute_force_neighbors(X, k))


@pytest.mark.parametrize("integer_features", [False, True], ids=["gaussian", "tied_integers"])
def test_smote_matches_dense_reference(integer_features):
    ds = D.synth_dataset(classes=4, features=6, per_class=300,
                         imbalance_profile=[1.0, 0.5, 0.1, 0.02], seed=12)
    if integer_features:  # many exactly tied distances
        ds.X = np.round(ds.X)
    for seed in (1, 2, 3):
        out = D.smote_oversample(ds, seed=seed)
        X, y = smote_reference(ds, seed=seed)
        np.testing.assert_array_equal(out.X, X)
        np.testing.assert_array_equal(out.y, y)


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(st.integers(2, 12), min_size=2, max_size=5), seed=st.integers(0, 2**16))
def test_smote_counts_equal_the_largest_class_and_originals_come_first(sizes, seed):
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    ds = D.Dataset(X=rng.normal(size=(y.size, 3)), y=y,
                   encoder=D.LabelEncoder().fit(f"c{i}" for i in range(len(sizes))),
                   feature_names=["f0", "f1", "f2"])
    out = D.smote_oversample(ds, seed=seed)
    np.testing.assert_array_equal(out.class_counts(), [max(sizes)] * len(sizes))
    np.testing.assert_array_equal(out.X[:y.size], ds.X)
    np.testing.assert_array_equal(out.y[:y.size], ds.y)


def test_smote_rejects_singleton_class():
    enc = D.LabelEncoder().fit(["a", "b"])
    ds = D.Dataset(X=np.random.default_rng(0).normal(size=(4, 2)),
                   y=np.array([0, 0, 0, 1]), encoder=enc, feature_names=["f0", "f1"])
    with pytest.raises(ContractError) as exc:
        D.smote_oversample(ds)
    assert "'b'" in str(exc.value)


# ---------------------------------------------------------------------------
# Standardization and reshape

def test_reshape_adds_channel_axis():
    ds = D.synth_dataset(classes=2, features=60, per_class=10, seed=9)
    std = D.fit_standardizer(ds.X)
    out = D.reshape_for_model(ds.X, std)
    assert out.shape == (20, 60, 1)


def test_standardized_train_means_are_zero():
    ds = D.synth_dataset(classes=3, features=8, per_class=50, seed=10)
    std = D.fit_standardizer(ds.X)
    z = std.transform(ds.X)
    np.testing.assert_allclose(z.mean(axis=0), np.zeros(8), atol=1e-6)
    np.testing.assert_allclose(z.std(axis=0), np.ones(8), atol=1e-6)


def test_test_set_uses_train_statistics():
    rng = np.random.default_rng(11)
    train_X = rng.normal(loc=5.0, size=(100, 3))
    test_X = rng.normal(loc=-5.0, size=(50, 3))
    std = D.fit_standardizer(train_X)
    z = std.transform(test_X)
    np.testing.assert_allclose(z, (test_X - train_X.mean(0)) / train_X.std(0))
    assert abs(z.mean()) > 1.0  # clearly not centered on its own stats


def test_zero_variance_feature_warns_and_zeroes():
    X = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
    with pytest.warns(UserWarning):
        std = D.fit_standardizer(X)
    z = std.transform(X)
    np.testing.assert_array_equal(z[:, 0], np.zeros(10))
    assert np.all(np.isfinite(z))


# ---------------------------------------------------------------------------
# Synthetic generator

def test_synth_nearest_centroid_oracle_is_perfect_at_wide_separation():
    ds = D.synth_dataset(classes=6, features=60, per_class=100, seed=12, separation=5.0)
    pair = D.train_test_split(ds, fraction=0.8, seed=0)
    assert nearest_centroid_accuracy(pair.train, pair.test) == 1.0


def test_synth_imbalance_profile_exact_ratio():
    ds = D.synth_dataset(classes=3, features=6, per_class=100,
                         imbalance_profile=[1.0, 0.1, 0.1], seed=13)
    np.testing.assert_array_equal(ds.class_counts(), [100, 10, 10])


def test_synth_is_seed_deterministic():
    a = D.synth_dataset(classes=4, features=10, per_class=20, seed=14)
    b = D.synth_dataset(classes=4, features=10, per_class=20, seed=14)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)


def test_synth_sequence_structure_sets_class_lag_autocorrelation():
    # class c is autocorrelated at lag 2c+1 and nowhere else
    ds = D.synth_dataset(classes=2, features=400, per_class=200, seed=15,
                         separation=0.0, structure_strength=0.6)

    def lag_corr(rows, lag):
        return np.mean([np.corrcoef(r[:-lag], r[lag:])[0, 1] for r in rows])

    c0, c1 = ds.X[ds.y == 0], ds.X[ds.y == 1]
    assert abs(lag_corr(c0, 1) - 0.6) < 0.1
    assert abs(lag_corr(c0, 3) - 0.6 ** 3) < 0.1  # AR decay, not a direct lag
    assert abs(lag_corr(c1, 3) - 0.6) < 0.1
    assert abs(lag_corr(c1, 1)) < 0.1


def test_synth_unit_variance_regardless_of_structure():
    ds = D.synth_dataset(classes=2, features=300, per_class=300, seed=16,
                         separation=0.0, structure_strength=0.8)
    stds = ds.X.std(axis=0)
    assert abs(stds.mean() - 1.0) < 0.05


def test_centroid_pairwise_distances_match_separation():
    sep = 5.0
    ds = D.synth_dataset(classes=4, features=30, per_class=2000, seed=17,
                         separation=sep, sequence_structure=False)
    cents = np.stack([ds.X[ds.y == c].mean(axis=0) for c in range(4)])
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(np.linalg.norm(cents[i] - cents[j]) - 2 * sep) < 0.25
