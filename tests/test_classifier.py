import math

import numpy as np
import pytest

from alcove.classifier import (
    LinearClassifier,
    TrainConfig,
    evaluate,
    mc_dropout_passes,
    mc_dropout_proba,
    TrainingDiverged,
    predict_proba,
    train,
    train_batch,
    zero_classifier,
)
from alcove import classifier

from oracles import adamw_fit, cross_entropy_loss_and_grad
from alcove.dataset_io import EmbeddingDataset, generate_synthetic


def test_separable_pair_reaches_full_train_accuracy():
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    y = np.array([0, 1])
    clf = train(X, y, 2, TrainConfig(dropout_rho=0.0), seed=0)
    assert np.argmax(predict_proba(clf, X), axis=1).tolist() == [0, 1]


def test_training_deterministic_in_seed():
    rng = np.random.default_rng(0)
    X, y = rng.normal(size=(12, 5)), rng.integers(0, 3, 12)
    a = train(X, y, 3, TrainConfig(), seed=3)
    b = train(X, y, 3, TrainConfig(), seed=3)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.bias.tobytes() == b.bias.tobytes()


def test_single_active_sample_weight_dominates():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(6, 4))
    y = np.array([0, 1, 2, 0, 1, 2])
    w = np.zeros(6)
    w[3] = 1.0
    clf = train(X, y, 3, TrainConfig(dropout_rho=0.0), seed=0, sample_weights=w)
    probs = predict_proba(clf, X[3:4])
    assert int(np.argmax(probs)) == y[3]
    # closed-form direction: the lone example's class logit must dominate,
    # i.e. its weight row has the largest projection onto the example
    projections = clf.weights @ X[3]
    assert int(np.argmax(projections)) == y[3]


def test_all_ones_weights_equal_unweighted_bitwise():
    rng = np.random.default_rng(2)
    X, y = rng.normal(size=(9, 3)), rng.integers(0, 2, 9)
    a = train(X, y, 2, TrainConfig(), seed=5, sample_weights=np.ones(9))
    b = train(X, y, 2, TrainConfig(), seed=5)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.bias.tobytes() == b.bias.tobytes()


def _cells(rng, k_cells, n, d, num_classes):
    """k_cells distinct fits of one shape, with seeds, labels and sample weights
    (None, random, some zero, all zero) that differ from cell to cell."""
    X = rng.normal(size=(k_cells, n, d)).astype(np.float32)
    Y = rng.integers(0, num_classes, (k_cells, n))
    weights = [None, rng.random(n), rng.random(n) * (rng.random(n) < 0.5), np.zeros(n)]
    seeds = rng.integers(0, 2**31, k_cells).tolist()
    return X, Y, seeds, [weights[k % len(weights)] for k in range(k_cells)]


@pytest.mark.parametrize("k_cells, n, d, num_classes", [(6, 25, 7, 4), (3, 120, 40, 12)])
@pytest.mark.parametrize("block_bytes", [classifier.MASK_BLOCK_BYTES, 1, 4 * 6 * 25 * 7 * 3])
def test_train_batch_equals_solo_fits_bitwise(monkeypatch, k_cells, n, d, num_classes, block_bytes):
    # mask blocks of every epoch at once, of one epoch, and of some that do not divide 50
    monkeypatch.setattr(classifier, "MASK_BLOCK_BYTES", block_bytes)
    X, Y, seeds, weights = _cells(np.random.default_rng(n), k_cells, n, d, num_classes)
    config = TrainConfig(epochs=50)
    batch = train_batch(X, Y, num_classes, config, seeds, weights)
    for k in range(k_cells):
        ref_w, ref_b = adamw_fit(X[k], Y[k], num_classes, config, seeds[k], weights[k])
        solo = train(X[k], Y[k], num_classes, config, seeds[k], weights[k])
        for clf in (batch[k], solo):
            assert clf.weights.tobytes() == ref_w.tobytes()
            assert clf.bias.tobytes() == ref_b.tobytes()


def test_the_loop_runs_in_float32_and_returns_float64_heads(monkeypatch):
    seen = []
    softmax = classifier._softmax

    def recording_softmax(logits):
        seen.append(logits.dtype)
        return softmax(logits)

    monkeypatch.setattr(classifier, "_softmax", recording_softmax)
    X, Y, seeds, weights = _cells(np.random.default_rng(14), 3, 20, 5, 4)
    config = TrainConfig(epochs=10)
    heads = train_batch(X, Y, 4, config, seeds, weights)
    assert seen == [np.float32] * config.epochs
    for head in heads:
        assert head.weights.dtype == head.bias.dtype == np.float64
    # the same values as float64 features give the same head bytes
    again = train_batch(X.astype(np.float64), Y, 4, config, seeds, weights)
    for a, b in zip(heads, again):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_float32_training_stays_close_to_the_float64_loop(seed):
    # Bounds set from data seeds 1-3 x fit seeds 0-2 at this shape: max |dW|
    # <= 3.5e-6 and max |dP| <= 3.7e-7 on the test split. The bias moves
    # further (about +0.008) but only along the all-ones direction, which
    # softmax ignores: the bias gradient sums to zero over the classes, and
    # Adam scales the float32 rounding noise of that sum up to full steps;
    # the centered bias differs by <= 3.4e-7.
    ds = generate_synthetic(10, 30, 32, 4.0, seed=1)
    X, y = ds.features[ds.train_indices], ds.labels[ds.train_indices]
    config = TrainConfig(epochs=500)
    head = train(X, y, 10, config, seed)
    ref = LinearClassifier(*adamw_fit(X, y, 10, config, seed, dtype=np.float64))
    test = ds.features[ds.test_indices]
    probs, ref_probs = predict_proba(head, test), predict_proba(ref, test)
    assert np.abs(probs - ref_probs).max() < 1e-5
    assert np.array_equal(probs.argmax(axis=1), ref_probs.argmax(axis=1))
    assert np.abs(head.weights - ref.weights).max() < 1e-5
    db = head.bias - ref.bias
    assert np.abs(db - db.mean()).max() < 1e-5
    assert abs(db.mean()) < 0.02


def _assert_raises_solo_error(bad, X, Y, num_classes, config, seeds, weights=None):
    """``train_batch`` raises the type and message of cell ``bad``'s solo ``train``."""
    weights = weights or [None] * len(X)
    with pytest.raises(Exception) as solo:
        train(X[bad], Y[bad], num_classes, config, seeds[bad], weights[bad])
    with pytest.raises(type(solo.value)) as batch:
        train_batch(X, Y, num_classes, config, seeds, weights)
    assert type(batch.value) is type(solo.value) and str(batch.value) == str(solo.value)
    return batch.value


def test_a_diverging_cell_fails_the_batch_at_its_solo_epoch():
    # with lr * wd = 10 the decoupled decay multiplies the weights by -9 each
    # epoch, so the float32 logits overflow after a number of epochs set by the
    # feature scale: cell 0 (unit scale) finishes, cell 1 (1e15) diverges late,
    # and cell 2 (one 1e38 entry, which the dropout scaling takes past
    # float32's range) at once
    rng = np.random.default_rng(1)
    X, Y = rng.normal(size=(3, 6, 4)), rng.integers(0, 3, (3, 6))
    X[1] *= 1e15
    X[2, 0, 0] = 1e38
    config = TrainConfig(learning_rate=1.0, weight_decay=10.0, epochs=30)
    seeds = [1, 2, 3]
    with np.errstate(over="ignore", invalid="ignore"):
        solo_epochs = []
        for k in (1, 2):
            with pytest.raises(TrainingDiverged) as err:
                adamw_fit(X[k], Y[k], 3, config, seeds[k])
            solo_epochs.append(err.value.epoch)
            cells = [0, k]
            batch_err = _assert_raises_solo_error(1, X[cells], Y[cells], 3, config, [1, seeds[k]])
            assert batch_err.epoch == solo_epochs[-1]
        # the batch stops at the earliest failing epoch of its cells
        assert _assert_raises_solo_error(2, X, Y, 3, config, seeds).epoch == solo_epochs[1]
        ref_w, ref_b = adamw_fit(X[0], Y[0], 3, config, 1)
    assert 1 == solo_epochs[1] < solo_epochs[0] < config.epochs
    (head,) = train_batch(X[:1], Y[:1], 3, config, seeds[:1])
    assert head.weights.tobytes() == ref_w.tobytes()
    assert head.bias.tobytes() == ref_b.tobytes()


@pytest.mark.parametrize("big", [1e39, 1e100])
def test_a_feature_beyond_float32_diverges_at_epoch_1(big):
    # finite in float64, where the first epoch still fits, but inf once the
    # loop rounds the features to float32
    rng = np.random.default_rng(2)
    X, y = rng.normal(size=(6, 4)), rng.integers(0, 3, 6)
    X[0, 0] = big
    config = TrainConfig(dropout_rho=0.0, epochs=1)
    W, b = adamw_fit(X, y, 3, config, 0, dtype=np.float64)
    assert np.all(np.isfinite(W)) and np.all(np.isfinite(b))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged) as err:
        train(X, y, 3, config, seed=0)
    assert err.value.epoch == 1


def test_bad_sample_weights_fail_the_batch_before_any_epoch():
    X, Y, seeds, _ = _cells(np.random.default_rng(4), 4, 10, 3, 2)
    X = X.astype(np.float64)
    X[2, 0, 0] = 1e308  # inf once scaled by 1 / (1 - rho): diverges at epoch 1
    weights = [-np.ones(10), None, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        # checked before the loop, so cell 2 never gets to diverge
        err = _assert_raises_solo_error(0, X, Y, 2, TrainConfig(epochs=20), seeds, weights)
    assert "sample_weights must be 10 " in str(err)


def _assert_equals_solo_fits(batch, X, Y, num_classes, config, seeds, weights, cells):
    for k in cells:
        ref_w, ref_b = adamw_fit(X[k], Y[k], num_classes, config, seeds[k], weights[k])
        solo = train(X[k], Y[k], num_classes, config, seeds[k], weights[k])
        for clf in (batch[k], solo):
            assert clf.weights.tobytes() == ref_w.tobytes()
            assert clf.bias.tobytes() == ref_b.tobytes()


@pytest.mark.parametrize("block_bytes", [classifier.MASK_BLOCK_BYTES, 1, 4 * 3 * 25 * 7 * 3])
def test_train_batch_with_repeated_seeds_equals_solo_fits_bitwise(monkeypatch, block_bytes):
    # three streams over six cells, each cell with its own rows, labels and weights
    monkeypatch.setattr(classifier, "MASK_BLOCK_BYTES", block_bytes)
    X, Y, (a, b, c, *_), weights = _cells(np.random.default_rng(8), 6, 25, 7, 4)
    seeds = [a, b, a, a, c, b]
    config = TrainConfig(epochs=50)
    batch = train_batch(X, Y, 4, config, seeds, weights)
    _assert_equals_solo_fits(batch, X, Y, 4, config, seeds, weights, range(6))


@pytest.mark.parametrize("failure", ["bad_weights", "diverges"])
def test_a_failed_first_cell_of_a_seed_fails_the_batch_with_its_solo_error(monkeypatch, failure):
    # one-epoch blocks: the shared stream is drawn again every epoch
    monkeypatch.setattr(classifier, "MASK_BLOCK_BYTES", 1)
    X, Y, (a, b, *_), _ = _cells(np.random.default_rng(9), 4, 10, 3, 2)
    X = X.astype(np.float64)
    seeds = [a, b, a, a]
    weights = [None] * 4
    if failure == "bad_weights":
        weights[0] = -np.ones(10)
    else:
        X[0, 0, 0] = 1e308  # inf once scaled by 1 / (1 - rho): diverges at epoch 1
    config = TrainConfig(epochs=20)
    with np.errstate(over="ignore", invalid="ignore"):
        err = _assert_raises_solo_error(0, X, Y, 2, config, seeds, weights)
    assert isinstance(err, ValueError if failure == "bad_weights" else TrainingDiverged)
    # its twins, batched without it, still share the stream and keep their solo bits
    batch = [None, *train_batch(X[1:], Y[1:], 2, config, seeds[1:], weights[1:])]
    _assert_equals_solo_fits(batch, X, Y, 2, config, seeds, weights, (1, 2, 3))


@pytest.mark.parametrize("block_bytes, draws", [(classifier.MASK_BLOCK_BYTES, 1), (1, 50)])
def test_cells_of_one_seed_draw_each_mask_block_once(monkeypatch, block_bytes, draws):
    monkeypatch.setattr(classifier, "MASK_BLOCK_BYTES", block_bytes)
    X, Y, _, weights = _cells(np.random.default_rng(10), 12, 15, 4, 3)
    default_rng = np.random.default_rng
    made, calls = [], []

    class CountingRng:
        def __init__(self, seed):
            made.append(seed)
            self.rng = default_rng(seed)

        def random(self, *args, **kwargs):
            calls.append(kwargs["out"].shape)
            return self.rng.random(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    config = TrainConfig(epochs=50)
    batch = train_batch(X, Y, 3, config, [7] * 12, weights)
    assert made == [7]
    assert len(calls) == draws
    assert sum(shape[0] for shape in calls) == config.epochs
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    _assert_equals_solo_fits(batch, X, Y, 3, config, [7] * 12, weights, range(12))


@pytest.mark.parametrize(
    "seeds, weights",
    [
        ([1, 2], [None]),  # a short weight list
        ([1, 2], [None, None, None]),  # an extra weight vector
        ([1], None),  # a short seed list
        ([1, 2, 3], None),  # an extra seed
    ],
)
def test_train_batch_needs_one_seed_and_weight_vector_per_cell(seeds, weights):
    X, Y, _, _ = _cells(np.random.default_rng(11), 2, 20, 4, 3)
    with pytest.raises(ValueError, match="one entry per cell: 2, got"):
        train_batch(X, Y, 3, TrainConfig(epochs=50), seeds, weights)


def test_train_batch_with_only_bad_sample_weights_fails_every_cell():
    # the first bad cell's error is the batch's: no cell gets a head
    X, Y, seeds, _ = _cells(np.random.default_rng(5), 3, 8, 2, 2)
    bad = [-np.ones(8), np.full(8, np.nan), np.ones(7)]
    for k in range(3):
        err = _assert_raises_solo_error(0, X[k:], Y[k:], 2, TrainConfig(epochs=5), seeds[k:], bad[k:])
        assert "sample_weights must be 8 " in str(err)


class TestSampleWeights:
    X = np.random.default_rng(3).normal(size=(6, 2))
    y = np.array([0, 1, 0, 1, 0, 1])

    @pytest.mark.parametrize("shape", [(5,), (7,), (6, 1), ()])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="sample_weights must be 6 "):
            train(self.X, self.y, 2, TrainConfig(), seed=0, sample_weights=np.ones(shape))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="sample_weights must be 6 "):
            train(self.X, self.y, 2, TrainConfig(), seed=0, sample_weights=[1, -1, 1, -1, 1, -1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, bad):
        w = np.ones(6)
        w[2] = bad
        with pytest.raises(ValueError, match="sample_weights must be 6 "):
            train(self.X, self.y, 2, TrainConfig(), seed=0, sample_weights=w)


def test_classifier_carries_its_training_dropout_ratio():
    X, y = np.eye(3), np.arange(3)
    assert train(X, y, 3, TrainConfig(dropout_rho=0.3, epochs=2), seed=0).dropout_rho == 0.3
    assert zero_classifier(3, 3, 0.4).dropout_rho == 0.4


def test_missing_classes_do_not_crash():
    X = np.array([[1.0, 0.0], [0.9, 0.1]])
    y = np.array([1, 1])  # classes 0 and 2 unseen
    clf = train(X, y, 3, TrainConfig(dropout_rho=0.0), seed=0)
    assert np.all(np.isfinite(clf.weights))
    assert int(np.argmax(predict_proba(clf, X[:1]))) == 1


class TestPredictProba:
    def test_zero_classifier_is_uniform(self):
        clf = zero_classifier(4, 3, 0.75)
        probs = predict_proba(clf, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.allclose(probs, 0.25)

    def test_equal_logits(self):
        clf = LinearClassifier(weights=np.zeros((2, 1)), bias=np.zeros(2))
        assert np.allclose(predict_proba(clf, np.array([[3.0]])), [0.5, 0.5])

    def test_log3_logit_gap(self):
        clf = LinearClassifier(weights=np.zeros((2, 1)), bias=np.array([math.log(3), 0.0]))
        assert np.allclose(predict_proba(clf, np.array([[0.0]])), [0.75, 0.25])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        clf = LinearClassifier(weights=rng.normal(size=(4, 6)), bias=rng.normal(size=4))
        probs = predict_proba(clf, rng.normal(size=(20, 6)) * 30)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert probs.min() >= 0

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            predict_proba(zero_classifier(2, 3, 0.75), np.zeros((2, 4)))

    @pytest.mark.parametrize("num_classes", [9, 50])
    def test_equals_reference_softmax_bitwise(self, num_classes):
        rng = np.random.default_rng(num_classes)
        clf = LinearClassifier(rng.normal(size=(num_classes, 7)), rng.normal(size=num_classes))
        X = rng.normal(size=(40, 7)) * 10
        logits = X @ clf.weights.T + clf.bias
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert predict_proba(clf, X).tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()


@pytest.mark.parametrize("rho", [-0.1, 1.0, 1.5])
def test_dropout_ratio_outside_unit_interval_rejected(rho):
    with pytest.raises(ValueError, match="dropout_rho"):
        TrainConfig(dropout_rho=rho)


@pytest.mark.parametrize("epochs", [0, -3])
def test_epochs_below_one_rejected(epochs):
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=epochs)


@pytest.mark.parametrize("lr", [0.0, -0.01, float("nan"), float("inf")])
def test_learning_rate_not_finite_and_positive_rejected(lr):
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=lr)


@pytest.mark.parametrize("wd", [-5.0, -1e-12, float("nan"), float("inf")])
def test_weight_decay_not_finite_and_non_negative_rejected(wd):
    with pytest.raises(ValueError, match="weight_decay"):
        TrainConfig(weight_decay=wd)


def test_zero_weight_decay_and_huge_finite_settings_are_accepted():
    TrainConfig(weight_decay=0.0)
    TrainConfig(learning_rate=1.0, weight_decay=1e200)  # diverges in training, not here


class TestMcDropout:
    def test_rho_zero_identity(self):
        rng = np.random.default_rng(4)
        clf = LinearClassifier(
            weights=rng.normal(size=(3, 4)), bias=rng.normal(size=3), dropout_rho=0.0
        )
        X = rng.normal(size=(6, 4))
        stack = mc_dropout_proba(clf, X, 5, seed=0)
        base = predict_proba(clf, X)
        for s in range(5):
            assert np.array_equal(stack[s], base)

    @pytest.mark.parametrize("rho", [-0.1, 1.0])
    def test_classifier_ratio_outside_unit_interval_rejected(self, rho):
        clf = LinearClassifier(weights=np.eye(2), bias=np.zeros(2), dropout_rho=rho)
        with pytest.raises(ValueError, match="dropout_rho"):
            mc_dropout_proba(clf, np.eye(2), 2, seed=0)
        # the stream checks on the call, before any pass is drawn
        with pytest.raises(ValueError, match="dropout_rho"):
            mc_dropout_passes(clf, np.eye(2), 2, seed=0)

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(5)
        clf = LinearClassifier(weights=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
        X = rng.normal(size=(6, 4))
        a = mc_dropout_proba(clf, X, 7, seed=11)
        b = mc_dropout_proba(clf, X, 7, seed=11)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n, d, c, rho", [(37, 6, 4, 0.5), (300, 64, 50, 0.75), (9, 3, 100, 0.0)])
    def test_stack_is_the_streamed_passes_with_the_documented_masks(self, n, d, c, rho):
        rng = np.random.default_rng(n)
        clf = LinearClassifier(rng.normal(size=(c, d)), rng.normal(size=c), dropout_rho=rho)
        X = rng.normal(size=(n, d))
        samples, seed = 5, 17
        passes = list(mc_dropout_passes(clf, X, samples, seed))
        assert np.stack(passes).tobytes() == mc_dropout_proba(clf, X, samples, seed).tobytes()
        masks = np.random.default_rng(seed).random((samples, n, d)) >= rho
        for s in range(samples):
            expected = predict_proba(clf, X * masks[s] / (1.0 - rho))
            assert passes[s].tobytes() == expected.tobytes()

    def test_masks_replay_through_scalar_computation(self):
        # hand-built classifier, d=2, C=2; replay the documented mask draw
        rho, samples, seed = 0.5, 4, 123
        clf = LinearClassifier(
            weights=np.array([[2.0, -1.0], [0.5, 1.5]]), bias=np.array([0.1, -0.2]), dropout_rho=rho
        )
        X = np.array([[1.0, 2.0], [-1.0, 0.5], [0.3, -0.7]])
        stack = mc_dropout_proba(clf, X, samples, seed)
        masks = np.random.default_rng(seed).random((samples, 3, 2)) >= rho
        for s in range(samples):
            for i in range(3):
                z = [X[i, t] * masks[s, i, t] / (1 - rho) for t in range(2)]
                logits = []
                for c in range(2):
                    logits.append(clf.weights[c, 0] * z[0] + clf.weights[c, 1] * z[1] + clf.bias[c])
                mx = max(logits)
                exps = [math.exp(v - mx) for v in logits]
                total = sum(exps)
                for c in range(2):
                    assert stack[s, i, c] == pytest.approx(exps[c] / total, rel=1e-12)


class TestEvaluate:
    def make_dataset(self, labels):
        n = len(labels)
        feats = np.random.default_rng(0).normal(size=(n, 2)).astype(np.float32)
        return EmbeddingDataset(
            feats, np.asarray(labels), 2, train_indices=[], test_indices=list(range(n))
        )

    def constant_class0(self):
        return LinearClassifier(weights=np.zeros((2, 2)), bias=np.array([1.0, 0.0]))

    def test_always_right(self):
        ds = self.make_dataset([0, 0, 0, 0])
        assert evaluate(self.constant_class0(), ds) == 1.0

    def test_balanced_half(self):
        ds = self.make_dataset([0, 1, 0, 1])
        assert evaluate(self.constant_class0(), ds) == 0.5

    def test_empty_test_split(self):
        feats = np.zeros((2, 2), dtype=np.float32)
        ds = EmbeddingDataset(feats, [0, 1], 2, train_indices=[0, 1], test_indices=[])
        with pytest.raises(ValueError):
            evaluate(self.constant_class0(), ds)

    def test_separable_synthetic_above_95(self):
        ds = generate_synthetic(10, 100, 32, 8.0, seed=1)
        clf = train(
            ds.features[ds.train_indices].astype(np.float64),
            ds.labels[ds.train_indices],
            10,
            TrainConfig(),
            seed=0,
        )
        assert evaluate(clf, ds) > 0.95


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 6))
        c = int(rng.integers(2, 5))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, c, n)
        w = rng.normal(size=(c, d)) * 0.5
        b = rng.normal(size=c) * 0.5
        sw = rng.random(n)
        _, g_w, g_b = cross_entropy_loss_and_grad(w, b, X, y, sw)
        step = 1e-4
        for arr, grad in ((w, g_w), (b, g_b)):
            it = np.nditer(arr, flags=["multi_index"])
            while not it.finished:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + step
                lp = cross_entropy_loss_and_grad(w, b, X, y, sw)[0]
                arr[ix] = orig - step
                lm = cross_entropy_loss_and_grad(w, b, X, y, sw)[0]
                arr[ix] = orig
                numeric = (lp - lm) / (2 * step)
                denom = max(abs(numeric), abs(grad[ix]), 1e-8)
                assert abs(numeric - grad[ix]) / denom < 1e-3
                it.iternext()


def test_first_step_follows_reference_gradient():
    # after one epoch (rho=0) the AdamW step is lr * sign(gradient) to within
    # eps, tying train's inline math to the reference implementation
    rng = np.random.default_rng(8)
    X = rng.normal(size=(6, 3))
    y = rng.integers(0, 3, 6)
    clf = train(X, y, 3, TrainConfig(dropout_rho=0.0, weight_decay=0.0, epochs=1), seed=0)
    _, g_w, g_b = cross_entropy_loss_and_grad(np.zeros((3, 3)), np.zeros(3), X, y)
    lr = TrainConfig().learning_rate
    nonzero = np.abs(g_w) > 1e-12
    assert np.allclose(clf.weights[nonzero], -lr * np.sign(g_w)[nonzero], atol=lr * 1e-3)
    nonzero_b = np.abs(g_b) > 1e-12
    assert np.allclose(clf.bias[nonzero_b], -lr * np.sign(g_b)[nonzero_b], atol=lr * 1e-3)


def test_weight_decay_monotonically_shrinks_norm():
    rng = np.random.default_rng(7)
    X = np.vstack([rng.normal(size=(10, 4)) + 3, rng.normal(size=(10, 4)) - 3])
    y = np.array([0] * 10 + [1] * 10)
    norms = []
    for wd in (0.0, 1e-2, 1e-1, 1.0):
        vals = []
        for seed in range(5):
            clf = train(X, y, 2, TrainConfig(weight_decay=wd, dropout_rho=0.25), seed=seed)
            vals.append(np.sqrt((clf.weights**2).sum() + (clf.bias**2).sum()))
        norms.append(np.mean(vals))
    assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))


def test_divergence_reports_epoch():
    from alcove.classifier import TrainingDiverged

    X = np.array([[1.0, 2.0], [-1.0, 0.5]])
    y = np.array([0, 1])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDiverged) as err:
        # runaway decoupled weight decay spirals the parameters to overflow
        train(X, y, 2, TrainConfig(learning_rate=1.0, weight_decay=1e200, dropout_rho=0.0), seed=0)
    assert err.value.epoch >= 1


@pytest.mark.parametrize("bad", [3, -1])
def test_label_outside_the_classes_fails_the_batch_with_its_solo_error(bad):
    X, Y, seeds, weights = _cells(np.random.default_rng(12), 4, 10, 3, 3)
    Y[1, 0] = bad
    err = _assert_raises_solo_error(1, X, Y, 3, TrainConfig(epochs=20), seeds, weights)
    assert f"labels must lie in [0, 3), got {bad}" in str(err)


@pytest.mark.parametrize("shape", [(1, 10), (10,), (3, 9), (4, 10)])
def test_train_batch_needs_one_label_row_per_cell(shape):
    X, _, seeds, _ = _cells(np.random.default_rng(13), 3, 10, 3, 3)
    with pytest.raises(ValueError, match=r"labels must hold one row of 10 per cell"):
        train_batch(X, np.zeros(shape, dtype=np.int64), 3, TrainConfig(epochs=5), seeds)
