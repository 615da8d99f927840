import math

import numpy as np
import pytest

from alcove.classifier import (
    LinearClassifier,
    TrainConfig,
    evaluate,
    mc_dropout_proba,
    predict_proba,
    train,
    zero_classifier,
)

from oracles import cross_entropy_loss_and_grad
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
    clf = train(X, y, 3, TrainConfig(dropout_rho=0.0, sample_weights=w), seed=0)
    probs = predict_proba(clf, X[3:4])
    assert int(np.argmax(probs)) == y[3]
    # closed-form direction: the lone example's class logit must dominate,
    # i.e. its weight row has the largest projection onto the example
    projections = clf.weights @ X[3]
    assert int(np.argmax(projections)) == y[3]


def test_all_ones_weights_equal_unweighted_bitwise():
    rng = np.random.default_rng(2)
    X, y = rng.normal(size=(9, 3)), rng.integers(0, 2, 9)
    a = train(X, y, 2, TrainConfig(sample_weights=np.ones(9)), seed=5)
    b = train(X, y, 2, TrainConfig(sample_weights=None), seed=5)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.bias.tobytes() == b.bias.tobytes()


def test_missing_classes_do_not_crash():
    X = np.array([[1.0, 0.0], [0.9, 0.1]])
    y = np.array([1, 1])  # classes 0 and 2 unseen
    clf = train(X, y, 3, TrainConfig(dropout_rho=0.0), seed=0)
    assert np.all(np.isfinite(clf.weights))
    assert int(np.argmax(predict_proba(clf, X[:1]))) == 1


class TestPredictProba:
    def test_zero_classifier_is_uniform(self):
        clf = zero_classifier(4, 3)
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
            predict_proba(zero_classifier(2, 3), np.zeros((2, 4)))


@pytest.mark.parametrize("rho", [-0.1, 1.0, 1.5])
def test_dropout_ratio_outside_unit_interval_rejected(rho):
    with pytest.raises(ValueError, match="dropout_rho"):
        TrainConfig(dropout_rho=rho)


class TestMcDropout:
    def test_rho_zero_identity(self):
        rng = np.random.default_rng(4)
        clf = LinearClassifier(weights=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
        X = rng.normal(size=(6, 4))
        stack = mc_dropout_proba(clf, X, 5, rho=0.0, seed=0)
        base = predict_proba(clf, X)
        for s in range(5):
            assert np.array_equal(stack[s], base)

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(5)
        clf = LinearClassifier(weights=rng.normal(size=(3, 4)), bias=rng.normal(size=3))
        X = rng.normal(size=(6, 4))
        a = mc_dropout_proba(clf, X, 7, rho=0.75, seed=11)
        b = mc_dropout_proba(clf, X, 7, rho=0.75, seed=11)
        assert a.tobytes() == b.tobytes()

    def test_masks_replay_through_scalar_computation(self):
        # hand-built classifier, d=2, C=2; replay the documented mask draw
        clf = LinearClassifier(weights=np.array([[2.0, -1.0], [0.5, 1.5]]), bias=np.array([0.1, -0.2]))
        X = np.array([[1.0, 2.0], [-1.0, 0.5], [0.3, -0.7]])
        rho, samples, seed = 0.5, 4, 123
        stack = mc_dropout_proba(clf, X, samples, rho, seed)
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
