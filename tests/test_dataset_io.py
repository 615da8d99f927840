import dataclasses
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from alcove.cli import main
from alcove.dataset_io import EmbeddingDataset, generate_synthetic, load_dataset, save_dataset


def tiny_dataset():
    feats = np.arange(8, dtype=np.float32).reshape(4, 2)
    labels = np.array([0, 0, 1, 1])
    return EmbeddingDataset(feats, labels, 2, train_indices=[0, 1, 2, 3], test_indices=[])


def test_load_tiny_manifest(tmp_path):
    manifest = save_dataset(tiny_dataset(), tmp_path / "ds")
    ds = load_dataset(manifest)
    assert ds.n == 4 and ds.dim == 2 and ds.num_classes == 2
    assert (tmp_path / "ds" / "features.bin").stat().st_size == 4 * 2 * 4


def test_truncated_feature_file_rejected(tmp_path):
    save_dataset(tiny_dataset(), tmp_path / "ds")
    feat = tmp_path / "ds" / "features.bin"
    feat.write_bytes(feat.read_bytes()[:-1])  # 31 of 32 bytes
    with pytest.raises(ValueError, match="31 bytes"):
        load_dataset(tmp_path / "ds")


def test_missing_feature_file(tmp_path):
    save_dataset(tiny_dataset(), tmp_path / "ds")
    (tmp_path / "ds" / "features.bin").unlink()
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "ds")


def test_label_out_of_range_rejected(tmp_path):
    save_dataset(tiny_dataset(), tmp_path / "ds")
    (tmp_path / "ds" / "labels.bin").write_bytes(np.array([0, 0, 1, 5], dtype="<u4").tobytes())
    with pytest.raises(ValueError, match="label"):
        load_dataset(tmp_path / "ds")


def test_non_finite_features_rejected(tmp_path):
    save_dataset(tiny_dataset(), tmp_path / "ds")
    bad = np.arange(8, dtype="<f4")
    bad[3] = np.nan
    (tmp_path / "ds" / "features.bin").write_bytes(bad.tobytes())
    with pytest.raises(ValueError, match="finite"):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize(
    "file, edit, match",
    [
        ("dataset.json", lambda manifest: [], "dataset.json: the manifest must be a JSON object"),
        ("dataset.json", lambda manifest: {k: v for k, v in manifest.items() if k != "features"},
         "dataset.json: the manifest has no 'features' key"),
        ("train.json", lambda indices: {"a": 1}, r"train.json \(train_indices\): expected a JSON array"),
        ("train.json", lambda indices: [0.5, 1], r"train.json \(train_indices\): expected a JSON array"),
    ],
    ids=["manifest-list", "manifest-no-features", "indices-object", "indices-float"],
)
def test_malformed_json_rejected_with_file_and_key(tmp_path, capsys, file, edit, match):
    save_dataset(tiny_dataset(), tmp_path / "ds")
    path = tmp_path / "ds" / file
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with pytest.raises(ValueError, match=match):
        load_dataset(tmp_path / "ds")
    assert main(["bench", "--data", str(tmp_path / "ds"), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "sizes, feature_bytes, match",
    [
        # -4 x -2 x 4 bytes = 32: the byte count alone passes
        ({"n": -4, "d": -2}, 32, "dataset.json: 'n' must be at least 1, got -4"),
        ({"d": 0}, 0, "dataset.json: 'd' must be at least 1, got 0"),
    ],
    ids=["negative", "zero-width"],
)
def test_sizes_below_one_rejected_with_file_and_key(tmp_path, capsys, sizes, feature_bytes, match):
    save_dataset(tiny_dataset(), tmp_path / "ds")
    path = tmp_path / "ds" / "dataset.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **sizes}))
    features = tmp_path / "ds" / "features.bin"
    features.write_bytes(features.read_bytes()[:feature_bytes])
    with pytest.raises(ValueError, match=match):
        load_dataset(tmp_path / "ds")
    assert main(["bench", "--data", str(tmp_path / "ds"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize(
    "file, match",
    [("dataset.json", "dataset.json: not valid JSON"), ("train.json", r"train.json \(train_indices\): not valid JSON")],
    ids=["manifest", "indices"],
)
def test_unparseable_json_named_with_file_and_key(tmp_path, capsys, file, match):
    save_dataset(tiny_dataset(), tmp_path / "ds")
    path = tmp_path / "ds" / file
    path.write_text("[1, 2,")
    with pytest.raises(ValueError, match=match):
        load_dataset(tmp_path / "ds")
    assert main(["bench", "--data", str(tmp_path / "ds"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize(
    "key, value",
    [("features", 3), ("labels", None), ("train_indices", ["train.json"]), ("test_indices", {"a": 1})],
)
def test_file_keys_that_are_not_strings_named_with_file_and_key(tmp_path, capsys, key, value):
    save_dataset(tiny_dataset(), tmp_path / "ds")
    path = tmp_path / "ds" / "dataset.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), key: value}))
    with pytest.raises(ValueError, match=f"dataset.json: '{key}' must be a file name, got "):
        load_dataset(tmp_path / "ds")
    assert main(["bench", "--data", str(tmp_path / "ds"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_num_classes_above_the_train_points_rejected_before_building(tmp_path, capsys):
    save_dataset(tiny_dataset(), tmp_path / "ds")
    path = tmp_path / "ds" / "dataset.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "num_classes": 10**6}))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="num_classes=1000000 exceeds the 4 train points"):
            load_dataset(tmp_path / "ds")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert main(["bench", "--data", str(tmp_path / "ds"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: num_classes=1000000") and len(err) < 200


@pytest.mark.parametrize(
    "num_classes, message",
    [(4, "2 classes absent from the train split: [2, 3]"),
     (25, "23 classes absent from the train split: [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] ...")],
    ids=["two", "many"],
)
def test_missing_classes_named_first_ten_with_their_count(num_classes, message):
    ds = EmbeddingDataset(np.zeros((30, 2), dtype=np.float32), np.arange(30) % 2, num_classes,
                          train_indices=np.arange(30))
    with pytest.raises(ValueError) as exc:
        ds.validate()
    assert str(exc.value) == message


def test_round_trip_bit_exact(tmp_path):
    ds = generate_synthetic(3, 10, 4, 2.5, seed=11)
    manifest = save_dataset(ds, tmp_path / "ds")
    back = load_dataset(manifest)
    assert back.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.train_indices, ds.train_indices)
    assert np.array_equal(back.test_indices, ds.test_indices)


def test_empty_test_split_round_trips(tmp_path):
    manifest = save_dataset(tiny_dataset(), tmp_path / "ds")
    assert json.loads((tmp_path / "ds" / "test.json").read_text()) == []
    assert load_dataset(manifest).test_indices.size == 0


def test_save_refuses_overwrite_without_force(tmp_path):
    save_dataset(tiny_dataset(), tmp_path / "ds")
    with pytest.raises(FileExistsError):
        save_dataset(tiny_dataset(), tmp_path / "ds")
    save_dataset(tiny_dataset(), tmp_path / "ds", force=True)  # no raise


def test_feature_file_size_formula(tmp_path):
    ds = generate_synthetic(4, 250, 32, 1.0, seed=3)
    save_dataset(ds, tmp_path / "ds")
    assert (tmp_path / "ds" / "features.bin").stat().st_size == 1000 * 32 * 4


def test_synthetic_deterministic():
    a = generate_synthetic(2, 10, 2, 0.0, seed=7)
    b = generate_synthetic(2, 10, 2, 0.0, seed=7)
    assert a.features.tobytes() == b.features.tobytes()
    assert np.array_equal(a.train_indices, b.train_indices)


def test_synthetic_degenerate_separation_balanced():
    ds = generate_synthetic(2, 10, 2, 0.0, seed=7)
    assert np.bincount(ds.labels).tolist() == [10, 10]
    # both class means coincide at the origin up to sampling noise
    m0 = ds.features[ds.labels == 0].mean(axis=0)
    m1 = ds.features[ds.labels == 1].mean(axis=0)
    assert np.linalg.norm(m0 - m1) < 2.0


def test_synthetic_stratified_split():
    ds = generate_synthetic(5, 25, 8, 1.0, seed=2)
    for c in range(5):
        in_test = np.isin(ds.test_indices, np.flatnonzero(ds.labels == c)).sum()
        assert abs(in_test - 0.2 * 25) <= 1


def test_separated_blobs_recovered_by_1nn():
    # independent oracle: exhaustive 1-NN from train to test
    ds = generate_synthetic(10, 100, 32, 8.0, seed=1)
    train_x = ds.features[ds.train_indices].astype(np.float64)
    train_y = ds.labels[ds.train_indices]
    test_x = ds.features[ds.test_indices].astype(np.float64)
    correct = 0
    for x, y in zip(test_x, ds.labels[ds.test_indices]):
        d2 = ((train_x - x) ** 2).sum(axis=1)
        correct += train_y[np.argmin(d2)] == y
    assert correct / len(test_x) > 0.95


def test_synthetic_validates_preconditions():
    with pytest.raises(ValueError):
        generate_synthetic(1, 10, 4, 1.0, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic(3, 1, 4, 1.0, seed=0)
    with pytest.raises(ValueError, match="test point"):
        generate_synthetic(3, 2, 4, 1.0, seed=0)  # round(0.2 * 2) = 0 test points
    with pytest.raises(ValueError):
        generate_synthetic(8, 10, 4, 1.0, seed=0)  # dim < num_classes


def test_features_are_a_read_only_view_of_a_writable_caller_array():
    feats = np.zeros((4, 2), dtype=np.float32)
    ds = EmbeddingDataset(feats, [0, 0, 1, 1], 2, train_indices=[0, 1, 2, 3])
    assert np.shares_memory(ds.features, feats)
    with pytest.raises(ValueError, match="read-only"):
        ds.features[0, 0] = 1.0
    feats[0, 0] = 1.0  # the caller's own array stays writable


@pytest.mark.parametrize("name", ["features", "labels", "num_classes", "train_indices", "test_indices"])
def test_fields_cannot_be_reassigned(name):
    ds = tiny_dataset()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(ds, name, getattr(ds, name))


def test_dataset_keys_a_weak_dictionary_by_identity():
    first, second = tiny_dataset(), tiny_dataset()
    cache = weakref.WeakKeyDictionary()
    cache[first], cache[second] = "first", "second"
    assert len(cache) == 2 and cache[first] == "first" and cache[second] == "second"
    del first
    assert list(cache.values()) == ["second"]
