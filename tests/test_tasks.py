import struct

import numpy as np
import numpy.testing as npt
import pytest
from conftest import write_idx_pair
from hypothesis import given, settings
from hypothesis import strategies as st

from tprop.tasks import (
    BadHeader,
    BadMagic,
    CountMismatch,
    ImageDataset,
    IndivisibleChunk,
    SyntheticTask,
    TruncatedFile,
    adding_accuracy,
    classification_accuracy,
    fixed_permutation,
    gen_adding,
    gen_temporal_order,
    image_batch,
    load_idx,
    load_labels,
)

SPECIAL = (4, 5)  # one-hot rows for the two marker symbols


def test_temporal_order_marker_positions():
    rng = np.random.default_rng(0)
    for _ in range(50):
        batch = gen_temporal_order(60, 8, rng)
        assert batch.inputs.shape == (60, 6, 8)
        special = batch.inputs[:, SPECIAL, :].sum(axis=1)  # T x B indicator
        for b in range(8):
            where = np.flatnonzero(special[:, b]) + 1  # 1-based steps
            assert len(where) == 2
            t1, t2 = where
            assert 6 <= t1 <= 12
            assert 24 <= t2 <= 30


def test_temporal_order_one_hot_columns():
    rng = np.random.default_rng(1)
    batch = gen_temporal_order(40, 5, rng)
    npt.assert_allclose(batch.inputs.sum(axis=1), np.ones((40, 5)), atol=0)
    assert set(np.unique(batch.inputs)) <= {0.0, 1.0}


def test_temporal_order_label_encodes_marker_order():
    rng = np.random.default_rng(2)
    batch = gen_temporal_order(60, 64, rng)
    for b in range(64):
        steps = []
        for t in range(60):
            for s, row in enumerate(SPECIAL):
                if batch.inputs[t, row, b] == 1.0:
                    steps.append(s)
        first, second = steps
        assert batch.labels[b] == 2 * first + second


def test_temporal_order_labels_uniform_over_many_samples():
    rng = np.random.default_rng(3)
    counts = np.zeros(4)
    n = 10_000
    for _ in range(n // 100):
        batch = gen_temporal_order(30, 100, rng)
        counts += np.bincount(batch.labels, minlength=4)
    # binomial(n, 1/4) has sigma = sqrt(n * 3/16) ~ 43; allow 3 sigma
    sigma = np.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - n / 4) <= 3 * sigma)


def test_adding_marker_channel_and_target_range():
    rng = np.random.default_rng(4)
    for T in (20, 30, 60):
        batch = gen_adding(T, 16, rng)
        assert batch.inputs.shape == (T, 2, 16)
        markers = batch.inputs[:, 1, :]
        npt.assert_allclose(markers.sum(axis=0), 2.0, atol=0)
        assert set(np.unique(markers)) <= {0.0, 1.0}
        assert np.all((batch.labels >= 0.0) & (batch.labels <= 1.0))
        for b in range(16):
            t1, t2 = np.flatnonzero(markers[:, b]) + 1
            assert 1 <= t1 <= T // 10
            assert T // 10 <= t2 <= T // 2
            want = 0.5 * (batch.inputs[t1 - 1, 0, b] + batch.inputs[t2 - 1, 0, b])
            npt.assert_allclose(batch.labels[b], want, rtol=1e-12)


def test_generators_reproducible():
    a = gen_temporal_order(25, 6, np.random.default_rng(7))
    b = gen_temporal_order(25, 6, np.random.default_rng(7))
    assert a.inputs.tobytes() == b.inputs.tobytes()
    assert np.array_equal(a.labels, b.labels)
    c = gen_adding(25, 6, np.random.default_rng(7))
    d = gen_adding(25, 6, np.random.default_rng(7))
    assert c.inputs.tobytes() == d.inputs.tobytes()


def test_adding_accuracy_boundary():
    assert adding_accuracy(np.array([0.5]), np.array([0.5])) == 1.0
    # |error| of 0.2 squares to the 0.04 threshold, which is not strict-less;
    # 0.2**2 rounds just above 0.04 in doubles so the boundary stays incorrect
    assert adding_accuracy(np.array([0.2]), np.array([0.0])) == 0.0
    assert adding_accuracy(np.array([0.19]), np.array([0.0])) == 1.0


def test_adding_accuracy_matches_recount(rng):
    preds = rng.uniform(0, 1, size=50)
    targets = rng.uniform(0, 1, size=50)
    want = sum((p - t) ** 2 < 0.04 for p, t in zip(preds, targets)) / 50
    npt.assert_allclose(adding_accuracy(preds, targets), want, atol=0)


def test_classification_accuracy_matches_recount(rng):
    logits = rng.standard_normal((4, 30))
    y = rng.integers(0, 4, size=30)
    want = np.mean(np.argmax(logits, axis=0) == y)
    npt.assert_allclose(classification_accuracy(logits, y), want, atol=0)


def write_idx(tmp_path, images, labels, mangle=None):
    ip = tmp_path / "images-idx3-ubyte"
    lp = tmp_path / "labels-idx1-ubyte"
    write_idx_pair(ip, lp, images, labels)
    img = ip.read_bytes()
    if mangle == "magic":
        ip.write_bytes(struct.pack(">i", 0x802) + img[4:])
    elif mangle == "truncate":
        ip.write_bytes(img[:-10])
    return str(ip), str(lp)


def test_load_idx_round_trip(tmp_path, rng):
    images = rng.integers(0, 256, size=(10, 28, 28)).astype(np.uint8)
    labels = rng.integers(0, 10, size=10).astype(np.uint8)
    ip, lp = write_idx(tmp_path, images, labels)
    for ds in (load_idx(ip, lp), load_idx(ip, load_labels(lp))):
        assert ds.images.shape == (10, 28, 28) and ds.images.dtype == np.uint8
        assert ds.images.tobytes() == images.tobytes()
        assert np.array_equal(ds.labels, labels) and ds.labels.dtype == np.int64


def test_load_idx_bad_magic(tmp_path, rng):
    images = rng.integers(0, 256, size=(3, 28, 28)).astype(np.uint8)
    ip, lp = write_idx(tmp_path, images, np.zeros(3, np.uint8), mangle="magic")
    with pytest.raises(BadMagic):
        load_idx(ip, lp)


def test_load_idx_truncated(tmp_path, rng):
    images = rng.integers(0, 256, size=(3, 28, 28)).astype(np.uint8)
    ip, lp = write_idx(tmp_path, images, np.zeros(3, np.uint8), mangle="truncate")
    with pytest.raises(TruncatedFile):
        load_idx(ip, lp)


@pytest.mark.parametrize("lying", ["images", "labels"])
def test_load_idx_checks_the_announced_payload_against_the_file_size(tmp_path, traced_peak, lying):
    # a header announcing 2^31 - 1 records over a few payload bytes is refused
    # before any read is sized by it: such a read would raise MemoryError (a
    # 1.7 TB image payload) or allocate 2 GB (labels) before finding the file short
    big = 2**31 - 1
    ip = tmp_path / "images-idx3-ubyte"
    lp = tmp_path / "labels-idx1-ubyte"
    ip.write_bytes(struct.pack(">iiii", 0x803, big if lying == "images" else 1, 28, 28) + bytes(784))
    lp.write_bytes(struct.pack(">ii", 0x801, big if lying == "labels" else 1) + bytes(1))
    short = ip if lying == "images" else lp

    def load():
        with pytest.raises(TruncatedFile, match=short.name):
            load_idx(str(ip), str(lp))

    assert traced_peak(load) < 2**20


def test_load_idx_count_mismatch(tmp_path, rng):
    images = rng.integers(0, 256, size=(4, 28, 28)).astype(np.uint8)
    ip, lp = write_idx(tmp_path, images, np.zeros(3, np.uint8))
    with pytest.raises(CountMismatch):
        load_idx(ip, lp)
    with pytest.raises(CountMismatch):
        load_idx(ip, load_labels(lp))


@pytest.mark.parametrize("field", ["n", "h", "w", "labels"])
@pytest.mark.parametrize("size", [0, -1])
def test_load_idx_rejects_non_positive_header_sizes(tmp_path, field, size):
    n, h, w, n_labels = (size if field == f else 3 for f in ("n", "h", "w", "labels"))
    ip = tmp_path / "images-idx3-ubyte"
    lp = tmp_path / "labels-idx1-ubyte"
    # the payloads hold 3 x 3 x 3 pixels and 3 labels whatever the header says
    ip.write_bytes(struct.pack(">iiii", 0x803, n, h, w) + bytes(27))
    lp.write_bytes(struct.pack(">ii", 0x801, n_labels) + bytes(3))
    with pytest.raises(BadHeader):
        load_idx(str(ip), str(lp))


def synthetic_dataset(rng, n=6):
    images = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    images[:, 0, :3] = (0, 1, 255)  # both ends of the pixel range, and the least step
    labels = rng.integers(0, 10, size=n)
    return ImageDataset(images=images, labels=labels)


def pixel_sequence(dataset, index, k, permutation=None):
    """One image's pixel sequence (tau, k) as a float32 image store gave it:
    the row-major scan scaled by 1/255 in float32 and widened to float64,
    reordered by the permutation, then chunked."""
    flat = (dataset.images[index].reshape(-1).astype(np.float32) / 255.0).astype(np.float64)
    if permutation is not None:
        flat = flat[permutation]
    npix = flat.size
    if npix % k != 0:
        raise IndivisibleChunk(f"{k} pixels per step does not divide {npix}")
    return flat.reshape(npix // k, k)


def test_pixel_sequence_shapes(rng):
    ds = synthetic_dataset(rng)
    seq = pixel_sequence(ds, 0, k=1)
    assert seq.shape == (784, 1)
    seq = pixel_sequence(ds, 0, k=784)
    assert seq.shape == (1, 784)
    seq = pixel_sequence(ds, 0, k=4)
    assert seq.shape == (196, 4)


def test_pixel_sequence_indivisible_chunk(rng):
    ds = synthetic_dataset(rng)
    with pytest.raises(IndivisibleChunk):
        pixel_sequence(ds, 0, k=5)  # 5 does not divide 784


def test_pixel_sequence_identity_permutation(rng):
    ds = synthetic_dataset(rng)
    plain = pixel_sequence(ds, 2, k=7)
    same = pixel_sequence(ds, 2, k=7, permutation=np.arange(784))
    npt.assert_allclose(plain, same, atol=0)


def test_pixel_sequence_chunks_recover_permuted_vector(rng):
    ds = synthetic_dataset(rng)
    perm = fixed_permutation(99)
    seq = pixel_sequence(ds, 1, k=16, permutation=perm)
    flat = pixel_sequence(ds, 1, k=1).reshape(-1)[perm]
    npt.assert_allclose(seq.reshape(-1), flat, atol=0)


def test_fixed_permutation_bijection_and_determinism():
    p1 = fixed_permutation(5)
    p2 = fixed_permutation(5)
    assert np.array_equal(p1, p2)
    assert sorted(p1) == list(range(784))
    inv = np.argsort(p1)
    npt.assert_allclose(p1[inv], np.arange(784), atol=0)


def test_fixed_permutation_preserves_pixel_multiset(rng):
    ds = synthetic_dataset(rng)
    perm = fixed_permutation(11)
    seq = pixel_sequence(ds, 3, k=28, permutation=perm)
    assert sorted(seq.reshape(-1)) == sorted(pixel_sequence(ds, 3, k=28).reshape(-1))
    batch = image_batch(ds, np.array([3]), 28, perm)
    assert sorted(batch.inputs.reshape(-1)) == sorted(seq.reshape(-1))


def test_image_batch_layout(rng):
    ds = synthetic_dataset(rng, n=8)
    batch = image_batch(ds, np.array([1, 4, 6]), k=4)
    assert batch.inputs.shape == (196, 4, 3)
    assert np.all((batch.inputs >= 0) & (batch.inputs <= 1))
    npt.assert_allclose(batch.inputs[:, :, 0], pixel_sequence(ds, 1, k=4), atol=0)
    assert np.array_equal(batch.labels, ds.labels[[1, 4, 6]])


@pytest.mark.parametrize("k", [1, 4, 28])
@pytest.mark.parametrize("permuted", [False, True])
def test_image_batch_matches_per_image_sequences(rng, k, permuted):
    ds = synthetic_dataset(rng, n=9)
    perm = fixed_permutation(7) if permuted else None
    rows = np.array([5, 0, 8, 5])
    batch = image_batch(ds, rows, k, perm)
    want = np.stack([pixel_sequence(ds, int(i), k, perm) for i in rows], axis=2)
    assert batch.inputs.dtype == np.float64 and batch.inputs.flags.c_contiguous
    assert batch.inputs.shape == want.shape
    assert batch.inputs.tobytes() == want.tobytes()
    with pytest.raises(IndivisibleChunk):
        image_batch(ds, rows, 5, perm)


@given(T=st.integers(min_value=10, max_value=80), seed=st.integers(min_value=0, max_value=999))
@settings(max_examples=30)
def test_temporal_order_positions_property(T, seed):
    batch = gen_temporal_order(T, 4, np.random.default_rng(seed))
    special = batch.inputs[:, SPECIAL, :].sum(axis=1)
    for b in range(4):
        t1, t2 = np.flatnonzero(special[:, b]) + 1
        assert T // 10 <= t1 <= 2 * T // 10
        assert 4 * T // 10 <= t2 <= 5 * T // 10


@pytest.mark.parametrize("gen", [gen_temporal_order, gen_adding])
def test_generators_refuse_sequences_shorter_than_10(gen):
    # at T = 9 the first marker window [T//10, 2T//10] starts at step 0
    with pytest.raises(ValueError, match="need T >= 10, got 9"):
        gen(9, 2, np.random.default_rng(0))


def test_load_labels_refuses_an_images_file(tmp_path, rng):
    # swapped paths: the images file's magic is 0x803, not the labels' 0x801
    images = rng.integers(0, 256, size=(3, 4, 4)).astype(np.uint8)
    ip, _ = write_idx(tmp_path, images, np.zeros(3, np.uint8))
    with pytest.raises(BadMagic, match="magic 0x00000803, expected 0x00000801"):
        load_labels(ip)


def test_synthetic_task_refuses_an_unknown_name():
    # a misspelt name must not fall through to the adding task
    with pytest.raises(ValueError, match="unknown task 'temporal_order', "
                                         "expected 'temporal-order' or 'adding'"):
        SyntheticTask("temporal_order", 20, 4)
