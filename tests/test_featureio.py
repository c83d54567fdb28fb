import struct
import warnings

import numpy as np
import pytest

from tdfenc import (
    DatasetManifest,
    FeatureSequence,
    ManifestEntry,
    read_feature_sequence,
    read_manifest,
    split_train_test,
    write_feature_sequence,
    write_manifest,
)
from tdfenc.errors import DataError, FormatError, ManifestError


def test_roundtrip_trivial_matrix(tmp_path):
    seq = FeatureSequence("v", np.array([[1.0], [2.0]]))
    path = tmp_path / "v.tdfe"
    write_feature_sequence(seq, path)
    assert path.stat().st_size == 24  # magic + version + D + N + 2 float32
    back = read_feature_sequence(path)
    assert back.dims == 2 and back.frames == 1
    np.testing.assert_array_equal(back.values, [[1.0], [2.0]])
    assert back.video_id == "v"


def test_roundtrip_zero_matrix(tmp_path):
    seq = FeatureSequence("z", np.zeros((1, 3)))
    path = tmp_path / "z.tdfe"
    write_feature_sequence(seq, path)
    raw = path.read_bytes()
    assert raw[:4] == b"TDFE"
    assert struct.unpack("<III", raw[4:16]) == (1, 1, 3)
    assert raw[16:] == b"\x00" * 12
    np.testing.assert_array_equal(read_feature_sequence(path).values, np.zeros((1, 3)))


def test_roundtrip_random_matrices_float32_exact(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(20):
        values = rng.normal(size=(5, 7))
        path = tmp_path / f"r{trial}.tdfe"
        write_feature_sequence(FeatureSequence("r", values), path)
        back = read_feature_sequence(path)
        np.testing.assert_array_equal(back.values, values.astype(np.float32).astype(np.float64))


def test_write_read_write_is_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    first = tmp_path / "a.tdfe"
    second = tmp_path / "b.tdfe"
    write_feature_sequence(FeatureSequence("a", rng.normal(size=(4, 9))), first)
    write_feature_sequence(read_feature_sequence(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_bad_magic_is_unsupported(tmp_path):
    path = tmp_path / "bad.tdfe"
    path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(FormatError, match="unsupported format"):
        read_feature_sequence(path)


def test_bad_version_is_unsupported(tmp_path):
    path = tmp_path / "bad.tdfe"
    path.write_bytes(b"TDFE" + struct.pack("<III", 9, 1, 1) + b"\x00" * 4)
    with pytest.raises(FormatError, match="unsupported format"):
        read_feature_sequence(path)


def test_truncated_payload_is_corrupt(tmp_path):
    path = tmp_path / "cut.tdfe"
    # D=3, N=2 promises 24 payload bytes; deliver 20
    path.write_bytes(b"TDFE" + struct.pack("<III", 1, 3, 2) + b"\x00" * 20)
    with pytest.raises(FormatError, match="corrupt file"):
        read_feature_sequence(path)


def test_trailing_bytes_are_corrupt(tmp_path):
    path = tmp_path / "extra.tdfe"
    path.write_bytes(b"TDFE" + struct.pack("<III", 1, 1, 1) + b"\x00" * 4 + b"x")
    with pytest.raises(FormatError, match="corrupt file"):
        read_feature_sequence(path)


def test_nan_payload_is_nonfinite(tmp_path):
    path = tmp_path / "nan.tdfe"
    payload = struct.pack("<ff", float("nan"), 1.0)
    path.write_bytes(b"TDFE" + struct.pack("<III", 1, 2, 1) + payload)
    with pytest.raises(FormatError, match="non-finite"):
        read_feature_sequence(path)


def test_signalling_nan_payload_is_nonfinite_without_a_warning(tmp_path):
    path = tmp_path / "snan.tdfe"
    payload = struct.pack("<II", 0x7F800001, 0x3F800000)  # signalling NaN, 1.0
    path.write_bytes(b"TDFE" + struct.pack("<III", 1, 2, 1) + payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="non-finite"):
            read_feature_sequence(path)


def test_missing_feature_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        read_feature_sequence(tmp_path / "nope.tdfe")


def test_sequence_invariants():
    with pytest.raises(DataError):
        FeatureSequence("v", np.zeros((0, 3)))
    with pytest.raises(DataError):
        FeatureSequence("v", np.array([[np.inf]]))


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_manifest_two_entries(tmp_path):
    path = tmp_path / "m.tsv"
    _write_lines(path, ["a\tf1.bin\t0", "b\tf2.bin\t1"])
    manifest = read_manifest(path)
    assert len(manifest.entries) == 2
    assert manifest.num_classes == 2
    assert manifest.entries[0].video_id == "a"
    assert manifest.entries[0].feature_path == tmp_path / "f1.bin"
    assert manifest.entries[1].label == 1


def test_manifest_missing_label_names_line(tmp_path):
    path = tmp_path / "m.tsv"
    _write_lines(path, ["a\tf1.bin"])
    with pytest.raises(ManifestError, match="line 1"):
        read_manifest(path)


def test_manifest_duplicate_id(tmp_path):
    path = tmp_path / "m.tsv"
    _write_lines(path, ["a\tf1.bin\t0", "a\tf2.bin\t1"])
    with pytest.raises(ManifestError, match="line 2.*duplicate"):
        read_manifest(path)


def test_manifest_negative_label(tmp_path):
    path = tmp_path / "m.tsv"
    _write_lines(path, ["a\tf1.bin\t-1", "b\tf2.bin\t0"])
    with pytest.raises(ManifestError, match="negative label"):
        read_manifest(path)


def test_manifest_label_gap(tmp_path):
    path = tmp_path / "m.tsv"
    _write_lines(path, ["a\tf1.bin\t0", "b\tf2.bin\t2"])
    with pytest.raises(ManifestError, match="class 1"):
        read_manifest(path)


@pytest.mark.parametrize("video_id", [".", "..", "../escaped_00", "a/b", "a\\b", "a\0b"])
def test_manifest_rejects_ids_that_are_not_file_names(tmp_path, video_id):
    path = tmp_path / "m.tsv"
    _write_lines(path, ["a\tf1.bin\t0", f"{video_id}\tf2.bin\t1"])
    with pytest.raises(ManifestError, match="line 2"):
        read_manifest(path)


def test_manifest_rejects_feature_path_with_nul(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("a\ta.tdfe\t0\nb\tb\0.tdfe\t1\n", encoding="utf-8")
    with pytest.raises(ManifestError, match="line 2: feature path contains NUL"):
        read_manifest(path)


def test_manifest_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_bytes(b"a\ta.tdfe\t0\nb\t\xe9.tdfe\t1\n")
    with pytest.raises(ManifestError, match="m.tsv: not UTF-8"):
        read_manifest(path)


def test_manifest_eight_class_structure(tmp_path):
    # mirrors an 8-category dataset with at least 100 entries per class
    path = tmp_path / "m.tsv"
    lines = []
    for c in range(8):
        for j in range(100):
            lines.append(f"c{c}_{j}\tfeat/c{c}_{j}.tdfe\t{c}")
    _write_lines(path, lines)
    manifest = read_manifest(path)
    assert manifest.num_classes == 8
    assert len(manifest.entries) == 800
    counts = [0] * 8
    for e in manifest.entries:
        counts[e.label] += 1
    assert all(count >= 100 for count in counts)


def test_manifest_write_read_roundtrip(tmp_path):
    entries = tuple(
        ManifestEntry(f"v{i}", tmp_path / "feat" / f"v{i}.tdfe", i % 2) for i in range(4)
    )
    manifest = DatasetManifest(entries, 2)
    path = tmp_path / "m.tsv"
    write_manifest(manifest, path)
    back = read_manifest(path)
    assert back == manifest


def _manifest(class_sizes):
    entries = []
    for label, size in enumerate(class_sizes):
        for j in range(size):
            entries.append(ManifestEntry(f"c{label}_{j}", f"/x/c{label}_{j}.tdfe", label))
    return DatasetManifest(tuple(entries), len(class_sizes))


def test_split_two_thirds_of_three_classes():
    manifest = _manifest([3, 3, 3])
    train, test = split_train_test(manifest, 2.0 / 3.0, 1)
    for label in range(3):
        assert sum(e.label == label for e in train.entries) == 2
        assert sum(e.label == label for e in test.entries) == 1


def test_split_half_of_pair():
    manifest = _manifest([2, 2])
    train, test = split_train_test(manifest, 0.5, 5)
    for label in range(2):
        assert sum(e.label == label for e in train.entries) == 1
        assert sum(e.label == label for e in test.entries) == 1


def test_split_is_partition_and_deterministic():
    manifest = _manifest([5, 7, 4])
    train_a, test_a = split_train_test(manifest, 2.0 / 3.0, 42)
    train_b, test_b = split_train_test(manifest, 2.0 / 3.0, 42)
    assert train_a == train_b and test_a == test_b
    ids = sorted(e.video_id for e in train_a.entries) + sorted(e.video_id for e in test_a.entries)
    assert sorted(ids) == sorted(e.video_id for e in manifest.entries)
    assert not set(e.video_id for e in train_a.entries) & set(e.video_id for e in test_a.entries)


def test_split_varies_with_seed():
    manifest = _manifest([6, 6])
    base, _ = split_train_test(manifest, 0.5, 0)
    base_ids = set(e.video_id for e in base.entries)
    assert any(
        set(e.video_id for e in split_train_test(manifest, 0.5, seed)[0].entries) != base_ids
        for seed in range(1, 101)
    )


def test_split_rejects_tiny_class():
    manifest = _manifest([2, 1])
    with pytest.raises(DataError, match="class 1"):
        split_train_test(manifest, 0.5, 0)


def test_split_rejects_bad_fraction():
    manifest = _manifest([2, 2])
    for fraction in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(DataError):
            split_train_test(manifest, fraction, 0)
