import os
import struct
from pathlib import Path

import numpy as np
import pytest

from tdfenc import (
    Codebook,
    DatasetManifest,
    FeatureSequence,
    GmmModel,
    LinearSvmModel,
    ManifestEntry,
    PcaModel,
    VideoVector,
    binio,
    load_codebook,
    load_gmm_model,
    load_pca_model,
    load_svm_model,
    load_video_vector,
    read_feature_sequence,
    save_codebook,
    save_gmm_model,
    save_pca_model,
    save_svm_model,
    save_video_vector,
    write_feature_sequence,
    write_manifest,
)
from tdfenc.errors import FormatError

MAX_U32 = 0xFFFFFFFF

# (loader, file bytes): each header declares the largest sizes its fields hold,
# and the file ends a few bytes after it
HOSTILE_HEADERS = {
    "TDFE": (read_feature_sequence, b"TDFE" + struct.pack("<III", 1, MAX_U32, MAX_U32)),
    "TDFP": (load_pca_model, b"TDFP" + struct.pack("<III", 1, MAX_U32, MAX_U32)),
    "TDFC": (load_codebook, b"TDFC" + struct.pack("<III", 1, MAX_U32, MAX_U32)),
    "TDFG": (load_gmm_model, b"TDFG" + struct.pack("<III", 1, MAX_U32, MAX_U32)),
    "TDFV": (load_video_vector, b"TDFV" + struct.pack("<IBBI", 1, 4, 2, MAX_U32)),
    "TDFM": (load_svm_model, b"TDFM" + struct.pack("<III", 1, MAX_U32, MAX_U32)),
}


@pytest.mark.parametrize("magic", sorted(HOSTILE_HEADERS))
def test_header_sizes_beyond_the_file_are_corrupt(tmp_path, magic):
    loader, header = HOSTILE_HEADERS[magic]
    path = tmp_path / f"hostile.{magic.lower()}"
    path.write_bytes(header + b"\x00" * 8)
    with pytest.raises(FormatError, match="corrupt file.*expected .* more bytes"):
        loader(path)


# (loader, header): counts that no saver writes (K = 0, d > D, one class)
BAD_COUNT_HEADERS = {
    "TDFP": (load_pca_model, b"TDFP" + struct.pack("<III", 1, 2, 3)),
    "TDFC": (load_codebook, b"TDFC" + struct.pack("<III", 1, 0, 3)),
    "TDFG": (load_gmm_model, b"TDFG" + struct.pack("<III", 1, 0, 3)),
    "TDFM": (load_svm_model, b"TDFM" + struct.pack("<III", 1, 1, 3)),
}


@pytest.mark.parametrize("magic", sorted(BAD_COUNT_HEADERS))
def test_bad_header_counts_are_format_errors(tmp_path, magic):
    loader, header = BAD_COUNT_HEADERS[magic]
    path = tmp_path / f"bad.{magic.lower()}"
    path.write_bytes(header + b"\x00" * 64)
    with pytest.raises(FormatError, match="corrupt file.*bad"):
        loader(path)


# one small value per writer
WRITERS = {
    "save_pca_model": (
        save_pca_model,
        PcaModel(mean=np.zeros(3), components=np.eye(3)[:2], explained_variance=[2.0, 1.0]),
    ),
    "save_codebook": (save_codebook, Codebook(centroids=np.arange(6.0).reshape(2, 3))),
    "save_gmm_model": (
        save_gmm_model,
        GmmModel(weights=[0.5, 0.5], means=np.arange(6.0).reshape(2, 3), variances=np.ones((2, 3))),
    ),
    "save_video_vector": (
        save_video_vector,
        VideoVector(values=np.arange(1.0, 5.0), method="average", branch="time"),
    ),
    "save_svm_model": (
        save_svm_model,
        LinearSvmModel(weights=np.ones((2, 3)), biases=np.zeros(2), penalty=1.0),
    ),
    "write_feature_sequence": (
        write_feature_sequence,
        FeatureSequence(video_id="v", values=np.arange(12.0).reshape(3, 4)),
    ),
    "write_manifest": (
        write_manifest,
        DatasetManifest(
            (ManifestEntry("v", Path("v.tdfe"), 0), ManifestEntry("w", Path("w.tdfe"), 1)), 2
        ),
    ),
}


class _FailsMidway:
    """A binary file whose first write stores half its bytes, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(bytes(data)[: len(data) // 2])
        self.fh.flush()
        raise OSError("no space left on device")


def test_atomic_write_replaces_the_file_and_leaves_nothing_else(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous contents")
    binio.atomic_write(path, b"new ", b"contents")
    assert path.read_bytes() == b"new contents"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_atomic_write_failing_midway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous contents")
    with pytest.raises(TypeError):
        binio.atomic_write(path, b"first chunk", object())
    assert path.read_bytes() == b"previous contents"
    assert os.listdir(tmp_path) == ["out.bin"]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writer_failing_midway_keeps_the_previous_file(tmp_path, monkeypatch, name):
    writer, value = WRITERS[name]
    path = tmp_path / "artifact"
    writer(value, path)
    previous = path.read_bytes()
    monkeypatch.setattr(binio, "open", lambda p, mode: _FailsMidway(open(p, mode)), raising=False)
    with pytest.raises(OSError, match="no space left"):
        writer(value, path)
    assert path.read_bytes() == previous
    assert os.listdir(tmp_path) == ["artifact"]
