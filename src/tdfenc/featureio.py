"""Frame-feature data model, dataset manifests, and bit-exact file I/O.

A video is a D x N matrix of per-frame descriptors: column i holds the
descriptor of frame i. Matrices are stored on disk as TDFE files (float32,
frame-by-frame) and referenced from TAB-separated manifest files, one
``video_id<TAB>feature_path<TAB>label`` entry per line.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import binio
from .errors import DataError, FormatError, ManifestError, TdfError

FEATURE_MAGIC = b"TDFE"


@dataclass(frozen=True)
class FeatureSequence:
    """A D x N matrix of one video whose columns are the steps of a sequence:
    column i is the descriptor of frame i, or for a spectrum
    (``spectrum_of_sequence``) the magnitudes at frequency sample i. ``frames``
    counts the columns."""

    video_id: str
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise DataError(
                f"{self.video_id}: feature matrix must be 2-D with at least one "
                f"dimension and one frame, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise DataError(f"{self.video_id}: feature matrix contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def dims(self) -> int:
        return self.values.shape[0]

    @property
    def frames(self) -> int:
        return self.values.shape[1]


def write_feature_sequence(seq: FeatureSequence, path) -> None:
    """Write a TDFE file: magic, version, D, N, then float32 values frame-by-frame."""
    # column-major payload: frame i's descriptor is contiguous
    binio.atomic_write(
        path, binio.pack_header(FEATURE_MAGIC, seq.dims, seq.frames), binio.f32_bytes(seq.values.T)
    )


def read_feature_sequence(path, video_id: str | None = None) -> FeatureSequence:
    """Read a TDFE file written by :func:`write_feature_sequence`.

    ``video_id`` defaults to the file stem. Raises FormatError on bad magic or
    version ("unsupported format"), short payloads ("corrupt file"), and
    NaN/Inf payloads ("non-finite values").
    """
    path = Path(path)
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise DataError(f"feature file not found: {path}") from None
    with fh:
        binio.check_magic(fh, FEATURE_MAGIC, path)
        dims, frames = binio.read_u32(fh, 2, path)
        if dims < 1 or frames < 1:
            raise FormatError(f"corrupt file: {path}: empty dimensions D={dims}, N={frames}")
        flat = binio.read_f32(fh, dims * frames, path)
        binio.check_eof(fh, path)
    # checked before the cast, which warns on a signalling NaN
    if not np.all(np.isfinite(flat)):
        raise FormatError(f"non-finite values in feature file: {path}")
    # shape and values are checked above, so FeatureSequence's own checks are
    # skipped rather than run again over the whole matrix
    seq = object.__new__(FeatureSequence)
    object.__setattr__(seq, "video_id", video_id or path.stem)
    object.__setattr__(seq, "values", flat.astype(np.float64).reshape(frames, dims).T)
    return seq


def _text_lines(path: Path, error: type[TdfError], missing: str):
    """Yield (line number, line) of a UTF-8 text file.

    A missing file raises ``error`` with the message ``missing`` and the
    path; a file that is not UTF-8 raises ``error`` naming the path.
    """
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise error(f"{missing}: {path}") from None
    with fh:
        try:
            yield from enumerate(fh, 1)
        except UnicodeDecodeError:
            raise error(f"{path}: not UTF-8 text") from None


@dataclass(frozen=True)
class ManifestEntry:
    video_id: str
    feature_path: Path
    label: int


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]
    num_classes: int


def read_manifest(path) -> DatasetManifest:
    """Parse a TAB-separated manifest; num_classes is the highest label + 1.

    Relative feature paths are resolved against the manifest's directory.
    Malformed lines, video ids that are not plain file names (``.``, ``..``,
    or containing ``/``, ``\\`` or NUL), feature paths containing NUL,
    duplicate video ids, negative labels, and label gaps all raise
    ManifestError with the offending line number. A missing or non-UTF-8
    file raises ManifestError naming the file.
    """
    path = Path(path)
    base = path.parent
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for lineno, raw in _text_lines(path, ManifestError, "manifest not found"):
        line = raw.rstrip("\r\n")
        fields = line.split("\t")
        if len(fields) != 3:
            raise ManifestError(
                f"{path}: line {lineno}: expected 3 tab-separated fields, got {len(fields)}"
            )
        video_id, feature_path, label_text = fields
        if not video_id:
            raise ManifestError(f"{path}: line {lineno}: empty video id")
        # the id names the encoded vector file, so it must stay a single path component
        if video_id in (".", "..") or any(c in video_id for c in "/\\\0"):
            raise ManifestError(
                f"{path}: line {lineno}: video id {video_id!r} is not a file name"
            )
        if "\0" in feature_path:
            raise ManifestError(f"{path}: line {lineno}: feature path contains NUL")
        if video_id in seen:
            raise ManifestError(f"{path}: line {lineno}: duplicate video id {video_id!r}")
        seen.add(video_id)
        try:
            label = int(label_text)
        except ValueError:
            raise ManifestError(
                f"{path}: line {lineno}: label {label_text!r} is not an integer"
            ) from None
        if label < 0:
            raise ManifestError(f"{path}: line {lineno}: negative label {label}")
        resolved = Path(feature_path)
        if not resolved.is_absolute():
            resolved = base / resolved
        entries.append(ManifestEntry(video_id, resolved, label))
    if not entries:
        raise ManifestError(f"{path}: manifest has no entries")
    num_classes = max(e.label for e in entries) + 1
    present = {e.label for e in entries}
    for c in range(num_classes):
        if c not in present:
            raise ManifestError(f"{path}: class {c} has no entries")
    return DatasetManifest(tuple(entries), num_classes)


def write_manifest(manifest: DatasetManifest, path) -> None:
    """Write a manifest; feature paths are stored relative to the output directory."""
    path = Path(path)
    lines = []
    for e in manifest.entries:
        rel = os.path.relpath(e.feature_path, start=path.parent)
        lines.append(f"{e.video_id}\t{rel}\t{e.label}\n")
    binio.atomic_write(path, "".join(lines).encode("utf-8"))


def split_train_test(
    manifest: DatasetManifest, train_fraction: float, seed: int
) -> tuple[DatasetManifest, DatasetManifest]:
    """Per-class stratified split: ceil(train_fraction * class_size) to train.

    Deterministic in (manifest, fraction, seed); the two outputs partition the
    entries and both keep the original manifest order.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train_fraction must be in (0, 1), got {train_fraction}")
    by_label: dict[int, list[int]] = {}
    for idx, e in enumerate(manifest.entries):
        by_label.setdefault(e.label, []).append(idx)
    for label, idxs in sorted(by_label.items()):
        if len(idxs) < 2:
            raise DataError(f"class {label} has {len(idxs)} entry; need at least 2 to split")
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for label in sorted(by_label):
        idxs = by_label[label]
        size = len(idxs)
        # tiny nudge so exact integer products do not round up through float error
        n_train = math.ceil(train_fraction * size - 1e-9)
        perm = rng.permutation(size)
        chosen = {idxs[p] for p in perm[:n_train]}
        train_idx.extend(i for i in idxs if i in chosen)
        test_idx.extend(i for i in idxs if i not in chosen)
    train_idx.sort()
    test_idx.sort()
    train = DatasetManifest(
        tuple(manifest.entries[i] for i in train_idx), manifest.num_classes
    )
    test = DatasetManifest(tuple(manifest.entries[i] for i in test_idx), manifest.num_classes)
    return train, test
