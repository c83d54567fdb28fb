"""End-to-end orchestration: configuration, the two-branch encode-fuse-train
flow, evaluation metrics, and the synthetic temporal benchmark generator.

A video is encoded in two branches, each stage by the package's public layer
function. Frames are unit-normalized (``l2_normalize``). With PCA on,
``normalized_pca_transform`` normalizes and reduces them in one step with a
model from ``pca_fit``: it projects the raw frames and divides each projection
by its frame's norm, so it makes neither a normalized nor a centered copy of
the frames. The time branch pools those frame descriptors directly. The
spectrum branch first maps the sequence to per-dimension magnitude spectra of
``spectrum_length`` frequency samples (``spectrum_of_sequence``) and pools
descriptors read from that matrix; ``dft_pool_axis`` selects whether one
descriptor is a frequency-bin column or a per-dimension spectral profile row.
Branch vectors are scaled to configured norms and concatenated (``fuse``); a
one-vs-rest linear SVM is trained on the fused vectors. ``fit_models`` is the
one fit and ``encode_video`` the one per-video encode path: ``run`` is the CLI
stages in one process, fit, then encode every training and test video.

Videos are read from disk one at a time and never all held. The PCA fit
streams the training videos into ``pca_fit``; if a branch fits a codebook or
mixture, the fit reads them once more for that branch's descriptors. Fit
memory is bounded by the D x D PCA scatter, one video and the codebook
branches' descriptors, not by the number of training frames.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .codebook import (
    Codebook,
    GmmModel,
    gmm_fit,
    kmeans_fit,
    load_codebook,
    load_gmm_model,
    save_codebook,
    save_gmm_model,
)
from .encode import LlcParams, VideoVector, average_pool, fisher_encode, fuse, llc_pool, vlad_encode
from .errors import ConfigError, DataError
from .featureio import (
    DatasetManifest,
    FeatureSequence,
    ManifestEntry,
    _text_lines,
    read_feature_sequence,
    split_train_test,
    write_feature_sequence,
    write_manifest,
)
from .preprocess import (
    PcaModel,
    l2_normalize,
    load_pca_model,
    normalized_pca_transform,
    pca_fit,
    save_pca_model,
)
from .spectral import spectrum_of_sequence
from .svm import LinearSvmModel, predict, train_linear_svm

# how one class of branch model is fitted (config, descriptors, size, seed),
# saved (model, path) and loaded (path); its bundle file is "{branch}_{file}"
_ModelKind = namedtuple("_ModelKind", "file fit save load")
# the model class an encoder pools over (None: nothing fitted), its default
# codebook/mixture size, and its pooling call (config, model, descriptors, branch)
_Encoder = namedtuple("_Encoder", "model default_size pool")
# The lambdas look each layer function up when called, so a function replaced
# on this module (by a test or a tracer) is the one that runs.
_MODEL_KINDS = {
    Codebook: _ModelKind(
        "codebook.tdfc",
        lambda c, d, size, seed: kmeans_fit(d, size, seed, c.kmeans_max_iters),
        lambda model, path: save_codebook(model, path),
        lambda path: load_codebook(path),
    ),
    GmmModel: _ModelKind(
        "gmm.tdfg",
        lambda c, d, size, seed: gmm_fit(d, size, seed, c.gmm_max_iters, c.gmm_tol),
        lambda model, path: save_gmm_model(model, path),
        lambda path: load_gmm_model(path),
    ),
}
_ENCODERS = {
    "average": _Encoder(None, None, lambda c, m, d, b: average_pool(d, branch=b)),
    "llc": _Encoder(Codebook, 1024, lambda c, m, d, b: llc_pool(
        m, LlcParams(neighbors=c.llc_neighbors, lam=c.llc_lambda), d, branch=b)),
    "fv": _Encoder(GmmModel, 16, lambda c, m, d, b: fisher_encode(
        m, d, branch=b, normalize=c.signed_sqrt_l2)),
    "vlad": _Encoder(Codebook, 16, lambda c, m, d, b: vlad_encode(
        m, d, branch=b, normalize=c.signed_sqrt_l2)),
}
ENCODERS = tuple(_ENCODERS)
POOL_AXES = ("dimension", "frequency")
_BRANCHES = ("time", "dft")
_PCA_FILE = "pca.tdfp"

# largest spectrum_length and synthetic dims: 4x the paper's 4096-dim frame
# features and 32x its longest spectrum (L = 500). One D x L spectrum at D = 4096,
# and one synthetic video of 4096 frames, then take at most 512 MiB. Larger values
# are rejected before anything is allocated, because memory overcommit can grant
# a huge request that then exhausts memory.
_MAX_SIZE = 16_384

# seed offsets so per-branch fits draw independent streams from one config seed
_FIT_SEED_OFFSETS = {"time": 11, "dft": 12}


@contextmanager
def _naming(prefix: str):
    """Prefix the message of a DataError raised in the block, e.g. with a video id."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{prefix}: {exc}") from None


def _check_finite(config) -> None:
    """Reject a non-finite value in any float field of a config dataclass."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "float" and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class PipelineConfig:
    """All knobs of the two-branch pipeline; field names double as config-file keys.

    Every way of building one (constructor, profile, ``replace``) checks it and
    raises ConfigError on an invalid value.
    """

    pca_dims: int | None = None
    spectrum_length: int = 500
    time_encoder: str = "average"
    dft_encoder: str = "average"
    time_codebook_size: int | None = None
    dft_codebook_size: int | None = None
    llc_neighbors: int = 5
    llc_lambda: float = 1e-4
    fusion_time_norm: float = 0.6
    fusion_dft_norm: float = 0.4
    time_branch_enabled: bool = True
    dft_branch_enabled: bool = True
    signed_sqrt_l2: bool = True
    dft_pool_axis: str = "dimension"
    train_fraction: float = 2.0 / 3.0
    svm_c: float = 100.0
    svm_max_epochs: int = 200
    svm_tol: float = 1e-6
    kmeans_max_iters: int = 100
    gmm_max_iters: int = 100
    gmm_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        _check_finite(self)
        if self.pca_dims is not None and self.pca_dims < 1:
            raise ConfigError(f"pca_dims must be positive, got {self.pca_dims}")
        if self.spectrum_length < 1:
            raise ConfigError(f"spectrum_length must be positive, got {self.spectrum_length}")
        if self.spectrum_length > _MAX_SIZE:
            raise ConfigError(
                f"spectrum_length must be at most {_MAX_SIZE}, got {self.spectrum_length}"
            )
        for name in ("time_encoder", "dft_encoder"):
            if getattr(self, name) not in ENCODERS:
                raise ConfigError(f"{name} must be one of {ENCODERS}, got {getattr(self, name)!r}")
        for name in ("time_codebook_size", "dft_codebook_size"):
            size = getattr(self, name)
            if size is not None and size < 1:
                raise ConfigError(f"{name} must be positive, got {size}")
        if self.llc_neighbors < 1:
            raise ConfigError(f"llc_neighbors must be positive, got {self.llc_neighbors}")
        if self.llc_lambda < 0:
            raise ConfigError(f"llc_lambda must be non-negative, got {self.llc_lambda}")
        for name in ("fusion_time_norm", "fusion_dft_norm", "svm_c", "svm_tol", "gmm_tol"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.time_branch_enabled and not self.dft_branch_enabled:
            raise ConfigError("at least one branch must be enabled")
        if self.dft_pool_axis not in POOL_AXES:
            raise ConfigError(
                f"dft_pool_axis must be one of {POOL_AXES}, got {self.dft_pool_axis!r}"
            )
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        for name in ("svm_max_epochs", "kmeans_max_iters", "gmm_max_iters"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def codebook_size(self, branch: str) -> int:
        explicit = getattr(self, f"{branch}_codebook_size")
        encoder = _ENCODERS[getattr(self, f"{branch}_encoder")]
        return encoder.default_size if explicit is None else explicit

    @classmethod
    def emotion_defaults(cls, **overrides) -> "PipelineConfig":
        """Hyperparameters of the 8-emotion configuration: PCA to 1024 dims,
        spectra of length 500, branch norms 3/5 and 2/5, penalty 100."""
        base = cls(pca_dims=1024, spectrum_length=500, fusion_time_norm=0.6,
                   fusion_dft_norm=0.4, svm_c=100.0)
        return replace(base, **overrides)

    @classmethod
    def action_defaults(cls, **overrides) -> "PipelineConfig":
        """Hyperparameters of the action-recognition configuration: spectra of
        length 200, unit branch norms, 32-word FV/VLAD codebooks (LLC keeps
        its 1024 words), penalty 1."""
        base = cls(pca_dims=None, spectrum_length=200, fusion_time_norm=1.0,
                   fusion_dft_norm=1.0, svm_c=1.0)
        config = replace(base, **overrides)
        sizes = {
            f"{b}_codebook_size": 32 for b in _BRANCHES
            if getattr(config, f"{b}_codebook_size") is None
            and getattr(config, f"{b}_encoder") in ("fv", "vlad")
        }
        return replace(config, **sizes) if sizes else config


def _branch_models(config: PipelineConfig) -> dict[str, type | None]:
    """The model class each enabled branch pools over; None for average pooling."""
    return {
        b: _ENCODERS[getattr(config, f"{b}_encoder")].model
        for b in _BRANCHES if getattr(config, f"{b}_branch_enabled")
    }


_CONFIG_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _CONFIG_BOOL[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"expected a boolean, got {text!r}") from None


def _parse_frequencies(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(","))


_PARSER_BY_TYPE = {"int": int, "float": float, "str": str, "bool": _parse_bool,
                   "tuple[float, ...]": _parse_frequencies}


def _field_parsers(cls) -> dict:
    # annotations are strings here (``from __future__ import annotations``)
    return {f.name: _PARSER_BY_TYPE[f.type.removesuffix(" | None")] for f in fields(cls)}


_CONFIG_PARSERS = _field_parsers(PipelineConfig)


def _read_key_value_file(path, parsers: dict, kind: str) -> dict:
    path = Path(path)
    values: dict = {}
    for lineno, raw in _text_lines(path, ConfigError, f"{kind} file not found"):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, _, text = line.partition("=")
        key = key.strip()
        if key not in parsers:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}: line {lineno}: duplicate key {key!r}")
        try:
            values[key] = parsers[key](text.strip())
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(
                f"{path}: line {lineno}: bad value {text.strip()!r} for {key}"
            ) from None
    return values


def parse_pipeline_config(path) -> PipelineConfig:
    """Read a flat key=value config file; keys match PipelineConfig field names.

    Unknown keys are errors, as are encoder-specific keys for branches that do
    not use that encoder.
    """
    values = _read_key_value_file(path, _CONFIG_PARSERS, "config")
    config = PipelineConfig(**values)
    models = _branch_models(config)
    uses_llc = any(getattr(config, f"{b}_encoder") == "llc" for b in models)
    for key in ("llc_neighbors", "llc_lambda"):
        if key in values and not uses_llc:
            raise ConfigError(f"{path}: {key} given but no enabled branch uses the llc encoder")
    for branch in _BRANCHES:
        key = f"{branch}_codebook_size"
        if key in values and models.get(branch) is None:
            raise ConfigError(
                f"{path}: {key} given but the {branch} branch does not use a codebook"
            )
    return config


@dataclass(frozen=True)
class SynthSpec:
    """Shape of a generated benchmark: sinusoid frequency per class in the first
    feature dimension, Gaussian noise everywhere else. Checked on construction."""

    num_classes: int
    videos_per_class: int
    dims: int
    frames_min: int
    frames_max: int
    frequencies: tuple[float, ...]
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_finite(self)
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be positive, got {self.num_classes}")
        if self.videos_per_class < 1:
            raise ConfigError(f"videos_per_class must be positive, got {self.videos_per_class}")
        if self.dims < 1:
            raise ConfigError(f"dims must be positive, got {self.dims}")
        if self.dims > _MAX_SIZE:
            raise ConfigError(f"dims must be at most {_MAX_SIZE}, got {self.dims}")
        if not 16 <= self.frames_min <= self.frames_max <= 4096:
            raise ConfigError(
                f"frame-count range [{self.frames_min}, {self.frames_max}] must sit within [16, 4096]"
            )
        if len(self.frequencies) != self.num_classes:
            raise ConfigError(
                f"need one frequency per class: {self.num_classes} classes, "
                f"{len(self.frequencies)} frequencies"
            )
        for f in self.frequencies:
            if not 0.0 < f < 0.5:
                raise ConfigError(f"frequencies must lie in (0, 0.5) cycles/frame, got {f}")
        if self.noise < 0:
            raise ConfigError(f"noise must be non-negative, got {self.noise}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


_SYNTH_PARSERS = _field_parsers(SynthSpec)


def parse_synth_spec(path) -> SynthSpec:
    """Read a flat key=value synthetic-dataset spec file."""
    values = _read_key_value_file(path, _SYNTH_PARSERS, "spec")
    for key in (f.name for f in fields(SynthSpec) if f.default is MISSING):
        if key not in values:
            raise ConfigError(f"{path}: missing required key {key!r}")
    return SynthSpec(**values)


def generate_synthetic_dataset(spec: SynthSpec, out_dir) -> DatasetManifest:
    """Write a synthetic benchmark whose only class signal is temporal.

    Every video of class c carries ``1 + 0.5*sin(2*pi*f_c*n + phase)`` plus
    noise in dimension 1 (phase drawn per video) and pure Gaussian noise in
    the remaining dimensions, so per-video means are class-independent and
    only the oscillation frequency separates the classes. Feature files are
    written in TDFE format next to a ``manifest.tsv``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    entries: list[ManifestEntry] = []
    for c in range(spec.num_classes):
        frequency = spec.frequencies[c]
        for j in range(spec.videos_per_class):
            frames = int(rng.integers(spec.frames_min, spec.frames_max + 1))
            phase = rng.uniform(0.0, 2.0 * np.pi)
            values = rng.normal(0.0, spec.noise, size=(spec.dims, frames))
            steps = np.arange(frames)
            values[0] += 1.0 + 0.5 * np.sin(2.0 * np.pi * frequency * steps + phase)
            video_id = f"class{c}_{j:04d}"
            path = out_dir / f"{video_id}.tdfe"
            write_feature_sequence(FeatureSequence(video_id=video_id, values=values), path)
            entries.append(ManifestEntry(video_id, path, c))
    manifest = DatasetManifest(tuple(entries), spec.num_classes)
    write_manifest(manifest, out_dir / "manifest.tsv")
    return manifest


@dataclass(frozen=True)
class ModelBundle:
    """Fitted preprocessing and per-branch encoder models."""

    pca: PcaModel | None = None
    time_model: Codebook | GmmModel | None = None
    dft_model: Codebook | GmmModel | None = None


def _check_bundle(config: PipelineConfig, bundle: ModelBundle) -> None:
    """Raise DataError unless the bundle holds each fitted model the config uses:
    a PCA of ``pca_dims`` outputs if PCA is on, and for each enabled branch the
    class of model its encoder pools over."""
    if config.pca_dims is not None:
        if bundle.pca is None:
            raise DataError("pca stage: config requests PCA but the bundle has no PCA model")
        if bundle.pca.output_dims != config.pca_dims:
            raise DataError(
                f"pca stage: bundle was fitted at pca_dims={bundle.pca.output_dims}, "
                f"config requests {config.pca_dims}"
            )
    for branch, cls in _branch_models(config).items():
        model = getattr(bundle, f"{branch}_model")
        if cls is not None and not isinstance(model, cls):
            found = "none" if model is None else f"a {type(model).__name__}"
            raise DataError(
                f"{branch} branch: encoder {getattr(config, f'{branch}_encoder')!r} needs a "
                f"{cls.__name__}, the bundle has {found}"
            )


def _descriptor_sets(
    config: PipelineConfig, pca: PcaModel | None, video_id: str, frames: np.ndarray, branches
) -> dict[str, np.ndarray]:
    """Descriptor set (one descriptor per row) of each named branch, time
    branch first, from a video's raw frames (frames x dims): unit-normalized,
    and PCA-reduced if PCA is on."""
    if config.pca_dims is None:
        frames = l2_normalize(frames)
    else:
        # a dims mismatch is the PCA stage's error; a frame that cannot be
        # normalized is the video's own, named as it is without PCA
        with _naming("pca stage") if frames.shape[1] != pca.input_dims else nullcontext():
            frames = normalized_pca_transform(pca, frames)
    sets = {"time": frames} if "time" in branches else {}
    if "dft" in branches:
        spectrum = spectrum_of_sequence(FeatureSequence(video_id, frames.T), config.spectrum_length)
        sets["dft"] = spectrum.values.T if config.dft_pool_axis == "frequency" else spectrum.values
    return sets


class _Videos:
    """The videos of a manifest, read from disk one at a time and never all
    held. All must have the same descriptor dims, ``dims`` if given.

    Iterating reads every video again and yields its unit-normalized frames
    (frames x dims): the sized iterable of row blocks that ``pca_fit`` takes.
    ``error`` keeps the error a read or normalization raised there, so that
    it is passed on as it is, not as an error of the fit.
    """

    def __init__(self, manifest: DatasetManifest, dims: int | None = None):
        self.manifest, self.dims, self.error = manifest, dims, None

    def read(self, entry: ManifestEntry) -> FeatureSequence:
        seq = read_feature_sequence(entry.feature_path, entry.video_id)
        if self.dims is not None and seq.dims != self.dims:
            raise DataError(
                f"{entry.video_id}: has {seq.dims} descriptor dims, dataset uses {self.dims}"
            )
        self.dims = seq.dims
        return seq

    def __len__(self) -> int:
        return len(self.manifest.entries)

    def __iter__(self):
        try:
            for e in self.manifest.entries:
                yield l2_normalize(self.read(e).values.T)
        except DataError as exc:
            self.error = exc
            raise


def fit_models(config: PipelineConfig, manifest: DatasetManifest) -> ModelBundle:
    """Fit the optional PCA and any branch codebooks/GMMs on training videos.

    PCA is ``pca_fit`` on every unit-normalized training frame, streamed one
    video at a time, so fit memory is bounded by the D x D scatter, one video
    and one row sum per video, not by the number of frames. Branch models are
    fitted on that branch's descriptors from the training videos only, with
    separate seeds per branch; only the codebook branches' descriptor sets are
    built and held, and they are dropped on return. A video is read once for
    PCA and once for the codebook descriptors, each only if needed: twice with
    PCA and a codebook, never with neither.
    """
    videos, pca = _Videos(manifest), None
    if config.pca_dims is not None:
        try:
            pca = pca_fit(videos, config.pca_dims)
        except DataError as exc:
            if exc is videos.error:
                raise
            raise DataError(f"pca stage: {exc}") from None
    branches = {b: cls for b, cls in _branch_models(config).items() if cls is not None}
    if not branches:
        return ModelBundle(pca)
    # the frames are passed on, not kept, so no video outlives its turn
    sets = [_descriptor_sets(config, pca, e.video_id, videos.read(e).values.T, branches)
            for e in manifest.entries]
    models = {}
    for branch, cls in branches.items():
        descriptors = np.vstack([s[branch] for s in sets])
        seed = config.seed + _FIT_SEED_OFFSETS[branch]
        with _naming(f"{branch} branch"):
            models[f"{branch}_model"] = _MODEL_KINDS[cls].fit(
                config, descriptors, config.codebook_size(branch), seed
            )
    return ModelBundle(pca, **models)


def encode_video(config: PipelineConfig, bundle: ModelBundle, seq: FeatureSequence) -> VideoVector:
    """Fused fixed-length representation of one video.

    The bundle is checked against the config first. Frames are unit-normalized
    by ``l2_normalize``, or with PCA on normalized and reduced in one step by
    ``normalized_pca_transform``. Then each enabled branch pools its descriptor
    set, and the branch vectors, time branch first, are scaled to their
    configured norms and concatenated. An error names the video, and the
    branch if pooling raised it.
    """
    with _naming(seq.video_id):
        _check_bundle(config, bundle)
        sets = _descriptor_sets(
            config, bundle.pca, seq.video_id, seq.values.T, _branch_models(config)
        )
        scaled = []
        for branch, descriptors in sets.items():
            with _naming(f"{branch} branch"):
                vector = _ENCODERS[getattr(config, f"{branch}_encoder")].pool(
                    config, getattr(bundle, f"{branch}_model"), descriptors, branch
                )
            scaled.append((vector, getattr(config, f"fusion_{branch}_norm")))
        return fuse(scaled)


@dataclass(frozen=True)
class EvaluationReport:
    """Accuracy summary of one train/test run."""

    overall_accuracy: float
    per_class_accuracy: tuple[float, ...]
    confusion_matrix: np.ndarray


def evaluate(model: LinearSvmModel, test) -> EvaluationReport:
    """Confusion matrix and accuracies of the model on (vector, label) pairs."""
    if not test:
        raise DataError("test set is empty")
    classes = model.num_classes
    confusion = np.zeros((classes, classes), dtype=np.int64)
    for vector, label in test:
        if not 0 <= label < classes:
            raise DataError(f"label {label} out of range for {classes} classes")
        predicted, _ = predict(model, vector)
        confusion[label, predicted] += 1
    row_totals = confusion.sum(axis=1)
    per_class = tuple(
        float(confusion[c, c] / row_totals[c]) if row_totals[c] > 0 else 0.0
        for c in range(classes)
    )
    overall = float(np.trace(confusion) / confusion.sum())
    return EvaluationReport(
        overall_accuracy=overall, per_class_accuracy=per_class, confusion_matrix=confusion
    )


@dataclass(frozen=True)
class ExperimentResult:
    reports: tuple[EvaluationReport, ...]
    mean_overall_accuracy: float


def _encode_manifest(
    config: PipelineConfig, bundle: ModelBundle, videos: _Videos
) -> list[tuple[VideoVector, int]]:
    """(vector, label) of every video, each read and passed to ``encode_video``
    in turn: the one encode loop of ``run`` and CLI ``encode``. Only the
    vectors are kept, and every video must have ``videos.dims``."""
    entries = videos.manifest.entries
    return [(encode_video(config, bundle, videos.read(e)), e.label) for e in entries]


def _repetition_split(config: PipelineConfig, manifest: DatasetManifest, r: int):
    """The (train, test) split of repetition r, counted from 1."""
    return split_train_test(manifest, config.train_fraction, config.seed + r)


def run_repeated_experiment(
    config: PipelineConfig, manifest: DatasetManifest, repetitions: int
) -> ExperimentResult:
    """Repeat split/fit/encode/train/evaluate; run r splits with seed + r.

    Each repetition is the CLI stages in one process: ``fit_models`` on the
    training videos, ``encode_video`` on every training video, the SVM, then
    ``encode_video`` on every test video, which must have the training videos'
    dims. So each test video is read once, and each training video once to
    encode it, once more for the PCA fit and once more for the codebook
    descriptors, each only if needed. Nothing is kept from one repetition to
    the next.
    """
    if repetitions < 1:
        raise DataError(f"repetitions must be positive, got {repetitions}")
    reports = []
    for r in range(1, repetitions + 1):
        train_manifest, test_manifest = _repetition_split(config, manifest, r)
        bundle = fit_models(config, train_manifest)
        train = _Videos(train_manifest)
        model = train_linear_svm(
            _encode_manifest(config, bundle, train),
            manifest.num_classes,
            config.svm_c,
            config.svm_max_epochs,
            config.svm_tol,
            seed=config.seed,
        )
        test_pairs = _encode_manifest(config, bundle, _Videos(test_manifest, train.dims))
        reports.append(evaluate(model, test_pairs))
    mean = float(np.mean([rep.overall_accuracy for rep in reports]))
    return ExperimentResult(reports=tuple(reports), mean_overall_accuracy=mean)


def save_bundle(bundle: ModelBundle, out_dir) -> list[Path]:
    """Write every fitted model of the bundle into a directory; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if bundle.pca is not None:
        written.append(out_dir / _PCA_FILE)
        save_pca_model(bundle.pca, written[-1])
    for branch in _BRANCHES:
        model = getattr(bundle, f"{branch}_model")
        if model is not None:
            kind = _MODEL_KINDS[type(model)]
            written.append(out_dir / f"{branch}_{kind.file}")
            kind.save(model, written[-1])
    return written


def load_bundle(config: PipelineConfig, bundle_dir) -> ModelBundle:
    """Load the fitted models the configuration requires from a bundle
    directory, and check them against the config."""
    bundle_dir = Path(bundle_dir)
    if not bundle_dir.is_dir():
        raise DataError(f"bundle directory not found: {bundle_dir}")

    def load(name: str, loader):
        path = bundle_dir / name
        return loader(path) if path.exists() else None

    pca = load(_PCA_FILE, load_pca_model) if config.pca_dims is not None else None
    models = {
        f"{branch}_model": load(f"{branch}_{_MODEL_KINDS[cls].file}", _MODEL_KINDS[cls].load)
        for branch, cls in _branch_models(config).items() if cls is not None
    }
    bundle = ModelBundle(pca, **models)
    _check_bundle(config, bundle)
    return bundle
