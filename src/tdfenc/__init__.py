"""tdfenc: fixed-length video representations from frame-level features.

Variable-length sequences of per-frame descriptors are fused from two views:
time-domain pooling of the descriptors themselves, and pooling of their
per-dimension DFT magnitude spectra, each resampled to the same number of
frequency samples whatever the video's length. Average, LLC, Fisher-vector, and VLAD encoders are available per branch, and
a one-vs-rest linear SVM classifies the fused vectors.
"""

from .codebook import (
    Codebook,
    GmmModel,
    gmm_fit,
    gmm_responsibilities,
    kmeans_fit,
    load_codebook,
    load_gmm_model,
    save_codebook,
    save_gmm_model,
)
from .encode import (
    LlcParams,
    VideoVector,
    average_pool,
    fisher_encode,
    fuse,
    llc_encode,
    llc_pool,
    load_video_vector,
    save_video_vector,
    vlad_encode,
)
from .errors import ConfigError, DataError, FormatError, ManifestError, TdfError
from .featureio import (
    DatasetManifest,
    FeatureSequence,
    ManifestEntry,
    read_feature_sequence,
    read_manifest,
    split_train_test,
    write_feature_sequence,
    write_manifest,
)
from .pipeline import (
    EvaluationReport,
    ExperimentResult,
    ModelBundle,
    PipelineConfig,
    SynthSpec,
    encode_video,
    evaluate,
    fit_models,
    generate_synthetic_dataset,
    load_bundle,
    parse_pipeline_config,
    parse_synth_spec,
    run_repeated_experiment,
    save_bundle,
)
from .preprocess import (
    PcaModel,
    l2_normalize,
    load_pca_model,
    normalized_pca_transform,
    pca_fit,
    pca_transform,
    save_pca_model,
    scale_to_norm,
)
from .spectral import (
    cubic_resample,
    dft_magnitude,
    spectrum_of_sequence,
)
from .svm import (
    LinearSvmModel,
    load_svm_model,
    predict,
    save_svm_model,
    train_linear_svm,
)

__version__ = "0.1.0"
