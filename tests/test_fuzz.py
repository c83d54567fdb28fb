"""Hostile-input fuzzing: truncated and bit-flipped artifacts of all six binary
formats, and random manifests, config files and spec files, may only end in
the package's own errors (TdfError subclasses)."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdfenc import (
    Codebook,
    FeatureSequence,
    GmmModel,
    LinearSvmModel,
    PcaModel,
    VideoVector,
    load_codebook,
    load_gmm_model,
    load_pca_model,
    load_svm_model,
    load_video_vector,
    parse_pipeline_config,
    parse_synth_spec,
    read_feature_sequence,
    read_manifest,
    save_codebook,
    save_gmm_model,
    save_pca_model,
    save_svm_model,
    save_video_vector,
    write_feature_sequence,
)
from tdfenc.errors import TdfError
from tdfenc.pipeline import PipelineConfig, SynthSpec

# few examples, fixed draws: a deterministic run that adds seconds, not minutes
FUZZ = settings(deadline=None, derandomize=True, max_examples=150)

_RNG = np.random.default_rng(0)

# magic -> (saver, loader, a small value)
FORMATS = {
    "TDFE": (
        write_feature_sequence,
        read_feature_sequence,
        FeatureSequence(video_id="v", values=_RNG.normal(size=(3, 5))),
    ),
    "TDFP": (
        save_pca_model,
        load_pca_model,
        PcaModel(mean=_RNG.normal(size=3), components=np.eye(3)[:2], explained_variance=[2.0, 1.0]),
    ),
    "TDFC": (save_codebook, load_codebook, Codebook(centroids=_RNG.normal(size=(4, 3)))),
    "TDFG": (
        save_gmm_model,
        load_gmm_model,
        GmmModel(weights=[0.25, 0.75], means=_RNG.normal(size=(2, 3)), variances=np.ones((2, 3))),
    ),
    "TDFV": (
        save_video_vector,
        load_video_vector,
        VideoVector(values=_RNG.normal(size=6), method="fv", branch="dft"),
    ),
    "TDFM": (
        save_svm_model,
        load_svm_model,
        LinearSvmModel(weights=_RNG.normal(size=(3, 4)), biases=_RNG.normal(size=3), penalty=1.0),
    ),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _load_only_package_errors(loader, path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        loader(path)
    except TdfError:
        pass


@pytest.mark.parametrize("magic", sorted(FORMATS))
@FUZZ
@given(data=st.data())
def test_truncated_or_bit_flipped_artifacts_raise_only_package_errors(fuzz_dir, magic, data):
    saver, loader, value = FORMATS[magic]
    original_path = fuzz_dir / f"original.{magic.lower()}"
    if not original_path.exists():
        saver(value, original_path)
    original = original_path.read_bytes()
    bits = len(original) * 8
    if data.draw(st.booleans(), label="truncate"):
        mutated = original[: data.draw(st.integers(0, len(original) - 1), label="length")]
    else:
        flipped = bytearray(original)
        for bit in data.draw(st.lists(st.integers(0, bits - 1), min_size=1, max_size=4)):
            flipped[bit // 8] ^= 1 << (bit % 8)
        mutated = bytes(flipped)
    _load_only_package_errors(loader, fuzz_dir / f"mutated.{magic.lower()}", mutated)


_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
_MANIFEST_CELL = st.one_of(
    _TEXT,
    st.sampled_from(["", ".", "..", "a/b", "a\\b", "v\0", "x.tdfe", "/abs/x.tdfe", "0", "1", "-1",
                     " 2", "1e3", "1_0", "9" * 5000]),
)
_MANIFEST_LINE = st.lists(_MANIFEST_CELL, min_size=0, max_size=4).map("\t".join)


@FUZZ
@given(
    content=st.one_of(
        st.binary(max_size=200),
        st.lists(_MANIFEST_LINE, max_size=6).map(lambda lines: "\n".join(lines).encode("utf-8")),
    )
)
def test_random_manifests_raise_only_package_errors(fuzz_dir, content):
    _load_only_package_errors(read_manifest, fuzz_dir / "fuzz.tsv", content)


_VALUES = st.one_of(
    _TEXT,
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-1", "0", "1", "0.5", "100", "true", "no",
                     "average", "llc", "fv", "vlad", "frequency", "0.1,0.3", "0.1,,0.3",
                     "9" * 5000]),
)


def _key_value_files(keys):
    line = st.one_of(
        st.tuples(st.one_of(st.sampled_from(keys), _TEXT), _VALUES).map("=".join),
        _TEXT,
    )
    return st.one_of(
        st.binary(max_size=200),
        st.lists(line, max_size=8).map(lambda lines: "\n".join(lines).encode("utf-8")),
    )


@FUZZ
@given(content=_key_value_files([f.name for f in fields(PipelineConfig)]))
def test_random_config_files_raise_only_package_errors(fuzz_dir, content):
    _load_only_package_errors(parse_pipeline_config, fuzz_dir / "fuzz.cfg", content)


@FUZZ
@given(content=_key_value_files([f.name for f in fields(SynthSpec)]))
def test_random_spec_files_raise_only_package_errors(fuzz_dir, content):
    _load_only_package_errors(parse_synth_spec, fuzz_dir / "fuzz.spec", content)
