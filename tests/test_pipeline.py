from dataclasses import replace

import numpy as np
import pytest

from tdfenc import (
    FeatureSequence,
    PipelineConfig,
    SynthSpec,
    dft_magnitude,
    encode_video,
    evaluate,
    fit_models,
    generate_synthetic_dataset,
    l2_normalize,
    load_bundle,
    parse_pipeline_config,
    parse_synth_spec,
    pca_fit,
    read_feature_sequence,
    run_repeated_experiment,
    save_bundle,
    split_train_test,
    train_linear_svm,
    write_feature_sequence,
)
from tdfenc.errors import ConfigError, DataError, FormatError
from tdfenc.codebook import Codebook, GmmModel
from tdfenc.pipeline import ModelBundle
from tdfenc.svm import LinearSvmModel


def tiny_spec(**overrides):
    base = dict(
        num_classes=2,
        videos_per_class=6,
        dims=4,
        frames_min=24,
        frames_max=40,
        frequencies=(0.08, 0.3),
        noise=0.05,
        seed=11,
    )
    base.update(overrides)
    return SynthSpec(**base)


class TestConfigParsing:
    def test_parse_full_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment setup\n"
            "spectrum_length=500\n"
            "time_encoder=fv\n"
            "dft_encoder=vlad\n"
            "time_codebook_size=16\n"
            "dft_codebook_size=16\n"
            "fusion_time_norm=0.6\n"
            "fusion_dft_norm=0.4\n"
            "svm_c=100\n"
            "seed=42\n",
            encoding="utf-8",
        )
        config = parse_pipeline_config(path)
        assert config.spectrum_length == 500
        assert config.time_encoder == "fv"
        assert config.dft_encoder == "vlad"
        assert config.fusion_time_norm == 0.6
        assert config.svm_c == 100.0
        assert config.seed == 42

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("spectrum_len=500\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_pipeline_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("spectrum_length=many\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="bad value"):
            parse_pipeline_config(path)

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_pipeline_config(tmp_path / "absent.cfg")

    def test_codebook_size_for_average_branch_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("time_encoder=average\ntime_codebook_size=16\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="codebook"):
            parse_pipeline_config(path)

    def test_llc_params_without_llc_encoder_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("llc_neighbors=3\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="llc"):
            parse_pipeline_config(path)

    def test_both_branches_disabled_rejected(self):
        with pytest.raises(ConfigError, match="branch"):
            PipelineConfig(time_branch_enabled=False, dft_branch_enabled=False)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key",
        ["fusion_time_norm", "fusion_dft_norm", "svm_c", "svm_tol", "gmm_tol", "llc_lambda",
         "train_fraction"],
    )
    def test_non_finite_float_rejected(self, tmp_path, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"time_encoder=llc\n{key}={value}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=f"^{key} must be finite"):
            parse_pipeline_config(path)

    def test_not_utf8_is_config_error_naming_the_file(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("seed=1\n# r\xe9sum\xe9\n".encode("latin-1"))
        with pytest.raises(ConfigError, match="latin1.cfg: not UTF-8"):
            parse_pipeline_config(path)

    def test_construction_checks_every_way_a_config_is_built(self):
        with pytest.raises(ConfigError, match="svm_c must be positive, got -1"):
            PipelineConfig(svm_c=-1.0)
        with pytest.raises(ConfigError, match="spectrum_length must be positive"):
            replace(PipelineConfig(), spectrum_length=0)
        assert PipelineConfig(spectrum_length=16384).spectrum_length == 16384
        with pytest.raises(ConfigError, match="^spectrum_length must be at most 16384, got 16385$"):
            replace(PipelineConfig(), spectrum_length=16385)
        with pytest.raises(ConfigError, match="time_encoder must be one of"):
            PipelineConfig.emotion_defaults(time_encoder="mean")
        with pytest.raises(ConfigError, match="dft_pool_axis must be one of"):
            PipelineConfig.action_defaults(dft_pool_axis="time")
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            PipelineConfig(seed=-1)

    def test_default_codebook_sizes(self):
        assert PipelineConfig(time_encoder="llc").codebook_size("time") == 1024
        assert PipelineConfig(time_encoder="fv").codebook_size("time") == 16
        assert PipelineConfig(dft_encoder="vlad").codebook_size("dft") == 16
        assert PipelineConfig(dft_encoder="fv", dft_codebook_size=32).codebook_size("dft") == 32

    def test_profiles(self):
        emotion = PipelineConfig.emotion_defaults()
        assert emotion.pca_dims == 1024
        assert emotion.spectrum_length == 500
        assert (emotion.fusion_time_norm, emotion.fusion_dft_norm) == (0.6, 0.4)
        assert emotion.svm_c == 100.0
        action = PipelineConfig.action_defaults()
        assert action.spectrum_length == 200
        assert action.svm_c == 1.0
        assert (action.fusion_time_norm, action.fusion_dft_norm) == (1.0, 1.0)
        # 32 words for fv/vlad in the action profile; llc keeps 1024
        assert PipelineConfig.action_defaults(time_encoder="fv").codebook_size("time") == 32
        assert PipelineConfig.action_defaults(dft_encoder="vlad").codebook_size("dft") == 32
        assert PipelineConfig.action_defaults(time_encoder="llc").codebook_size("time") == 1024


class TestSynthSpec:
    def test_parse_spec_file(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text(
            "num_classes=2\nvideos_per_class=6\ndims=4\nframes_min=24\nframes_max=40\n"
            "frequencies=0.08,0.3\nnoise=0.05\nseed=11\n",
            encoding="utf-8",
        )
        assert parse_synth_spec(path) == tiny_spec()

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text("num_classes=2\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="missing required key"):
            parse_synth_spec(path)

    def test_required_keys_are_the_fields_without_a_default(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_text(
            "num_classes=2\nvideos_per_class=6\ndims=4\nframes_min=24\nframes_max=40\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="missing required key 'frequencies'"):
            parse_synth_spec(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_noise_rejected(self, tmp_path, value):
        path = tmp_path / "synth.cfg"
        path.write_text(
            "num_classes=2\nvideos_per_class=6\ndims=4\nframes_min=24\nframes_max=40\n"
            f"frequencies=0.08,0.3\nnoise={value}\n",
            encoding="utf-8",
        )
        with pytest.raises(ConfigError, match="^noise must be finite"):
            parse_synth_spec(path)

    def test_not_utf8_is_config_error_naming_the_file(self, tmp_path):
        path = tmp_path / "synth.cfg"
        path.write_bytes(b"num_classes=2\n\xff\xfe\n")
        with pytest.raises(ConfigError, match="synth.cfg: not UTF-8"):
            parse_synth_spec(path)

    def test_construction_and_replace_are_checked(self):
        with pytest.raises(ConfigError, match="noise must be non-negative"):
            tiny_spec(noise=-0.1)
        with pytest.raises(ConfigError, match="need one frequency per class"):
            replace(tiny_spec(), num_classes=3)
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            tiny_spec(seed=-1)
        assert tiny_spec(dims=16384).dims == 16384
        with pytest.raises(ConfigError, match="^dims must be at most 16384, got 16385$"):
            replace(tiny_spec(), dims=16385)

    def test_frequency_range_validated(self):
        with pytest.raises(ConfigError, match="frequencies"):
            tiny_spec(frequencies=(0.1, 0.6)).validate()
        with pytest.raises(ConfigError):
            tiny_spec(frequencies=(0.1,)).validate()

    def test_frame_range_validated(self):
        with pytest.raises(ConfigError):
            tiny_spec(frames_min=8).validate()
        with pytest.raises(ConfigError):
            tiny_spec(frames_max=5000).validate()


class TestGenerator:
    def test_outputs_parse_and_match_spec(self, tmp_path):
        spec = tiny_spec()
        manifest = generate_synthetic_dataset(spec, tmp_path / "data")
        assert manifest.num_classes == 2
        assert len(manifest.entries) == 12
        for entry in manifest.entries:
            seq = read_feature_sequence(entry.feature_path, entry.video_id)
            assert seq.dims == 4
            assert 24 <= seq.frames <= 40

    def test_dimension_one_mean_near_one_for_all_classes(self, tmp_path):
        spec = tiny_spec(videos_per_class=20, frames_min=64, frames_max=128, noise=0.1)
        manifest = generate_synthetic_dataset(spec, tmp_path / "data")
        means = {0: [], 1: []}
        for entry in manifest.entries:
            seq = read_feature_sequence(entry.feature_path, entry.video_id)
            means[entry.label].append(seq.values[0].mean())
        for label in (0, 1):
            assert abs(np.mean(means[label]) - 1.0) < 0.05
        assert abs(np.mean(means[0]) - np.mean(means[1])) < 0.05

    def test_noiseless_spectral_peak_bin(self, tmp_path):
        # f = 0.125 at N = 64: dimension-1 magnitude peaks at bin index 8 (the
        # ninth frequency sample) and its mirror at 56, once DC is excluded
        spec = tiny_spec(
            num_classes=2,
            frequencies=(0.125, 0.25),
            frames_min=64,
            frames_max=64,
            noise=0.0,
            videos_per_class=3,
        )
        manifest = generate_synthetic_dataset(spec, tmp_path / "data")
        for entry in manifest.entries:
            if entry.label != 0:
                continue
            seq = read_feature_sequence(entry.feature_path, entry.video_id)
            magnitudes = dft_magnitude(seq.values[0])
            assert int(np.argmax(magnitudes[1:32])) + 1 == 8
            assert int(np.argmax(magnitudes[33:])) + 33 == 56

    def test_equal_frequencies_accepted(self, tmp_path):
        # equal class frequencies are a valid construction: they remove the
        # spectral discriminant on purpose
        spec = tiny_spec(frequencies=(0.2, 0.2))
        manifest = generate_synthetic_dataset(spec, tmp_path / "data")
        assert len(manifest.entries) == 12

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = tiny_spec()
        generate_synthetic_dataset(spec, tmp_path / "a")
        generate_synthetic_dataset(spec, tmp_path / "b")
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestEncodeVideo:
    def test_constant_video_average_average(self):
        frame = np.array([3.0, 0.0, 4.0])
        seq = FeatureSequence("c", np.tile(frame[:, None], (1, 10)))
        config = PipelineConfig(
            spectrum_length=20, fusion_time_norm=0.6, fusion_dft_norm=0.4, seed=0
        )
        out = encode_video(config, ModelBundle(), seq)
        # time branch: the normalized frame at norm 0.6
        np.testing.assert_allclose(out.values[:3], 0.6 * l2_normalize(frame), atol=1e-12)
        # spectrum branch (per-dimension profiles): all energy sits at the DC end
        dft_part = out.values[3:]
        assert np.linalg.norm(dft_part) == pytest.approx(0.4, abs=1e-12)
        assert int(np.argmax(np.abs(dft_part))) == 0
        assert np.max(np.abs(dft_part[8:])) < 0.1 * np.max(np.abs(dft_part))

    def test_constant_video_frequency_axis_mode(self):
        frame = np.array([3.0, 0.0, 4.0])
        seq = FeatureSequence("c", np.tile(frame[:, None], (1, 10)))
        config = PipelineConfig(spectrum_length=20, dft_pool_axis="frequency", seed=0)
        out = encode_video(config, ModelBundle(), seq)
        # pooled frequency columns are dominated by the DC column: the mean
        # spectrum points along the (normalized) frame direction
        dft_part = out.values[3:]
        np.testing.assert_allclose(
            dft_part / np.linalg.norm(dft_part), l2_normalize(frame), atol=1e-6
        )

    def test_single_branch_behavior(self):
        rng = np.random.default_rng(0)
        seq = FeatureSequence("v", rng.normal(size=(3, 30)))
        config = PipelineConfig(dft_branch_enabled=False, fusion_time_norm=0.6)
        out = encode_video(config, ModelBundle(), seq)
        assert out.dims == 3
        assert np.linalg.norm(out.values) == pytest.approx(0.6, abs=1e-12)

    def test_encode_deterministic(self):
        rng = np.random.default_rng(1)
        seq = FeatureSequence("v", rng.normal(size=(4, 50)))
        config = PipelineConfig(spectrum_length=64)
        a = encode_video(config, ModelBundle(), seq)
        b = encode_video(config, ModelBundle(), seq)
        assert a.values.tobytes() == b.values.tobytes()

    def test_pca_dims_mismatch_names_stage(self, tmp_path):
        spec = tiny_spec()
        manifest = generate_synthetic_dataset(spec, tmp_path / "data")
        config = PipelineConfig(pca_dims=3, spectrum_length=16, seed=0)
        bundle = fit_models(config, manifest)
        other = PipelineConfig(pca_dims=2, spectrum_length=16, seed=0)
        seq = read_feature_sequence(manifest.entries[0].feature_path)
        with pytest.raises(DataError, match="pca stage"):
            encode_video(other, bundle, seq)

    def test_pca_input_dims_mismatch_names_the_video(self, tmp_path):
        manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
        config = PipelineConfig(pca_dims=3, spectrum_length=16, seed=0)
        bundle = fit_models(config, manifest)
        seq = FeatureSequence("clip_02", np.random.default_rng(5).normal(size=(5, 30)))
        message = "^clip_02: pca stage: dimension mismatch: input has 5 dims, PCA expects 4$"
        with pytest.raises(DataError, match=message):
            encode_video(config, bundle, seq)

    @pytest.mark.parametrize("pca_dims", [None, 3])
    def test_overflowing_frame_names_the_video_not_the_pca_stage(self, tmp_path, pca_dims):
        # normalization is the video's own stage, with PCA on as without it
        manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
        config = PipelineConfig(pca_dims=pca_dims, spectrum_length=16, seed=0)
        bundle = fit_models(config, manifest)
        values = np.random.default_rng(6).normal(size=(4, 30))
        values[1, 7] = 1e200
        message = "^clip_03: cannot normalize a vector whose norm overflows float64$"
        with pytest.raises(DataError, match=message):
            encode_video(config, bundle, FeatureSequence("clip_03", values))

    @pytest.mark.parametrize(
        "encoder,model",
        [
            ("fv", Codebook(np.eye(3))),
            ("vlad", GmmModel(np.full(3, 1 / 3), np.eye(3), np.ones((3, 3)))),
            ("llc", GmmModel(np.full(3, 1 / 3), np.eye(3), np.ones((3, 3)))),
        ],
    )
    def test_model_of_the_wrong_kind_names_video_and_branch(self, encoder, model):
        seq = FeatureSequence("clip_01", np.random.default_rng(6).normal(size=(3, 30)))
        config = PipelineConfig(time_encoder=encoder, time_codebook_size=3, spectrum_length=16)
        with pytest.raises(DataError, match="^clip_01: time branch: encoder .* needs a"):
            encode_video(config, ModelBundle(time_model=model), seq)

    def test_missing_branch_model_names_branch(self):
        rng = np.random.default_rng(2)
        seq = FeatureSequence("v", rng.normal(size=(3, 30)))
        config = PipelineConfig(time_encoder="vlad", time_codebook_size=4, spectrum_length=16)
        with pytest.raises(DataError, match="time branch"):
            encode_video(config, ModelBundle(), seq)


    def test_zero_energy_video_names_video_and_branch(self):
        seq = FeatureSequence("silent_07", np.zeros((3, 12)))
        config = PipelineConfig(spectrum_length=16)
        with pytest.raises(DataError, match="silent_07: time branch: cannot scale zero vector"):
            encode_video(config, ModelBundle(), seq)

    def test_branch_model_of_other_dims_names_video_and_branch(self):
        seq = FeatureSequence("clip_03", np.random.default_rng(4).normal(size=(3, 30)))
        config = PipelineConfig(spectrum_length=16, dft_encoder="vlad", dft_codebook_size=2)
        bundle = ModelBundle(dft_model=Codebook(np.array([[0.0, 1.0], [1.0, 0.0]])))
        with pytest.raises(
            DataError, match="^clip_03: dft branch: dimension mismatch: descriptors have 16 dims"
        ):
            encode_video(config, bundle, seq)

class TestFitModels:
    def test_no_pca_requested_no_pca_fitted(self, tmp_path):
        manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
        bundle = fit_models(PipelineConfig(spectrum_length=16), manifest)
        assert bundle.pca is None
        assert bundle.time_model is None and bundle.dft_model is None

    def test_fit_codebooks_and_gmm(self, tmp_path):
        manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
        config = PipelineConfig(
            pca_dims=3,
            spectrum_length=16,
            time_encoder="fv",
            dft_encoder="vlad",
            time_codebook_size=3,
            dft_codebook_size=4,
            seed=5,
        )
        bundle = fit_models(config, manifest)
        assert bundle.pca.output_dims == 3
        assert bundle.time_model.num_components == 3
        assert bundle.dft_model.num_words == 4
        # spectrum-branch descriptors are per-dimension profiles of length L
        assert bundle.dft_model.dims == 16

    def test_insufficient_descriptors_rejected(self, tmp_path):
        manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
        for branch, encoder in (("dft", "vlad"), ("time", "vlad"), ("time", "fv")):
            config = PipelineConfig(
                spectrum_length=16, seed=0,
                **{f"{branch}_encoder": encoder, f"{branch}_codebook_size": 4096},
            )
            with pytest.raises(DataError, match=f"^{branch} branch: .*4096"):
                fit_models(config, manifest)

    def test_pca_is_pca_fit_on_every_normalized_training_frame(self, tmp_path):
        manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
        train, _ = split_train_test(manifest, 0.5, seed=3)
        bundle = fit_models(PipelineConfig(pca_dims=3, spectrum_length=16, seed=7), train)
        frames = [
            l2_normalize(read_feature_sequence(e.feature_path).values.T) for e in train.entries
        ]
        reference = pca_fit(frames, 3)
        np.testing.assert_array_equal(bundle.pca.mean, reference.mean)
        np.testing.assert_array_equal(bundle.pca.components, reference.components)
        np.testing.assert_array_equal(bundle.pca.explained_variance, reference.explained_variance)

    @pytest.mark.parametrize(
        "overrides,forbidden",
        [
            (dict(pca_dims=3), ("normalized_pca_transform", "spectrum_of_sequence")),
            (dict(time_encoder="vlad", time_codebook_size=3), ("spectrum_of_sequence",)),
        ],
    )
    def test_fit_builds_only_the_descriptors_it_fits_on(
        self, tmp_path, monkeypatch, overrides, forbidden
    ):
        manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")

        def refuse(*args, **kwargs):
            raise AssertionError("fit_models built descriptors it does not fit on")

        for name in forbidden:
            monkeypatch.setattr(f"tdfenc.pipeline.{name}", refuse)
        fit_models(PipelineConfig(spectrum_length=16, **overrides), manifest)

    def test_pca_fit_memory_does_not_grow_with_the_training_set(self, tmp_path):
        import tracemalloc

        dims, frames = 32, 200
        config = PipelineConfig(pca_dims=4, spectrum_length=16, seed=1)
        manifests = {
            videos: generate_synthetic_dataset(
                tiny_spec(videos_per_class=videos // 2, dims=dims, frames_min=frames,
                          frames_max=frames),
                tmp_path / f"videos{videos}",
            )
            for videos in (8, 32)
        }
        fit_models(config, manifests[8])  # first-call allocations stay out of the peaks
        peaks = {}
        for videos, manifest in manifests.items():
            tracemalloc.start()
            try:
                fit_models(config, manifest)
                peaks[videos] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # 24 more videos may add less than one video's normalized frames
        assert peaks[32] - peaks[8] < frames * dims * 8, peaks

    @pytest.mark.parametrize(
        "overrides",
        [dict(pca_dims=3), dict(pca_dims=3, time_encoder="vlad", time_codebook_size=3),
         dict(time_encoder="vlad", time_codebook_size=3)],
        ids=["pca", "pca-codebook", "codebook"],
    )
    def test_read_errors_in_the_fit_keep_their_type_and_message(self, tmp_path, overrides):
        # the PCA fit reads the videos inside pca_fit, yet a read error is the
        # reader's own, not a "pca stage" error
        manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
        config = PipelineConfig(spectrum_length=16, seed=1, **overrides)
        corrupt, odd = manifest.entries[3], manifest.entries[5]
        payload = bytearray(corrupt.feature_path.read_bytes())
        payload[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        corrupt.feature_path.write_bytes(bytes(payload))
        with pytest.raises(FormatError) as raised:
            fit_models(config, manifest)
        assert str(raised.value) == f"non-finite values in feature file: {corrupt.feature_path}"
        write_feature_sequence(FeatureSequence(corrupt.video_id, np.ones((4, 30))),
                               corrupt.feature_path)
        write_feature_sequence(FeatureSequence(odd.video_id, np.ones((5, 30))), odd.feature_path)
        with pytest.raises(DataError, match=f"^{odd.video_id}: has 5 descriptor dims, dataset uses 4$"):
            fit_models(config, manifest)

    def test_mixed_dims_dataset_rejected(self, tmp_path):
        from tdfenc import DatasetManifest, ManifestEntry, write_feature_sequence

        rng = np.random.default_rng(0)
        paths = []
        for i, dims in enumerate((4, 4, 5, 4)):
            path = tmp_path / f"v{i}.tdfe"
            write_feature_sequence(FeatureSequence(f"v{i}", rng.normal(size=(dims, 20))), path)
            paths.append(path)
        manifest = DatasetManifest(
            tuple(ManifestEntry(f"v{i}", p, i % 2) for i, p in enumerate(paths)), 2
        )
        config = PipelineConfig(spectrum_length=16)
        bundle = ModelBundle()
        with pytest.raises(DataError, match="dims"):
            from tdfenc.pipeline import _encode_manifest, _Videos

            _encode_manifest(config, bundle, _Videos(manifest))

    def test_bundle_files_byte_identical_across_runs(self, tmp_path):
        manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
        config = PipelineConfig(
            pca_dims=3,
            spectrum_length=16,
            time_encoder="vlad",
            dft_encoder="fv",
            time_codebook_size=4,
            dft_codebook_size=2,
            seed=9,
        )
        save_bundle(fit_models(config, manifest), tmp_path / "a")
        save_bundle(fit_models(config, manifest), tmp_path / "b")
        names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names_a == names_b == ["dft_gmm.tdfg", "pca.tdfp", "time_codebook.tdfc"]
        for name in names_a:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_bundle_save_load_roundtrip(self, tmp_path):
        manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
        config = PipelineConfig(
            pca_dims=2, spectrum_length=16, time_encoder="llc",
            time_codebook_size=5, llc_neighbors=3, seed=1,
        )
        bundle = fit_models(config, manifest)
        save_bundle(bundle, tmp_path / "bundle")
        loaded = load_bundle(config, tmp_path / "bundle")
        np.testing.assert_array_equal(loaded.pca.components, bundle.pca.components)
        np.testing.assert_array_equal(loaded.time_model.centroids, bundle.time_model.centroids)
        assert loaded.dft_model is None

    def test_load_bundle_missing_model_errors(self, tmp_path):
        (tmp_path / "bundle").mkdir()
        config = PipelineConfig(time_encoder="vlad", time_codebook_size=4)
        with pytest.raises(DataError, match="time branch"):
            load_bundle(config, tmp_path / "bundle")


class TestEvaluate:
    def _model(self):
        # scores: class 0 favored for negative x, class 1 for positive x
        return LinearSvmModel(
            weights=np.array([[-1.0], [1.0]]), biases=np.zeros(2), penalty=1.0
        )

    def test_all_correct(self):
        model = self._model()
        pairs = [(np.array([-1.0]), 0), (np.array([-2.0]), 0), (np.array([3.0]), 1)]
        report = evaluate(model, pairs)
        assert report.overall_accuracy == 1.0
        assert report.per_class_accuracy == (1.0, 1.0)
        np.testing.assert_array_equal(report.confusion_matrix, [[2, 0], [0, 1]])

    def test_all_predicted_class_zero(self):
        model = LinearSvmModel(
            weights=np.array([[0.0], [0.0]]), biases=np.array([1.0, 0.0]), penalty=1.0
        )
        pairs = [(np.array([1.0]), 0), (np.array([2.0]), 0), (np.array([3.0]), 1), (np.array([4.0]), 1)]
        report = evaluate(model, pairs)
        assert report.overall_accuracy == 0.5
        assert report.per_class_accuracy == (1.0, 0.0)

    def test_matches_direct_tally(self):
        rng = np.random.default_rng(3)
        model = LinearSvmModel(
            weights=rng.normal(size=(3, 2)), biases=rng.normal(size=3), penalty=1.0
        )
        pairs = [(rng.normal(size=2), int(rng.integers(3))) for _ in range(60)]
        report = evaluate(model, pairs)
        confusion = np.zeros((3, 3), dtype=int)
        for x, label in pairs:
            scores = model.weights @ x + model.biases
            confusion[label, int(np.argmax(scores))] += 1
        np.testing.assert_array_equal(report.confusion_matrix, confusion)
        assert report.overall_accuracy == pytest.approx(np.trace(confusion) / 60)
        totals = confusion.sum(axis=1)
        for c in range(3):
            assert report.per_class_accuracy[c] == pytest.approx(confusion[c, c] / totals[c])

    def test_row_sums_match_class_counts(self):
        rng = np.random.default_rng(4)
        model = self._model()
        pairs = [(rng.normal(size=1), int(rng.integers(2))) for _ in range(40)]
        report = evaluate(model, pairs)
        counts = np.bincount([label for _, label in pairs], minlength=2)
        np.testing.assert_array_equal(report.confusion_matrix.sum(axis=1), counts)

    def test_empty_test_set_rejected(self):
        with pytest.raises(DataError):
            evaluate(self._model(), [])


class TestRunRepeatedExperiment:
    def test_single_repetition_mean_is_accuracy(self, tmp_path):
        manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
        config = PipelineConfig(spectrum_length=16, svm_c=10.0, seed=3)
        result = run_repeated_experiment(config, manifest, 1)
        assert len(result.reports) == 1
        assert result.mean_overall_accuracy == result.reports[0].overall_accuracy

    def test_mean_matches_recomputation(self, tmp_path):
        manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
        config = PipelineConfig(spectrum_length=16, svm_c=10.0, seed=3)
        result = run_repeated_experiment(config, manifest, 3)
        recomputed = sum(r.overall_accuracy for r in result.reports) / 3
        assert abs(result.mean_overall_accuracy - recomputed) < 1e-12

    def test_pca_dims_above_the_attainable_rank_rejected(self, tmp_path):
        manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
        config = PipelineConfig(pca_dims=5, spectrum_length=16, seed=3)
        with pytest.raises(DataError, match="^pca stage: .* exceeds attainable rank 4$"):
            run_repeated_experiment(config, manifest, 1)

    def test_zero_repetitions_rejected(self, tmp_path):
        manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
        with pytest.raises(DataError):
            run_repeated_experiment(PipelineConfig(spectrum_length=16), manifest, 0)

    def test_mixed_dims_names_the_odd_test_video(self, tmp_path):
        # the test videos are checked against the training videos' dims, so
        # the first test video is the one blamed, not the next one after it
        manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
        config = PipelineConfig(spectrum_length=16, svm_c=10.0, seed=3)
        odd = split_train_test(manifest, config.train_fraction, config.seed + 1)[1].entries[0]
        values = np.random.default_rng(0).normal(size=(3, 30))
        write_feature_sequence(FeatureSequence(odd.video_id, values), odd.feature_path)
        message = f"^{odd.video_id}: has 3 descriptor dims, dataset uses 4$"
        with pytest.raises(DataError, match=message):
            run_repeated_experiment(config, manifest, 1)


def test_experiment_runs_the_public_layer_functions(tmp_path, monkeypatch):
    import tdfenc.pipeline as pipeline

    manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
    config = PipelineConfig(pca_dims=3, spectrum_length=16, svm_c=10.0, seed=3)
    calls = dict.fromkeys(
        ("pca_fit", "spectrum_of_sequence", "l2_normalize", "normalized_pca_transform",
         "encode_video"), 0
    )

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    repetitions = 2
    run_repeated_experiment(config, manifest, repetitions)
    videos = repetitions * len(manifest.entries)
    test_videos = sum(
        len(split_train_test(manifest, config.train_fraction, config.seed + r)[1].entries)
        for r in range(1, repetitions + 1)
    )
    # with PCA and no codebook each training video is normalized twice: by
    # l2_normalize in the streamed PCA fit, and by normalized_pca_transform in
    # encode_video, which encodes every training and test video
    assert calls == {
        "pca_fit": repetitions,
        "spectrum_of_sequence": videos,
        "l2_normalize": videos - test_videos,
        "normalized_pca_transform": videos,
        "encode_video": videos,
    }


# PCA with a codebook encoder on at least one branch; no benchmark workload runs this
_PCA_CODEBOOK_CONFIGS = [
    dict(time_encoder="vlad", dft_encoder="fv", time_codebook_size=3, dft_codebook_size=4),
    dict(time_encoder="llc", time_codebook_size=4, llc_neighbors=2),
    dict(dft_encoder="vlad", dft_codebook_size=4, dft_pool_axis="frequency"),
]


def _reads_and_normalizations(monkeypatch, config, manifest, repetitions):
    """The ids of the videos that ``run_repeated_experiment`` reads, sorted,
    and how many times it normalizes a video's frames: calls of
    ``l2_normalize`` and of ``normalized_pca_transform``."""
    import tdfenc.pipeline as pipeline

    reads, normalized = [], []

    def counting_read(path, video_id=None):
        reads.append(video_id)
        return read_feature_sequence(path, video_id)

    def counting(normalize):
        def wrapper(*args):
            normalized.append(None)
            return normalize(*args)

        return wrapper

    monkeypatch.setattr("tdfenc.pipeline.read_feature_sequence", counting_read)
    for name in ("l2_normalize", "normalized_pca_transform"):
        monkeypatch.setattr(f"tdfenc.pipeline.{name}", counting(getattr(pipeline, name)))
    run_repeated_experiment(config, manifest, repetitions)
    return sorted(reads), len(normalized)


def _split_ids(config, manifest, repetitions, train_reads):
    """Sorted ids of ``repetitions`` splits, each training video ``train_reads`` times."""
    ids = []
    for r in range(1, repetitions + 1):
        train, test = split_train_test(manifest, config.train_fraction, config.seed + r)
        ids += [e.video_id for e in train.entries] * train_reads
        ids += [e.video_id for e in test.entries]
    return sorted(ids)


@pytest.mark.parametrize("overrides", _PCA_CODEBOOK_CONFIGS)
def test_experiment_reads_each_video_once_per_repetition(tmp_path, monkeypatch, overrides):
    # once per pass over the data: with PCA and a codebook the fit streams
    # the training videos into the PCA, reads them again for the codebook
    # branches' reduced descriptors, and encode_video reads them a third
    # time, so each training video is read and normalized three times and
    # each test video once
    manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
    config = PipelineConfig(pca_dims=3, spectrum_length=16, svm_c=10.0, seed=3, **overrides)
    reads, normalized = _reads_and_normalizations(monkeypatch, config, manifest, 2)
    assert reads == _split_ids(config, manifest, 2, train_reads=3)
    assert normalized == len(reads)


@pytest.mark.parametrize(
    "overrides,train_reads",
    [(dict(), 1),
     (dict(time_encoder="vlad", dft_encoder="fv", time_codebook_size=3, dft_codebook_size=4), 2)],
    ids=["average", "codebooks"],
)
def test_experiment_without_pca_reads_each_video_once_per_repetition(
    tmp_path, monkeypatch, overrides, train_reads
):
    # once per pass over the data: without PCA the fit reads the training
    # videos only if a branch fits a codebook, and encode_video reads every
    # video once, so a training video is read twice with a codebook, once
    # with average pooling only
    manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
    config = PipelineConfig(spectrum_length=16, svm_c=10.0, seed=3, **overrides)
    reads, normalized = _reads_and_normalizations(monkeypatch, config, manifest, 2)
    ids = sorted(e.video_id for e in manifest.entries)
    assert _split_ids(config, manifest, 2, train_reads=1) == sorted(ids + ids)
    assert reads == _split_ids(config, manifest, 2, train_reads=train_reads)
    assert normalized == len(reads)


@pytest.mark.parametrize("overrides", _PCA_CODEBOOK_CONFIGS)
def test_experiment_vectors_equal_fit_then_encode_video(tmp_path, monkeypatch, overrides):
    manifest = generate_synthetic_dataset(tiny_spec(), tmp_path / "data")
    config = PipelineConfig(pca_dims=3, spectrum_length=16, svm_c=10.0, seed=3, **overrides)
    seen = []

    def capturing_train(train, *args, **kwargs):
        seen.append(("train", list(train)))
        return train_linear_svm(train, *args, **kwargs)

    def capturing_evaluate(model, test):
        seen.append(("test", list(test)))
        return evaluate(model, test)

    monkeypatch.setattr("tdfenc.pipeline.train_linear_svm", capturing_train)
    monkeypatch.setattr("tdfenc.pipeline.evaluate", capturing_evaluate)
    run_repeated_experiment(config, manifest, 2)
    assert [name for name, _ in seen] == ["train", "test"] * 2
    for r in (1, 2):
        train, test = split_train_test(manifest, config.train_fraction, config.seed + r)
        bundle = fit_models(config, train)
        for part, (_, pairs) in zip((train, test), seen[2 * r - 2 : 2 * r]):
            assert [label for _, label in pairs] == [e.label for e in part.entries]
            for (vector, _), e in zip(pairs, part.entries):
                seq = read_feature_sequence(e.feature_path, e.video_id)
                expected = encode_video(config, bundle, seq)
                np.testing.assert_array_equal(vector.values, expected.values)


@pytest.mark.parametrize(
    "time_encoder,dft_encoder,fused_dims",
    [
        # with d=8, L=48, K=6: time dims are 8 / 6 / 96 / 48 for
        # average / llc / fv / vlad, spectrum-branch descriptors live in R^48
        ("fv", "fv", 2 * 8 * 6 + 2 * 48 * 6),
        ("llc", "llc", 6 + 6),
        ("vlad", "vlad", 8 * 6 + 48 * 6),
        ("average", "fv", 8 + 2 * 48 * 6),
        ("llc", "average", 6 + 48),
    ],
)
def test_full_experiment_with_each_encoder(tmp_path, time_encoder, dft_encoder, fused_dims):
    spec = tiny_spec(
        videos_per_class=12, dims=8, noise=0.25,
        frames_min=48, frames_max=72, frequencies=(0.1, 0.35),
    )
    manifest = generate_synthetic_dataset(spec, tmp_path / "data")
    config = PipelineConfig(
        spectrum_length=48,
        time_encoder=time_encoder,
        dft_encoder=dft_encoder,
        time_codebook_size=6 if time_encoder != "average" else None,
        dft_codebook_size=6 if dft_encoder != "average" else None,
        llc_neighbors=3,
        svm_c=100.0,
        seed=2,
        fusion_time_norm=0.5,
        fusion_dft_norm=1.0,
    )
    bundle = fit_models(config, manifest)
    seq = read_feature_sequence(manifest.entries[0].feature_path)
    assert encode_video(config, bundle, seq).dims == fused_dims
    result = run_repeated_experiment(config, manifest, 2)
    assert len(result.reports) == 2
    for report in result.reports:
        assert 0.0 <= report.overall_accuracy <= 1.0
        assert report.confusion_matrix.sum() == 8  # 4 test videos per class


def test_train_on_encoded_synthetic_videos(tmp_path):
    # a small end-to-end check below the acceptance scale; noise in the
    # off-signal dimensions is what lets the oscillation survive the
    # per-frame normalization, so it must not be too small
    spec = tiny_spec(
        videos_per_class=10, dims=8, noise=0.25,
        frames_min=48, frames_max=72, frequencies=(0.1, 0.35),
    )
    manifest = generate_synthetic_dataset(spec, tmp_path / "data")
    config = PipelineConfig(spectrum_length=64, svm_c=100.0, seed=2,
                            fusion_time_norm=0.3, fusion_dft_norm=1.0)
    bundle = fit_models(config, manifest)
    pairs = []
    for entry in manifest.entries:
        seq = read_feature_sequence(entry.feature_path, entry.video_id)
        pairs.append((encode_video(config, bundle, seq), entry.label))
    model = train_linear_svm(pairs, manifest.num_classes, config.svm_c, seed=config.seed)
    report = evaluate(model, pairs)
    assert report.overall_accuracy == 1.0
