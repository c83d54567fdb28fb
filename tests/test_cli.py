import numpy as np
import pytest

from tdfenc import (
    FeatureSequence,
    load_bundle,
    parse_pipeline_config,
    read_feature_sequence,
    read_manifest,
    write_feature_sequence,
)
from tdfenc.cli import main
from tdfenc.encode import load_video_vector
from tdfenc.errors import DataError

SYNTH_SPEC = (
    "num_classes=2\n"
    "videos_per_class=8\n"
    "dims=8\n"
    "frames_min=48\n"
    "frames_max=72\n"
    "frequencies=0.1,0.35\n"
    "noise=0.25\n"
    "seed=13\n"
)

RUN_CONFIG = (
    "spectrum_length=64\n"
    "time_encoder=average\n"
    "dft_encoder=average\n"
    "fusion_time_norm=0.3\n"
    "fusion_dft_norm=1.0\n"
    "svm_c=100\n"
    "seed=5\n"
)


@pytest.fixture()
def dataset(tmp_path):
    spec_path = tmp_path / "synth.cfg"
    spec_path.write_text(SYNTH_SPEC, encoding="utf-8")
    data_dir = tmp_path / "data"
    assert main(["synth", "--spec", str(spec_path), "--out", str(data_dir)]) == 0
    config_path = tmp_path / "run.cfg"
    config_path.write_text(RUN_CONFIG, encoding="utf-8")
    return data_dir / "manifest.tsv", config_path


def test_synth_outputs_parse(dataset, capsys):
    manifest_path, _ = dataset
    capsys.readouterr()
    manifest = read_manifest(manifest_path)
    assert manifest.num_classes == 2
    for entry in manifest.entries:
        seq = read_feature_sequence(entry.feature_path, entry.video_id)
        assert seq.dims == 8


def test_synth_unwritable_dir_exits_3(tmp_path, capsys):
    spec_path = tmp_path / "synth.cfg"
    spec_path.write_text(SYNTH_SPEC, encoding="utf-8")
    code = main(["synth", "--spec", str(spec_path), "--out", "/proc/no_such_dir/out"])
    assert code == 3
    assert capsys.readouterr().err.strip() != ""


def test_synth_rerun_byte_identical(tmp_path):
    spec_path = tmp_path / "synth.cfg"
    spec_path.write_text(SYNTH_SPEC, encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "b")]) == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_single_repetition(dataset, capsys):
    manifest_path, config_path = dataset
    capsys.readouterr()
    code = main(["run", "--config", str(config_path), "--manifest", str(manifest_path), "--repeat", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == ["run", "overall", "class_0", "class_1"]
    assert len(lines) == 3  # header, run 1, mean
    run_row = lines[1].split("\t")
    mean_row = lines[2].split("\t")
    assert run_row[0] == "1" and mean_row[0] == "mean"
    assert run_row[1:] == mean_row[1:]


def test_run_missing_config_exits_1(dataset, capsys):
    manifest_path, _ = dataset
    capsys.readouterr()
    code = main(["run", "--config", "/nope/run.cfg", "--manifest", str(manifest_path)])
    assert code == 1
    assert "/nope/run.cfg" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert main(["run", "--bogus-flag"]) == 1
    assert capsys.readouterr().err.strip() != ""


def test_run_mean_matches_ten_rows(dataset, capsys):
    manifest_path, config_path = dataset
    capsys.readouterr()
    code = main(["run", "--config", str(config_path), "--manifest", str(manifest_path), "--repeat", "10"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [line.split("\t") for line in lines[1:-1]]
    assert len(rows) == 10
    mean_row = lines[-1].split("\t")
    overall = [float(r[1]) for r in rows]
    assert float(mean_row[1]) == pytest.approx(np.mean(overall), abs=1e-6)


def test_run_missing_manifest_exits_2(dataset, capsys):
    _, config_path = dataset
    capsys.readouterr()
    code = main(["run", "--config", str(config_path), "--manifest", "/nope/manifest.tsv"])
    assert code == 2
    assert "manifest" in capsys.readouterr().err


def test_run_is_deterministic(dataset, capsys):
    manifest_path, config_path = dataset
    capsys.readouterr()
    argv = ["run", "--config", str(config_path), "--manifest", str(manifest_path), "--repeat", "2"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def staged_pipeline(tmp_path, manifest_path, config_path, capsys):
    bundle_dir = tmp_path / "bundle"
    assert main(["fit", "--config", str(config_path), "--manifest", str(manifest_path),
                 "--out", str(bundle_dir)]) == 0
    for split in ("train", "test"):
        assert main(["encode", "--config", str(config_path), "--bundle", str(bundle_dir),
                     "--manifest", str(bundle_dir / f"{split}.tsv"),
                     "--out", str(tmp_path / f"enc_{split}")]) == 0
    model_path = tmp_path / "model.tdfm"
    assert main(["train", "--config", str(config_path),
                 "--vectors", str(tmp_path / "enc_train" / "index.tsv"),
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--model", str(model_path),
                 "--vectors", str(tmp_path / "enc_test" / "index.tsv")]) == 0
    return capsys.readouterr().out.strip().splitlines()


def test_staged_equals_monolithic(dataset, tmp_path, capsys):
    manifest_path, config_path = dataset
    capsys.readouterr()
    assert main(["run", "--config", str(config_path), "--manifest", str(manifest_path),
                 "--repeat", "1"]) == 0
    run_lines = capsys.readouterr().out.strip().splitlines()
    run_row = run_lines[1].split("\t")

    eval_lines = staged_pipeline(tmp_path, manifest_path, config_path, capsys)
    staged = dict(line.split("\t", 1) for line in eval_lines)
    assert staged["overall"] == run_row[1]
    assert staged["class_0"] == run_row[2]
    assert staged["class_1"] == run_row[3]


@pytest.mark.parametrize(
    "encoders",
    [
        "time_encoder=vlad\ndft_encoder=fv\ntime_codebook_size=4\ndft_codebook_size=2\n",
        "pca_dims=3\ntime_encoder=llc\ndft_encoder=average\ntime_codebook_size=6\n"
        "llc_neighbors=3\n",
    ],
    ids=["vlad-fv", "pca-llc"],
)
def test_staged_equals_monolithic_with_fitted_encoders(dataset, tmp_path, capsys, encoders):
    # configs whose training vectors need a fitted codebook or mixture, with
    # and without PCA: run and the stages fit and encode them the same way
    manifest_path, config_path = dataset
    average = "time_encoder=average\ndft_encoder=average\n"
    config_path.write_text(RUN_CONFIG.replace(average, encoders), encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "--config", str(config_path), "--manifest", str(manifest_path),
                 "--repeat", "1"]) == 0
    run_row = capsys.readouterr().out.strip().splitlines()[1].split("\t")

    eval_lines = staged_pipeline(tmp_path, manifest_path, config_path, capsys)
    staged = dict(line.split("\t", 1) for line in eval_lines)
    assert [staged["overall"], staged["class_0"], staged["class_1"]] == run_row[1:]


@pytest.mark.parametrize("value", ["0", "-1"])
def test_run_with_repeat_below_one_exits_1(dataset, capsys, value):
    manifest_path, config_path = dataset
    capsys.readouterr()
    argv = ["run", "--config", str(config_path), "--manifest", str(manifest_path),
            "--repeat", value]
    assert main(argv) == 1
    assert f"argument --repeat: must be positive, got {value}" in _one_line_error(capsys)


def test_predict_on_training_vectors(dataset, tmp_path, capsys):
    manifest_path, config_path = dataset
    bundle_dir = tmp_path / "bundle"
    assert main(["fit", "--config", str(config_path), "--manifest", str(manifest_path),
                 "--out", str(bundle_dir)]) == 0
    assert main(["encode", "--config", str(config_path), "--bundle", str(bundle_dir),
                 "--manifest", str(bundle_dir / "train.tsv"),
                 "--out", str(tmp_path / "enc_train")]) == 0
    model_path = tmp_path / "model.tdfm"
    assert main(["train", "--config", str(config_path),
                 "--vectors", str(tmp_path / "enc_train" / "index.tsv"),
                 "--out", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["predict", "--model", str(model_path),
                 "--vectors", str(tmp_path / "enc_train" / "index.tsv")]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    index = read_manifest(tmp_path / "enc_train" / "index.tsv")
    labels = {e.video_id: e.label for e in index.entries}
    assert len(out_lines) == len(index.entries)
    for line in out_lines:
        fields = line.split("\t")
        assert len(fields) == 4  # id, class, two scores
        assert int(fields[1]) == labels[fields[0]]


def test_encode_with_mismatched_pca_dims_exits_2(dataset, tmp_path, capsys):
    manifest_path, config_path = dataset
    config_pca4 = tmp_path / "pca4.cfg"
    config_pca4.write_text(RUN_CONFIG + "pca_dims=4\n", encoding="utf-8")
    config_pca2 = tmp_path / "pca2.cfg"
    config_pca2.write_text(RUN_CONFIG + "pca_dims=2\n", encoding="utf-8")
    bundle_dir = tmp_path / "bundle"
    assert main(["fit", "--config", str(config_pca4), "--manifest", str(manifest_path),
                 "--out", str(bundle_dir)]) == 0
    capsys.readouterr()
    code = main(["encode", "--config", str(config_pca2), "--bundle", str(bundle_dir),
                 "--manifest", str(bundle_dir / "test.tsv"), "--out", str(tmp_path / "enc")])
    assert code == 2
    assert "pca stage" in capsys.readouterr().err
    message = "^pca stage: bundle was fitted at pca_dims=4, config requests 2$"
    with pytest.raises(DataError, match=message):
        load_bundle(parse_pipeline_config(config_pca2), bundle_dir)


def test_encode_with_missing_bundle_directory_exits_2(dataset, tmp_path, capsys):
    manifest_path, config_path = dataset
    capsys.readouterr()
    code = main(["encode", "--config", str(config_path), "--bundle", str(tmp_path / "nonexistent"),
                 "--manifest", str(manifest_path), "--out", str(tmp_path / "enc")])
    assert code == 2
    assert "bundle directory not found" in _one_line_error(capsys)
    assert not (tmp_path / "enc").exists()


def test_encoded_vectors_load_back(dataset, tmp_path, capsys):
    manifest_path, config_path = dataset
    bundle_dir = tmp_path / "bundle"
    assert main(["fit", "--config", str(config_path), "--manifest", str(manifest_path),
                 "--out", str(bundle_dir)]) == 0
    assert main(["encode", "--config", str(config_path), "--bundle", str(bundle_dir),
                 "--manifest", str(bundle_dir / "test.tsv"),
                 "--out", str(tmp_path / "enc")]) == 0
    index = read_manifest(tmp_path / "enc" / "index.tsv")
    for entry in index.entries:
        vector = load_video_vector(entry.feature_path)
        assert vector.method == "fused"
        assert vector.dims == 8 + 64


def test_encode_rejects_manifest_id_outside_out_dir(dataset, tmp_path, capsys):
    manifest_path, config_path = dataset
    bundle_dir = tmp_path / "bundle"
    assert main(["fit", "--config", str(config_path), "--manifest", str(manifest_path),
                 "--out", str(bundle_dir)]) == 0
    feature_path = read_manifest(bundle_dir / "test.tsv").entries[0].feature_path
    hostile = tmp_path / "hostile.tsv"
    hostile.write_text(f"../escaped_00\t{feature_path}\t0\n", encoding="utf-8")
    before = set(tmp_path.rglob("*"))
    capsys.readouterr()
    out_dir = tmp_path / "enc"
    code = main(["encode", "--config", str(config_path), "--bundle", str(bundle_dir),
                 "--manifest", str(hostile), "--out", str(out_dir)])
    assert code == 2
    assert "line 1" in capsys.readouterr().err
    written = set(tmp_path.rglob("*")) - before
    assert all(out_dir in path.parents for path in written if path != out_dir)
    assert not (tmp_path / "escaped_00.tdfv").exists()


def test_encode_rejects_video_of_other_dims(dataset, tmp_path, capsys):
    manifest_path, config_path = dataset
    bundle_dir = tmp_path / "bundle"
    assert main(["fit", "--config", str(config_path), "--manifest", str(manifest_path),
                 "--out", str(bundle_dir)]) == 0
    entries = read_manifest(bundle_dir / "test.tsv").entries
    odd_path = tmp_path / "odd.tdfe"
    values = np.random.default_rng(0).normal(size=(3, 40))
    write_feature_sequence(FeatureSequence("odd_video", values), odd_path)
    mixed = tmp_path / "mixed.tsv"
    lines = [f"{e.video_id}\t{e.feature_path}\t{e.label}\n" for e in entries[:2]]
    mixed.write_text("".join(lines) + f"odd_video\t{odd_path}\t1\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["encode", "--config", str(config_path), "--bundle", str(bundle_dir),
                 "--manifest", str(mixed), "--out", str(tmp_path / "enc")])
    assert code == 2
    err = capsys.readouterr().err
    assert "odd_video" in err and "3 descriptor dims" in err


def test_encode_failure_leaves_no_vectors(dataset, tmp_path, capsys):
    manifest_path, config_path = dataset
    bundle_dir = tmp_path / "bundle"
    assert main(["fit", "--config", str(config_path), "--manifest", str(manifest_path),
                 "--out", str(bundle_dir)]) == 0
    first = read_manifest(bundle_dir / "test.tsv").entries[0]
    odd_path = tmp_path / "odd.tdfe"
    values = np.random.default_rng(1).normal(size=(3, 40))
    write_feature_sequence(FeatureSequence("odd_video", values), odd_path)
    two = tmp_path / "two.tsv"
    two.write_text(f"{first.video_id}\t{first.feature_path}\t{first.label}\n"
                   f"odd_video\t{odd_path}\t1\n", encoding="utf-8")
    out_dir = tmp_path / "enc"
    code = main(["encode", "--config", str(config_path), "--bundle", str(bundle_dir),
                 "--manifest", str(two), "--out", str(out_dir)])
    assert code == 2
    assert "odd_video" in capsys.readouterr().err
    assert list(out_dir.rglob("*.tdfv")) == []
    assert not (out_dir / "index.tsv").exists()


def test_failed_fit_leaves_no_manifests(tmp_path, capsys):
    spec_path = tmp_path / "synth.cfg"
    spec_path.write_text(SYNTH_SPEC.replace("dims=8", "dims=4"), encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")]) == 0
    config_path = tmp_path / "pca9.cfg"
    config_path.write_text(RUN_CONFIG + "pca_dims=9\n", encoding="utf-8")
    capsys.readouterr()
    bundle_dir = tmp_path / "bundle"
    code = main(["fit", "--config", str(config_path),
                 "--manifest", str(tmp_path / "data" / "manifest.tsv"), "--out", str(bundle_dir)])
    assert code == 2
    assert "exceeds attainable rank 4" in _one_line_error(capsys)
    assert not (bundle_dir / "train.tsv").exists() and not (bundle_dir / "test.tsv").exists()
    assert not bundle_dir.exists()


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
def test_vector_of_other_dims_names_the_video(dataset, tmp_path, capsys, command):
    # average pooling without PCA encodes a 3-dim video to 3 + 64 values, where
    # the 8-dim videos have 8 + 64; encode accepts it, the classifier cannot
    manifest_path, config_path = dataset
    bundle_dir = tmp_path / "bundle"
    assert main(["fit", "--config", str(config_path), "--manifest", str(manifest_path),
                 "--out", str(bundle_dir)]) == 0
    odd_path = tmp_path / "odd.tdfe"
    values = np.random.default_rng(2).normal(size=(3, 40))
    write_feature_sequence(FeatureSequence("odd_video", values), odd_path)
    odd_manifest = tmp_path / "odd.tsv"
    odd_manifest.write_text(f"odd_video\t{odd_path}\t0\n", encoding="utf-8")
    for split, manifest in (("train", bundle_dir / "train.tsv"), ("odd", odd_manifest)):
        assert main(["encode", "--config", str(config_path), "--bundle", str(bundle_dir),
                     "--manifest", str(manifest), "--out", str(tmp_path / f"enc_{split}")]) == 0
    model_path = tmp_path / "model.tdfm"
    train_index = tmp_path / "enc_train" / "index.tsv"
    assert main(["train", "--config", str(config_path), "--vectors", str(train_index),
                 "--out", str(model_path)]) == 0
    # index paths are relative to the index, so the mixed one sits beside it
    mixed = tmp_path / "enc_train" / "mixed.tsv"
    mixed.write_text(
        train_index.read_text(encoding="utf-8")
        + f"odd_video\t{tmp_path / 'enc_odd' / 'odd_video.tdfv'}\t1\n",
        encoding="utf-8",
    )
    capsys.readouterr()
    if command == "train":
        argv = ["train", "--config", str(config_path), "--vectors", str(mixed),
                "--out", str(tmp_path / "other.tdfm")]
    else:
        argv = [command, "--model", str(model_path), "--vectors", str(mixed)]
    assert main(argv) == 2
    assert "odd_video: vector has 67 dims, expected 72" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "text, expected",
    [
        (b"seed=1\n# r\xe9sum\xe9\n", "not UTF-8"),
        (b"svm_c=nan\n", "svm_c must be finite"),
        (b"seed=-1\n", "seed must be non-negative, got -1"),
    ],
)
def test_run_with_bad_config_exits_1(dataset, tmp_path, capsys, text, expected):
    manifest_path, _ = dataset
    config_path = tmp_path / "bad.cfg"
    config_path.write_bytes(text)
    capsys.readouterr()
    assert main(["run", "--config", str(config_path), "--manifest", str(manifest_path)]) == 1
    assert expected in _one_line_error(capsys)


@pytest.mark.parametrize(
    "command, key, value",
    [
        # each asks numpy for more than a 64-bit address space holds: 7.11 PiB,
        # a size past int64, and some 500 PiB of frames
        ("run", "spectrum_length", "1000000000000000"),
        ("run", "spectrum_length", "10000000000000000000"),
        ("synth", "dims", "1000000000000000"),
    ],
)
def test_oversized_sizes_exit_1_before_allocating(dataset, tmp_path, capsys, command, key, value):
    manifest_path, _ = dataset
    path = tmp_path / "big.cfg"
    capsys.readouterr()
    if command == "run":
        path.write_text(RUN_CONFIG.replace("spectrum_length=64", f"{key}={value}"), encoding="utf-8")
        argv = ["run", "--config", str(path), "--manifest", str(manifest_path), "--repeat", "1"]
    else:
        path.write_text(SYNTH_SPEC.replace("dims=8", f"{key}={value}"), encoding="utf-8")
        argv = ["synth", "--spec", str(path), "--out", str(tmp_path / "big")]
    assert main(argv) == 1
    assert f"{key} must be at most 16384, got {value}" in _one_line_error(capsys)


def test_run_with_non_utf8_manifest_exits_2(dataset, tmp_path, capsys):
    _, config_path = dataset
    manifest_path = tmp_path / "latin1.tsv"
    manifest_path.write_bytes(b"v\xe9\tv.tdfe\t0\n")
    capsys.readouterr()
    assert main(["run", "--config", str(config_path), "--manifest", str(manifest_path)]) == 2
    assert "latin1.tsv: not UTF-8" in _one_line_error(capsys)


def test_synth_with_non_utf8_spec_exits_1(tmp_path, capsys):
    spec_path = tmp_path / "synth.cfg"
    spec_path.write_bytes(SYNTH_SPEC.encode("utf-8") + b"# \xff\n")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 1
    assert "synth.cfg: not UTF-8" in _one_line_error(capsys)


def test_synth_with_negative_seed_exits_1(tmp_path, capsys):
    spec_path = tmp_path / "synth.cfg"
    spec_path.write_text(SYNTH_SPEC.replace("seed=13", "seed=-1"), encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "out")]) == 1
    assert "seed must be non-negative, got -1" in _one_line_error(capsys)


def test_encode_with_nul_in_feature_path_exits_2(dataset, tmp_path, capsys):
    _, config_path = dataset
    manifest_path = tmp_path / "nul.tsv"
    manifest_path.write_text("v\tv\0.tdfe\t0\n", encoding="utf-8")
    capsys.readouterr()
    code = main(["encode", "--config", str(config_path), "--bundle", str(tmp_path / "bundle"),
                 "--manifest", str(manifest_path), "--out", str(tmp_path / "enc")])
    assert code == 2
    assert "line 1: feature path contains NUL" in _one_line_error(capsys)
