"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import time

import numpy as np
import pytest

from tdfenc import (
    Codebook,
    FeatureSequence,
    GmmModel,
    LlcParams,
    PipelineConfig,
    SynthSpec,
    VideoVector,
    average_pool,
    cubic_resample,
    dft_magnitude,
    fisher_encode,
    generate_synthetic_dataset,
    gmm_fit,
    kmeans_fit,
    llc_encode,
    llc_pool,
    load_codebook,
    load_gmm_model,
    load_pca_model,
    load_svm_model,
    load_video_vector,
    pca_fit,
    read_feature_sequence,
    run_repeated_experiment,
    save_codebook,
    save_gmm_model,
    save_pca_model,
    save_svm_model,
    save_video_vector,
    train_linear_svm,
    vlad_encode,
    write_feature_sequence,
)
from tdfenc.cli import main

from oracles import (
    cubic_oracle,
    fisher_finite_difference_oracle,
    hinge_objective,
    llc_projected_gradient_oracle,
    naive_dft_reference,
    svm_subgradient_oracle,
)


def _report(number, name, ok):
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, f"criterion {number} failed: {name}"


def test_criterion_1_dft_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    lengths = list(rng.integers(1, 513, size=1000)) + [1024, 1024, 4096, 4096]
    for n in lengths:
        signal = rng.normal(size=int(n))
        gap = np.max(np.abs(dft_magnitude(signal) - naive_dft_reference(signal)))
        worst = max(worst, float(gap))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-9 and elapsed < 30.0
    print(f"\n  max |fft - naive| = {worst:.3e} over {len(lengths)} signals, {elapsed:.1f}s")
    _report(1, "dft_magnitude matches the direct-sum reference within 1e-9", ok)


def test_criterion_2_interpolation_contract():
    rng = np.random.default_rng(1002)
    worst_constant = 0.0
    worst_identity = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 40))
        target = int(rng.integers(1, 60))
        constant = float(rng.normal())
        out = cubic_resample(np.full(n, constant), target)
        worst_constant = max(worst_constant, float(np.max(np.abs(out - constant))))
        points = rng.normal(size=max(n, 2))
        out = cubic_resample(points, len(points))
        worst_identity = max(worst_identity, float(np.max(np.abs(out - points))))
    worst_oracle = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 60))
        target = int(rng.integers(1, 90))
        points = rng.normal(size=n)
        gap = np.max(np.abs(cubic_resample(points, target) - cubic_oracle(points, target)))
        worst_oracle = max(worst_oracle, float(gap))
    ok = worst_constant <= 1e-12 and worst_identity <= 1e-12 and worst_oracle <= 1e-9
    print(
        f"\n  constants {worst_constant:.2e}, N==L identity {worst_identity:.2e}, "
        f"oracle gap {worst_oracle:.2e}"
    )
    _report(2, "cubic_resample exact on constants/identity and matches the Keys oracle", ok)


def test_criterion_3a_llc_oracle():
    rng = np.random.default_rng(1003)
    worst_sum = 0.0
    worst_reconstruction = 0.0
    for _ in range(100):
        k_words = int(rng.integers(6, 16))
        dims = int(rng.integers(2, 6))
        codebook = Codebook(rng.normal(size=(k_words, dims)))
        params = LlcParams(neighbors=int(rng.integers(2, min(6, k_words))), lam=1e-4)
        x = rng.normal(size=dims)
        code = llc_encode(codebook, params, x)
        worst_sum = max(worst_sum, abs(float(code.sum()) - 1.0))
        oracle_code = llc_projected_gradient_oracle(codebook, params, x)
        ours = float(np.sum((x - codebook.centroids.T @ code) ** 2))
        ref = float(np.sum((x - codebook.centroids.T @ oracle_code) ** 2))
        worst_reconstruction = max(worst_reconstruction, abs(ours - ref))
    ok = worst_sum <= 1e-12 and worst_reconstruction <= 1e-6
    print(f"\n  sum-to-one gap {worst_sum:.2e}, reconstruction gap {worst_reconstruction:.2e}")
    _report(3, "(a) LLC codes sum to one and match the projected-gradient oracle", ok)


def test_criterion_3b_fisher_oracle():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(10):
        k = int(rng.integers(1, 5))
        d = int(rng.integers(1, 9))
        n = int(rng.integers(2, 51))
        model = GmmModel(
            weights=rng.dirichlet(np.ones(k) * 5),
            means=rng.normal(size=(k, d)) * 2,
            variances=rng.uniform(0.4, 1.8, size=(k, d)),
        )
        data = rng.normal(size=(n, d))
        encoded = fisher_encode(model, data, normalize=False).values
        oracle = fisher_finite_difference_oracle(model, data, h=1e-5)
        worst = max(worst, float(np.linalg.norm(encoded - oracle) / np.linalg.norm(oracle)))
    ok = worst < 1e-4
    print(f"\n  worst relative gap to finite-difference gradients: {worst:.2e}")
    _report(3, "(b) Fisher vectors match finite-difference log-likelihood gradients", ok)


def test_criterion_3c_vlad_oracle():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(50):
        k_words = int(rng.integers(2, 9))
        dims = int(rng.integers(1, 7))
        codebook = Codebook(rng.normal(size=(k_words, dims)))
        data = rng.normal(size=(int(rng.integers(1, 40)), dims)) * 2
        ours = vlad_encode(codebook, data, normalize=False).values
        expected = np.zeros((k_words, dims))
        for x in data:
            nearest = min(
                range(k_words), key=lambda i: (np.linalg.norm(x - codebook.centroids[i]), i)
            )
            expected[nearest] += x - codebook.centroids[nearest]
        worst = max(worst, float(np.max(np.abs(ours - expected.ravel()))))
    ok = worst <= 1e-12
    print(f"\n  worst gap to brute-force accumulation: {worst:.2e}")
    _report(3, "(c) VLAD matches brute-force residual accumulation", ok)


def test_criterion_4_optimization_monotonicity():
    worst_kmeans = 0.0
    worst_gmm = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(150, 5)) + rng.integers(0, 4, size=(150, 1)) * 1.5
        trace = []
        kmeans_fit(data, 6, seed=seed, trace=trace)
        if len(trace) > 1:
            worst_kmeans = max(worst_kmeans, float(np.max(np.diff(trace))))
        trace = []
        gmm_fit(data, 4, seed=seed, trace=trace)
        if len(trace) > 1:
            worst_gmm = max(worst_gmm, float(-np.min(np.diff(trace))))
    worst_svm_increase = 0.0
    worst_oracle_gap = 0.0
    for seed in range(3):
        rng = np.random.default_rng(2000 + seed)
        n = 15
        # mirrored blobs: the optimal bias is exactly zero, so the comparison
        # isolates solver optimality rather than the bias-regularization offset
        lo = rng.normal(-2.0, 0.3, size=(n, 2))
        data = np.vstack([lo, -lo])
        labels = np.array([0] * n + [1] * n)
        trace = []
        model = train_linear_svm(
            list(zip(data, labels)), 2, penalty=1.0, max_epochs=2000, tol=1e-10,
            seed=seed, objective_trace=trace,
        )
        for class_trace in trace:
            if len(class_trace) > 1:
                worst_svm_increase = max(worst_svm_increase, float(np.max(np.diff(class_trace))))
        targets = np.where(labels == 0, 1.0, -1.0)
        ours = hinge_objective(model.weights[0], model.biases[0], 1.0, data, targets)
        oracle = svm_subgradient_oracle(data, targets, 1.0, steps=150000)
        worst_oracle_gap = max(worst_oracle_gap, abs(ours - oracle) / oracle)
    ok = (
        worst_kmeans <= 1e-10
        and worst_gmm <= 1e-10
        and worst_svm_increase <= 1e-8
        and worst_oracle_gap <= 1e-3
    )
    print(
        f"\n  kmeans worst step {worst_kmeans:.2e}, gmm worst step {worst_gmm:.2e}, "
        f"svm worst increase {worst_svm_increase:.2e}, oracle gap {worst_oracle_gap:.2e}"
    )
    _report(4, "k-means/GMM traces monotone; SVM primal monotone and near the oracle", ok)


def test_criterion_5_temporal_discrimination(tmp_path):
    started = time.monotonic()
    spec = SynthSpec(
        num_classes=2,
        videos_per_class=60,
        dims=16,
        frames_min=80,
        frames_max=200,
        frequencies=(0.05, 0.20),
        noise=0.3,
        seed=2024,
    )
    manifest = generate_synthetic_dataset(spec, tmp_path / "data")
    shared = dict(
        spectrum_length=500,
        time_encoder="average",
        dft_encoder="average",
        fusion_time_norm=0.3,
        fusion_dft_norm=1.0,
        svm_c=100.0,
        seed=7,
    )
    time_only = PipelineConfig(dft_branch_enabled=False, **shared)
    fused = PipelineConfig(**shared)
    result_time = run_repeated_experiment(time_only, manifest, 10)
    result_fused = run_repeated_experiment(fused, manifest, 10)
    wins = sum(
        f.overall_accuracy > t.overall_accuracy
        for f, t in zip(result_fused.reports, result_time.reports)
    )
    elapsed = time.monotonic() - started
    ok = (
        result_time.mean_overall_accuracy <= 0.65
        and result_fused.mean_overall_accuracy >= 0.90
        and wins >= 9
        and elapsed < 120.0
    )
    print(
        f"\n  time-only {result_time.mean_overall_accuracy:.3f} (need <= 0.65), "
        f"fused {result_fused.mean_overall_accuracy:.3f} (need >= 0.90), "
        f"fused wins {wins}/10, {elapsed:.1f}s"
    )
    _report(5, "fused time+spectrum beats time-only on the frequency-labelled benchmark", ok)


SYNTH_SPEC_TEXT = (
    "num_classes=2\nvideos_per_class=8\ndims=8\nframes_min=48\nframes_max=72\n"
    "frequencies=0.1,0.35\nnoise=0.25\nseed=13\n"
)

RUN_CONFIG_TEXT = (
    "spectrum_length=64\ntime_encoder=average\ndft_encoder=average\n"
    "fusion_time_norm=0.3\nfusion_dft_norm=1.0\nsvm_c=100\nseed=5\n"
)


def test_criterion_6_determinism(tmp_path, capsys):
    spec_path = tmp_path / "synth.cfg"
    spec_path.write_text(SYNTH_SPEC_TEXT, encoding="utf-8")
    config_path = tmp_path / "run.cfg"
    config_path.write_text(RUN_CONFIG_TEXT, encoding="utf-8")
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "data")]) == 0
    manifest_path = tmp_path / "data" / "manifest.tsv"

    argv = ["run", "--config", str(config_path), "--manifest", str(manifest_path), "--repeat", "2"]
    capsys.readouterr()
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    identical = first == second

    assert main(["run", "--config", str(config_path), "--manifest", str(manifest_path),
                 "--repeat", "1"]) == 0
    run_row = capsys.readouterr().out.strip().splitlines()[1].split("\t")

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
    staged = dict(
        line.split("\t", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    staged_matches = (
        staged["overall"] == run_row[1]
        and staged["class_0"] == run_row[2]
        and staged["class_1"] == run_row[3]
    )
    ok = identical and staged_matches
    print(f"\n  repeated runs identical: {identical}; staged == monolithic: {staged_matches}")
    _report(6, "byte-identical repeated runs; staged pipeline reproduces the monolithic run", ok)


def test_criterion_7_dimension_laws():
    rng = np.random.default_rng(1007)
    d = 32
    descriptors = rng.normal(size=(40, d))

    averaged = average_pool(descriptors)
    gmm16 = GmmModel(
        weights=np.full(16, 1.0 / 16),
        means=rng.normal(size=(16, d)),
        variances=rng.uniform(0.5, 1.5, size=(16, d)),
    )
    fisher = fisher_encode(gmm16, descriptors)
    vlad_book = Codebook(rng.normal(size=(16, d)))
    vlad = vlad_encode(vlad_book, descriptors)
    llc_book = Codebook(rng.normal(size=(1024, d)))
    llc = llc_pool(llc_book, LlcParams(neighbors=5), descriptors[:5])

    # the fv law at the full-scale descriptor width: 2 * 1024 * 16 = 32768
    gmm_wide = GmmModel(
        weights=np.full(16, 1.0 / 16),
        means=rng.normal(size=(16, 1024)),
        variances=rng.uniform(0.5, 1.5, size=(16, 1024)),
    )
    fisher_wide = fisher_encode(gmm_wide, rng.normal(size=(3, 1024)))

    checks = {
        "average == d": averaged.dims == 32,
        "fv == 2dK": fisher.dims == 2 * 32 * 16 == 1024,
        "vlad == dK": vlad.dims == 32 * 16 == 512,
        "llc == K": llc.dims == 1024,
        "fv at d=1024, K=16": fisher_wide.dims == 32768,
    }
    ok = all(checks.values())
    print("\n  " + "; ".join(f"{name}: {value}" for name, value in checks.items()))
    _report(7, "encoded dimensions follow d / 2dK / dK / K exactly", ok)


def test_criterion_8_format_roundtrips(tmp_path):
    rng = np.random.default_rng(1008)
    results = {}

    seq = FeatureSequence("v", rng.normal(size=(6, 11)))
    a, b = tmp_path / "a.tdfe", tmp_path / "b.tdfe"
    write_feature_sequence(seq, a)
    write_feature_sequence(read_feature_sequence(a), b)
    results["TDFE"] = a.read_bytes() == b.read_bytes()

    pca = pca_fit(rng.normal(size=(30, 7)), 4)
    a, b = tmp_path / "a.tdfp", tmp_path / "b.tdfp"
    save_pca_model(pca, a)
    save_pca_model(load_pca_model(a), b)
    results["TDFP"] = a.read_bytes() == b.read_bytes()

    codebook = kmeans_fit(rng.normal(size=(50, 4)), 6, seed=0)
    a, b = tmp_path / "a.tdfc", tmp_path / "b.tdfc"
    save_codebook(codebook, a)
    save_codebook(load_codebook(a), b)
    results["TDFC"] = a.read_bytes() == b.read_bytes()

    gmm = gmm_fit(rng.normal(size=(80, 3)), 3, seed=0)
    a, b = tmp_path / "a.tdfg", tmp_path / "b.tdfg"
    save_gmm_model(gmm, a)
    save_gmm_model(load_gmm_model(a), b)
    results["TDFG"] = a.read_bytes() == b.read_bytes()

    vector = VideoVector(rng.normal(size=23), "fused", "fused")
    a, b = tmp_path / "a.tdfv", tmp_path / "b.tdfv"
    save_video_vector(vector, a)
    save_video_vector(load_video_vector(a), b)
    results["TDFV"] = a.read_bytes() == b.read_bytes()

    pairs = [(rng.normal(size=3) + (2 * label - 1) * 3, label) for label in (0, 1) for _ in range(6)]
    model = train_linear_svm(pairs, 2, penalty=10.0, seed=0)
    a, b = tmp_path / "a.tdfm", tmp_path / "b.tdfm"
    save_svm_model(model, a)
    save_svm_model(load_svm_model(a), b)
    results["TDFM"] = a.read_bytes() == b.read_bytes()

    ok = all(results.values())
    print("\n  " + "; ".join(f"{name}: {'ok' if value else 'MISMATCH'}" for name, value in results.items()))
    _report(8, "all six serialized formats survive write-read-write byte-identically", ok)
