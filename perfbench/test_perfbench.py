"""Tests of the benchmark's own code: span arithmetic, the tracer, the input
generator, and that every correctness check rejects a perturbed program output."""

import numpy as np
import pytest

import checks
from gen import DataRecipe, make_videos, write_dataset
from tracing import Tracer, self_times
from workloads import LAYOUT

import tdfenc

SMALL = DataRecipe((0.1, 0.3), 4, 4, 20, 30, 0.2)


def test_self_time_of_a_hand_built_span_nest():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 7.0, 0),
        ("c", 6.0, 8.0, 0),  # overlaps b: the union of children is subtracted once
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.0, 2.0])


# stand-ins with the parameter names the counters read, so these tests cover
# the tracer's logic and not the program's current signatures
def kmeans_fit(descriptors, num_words, seed, max_iters=100, trace=None):
    for i in range(min(3, max_iters)):
        if trace is not None:
            trace.append(float(i))
    return trace


def gmm_fit(descriptors, num_components, seed, max_iters=100, tol=1e-6, trace=None):
    TRACED["codebook.kmeans_fit"](descriptors, num_components, seed, max_iters)
    if trace is not None:
        trace.extend([0.0] * max_iters)


def train_linear_svm(
    train, num_classes, penalty, max_epochs=200, tol=1e-6, seed=0, objective_trace=None
):
    if objective_trace is not None:
        objective_trace.extend([[0.0] * max_epochs, [0.0]])


def llc_encode(codebook, x, neighbors, lam):
    return x


TRACED = {}


def _wrap_stand_ins(tracer):
    TRACED.clear()
    for fn, module in ((kmeans_fit, "codebook"), (gmm_fit, "codebook"),
                       (train_linear_svm, "svm"), (llc_encode, "encode")):
        TRACED[f"{module}.{fn.__name__}"] = tracer.wrap(f"{module}.{fn.__name__}", fn)
    return TRACED


def test_timing_tracer_records_spans_and_leaves_trace_arguments_alone():
    tracer = Tracer()
    traced = _wrap_stand_ins(tracer)
    data = np.zeros((40, 2))
    assert traced["codebook.kmeans_fit"](data, 3, 0, max_iters=5) is None
    traced["codebook.gmm_fit"](data, 3, 0, max_iters=2)
    traced["encode.llc_encode"](None, 1.0, 5, 0.1)
    metrics = tracer.layer_metrics(1)
    assert metrics["codebook.kmeans_fit.calls"] == 2
    assert metrics["codebook.kmeans_fit.rows"] == 80
    assert metrics["encode.llc_encode.calls"] == 1
    assert "codebook.kmeans_fit.iterations" not in metrics
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("codebook.kmeans_fit", None), ("codebook.gmm_fit", None),
                     ("codebook.kmeans_fit", 1)]


def test_counting_tracer_takes_iterations_from_the_trace_parameters():
    tracer = Tracer(count_iterations=True)
    traced = _wrap_stand_ins(tracer)
    data = np.zeros((40, 2))
    traced["codebook.kmeans_fit"](data, 3, 0, max_iters=10)
    traced["codebook.gmm_fit"](data, 3, 0, max_iters=2)  # its K-means start uses all 2
    traced["svm.train_linear_svm"]([(None, 0)] * 7, 2, 1.0, max_epochs=4)
    assert tracer.spans == []
    assert tracer.layer_metrics(1) == {
        "codebook.kmeans_fit.iterations": 5,
        "codebook.kmeans_fit.at_cap": 1,
        "codebook.gmm_fit.iterations": 2,
        "codebook.gmm_fit.at_cap": 1,
        "svm.epochs": 5,
        "svm.classes_at_cap": 1,
        "svm.coordinate_steps": 35,
    }
    assert tracer.absent() == []


def test_tracer_reports_removed_functions_and_parameters_as_absent():
    def renamed_trace(descriptors, num_words, seed, max_iters=100, history=None):
        return None

    counting, timing = Tracer(count_iterations=True), Tracer()
    counting.wrap("codebook.kmeans_fit", renamed_trace)(np.zeros((4, 2)), 2, 0)
    timing.wrap("encode.llc_pool", lambda codebook, descriptors: None)
    assert "codebook.kmeans_fit.iterations" in counting.absent()
    assert "codebook.gmm_fit.iterations" in counting.absent()
    assert "encode.llc_encode.calls" in timing.absent()
    assert "encode.llc_pool.self_s" not in timing.absent()


def test_generator_is_deterministic_per_seed():
    first, again, other = make_videos(SMALL, 5), make_videos(SMALL, 5), make_videos(SMALL, 6)
    assert [(i, c) for i, c, _ in first] == [(i, c) for i, c, _ in other]
    assert all(np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(first, again))
    assert not any(np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(first, other))
    assert [v.shape for _, _, v in first] == [v.shape for _, _, v in other]


def test_generated_files_read_back_through_the_program(tmp_path):
    manifest = tdfenc.read_manifest(write_dataset(SMALL, 3, tmp_path))
    videos = make_videos(SMALL, 3)
    assert [(e.video_id, e.label) for e in manifest.entries] == [(i, c) for i, c, _ in videos]
    for entry, (_, _, values) in zip(manifest.entries, videos):
        read = tdfenc.read_feature_sequence(entry.feature_path).values
        assert read.dtype == np.float64
        assert np.array_equal(read, values.astype(np.float32).astype(np.float64))
        assert np.array_equal(checks.read_tdfe(entry.feature_path), read)


ENCODER_CONFIGS = {
    "average": "time_encoder=average\ndft_encoder=average\n",
    "vlad-fv": (
        "time_encoder=vlad\ntime_codebook_size=3\ndft_encoder=fv\ndft_codebook_size=2\n"
        "signed_sqrt_l2=true\n"
    ),
    "llc": (
        "time_encoder=llc\ntime_codebook_size=6\nllc_neighbors=5\nllc_lambda=0.0001\n"
        "dft_encoder=vlad\ndft_codebook_size=2\nsigned_sqrt_l2=true\n"
    ),
}


@pytest.fixture(params=sorted(ENCODER_CONFIGS))
def encoded(request, tmp_path):
    """Oracle config, models, frames, oracle spectrum, program spectrum and
    program vector of one video."""
    text = LAYOUT + "spectrum_length=12\nfusion_time_norm=0.3\nfusion_dft_norm=1.0\nseed=2\n"
    text += ENCODER_CONFIGS[request.param]
    if request.param == "average":
        text += "pca_dims=3\n"
    (tmp_path / "run.cfg").write_text(text)
    config = tdfenc.parse_pipeline_config(tmp_path / "run.cfg")
    manifest = tdfenc.read_manifest(write_dataset(SMALL, 4, tmp_path / "data"))
    bundle = tdfenc.fit_models(config, manifest)
    entry = manifest.entries[1]
    sequence = tdfenc.read_feature_sequence(entry.feature_path)
    vector = tdfenc.encode_video(config, bundle, sequence).values

    pca = None if bundle.pca is None else (bundle.pca.mean, bundle.pca.components)
    frames = checks.reduced_frames(checks.read_tdfe(entry.feature_path), pca)
    spectrum = checks.spectrum_rows(frames, 12)
    program_rows = tdfenc.spectrum_of_sequence(tdfenc.FeatureSequence("v", frames.T), 12).values
    models = {
        "time": checks.model_arrays(bundle.time_model),
        "dft": checks.model_arrays(bundle.dft_model),
    }
    return checks.parse_config(text), models, frames, spectrum, program_rows, vector


def test_video_check_passes_on_program_output_and_fails_on_perturbed(encoded):
    config, models, frames, spectrum, _, vector = encoded
    assert checks.check_video("v", config, models, frames, spectrum, vector) == []
    time_dims = checks.expected_dims(config, "time", frames.shape[1])
    for part in (slice(0, time_dims), slice(time_dims, None)):
        scaled = vector.copy()
        scaled[part] *= 1.01
        assert checks.check_video("v", config, models, frames, spectrum, scaled)
    shuffled = vector.copy()
    shuffled[[0, 1]] = shuffled[[1, 0]]
    assert checks.check_video("v", config, models, frames, spectrum, shuffled)
    assert checks.check_video("v", config, models, frames, spectrum, np.append(vector, 0.0))


def test_spectrum_check_passes_on_program_output_and_fails_on_perturbed(encoded):
    _, _, _, spectrum, program_rows, _ = encoded
    assert checks.check_spectrum("v", program_rows, spectrum) == []
    assert checks.check_spectrum("v", program_rows * 1.01, spectrum)
    assert checks.check_spectrum("v", program_rows[:, :-1], spectrum)


def test_prediction_and_accuracy_checks_fail_on_perturbed_output():
    rng = np.random.default_rng(0)
    weights, biases = rng.normal(size=(3, 5)), rng.normal(size=3)
    vectors = list(rng.normal(size=(8, 5)))
    model = tdfenc.LinearSvmModel(weights=weights, biases=biases, penalty=1.0)
    predicted = [tdfenc.predict(model, v)[0] for v in vectors]
    expected = checks.own_predictions(weights, biases, vectors)
    assert checks.check_predictions(expected, predicted) == []
    flipped = list(predicted)
    flipped[3] = (flipped[3] + 1) % 3
    assert checks.check_predictions(expected, flipped)

    labels = list(predicted)
    assert checks.check_accuracy(predicted, labels, 1.0) == []
    assert checks.check_accuracy(predicted, labels, 0.875)
    wrong = [(p + 1) % 3 for p in predicted]
    assert checks.check_accuracy(wrong, labels, 0.0)


def test_format_readers_match_the_program(tmp_path):
    rng = np.random.default_rng(1)
    weights, biases = rng.normal(size=(3, 4)), rng.normal(size=3)
    model = tdfenc.LinearSvmModel(weights=weights, biases=biases, penalty=2.0)
    tdfenc.save_svm_model(model, tmp_path / "m.tdfm")
    read_weights, read_biases = checks.read_tdfm(tmp_path / "m.tdfm")
    assert np.array_equal(read_weights, weights) and np.array_equal(read_biases, biases)
    vector = tdfenc.VideoVector(values=rng.normal(size=7), method="fused", branch="fused")
    tdfenc.save_video_vector(vector, tmp_path / "v.tdfv")
    assert np.array_equal(checks.read_tdfv(tmp_path / "v.tdfv"), vector.values)
    codebook = tdfenc.Codebook(centroids=rng.normal(size=(5, 2)))
    tdfenc.save_codebook(codebook, tmp_path / "c.tdfc")
    assert np.array_equal(checks.read_tdfc(tmp_path / "c.tdfc"), codebook.centroids)


def test_tracer_installs_on_the_program_and_restores_it():
    modules = [tdfenc] + [getattr(tdfenc, m) for m in ("pipeline", "cli", "codebook")
                          if hasattr(tdfenc, m)]
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    tracer.install()
    try:
        replaced = sum(vars(m)[k] is not v for m, b in zip(modules, before) for k, v in b.items())
        assert tracer.wrapped and replaced
    finally:
        tracer.uninstall()
    assert all(all(vars(m)[k] is v for k, v in b.items()) for m, b in zip(modules, before))
