"""One workload in its own process: set up, warm up, run timed rounds, check outputs.

Started by ``run.py``; prints one JSON object on its last stdout line. The
program is imported from the checkout's ``src`` directory and reached only
through its public functions and its command-line entry point.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

MIN_ROUNDS = 3


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--work", required=True, help="directory holding run.cfg and data/")
    p.add_argument("--src", required=True, help="directory that holds the tdfenc package")
    p.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out", help="where the traced run writes its spans")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


class InProcessRunner:
    """A user of the library: ``run_repeated_experiment`` as ``tdfenc run`` calls
    it, then the same repetition as separate fit / encode / train stages."""

    def __init__(self, tdfenc, config, manifest, config_text):
        self.tdfenc, self.config, self.manifest = tdfenc, config, manifest
        self.config_text = config_text
        # the first repetition's split, as run_repeated_experiment draws it
        self.train, self.test = tdfenc.split_train_test(
            manifest, config.train_fraction, config.seed + 1
        )
        self.entries = self.train.entries + self.test.entries
        self.ops_per_round = 3 + len(self.entries)
        self.ops_per_experiment = 1
        self.completed = False

    def experiment(self) -> None:
        result = self.tdfenc.pipeline.run_repeated_experiment(self.config, self.manifest, 1)
        self.reported_accuracy = result.reports[0].overall_accuracy

    def round(self) -> dict:
        t = self.tdfenc
        clock = time.perf_counter
        start = clock()
        self.experiment()
        fitted = clock()
        bundle = t.pipeline.fit_models(self.config, self.train)
        encoding = clock()
        vectors = [
            t.pipeline.encode_video(
                self.config, bundle, t.featureio.read_feature_sequence(e.feature_path, e.video_id)
            )
            for e in self.entries
        ]
        training = clock()
        pairs = [(v, e.label) for v, e in zip(vectors, self.train.entries)]
        c = self.config
        model = t.svm.train_linear_svm(
            pairs, self.manifest.num_classes, c.svm_c, c.svm_max_epochs, c.svm_tol, seed=c.seed
        )
        done = clock()
        self.bundle, self.vectors, self.model = bundle, vectors, model
        self.completed = True
        return {
            "experiment_s": fitted - start,
            "fit_s": encoding - fitted,
            "encode_videos_per_s": len(vectors) / (training - encoding),
            "train_s": done - training,
        }

    def check(self) -> list[str]:
        import checks

        t = self.tdfenc
        config = checks.parse_config(self.config_text)
        pca = self.bundle.pca
        pca = None if pca is None else (pca.mean, pca.components)
        models = {
            "time": checks.model_arrays(self.bundle.time_model),
            "dft": checks.model_arrays(self.bundle.dft_model),
        }
        n_train = len(self.train.entries)
        failures = []
        # the first and last test videos and the first training video
        for i in (n_train, len(self.entries) - 1, 0):
            entry = self.entries[i]
            frames = checks.reduced_frames(checks.read_tdfe(entry.feature_path), pca)
            failures += _check_video(t, config, models, entry.video_id, frames, self.vectors[i].values)
        test_vectors = [v.values for v in self.vectors[n_train:]]
        predicted = [t.predict(self.model, v)[0] for v in test_vectors]
        expected = checks.own_predictions(self.model.weights, self.model.biases, test_vectors)
        failures += checks.check_predictions(expected, predicted)
        labels = [checks.label_of(e.video_id) for e in self.test.entries]
        failures += checks.check_accuracy(expected, labels, self.reported_accuracy)
        return failures


def _check_video(tdfenc, config, models, video_id, frames, program_vector) -> list[str]:
    """Spectrum rows and fused vector of one video against the oracles."""
    import checks

    length = config["spectrum_length"]
    spectrum = checks.spectrum_rows(frames, length)
    program_rows = tdfenc.spectrum_of_sequence(tdfenc.FeatureSequence(video_id, frames.T), length)
    return checks.check_spectrum(video_id, program_rows.values, spectrum) + checks.check_video(
        video_id, config, models, frames, spectrum, program_vector
    )


class StagedRunner:
    """A user of the command line: fit, encode train, encode test, train,
    evaluate and predict, each through ``tdfenc.cli.main``."""

    STAGE_OF = {"fit": "fit_s", "encode": "encode", "train": "train_s"}

    def __init__(self, tdfenc, manifest, config_text, work: Path, config_path, manifest_path):
        self.tdfenc, self.config_text = tdfenc, config_text
        out = work / "staged"
        self.bundle, self.model = out / "bundle", out / "model.tdfm"
        self.enc_train, self.enc_test = out / "enc_train", out / "enc_test"
        cfg, bundle = str(config_path), str(self.bundle)
        train_index, test_index = str(self.enc_train / "index.tsv"), str(self.enc_test / "index.tsv")
        self.commands = [
            ["fit", "--config", cfg, "--manifest", str(manifest_path), "--out", bundle],
            ["encode", "--config", cfg, "--bundle", bundle,
             "--manifest", str(self.bundle / "train.tsv"), "--out", str(self.enc_train)],
            ["encode", "--config", cfg, "--bundle", bundle,
             "--manifest", str(self.bundle / "test.tsv"), "--out", str(self.enc_test)],
            ["train", "--config", cfg, "--vectors", train_index, "--out", str(self.model)],
            ["evaluate", "--model", str(self.model), "--vectors", test_index],
            ["predict", "--model", str(self.model), "--vectors", test_index],
        ]
        self.videos = len(manifest.entries)
        self.ops_per_round = self.ops_per_experiment = len(self.commands) + self.videos
        self.completed = False

    def experiment(self) -> None:
        self.round()

    def round(self) -> dict:
        clock = time.perf_counter
        spent = {"fit_s": 0.0, "encode": 0.0, "train_s": 0.0}
        self.stdout = {}
        start = clock()
        for argv in self.commands:
            out, err = io.StringIO(), io.StringIO()
            began = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.tdfenc.cli.main(argv)
            if argv[0] in self.STAGE_OF:
                spent[self.STAGE_OF[argv[0]]] += clock() - began
            if code != 0:
                raise RuntimeError(f"tdfenc {argv[0]} exited {code}: {err.getvalue().strip()}")
            self.stdout[argv[0]] = out.getvalue()
        done = clock()
        self.completed = True
        return {
            "experiment_s": done - start,
            "fit_s": spent["fit_s"],
            "encode_videos_per_s": self.videos / spent["encode"],
            "train_s": spent["train_s"],
        }

    def check(self) -> list[str]:
        import checks

        config = checks.parse_config(self.config_text)
        if "pca_dims" in config or "fv" in (config["time_encoder"], config["dft_encoder"]):
            raise ValueError("the staged checks read codebooks only: no PCA model, no GMM")
        models = {
            branch: checks.read_tdfc(self.bundle / f"{branch}_codebook.tdfc")
            for branch in ("time", "dft")
            if config[f"{branch}_encoder"] != "average"
        }
        test = _read_index(self.enc_test / "index.tsv")
        train = _read_index(self.enc_train / "index.tsv")
        features = dict(_read_index(self.bundle / "test.tsv") + _read_index(self.bundle / "train.tsv"))
        failures = []
        for video_id, vector_path in (test[0], test[-1], train[0]):
            frames = checks.reduced_frames(checks.read_tdfe(features[video_id]), None)
            failures += _check_video(
                self.tdfenc, config, models, video_id, frames, checks.read_tdfv(vector_path)
            )
        weights, biases = checks.read_tdfm(self.model)
        expected = checks.own_predictions(weights, biases, [checks.read_tdfv(p) for _, p in test])
        rows = [line.split("\t") for line in self.stdout["predict"].splitlines()]
        if [r[0] for r in rows] != [video_id for video_id, _ in test]:
            failures.append("predict rows do not list the test videos in index order")
        predicted = [int(r[1]) for r in rows]
        failures += checks.check_predictions(expected, predicted)
        labels = [checks.label_of(video_id) for video_id, _ in test]
        evaluated = dict(line.split("\t", 1) for line in self.stdout["evaluate"].splitlines())
        failures += checks.check_accuracy(predicted, labels, float(evaluated["overall"]))
        return failures


def _read_index(path: Path) -> list[tuple[str, Path]]:
    """(video_id, resolved path) of each row of a manifest the program wrote."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        video_id, rel, _ = line.split("\t")
        rows.append((video_id, path.parent / rel))
    return rows


class Counts:
    """Operations attempted and failed; a round that raises counts all its operations failed."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def run(self, fn, ops: int):
        self.attempted += ops
        try:
            return fn()
        except Exception:  # the benchmark keeps running and reports the failure
            self.failed += ops
            self.errors.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
            return None


def _room_for_another(start: float, last: float, seconds: float) -> bool:
    """Whether a round as long as the last one (begun at ``last``) would still
    end within ``seconds`` of ``start``."""
    now = time.monotonic()
    return (now - start) + (now - last) <= seconds


def timed_rounds(runner, seconds: float, counts: Counts) -> tuple[dict, int]:
    samples: dict[str, list[float]] = {}
    rounds = 0
    start = last = time.monotonic()
    while rounds < MIN_ROUNDS or _room_for_another(start, last, seconds):
        last = time.monotonic()
        timings = counts.run(runner.round, runner.ops_per_round)
        rounds += 1
        for name, value in (timings or {}).items():
            samples.setdefault(name, []).append(value)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, rounds


def traced_rounds(runner, seconds: float, counts: Counts, spans_out) -> tuple[dict, int, list]:
    """Alternate one untraced and one traced experiment; per-layer metrics are
    per traced experiment, and their timing difference is the overhead. One
    more, untimed experiment under a counting tracer gives the iteration counts."""
    from tracing import Tracer

    tracer, counter = Tracer(), Tracer(count_iterations=True)
    plain, traced = [], []
    rounds = 0
    start = last = time.monotonic()
    while rounds < 2 or _room_for_another(start, last, seconds):
        last = time.monotonic()
        for samples, traced_run in ((plain, False), (traced, True)):
            if traced_run:
                tracer.install()
            began = time.perf_counter()
            failed = counts.failed
            counts.run(runner.experiment, runner.ops_per_experiment)
            elapsed = time.perf_counter() - began
            tracer.uninstall()
            if counts.failed == failed:
                samples.append(elapsed)
        rounds += 1
    counter.install()
    failed = counts.failed
    counts.run(runner.experiment, runner.ops_per_experiment)
    counter.uninstall()
    if spans_out:
        tracer.write(spans_out)
    absent = tracer.absent() + counter.absent()
    if not (plain and traced) or counts.failed != failed:
        return {}, rounds, absent
    metrics = {**tracer.layer_metrics(len(traced)), **counter.layer_metrics(1)}
    metrics["trace.experiment_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics, rounds, absent


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy
    import tdfenc
    import tdfenc.cli

    if not Path(tdfenc.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"tdfenc imported from {tdfenc.__file__}, not from {args.src}")
    work = Path(args.work)
    config_path, manifest_path = work / "run.cfg", work / "data" / "manifest.tsv"
    config = tdfenc.parse_pipeline_config(config_path)
    manifest = tdfenc.read_manifest(manifest_path)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s, "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if workload.staged:
        runner = StagedRunner(
            tdfenc, manifest, workload.config_text, work, config_path, manifest_path
        )
    else:
        runner = InProcessRunner(tdfenc, config, manifest, workload.config_text)
    counts = Counts()
    phases = {"setup": setup_s}
    began = time.monotonic()
    # untimed warm-up: the first fit in a process runs markedly slower than later
    # ones. The traced run checks the outputs of this round, so it runs a whole one.
    if args.trace:
        counts.run(runner.round, runner.ops_per_round)
    else:
        counts.run(runner.experiment, runner.ops_per_experiment)
    phases["warm_up"] = time.monotonic() - began
    began = time.monotonic()
    if args.trace:
        metrics, rounds, absent = traced_rounds(runner, args.seconds, counts, args.spans_out)
        result["absent"] = absent
    else:
        metrics, rounds = timed_rounds(runner, args.seconds, counts)
    phases["measure"] = time.monotonic() - began
    began = time.monotonic()
    failures = runner.check() if runner.completed else ["no round completed"]
    phases["check"] = time.monotonic() - began
    result.update(
        rounds=rounds,
        attempted=counts.attempted,
        failed=counts.failed,
        errors=counts.errors,
        phases=phases,
        metrics=metrics,
        failures=failures,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
