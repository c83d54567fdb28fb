"""Command-line entry point: synthesize data, fit, encode, train, predict, evaluate, run.

Exit codes: 0 success, 1 usage/config error, 2 data or validation error,
3 I/O error. Reports are TAB-separated plain text on stdout; diagnostics are
single lines on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, DataError
from .featureio import read_manifest, write_manifest, DatasetManifest, ManifestEntry
from .encode import load_video_vector, save_video_vector
from .pipeline import (
    _encode_manifest,
    _repetition_split,
    _Videos,
    evaluate,
    fit_models,
    generate_synthetic_dataset,
    load_bundle,
    parse_pipeline_config,
    parse_synth_spec,
    run_repeated_experiment,
    save_bundle,
)
from .svm import load_svm_model, predict, save_svm_model, train_linear_svm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _positive_int(text: str) -> int:
    """An argument that must be an integer of at least 1; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _load_pairs(index_path, dims: int | None = None):
    """The index and its (vector, label) pairs, each vector of length ``dims``
    (the first vector's if None); an error names the video."""
    manifest = read_manifest(index_path)
    pairs = [(load_video_vector(e.feature_path), e.label) for e in manifest.entries]
    dims = pairs[0][0].dims if dims is None else dims
    for e, (vector, _) in zip(manifest.entries, pairs):
        if vector.dims != dims:
            raise DataError(f"{e.video_id}: vector has {vector.dims} dims, expected {dims}")
    return manifest, pairs


def _cmd_synth(args) -> int:
    spec = parse_synth_spec(args.spec)
    generate_synthetic_dataset(spec, args.out)
    print(Path(args.out) / "manifest.tsv")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = parse_pipeline_config(args.config)
    manifest = read_manifest(args.manifest)
    result = run_repeated_experiment(config, manifest, args.repeat)
    classes = manifest.num_classes
    print("run\toverall\t" + "\t".join(f"class_{c}" for c in range(classes)))
    for r, report in enumerate(result.reports, 1):
        cells = "\t".join(_fmt(a) for a in report.per_class_accuracy)
        print(f"{r}\t{_fmt(report.overall_accuracy)}\t{cells}")
    class_means = [
        sum(rep.per_class_accuracy[c] for rep in result.reports) / len(result.reports)
        for c in range(classes)
    ]
    cells = "\t".join(_fmt(a) for a in class_means)
    print(f"mean\t{_fmt(result.mean_overall_accuracy)}\t{cells}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    config = parse_pipeline_config(args.config)
    manifest = read_manifest(args.manifest)
    # the first repetition's split, so staged runs mirror `run --repeat 1`
    train_manifest, test_manifest = _repetition_split(config, manifest, 1)
    # fit before writing anything, so a failing fit leaves no bundle-like directory
    bundle = fit_models(config, train_manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(train_manifest, out_dir / "train.tsv")
    write_manifest(test_manifest, out_dir / "test.tsv")
    save_bundle(bundle, out_dir)
    print(out_dir)
    return EXIT_OK


def _cmd_encode(args) -> int:
    config = parse_pipeline_config(args.config)
    manifest = read_manifest(args.manifest)
    bundle = load_bundle(config, args.bundle)
    # encode every video before writing any, so a failing video leaves no output
    pairs = _encode_manifest(config, bundle, _Videos(manifest))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    index_entries = []
    for e, (vector, _) in zip(manifest.entries, pairs):
        path = out_dir / f"{e.video_id}.tdfv"
        save_video_vector(vector, path)
        index_entries.append(ManifestEntry(e.video_id, path, e.label))
    index = DatasetManifest(tuple(index_entries), manifest.num_classes)
    write_manifest(index, out_dir / "index.tsv")
    print(out_dir / "index.tsv")
    return EXIT_OK


def _cmd_train(args) -> int:
    config = parse_pipeline_config(args.config)
    index, pairs = _load_pairs(args.vectors)
    model = train_linear_svm(
        pairs,
        index.num_classes,
        config.svm_c,
        config.svm_max_epochs,
        config.svm_tol,
        seed=config.seed,
    )
    save_svm_model(model, args.out)
    print(args.out)
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = load_svm_model(args.model)
    index, pairs = _load_pairs(args.vectors, model.dims)
    for e, (vector, _) in zip(index.entries, pairs):
        predicted, scores = predict(model, vector)
        cells = "\t".join(_fmt(s) for s in scores)
        print(f"{e.video_id}\t{predicted}\t{cells}")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    model = load_svm_model(args.model)
    _, pairs = _load_pairs(args.vectors, model.dims)
    report = evaluate(model, pairs)
    print(f"overall\t{_fmt(report.overall_accuracy)}")
    for c, acc in enumerate(report.per_class_accuracy):
        print(f"class_{c}\t{_fmt(acc)}")
    for c, row in enumerate(report.confusion_matrix):
        print(f"confusion_{c}\t" + "\t".join(str(int(v)) for v in row))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tdfenc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    p.add_argument("--spec", required=True, help="key=value synthetic dataset spec")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("run", help="repeated split/fit/encode/train/evaluate experiment")
    p.add_argument("--config", required=True, help="pipeline config file")
    p.add_argument("--manifest", required=True, help="dataset manifest")
    p.add_argument("--repeat", type=_positive_int, default=10, help="number of repetitions")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("fit", help="split the dataset and fit preprocessing/encoder models")
    p.add_argument("--config", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="bundle output directory")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("encode", help="encode every video of a manifest to vector files")
    p.add_argument("--config", required=True)
    p.add_argument("--bundle", required=True, help="directory written by fit")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="vector output directory")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("train", help="train the classifier on encoded vectors")
    p.add_argument("--config", required=True)
    p.add_argument("--vectors", required=True, help="index.tsv written by encode")
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict classes for encoded vectors")
    p.add_argument("--model", required=True)
    p.add_argument("--vectors", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="evaluate a model on encoded vectors")
    p.add_argument("--model", required=True)
    p.add_argument("--vectors", required=True)
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
