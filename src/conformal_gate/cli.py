"""Command-line front end: calibrate, predict, evaluate, simulate.

Exit codes: 0 success, 1 I/O failure or out of memory, 2 data/validation
error, 3 usage error.  Every command is deterministic given its flags (all
randomness is seeded explicitly), and a command's output files are written
together (``io.write_texts``): a command that fails leaves none of them.  The
``CONFORMAL_GATE_LOG`` environment variable sets the log level (DEBUG,
INFO, WARNING, ERROR; default WARNING, also for any other value).

``--help`` and usage errors need only argparse: numpy, the layers,
``logging``, ``json`` and ``pathlib`` load only once a command's arguments
have passed the usage checks.  Then a command loads only the layers it
runs (``_import_layers``): ``calibrate`` loads neither the predictor nor the
metrics, and only ``simulate`` loads the synthetic-data layer.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys

EXIT_OK = 0
EXIT_IO = 1
EXIT_DATA = 2
EXIT_USAGE = 3

_WRITE_DATA_NAMES = ("calibration.csv", "test.csv")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _path(text: str) -> str:
    """The ``type`` of every path option: an empty path is a usage error, not an absent option."""
    if not text:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conformal-gate",
        description="Split conformal prediction sets for multiclass classifier outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    cal = sub.add_parser("calibrate", help="derive a threshold from calibration probabilities")
    cal.add_argument("--input", type=_path, required=True, help="calibration file (CSV or JSONL)")
    cal.add_argument("--alpha", type=float, default=0.05, help="miscoverage rate (default 0.05)")
    cal.add_argument("--out", type=_path, required=True, help="calibration artifact (JSON)")
    cal.add_argument("--curve", type=_path, help="optional sorted-score curve CSV")
    cal.add_argument("--classes", type=_path, help="classes.json mapping indices to names")

    pred = sub.add_parser("predict", help="emit prediction sets for a test file")
    pred.add_argument("--calibration", type=_path, required=True,
                      help="calibration artifact from `calibrate`")
    pred.add_argument("--input", type=_path, required=True, help="test file (CSV or JSONL)")
    pred.add_argument("--out", type=_path, required=True, help="prediction sets (JSONL)")
    pred.add_argument("--classes", type=_path, help="classes.json mapping indices to names")

    ev = sub.add_parser("evaluate", help="score prediction sets against labels")
    sets = ev.add_mutually_exclusive_group(required=True)
    sets.add_argument("--calibration", type=_path, help="calibration artifact from `calibrate`")
    sets.add_argument("--predictions", type=_path, help="precomputed prediction JSONL")
    ev.add_argument("--input", type=_path, required=True, help="labeled test file (CSV or JSONL)")
    ev.add_argument("--out-json", type=_path, required=True, help="full report (JSON)")
    ev.add_argument("--out-csv", type=_path, required=True, help="per-class metric table (CSV)")
    ev.add_argument("--classes", type=_path, help="classes.json mapping indices to names")

    sim = sub.add_parser("simulate", help="measure empirical coverage on synthetic data")
    sim.add_argument("--k", type=int, default=9, help="number of classes (default 9)")
    sim.add_argument("--n-calib", type=int, default=1000, help="calibration samples per trial")
    sim.add_argument("--n-test", type=int, default=10000, help="test samples per trial")
    sim.add_argument("--alpha", type=float, default=0.05, help="miscoverage rate (default 0.05)")
    sim.add_argument("--seeds", type=int, default=20, help="number of independent trials")
    sim.add_argument("--noise", type=float, default=0.1, help="wrong-class concentration probability")
    sim.add_argument("--sharpness", type=float, default=4.0, help="concentration on the target class")
    sim.add_argument("--seed", type=int, default=0, help="base seed (trials derive substreams)")
    sim.add_argument("--out", type=_path, required=True, help="trial distribution (JSON)")
    sim.add_argument("--write-data", type=_path,
                     help="also write the last trial's calib/test CSVs to this directory")
    return parser


def _load_input(path: str, classes: str | None):
    universe = cgio.load_universe(classes) if classes else None
    return cgio.load_probabilities(path, universe=universe)


def _threshold_json(threshold: float):
    return "all_inclusive" if threshold == ALL_INCLUSIVE else threshold


def cmd_calibrate(args) -> int:
    dataset = cgio.require_samples(_load_input(args.input, args.classes), args.input,
                                   "calibration file")
    result = calibrate(dataset, Alpha(args.alpha))
    artifact = {
        "alpha": result.alpha,
        "n": result.n,
        "qlevel": result.qlevel,
        "threshold": _threshold_json(result.threshold),
        "k": dataset.universe.k,
        "input_sha256": cgio.file_digest(args.input),
        "universe_sha256": cgio.universe_digest(dataset.universe),
    }
    outputs = [(args.out, cgio.json_text(artifact))]
    if args.curve:
        outputs.append((args.curve, export_calibration_curve(result)))
    cgio.write_texts(outputs)
    shown = "all_inclusive" if result.is_all_inclusive else f"{result.threshold:.6f}"
    print(f"calibrated on n={result.n} (alpha={result.alpha}): threshold {shown}")
    return EXIT_OK


def _read_artifact(path: str, universe) -> float:
    """The threshold of a calibration artifact that fits the input's universe.

    A class count other than the input's, or a threshold that is neither
    "all_inclusive" nor a finite number in [0, 1], is a data error.  Class
    names that differ only warn.
    """
    artifact = cgio.read_json(path, "calibration artifact")
    if not isinstance(artifact, dict):
        raise DataError(f"malformed calibration artifact {path}: not a JSON object")
    if "threshold" not in artifact:
        raise DataError(f"calibration artifact {path} has no threshold")
    if "k" in artifact and artifact["k"] != universe.k:
        raise DataError(
            f"calibration artifact {path} is for k={artifact['k']!r} classes,"
            f" the input has {universe.k}"
        )
    value = artifact["threshold"]
    if value == "all_inclusive":
        threshold = ALL_INCLUSIVE
    elif isinstance(value, (int, float)) and not isinstance(value, bool) and 0.0 <= value <= 1.0:
        threshold = float(value)
    else:
        raise DataError(
            f"calibration artifact {path}: threshold {value!r} is neither"
            ' "all_inclusive" nor a finite number in [0, 1]'
        )
    recorded = artifact.get("universe_sha256")
    if recorded and recorded != cgio.universe_digest(universe):
        import logging

        logging.getLogger("conformal_gate.cli").warning(
            "test file universe differs from the one used at calibration; "
            "proceeding with the artifact threshold"
        )
    return threshold


def cmd_predict(args) -> int:
    dataset = _load_input(args.input, args.classes)
    threshold = _read_artifact(args.calibration, dataset.universe)
    sets = predict_batch(dataset, threshold)
    cgio.write_predictions(sets, args.out, dataset.labels)
    print(f"wrote {len(sets)} prediction sets to {args.out}")
    return EXIT_OK


def _print_summary(report) -> None:
    rows = cgio.report_rows(report)
    width = max(len(name) for name, *_ in rows)
    print(f"{'class':<{width}}  recall  avg_set_size  strict_coverage")
    for name, recall, avg_set_size, strict_coverage in rows:
        print(f"{name:<{width}}  {recall:>6}  {avg_set_size:>12}  {strict_coverage:>15}")
    print(
        f"n={report.n_test}  marginal_coverage={report.marginal_coverage:.4f}"
        f"  uncertain={report.uncertain_total}"
    )


def cmd_evaluate(args) -> int:
    dataset = cgio.require_samples(_load_input(args.input, args.classes), args.input, "test file")
    if args.classes:  # the report CSV holds the class names
        cgio.require_csv_safe(dataset.universe.names, f"classes file {args.classes}: class name")
    if args.predictions:
        sets = cgio.load_predictions(args.predictions, dataset.universe.k, dataset.ids)
    else:
        sets = predict_batch(dataset, _read_artifact(args.calibration, dataset.universe))
    report = evaluate(dataset, sets)
    cgio.write_report(report, args.out_json, args.out_csv)
    _print_summary(report)
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = SyntheticSpec(
        k=args.k,
        sharpness=args.sharpness,
        noise=args.noise,
        seed=args.seed,
    )
    result = coverage_trial(
        spec,
        n_calib=args.n_calib,
        n_test=args.n_test,
        alpha=Alpha(args.alpha),
        n_seeds=args.seeds,
    )
    outputs = [(args.out, cgio.json_text(result.to_json_obj()))]
    made: list[str] = []  # the directories --write-data makes, deepest first
    if args.write_data:
        outputs += [(os.path.join(args.write_data, name), cgio.dataset_csv_text(data))
                    for name, data in zip(_WRITE_DATA_NAMES, result.last_trial)]
        parent = os.path.abspath(args.write_data)
        while not os.path.lexists(parent):
            made.append(parent)
            parent = os.path.dirname(parent)
    try:
        if args.write_data:
            os.makedirs(args.write_data, exist_ok=True)
        cgio.write_texts(outputs)
    except BaseException:
        for directory in made:  # empty: write_texts unlinks its temp files when it fails
            try:
                os.rmdir(directory)
            except OSError:  # makedirs failed before it made this one
                pass
        raise
    print(
        f"coverage over {args.seeds} seeds: mean={result.mean:.4f} std={result.std:.4f}"
        f" min={result.min:.4f} max={result.max:.4f} (target {1 - args.alpha:.4f})"
    )
    return EXIT_OK


_COMMANDS = {
    "calibrate": cmd_calibrate,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
}


def _configure_logging() -> None:
    """Log at this call's level to its ``sys.stderr``, unless the caller gave root handlers."""
    import logging  # here, not at the top: --help and usage errors skip loading it

    level = getattr(logging, os.environ.get("CONFORMAL_GATE_LOG", "WARNING").upper(), None)
    if not isinstance(level, int):  # an unknown name, or a non-level such as BASIC_FORMAT
        level = logging.WARNING
    root = logging.getLogger()
    for handler in [h for h in root.handlers if h.name == "conformal_gate.cli"]:
        root.removeHandler(handler)  # an earlier call's, with its level and stderr
    if not root.handlers:
        logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
        root.handlers[0].set_name("conformal_gate.cli")


def _import_layers(command: str) -> None:
    """Bind the layer names that ``command`` uses.

    They load here, after argument parsing and the usage checks, so
    ``--help`` and usage errors never import numpy, ``logging`` or
    ``json``, and a command imports only the layers it runs.  They stay
    module globals, rebound on every call, where the benchmark's tracer
    finds and wraps them.
    """
    global cgio, ALL_INCLUSIVE, Alpha, calibrate, export_calibration_curve, DataError
    global evaluate, predict_batch, SyntheticSpec, coverage_trial
    from . import io as cgio
    from .calibration import ALL_INCLUSIVE, Alpha, calibrate, export_calibration_curve
    from .core_types import DataError
    if command in ("predict", "evaluate"):
        from .predictor import predict_batch
    if command == "evaluate":
        from .metrics import evaluate
    if command == "simulate":
        from .synth import SyntheticSpec, coverage_trial


def _shared_output(args) -> str | None:
    """A message naming two outputs of ``args`` that resolve to one file, or None."""
    outputs = {f"--{name.replace('_', '-')}": path for name, path in vars(args).items()
               if name in ("out", "curve", "out_json", "out_csv") and path}
    if getattr(args, "write_data", None):
        for name in _WRITE_DATA_NAMES:
            outputs[f"--write-data's {name}"] = os.path.join(args.write_data, name)
    seen: dict[str, str] = {}
    for option, path in outputs.items():
        real = os.path.realpath(path)
        if real in seen:
            return f"{seen[real]} and {option} name one file: {path}"
        seen[real] = option
    return None


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    With ``argv`` None, as the console script calls it, this call owns the
    process: the collector is off while the layers load, then their heap
    is frozen, so the collector traverses it neither during the command nor
    at exit.  A caller that passes ``argv`` keeps its collector as it was.
    """
    args = _build_parser().parse_args(argv)
    shared = _shared_output(args)
    if shared:
        print(f"error: {shared}", file=sys.stderr)
        return EXIT_USAGE
    if argv is None:
        gc.disable()
    _configure_logging()
    _import_layers(args.command)
    if argv is None:
        gc.freeze()
        gc.enable()
    try:
        return _COMMANDS[args.command](args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # numpy's names the array; a bare one has no message
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
