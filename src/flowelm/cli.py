"""Command line for the full pipeline: synth, train, grid, evaluate, score.

Every sub-command is deterministic given its flags; repeated runs produce
byte-identical artifacts and reports. Exit codes: 0 success, 1 usage,
2 data/schema problems, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import array
import math
import os
import sys

import numpy as np

from . import dataio, metrics, model_select, preprocess
from . import elm as elm_mod
from .elm import Activation, ElmParams
from .errors import DataError, NumericError, ParseError, SchemaError, ShapeError
from .metrics import EvalReport

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """Exits 1 on usage errors and keeps its options by destination, which
    the config-file defaults look up in the command being run."""

    def __init__(self, *args, **kwargs):
        self.options: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options[action.dest] = action
        return action

    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _StageFailure(SystemExit):
    pass


def _fail(code: int, stage: str, message: str):
    print(f"flowelm: {stage}: {message}", file=sys.stderr)
    raise _StageFailure(code)


def _stage(stage: str, fn, *args, **kwargs):
    """Run one pipeline stage, converting errors to coded exits."""
    try:
        return fn(*args, **kwargs)
    except FileNotFoundError as exc:
        _fail(EXIT_DATA, stage, f"file not found: {exc.filename}")
    except NumericError as exc:
        _fail(EXIT_NUMERIC, stage, str(exc))
    except (DataError, ShapeError) as exc:
        _fail(EXIT_DATA, stage, str(exc))
    except OSError as exc:
        _fail(EXIT_DATA, stage, str(exc))


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------


def format_report(report: EvalReport) -> str:
    """Machine-readable key=value report with a 2x2 confusion block.

    Confusion rows are actual (attack first), columns predicted (attack
    first): first row "tp fn", second row "fp tn".
    """
    f = dataio.format_float
    cm = report.confusion
    lines = [
        "flowelm-report v1",
        f"n_samples={report.n_samples}",
        f"threshold={f(report.threshold)}",
        f"tp={cm.tp}",
        f"fp={cm.fp}",
        f"tn={cm.tn}",
        f"fn={cm.fn}",
        f"accuracy={f(report.accuracy)}",
        f"precision={f(report.precision)}",
        f"recall={f(report.recall)}",
        f"f1={f(report.f1)}",
        f"auc_roc={f(report.auc_roc)}",
        f"neg_precision={f(report.neg_precision)}",
        f"neg_recall={f(report.neg_recall)}",
        f"degenerate={1 if report.degenerate else 0}",
        "confusion:",
        f"{cm.tp} {cm.fn}",
        f"{cm.fp} {cm.tn}",
        "end",
    ]
    return "\n".join(lines) + "\n"


def display_summary(report: EvalReport) -> None:
    """Human-readable two-decimal summary table."""
    cm = report.confusion
    print(f"Test results (n={report.n_samples}, threshold {report.threshold:.2f}):")
    print(f"  Accuracy    {100.0 * report.accuracy:.2f}%")
    print(f"  Precision   {report.precision:.2f}")
    print(f"  Recall      {report.recall:.2f}")
    print(f"  F1-score    {report.f1:.2f}")
    auc = "n/a" if math.isnan(report.auc_roc) else f"{report.auc_roc:.3f}"
    print(f"  AUC-ROC     {auc}")
    width = max(len(str(v)) for v in (cm.tp, cm.fp, cm.tn, cm.fn))
    print("Confusion matrix (rows actual, columns predicted; attack first):")
    print(f"  attack  {cm.tp:>{width}}  {cm.fn:>{width}}")
    print(f"  benign  {cm.fp:>{width}}  {cm.tn:>{width}}")


# ---------------------------------------------------------------------------
# shared pipeline steps
# ---------------------------------------------------------------------------


def _schema_from_args(args, base: dataio.CsvSchema | None = None) -> dataio.CsvSchema:
    """The flags' schema, with `base`'s value for each flag not given. An
    empty value is given, and CsvSchema rejects it."""
    base = base or dataio.CsvSchema()
    exclude = base.exclude_columns
    if args.exclude_columns is not None:
        exclude = tuple(c for c in args.exclude_columns.split(",") if c)
    return dataio.CsvSchema(
        label_column=base.label_column if args.label_column is None else args.label_column,
        benign_value=base.benign_value if args.benign_value is None else args.benign_value,
        delimiter=base.delimiter if args.delimiter is None else args.delimiter,
        exclude_columns=exclude,
    )


def _scored(artifact: dataio.ModelArtifact, features):
    """transform's (x, rows, finite) of decoded rows, with x replaced by its scores from elm's block step."""
    x, rows, finite = artifact.transform(features)
    return elm_mod._score_blocks(artifact.model, x), rows, finite


def _staged(stage: str, chunks):
    """Each item of `chunks`, each taken inside the stage."""
    chunks = iter(chunks)
    while (chunk := _stage(stage, next, chunks, None)) is not None:
        yield chunk


def _evaluate(artifact: dataio.ModelArtifact, chunks, threshold: float):
    """Report on the rows of all ingested columns, a (features, labels) chunk
    at a time, that the artifact's transform lets through; the rows it
    leaves out are counted on stderr. Each chunk is scored as it comes and
    only the label bit and score of each scored row are kept."""
    labels, scores = bytearray(), array.array("d")
    n_rows = n_finite = 0
    for features, chunk_labels in chunks:
        chunk_scores, rows, finite = _stage("evaluate", _scored, artifact, features)
        n_rows += len(finite)
        n_finite += int(np.count_nonzero(finite))
        labels.extend(chunk_labels[rows].astype(np.uint8))
        scores.frombytes(chunk_scores.view(np.uint8))
        del features, chunk_labels  # the chunk goes before the next is read
    if n_finite < n_rows:
        print(f"flowelm: evaluate: skipped {n_rows - n_finite} record(s) with missing values"
              " or unknown category values", file=sys.stderr)
    if len(labels) < n_finite:
        print(f"flowelm: evaluate: skipped {n_finite - len(labels)} record(s) with a value"
              " that overflows when scaled", file=sys.stderr)
    if not labels:
        _fail(EXIT_DATA, "evaluate", "no usable records left after skipping")
    return _stage("evaluate", metrics.evaluate_scores, np.frombuffer(labels, dtype=np.uint8),
                  np.frombuffer(scores), threshold)


def _train_pipeline(args, choose_params) -> int:
    """schema, load, clean, split, select features, choose the ELM
    parameters, fit the scaler and the model, report on the held-out rows,
    save. `choose_params` maps the training rows (selected columns,
    unscaled) to the ElmParams to fit; it must not keep them, as they are
    scaled in place once it returns. Each array goes as soon as the next
    stage is done with it."""
    schema = _stage("schema", _schema_from_args, args)
    data = _stage("clean", preprocess.clean, _stage("load", dataio.load_csv, args.input, schema))
    train_rows, test_rows = _stage(
        "split", preprocess.split_indices, data.labels, args.train_fraction, args.seed
    )
    selection = _stage(
        "select-features",
        preprocess.select_features,
        data.subset_rows(train_rows) if args.leak_free else data,
        args.corr_threshold,
    )
    # The training side, of the selected columns only, in one fancy index: a
    # plain array that the search sees through a read-only dataset, then
    # scaled in place, so no other copy of it is made.
    kept = list(selection.kept_indices)
    x_train, y_train = data.features[train_rows[:, None], kept], data.labels[train_rows]
    kept_names = tuple(data.feature_names[i] for i in kept)
    train = preprocess.FlowDataset._adopt(x_train.view(), labels=y_train, feature_names=kept_names,
                                          source=data.source)
    # the held-out rows of all ingested columns: the artifact selects
    x_test, y_test = data.features[test_rows], data.labels[test_rows]
    feature_names, fingerprint, source = data.feature_names, dataio.fingerprint(data), data.source
    del data, train_rows, test_rows  # the cleaned rows go before the search and the fit
    params = choose_params(train)
    del train  # the search's read-only view of the rows scaled in place below
    scaler = _stage("fit-scaler", preprocess.fit_scaler, x_train, kept_names)
    preprocess.scale_in_place(scaler, x_train)
    model = _stage("train", elm_mod.fit, x_train, y_train, params)
    del x_train  # before the held-out rows are scored
    artifact = dataio.ModelArtifact(
        model=model,
        selection=selection,
        scaler=scaler,
        schema=schema,
        feature_names=feature_names,
        seed=args.seed,
        fingerprint=fingerprint,
        source=source,
    )
    block = elm_mod._SCORE_ROWS  # the chunks that evaluate reads
    report = _evaluate(artifact, ((x_test[i : i + block], y_test[i : i + block])
                                  for i in range(0, len(y_test), block)), args.threshold)
    _stage("save", dataio.save_model, artifact, args.model)
    report_path = args.report or f"{args.model}.report.txt"
    _stage("report", dataio.write_atomic, report_path, format_report(report))
    print(f"model -> {args.model}")
    print(f"report -> {report_path}")
    display_summary(report)
    return 0


# ---------------------------------------------------------------------------
# sub-commands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    def flag_params(_train):
        return ElmParams(
            hidden_nodes=args.hidden,
            activation=Activation.from_name(args.activation),
            seed=args.seed,
            rbf_gamma=args.rbf_gamma,
        )

    return _train_pipeline(args, flag_params)


def _format_grid_line(entry: model_select.GridEntry) -> str:
    p = entry.params
    head = f"hidden={p.hidden_nodes:<5d} activation={p.activation.value:<8s}"
    if p.activation is Activation.RBF:
        head += f" gamma={p.rbf_gamma:g}"
    if entry.error is not None:
        return f"{head} FAILED: {entry.error}"
    return f"{head} mean={entry.mean:.4f} std={entry.std:.4f}"


def cmd_grid(args) -> int:
    def searched_params(train):
        spec = model_select.GridSpec(
            hidden_nodes=args.hidden,
            activations=tuple(Activation.from_name(a) for a in args.activation),
            rbf_gammas=args.rbf_gamma,
            folds=args.folds,
            seed=args.seed,
            metric=args.metric,
        )
        result = _stage("grid-search", model_select.grid_search, train, spec)
        print(f"Grid leaderboard ({spec.metric}, {spec.folds}-fold CV, best first):")
        for entry in result.entries:
            print(f"  {_format_grid_line(entry)}")
        return result.best

    return _train_pipeline(args, searched_params)


def cmd_evaluate(args) -> int:
    artifact = _stage("load-model", dataio.load_model, args.model)
    schema = _stage("schema", _schema_from_args, args, artifact.schema)

    def labeled_chunks():
        try:
            yield from dataio.load_csv_chunks(args.input, schema, artifact.layout)
        except SchemaError as exc:
            raise SchemaError(
                f"{exc} (evaluate needs a labeled CSV; use 'flowelm score' for unlabeled records)"
            ) from None

    report = _evaluate(artifact, _staged("load", labeled_chunks()), args.threshold)
    sys.stdout.write(format_report(report))
    display_summary(report)
    if args.report:
        _stage("report", dataio.write_atomic, args.report, format_report(report))
        print(f"report -> {args.report}")
    return 0


# The most bytes `score` takes from one read; the records in it are scored
# in one model evaluation.
_READ_SIZE = 1 << 16


def _line_blocks(stream):
    """The complete lines of each read of a binary stream, one list per
    read that ends a line. A read takes what has arrived and never waits
    for more; an unfinished last line waits for the next read, or for EOF."""
    partial = []  # the unfinished last line, in pieces
    while chunk := stream.read1(_READ_SIZE):
        *lines, rest = chunk.split(b"\n")
        if lines:
            lines[0] = b"".join(partial) + lines[0]
            partial = []
            yield lines
        partial.append(rest)
    if any(partial):
        yield [b"".join(partial)]


def _record_row(artifact: dataio.ModelArtifact, cells, n_cells: int, dropped):
    """The decoded row of one record's feature cells, or the reason it gets
    ERROR. The row may still hold a non-finite value; the artifact's
    transform fails it closed."""
    if isinstance(cells, str):
        return cells
    if len(cells) != n_cells:
        return f"expected {n_cells} fields, got {len(cells)}"
    try:
        return artifact.layout.decode(dataio._feature_cells(cells, dropped))
    except ParseError:
        return "unknown category value"


def _verdict_lines(artifact: dataio.ModelArtifact, first: int, records, rows, threshold: float) -> tuple[str, int]:
    """The verdict lines of `records`, numbered from ordinal `first`: per
    record its ERROR reason, or None for a record of the decoded `rows`
    (flat, in order), the rows that the artifact's transform lets through
    scored in one model evaluation; and how many lines are ERROR. A scored
    line holds its score in dataio.format_float's digits, then 1 if the
    score reaches the threshold, else 0."""
    outcomes = scores = []  # per decoded row, then per record: its score, or its ERROR reason
    if rows:
        scores, scored, finite = _scored(artifact, rows)
        outcomes = scores = scores.tolist()
        if len(scores) < len(finite):  # some decoded row failed: each gets its reason
            outcomes = ["numeric field overflows when scaled" if ok else "unparseable or non-finite numeric field"
                        for ok in finite.tolist()]
            for i, value in zip(scored.tolist(), scores):
                outcomes[i] = value
    if len(outcomes) < len(records):  # some record failed before decoding
        decoded = iter(outcomes)
        outcomes = [next(decoded) if row is None else row for row in records]
    return "".join([f"{ordinal},ERROR,{value}\n" if isinstance(value, str) else
                    "%d,%.17g,%d\n" % (ordinal, value, value >= threshold)
                    for ordinal, value in enumerate(outcomes, first)]), len(records) - len(scores)


def cmd_score(args) -> int:
    artifact = _stage("load-model", dataio.load_model, args.model)
    columns = list(artifact.layout.columns)
    stream = sys.stdin.buffer if args.input == "-" else _stage("score", open, args.input, "rb")
    delimiter = artifact.schema.delimiter
    n_cells, dropped = len(columns), ()  # a headerless stream's cells are all feature cells
    parse = None  # the block parser, once the first line has been read
    ordinal = errors = 0
    first = True
    try:
        for lines in _line_blocks(stream):
            records = []  # per record: its ERROR reason, or None for a decoded row
            rows = array.array("d")  # the decoded rows, flat
            for start in range(0, len(lines), dataio._BLOCK_LINES):
                block = lines[start : start + dataio._BLOCK_LINES]
                parsed = None if parse is None else parse(b"\n".join(block))
                if parsed is not None:
                    rows.frombytes(parsed[0].tobytes())
                    records += [None] * len(parsed[0])
                    continue
                for line in block:
                    cells = dataio.record_cells(line, delimiter)
                    if cells == []:
                        continue  # blank line
                    if first:
                        first = False
                        header = [] if isinstance(cells, str) else [cell.strip() for cell in cells]
                        header_dropped = artifact.schema.dropped_positions(header)
                        is_header = dataio._feature_cells(header, header_dropped) == columns  # load_csv's test
                        if is_header:
                            n_cells, dropped = len(cells), header_dropped
                        parse = dataio._block_parser(artifact.layout, n_cells, dropped, delimiter)
                        if is_header:
                            continue
                    row = _record_row(artifact, cells, n_cells, dropped)
                    if not isinstance(row, str):
                        rows.extend(row)
                        row = None
                    records.append(row)
            if records:
                lines, n_errors = _verdict_lines(artifact, ordinal, records, rows, args.threshold)
                ordinal += len(records)
                errors += n_errors
                sys.stdout.write(lines)
                sys.stdout.flush()
    finally:
        if stream is not sys.stdin.buffer:
            stream.close()
    if errors:
        print(f"flowelm: score: {errors} malformed record(s) skipped", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    mix = None
    if args.mix:
        mix = {}
        for part in args.mix.split(","):
            if "=" not in part:
                _fail(EXIT_USAGE, "synth", f"bad mix entry {part!r}; expected NAME=WEIGHT")
            name, _, weight = part.partition("=")
            try:
                mix[name.strip()] = float(weight)
            except ValueError:
                _fail(EXIT_USAGE, "synth", f"bad mix weight in {part!r}")
    try:
        spec = dataio.SyntheticSpec(
            n_benign=args.benign,
            n_attack=args.attack,
            attack_mix=mix if mix is not None else dataio._default_mix(),
            seed=args.seed,
            n_features=args.features,
        )
    except DataError as exc:
        _fail(EXIT_USAGE, "synth", str(exc))
    dataset = dataio.generate_synthetic(spec)
    _stage("write", dataio.write_csv, dataset, args.out)
    print(f"wrote {dataset.n_samples} rows ({args.benign} benign, {args.attack} attack) -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_schema_flags(parser):
    parser.add_argument("--label-column", default=None, help="label column name (default Label)")
    parser.add_argument("--benign-value", default=None, help="label value treated as benign (default Benign)")
    parser.add_argument("--delimiter", default=None, help="CSV delimiter (default ,)")
    parser.add_argument("--exclude-columns", default=None, help="comma-separated columns to ignore")


def _checked(parse, rule: str, holds):
    """An argparse type: parse the text, then raise ValueError unless the
    value holds. argparse names `rule` in its usage error; a config file
    value goes through the same check."""
    def convert(text):
        value = parse(text)
        if not holds(value):
            raise ValueError(rule)
        return value
    convert.__name__ = rule
    return convert


def _comma(convert):
    """An argparse type: a non-empty, comma-separated tuple of convert's values."""
    def parse(text):
        values = tuple(convert(tok.strip()) for tok in text.split(",") if tok.strip())
        if not values:
            raise ValueError("empty list")
        return values
    parse.__name__ = f"comma-separated {convert.__name__}"
    return parse


_threshold = _checked(float, "float (finite)", math.isfinite)
_corr_threshold = _checked(float, "float (finite, >= 0)", lambda c: math.isfinite(c) and c >= 0)
_fraction = _checked(float, "float (strictly between 0 and 1)", lambda f: 0 < f < 1)
_gamma = _checked(float, "float (finite, > 0)", lambda g: math.isfinite(g) and g > 0)
_hidden = _checked(int, "int (>= 1)", lambda h: h >= 1)
_folds = _checked(int, "int (>= 2)", lambda k: k >= 2)
_activation = _checked(str, "activation (tanh, sigmoid or rbf)", lambda a: a in ("tanh", "sigmoid", "rbf"))


def _add_pipeline_flags(parser):
    parser.add_argument("--corr-threshold", type=_corr_threshold, default=0.02,
                        help="minimum |correlation| with the label to keep a feature")
    parser.add_argument("--train-fraction", type=_fraction, default=0.8,
                        help="fraction of rows used for training")
    parser.add_argument("--seed", type=int, default=0, help="seed for every random choice")
    parser.add_argument("--leak-free", action="store_true",
                        help="select features from the training split only")
    parser.add_argument("--threshold", type=_threshold, default=0.5, help="decision threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flowelm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model on a labeled CSV", parents=[])
    p_train.add_argument("--config", default=None, help="optional key=value defaults file")
    p_train.add_argument("--input", required=True, help="labeled flow CSV")
    p_train.add_argument("--model", required=True, help="output model artifact path")
    p_train.add_argument("--report", default=None, help="output report path (default MODEL.report.txt)")
    _add_schema_flags(p_train)
    _add_pipeline_flags(p_train)
    p_train.add_argument("--hidden", type=_hidden, default=64, help="hidden node count")
    p_train.add_argument("--activation", type=_activation, default="tanh", help="tanh, sigmoid or rbf")
    p_train.add_argument("--rbf-gamma", type=_gamma, default=1.0, help="RBF kernel width")
    p_train.set_defaults(func=cmd_train)

    p_grid = sub.add_parser("grid", help="cross-validated grid search, then train the best")
    p_grid.add_argument("--config", default=None, help="optional key=value defaults file")
    p_grid.add_argument("--input", required=True, help="labeled flow CSV")
    p_grid.add_argument("--model", required=True, help="output model artifact path")
    p_grid.add_argument("--report", default=None, help="output report path (default MODEL.report.txt)")
    _add_schema_flags(p_grid)
    _add_pipeline_flags(p_grid)
    p_grid.add_argument("--hidden", type=_comma(_hidden), default=model_select.DEFAULT_HIDDEN_NODES,
                        help="comma-separated hidden node candidates")
    p_grid.add_argument("--activation", type=_comma(_activation), default=("tanh", "sigmoid", "rbf"),
                        help="comma-separated activation candidates")
    p_grid.add_argument("--rbf-gamma", type=_comma(_gamma), default=(1.0,),
                        help="comma-separated RBF gamma candidates")
    p_grid.add_argument("--folds", type=_folds, default=5, help="cross-validation folds")
    p_grid.add_argument("--metric", default="f1", choices=["f1", "accuracy"],
                        help="selection metric")
    p_grid.set_defaults(func=cmd_grid)

    p_eval = sub.add_parser("evaluate", help="evaluate a saved model on a labeled CSV")
    p_eval.add_argument("--config", default=None, help="optional key=value defaults file")
    p_eval.add_argument("--model", required=True, help="model artifact path")
    p_eval.add_argument("--input", required=True, help="labeled flow CSV")
    p_eval.add_argument("--report", default=None, help="optional report output path")
    p_eval.add_argument("--threshold", type=_threshold, default=0.5, help="decision threshold")
    _add_schema_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_score = sub.add_parser("score", help="stream verdicts for CSV records")
    p_score.add_argument("--config", default=None, help="optional key=value defaults file")
    p_score.add_argument("--model", required=True, help="model artifact path")
    p_score.add_argument("--input", default="-", help="records file, or - for stdin (default)")
    p_score.add_argument("--threshold", type=_threshold, default=0.5, help="decision threshold")
    p_score.set_defaults(func=cmd_score)

    p_synth = sub.add_parser("synth", help="generate a synthetic labeled flow CSV")
    p_synth.add_argument("--config", default=None, help="optional key=value defaults file")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.add_argument("--benign", type=int, default=2000, help="benign row count")
    p_synth.add_argument("--attack", type=int, default=2000, help="attack row count")
    p_synth.add_argument("--features", type=int, default=12, help="feature column count")
    p_synth.add_argument("--seed", type=int, default=7, help="generator seed")
    p_synth.add_argument("--mix", default=None,
                         help="attack mix as NAME=WEIGHT pairs, comma-separated")
    p_synth.set_defaults(func=cmd_synth)

    parser.commands = sub.choices  # command name -> its parser
    return parser


# The values a config file may give an on/off flag, in any case.
_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}


def _apply_config_file(parser, command, path):
    """Install a config file's key=value pairs as the running command's
    defaults. A key the command has no flag for is ignored; a value goes
    through its flag's type and choices, or must be in _SWITCH_VALUES for
    an on/off flag."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [raw.strip() for raw in fh]
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    defaults = {}
    for line in lines:
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"bad config line {line!r}; expected key=value")
        key, _, value = line.partition("=")
        defaults[key.strip().replace("-", "_")] = value.strip()
    usable = {}
    for key, text in defaults.items():
        action = command.options.get(key)
        if action is None:
            continue
        try:
            if action.nargs == 0:  # an on/off flag such as --leak-free
                value = _SWITCH_VALUES[text.lower()]
            else:
                value = text if action.type is None else action.type(text)
            if action.choices is not None and value not in action.choices:
                raise ValueError(text)
        except (KeyError, TypeError, ValueError):
            parser.error(f"bad config value for {key}: {text!r}")
        usable[key] = value
    command.set_defaults(**usable)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        _apply_config_file(parser, parser.commands[args.command], args.config)
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _StageFailure as exc:
        return exc.code
    except BrokenPipeError:
        # downstream consumer (head, etc.) closed the pipe; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
