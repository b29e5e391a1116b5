import array
import contextlib
import io
import math
import select
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cli_env
from flowelm import cli as cli_mod
from flowelm import dataio, metrics, model_select, preprocess
from flowelm import elm as elm_mod
from flowelm.cli import format_report
from flowelm.elm import Activation, ElmParams
from flowelm.metrics import ConfusionMatrix, EvalReport
from flowelm.preprocess import FeatureSelection, ScalerState


def read_report(path):
    values = {}
    for line in path.read_text().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            values[key] = value
    return values


class TestTrain:
    def test_train_on_synth_succeeds(self, cli, small_synth_csv, tmp_path):
        model = tmp_path / "m.flowelm"
        result = cli(
            "train", "--input", str(small_synth_csv), "--model", str(model), "--seed", "1"
        )
        assert result.returncode == 0, result.stderr
        assert model.exists()
        report = read_report(tmp_path / "m.flowelm.report.txt")
        assert float(report["accuracy"]) >= 0.95
        assert "Accuracy" in result.stdout

    def test_missing_input_exits_2_naming_path(self, cli, tmp_path):
        result = cli(
            "train", "--input", str(tmp_path / "nope.csv"), "--model", str(tmp_path / "m")
        )
        assert result.returncode == 2
        assert "nope.csv" in result.stderr

    def test_same_seed_byte_identical_artifacts(self, cli, small_synth_csv, tmp_path):
        m1, m2 = tmp_path / "m1", tmp_path / "m2"
        for m in (m1, m2):
            result = cli(
                "train", "--input", str(small_synth_csv), "--model", str(m), "--seed", "4"
            )
            assert result.returncode == 0, result.stderr
        assert m1.read_bytes() == m2.read_bytes()
        assert (tmp_path / "m1.report.txt").read_bytes() == (tmp_path / "m2.report.txt").read_bytes()

    def test_usage_error_exit_1(self, cli, small_synth_csv, tmp_path):
        result = cli(
            "train", "--input", str(small_synth_csv), "--model", str(tmp_path / "m"),
            "--train-fraction", "1.5",
        )
        assert result.returncode == 1

    def test_unwritable_model_dir_exits_2_no_partial_file(self, cli, small_synth_csv, tmp_path):
        target = tmp_path / "no-such-dir" / "m.flowelm"
        result = cli("train", "--input", str(small_synth_csv), "--model", str(target))
        assert result.returncode == 2
        assert not target.exists()
        # the message names the path given, not the temp file beside it
        assert result.stderr == f"flowelm: save: file not found: {target}\n"
        assert ".flowelm-tmp-" not in result.stderr

    def test_piped_input_fails_loudly_instead_of_losing_rows(self, cli, small_synth_csv, tmp_path):
        # the layout is inferred in a pass of its own, and a pipe cannot be rewound for the second
        model = tmp_path / "m.flowelm"
        result = cli(
            "train", "--input", "/dev/stdin", "--model", str(model),
            stdin_text=small_synth_csv.read_bytes(),
        )
        assert result.returncode == 2
        assert "/dev/stdin: cannot rewind the input" in result.stderr
        assert not model.exists()

    def test_evaluate_reads_piped_input(self, cli, small_synth_csv, tmp_path):
        # with the model's layout there is one pass, so a pipe works
        model = tmp_path / "m.flowelm"
        assert cli("train", "--input", str(small_synth_csv), "--model", str(model)).returncode == 0
        from_file = cli("evaluate", "--model", str(model), "--input", str(small_synth_csv))
        from_pipe = cli(
            "evaluate", "--model", str(model), "--input", "/dev/stdin",
            stdin_text=small_synth_csv.read_bytes(),
        )
        assert from_pipe.returncode == 0, from_pipe.stderr
        assert from_pipe.stdout == from_file.stdout

    def test_leak_free_flag_accepted(self, cli, small_synth_csv, tmp_path):
        result = cli(
            "train", "--input", str(small_synth_csv), "--model", str(tmp_path / "m"),
            "--leak-free",
        )
        assert result.returncode == 0, result.stderr


class TestGrid:
    def test_leaderboard_rows_sorted(self, cli, small_synth_csv, tmp_path):
        result = cli(
            "grid", "--input", str(small_synth_csv), "--model", str(tmp_path / "g"),
            "--hidden", "16,64", "--activation", "tanh,sigmoid", "--seed", "2",
        )
        assert result.returncode == 0, result.stderr
        rows = [l for l in result.stdout.splitlines() if l.strip().startswith("hidden=")]
        assert len(rows) == 4
        means = [float(r.split("mean=")[1].split()[0]) for r in rows]
        assert means == sorted(means, reverse=True)

    def test_folds_below_two_usage_error(self, cli, small_synth_csv, tmp_path):
        result = cli(
            "grid", "--input", str(small_synth_csv), "--model", str(tmp_path / "g"),
            "--folds", "1",
        )
        assert result.returncode == 1

    def test_leaderboard_echoes_module_level_cv(self, small_synth_csv, tmp_path, monkeypatch, capsys):
        searched = []  # the training rows the grid search is given, copied as it is called
        real_search = model_select.grid_search

        def spy_search(data, spec):  # the pipeline scales those rows in place once it returns
            searched.append((data.features.copy(), data.labels.copy()))
            return real_search(data, spec)

        monkeypatch.setattr(cli_mod.model_select, "grid_search", spy_search)
        returncode = cli_mod.main([
            "grid", "--input", str(small_synth_csv), "--model", str(tmp_path / "g"),
            "--hidden", "8,32", "--activation", "tanh", "--folds", "3", "--seed", "6",
        ])
        assert returncode == 0
        printed = {}
        for row in capsys.readouterr().out.splitlines():
            row = row.strip()
            if row.startswith("hidden="):
                hidden = int(row.split("hidden=")[1].split()[0])
                printed[hidden] = float(row.split("mean=")[1].split()[0])

        # the training side, built here without the command: split, then the selected columns
        args = cli_mod.build_parser().parse_args(
            ["grid", "--input", str(small_synth_csv), "--model", str(tmp_path / "g"), "--seed", "6"]
        )
        data = preprocess.clean(dataio.load_csv(small_synth_csv))
        train_rows, _ = preprocess.split_indices(data.labels, args.train_fraction, args.seed)
        selection = preprocess.select_features(data, args.corr_threshold)
        train = data.subset_rows(train_rows).subset_columns(selection.kept_indices)
        ((given_features, given_labels),) = searched
        np.testing.assert_array_equal(given_features, train.features)
        np.testing.assert_array_equal(given_labels, train.labels)
        for hidden, shown in printed.items():
            spec = model_select.GridSpec(hidden_nodes=(hidden,), activations=(Activation.TANH,), folds=3, seed=6)
            (entry,) = real_search(train, spec).entries
            assert abs(entry.mean - shown) < 5e-5  # stdout rounds to 4 decimals


class TestEvaluate:
    @pytest.fixture
    def strongly_separated_csv(self, tmp_path):
        """Two far-apart clusters; any sane model classifies them perfectly."""
        rs = np.random.RandomState(0)
        n = 30
        benign = np.column_stack([rs.randn(n) * 0.1, rs.randn(n)])
        attack = np.column_stack([rs.randn(n) * 0.1 + 50.0, rs.randn(n)])
        ds = preprocess.FlowDataset(
            features=np.vstack([benign, attack]),
            labels=np.array([0] * n + [1] * n),
            feature_names=("x", "y"),
            categories=tuple(["Benign"] * n + ["DoS-SYN Flood"] * n),
        )
        path = tmp_path / "separated.csv"
        dataio.write_csv(ds, path)
        return path

    def test_training_csv_with_own_model_scores_perfectly(self, cli, strongly_separated_csv, tmp_path):
        model = tmp_path / "m.flowelm"
        result = cli(
            "train", "--input", str(strongly_separated_csv), "--model", str(model),
            "--seed", "0", "--hidden", "24",
        )
        assert result.returncode == 0, result.stderr
        result = cli("evaluate", "--model", str(model), "--input", str(strongly_separated_csv))
        assert result.returncode == 0, result.stderr
        values = dict(
            line.partition("=")[::2]
            for line in result.stdout.splitlines()
            if "=" in line and ":" not in line
        )
        assert float(values["accuracy"]) == 1.0

    def test_report_recomputes_from_confusion(self, cli, strongly_separated_csv, tmp_path):
        model = tmp_path / "m.flowelm"
        cli("train", "--input", str(strongly_separated_csv), "--model", str(model))
        report_path = tmp_path / "eval.report.txt"
        result = cli(
            "evaluate", "--model", str(model), "--input", str(strongly_separated_csv),
            "--report", str(report_path),
        )
        assert result.returncode == 0, result.stderr
        values = read_report(report_path)
        tp, fp = int(values["tp"]), int(values["fp"])
        tn, fn = int(values["tn"]), int(values["fn"])
        total = tp + fp + tn + fn
        assert float(values["accuracy"]) == (tp + tn) / total
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        assert float(values["precision"]) == precision
        assert float(values["recall"]) == recall

    def test_unlabeled_csv_exits_2(self, cli, strongly_separated_csv, tmp_path):
        model = tmp_path / "m.flowelm"
        cli("train", "--input", str(strongly_separated_csv), "--model", str(model))
        unlabeled = tmp_path / "unlabeled.csv"
        unlabeled.write_text("x,y\n1.0,2.0\n")
        result = cli("evaluate", "--model", str(model), "--input", str(unlabeled))
        assert result.returncode == 2
        assert "score" in result.stderr  # points at the score sub-command

    def test_feature_mismatch_lists_both_column_sets(self, cli, strongly_separated_csv, tmp_path):
        model = tmp_path / "m.flowelm"
        cli("train", "--input", str(strongly_separated_csv), "--model", str(model))
        other = tmp_path / "other.csv"
        other.write_text("p,q,Label\n1.0,2.0,Benign\n2.0,1.0,DoS-SYN Flood\n")
        result = cli("evaluate", "--model", str(model), "--input", str(other))
        assert result.returncode == 2
        assert "'x'" in result.stderr and "'p'" in result.stderr

    def test_rows_with_missing_values_skipped_with_warning(self, cli, strongly_separated_csv, tmp_path):
        model = tmp_path / "m.flowelm"
        cli("train", "--input", str(strongly_separated_csv), "--model", str(model))
        lines = strongly_separated_csv.read_text().splitlines()
        lines[1] = "oops," + lines[1].split(",", 1)[1]
        dirty = tmp_path / "dirty.csv"
        dirty.write_text("\n".join(lines) + "\n")
        result = cli("evaluate", "--model", str(model), "--input", str(dirty))
        assert result.returncode == 0, result.stderr
        assert "skipped 1 record" in result.stderr
        values = dict(
            line.partition("=")[::2] for line in result.stdout.splitlines() if "=" in line
        )
        assert int(values["n_samples"]) == len(lines) - 2  # header and bad row

    def test_missing_value_in_a_dropped_column_still_skips_the_row(self, cli, strongly_separated_csv, tmp_path):
        # y is noise, so a 0.5 correlation threshold keeps x alone
        model = tmp_path / "m.flowelm"
        result = cli("train", "--input", str(strongly_separated_csv), "--model", str(model),
                     "--corr-threshold", "0.5")
        assert result.returncode == 0, result.stderr
        assert dataio.load_model(model).selection.kept_indices == (0,)
        lines = strongly_separated_csv.read_text().splitlines()
        x, _, label = lines[1].split(",")
        lines[1] = f"{x},nan,{label}"
        dirty = tmp_path / "dirty.csv"
        dirty.write_text("\n".join(lines) + "\n")
        result = cli("evaluate", "--model", str(model), "--input", str(dirty))
        assert result.returncode == 0, result.stderr
        assert result.stderr == (
            "flowelm: evaluate: skipped 1 record(s) with missing values or unknown category values\n"
        )
        values = dict(line.partition("=")[::2] for line in result.stdout.splitlines() if "=" in line)
        assert int(values["n_samples"]) == len(lines) - 2  # header and bad row

    def test_score_answers_error_for_a_non_finite_value_in_a_dropped_column(self, cli, strongly_separated_csv, tmp_path):
        model = tmp_path / "m.flowelm"
        result = cli("train", "--input", str(strongly_separated_csv), "--model", str(model),
                     "--corr-threshold", "0.5")
        assert result.returncode == 0, result.stderr
        assert dataio.load_model(model).selection.kept_indices == (0,)
        lines = strongly_separated_csv.read_text().splitlines()
        for i, value in [(2, "nan"), (3, "inf"), (5, "-inf")]:
            x, _, label = lines[i].split(",")
            lines[i] = f"{x},{value},{label}"
        dirty = tmp_path / "dirty.csv"
        dirty.write_text("\n".join(lines) + "\n")
        result = cli("score", "--model", str(model), "--input", str(dirty))
        assert result.returncode == 0, result.stderr
        out = result.stdout.splitlines()
        assert [line.split(",")[0] for line in out] == [str(i) for i in range(len(lines) - 1)]
        errors = [line for line in out if ",ERROR," in line]
        assert errors == [f"{i - 1},ERROR,unparseable or non-finite numeric field" for i in (2, 3, 5)]
        assert "3 malformed record(s)" in result.stderr

    @pytest.mark.parametrize(
        "cell, reason",
        [("", "missing values or unknown category values"), ("-1e308", "a value that overflows when scaled")],
        ids=["missing", "overflow"],
    )
    def test_every_row_missing_a_value_exits_2(self, cli, strongly_separated_csv, tmp_path, cell, reason):
        # x shrunk 1000-fold: its spread, near 0.025, scales -1e308 past the float range
        lines = strongly_separated_csv.read_text().splitlines()
        rows = [line.split(",", 1) for line in lines[1:]]
        narrow = tmp_path / "narrow.csv"
        narrow.write_text("\n".join([lines[0]] + [f"{float(x) * 1e-3!r},{rest}" for x, rest in rows]) + "\n")
        model = tmp_path / "m.flowelm"
        result = cli("train", "--input", str(narrow), "--model", str(model), "--corr-threshold", "0.5")
        assert result.returncode == 0, result.stderr
        assert dataio.load_model(model).selection.kept_indices == (0,)
        capture = tmp_path / "spoiled.csv"
        capture.write_text("\n".join([lines[0]] + [f"{cell},{rest}" for _, rest in rows]) + "\n")
        result = cli("evaluate", "--model", str(model), "--input", str(capture))
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"flowelm: evaluate: skipped {len(rows)} record(s) with {reason}",
            "flowelm: evaluate: no usable records left after skipping",
        ]
        assert result.stdout == ""

    def test_attack_only_capture_reports_recall(self, cli, strongly_separated_csv, tmp_path):
        model = tmp_path / "m.flowelm"
        cli("train", "--input", str(strongly_separated_csv), "--model", str(model), "--hidden", "24")
        lines = strongly_separated_csv.read_text().splitlines()
        attacks = [line for line in lines[1:] if not line.endswith(",Benign")]
        capture = tmp_path / "attacks.csv"
        capture.write_text("\n".join([lines[0]] + attacks) + "\n")
        report_path = tmp_path / "attacks.report.txt"
        result = cli("evaluate", "--model", str(model), "--input", str(capture), "--report", str(report_path))
        assert result.returncode == 0, result.stderr
        values = read_report(report_path)
        tp, fn = int(values["tp"]), int(values["fn"])
        assert (tp + fn, int(values["fp"]), int(values["tn"])) == (len(attacks), 0, 0)
        assert float(values["recall"]) == tp / len(attacks)
        assert math.isnan(float(values["auc_roc"]))
        assert values["degenerate"] == "1"
        assert "AUC-ROC     n/a" in result.stdout


class TestScore:
    @pytest.fixture
    def trained(self, cli, small_synth_csv, tmp_path):
        model = tmp_path / "m.flowelm"
        result = cli("train", "--input", str(small_synth_csv), "--model", str(model), "--seed", "1")
        assert result.returncode == 0, result.stderr
        return model

    def test_stream_matches_evaluate_predictions(self, cli, trained, small_synth_csv):
        result = cli("score", "--model", str(trained), "--input", str(small_synth_csv))
        assert result.returncode == 0, result.stderr
        verdicts = [line.split(",") for line in result.stdout.splitlines()]
        stream_labels = [int(v[2]) for v in verdicts]

        artifact = dataio.load_model(trained)
        raw = dataio.load_csv(small_synth_csv, artifact.schema)
        x = preprocess.apply_scaler(
            artifact.scaler, raw.features[:, list(artifact.selection.kept_indices)]
        )
        batch_labels = list(elm_mod.predict(artifact.model, x, 0.5))
        assert stream_labels == batch_labels
        # the file takes more than one read, yet every score has the batch bits
        assert [v[1] for v in verdicts] == [dataio.format_float(s) for s in elm_mod.score(artifact.model, x)]

    def test_ordinals_contiguous_from_zero(self, cli, trained, small_synth_csv):
        result = cli("score", "--model", str(trained), "--input", str(small_synth_csv))
        ordinals = [int(line.split(",")[0]) for line in result.stdout.splitlines()]
        assert ordinals == list(range(len(ordinals)))

    def test_empty_stream(self, cli, trained):
        result = cli("score", "--model", str(trained), stdin_text="")
        assert result.returncode == 0
        assert result.stdout == ""

    @pytest.mark.parametrize("bad", ["garbage", "nan", "inf", "-inf", "not-utf8"])
    def test_malformed_line_produces_error_verdict_and_continues(self, cli, trained, small_synth_csv, bad):
        lines = small_synth_csv.read_text().splitlines()
        header, records = lines[0], [line.encode() for line in lines[1:11]]
        if bad == "garbage":
            records[4] = b"garbage"
        elif bad == "not-utf8":  # a Latin-1 byte; strict stdin decoding once ended the stream here
            records[4] = b"\xff" + records[4]
        else:  # one non-finite feature cell in an otherwise valid record
            cells = records[4].split(b",")
            cells[0] = bad.encode()
            records[4] = b",".join(cells)
        data = b"\n".join([header.encode()] + records) + b"\n"
        result = cli("score", "--model", str(trained), stdin_text=data)
        assert result.returncode == 0
        out = result.stdout.splitlines()
        assert len(out) == 10
        assert out[4].split(",")[1] == "ERROR"
        good = [l for l in out if l.split(",")[1] != "ERROR"]
        assert len(good) == 9
        assert "1 malformed record(s)" in result.stderr

    def test_non_utf8_line_in_input_file_gets_error(self, cli, trained, small_synth_csv, tmp_path):
        lines = small_synth_csv.read_bytes().splitlines()[:4]
        lines[2] = b"caf\xe9," + lines[2]
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        result = cli("score", "--model", str(trained), "--input", str(path))
        assert result.returncode == 0, result.stderr
        out = result.stdout.splitlines()
        assert [line.split(",")[1] == "ERROR" for line in out] == [False, True, False]

    def test_oversized_field_gets_its_own_reason(self, cli, trained, small_synth_csv, tmp_path):
        lines = small_synth_csv.read_bytes().splitlines()[:4]
        lines[2] = b"9" * 200_000 + b"," + lines[2]
        path = tmp_path / "huge.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        result = cli("score", "--model", str(trained), "--input", str(path))
        assert result.returncode == 0, result.stderr
        out = [line.split(",", 2) for line in result.stdout.splitlines()]
        assert [v[0] for v in out] == ["0", "1", "2"]
        assert out[1][1:] == ["ERROR", "field longer than the csv field limit of 131072 characters"]
        assert out[2][1] != "ERROR"

    def test_oversized_numeric_field_in_a_later_block_gets_its_own_reason(self, cli, trained, small_synth_csv,
                                                                         tmp_path):
        lines = small_synth_csv.read_bytes().splitlines()[:101]
        cells = lines[90].split(b",")
        cells[0] = b"9" * 200_000  # a float to np.loadtxt
        lines[90] = b",".join(cells)
        path = tmp_path / "huge.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        result = cli("score", "--model", str(trained), "--input", str(path))
        assert result.returncode == 0, result.stderr
        out = result.stdout.splitlines()
        assert len(out) == 100
        assert out[89] == "89,ERROR,field longer than the csv field limit of 131072 characters"
        assert [line for line in out if ",ERROR," in line] == [out[89]]

    def test_verdicts_from_a_file_equal_those_of_one_line_per_read(self, trained, small_synth_csv, tmp_path,
                                                                  monkeypatch, capsys):
        """Block boundaries never show: malformed and non-finite records,
        first and last in a block or alone in a read, get the same verdict
        bytes."""
        lines = small_synth_csv.read_bytes().splitlines()[:301]
        for i, edit in [(1, lambda c: [b"garbage"]), (64, lambda c: [b"nan"] + c[1:]), (65, lambda c: c[:-1]),
                        (128, lambda c: [b"caf\xe9"] + c[1:]), (129, lambda c: [b'"1.5"'] + c[1:]),
                        (192, lambda c: [b"inf"] + c[1:]), (193, lambda c: [b""] + c[1:]),
                        (250, lambda c: [b"1_000"] + c[1:]), (300, lambda c: [b"-inf"] + c[1:])]:
            lines[i] = b",".join(edit(lines[i].split(b",")))
        lines[100] += b"\r"  # a CRLF record
        lines.insert(150, b"")  # a blank line gets no verdict
        data = b"\n".join(lines) + b"\n"
        path = tmp_path / "records.csv"
        path.write_bytes(data)
        assert cli_mod.main(["score", "--model", str(trained), "--input", str(path)]) == 0
        from_file = capsys.readouterr()
        assert from_file.out.count(",ERROR,") == 7 and len(from_file.out.splitlines()) == 300

        class OneLinePerRead:
            def __init__(self):
                self.lines = data.splitlines(keepends=True)

            def read1(self, size):
                return self.lines.pop(0) if self.lines else b""

        monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=OneLinePerRead()))
        assert cli_mod.main(["score", "--model", str(trained)]) == 0
        assert capsys.readouterr() == from_file

    def test_error_verdict_arrives_while_stdin_stays_open(self, trained):
        # stdout is a pipe and PYTHONUNBUFFERED is unset, as for a real consumer
        proc = subprocess.Popen(
            [sys.executable, "-m", "flowelm", "score", "--model", str(trained)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=cli_env(),
        )
        try:
            proc.stdin.write(b"garbage\n")
            proc.stdin.flush()
            ready, _, _ = select.select([proc.stdout], [], [], 30)
            assert ready, "the ERROR verdict waited for more input"
            assert proc.stdout.readline().startswith(b"0,ERROR,")
        finally:
            proc.stdin.close()
            proc.wait(timeout=30)
            proc.stdout.close()

    def test_consumer_closing_the_pipe_exits_0_quietly(self, trained, tmp_path):
        # 40 000 verdicts, about 1.2 MB, overfill the pipe, so score is still
        # writing when the reader goes away, as under `flowelm score | head -1`
        capture = tmp_path / "capture.csv"
        dataio.write_csv(dataio.generate_synthetic(dataio.SyntheticSpec(n_benign=20000, n_attack=20000, seed=7)), capture)
        proc = subprocess.Popen(
            [sys.executable, "-m", "flowelm", "score", "--model", str(trained), "--input", str(capture)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
        )
        try:
            assert proc.stdout.readline().startswith(b"0,")
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            assert proc.stderr.read() == b""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()

    @staticmethod
    def start_scorer(model):
        return subprocess.Popen(
            [sys.executable, "-m", "flowelm", "score", "--model", str(model)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=cli_env(),
        )

    @staticmethod
    def next_verdict(proc):
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        assert ready, "no verdict within 30 s"
        return proc.stdout.readline()

    def test_stdout_identical_however_the_input_arrives(self, cli, trained, small_synth_csv, tmp_path):
        lines = small_synth_csv.read_bytes().splitlines()[:121]
        lines[8] = b"garbage"
        lines[31] = b"nan," + lines[31].split(b",", 1)[1]
        lines.insert(50, b"")  # a blank line gets no verdict
        data = b"\n".join(lines) + b"\n"
        path = tmp_path / "records.csv"
        path.write_bytes(data)
        from_file = cli("score", "--model", str(trained), "--input", str(path))
        assert from_file.returncode == 0, from_file.stderr
        expected = from_file.stdout.encode()
        assert len(expected.splitlines()) == 120 and expected.count(b",ERROR,") == 2

        # one record per write, each answered before the next is sent
        proc = self.start_scorer(trained)
        out = []
        for i, line in enumerate(lines):
            proc.stdin.write(line + b"\n")
            proc.stdin.flush()
            if i and line:  # the header and the blank line get no verdict
                out.append(self.next_verdict(proc))
        out.append(proc.communicate(timeout=60)[0])
        assert b"".join(out) == expected

        # irregular chunks that cut records mid-line, once the scorer is up
        proc = self.start_scorer(trained)
        pos = len(lines[0]) + len(lines[1]) + 2
        proc.stdin.write(data[:pos])
        proc.stdin.flush()
        first = self.next_verdict(proc)
        steps = np.random.RandomState(4).randint(1, 400, size=len(data))
        for step in steps:
            if pos >= len(data):
                break
            proc.stdin.write(data[pos : pos + step])
            proc.stdin.flush()
            time.sleep(0.001)
            pos += step
        assert first + proc.communicate(timeout=60)[0] == expected

    def test_last_line_without_newline_gets_its_verdict(self, cli, trained, small_synth_csv, tmp_path):
        data = "\n".join(small_synth_csv.read_text().splitlines()[:4])
        piped = cli("score", "--model", str(trained), stdin_text=data)
        path = tmp_path / "records.csv"
        path.write_text(data)
        from_file = cli("score", "--model", str(trained), "--input", str(path))
        assert piped.returncode == from_file.returncode == 0
        assert [line.split(",")[0] for line in piped.stdout.splitlines()] == ["0", "1", "2"]
        assert "ERROR" not in piped.stdout
        assert piped.stdout == from_file.stdout

    def test_headerless_records_accepted(self, cli, trained, small_synth_csv):
        lines = small_synth_csv.read_text().splitlines()[1:4]
        headerless = "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n"
        result = cli("score", "--model", str(trained), stdin_text=headerless)
        assert result.returncode == 0
        assert len(result.stdout.splitlines()) == 3

    def test_first_line_like_a_header_but_not_the_models_is_a_record(self, cli, trained, small_synth_csv):
        lines = small_synth_csv.read_text().splitlines()[:3]
        renamed = lines[0].replace("packet_size_mean", "packet_size_avg")
        unlabeled = [line.rsplit(",", 1)[0] for line in [renamed] + lines[1:]]
        result = cli("score", "--model", str(trained), stdin_text="\n".join(unlabeled) + "\n")
        assert result.returncode == 0, result.stderr
        out = result.stdout.splitlines()
        assert out[0] == "0,ERROR,unparseable or non-finite numeric field"
        assert [line.split(",")[1] == "ERROR" for line in out] == [True, False, False]
        # with the label, it is no header either: no record then has 12 fields
        result = cli("score", "--model", str(trained), stdin_text="\n".join([renamed] + lines[1:]) + "\n")
        assert result.stdout.splitlines() == [f"{i},ERROR,expected 12 fields, got 13" for i in range(3)]

    def test_reads_any_file_that_evaluate_reads(self, cli, small_synth_csv, tmp_path):
        # the label first and an excluded column last, as train and evaluate accept
        lines = [line.rsplit(",", 1) for line in small_synth_csv.read_text().splitlines()]
        moved = tmp_path / "moved.csv"
        moved.write_text("".join(f"{label},{cells},{'ts' if i == 0 else i}\n" for i, (cells, label) in enumerate(lines)))
        model = tmp_path / "m.flowelm"
        result = cli("train", "--input", str(moved), "--model", str(model), "--exclude-columns", "ts")
        assert result.returncode == 0, result.stderr
        result = cli("score", "--model", str(model), "--input", str(moved))
        assert result.returncode == 0, result.stderr
        labels = [int(line.split(",")[2]) for line in result.stdout.splitlines()]
        artifact = dataio.load_model(model)
        x, rows, _ = artifact.transform(dataio.load_csv(moved, artifact.schema, artifact.layout).features)
        assert len(rows) == len(labels) == len(lines) - 1
        assert labels == elm_mod.predict(artifact.model, x).tolist()

    def test_unreadable_model_exits_2(self, cli, tmp_path):
        result = cli("score", "--model", str(tmp_path / "missing.flowelm"), stdin_text="1,2\n")
        assert result.returncode == 2

    def test_header_only_input_gives_zero_verdicts(self, cli, trained, small_synth_csv):
        header = small_synth_csv.read_text().splitlines()[0] + "\n"
        result = cli("score", "--model", str(trained), stdin_text=header)
        assert result.returncode == 0
        assert result.stdout == ""


def run_in_process(*args):
    """cli.main in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_mod.main(list(args))
    return code, out.getvalue(), err.getvalue()


def write_capture(path, features, labels, names):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + ",Label\n")
        for row, label in zip(features.tolist(), labels.tolist()):
            fh.write(",".join("%.6g" % v for v in row) + (",DDoS\n" if label else ",Benign\n"))


class TestBoundedMemory:
    """evaluate holds a label byte and a score per usable row, plus one chunk."""

    def test_evaluate_peak_is_the_report_plus_one_chunk(self, tmp_path):
        rs = np.random.RandomState(12)
        n, m = 24576, 12
        names = tuple(f"f{j}" for j in range(m))
        features = rs.randn(4 * n, m)
        labels = (features[:, 0] + 0.5 * rs.randn(4 * n) > 0).astype(int)
        fit_rows = preprocess.FlowDataset(features=features[:600], labels=labels[:600], feature_names=names)
        scaler = preprocess.fit_scaler(fit_rows.features)
        artifact = dataio.ModelArtifact(
            model=elm_mod.fit(preprocess.apply_scaler(scaler, fit_rows.features), fit_rows.labels,
                              elm_mod.ElmParams(8, Activation.TANH, seed=1)),
            selection=preprocess.select_features(fit_rows, 0.0), scaler=scaler, schema=dataio.CsvSchema(),
            feature_names=names, seed=1,
        )
        assert len(artifact.selection.kept_indices) == m
        model = tmp_path / "m.flowelm"
        dataio.save_model(artifact, model)
        for rows in (n, 4 * n):
            write_capture(tmp_path / f"{rows}.csv", features[:rows], labels[:rows], names)

        def peak(rows):
            capture = tmp_path / f"{rows}.csv"
            tracemalloc.start()  # numpy reports its array buffers to tracemalloc
            try:
                code, out, _ = run_in_process("evaluate", "--model", str(model), "--input", str(capture))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert f"n_samples={rows}\n" in out
            return peak

        peak(n)  # the first run's one-time allocations stay out of the measure
        # The report holds 18 bytes a row: a label byte and a score, the
        # threshold test's bool and the AUC's sorted scores. Measured 1.90 MB
        # at 4n rows; 3.45 MB while evaluate scored chunks of 8192 rows
        peak_4n = peak(4 * n)
        assert peak_4n < 4 * n * 18 + (512 << 10), f"peak {peak_4n} bytes"


class TestChunkSize:
    """evaluate reads, scores and counts a chunk of rows at a time; the chunk
    size changes no byte of its output."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("chunks")
        rs = np.random.RandomState(3)
        n = 300
        labels = (rs.rand(n) < 0.5).astype(int)
        # z follows the label with a spread near 0.001, so -1e308 in z overflows when scaled
        z = 0.001 * (labels + 0.5 * rs.randn(n))
        features = np.column_stack([rs.randn(n) + 2.0 * labels, rs.randn(n), z])
        names = ("a", "b", "z")
        write_capture(directory / "clean.csv", features, labels, names)
        model = directory / "m.flowelm"
        code, _, err = run_in_process("train", "--input", str(directory / "clean.csv"), "--model", str(model),
                                      "--hidden", "8", "--corr-threshold", "0")
        assert code == 0, err
        lines = (directory / "clean.csv").read_text().splitlines()
        # a missing cell, non-finite cells and a value that overflows when
        # scaled, spread over many chunks of 8 and several of 64
        faults = [(0, ""), (1, "inf"), (2, "-1e308"), (0, "nan"), (1, "x")] * 3
        for i, (column, value) in zip(range(7, n, 23), faults):  # 13 rows: 3 of them overflow
            cells = lines[i].split(",")
            cells[column] = value
            lines[i] = ",".join(cells)
        (directory / "dirty.csv").write_text("\n".join(lines) + "\n")
        records = lines[1:] * 30
        records[8500] = "1,2"  # line 8502: after the first chunk at every size tried
        (directory / "malformed.csv").write_text("\n".join(lines[:1] + records) + "\n")
        return directory, model

    def evaluate(self, monkeypatch, directory, model, csv, rows):
        report = directory / f"{csv}-{rows}.report"
        with monkeypatch.context() as patch:
            if rows is not None:
                patch.setattr(elm_mod, "_SCORE_ROWS", rows)
            code, out, err = run_in_process("evaluate", "--model", str(model), "--input", str(directory / csv),
                                            "--report", str(report))
        return code, out.replace(str(report), "REPORT"), err, report.read_bytes() if report.exists() else None

    def test_chunk_size_changes_no_byte(self, monkeypatch, files):
        directory, model = files
        # 72 rows: chunks that end inside a 64-line parse block
        runs = [self.evaluate(monkeypatch, directory, model, "dirty.csv", rows) for rows in (8, 64, 72, None)]
        code, out, err, report = runs[-1]
        assert code == 0, err
        assert "skipped 10 record(s) with missing values" in err
        assert "skipped 3 record(s) with a value that overflows when scaled" in err
        assert report is not None and "n_samples=287\n" in out
        assert runs[0] == runs[1] == runs[2] == runs[3]

    def test_malformed_line_after_the_first_chunk_exits_2(self, monkeypatch, files):
        directory, model = files
        path = directory / "malformed.csv"
        for rows in (8, 64, 72, None):
            code, out, err, report = self.evaluate(monkeypatch, directory, model, "malformed.csv", rows)
            assert (code, out, report) == (2, "", None)
            assert err == f"flowelm: load: {path}:8502: expected 4 cells, got 2\n"


class TestValueThatOverflowsWhenScaled:
    """A finite cell can overflow to inf when scaled; its row fails closed."""

    @pytest.fixture
    def files(self, cli, tmp_path):
        # z follows the label with a spread near 0.001, so 1e308 in z scales to inf
        rs = np.random.RandomState(1)
        labels = np.array([0] * 40 + [1] * 40)
        ds = preprocess.FlowDataset(
            features=np.column_stack([rs.randn(80) + 8.0 * labels, 0.001 * (labels + 0.5 * rs.randn(80))]),
            labels=labels,
            feature_names=("x", "z"),
            categories=tuple(["Benign"] * 40 + ["DoS-SYN Flood"] * 40),
        )
        clean = tmp_path / "narrow.csv"
        dataio.write_csv(ds, clean)
        model = tmp_path / "m.flowelm"
        result = cli("train", "--input", str(clean), "--model", str(model), "--hidden", "8")
        assert result.returncode == 0, result.stderr
        lines = clean.read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = "-1e308"
        lines[3] = ",".join(cells)
        dirty = tmp_path / "dirty.csv"
        dirty.write_text("\n".join(lines) + "\n")
        return model, dirty

    def test_evaluate_skips_and_counts_the_row(self, cli, files):
        model, dirty = files
        result = cli("evaluate", "--model", str(model), "--input", str(dirty))
        assert result.returncode == 0, result.stderr
        assert "skipped 1 record(s) with a value that overflows when scaled" in result.stderr
        assert "Warning" not in result.stderr
        values = dict(line.partition("=")[::2] for line in result.stdout.splitlines() if "=" in line)
        assert int(values["n_samples"]) == 79

    def test_score_answers_error_and_goes_on(self, cli, files):
        model, dirty = files
        result = cli("score", "--model", str(model), "--input", str(dirty))
        assert result.returncode == 0, result.stderr
        out = result.stdout.splitlines()
        assert len(out) == 80
        assert out[2] == "2,ERROR,numeric field overflows when scaled"
        assert sum(",ERROR," in line for line in out) == 1
        assert "1 malformed record(s)" in result.stderr
        assert "Warning" not in result.stderr

    def test_score_and_evaluate_raise_no_warning_in_process(self, files, tmp_path, capsys):
        """Under warnings.simplefilter("error"), in this process: values that
        overflow when scaled or squared (1.7e308 twice), and an inf and a -inf
        in one block. A lost np.errstate, or a sum of squares that reports
        the overflow, raises here."""
        model, dirty = files
        lines = dirty.read_text().splitlines()
        for row, (cell, value) in zip((5, 9, 12, 20), [(1, "1.7e308"), (1, "1.7e308"), (0, "inf"), (0, "-inf")]):
            cells = lines[row].split(",")
            cells[cell] = value
            lines[row] = ",".join(cells)
        dirtier = tmp_path / "dirtier.csv"
        dirtier.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_mod.main(["score", "--model", str(model), "--input", str(dirtier)]) == 0
            assert capsys.readouterr().out.count(",ERROR,") == 5
            assert cli_mod.main(["evaluate", "--model", str(model), "--input", str(dirtier)]) == 0
        assert "skipped 3 record(s) with a value that overflows when scaled" in capsys.readouterr().err


class TestValueNearTheFloatMaximum:
    """A scaled value large enough for the hidden layer to overflow fails
    closed, as one that overflows when scaled does."""

    def test_score_and_evaluate_leave_the_row_out(self, cli, tmp_path):
        data, model = tmp_path / "s40.csv", tmp_path / "m.flowelm"
        assert cli("synth", "--features", "40", "--seed", "7", "--out", str(data)).returncode == 0
        result = cli("train", "--input", str(data), "--model", str(model), "--seed", "3")
        assert result.returncode == 0, result.stderr
        assert {27, 31} <= set(dataio.load_model(model).selection.kept_indices)  # noise columns, std near 1
        lines = data.read_text().splitlines()[:8]
        for line_no, value in enumerate(["9e307", "1.7e308", "-1.7e308", "1e200", "1e160"], start=1):
            cells = lines[line_no].split(",")
            cells[27] = cells[31] = value
            lines[line_no] = ",".join(cells)
        near = tmp_path / "near.csv"
        near.write_text("\n".join(lines) + "\n")

        result = cli("score", "--model", str(model), "--input", str(near))
        assert result.returncode == 0, result.stderr
        out = result.stdout.splitlines()
        assert out[:5] == [f"{i},ERROR,numeric field overflows when scaled" for i in range(5)]
        assert all(",ERROR," not in line for line in out[5:]) and len(out) == 7
        assert result.stderr == "flowelm: score: 5 malformed record(s) skipped\n"
        result = cli("evaluate", "--model", str(model), "--input", str(near))
        assert result.returncode == 0, result.stderr
        assert result.stderr == "flowelm: evaluate: skipped 5 record(s) with a value that overflows when scaled\n"


    def test_train_stops_at_select_features_when_a_column_overflows(self, cli, tmp_path):
        # big's mean and spread overflow: 1e308 in benign rows, 1.7e308 in attack rows
        rs = np.random.RandomState(0)
        lines = ["a,b,big,Label"]
        for i in range(400):
            attack = i % 2
            lines.append(f"{rs.randn()!r},{rs.randn()!r},{'1.7e308' if attack else '1e308'},"
                         f"{'DDoS' if attack else 'Benign'}")
        data, model = tmp_path / "big.csv", tmp_path / "m.flowelm"
        data.write_text("\n".join(lines) + "\n")
        result = cli("train", "--input", str(data), "--model", str(model))
        assert result.returncode == 2
        assert result.stderr == ("flowelm: select-features: column 'big' overflows: its standard"
                                 " deviation or covariance with the label is not finite\n")
        assert not model.exists()

    def test_train_names_a_column_that_is_constant_on_the_training_rows(self, cli, tmp_path):
        # spike is 0 but in one attack row, which seed 6 deals to the held-out
        # side; selection on every row keeps it, and the scaler finds it constant
        rs = np.random.RandomState(0)
        lines = ["a,b,spike,Label"]
        for i in range(400):
            attack = i % 2
            lines.append(f"{rs.randn() + 2 * attack!r},{rs.randn()!r},{1 if i == 201 else 0},"
                         f"{'DDoS' if attack else 'Benign'}")
        data, model = tmp_path / "spike.csv", tmp_path / "m.flowelm"
        data.write_text("\n".join(lines) + "\n")
        result = cli("train", "--input", str(data), "--model", str(model), "--hidden", "8", "--seed", "6")
        assert result.returncode == 2
        assert result.stderr == ("flowelm: fit-scaler: column 'spike' has zero variance;"
                                 " drop constant columns before scaling\n")
        assert not model.exists()


class TestOneFailClosedPath:
    """evaluate and score leave out the same rows, for the same reasons, and
    score the rest from the same model input."""

    def test_skipped_rows_and_scores_agree(self, cli, tmp_path):
        rs = np.random.RandomState(2)
        lines = ["rate,proto,z,Label"]
        for i in range(120):
            attack = i % 2
            proto = rs.choice(["tcp", "udp"], p=[0.3, 0.7] if attack else [0.7, 0.3])
            rate, z = rs.normal(4 + 3 * attack, 1.5), 0.001 * (attack + 0.5 * rs.randn())
            lines.append(f"{rate!r},{proto},{z!r},{'DDoS' if attack else 'Benign'}")
        train = tmp_path / "train.csv"
        train.write_text("\n".join(lines) + "\n")
        model = tmp_path / "m.flowelm"
        result = cli("train", "--input", str(train), "--model", str(model), "--hidden", "16",
                     "--corr-threshold", "0")
        assert result.returncode == 0, result.stderr
        # (data row, cell, value): non-finite and missing, an unknown category,
        # and finite values that overflow when scaled (z's spread is near 0.001)
        spoils = [(3, 0, "nan"), (7, 0, "inf"), (11, 2, "-inf"), (16, 0, ""), (20, 1, "icmp"),
                  (24, 2, "-1e308"), (30, 2, "1e308")]
        capture_lines = lines[:60]
        for row, cell, value in spoils:
            cells = capture_lines[row + 1].split(",")
            cells[cell] = value
            capture_lines[row + 1] = ",".join(cells)
        capture = tmp_path / "capture.csv"
        capture.write_text("\n".join(capture_lines) + "\n")

        evaluation = cli("evaluate", "--model", str(model), "--input", str(capture))
        assert evaluation.returncode == 0, evaluation.stderr
        assert evaluation.stderr.splitlines() == [
            "flowelm: evaluate: skipped 5 record(s) with missing values or unknown category values",
            "flowelm: evaluate: skipped 2 record(s) with a value that overflows when scaled",
        ]
        stream = cli("score", "--model", str(model), "--input", str(capture))
        assert stream.returncode == 0, stream.stderr
        verdicts = [line.split(",", 2) for line in stream.stdout.splitlines()]
        assert [int(v[0]) for v in verdicts] == list(range(59))
        reasons = [v[2] for v in verdicts if v[1] == "ERROR"]
        assert reasons.count("unparseable or non-finite numeric field") + reasons.count("unknown category value") == 5
        assert reasons.count("numeric field overflows when scaled") == 2
        assert len(reasons) == 7

        artifact = dataio.load_model(model)
        data = dataio.load_csv(capture, artifact.schema, artifact.layout)
        x, rows, _ = artifact.transform(data.features)
        assert [int(v[0]) for v in verdicts if v[1] == "ERROR"] == sorted(set(range(59)) - set(rows.tolist()))
        assert sorted(row for row, _, _ in spoils) == sorted(set(range(59)) - set(rows.tolist()))
        scores = [v[1] for v in verdicts if v[1] != "ERROR"]
        assert scores == [dataio.format_float(s) for s in elm_mod.score(artifact.model, x)]


class TestVerdictKernel:
    """score's verdict lines and evaluate's kept labels and scores carry the
    bits of the separate steps: the per-row finite mask, apply_scaler, the
    overflow screen, then elm.score on the rows they keep."""

    ARTIFACTS = {}

    @classmethod
    def artifact(cls, activation):
        """Four columns, the second dropped; the first column's spread of
        0.001 makes 1e308 overflow when scaled, 1e160 to 3e150 fail the
        screen, and 1e150 and below pass it; 5e149 and -9e149 are under the
        bound (9.7e149) below which a block needs no mask and no screen."""
        if activation not in cls.ARTIFACTS:
            rs = np.random.RandomState(4)
            x = rs.randn(80, 3)
            params = ElmParams(hidden_nodes=12, activation=activation, seed=5, rbf_gamma=0.5)
            cls.ARTIFACTS[activation] = dataio.ModelArtifact(
                model=elm_mod.fit(x, (x[:, 0] + x[:, 2] > 0).astype(int), params),
                selection=FeatureSelection(kept_indices=(0, 2, 3), correlations=np.array([0.5, 0.0, 0.3, 0.2])),
                scaler=ScalerState(means=np.array([0.2, -1.0, 3.0]), stds=np.array([0.001, 2.0, 0.5])),
                schema=dataio.CsvSchema(), feature_names=("a", "b", "c", "d"), seed=5,
            )
        return cls.ARTIFACTS[activation]

    @settings(max_examples=150, deadline=None)
    @given(activation=st.sampled_from(list(Activation)), n_rows=st.integers(1, 2100),
           seed=st.integers(0, 2**32 - 1), odd_share=st.sampled_from([0.0, 0.001, 0.02, 0.3]),
           threshold=st.floats(-0.5, 1.5), chunk_rows=st.sampled_from([1, 7, 64, elm_mod._SCORE_ROWS]))
    def test_verdicts_and_evaluate_equal_the_separate_steps(self, activation, n_rows, seed, odd_share,
                                                             threshold, chunk_rows):
        artifact = self.artifact(activation)
        rs = np.random.RandomState(seed)
        features = rs.randn(n_rows, 4) * 3.0
        odd = rs.random_sample(features.shape) < odd_share
        features[odd] = rs.choice([np.nan, np.inf, -np.inf, 1e308, -1e308, 1e160, 1e153, 3e150, 1e150, 5e149,
                                   -9e149], odd.sum())
        labels = rs.randint(0, 2, n_rows).astype(np.uint8)

        finite = np.isfinite(features).all(axis=1)
        with np.errstate(over="ignore"):
            x = preprocess.apply_scaler(artifact.scaler,
                                        features[finite][:, list(artifact.selection.kept_indices)])
        in_range = (np.abs(x) <= artifact._limit).all(axis=1)
        scores = elm_mod.score(artifact.model, x[in_range])
        kept = np.flatnonzero(finite)[in_range]

        # the stream: decoded rows among records that failed before decoding
        records = [None] * n_rows
        for i in sorted(rs.choice(n_rows + 1, int(odd_share * n_rows), replace=True), reverse=True):
            records.insert(int(i), "expected 5 fields, got 4")
        outcomes = iter(["unparseable or non-finite numeric field" if not ok else None for ok in finite])
        in_screen, row_scores = iter(in_range.tolist()), iter(scores.tolist())
        expected = []
        for ordinal, record in enumerate(records, 3):
            reason = record or next(outcomes)
            if reason is None:
                reason = None if next(in_screen) else "numeric field overflows when scaled"
            if reason is None:
                score = next(row_scores)
                expected.append(f"{ordinal},{dataio.format_float(score)},{1 if score >= threshold else 0}\n")
            else:
                expected.append(f"{ordinal},ERROR,{reason}\n")
        flat = array.array("d", features.tobytes())
        assert cli_mod._verdict_lines(artifact, 3, records, flat, threshold) == (
            "".join(expected), len(records) - len(scores))

        kept_rows = {}

        def report(kept_labels, kept_scores, _threshold):
            kept_rows.update(labels=kept_labels.tobytes(), scores=kept_scores.tobytes())

        chunks = ((features[i : i + chunk_rows], labels[i : i + chunk_rows]) for i in range(0, n_rows, chunk_rows))
        with mock.patch.object(metrics, "evaluate_scores", report), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli_mod._evaluate(artifact, chunks, threshold)
            except SystemExit as exc:  # no row left to report on
                assert (exc.code, len(kept)) == (cli_mod.EXIT_DATA, 0)
        if len(kept):
            assert kept_rows == {"labels": labels[kept].tobytes(), "scores": scores.tobytes()}


class TestCategoricalModel:
    """A model trained with a categorical column scores raw records."""

    @pytest.fixture
    def proto_csv(self, tmp_path):
        rs = np.random.RandomState(3)
        lines = ["rate,proto,size,Label"]
        for i in range(300):
            attack = i % 2
            proto = rs.choice(["tcp", "udp"], p=[0.2, 0.8] if attack else [0.8, 0.2])
            rate, size = rs.normal(4 + 3 * attack, 1.5), rs.normal(500 - 80 * attack, 90)
            lines.append(f"{rate:.4g},{proto},{size:.5g},{'DDoS' if attack else 'Benign'}")
        path = tmp_path / "proto.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.fixture
    def model(self, cli, proto_csv, tmp_path):
        model = tmp_path / "proto.flowelm"
        result = cli("train", "--input", str(proto_csv), "--model", str(model), "--hidden", "16")
        assert result.returncode == 0, result.stderr
        assert "feature=proto=tcp\nfeature=proto=udp\n" in model.read_text()
        return model

    def test_score_labels_equal_evaluate_labels(self, cli, model, proto_csv):
        stream = cli("score", "--model", str(model), "--input", str(proto_csv))
        assert stream.returncode == 0, stream.stderr
        labels = np.array([int(line.split(",")[2]) for line in stream.stdout.splitlines()])

        artifact = dataio.load_model(model)
        data = dataio.load_csv(proto_csv, artifact.schema, artifact.layout)
        x, rows, _ = artifact.transform(data.features)
        assert len(rows) == data.n_samples
        assert np.array_equal(labels, elm_mod.predict(artifact.model, x))
        evaluation = cli("evaluate", "--model", str(model), "--input", str(proto_csv))
        assert evaluation.returncode == 0, evaluation.stderr
        counts = dict(line.split("=") for line in evaluation.stdout.splitlines() if line[:3] in ("tp=", "fp="))
        assert int(counts["tp"]) == int(((labels == 1) & (data.labels == 1)).sum())
        assert int(counts["fp"]) == int(((labels == 1) & (data.labels == 0)).sum())

    def test_raw_records_and_raw_header(self, cli, model):
        text = "rate,proto,size\n4.1,tcp,500\n 9.5 , udp ,380\n4.1,1,0,500\n"
        result = cli("score", "--model", str(model), stdin_text=text)
        out = [line.split(",") for line in result.stdout.splitlines()]
        assert [o[0] for o in out] == ["0", "1", "2"]
        assert out[0][1] != "ERROR" and out[1][1] != "ERROR"
        assert out[2][1:] == ["ERROR", "expected 3 fields", " got 4"]  # one-hot cells are not a record

    def test_evaluate_on_one_category_exits_0(self, cli, model, proto_csv, tmp_path):
        lines = proto_csv.read_text().splitlines()
        tcp_only = tmp_path / "tcp.csv"
        tcp_only.write_text("\n".join([lines[0]] + [l for l in lines[1:] if ",tcp," in l]) + "\n")
        result = cli("evaluate", "--model", str(model), "--input", str(tcp_only))
        assert result.returncode == 0, result.stderr
        assert "skipped" not in result.stderr

    @pytest.mark.parametrize("value", ["icmp", "", "TCP"])
    def test_unknown_category_fails_closed(self, cli, model, proto_csv, tmp_path, value):
        result = cli("score", "--model", str(model), stdin_text=f"4.1,tcp,500\n4.1,{value},500\n")
        assert result.stdout.splitlines()[1] == "1,ERROR,unknown category value"
        lines = proto_csv.read_text().splitlines()
        lines[5] = f"4.1,{value},500,Benign"
        dirty = tmp_path / "unseen.csv"
        dirty.write_text("\n".join(lines) + "\n")
        result = cli("evaluate", "--model", str(model), "--input", str(dirty))
        assert result.returncode == 0, result.stderr
        assert "skipped 1 record(s)" in result.stderr

    def test_category_values_holding_unicode_line_breaks(self, cli, proto_csv, tmp_path):
        # str.splitlines() breaks at U+0085, U+2028 and \x1c; the artifact has only "\n" breaks
        text = proto_csv.read_text().replace(",udp,", ",u\x85dp,").replace(",tcp,", ",t\u2028c\x1cp,")
        path = tmp_path / "odd.csv"
        path.write_text(text, encoding="utf-8")
        model = tmp_path / "odd.flowelm"
        result = cli("train", "--input", str(path), "--model", str(model), "--hidden", "16")
        assert result.returncode == 0, result.stderr
        artifact = dataio.load_model(model)
        assert artifact.layout.vocabularies[1] == ("t\u2028c\x1cp", "u\x85dp")

        evaluation = cli("evaluate", "--model", str(model), "--input", str(path))
        assert evaluation.returncode == 0, evaluation.stderr
        stream = cli("score", "--model", str(model), "--input", str(path))
        assert stream.returncode == 0, stream.stderr
        labels = np.array([int(line.split(",")[2]) for line in stream.stdout.splitlines()])
        data = dataio.load_csv(path, artifact.schema, artifact.layout)
        assert len(labels) == data.n_samples == 300
        tp = next(int(line[3:]) for line in evaluation.stdout.splitlines() if line.startswith("tp="))
        assert tp == int(((labels == 1) & (data.labels == 1)).sum())

    @pytest.mark.parametrize("where", ["value", "column"])
    def test_quoted_line_break_rejected(self, cli, proto_csv, tmp_path, where):
        # the artifact stores one name per line, so this model could not be loaded
        text = proto_csv.read_text()
        if where == "value":
            text = text.replace(",udp,", ',"u\ndp",')
        else:
            text = text.replace("rate,proto,", '"ra\nte",proto,', 1)
        path = tmp_path / "nl.csv"
        path.write_text(text)
        model = tmp_path / "nl.flowelm"
        result = cli("train", "--input", str(path), "--model", str(model), "--hidden", "16")
        assert result.returncode == 2
        assert "line break" in result.stderr
        assert not model.exists()

    def test_line_break_in_label_column_rejected(self, cli, proto_csv, tmp_path):
        # save_model writes each schema value on one line
        text = proto_csv.read_text().replace(",Label\n", ',"Lab\nel"\n', 1)
        path = tmp_path / "nl.csv"
        path.write_text(text)
        model = tmp_path / "nl.flowelm"
        result = cli("train", "--input", str(path), "--model", str(model), "--label-column", "Lab\nel")
        assert result.returncode == 2
        assert "flowelm: schema: line breaks are not allowed" in result.stderr
        assert "Traceback" not in result.stderr
        assert not model.exists()

    @pytest.mark.parametrize("field", ["label_column", "benign_value", "exclude_columns"])
    def test_schema_rejects_a_line_break(self, field):
        from flowelm.errors import SchemaError

        value = ("ok", "b\nad") if field == "exclude_columns" else "b\nad"
        with pytest.raises(SchemaError, match="line breaks"):
            dataio.CsvSchema(**{field: value})

    def test_equals_sign_in_column_name_rejected(self, cli, tmp_path):
        path = tmp_path / "eq.csv"
        path.write_text("a=b,c,Label\n1,2,Benign\n2,1,DDoS\n3,1,DDoS\n1,3,Benign\n")
        result = cli("train", "--input", str(path), "--model", str(tmp_path / "m"))
        assert result.returncode == 2
        assert "'a=b'" in result.stderr


class TestSynth:
    def test_same_seed_byte_identical(self, cli, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            result = cli("synth", "--out", str(p), "--benign", "50", "--attack", "50", "--seed", "7")
            assert result.returncode == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_synth_then_train_pipeline(self, cli, tmp_path):
        csv_path = tmp_path / "flows.csv"
        assert cli("synth", "--out", str(csv_path), "--benign", "200", "--attack", "200").returncode == 0
        result = cli("train", "--input", str(csv_path), "--model", str(tmp_path / "m"))
        assert result.returncode == 0, result.stderr

    def test_single_class_output_rejected_at_split(self, cli, tmp_path):
        csv_path = tmp_path / "attacks.csv"
        assert cli(
            "synth", "--out", str(csv_path), "--benign", "0", "--attack", "10"
        ).returncode == 0
        result = cli("train", "--input", str(csv_path), "--model", str(tmp_path / "m"))
        assert result.returncode == 2
        assert "split" in result.stderr

    def test_invalid_mix_exits_1(self, cli, tmp_path):
        result = cli(
            "synth", "--out", str(tmp_path / "x.csv"), "--mix", "Recon=0.4,DoS=0.4"
        )
        assert result.returncode == 1
        for mix in ("DDoS=nan", "DDoS=nan,DoS=1"):  # a NaN weight passes the sum check
            result = cli("synth", "--out", str(tmp_path / "x.csv"), "--mix", mix)
            assert result.returncode == 1
            assert result.stderr.startswith("flowelm: synth: invalid attack mix: ")
            assert not (tmp_path / "x.csv").exists()

    def test_mix_all_recon(self, cli, tmp_path):
        path = tmp_path / "recon.csv"
        result = cli(
            "synth", "--out", str(path), "--benign", "5", "--attack", "5", "--mix", "Recon=1.0"
        )
        assert result.returncode == 0
        labels = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]
        assert set(labels) == {"Benign", "Recon"}


def _marker_rows(tmp_path, monkeypatch, features, labels, *flags):
    """Train on columns (sig, marker), where marker holds row ids; return
    the ids feature selection saw and the ids of the training rows."""
    path = tmp_path / "marked.csv"
    data = preprocess.FlowDataset(features=features, labels=labels, feature_names=("sig", "marker"))
    dataio.write_csv(data, path)
    seen = {}
    real_select, real_fit_scaler = preprocess.select_features, preprocess.fit_scaler

    def spy_select(ds, threshold):
        seen["selection_rows"] = set(ds.features[:, 1].astype(int))
        seen["selection"] = real_select(ds, threshold)
        return seen["selection"]

    def spy_fit_scaler(train_features, *names):
        marker_col = seen["selection"].kept_indices.index(1)
        seen["train_rows"] = set(train_features[:, marker_col].astype(int))
        return real_fit_scaler(train_features, *names)

    monkeypatch.setattr(cli_mod.preprocess, "select_features", spy_select)
    monkeypatch.setattr(cli_mod.preprocess, "fit_scaler", spy_fit_scaler)
    returncode = cli_mod.main([
        "train", "--input", str(path), "--model", str(tmp_path / "m"), "--hidden", "8",
        "--corr-threshold", "0", "--train-fraction", "0.8", *flags,
    ])
    assert returncode == 0
    return seen["selection_rows"], seen["train_rows"]


class TestLeakFreePipeline:
    def test_leak_free_selection_sees_only_training_rows(self, tmp_path, monkeypatch):
        """With the leak-free flag, feature selection never reads test rows;
        the marker column identifies which rows it saw."""
        rs = np.random.RandomState(0)
        n = 60
        features = np.column_stack(
            [rs.randn(n), np.arange(n, dtype=float)]  # second column marks row ids
        )
        labels = np.array([0, 1] * (n // 2))
        features[:, 0] += labels * 4.0

        selection_rows, train_rows = _marker_rows(
            tmp_path, monkeypatch, features, labels, "--seed", "12", "--leak-free"
        )
        assert selection_rows == train_rows
        assert len(train_rows) < n

    def test_default_mode_selection_sees_all_rows(self, tmp_path, monkeypatch):
        rs = np.random.RandomState(1)
        n = 40
        features = np.column_stack([rs.randn(n), np.arange(n, dtype=float)])
        labels = np.array([0, 1] * (n // 2))
        features[:, 0] += labels * 4.0
        selection_rows, _ = _marker_rows(tmp_path, monkeypatch, features, labels, "--seed", "3")
        assert selection_rows == set(range(n))


class TestTrainingRowsScaledInPlace:
    @pytest.mark.parametrize("command, flags", [
        ("train", ["--hidden", "8"]),
        ("grid", ["--hidden", "8", "--activation", "tanh", "--folds", "2"]),
    ])
    def test_model_is_fitted_on_the_array_the_scaler_measured(self, small_synth_csv, tmp_path, monkeypatch,
                                                               command, flags):
        """The training rows are scaled in place, with apply_scaler's bits:
        the model is fitted on the very array fit_scaler measured, so no
        second copy of them is made."""
        calls = []  # ("fit_scaler", its input, a copy of it) or ("fit", its input)
        real_fit_scaler, real_fit = preprocess.fit_scaler, elm_mod.fit

        def spy_fit_scaler(train_features, *names):
            calls.append(("fit_scaler", train_features, np.array(train_features)))
            return real_fit_scaler(train_features, *names)

        def spy_fit(x, y, params):
            calls.append(("fit", x))
            return real_fit(x, y, params)

        monkeypatch.setattr(cli_mod.preprocess, "fit_scaler", spy_fit_scaler)
        monkeypatch.setattr(cli_mod.elm_mod, "fit", spy_fit)
        returncode = cli_mod.main(
            [command, "--input", str(small_synth_csv), "--model", str(tmp_path / "m"), *flags]
        )
        assert returncode == 0
        # whatever a grid's folds do, the pipeline's own two calls come last:
        # it measures the training rows, then fits the model once
        (first, measured, unscaled), (second, fitted) = calls[-2][:3], calls[-1]
        assert (first, second) == ("fit_scaler", "fit")
        assert fitted is measured
        expected = preprocess.apply_scaler(real_fit_scaler(unscaled), unscaled)
        assert fitted.tobytes() == expected.tobytes()


class TestDependencies:
    def test_numpy_is_the_only_third_party_import(self):
        """The CLI loads no third-party module but numpy and what numpy
        loads, though scipy may be installed beside it."""
        code = (
            "import sys\n"
            "import numpy\n"
            "before = {name.partition('.')[0] for name in sys.modules}\n"
            "import flowelm.cli\n"
            "after = {name.partition('.')[0] for name in sys.modules}\n"
            "print(sorted(after - before - set(sys.stdlib_module_names)))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout == "['flowelm']\n"

    def test_the_package_loads_no_submodule_and_no_numpy(self):
        """`import flowelm` loads its `__version__` and nothing else: callers
        import the submodules they use."""
        code = (
            "import sys\n"
            "import flowelm\n"
            "print(sorted(name for name in sys.modules if name == 'numpy' or name.startswith(('numpy.', 'flowelm.'))))\n"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_no_command_loads_openssl_or_a_thread_pool(self, small_synth_csv, tmp_path):
        """No command loads OpenSSL's _hashlib: train's and grid's
        fingerprint hashes with the interpreter's built-in SHA-256. Nor does
        any load concurrent.futures, which only a parallel grid search's
        workers need, and the CLI never asks for them."""
        code = (
            "import sys\n"
            "from flowelm import cli\n"
            "cli.main(sys.argv[1:])\n"
            "print(sorted({'_hashlib', 'concurrent.futures'} & set(sys.modules)))\n"
        )

        def loaded(*args):
            result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                                    env=cli_env())
            return result.stdout.splitlines()[-1]

        model, header = tmp_path / "m.flowelm", tmp_path / "header.csv"
        header.write_text(small_synth_csv.read_text().partition("\n")[0] + "\n")
        assert loaded("train", "--input", str(small_synth_csv), "--model", str(model), "--hidden", "8") == "[]"
        fingerprint = dataio.load_model(model).fingerprint
        assert len(fingerprint) == 64 and set(fingerprint) <= set("0123456789abcdef")
        grid = ("grid", "--input", str(small_synth_csv), "--model", str(tmp_path / "g.flowelm"), "--hidden", "8",
                "--activation", "tanh", "--folds", "2")
        assert loaded(*grid) == "[]"
        assert loaded("evaluate", "--model", str(model), "--input", str(header)) == "[]"
        assert loaded("score", "--model", str(model), "--input", str(header)) == "[]"


class TestConfigFile:
    def test_config_sets_defaults_flags_override(self, cli, small_synth_csv, tmp_path):
        config = tmp_path / "defaults.cfg"
        config.write_text("seed=9\nhidden=16\n")
        m1 = tmp_path / "m1"
        m2 = tmp_path / "m2"
        r1 = cli(
            "train", "--config", str(config), "--input", str(small_synth_csv),
            "--model", str(m1),
        )
        assert r1.returncode == 0, r1.stderr
        assert "elm.hidden_nodes=16" in m1.read_text()
        assert "elm.seed=9" in m1.read_text()
        r2 = cli(
            "train", "--config", str(config), "--input", str(small_synth_csv),
            "--model", str(m2), "--hidden", "8",
        )
        assert r2.returncode == 0, r2.stderr
        assert "elm.hidden_nodes=8" in m2.read_text()


    def test_bad_activation_in_config_file_exits_1(self, cli, small_synth_csv, tmp_path):
        config = tmp_path / "defaults.cfg"
        config.write_text("activation=bogus\n")
        model = tmp_path / "m.flowelm"
        result = cli("train", "--config", str(config), "--input", str(small_synth_csv), "--model", str(model))
        assert result.returncode == 1
        assert "bad config value for activation: 'bogus'" in result.stderr
        assert "Traceback" not in result.stderr and not model.exists()

    def test_mistyped_switch_in_config_file_exits_1(self, cli, small_synth_csv, tmp_path):
        config = tmp_path / "defaults.cfg"
        config.write_text("leak_free=ture\n")
        model = tmp_path / "m.flowelm"
        result = cli("train", "--config", str(config), "--input", str(small_synth_csv), "--model", str(model))
        assert result.returncode == 1
        assert "bad config value for leak_free: 'ture'" in result.stderr
        assert "Traceback" not in result.stderr and not model.exists()

    @pytest.mark.parametrize("text, on", [
        ("1", True), ("true", True), ("Yes", True), ("ON", True),
        ("0", False), ("FALSE", False), ("no", False), ("Off", False),
    ])
    def test_switch_values_in_config_file(self, tmp_path, text, on):
        config = tmp_path / "defaults.cfg"
        config.write_text(f"leak-free={text}\n")
        parser = cli_mod.build_parser()
        argv = ["train", "--config", str(config), "--input", "x", "--model", "m"]
        cli_mod._apply_config_file(parser, parser.commands["train"], str(config))
        assert parser.parse_args(argv).leak_free is on

    def test_value_outside_choices_in_config_file_exits_1(self, cli, small_synth_csv, tmp_path):
        config = tmp_path / "defaults.cfg"
        config.write_text("metric=recall\n")
        model = tmp_path / "m.flowelm"
        result = cli("grid", "--config", str(config), "--input", str(small_synth_csv), "--model", str(model))
        assert result.returncode == 1
        assert "bad config value for metric: 'recall'" in result.stderr
        assert "Traceback" not in result.stderr and not model.exists()

    def test_values_are_read_for_the_command_being_run(self, cli, small_synth_csv, tmp_path):
        # train's --hidden takes one integer; grid's takes a list
        config = tmp_path / "defaults.cfg"
        config.write_text("hidden=8,16\nactivation=tanh,rbf\nfolds=3\n")
        model = tmp_path / "m.flowelm"
        result = cli("grid", "--config", str(config), "--input", str(small_synth_csv), "--model", str(model))
        assert result.returncode == 0, result.stderr
        board = [line.split()[:2] for line in result.stdout.splitlines() if line.startswith("  hidden=")]
        assert sorted(board) == [["hidden=16", "activation=rbf"], ["hidden=16", "activation=tanh"],
                                 ["hidden=8", "activation=rbf"], ["hidden=8", "activation=tanh"]]
        assert "(f1, 3-fold CV" in result.stdout

    def test_keys_without_a_flag_in_the_command_are_ignored(self, cli, small_synth_csv, tmp_path):
        model = tmp_path / "m.flowelm"
        assert cli("train", "--input", str(small_synth_csv), "--model", str(model), "--hidden", "8").returncode == 0
        config = tmp_path / "defaults.cfg"
        config.write_text("hidden=8,16\nmetric=recall\nfolds=1\nno_such_key=1\nthreshold=0.25\n")
        with_config = cli("score", "--config", str(config), "--model", str(model), "--input", str(small_synth_csv))
        flagged = cli("score", "--model", str(model), "--input", str(small_synth_csv), "--threshold", "0.25")
        assert with_config.returncode == 0, with_config.stderr
        assert with_config.stdout == flagged.stdout and with_config.stdout


class TestFlagValues:
    """Each numeric flag is checked where argparse parses it, so a bad value
    is a usage error (exit 1) as a flag and as a config file value."""

    @pytest.fixture
    def trained(self, cli, small_synth_csv, tmp_path):
        model = tmp_path / "m.flowelm"
        result = cli("train", "--input", str(small_synth_csv), "--model", str(model), "--seed", "1")
        assert result.returncode == 0, result.stderr
        return model

    @pytest.mark.parametrize("command", ["score", "evaluate"])
    def test_nan_threshold_flag_exits_1(self, cli, trained, small_synth_csv, command):
        result = cli(command, "--model", str(trained), "--input", str(small_synth_csv), "--threshold", "nan")
        assert result.returncode == 1
        assert "argument --threshold: invalid float (finite) value: 'nan'" in result.stderr
        assert result.stdout == ""

    def test_nan_threshold_in_config_file_exits_1(self, cli, trained, small_synth_csv, tmp_path):
        config = tmp_path / "defaults.cfg"
        config.write_text("threshold=nan\n")
        result = cli("score", "--config", str(config), "--model", str(trained), "--input", str(small_synth_csv))
        assert result.returncode == 1
        assert "bad config value for threshold: 'nan'" in result.stderr
        assert result.stdout == ""

    def test_nan_rbf_gamma_exits_1(self, cli, small_synth_csv, tmp_path):
        model = tmp_path / "m.flowelm"
        result = cli("train", "--input", str(small_synth_csv), "--model", str(model),
                     "--activation", "rbf", "--rbf-gamma", "nan")
        assert result.returncode == 1
        assert "argument --rbf-gamma" in result.stderr and "Traceback" not in result.stderr
        assert not model.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("train", "--threshold", "inf"),
            ("train", "--hidden", "0"),
            ("train", "--train-fraction", "nan"),
            ("train", "--train-fraction", "1"),
            ("train", "--corr-threshold", "nan"),
            ("train", "--corr-threshold", "-0.1"),
            ("train", "--rbf-gamma", "0"),
            ("grid", "--hidden", "8,0"),
            ("grid", "--hidden", ","),
            ("grid", "--rbf-gamma", "1,nan"),
            ("grid", "--folds", "1"),
            ("grid", "--threshold", "1e999"),
            ("train", "--activation", "bogus"),
            ("grid", "--activation", "tanh,bogus"),
        ],
    )
    def test_each_rule_is_checked_at_parse_time(self, capsys, argv):
        from flowelm import cli as cli_mod

        command, *flags = argv
        with pytest.raises(SystemExit) as info:
            cli_mod.main([command, "--input", "never-read.csv", "--model", "never-written", *flags])
        assert info.value.code == 1
        assert f"argument {flags[0]}: invalid" in capsys.readouterr().err

    def test_comma_lists_parse_to_tuples(self):
        from flowelm.cli import build_parser

        args = build_parser().parse_args(
            ["grid", "--input", "x", "--model", "m", "--hidden", "8, 16", "--rbf-gamma", "0.5,2"]
        )
        assert args.hidden == (8, 16) and args.rbf_gamma == (0.5, 2.0)
        assert args.activation == ("tanh", "sigmoid", "rbf")

    @pytest.mark.parametrize("key, message", [
        ("label-column", "label column name must be non-empty"),
        ("benign-value", "benign label value must be non-empty"),
        ("delimiter", "delimiter must be a single printable character"),
    ])
    @pytest.mark.parametrize("given_as", ["flag", "config"])
    def test_empty_schema_value_exits_2(self, cli, small_synth_csv, tmp_path, key, message, given_as):
        model = tmp_path / "m.flowelm"
        argv = ["train", "--input", str(small_synth_csv), "--model", str(model)]
        if given_as == "flag":
            argv += [f"--{key}", ""]
        else:
            config = tmp_path / "defaults.cfg"
            config.write_text(f"{key}=\n")
            argv += ["--config", str(config)]
        result = cli(*argv)
        assert result.returncode == 2
        assert result.stderr == f"flowelm: schema: {message}\n"
        assert result.stdout == "" and not model.exists()

    def test_negative_matrix_dimension_exits_2_without_traceback(self, cli, trained, small_synth_csv):
        text = trained.read_text()
        start = text.index("matrix.biases=") + len("matrix.biases=")
        trained.write_text(text[:start] + "-1" + text[text.index(" ", start):])
        result = cli("score", "--model", str(trained), "--input", str(small_synth_csv))
        assert result.returncode == 2
        assert "flowelm: load-model: " in result.stderr and "Traceback" not in result.stderr
        assert "matrix.biases does not hold -1 rows" in result.stderr


class TestExitCodeMapping:
    def test_stage_maps_error_families_to_codes(self):
        from flowelm.cli import _StageFailure, _stage
        from flowelm.errors import DataError, NumericError, ShapeError

        def raiser(exc):
            def fn():
                raise exc

            return fn

        cases = [
            (NumericError("no convergence"), 3),
            (DataError("bad rows"), 2),
            (ShapeError("bad shape"), 2),
            (FileNotFoundError(2, "missing", "x.csv"), 2),
            (IsADirectoryError(21, "is a directory", "flows"), 2),
        ]
        for exc, expected in cases:
            with pytest.raises(_StageFailure) as info:
                _stage("unit", raiser(exc))
            assert info.value.code == expected


    @pytest.mark.parametrize("command", ["evaluate", "score"])
    def test_directory_input_exits_2(self, cli, small_synth_csv, tmp_path, command):
        model = tmp_path / "m.flowelm"
        assert cli("train", "--input", str(small_synth_csv), "--model", str(model)).returncode == 0
        result = cli(command, "--model", str(model), "--input", str(tmp_path))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("config", ["directory", "not-utf8"])
    def test_unreadable_config_is_usage_error(self, cli, small_synth_csv, tmp_path, config):
        path = tmp_path / "defaults.cfg"
        if config == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"seed=\xff\n")
        result = cli("train", "--config", str(path), "--input", str(small_synth_csv), "--model", "m")
        assert result.returncode == 1
        assert "cannot read config file" in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_non_utf8_csv_exits_2_naming_file_and_line(self, cli, small_synth_csv, tmp_path, command):
        model = tmp_path / "m.flowelm"
        assert cli("train", "--input", str(small_synth_csv), "--model", str(model)).returncode == 0
        lines = small_synth_csv.read_bytes().splitlines()
        lines[3] = lines[3].replace(b"Benign", b"B\xe9nign")
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(b"\n".join(lines) + b"\n")
        result = cli(command, "--input", str(latin1), "--model", str(model))
        assert result.returncode == 2
        assert "latin1.csv:4:" in result.stderr and "Traceback" not in result.stderr


    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_empty_label_names_file_and_line(self, cli, small_synth_csv, tmp_path, command):
        model = tmp_path / "m.flowelm"
        assert cli("train", "--input", str(small_synth_csv), "--model", str(model)).returncode == 0
        lines = small_synth_csv.read_text().splitlines()
        lines.insert(2, "")  # a blank line still counts: line 6 is the fifth data row
        cells = lines[5].split(",")
        cells[-1] = " "
        lines[5] = ",".join(cells)
        blank = tmp_path / "blank.csv"
        blank.write_text("\n".join(lines) + "\n")
        result = cli(command, "--input", str(blank), "--model", str(model))
        assert result.returncode == 2
        assert result.stderr == f"flowelm: load: {blank}:6: empty traffic category\n"

    def test_label_column_named_twice_exits_2(self, cli, small_synth_csv, tmp_path):
        lines = small_synth_csv.read_text().splitlines()
        twice = tmp_path / "twice.csv"
        twice.write_text("".join(f"{line},{line.rsplit(',', 1)[1]}\n" for line in lines))
        result = cli("train", "--input", str(twice), "--model", str(tmp_path / "m.flowelm"))
        assert result.returncode == 2
        assert result.stderr.startswith(f"flowelm: load: {twice}: the 'Label' column is named more than once;")


class TestReportFormat:
    def test_format_report_layout(self):
        report = EvalReport(
            confusion=ConfusionMatrix(tp=3, fp=1, tn=4, fn=2),
            accuracy=0.7,
            precision=0.75,
            recall=0.6,
            f1=2 * 0.75 * 0.6 / 1.35,
            auc_roc=0.8,
            threshold=0.5,
            n_samples=10,
            neg_precision=4 / 6,
            neg_recall=0.8,
            degenerate=False,
        )
        text = format_report(report)
        lines = text.splitlines()
        assert lines[0] == "flowelm-report v1"
        block = lines[lines.index("confusion:") + 1 :]
        assert block[0] == "3 2"  # actual attack: tp fn
        assert block[1] == "1 4"  # actual benign: fp tn
        assert lines[-1] == "end"
