import contextlib
import hashlib
import io
import math
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowelm import cli, dataio, elm
from flowelm.dataio import CsvSchema, ModelArtifact, RecordLayout, SyntheticSpec
from flowelm.elm import Activation, ElmParams
from flowelm.errors import (
    DataError,
    IntegrityError,
    ParseError,
    SchemaError,
    UnsupportedVersionError,
)
from flowelm.preprocess import FeatureSelection, FlowDataset, ScalerState
from flowelm.rng import Rng


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# cells float() parses in ways worth pinning: NaN markers, an infinity,
# text it rejects (hex, empty) and text it accepts (spaces, an underscore)
ODD_CELLS = ["", "nan", "-inf", "0x1f", " 2 ", "1_0"]


def decode_reference(cells):
    """The per-cell rule: float() of the cell, or NaN where it raises."""
    row = []
    for cell in cells:
        try:
            row.append(float(cell))
        except ValueError:
            row.append(math.nan)
    return row


class TestDecode:
    @pytest.mark.parametrize("cell", ODD_CELLS)
    def test_numeric_row_equals_the_per_cell_reference(self, cell):
        layout = RecordLayout(("a", "b", "c"), (None, None, None))
        cells = ["1.5", cell, "-0.0"]
        assert list(map(repr, layout.decode(cells))) == list(map(repr, decode_reference(cells)))

    def test_every_odd_cell_in_one_row(self):
        layout = RecordLayout(tuple("abcdef"), (None,) * 6)
        assert list(map(repr, layout.decode(ODD_CELLS))) == list(map(repr, decode_reference(ODD_CELLS)))

    def test_load_csv_keeps_its_shape(self, tmp_path):
        rows = [["1", cell, "3"] for cell in ODD_CELLS] + [["4", "5", "6"]]
        text = "a,b,c,Label\n" + "".join(",".join(r) + ",Benign\n" for r in rows)
        ds = dataio.load_csv(write(tmp_path, text))
        assert ds.features.shape == (len(rows), 3)
        expected = np.array([decode_reference(r) for r in rows])
        assert ds.features.tobytes() == expected.tobytes()


class TestLoadCsv:
    def test_three_row_labeled_example(self, tmp_path):
        path = write(
            tmp_path,
            "f1,f2,Label\n1,2,Benign\n3,4,DDoS-SYN Flood\n5,6,Benign\n",
        )
        ds = dataio.load_csv(path)
        assert list(ds.labels) == [0, 1, 0]
        assert ds.feature_names == ("f1", "f2")
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_unparseable_cell_becomes_missing(self, tmp_path):
        path = write(tmp_path, "f1,f2,Label\nabc,2,Benign\n3,4,DoS-TCP Flood\n")
        ds = dataio.load_csv(path)
        assert np.isnan(ds.features[0, 0])
        assert ds.features[1, 0] == 3.0

    def test_empty_cell_becomes_missing(self, tmp_path):
        path = write(tmp_path, "f1,f2,Label\n,2,Benign\n3,4,Benign\n")
        assert np.isnan(dataio.load_csv(path).features[0, 0])

    def test_round_trip_reproduces_values(self, tmp_path):
        rs = np.random.RandomState(0)
        labels = rs.randint(0, 2, 7)
        original = FlowDataset(
            features=rs.randn(7, 3) * 1e3,
            labels=labels,
            feature_names=("a", "b", "c"),
            categories=tuple("Recon" if l else "Benign" for l in labels),
        )
        path = tmp_path / "roundtrip.csv"
        dataio.write_csv(original, path)
        loaded = dataio.load_csv(path)
        assert np.abs(loaded.features - original.features).max() == 0.0
        assert np.array_equal(loaded.labels, original.labels)

    def test_categorical_column_one_hot_expanded(self, tmp_path):
        path = write(
            tmp_path,
            "rate,proto,Label\n1.5,TCP,Benign\n2.5,UDP,DoS-UDP Flood\n3.5,TCP,Benign\n",
        )
        ds = dataio.load_csv(path)
        assert ds.feature_names == ("rate", "proto=TCP", "proto=UDP")
        assert np.array_equal(ds.features[:, 1], [1.0, 0.0, 1.0])
        assert np.array_equal(ds.features[:, 2], [0.0, 1.0, 0.0])

    def test_numeric_column_with_leading_junk_stays_numeric(self, tmp_path):
        path = write(tmp_path, "f1,f2,Label\nn/a,x,Benign\n,y,DoS\n2.5,x,Benign\n")
        ds = dataio.load_csv(path)
        assert ds.feature_names == ("f1", "f2=x", "f2=y")
        assert np.isnan(ds.features[:2, 0]).all() and ds.features[2, 0] == 2.5

    def test_empty_category_cell_becomes_missing_row(self, tmp_path):
        path = write(tmp_path, "rate,proto,Label\n1.5,TCP,Benign\n2.5,,DoS\n3.5,UDP,Benign\n")
        ds = dataio.load_csv(path)
        assert ds.feature_names == ("rate", "proto=TCP", "proto=UDP")
        assert np.isnan(ds.features[1]).all()
        assert np.array_equal(ds.features[2], [3.5, 0.0, 1.0])

    def test_equals_sign_in_feature_column_rejected(self, tmp_path):
        path = write(tmp_path, "rate,proto=tcp,Label\n1,1,Benign\n")
        with pytest.raises(SchemaError, match="proto=tcp"):
            dataio.load_csv(path)

    def test_non_utf8_file_names_file_and_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"f1,Label\n1,Benign\n2,Benign\n3,caf\xe9\n")
        with pytest.raises(ParseError, match="latin1.csv:4:"):
            dataio.load_csv(path)

    def test_given_layout_decodes_without_inference(self, tmp_path):
        layout = RecordLayout(("rate", "proto"), (None, ("tcp", "udp")))
        path = write(tmp_path, "rate,proto,Label\n1.5,tcp,Benign\n2.5,icmp,DoS\n3.5,tcp,Benign\n")
        ds = dataio.load_csv(path, CsvSchema(), layout)
        assert ds.feature_names == ("rate", "proto=tcp", "proto=udp")  # udp is absent from the file
        assert np.array_equal(ds.features[[0, 2]], [[1.5, 1.0, 0.0], [3.5, 1.0, 0.0]])
        assert np.isnan(ds.features[1]).all()  # unknown category value

    def test_given_layout_must_match_header(self, tmp_path):
        layout = RecordLayout(("rate", "size"), (None, None))
        path = write(tmp_path, "size,rate,Label\n1,2,Benign\n")
        with pytest.raises(DataError, match="do not match"):
            dataio.load_csv(path, CsvSchema(), layout)

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "f1,f2\n1,2\n")
        with pytest.raises(SchemaError, match="Label"):
            dataio.load_csv(path)

    def test_zero_data_rows(self, tmp_path):
        path = write(tmp_path, "f1,Label\n")
        with pytest.raises(DataError, match="no data rows"):
            dataio.load_csv(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = write(tmp_path, "f1,f2,Label\n1,2,Benign\n3,Benign\n")
        with pytest.raises(ParseError, match=":3:"):
            dataio.load_csv(path)

    def test_excluded_columns_skipped(self, tmp_path):
        path = write(tmp_path, "id,f1,Label\n99,1,Benign\n98,2,DoS-SYN Flood\n")
        schema = CsvSchema(exclude_columns=("id",))
        ds = dataio.load_csv(path, schema)
        assert ds.feature_names == ("f1",)

    def test_custom_schema(self, tmp_path):
        path = write(tmp_path, "f1;class\n1;normal\n2;bad\n")
        schema = CsvSchema(label_column="class", benign_value="normal", delimiter=";")
        ds = dataio.load_csv(path, schema)
        assert list(ds.labels) == [0, 1]

    def test_total_over_wellformed_csvs(self, tmp_path):
        # fuzz: random mixtures of numbers, junk, and blanks never crash
        rs = np.random.RandomState(1)
        cells = ["1.5", "-2e3", "junk", "", "0", "nanobot"]
        for trial in range(10):
            rows = [
                ",".join(rs.choice(cells, 3)) + "," + rs.choice(["Benign", "DoS-SYN Flood"])
                for _ in range(5)
            ]
            path = write(tmp_path, "a,b,c,Label\n" + "\n".join(rows) + "\n", f"fuzz{trial}.csv")
            ds = dataio.load_csv(path)
            assert ds.n_samples == 5


class TestLabelBits:
    """load_csv turns each label cell into its 0/1 bit as it reads the row."""

    def test_benign_maps_to_zero(self, tmp_path):
        path = write(tmp_path, "f1,Label\n1,Benign\n2,BENIGN\n3, benign \n4,DDoS\n")
        assert dataio.load_csv(path).labels.tolist() == [0, 0, 0, 1]

    @pytest.mark.parametrize(
        "category",
        [
            "DDoS-SYN Flood",
            "DoS-TCP Flood",
            "MQTT-Malformed Data",
            "Recon-Port Scan",
            "ARP Spoofing",
        ],
    )
    def test_attack_categories_map_to_one(self, tmp_path, category):
        path = write(tmp_path, f"f1,Label\n1,Benign\n2,{category}\n")
        assert dataio.load_csv(path).labels.tolist() == [0, 1]

    def test_empty_category_names_file_and_line(self, tmp_path):
        path = write(tmp_path, "f1,Label\n1,Benign\n2,  \n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:3: empty traffic category$"):
            dataio.load_csv(path)

    def test_custom_benign_value(self, tmp_path):
        path = write(tmp_path, "f1,Label\n1,normal\n2,attack\n3,Benign\n")
        ds = dataio.load_csv(path, CsvSchema(benign_value=" Normal "))
        assert ds.labels.tolist() == [0, 1, 1]


class TestFeaturePositions:
    """One rule picks a header's feature cells, for load_csv and score alike."""

    def test_every_name_but_the_label_and_the_excluded(self):
        schema = CsvSchema(exclude_columns=("ts", "id"))
        header = [" ts", "rate", "Label ", "size", "id", "proto"]
        assert schema.dropped_positions(header) == [4, 2, 0]  # back to front
        assert dataio._feature_cells(header, [4, 2, 0]) == ["rate", "size", "proto"]

    def test_load_csv_reads_the_label_anywhere(self, tmp_path):
        path = write(tmp_path, "ts,rate,Label,size\n9,1,Benign,2\n8,3,DoS,4\n")
        ds = dataio.load_csv(path, CsvSchema(exclude_columns=("ts",)))
        assert ds.feature_names == ("rate", "size")
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]

    def test_label_column_named_twice_rejected(self, tmp_path):
        # the second one was once a one-hot feature holding the target itself
        path = write(tmp_path, "rate,Label,size,Label\n1,Benign,2,Benign\n3,DoS,4,DoS\n")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: the 'Label' column is named more than once"):
            dataio.load_csv(path)


class TestRecordLayout:
    def test_feature_names_round_trip(self):
        names = ("rate", "proto=tcp", "proto=udp", "size", "flag=a=b")
        layout = RecordLayout.from_feature_names(names)
        assert layout.columns == ("rate", "proto", "size", "flag")
        assert layout.vocabularies == (None, ("tcp", "udp"), None, ("a=b",))
        assert layout.feature_names == names

    def test_decode(self):
        layout = RecordLayout(("rate", "proto", "size"), (None, ("tcp", "udp"), None))
        assert layout.decode(["1.5", " udp ", "7"]) == [1.5, 0.0, 1.0, 7.0]
        row = layout.decode(["", "tcp", "junk"])
        assert np.isnan(row[0]) and row[1:3] == [1.0, 0.0] and np.isnan(row[3])
        for unknown in ("icmp", "", "TCP"):
            with pytest.raises(ParseError, match="unknown category"):
                layout.decode(["1", unknown, "2"])

    def test_numeric_decode_keeps_literals(self):
        row = RecordLayout(("a", "b", "c"), (None, None, None)).decode(["inf", "-1e3", "nan"])
        assert row[0] == np.inf and row[1] == -1000.0 and np.isnan(row[2])

    def test_record_cells_follow_csv_quoting(self):
        assert dataio.record_cells(b'1,"a,b",2\r\n', ",") == ["1", "a,b", "2"]
        assert dataio.record_cells(b"\n", ",") == []
        assert dataio.record_cells(b"1,caf\xe9\n", ",") == "not a UTF-8 CSV record"


def make_artifact(seed=3):
    rs = np.random.RandomState(seed)
    x = rs.randn(40, 3)
    y = (x[:, 0] > 0).astype(int)
    model = elm.fit(x, y, ElmParams(hidden_nodes=10, activation=Activation.TANH, seed=seed))
    return ModelArtifact(
        model=model,
        selection=FeatureSelection(kept_indices=(0, 2, 3), correlations=np.array([0.5, 0.01, 0.4, -0.3])),
        scaler=ScalerState(means=rs.randn(3), stds=np.abs(rs.randn(3)) + 0.5),
        schema=CsvSchema(),
        feature_names=("a", "b", "c", "d"),
        seed=seed,
        fingerprint="ab" * 32,
        source="unit-test",
    )


class TestModelArtifact:
    def test_round_trip_scores_bit_exact(self, tmp_path):
        artifact = make_artifact()
        path = tmp_path / "m.flowelm"
        dataio.save_model(artifact, path)
        loaded = dataio.load_model(path)
        rs = np.random.RandomState(9)
        probe = rs.randn(100, 3)
        before = elm.score(artifact.model, probe)
        after = elm.score(loaded.model, probe)
        assert np.abs(before - after).max() == 0.0
        assert loaded.feature_names == artifact.feature_names
        assert loaded.selection.kept_indices == artifact.selection.kept_indices
        assert np.array_equal(loaded.scaler.means, artifact.scaler.means)
        assert loaded.seed == artifact.seed

    def test_save_is_deterministic(self, tmp_path):
        artifact = make_artifact()
        p1, p2 = tmp_path / "m1", tmp_path / "m2"
        dataio.save_model(artifact, p1)
        dataio.save_model(artifact, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        artifact = make_artifact()
        path = tmp_path / "m.flowelm"
        dataio.save_model(artifact, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(IntegrityError):
            dataio.load_model(path)

    def test_inconsistent_width_rejected(self, tmp_path):
        artifact = make_artifact()
        path = tmp_path / "m.flowelm"
        dataio.save_model(artifact, path)
        # claim 11 hidden nodes; the stored output-weight rows no longer match
        text = path.read_text().replace("elm.hidden_nodes=10", "elm.hidden_nodes=11")
        path.write_text(text)
        with pytest.raises(IntegrityError):
            dataio.load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        artifact = make_artifact()
        path = tmp_path / "m.flowelm"
        dataio.save_model(artifact, path)
        text = path.read_text().replace("flowelm-model v1", "flowelm-model v2")
        path.write_text(text)
        with pytest.raises(UnsupportedVersionError):
            dataio.load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = write(tmp_path, "hello world\n", "junk.txt")
        with pytest.raises(IntegrityError):
            dataio.load_model(path)

    def test_transform_selects_then_scales(self):
        artifact = make_artifact()
        rows = np.random.RandomState(4).randn(5, 4)
        expected = (rows[:, [0, 2, 3]] - artifact.scaler.means) / artifact.scaler.stds
        x, kept_rows, finite = artifact.transform(rows)
        assert np.array_equal(x, expected)
        assert kept_rows.tolist() == list(range(5)) and finite.all()
        assert x.flags.c_contiguous and x.flags.writeable  # the caller's own array
        assert artifact.layout.columns == ("a", "b", "c", "d")

    def test_transform_of_given_rows_has_the_bits_of_selecting_them_after(self):
        artifact = make_artifact()
        rows = np.random.RandomState(5).randn(9, 4) * 1e3
        every_row = artifact.transform(rows)[0]
        rows[1, 1] = np.nan  # in a column the model dropped
        rows[4, 0] = -np.inf
        rows[6, 2] = 1.7e308  # finite, but inf once divided by a std below 1
        assert artifact.scaler.stds[1] < 1
        x, kept_rows, finite = artifact.transform(rows)
        assert finite.tolist() == [i not in (1, 4) for i in range(9)]
        assert kept_rows.tolist() == [0, 2, 3, 5, 7, 8]
        assert x.tobytes() == every_row[kept_rows].tobytes()
        assert x.flags.c_contiguous and x.flags.writeable

    @pytest.mark.parametrize("activation", list(Activation))
    def test_transform_leaves_out_rows_the_hidden_layer_could_overflow_on(self, activation):
        base = make_artifact()
        params = ElmParams(hidden_nodes=10, activation=activation, seed=3, rbf_gamma=2.0)
        w, b = elm.init_random(params, 3)
        artifact = ModelArtifact(
            model=elm.ElmModel(w, b, base.model.output_weights, params, 3),
            selection=base.selection, scaler=ScalerState(means=np.zeros(3), stds=np.ones(3)),
            schema=base.schema, feature_names=base.feature_names, seed=3,
        )
        limit = artifact._limit
        assert 1e150 < limit < 1e160
        rows = np.ones((elm._SCORE_ROWS, 4))
        rows[:, [0, 2, 3]] = limit  # every kept value at the limit: scored, with no warning
        rows[1::2, 2] = -limit
        rows[5, 3] = np.nextafter(limit, np.inf)
        rows[9, 0] = -1.7e308
        x, kept_rows, finite = artifact.transform(rows)
        assert finite.all()
        assert kept_rows.tolist() == [i for i in range(len(rows)) if i not in (5, 9)]
        assert np.isfinite(elm.score(artifact.model, x)).all()

    def test_non_utf8_artifact_rejected(self, tmp_path):
        artifact = make_artifact()
        path = tmp_path / "m.flowelm"
        dataio.save_model(artifact, path)
        path.write_bytes(path.read_bytes().replace(b"meta.source=unit-test", b"meta.source=\xff"))
        with pytest.raises(IntegrityError):
            dataio.load_model(path)

    def test_huge_selection_index_rejected(self, tmp_path):
        artifact = make_artifact()
        path = tmp_path / "m.flowelm"
        dataio.save_model(artifact, path)
        text = path.read_text().replace("selection.kept=0 2 3", "selection.kept=0 2 " + "9" * 30)
        path.write_text(text)
        with pytest.raises(IntegrityError, match="out of range"):
            dataio.load_model(path)

    def test_artifact_validation_catches_scaler_width(self):
        artifact = make_artifact()
        with pytest.raises(IntegrityError):
            ModelArtifact(
                model=artifact.model,
                selection=artifact.selection,
                scaler=ScalerState(means=np.zeros(2), stds=np.ones(2)),
                schema=artifact.schema,
                feature_names=artifact.feature_names,
                seed=0,
            )


# A hand-written v1 artifact, every value as save_model writes it: a
# categorical column, excluded columns, and each header line in file order.
V1_TEXT = """flowelm-model v1
schema.label_column=Label
schema.benign_value=Benign
schema.delimiter=;
schema.exclude_columns=id,ts
meta.seed=7
meta.source=hand-built capture
meta.fingerprint=00ff
selection.n_original=4
selection.kept=0 2 3
selection.correlations=0.5 0 -0.25 0.125
scaler.means=1 10 -3
scaler.stds=2 5 0.5
elm.hidden_nodes=2
elm.activation=rbf
elm.rbf_gamma=0.5
elm.seed=11
elm.n_features=3
feature=rate
feature=proto=tcp
feature=proto=udp
feature=size
matrix.input_weights=3 2
1 -1
0.5 2
-0.75 0.25
matrix.biases=1 2
0.25 -0.5
matrix.output_weights=2 1
0.75
-1.5
end
"""


class TestFormatV1:
    def test_hand_written_artifact_saves_back_byte_for_byte(self, tmp_path):
        path = write(tmp_path, V1_TEXT, "hand.flowelm")
        artifact = dataio.load_model(path)
        assert artifact.layout.vocabularies == (None, ("tcp", "udp"), None)
        assert artifact.schema.exclude_columns == ("id", "ts")
        dataio.save_model(artifact, tmp_path / "again.flowelm")
        assert (tmp_path / "again.flowelm").read_bytes() == V1_TEXT.encode("utf-8")

    @pytest.mark.parametrize(
        "line, damaged",
        [
            ("matrix.biases=1 2", "matrix.biases=-1 2"),
            ("matrix.biases=1 2", "matrix.biases=99999999999999999999 2"),
            ("matrix.biases=1 2", "matrix.biases=1000000000000000 2"),  # 14 PiB if preallocated
            ("matrix.biases=1 2", "matrix.biases=1"),
            ("matrix.biases=1 2", "matrix.biases=1 3"),
            ("matrix.input_weights=3 2", "matrix.input_weights=2 3"),
            ("0.5 2\n", "0.5\n"),
            ("schema.delimiter=;", "schema.delimiter=;;"),
            ("elm.rbf_gamma=0.5", "elm.rbf_gamma=nan"),
            ("elm.rbf_gamma=0.5", "elm.rbf_gamma=inf"),
            ("scaler.means=1 10 -3", "scaler.means=nan 10 -3"),
            ("scaler.stds=2 5 0.5", "scaler.stds=inf 5 0.5"),
            ("elm.hidden_nodes=2", "elm.hidden_nodes=-2"),
            ("elm.activation=rbf", "elm.activation=relu"),
            ("selection.n_original=4", "selection.n_original=400000000000"),
            ("meta.seed=7\nmeta.source", "meta.source=7\nmeta.seed"),
            ("flowelm-model v1", "flowelm-model vx"),
            ("-1.5\nend\n", "-1.5\n"),
        ],
    )
    def test_damaged_header_or_matrix_is_an_integrity_error(self, tmp_path, line, damaged):
        assert line in V1_TEXT
        path = write(tmp_path, V1_TEXT.replace(line, damaged, 1), "damaged.flowelm")
        with pytest.raises(IntegrityError, match="damaged.flowelm: "):
            dataio.load_model(path)


class TestBoundedMemory:
    """load_csv holds the one feature array it builds, and no per-row labels."""

    def test_peak_allocation_under_1_6_feature_arrays(self, tmp_path):
        rs = np.random.RandomState(8)
        x = rs.randn(3 * 8192, 40)
        lines = ["".join(f"f{j}," for j in range(40)) + "Label"]
        lines += [",".join(map(repr, row)) + (",DDoS" if row[0] > 0 else ",Benign") for row in x.tolist()]
        path = write(tmp_path, "\n".join(lines) + "\n")
        tracemalloc.start()  # numpy reports its array buffers to tracemalloc
        try:
            ds = dataio.load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features.tobytes() == x.tobytes()
        assert ds.categories is None
        assert not ds.features.flags.writeable
        # measured 1.18 feature arrays; 2.2 when the array was copied
        assert peak < 1.6 * ds.features.nbytes, f"peak {peak} bytes, features {ds.features.nbytes}"


class TestChunks:
    """load_csv_chunks hands out the decoding pass's buffers whole: every
    chunk but the last holds at least elm._SCORE_ROWS rows and fewer than
    elm._SCORE_ROWS + _BLOCK_LINES, and the chunks end to end are
    load_csv's rows, bit for bit."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("chunks")
        rs = np.random.RandomState(9)
        x = rs.randn(elm._SCORE_ROWS + 700, 3)
        cells = [[repr(v) for v in row] for row in x.tolist()]
        labels = ["DDoS" if row[0] > 0 else "Benign" for row in x.tolist()]

        def csv(name, rows):
            path = directory / name
            path.write_text("a,b,c,Label\n" + "".join(",".join(r + [y]) + "\n" for r, y in zip(rows, labels)))
            return path

        empty = [list(r) for r in cells]
        empty[150][1] = ""  # its parse block is decoded per record
        quoted = [list(r) for r in cells]
        quoted[200][2] = f'"{quoted[200][2]}"'  # the rest of the file is decoded per record
        categorical = [r[:2] + [("tcp", "udp", "icmp")[i % 3]] for i, r in enumerate(cells)]
        return csv("empty.csv", empty), csv("quoted.csv", quoted), csv("categorical.csv", categorical)

    @pytest.mark.parametrize("chunk_rows", [8, 64, 72, None])  # 72: chunks that end inside a parse block
    def test_chunks_end_to_end_are_load_csvs_rows(self, files, chunk_rows):
        rows = chunk_rows or elm._SCORE_ROWS
        for path in files:
            ds = dataio.load_csv(path)
            layout = RecordLayout.from_feature_names(ds.feature_names)
            with mock.patch.object(elm, "_SCORE_ROWS", rows):
                chunks = list(dataio.load_csv_chunks(path, CsvSchema(), layout))
            assert len(chunks) > 1
            assert all(rows <= len(labels) < rows + dataio._BLOCK_LINES for _, labels in chunks[:-1])
            assert all(features.shape == (len(labels), ds.n_features) for features, labels in chunks)
            assert np.concatenate([features for features, _ in chunks]).tobytes() == ds.features.tobytes()
            assert np.concatenate([labels for _, labels in chunks]).tolist() == ds.labels.tolist()


# Cells for the block parser's differential tests: floats as files write
# them, and text on which np.loadtxt, float() and csv.reader could part ways:
# empty and blank cells, non-finite literals, syntax only float() accepts,
# surrounding whitespace, a bare carriage return, and quoted cells (one with
# a line break).
BLOCK_CELLS = st.one_of(
    st.floats().map(repr),
    st.floats().map(lambda x: "%.7g" % x),
    st.sampled_from([
        "", " ", "nan", "NaN", "-nan", "+nan", "inf", "-inf", "INF", "Infinity", "-Infinity", "1e400",
        "-1e400", "1_000", "١٢", "0x1f", ".5", "5.", "+1", " 1.5", "2.5 ", "\t1\t", "\x0c3",
        "4\xa0", "8\r9", '"1.5"', '"1,5"', '"6\n7"', '""', "x",
    ]),
)
# labels: a benign one with whitespace around it, empty and blank ones, one
# with a NUL, quoted ones, and ones that fit, fill and overflow the block's
# label field (the last one is benign if it is cut short)
BLOCK_LABELS = st.sampled_from(
    ["Benign", "DDoS", " benign\t", "", "  ", "Benign\x00", '"Benign"', '"DD,oS"', "DD\roS",
     "a" * (dataio._LABEL_WIDTH - 1), "b" * dataio._LABEL_WIDTH,
     "Benign" + " " * (dataio._LABEL_WIDTH - 6) + "x"]
)
BLOCK_DELIMITERS = st.sampled_from([",", ";", "|", " "])


@st.composite
def record_lines(draw, n_features, label_pos, id_pos, delimiter):
    """Lines of records (bytes, each ended by "\n" or "\r\n"): plain ones,
    so that whole blocks parse, ones with odd cells, some with a cell too
    many or too few, blank or whitespace-only lines, and bytes that are not
    UTF-8."""
    odd = ["record", "short", "long", "blank", "latin-1"]
    kinds = draw(st.sampled_from([["plain"], ["plain"] * 20 + odd, ["plain"] * 4 + odd]))
    lines = []
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(kinds))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\r"])).encode() + b"\n")
            continue
        plain = kind == "plain"
        cells = [draw(st.floats().map(repr) if plain else BLOCK_CELLS) for _ in range(n_features)]
        if label_pos is not None:
            cells.insert(label_pos, draw(st.sampled_from(["Benign", "DDoS"]) if plain else BLOCK_LABELS))
        if id_pos is not None:
            ids = ["7", "", "id-123456789"] + ([] if plain else ['"a,b"', '"x\ny"'])
            cells.insert(id_pos, draw(st.sampled_from(ids)))
        if kind == "short":
            del cells[draw(st.integers(0, len(cells) - 1))]
        elif kind == "long":
            cells.append("1")
        line = delimiter.join(cells).encode()
        if kind == "latin-1":
            line = b"caf\xe9" + line
        lines.append(line + draw(st.sampled_from([b"\n", b"\r\n"])))
    return lines


@st.composite
def labeled_files(draw):
    """(schema, feature columns, file bytes): a header with the label and an
    excluded id column anywhere among 1-3 feature columns, then records."""
    n_features = draw(st.integers(1, 3))
    names = [f"f{j}" for j in range(n_features)]
    label_pos = draw(st.integers(0, n_features))
    names.insert(label_pos, "Label")
    id_pos = draw(st.integers(0, n_features + 1))
    names.insert(id_pos, "id")
    label_pos += id_pos <= label_pos
    delimiter = draw(BLOCK_DELIMITERS)
    lines = draw(record_lines(n_features, label_pos, id_pos, delimiter))
    schema = CsvSchema(delimiter=delimiter, exclude_columns=("id",))
    return schema, tuple(f"f{j}" for j in range(n_features)), (delimiter.join(names) + "\n").encode() + b"".join(lines)


def load_outcome(path, schema, layout):
    """load_csv's dataset bytes, or its error's type and message."""
    try:
        ds = dataio.load_csv(path, schema, layout)
    except DataError as exc:  # ParseError included
        return type(exc).__name__, str(exc)
    return ds.features.tobytes(), ds.labels.tobytes(), ds.feature_names


def chunks_outcome(path, schema, layout):
    """load_csv_chunks' rows in load_outcome's form: the chunks' features
    and labels (as int64) joined, or the error's type and message."""
    try:
        chunks = list(dataio.load_csv_chunks(path, schema, layout))
    except DataError as exc:  # ParseError included
        return type(exc).__name__, str(exc)
    return (b"".join(features.tobytes() for features, _ in chunks),
            b"".join(labels.astype(np.int64).tobytes() for _, labels in chunks), layout.feature_names)


def per_record():
    """Every record decoded on its own, as before blocks: no block parser."""
    return mock.patch.object(dataio, "_block_parser", lambda *args, **kwargs: None)


class TestBlockParser:
    """load_csv and score parse blocks of numeric records in np.loadtxt; the
    result is the per-record decoding's, bit for bit, error for error, and
    no block size shows."""

    @settings(max_examples=400, deadline=None)
    @given(case=labeled_files(), given_layout=st.booleans(), block_lines=st.sampled_from([1, 4, 5, 7, 64]),
           chunk_rows=st.sampled_from([8, 16, elm._SCORE_ROWS]))
    def test_load_csv_equals_per_record_decoding(self, tmp_path_factory, case, given_layout, block_lines,
                                                 chunk_rows):
        schema, columns, data = case
        path = tmp_path_factory.mktemp("blocks") / "data.csv"
        path.write_bytes(data)
        layout = RecordLayout(columns, (None,) * len(columns)) if given_layout else None
        with per_record():
            expected = load_outcome(path, schema, layout)
        with mock.patch.object(dataio, "_BLOCK_LINES", block_lines):
            with mock.patch.object(elm, "_SCORE_ROWS", chunk_rows):  # load_csv_chunks' chunk size
                assert load_outcome(path, schema, layout) == expected
                if given_layout:
                    assert chunks_outcome(path, schema, layout) == expected

    @settings(max_examples=300, deadline=None)
    @given(delimiter=BLOCK_DELIMITERS, header=st.booleans(), block_lines=st.sampled_from([1, 4, 5, 7, 64]),
           data=st.data())
    def test_score_equals_per_record_decoding(self, tmp_path_factory, delimiter, header, block_lines, data):
        directory = tmp_path_factory.mktemp("score")
        artifact = make_artifact()
        names = list(artifact.feature_names)
        artifact = ModelArtifact(
            model=artifact.model, selection=artifact.selection, scaler=artifact.scaler,
            schema=CsvSchema(delimiter=delimiter, exclude_columns=("id",)), feature_names=names,
            seed=artifact.seed,
        )
        model = directory / "m.flowelm"
        dataio.save_model(artifact, model)
        label_pos = id_pos = None
        lines = []
        if header:
            label_pos = data.draw(st.integers(0, len(names)))
            names.insert(label_pos, "Label")
            id_pos = data.draw(st.integers(0, len(names)))
            names.insert(id_pos, "id")
            label_pos += id_pos <= label_pos
            lines.append((delimiter.join(names) + "\n").encode())
        lines += data.draw(record_lines(len(artifact.feature_names), label_pos, id_pos, delimiter))
        records = directory / "records.csv"
        records.write_bytes(b"".join(lines))

        def verdicts():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["score", "--model", str(model), "--input", str(records)])
            return code, out.getvalue(), err.getvalue()

        with per_record():
            expected = verdicts()
        with mock.patch.object(dataio, "_BLOCK_LINES", block_lines):
            assert verdicts() == expected

    @pytest.mark.parametrize("label", [
        "Benign\x00", '"Benign"', "Benign" + " " * (dataio._LABEL_WIDTH - 6) + "x", " benign\t", "", "a,b",
    ])
    def test_label_the_block_cannot_hold_as_csv_reads_it(self, tmp_path, label):
        """A NUL, quotes, a label that a cut would make benign, and the other
        labels that send a block down the per-record path."""
        text = "f1,Label\n" + "".join(f"{i},{'DDoS' if i % 2 else 'Benign'}\n" for i in range(9))
        path = write(tmp_path, text + f"9,{label}\n")
        with per_record():
            expected = load_outcome(path, CsvSchema(), None)
        assert load_outcome(path, CsvSchema(), None) == expected

    def test_parses_exactly_as_float_does(self):
        """Random-bit doubles in 17 digits and 7-digit cells: the block path
        gives float()'s bits."""
        rs = np.random.RandomState(5)
        values = rs.randint(0, 2**63, size=(2000, 3), dtype=np.int64).view(np.float64)
        for fmt in ("%.17g", "%.7g", "%r"):
            cells = [[fmt % v for v in row] for row in values.tolist()]
            text = "".join(",".join(row) + ",Benign\n" for row in cells).encode()
            parse = dataio._block_parser(RecordLayout(("a", "b", "c"), (None,) * 3), 4, [3], ",", 3)
            rows, labels = parse(text)
            expected = np.array([[float(c) for c in row] for row in cells])
            assert rows.tobytes() == expected.tobytes()
            assert labels == ["Benign"] * len(cells)

    def test_clean_blocks_are_never_decoded_per_record(self, tmp_path):
        rs = np.random.RandomState(6)
        text = "a,Label,b\n" + "".join(f"{x!r},{'DDoS' if x > 0 else 'Benign'},{y!r}\r\n" for x, y in rs.randn(300, 2).tolist())
        path = write(tmp_path, text)
        with mock.patch.object(RecordLayout, "decode", side_effect=AssertionError("decoded per record")):
            ds = dataio.load_csv(path, layout=RecordLayout(("a", "b"), (None, None)))
        assert ds.n_samples == 300

    def test_categorical_layout_has_no_block_parser(self):
        layout = RecordLayout(("a", "proto"), (None, ("tcp", "udp")))
        assert dataio._block_parser(layout, 3, [2], ",", 2) is None

    @pytest.mark.parametrize("index", [0, 1, 62, 63, 64, 65, 127, 128, 199])
    @pytest.mark.parametrize("fault, message", [
        (b"1,2,Benign,9", "expected 3 cells, got 4"),
        (b"1,2,", "empty traffic category"),
        (b"1,2,caf\xe9", "not UTF-8 text"),
    ])
    def test_bad_line_anywhere_in_a_block_reports_its_line(self, tmp_path, index, fault, message):
        lines = [b"f1,f2,Label"] + [b"%d,%d,%s" % (i, -i, b"DDoS" if i % 2 else b"Benign") for i in range(200)]
        lines[1 + index] = fault
        path = tmp_path / "data.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError) as raised:
            dataio.load_csv(path)
        assert str(raised.value) == f"{path}:{index + 2}: {message}"

    @pytest.mark.parametrize("index", [0, 5, 31, 32, 63])
    @pytest.mark.parametrize("fault", [",1.5,DDoS", "1.5,Benign", "1.5,2.5,"])
    def test_a_bad_line_sends_only_a_few_lines_per_record(self, tmp_path, index, fault):
        """One bad line in the second 64-line block: its block and the halves
        that hold it are parsed again, and no more than 7 lines reach
        RecordLayout.decode. Rows, labels and errors are the per-record ones."""
        rs = np.random.RandomState(index)
        lines = ["a,b,Label"] + [f"{x!r},{y!r},{'DDoS' if x > 0 else 'Benign'}"
                                 for x, y in rs.randn(3 * dataio._BLOCK_LINES, 2).tolist()]
        lines[1 + dataio._BLOCK_LINES + index] = fault  # an empty cell, a cell short, an empty label
        path = write(tmp_path, "\n".join(lines) + "\n")
        layout = RecordLayout(("a", "b"), (None, None))
        with per_record():
            expected = load_outcome(path, CsvSchema(), layout)
        real = RecordLayout.decode
        for outcome in (load_outcome, chunks_outcome):
            with mock.patch.object(RecordLayout, "decode", autospec=True, side_effect=real) as decode:
                assert outcome(path, CsvSchema(), layout) == expected
            assert decode.call_count <= 7
        if fault == ",1.5,DDoS":
            assert isinstance(expected[0], bytes)  # the row holds a NaN marker
            assert np.isnan(np.frombuffer(expected[0]).reshape(-1, 2)[dataio._BLOCK_LINES + index, 0])
        else:
            assert expected[0] == "ParseError" and f":{dataio._BLOCK_LINES + index + 2}: " in expected[1]

    def test_field_over_the_csv_limit_is_a_parse_error(self, tmp_path):
        lines = [b"f1,f2,Label"] + [b"%d,1,Benign" % i for i in range(100)]
        lines[80] = b"9" * 200_000 + b",1,DDoS"  # a float to np.loadtxt
        path = tmp_path / "data.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:81: field larger than field limit"):
            dataio.load_csv(path)

    def test_a_quoted_line_break_moves_later_line_numbers(self, tmp_path):
        lines = [b"f1,f2,Label"] + [b"%d,%d,Benign" % (i, i) for i in range(200)]
        lines[11] = b'"1\n0",2,DDoS'  # a quoted cell holding a line break
        lines[150] = b"1,2"
        path = tmp_path / "data.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:152: expected 3 cells, got 2$"):
            dataio.load_csv(path)

    def test_load_csv_bytes_do_not_depend_on_the_block_size(self, tmp_path):
        """A capture with every kind of cell that falls back, at block sizes
        1, 7 and the default."""
        rs = np.random.RandomState(7)
        odd = ["", "nan", "-inf", "1_000", " 2 ", '"3"', '"4\n5"', "1e400"]
        lines = ["a,b,c,Label"]
        for i in range(500):
            cells = [repr(v) for v in rs.randn(3)]
            if i % 37 == 0:
                cells[i % 3] = odd[(i // 37) % len(odd)]
            lines.append(",".join(cells) + (",DDoS" if i % 3 else ", benign ") + ("\r" if i % 5 == 0 else ""))
            if i % 41 == 0:
                lines.append("")
        path = write(tmp_path, "\n".join(lines) + "\n")
        outcomes = []
        for size in (1, 7, dataio._BLOCK_LINES):
            with mock.patch.object(dataio, "_BLOCK_LINES", size):
                outcomes.append(load_outcome(path, CsvSchema(), None))
        with per_record():
            outcomes.append(load_outcome(path, CsvSchema(), None))
        assert outcomes[0][0].__class__ is bytes
        assert outcomes == [outcomes[-1]] * 4


class TestFingerprint:
    def test_deterministic_and_content_sensitive(self):
        ds1 = FlowDataset(features=np.ones((2, 2)), labels=[0, 1], feature_names=("a", "b"))
        ds2 = FlowDataset(features=np.ones((2, 2)), labels=[0, 1], feature_names=("a", "b"))
        ds3 = FlowDataset(features=np.zeros((2, 2)), labels=[0, 1], feature_names=("a", "b"))
        assert dataio.fingerprint(ds1) == dataio.fingerprint(ds2)
        assert dataio.fingerprint(ds1) != dataio.fingerprint(ds3)

    def test_digest_is_sha256_of_feature_bytes_bar_label_bytes(self):
        rs = np.random.RandomState(2)
        ds = FlowDataset(features=rs.randn(7, 3), labels=rs.randint(0, 2, 7), feature_names=("a", "b", "c"))
        expected = hashlib.sha256(ds.features.tobytes() + b"|" + ds.labels.tobytes()).hexdigest()
        assert dataio.fingerprint(ds) == expected

    def test_digest_falls_back_to_hashlib_without_the_builtin_modules(self, monkeypatch):
        # an interpreter built without its own SHA-256 module has only hashlib's
        for name in ("_sha2", "_sha256"):
            monkeypatch.setitem(sys.modules, name, None)
        rs = np.random.RandomState(3)
        ds = FlowDataset(features=rs.randn(7, 3), labels=rs.randint(0, 2, 7), feature_names=("a", "b", "c"))
        expected = hashlib.sha256(ds.features.tobytes() + b"|" + ds.labels.tobytes()).hexdigest()
        assert dataio.fingerprint(ds) == expected


# The generator's documented tables: (name, benign mean, benign std, lower
# clip, upper clip), the mean shifts of two categories in benign sigmas,
# and the chance of proto_tcp=1.
_GAUSS = (
    ("conn_request_rate", 4.0, 1.5, 0.0, math.inf),
    ("packet_size_mean", 520.0, 180.0, 1.0, math.inf),
    ("inter_arrival_ms", 120.0, 40.0, 0.0, math.inf),
    ("distinct_ports", 3.0, 1.2, 0.0, math.inf),
    ("mqtt_publish_rate", 1.5, 0.6, 0.0, math.inf),
    ("addr_consistency", 0.97, 0.01, 0.0, 1.0),
    ("port_entropy", 0.9, 0.35, 0.0, math.inf),
    ("flow_duration_s", 8.0, 3.0, 0.0, math.inf),
    ("packet_size_std", 90.0, 30.0, 0.0, math.inf),
    ("inter_arrival_jitter", 25.0, 8.0, 0.0, math.inf),
)
_SHIFTS = {
    "Recon": {"conn_request_rate": 4.0, "distinct_ports": 6.0, "port_entropy": 4.0},
    "Spoofing": {"conn_request_rate": 4.0, "addr_consistency": -8.0, "inter_arrival_jitter": 2.0},
}
_P_TCP = {"Benign": 0.7, "Recon": 0.6, "Spoofing": 0.6}


def reference_synthetic(n_benign, n_attack, category, n_features, seed):
    """Rows drawn in the documented order from one Rng: per row, each kept
    Gaussian column, then one uniform for proto_tcp if it is kept (proto_udp
    is its complement), then a standard normal per noise column."""
    rng = Rng(seed)
    rows = []
    for cat, count in (("Benign", n_benign), (category, n_attack)):
        for _ in range(count):
            row = []
            for name, mean, std, low, high in _GAUSS[:n_features]:
                value = rng.normal(mean + _SHIFTS.get(cat, {}).get(name, 0.0) * std, std)
                row.append(min(high, max(low, value)))
            if n_features > len(_GAUSS):
                tcp = 1.0 if rng.random() < _P_TCP[cat] else 0.0
                row.extend([tcp, 1.0 - tcp][: n_features - len(_GAUSS)])
            while len(row) < n_features:
                row.append(rng.normal())
            rows.append(row)
    names = [g[0] for g in _GAUSS] + ["proto_tcp", "proto_udp"]
    names += [f"noise_{k}" for k in range(n_features - len(names))]
    return np.array(rows), tuple(names[:n_features])


class TestSynthetic:
    @pytest.mark.parametrize("n_features", [1, 6, 10, 11, 12, 15])
    @pytest.mark.parametrize(
        "n_benign, n_attack, category", [(6, 9, "Recon"), (0, 11, "Spoofing")]
    )
    def test_rows_follow_the_documented_draw_order(self, n_benign, n_attack, category, n_features):
        spec = SyntheticSpec(n_benign=n_benign, n_attack=n_attack, attack_mix={category: 1.0},
                             n_features=n_features, seed=31)
        ds = dataio.generate_synthetic(spec)
        rows, names = reference_synthetic(n_benign, n_attack, category, n_features, 31)
        assert ds.feature_names == names
        assert ds.features.tobytes() == rows.tobytes()
        assert ds.categories == ("Benign",) * n_benign + (category,) * n_attack

    def test_deterministic(self):
        spec = SyntheticSpec(n_benign=100, n_attack=100, seed=7)
        a = dataio.generate_synthetic(spec)
        b = dataio.generate_synthetic(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert a.categories == b.categories

    def test_request_rate_separation_at_least_three_pooled_sigma(self):
        ds = dataio.generate_synthetic(SyntheticSpec())
        rate = ds.features[:, list(ds.feature_names).index("conn_request_rate")]
        benign = rate[ds.labels == 0]
        attack = rate[ds.labels == 1]
        assert attack.mean() > benign.mean()
        pooled = np.sqrt((benign.var() + attack.var()) / 2.0)
        assert (attack.mean() - benign.mean()) / pooled >= 3.0

    def test_all_recon_mix_tags_every_attack_row(self):
        mix = {"Recon": 1.0}
        ds = dataio.generate_synthetic(SyntheticSpec(n_benign=5, n_attack=20, attack_mix=mix, seed=1))
        attack_categories = {c for c, l in zip(ds.categories, ds.labels) if l == 1}
        assert attack_categories == {"Recon"}
        assert "Recon" in ds.source

    def test_invalid_weights_rejected(self):
        with pytest.raises(DataError):
            SyntheticSpec(attack_mix={"Recon": 0.5})  # does not sum to 1
        with pytest.raises(DataError):
            SyntheticSpec(attack_mix={"Recon": 1.5, "DoS": -0.5})
        with pytest.raises(DataError):
            SyntheticSpec(attack_mix={"Recon": 0.5, "Martians": 0.5})
        for mix in ({"DDoS": math.nan}, {"DDoS": math.nan, "DoS": 1.0}):  # NaN passes the sum check
            with pytest.raises(DataError, match="finite and non-negative"):
                SyntheticSpec(attack_mix=mix)

    def test_single_class_generation_allowed(self):
        ds = dataio.generate_synthetic(SyntheticSpec(n_benign=0, n_attack=10, seed=2))
        assert ds.n_samples == 10
        assert ds.labels.all()

    def test_mix_counts_follow_weights(self):
        mix = {"DDoS": 0.5, "Recon": 0.5}
        ds = dataio.generate_synthetic(SyntheticSpec(n_benign=0, n_attack=10, attack_mix=mix, seed=3))
        counts = {c: ds.categories.count(c) for c in ("DDoS", "Recon")}
        assert counts == {"DDoS": 5, "Recon": 5}

    def test_extra_features_are_noise_columns(self):
        ds = dataio.generate_synthetic(SyntheticSpec(n_benign=10, n_attack=10, n_features=14, seed=4))
        assert ds.n_features == 14
        assert ds.feature_names[-1] == "noise_1"

    def test_feature_truncation_keeps_request_rate_first(self):
        ds = dataio.generate_synthetic(SyntheticSpec(n_benign=5, n_attack=5, n_features=2, seed=5))
        assert ds.feature_names[0] == "conn_request_rate"
