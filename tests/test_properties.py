"""Property tests: stream and batch verdicts agree on random records,
records that cannot be scored fail closed with ERROR, arbitrary bytes on
the stream get one verdict per line, and a damaged model artifact either
loads or raises one of the artifact errors.

The CLI runs in-process (`flowelm.cli.main`) so that each example is cheap.
The model has a numeric, a categorical and another numeric column.
"""

import contextlib
import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowelm import cli, dataio, elm
from flowelm.errors import IntegrityError, UnsupportedVersionError

PROTOCOLS = ("icmp", "tcp", "udp")

finite = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)
records = st.lists(
    st.tuples(finite, st.sampled_from(PROTOCOLS), finite, st.booleans()), min_size=1, max_size=25
)
non_finite = st.sampled_from(["nan", "inf", "-inf", "NaN", " Infinity", "-INF "])
unknown_category = st.text(alphabet="abcdefpstu TCPU", max_size=6).filter(
    lambda text: text.strip() not in PROTOCOLS
)
# (cell index, replacement) or (None, +1/-1 cells)
mutations = st.one_of(
    st.tuples(st.sampled_from([0, 2]), non_finite),
    st.tuples(st.just(1), unknown_category),
    st.tuples(st.none(), st.sampled_from([-1, 1])),
)

# pieces of a streamed line: numbers, non-finite literals, CSV syntax, the
# category names and bytes that are not UTF-8
stream_pieces = st.sampled_from(
    [b"0", b"1", b"7", b"-", b"+", b".", b"e", b"nan", b"inf", b",", b'"', b"\r", b" ",
     *(p.encode() for p in PROTOCOLS), b"\xff", b"\xc3", b"\x80"]
)
stream_noise = st.lists(stream_pieces, max_size=6).map(b"".join)
stream_number = st.floats().map(lambda x: repr(x).encode())
stream_category = st.sampled_from(PROTOCOLS).map(str.encode)
stream_lines = st.one_of(
    st.tuples(
        st.one_of(stream_number, stream_noise),
        st.one_of(stream_category, stream_noise),
        st.one_of(stream_number, stream_noise),
    ).map(b",".join),
    st.lists(st.one_of(stream_number, stream_category, stream_noise), max_size=5).map(b",".join),
)

# (edit, position, byte): a byte flipped, set or inserted, the file
# truncated, a line duplicated or deleted, or a "-" put after a line's first
# "=" (a negative count); positions wrap around
artifact_edits = st.tuples(
    st.sampled_from(["flip", "set", "insert", "truncate", "duplicate", "delete", "negate"]),
    st.integers(min_value=0, max_value=1 << 20),
    st.one_of(st.integers(1, 255), st.sampled_from(b"0123456789-+.e =\nv")),
)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def cells_of(record):
    rate, proto, size, _ = record
    return [repr(rate), proto, repr(size)]


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    work = tmp_path_factory.mktemp("properties")
    rs = np.random.RandomState(5)
    lines = ["rate,proto,size,Label"]
    for i in range(240):
        attack = i % 2
        proto = rs.choice(PROTOCOLS, p=[0.1, 0.2, 0.7] if attack else [0.3, 0.6, 0.1])
        rate, size = rs.normal(4 + 3 * attack, 2.0), rs.normal(500 - 80 * attack, 120)
        lines.append(f"{rate:.5g},{proto},{size:.5g},{'DDoS' if attack else 'Benign'}")
    (work / "train.csv").write_text("\n".join(lines) + "\n")
    code, _, err = run("train", "--input", work / "train.csv", "--model", work / "m.flowelm",
                       "--hidden", "12", "--corr-threshold", "0", "--seed", "2")
    assert code == 0, err
    return work / "m.flowelm", work


@settings(max_examples=100, deadline=None)
@given(records)
def test_stream_labels_equal_batch_labels(model, records):
    path, work = model
    capture = work / "labeled.csv"
    labeled = [(r, r[3]) for r in records] + [(records[0], False), (records[0], True)]  # for the AUC
    rows = [",".join(cells_of(r) + ["DDoS" if attack else "Benign"]) for r, attack in labeled]
    capture.write_text("\n".join(["rate,proto,size,Label"] + rows) + "\n")

    code, out, err = run("score", "--model", path, "--input", capture)
    assert code == 0, err
    stream = np.array([int(line.split(",")[2]) for line in out.splitlines()])

    artifact = dataio.load_model(path)
    data = dataio.load_csv(capture, artifact.schema, artifact.layout)
    x, rows, _ = artifact.transform(data.features)
    assert len(rows) == len(stream)
    assert np.array_equal(stream, elm.predict(artifact.model, x))

    code, out, err = run("evaluate", "--model", path, "--input", capture)
    assert code == 0, err
    report = dict(line.split("=", 1) for line in out.splitlines() if "=" in line and ":" not in line)
    truth = data.labels
    assert int(report["tp"]) == int(((stream == 1) & (truth == 1)).sum())
    assert int(report["fp"]) == int(((stream == 1) & (truth == 0)).sum())
    assert int(report["n_samples"]) == len(rows)


@settings(max_examples=150, deadline=None)
@given(records, st.data(), mutations)
def test_bad_record_gets_error_and_the_stream_goes_on(model, records, data, mutation):
    path, work = model
    lines = [cells_of(r) for r in records]
    bad = data.draw(st.integers(0, len(lines) - 1))
    position, change = mutation
    if position is None:
        lines[bad] = lines[bad][:-1] if change < 0 else lines[bad] + ["1"]
    else:
        lines[bad][position] = change
    stream = work / "records.csv"
    stream.write_text("\n".join(",".join(cells) for cells in lines) + "\n")

    code, out, err = run("score", "--model", path, "--input", stream)
    assert code == 0, err
    verdicts = [line.split(",") for line in out.splitlines()]
    assert [v[0] for v in verdicts] == [str(i) for i in range(len(lines))]
    assert [i for i, v in enumerate(verdicts) if v[1] == "ERROR"] == [bad]
    assert "1 malformed record(s)" in err


def reference_record(line: bytes):
    """None for a line that is blank by the CSV rules, else whether it holds
    3 fields: finite numbers around a known category."""
    try:
        row = next(csv.reader([line.decode("utf-8")]), [])
    except (UnicodeDecodeError, csv.Error):
        return False
    if not row:
        return None
    if len(row) != 3 or row[1].strip() not in PROTOCOLS:
        return False
    try:
        return math.isfinite(float(row[0])) and math.isfinite(float(row[2]))
    except ValueError:
        return False


@settings(max_examples=200, deadline=None)
@given(st.lists(stream_lines, min_size=1, max_size=20), st.booleans())
def test_arbitrary_stream_bytes_get_one_verdict_per_line(model, lines, final_newline):
    path, work = model
    stream = work / "fuzz.csv"
    stream.write_bytes(b"\n".join(lines) + (b"\n" if final_newline else b""))

    code, out, err = run("score", "--model", path, "--input", stream)
    assert code == 0, err
    expected = [ok for ok in map(reference_record, lines) if ok is not None]
    verdicts = [line.split(",", 2) for line in out.splitlines()]
    assert [v[0] for v in verdicts] == [str(i) for i in range(len(expected))]
    for ok, (_, verdict, rest) in zip(expected, verdicts):
        if not ok:
            assert verdict == "ERROR"
        elif verdict == "ERROR":
            assert rest == "numeric field overflows when scaled"


def damaged(data: bytes, edit, position, byte) -> bytes:
    if edit in ("duplicate", "delete", "negate"):
        lines = data.split(b"\n")
        i = position % len(lines)
        if edit == "negate":
            lines[i] = lines[i].replace(b"=", b"=-", 1)
        else:
            lines[i : i + 1] = [lines[i]] * (2 if edit == "duplicate" else 0)
        return b"\n".join(lines)
    i = position % (len(data) + 1)
    if edit == "truncate":
        return data[:i]
    if edit == "insert":
        return data[:i] + bytes([byte]) + data[i:]
    if not data:
        return data
    out = bytearray(data)
    i %= len(out)
    out[i] = out[i] ^ byte if edit == "flip" else byte
    return bytes(out)


@settings(max_examples=300, deadline=None)
@given(st.lists(artifact_edits, min_size=1, max_size=3))
def test_damaged_artifact_loads_or_raises_an_artifact_error(model, edits):
    path, work = model
    data = path.read_bytes()
    for edit in edits:
        data = damaged(data, *edit)
    target = work / "damaged.flowelm"
    target.write_bytes(data)
    try:
        dataio.load_model(target)
    except (IntegrityError, UnsupportedVersionError):
        pass
