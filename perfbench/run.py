"""Benchmark of the flowelm CLI: four workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --steadiness RUNS --seconds S

Run from the root of a source checkout. The program runs as child processes
of this script, straight from src/, with one BLAS/OpenMP thread. Inputs are
made from --seed and cached under perfbench/work/ before anything is timed.
With --trace 0 the last line of stdout is a JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric, taken by
running each workload's command once untraced and once under tracer.py.
--steadiness runs one workload in two sets of RUNS runs each, with fresh
seeds, and prints each metric's median, quartiles and drift between sets.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# One BLAS/OpenMP thread: a second OpenBLAS thread only spins during the
# solver's dot products, and artifacts are byte-identical only per setting.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
PROGRAM_SEED = "7"  # the program's own --seed; inputs vary with the benchmark seed
SETUP_LAUNCHES = 9
MIN_LAUNCHES = 3  # batch commands per run, however long they take
MIN_ROUNDS = 3  # score-stream rounds per run
FIT_TOLERANCE = 1e-8  # relative distance of fitted values from numpy's lstsq
WORKLOADS = ("train-tall", "grid-cv", "evaluate-bulk", "score-stream")

# The fixed artifact that evaluate-bulk and score-stream use: width 64 tanh,
# trained by the program on a capture whose seed no workload input uses.
ARTIFACT_ROWS = 4000
ARTIFACT_CAPTURE_SEED = [0, 0]


# With two or more CPUs the program gets the last one to itself and this
# script's threads (the stream's writer and reader) share the others, so the
# scheduler never puts the two on one CPU.
_CPUS = sorted(os.sched_getaffinity(0))
PROGRAM_CPUS = {_CPUS[-1]} if len(_CPUS) > 1 else set(_CPUS)
BENCHMARK_CPUS = set(_CPUS[:-1]) or set(_CPUS)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(PINNED_ENV)
    return env


# ---------------------------------------------------------------------------
# launching the program
# ---------------------------------------------------------------------------


@dataclass
class Launch:
    wall: float
    cpu: float
    rss_mib: float
    code: int
    out: str
    err: str


PEAK_FILE = "peak_rss_kb.txt"


def command(argv: list[str], spans: Path | None) -> list[str]:
    """`python3 -m flowelm ARGV` through peak.py, or under tracer.py."""
    if spans is None:
        return [sys.executable, str(HERE / "peak.py"), PEAK_FILE, "flowelm", *argv]
    return [sys.executable, str(HERE / "tracer.py"), str(spans), *argv]


def start(argv: list[str], cwd: Path, spans: Path | None, **streams) -> subprocess.Popen:
    (cwd / PEAK_FILE).unlink(missing_ok=True)
    proc = subprocess.Popen(command(argv, spans), cwd=cwd, env=child_env(), **streams)
    os.sched_setaffinity(proc.pid, PROGRAM_CPUS)
    return proc


def reap(proc: subprocess.Popen, started: float, cwd: Path):
    """Wait for the child; returns (wall seconds, CPU seconds, peak RSS MiB).
    The peak is NaN when the child did not record it (a traced launch)."""
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak = cwd / PEAK_FILE
    rss = int(peak.read_text()) / 1024.0 if peak.exists() else float("nan")
    return wall, usage.ru_utime + usage.ru_stime, rss


def launch(argv: list[str], cwd: Path, spans: Path | None = None) -> Launch:
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = start(argv, cwd, spans, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        wall, cpu, rss = reap(proc, started, cwd)
    return Launch(wall, cpu, rss, proc.returncode, out_path.read_text(), err_path.read_text())


# ---------------------------------------------------------------------------
# inputs, generated once per seed
# ---------------------------------------------------------------------------


def cached(path: Path, make, stale: str) -> Path:
    """Write make() to path unless it is there, first deleting the files
    matching the glob stale (earlier seeds' inputs)."""
    if not path.exists():
        for old in path.parent.glob(stale):
            old.unlink()
        tmp = path.with_suffix(".tmp")
        tmp.write_text(make())
        tmp.replace(path)
    return path


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "flowelm").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()[:16]


def fixed_artifact() -> Path:
    """The program's own model of a fixed capture, rebuilt when src/ changes."""
    work = WORK / "artifact"
    work.mkdir(parents=True, exist_ok=True)
    path = work / f"model-{source_digest()}.flowelm"
    if not path.exists():
        capture = work / "capture.csv"
        capture.write_text(inputs.labeled_capture(ARTIFACT_CAPTURE_SEED, ARTIFACT_ROWS, dirty=False).text)
        run = launch(["train", "--input", capture.name, "--model", "model.tmp", "--hidden", "64",
                      "--activation", "tanh", "--seed", PROGRAM_SEED], work)
        if run.code != 0:
            raise SystemExit(f"training the fixed artifact failed ({run.code}): {run.err}")
        for old in work.glob("model-*.flowelm"):
            old.unlink()
        (work / "model.tmp").replace(path)
    return path


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload measured and found."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# batch workloads: train-tall, grid-cv, evaluate-bulk
# ---------------------------------------------------------------------------


class BatchWorkload:
    """One CLI command launched repeatedly on one seeded input."""

    name = ""
    rows = 0
    capture_tag = 0  # keeps each workload's inputs apart for one seed

    def prepare(self, seed: int) -> None:
        self.work = WORK / self.name
        self.work.mkdir(parents=True, exist_ok=True)
        self.capture = cached(
            self.work / f"capture-s{seed}.csv",
            lambda: inputs.labeled_capture([seed, self.capture_tag], self.rows).text,
            "capture-s*",
        )
        (self.work / "header.csv").write_text(inputs.header_only())

    def argv(self) -> list[str]:
        raise NotImplementedError

    def noop_argv(self) -> list[str]:
        """The same command on a header-only file: everything but the records."""
        raise NotImplementedError

    def outputs(self, run: Launch) -> tuple:
        """Everything the command produced, compared byte for byte across launches."""
        return (run.out,)

    def verify(self, run: Launch, outcome: Outcome) -> float:
        """Checks the outputs of one launch; returns the F1 of its verdicts."""
        raise NotImplementedError


def trained_model_check(work: Path, capture: Path, outcome: Outcome) -> float:
    """train/grid: selection, scaler and fit against numpy; report against
    our own count on the held-out rows. Returns the held-out F1."""
    art = oracle.parse_artifact((work / "model.flowelm").read_text())
    report = oracle.parse_report((work / "model.report.txt").read_text())
    x, y = oracle.parse_capture(capture.read_text())
    keep = oracle.clean_rows(x, y)
    x, y = x[keep], y[keep]
    outcome.check(oracle.selected_columns(x, y) == art.kept, "selected columns differ from the reference")
    train, test = oracle.stratified_split(y, 0.8, int(PROGRAM_SEED))
    kept = x[train][:, list(art.kept)]
    outcome.check(np.allclose(kept.mean(axis=0), art.means, rtol=1e-9, atol=1e-12)
                  and np.allclose(kept.std(axis=0), art.stds, rtol=1e-9), "scaler differs from the training rows")
    h = oracle.hidden(oracle.scale(x[train], art), art)
    mismatch = oracle.fit_mismatch(h, y[train], art.beta)
    outcome.check(mismatch <= FIT_TOLERANCE, f"fitted values differ from numpy lstsq by {mismatch:.3g}")
    s = oracle.scores(x[test], art)
    outcome.check(oracle.counts_agree(report, y[test], s), "report confusion differs from the held-out count")
    return oracle.f1(oracle.confusion(y[test], (s >= oracle.THRESHOLD).astype(np.int64)))


class TrainTall(BatchWorkload):
    name, rows, capture_tag = "train-tall", 20000, 1

    def argv(self):
        return ["train", "--input", self.capture.name, "--model", "model.flowelm", "--report",
                "model.report.txt", "--hidden", "32", "--activation", "tanh", "--seed", PROGRAM_SEED]

    def noop_argv(self):
        return ["train", "--input", "header.csv", "--model", "noop.flowelm"]

    def outputs(self, run):
        return (run.out, (self.work / "model.flowelm").read_bytes(), (self.work / "model.report.txt").read_bytes())

    def verify(self, run, outcome):
        return trained_model_check(self.work, self.capture, outcome)


GRID_HIDDEN = (8, 16, 32)
GRID_ACTIVATIONS = ("tanh", "sigmoid", "rbf")


class GridCv(TrainTall):
    name, rows, capture_tag = "grid-cv", 2000, 2

    def argv(self):
        return ["grid", "--input", self.capture.name, "--model", "model.flowelm", "--report",
                "model.report.txt", "--hidden", ",".join(map(str, GRID_HIDDEN)),
                "--activation", ",".join(GRID_ACTIVATIONS), "--folds", "5", "--seed", PROGRAM_SEED]

    def noop_argv(self):
        return ["grid", "--input", "header.csv", "--model", "noop.flowelm"]

    def verify(self, run, outcome):
        board = [line.split() for line in run.out.splitlines() if line.startswith("  hidden=")]
        outcome.check(not any("FAILED:" in line for line in board), "a grid configuration failed")
        entries = []
        for words in board:
            fields = dict(w.split("=", 1) for w in words if "=" in w)
            entries.append((int(fields["hidden"]), fields["activation"], float(fields.get("gamma", 1)),
                            float(fields.get("mean", "nan")), float(fields.get("std", "nan"))))
        configs = sorted((h, a) for h, a, *_ in entries)
        outcome.check(configs == sorted((h, a) for h in GRID_HIDDEN for a in GRID_ACTIVATIONS),
                      "leaderboard does not list each configuration once")
        for first, second in zip(entries, entries[1:]):
            outcome.check(first[3] >= second[3], "leaderboard not ordered by mean")
            if first[3:] == second[3:]:  # a tie as far as the printout shows
                tie_key = lambda e: (e[0], GRID_ACTIVATIONS.index(e[1]), e[2])  # noqa: E731
                outcome.check(tie_key(first) < tie_key(second), "leaderboard tie-break out of order")
        art = oracle.parse_artifact((self.work / "model.flowelm").read_text())
        if entries:
            outcome.check((art.hidden_nodes, art.activation) == entries[0][:2],
                          "saved model is not the leaderboard's top configuration")
        return trained_model_check(self.work, self.capture, outcome)


class EvaluateBulk(BatchWorkload):
    name, rows, capture_tag = "evaluate-bulk", 100000, 3

    def prepare(self, seed):
        super().prepare(seed)
        self.artifact = fixed_artifact()

    def argv(self):
        return ["evaluate", "--model", str(self.artifact), "--input", self.capture.name,
                "--report", "eval.report.txt"]

    def noop_argv(self):
        return ["evaluate", "--model", str(self.artifact), "--input", "header.csv"]

    def outputs(self, run):
        return (run.out, (self.work / "eval.report.txt").read_bytes())

    def verify(self, run, outcome):
        art = oracle.parse_artifact(self.artifact.read_text())
        report = oracle.parse_report((self.work / "eval.report.txt").read_text())
        x, y = oracle.parse_capture(self.capture.read_text())
        usable = np.isfinite(x).all(axis=1)
        s = oracle.scores(x[usable], art)
        outcome.check(oracle.counts_agree(report, y[usable], s), "report confusion differs from our count")
        auc = oracle.rank_auc(y[usable], s)
        outcome.check(abs(report["auc_roc"] - auc) <= 1e-9, f"AUC {report['auc_roc']} differs from {auc}")
        return oracle.f1(oracle.confusion(y[usable], (s >= oracle.THRESHOLD).astype(np.int64)))


class SetupTimer:
    """Times launches that process no record. One goes before each measured
    operation, so they sample the whole run, and the run tops them up to
    SETUP_LAUNCHES at the end; one untimed launch warms up first."""

    def __init__(self, argv: list[str], cwd: Path, codes: tuple[int, ...], outcome: Outcome):
        self.argv, self.cwd, self.codes, self.outcome = argv, cwd, codes, outcome
        self.walls: list[float] = []
        launch(argv, cwd)

    def time_one(self) -> None:
        run = launch(self.argv, self.cwd)
        self.outcome.check(run.code in self.codes, f"no-record launch exited {run.code}: {run.err[-300:]}")
        self.walls.append(run.wall)

    def median(self) -> float:
        while len(self.walls) < SETUP_LAUNCHES:
            self.time_one()
        return median(self.walls)


def run_batch(wl: BatchWorkload, seconds: float) -> Outcome:
    outcome = Outcome()
    setup = SetupTimer(wl.noop_argv(), wl.work, (0, 2), outcome)
    runs, first = [], None
    started = time.perf_counter()
    while len(runs) < MIN_LAUNCHES or time.perf_counter() - started < seconds:
        setup.time_one()
        run = launch(wl.argv(), wl.work)
        runs.append(run)
        outcome.attempted += 1
        if run.code != 0:
            outcome.failed += 1
            outcome.check(False, f"{wl.name} exited {run.code}: {run.err[-300:]}")
            continue
        produced = wl.outputs(run)
        first = first or produced
        outcome.check(produced == first, "outputs differ between two launches of the same command")
    done = [r for r in runs if r.code == 0]
    # The files now hold the last launch's outputs, byte-identical to the first's.
    f1 = wl.verify(done[-1], outcome) if done else float("nan")
    done = done or runs
    wall = median(r.wall for r in done)
    # Every record of a batch command gets its verdict when the command
    # exits, so its verdict latency is the launch's wall time, and records
    # per second are the rows over that time.
    outcome.metrics = {
        "setup_s": (setup.median(), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (median(r.cpu for r in done), "s"),
        "peak_rss_mib": (median(r.rss_mib for r in done), "MiB"),
        "records_per_s": (wl.rows / wall, "1/s"),
        "verdict_p50_ms": (wall * 1e3, "ms"),
        "verdict_p99_ms": (wall * 1e3, "ms"),
        "f1": (f1, "ratio"),
    }
    return outcome


# ---------------------------------------------------------------------------
# score-stream: one scorer per round, fed on a fixed open-loop schedule
# ---------------------------------------------------------------------------

LEAD_SECONDS = 0.05  # between the warm-up verdict and the first due time
WARMUP_LINE = ",".join(inputs.NONFINITE_BASE)


@dataclass
class Round:
    records: list
    verdicts: list[str]
    arrived: np.ndarray  # arrival time of each record's verdict
    due: np.ndarray  # absolute due time of each record
    late: np.ndarray  # how late the generator sent each group of records
    wall: float
    cpu: float
    rss_mib: float
    code: int


def keep_awake() -> list[subprocess.Popen]:
    """A busy loop at SCHED_IDLE priority on each CPU, so that no CPU halts
    between records. Waking a halted virtual CPU waits on the host's
    scheduler, which on a loaded host swamped sub-millisecond latencies; a
    SCHED_IDLE task yields the moment any other task becomes runnable."""
    spinners = []
    for cpu in sorted(PROGRAM_CPUS | BENCHMARK_CPUS):
        proc = subprocess.Popen([sys.executable, "-c", "while True: pass"], stdin=subprocess.DEVNULL)
        os.sched_setaffinity(proc.pid, {cpu})
        os.sched_setscheduler(proc.pid, os.SCHED_IDLE, os.sched_param(0))
        spinners.append(proc)
    return spinners


def serve_round(artifact: Path, records: list, cwd: Path, spans: Path | None = None) -> Round:
    """Launch a scorer, wait for its warm-up verdict, then send each record
    at its due time from this thread while a second thread reads verdicts."""
    argv = ["score", "--model", str(artifact), "--input", "-"]
    spinners = keep_awake()
    started = time.perf_counter()
    with open(cwd / "stderr.txt", "wb") as err:
        proc = start(argv, cwd, spans, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err)
    arrivals: list[tuple[float, bytes]] = []
    first = threading.Event()

    def read():
        for line in proc.stdout:
            arrivals.append((time.perf_counter(), line))
            first.set()
        first.set()

    reader = threading.Thread(target=read)
    reader.start()
    groups: list[tuple[float, list]] = []
    for r in records:
        if groups and groups[-1][0] == r.due:
            groups[-1][1].append(r.line)
        else:
            groups.append((r.due, [r.line]))
    due = np.empty(len(records))
    late = np.empty(len(groups))
    try:
        proc.stdin.write((WARMUP_LINE + "\n").encode())
        proc.stdin.flush()
        first.wait(timeout=120)
        t0 = time.perf_counter() + LEAD_SECONDS
        k = 0
        for g, (offset, lines) in enumerate(groups):
            target = t0 + offset
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late[g] = time.perf_counter() - target
            proc.stdin.write(("\n".join(lines) + "\n").encode())
            proc.stdin.flush()
            due[k : k + len(lines)] = target
            k += len(lines)
        proc.stdin.close()
    except BrokenPipeError:
        pass
    finally:
        reader.join()
        wall, cpu, rss = reap(proc, started, cwd)
        for spinner in spinners:
            spinner.kill()
            spinner.wait()
    lines = [line.decode().rstrip("\n") for _, line in arrivals]
    times = np.array([t for t, _ in arrivals])
    return Round(records, lines[1:], times[1:], due, late, wall, cpu, rss, proc.returncode)


def batch_labels(artifact: Path, x: np.ndarray) -> np.ndarray:
    """The program's own batch path on the same records (for equality of
    stream and batch verdicts)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from flowelm import dataio, elm, preprocess

    art = dataio.load_model(str(artifact))
    selected = x[:, list(art.selection.kept_indices)]
    return elm.predict(art.model, preprocess.apply_scaler(art.scaler, selected))


def check_round(rnd: Round, art: oracle.Artifact, artifact: Path, outcome: Outcome):
    """Verdict per record, contiguous ordinals, labels against the reference
    and the batch path, ERROR for malformed and non-finite records.

    Returns (program labels, true labels) of the finite records; counts
    each record that needed ERROR but got a score, or the reverse, as failed.
    """
    n = len(rnd.records)
    outcome.check(rnd.code == 0, f"scorer exited {rnd.code}")
    outcome.check(len(rnd.verdicts) == n and len(rnd.arrived) == n,
                  f"{len(rnd.verdicts)} verdicts for {n} records")
    parts = [v.split(",", 2) for v in rnd.verdicts[:n]]
    outcome.check(all(p[0] == str(i + 1) for i, p in enumerate(parts)), "verdict ordinals not contiguous")
    finite_idx, finite_x, got = [], [], []
    for i, (record, p) in enumerate(zip(rnd.records, parts)):
        is_error = len(p) > 1 and p[1] == "ERROR"
        if record.kind != inputs.FINITE:
            if not is_error:
                outcome.failed += 1  # answered with a score: fails open
            continue
        if is_error or len(p) != 3:
            outcome.failed += 1
            continue
        finite_idx.append(i)
        finite_x.append([float(c) for c in record.line.split(",")])
        got.append((float(p[1]), int(p[2])))
    if not finite_idx:
        return np.empty(0, int), np.empty(0, int)
    x = np.array(finite_x)
    program_score = np.array([s for s, _ in got])
    program_label = np.array([label for _, label in got])
    ref = oracle.scores(x, art)
    free = np.abs(ref - oracle.THRESHOLD) <= oracle.NEAR
    outcome.check(np.all(np.abs(program_score - ref) <= 1e-9 * np.maximum(1, np.abs(ref))),
                  "stream scores differ from the reference")
    outcome.check(np.all(free | (program_label == (ref >= oracle.THRESHOLD))),
                  "stream labels differ from the reference")
    outcome.check(np.all(free | (program_label == batch_labels(artifact, x))),
                  "stream labels differ from the program's batch labels")
    truth = np.array([rnd.records[i].label for i in finite_idx])
    return program_label, truth


def drain_rates(rounds: list[Round]) -> list[float]:
    """Per burst, records answered per second while its backlog exists: from
    the burst's due time until its last record is answered."""
    rates = []
    for rnd in rounds:
        bursts = np.array([r.burst for r in rnd.records])
        for b in range(inputs.BURSTS):
            mine = bursts == b
            start, end = rnd.due[mine][0], rnd.arrived[mine].max()
            rates.append(((rnd.arrived > start) & (rnd.arrived <= end)).sum() / (end - start))
    return rates


class ScoreStream:
    name = "score-stream"
    capture_tag = 4

    def prepare(self, seed: int) -> None:
        self.work = WORK / self.name
        self.work.mkdir(parents=True, exist_ok=True)
        self.artifact = fixed_artifact()
        self.art = oracle.parse_artifact(self.artifact.read_text())
        self.seed = seed
        self.schedules = {}

    def schedule(self, index: int) -> list:
        if index not in self.schedules:
            self.schedules[index] = inputs.stream_round([self.seed, self.capture_tag], index)
        return self.schedules[index]


def run_stream(wl: ScoreStream, seconds: float) -> Outcome:
    outcome = Outcome()
    setup = SetupTimer(["score", "--model", str(wl.artifact), "--input", "-"], wl.work, (0,), outcome)
    for index in range(max(MIN_ROUNDS, int(seconds / inputs.ROUND_SECONDS) + 1)):
        wl.schedule(index)  # generate before timing

    rounds = []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        setup.time_one()
        rounds.append(serve_round(wl.artifact, wl.schedule(len(rounds)), wl.work))
    labels, truth = [], []
    for rnd in rounds:
        outcome.attempted += len(rnd.records)
        got, want = check_round(rnd, wl.art, wl.artifact, outcome)
        labels.append(got)
        truth.append(want)
    # Latency percentiles per round, then the median over rounds, so that a
    # stall of the machine during one round moves the run's figure little.
    latency = [r.arrived - r.due for r in rounds if len(r.arrived) == len(r.due)] or [np.array([np.nan])]
    cm = oracle.confusion(np.concatenate(truth), np.concatenate(labels))
    outcome.metrics = {
        "setup_s": (setup.median(), "s"),
        "wall_s": (median(r.wall for r in rounds), "s"),
        "cpu_s": (median(r.cpu for r in rounds), "s"),
        "peak_rss_mib": (median(r.rss_mib for r in rounds), "MiB"),
        "records_per_s": (median(drain_rates(rounds)) if not outcome.problems else float("nan"), "1/s"),
        "verdict_p50_ms": (median(np.percentile(lat, 50) for lat in latency) * 1e3, "ms"),
        "verdict_p99_ms": (median(np.percentile(lat, 99) for lat in latency) * 1e3, "ms"),
        "f1": (oracle.f1(cm), "ratio"),
    }
    print(json.dumps({"generator_late_ms": {
        "p50": float(np.percentile(np.concatenate([r.late for r in rounds]), 50)) * 1e3,
        "p99": float(np.percentile(np.concatenate([r.late for r in rounds]), 99)) * 1e3}}))
    return outcome


def make_workload(name: str):
    return {"train-tall": TrainTall, "grid-cv": GridCv, "evaluate-bulk": EvaluateBulk,
            "score-stream": ScoreStream}[name]()


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def span_totals(trace: dict) -> dict:
    """Per span name: inclusive seconds, self CPU seconds (the span's thread
    CPU time minus its children's), calls and the summed counts."""
    spans = trace["spans"]
    child_cpu = [0.0] * len(spans)
    for name, t0, t1, parent, c0, c1, _ in spans:
        if parent >= 0:
            child_cpu[parent] += c1 - c0
    totals: dict = {}
    for i, (name, t0, t1, parent, c0, c1, extra) in enumerate(spans):
        entry = totals.setdefault(name, {"s": 0.0, "self_cpu_s": 0.0, "calls": 0, "extra": {}})
        entry["s"] += t1 - t0
        entry["self_cpu_s"] += c1 - c0 - child_cpu[i]
        entry["calls"] += 1
        for key, value in (extra or {}).items():
            if isinstance(value, str):
                key = f"{key}={value}"
                value = t1 - t0  # time per kind, e.g. activation=rbf
            entry["extra"][key] = entry["extra"].get(key, 0) + value
    return totals


def layer_values(trace: dict, records: int = 0, errors: int = 0) -> dict[str, float]:
    t = span_totals(trace)

    def s(name):
        return t.get(name, {}).get("s", 0.0)

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    def extra(name, key):
        return t.get(name, {}).get("extra", {}).get(key, 0)

    svd_calls = calls("linalg.svd")
    return {
        "dataio.load_csv.s": s("dataio.load_csv"),
        "dataio.load_csv.rows": extra("dataio.load_csv", "rows"),
        "dataio.load_csv.peak_mib": trace["probe"].get("load_csv_peak_bytes", 0) / 2**20,
        "dataio.load_model.s": s("dataio.load_model"),
        "dataio.save_model.s": s("dataio.save_model"),
        "preprocess.clean.s": s("preprocess.clean"),
        "preprocess.clean.rows_dropped": extra("preprocess.clean", "dropped"),
        "preprocess.split.s": s("preprocess.split"),
        "preprocess.select_features.s": s("preprocess.select_features"),
        "preprocess.scaler.s": s("preprocess.fit_scaler") + s("preprocess.apply_scaler"),
        "preprocess.apply_scaler.calls": calls("preprocess.apply_scaler"),
        "rng.init_random.s": s("elm.init_random"),
        "rng.draws": extra("elm.init_random", "draws"),
        "elm.hidden_layer.s": s("elm.hidden_layer"),
        "elm.hidden_layer.rbf.s": extra("elm.hidden_layer", "activation=rbf"),
        "elm.fit.calls": calls("elm.fit"),
        "elm.score.s": s("elm.score"),
        "elm.score.calls": calls("elm.score"),
        "elm.score.rows_per_call": extra("elm.score", "rows") / max(calls("elm.score"), 1),
        "linalg.lstsq.s": s("linalg.lstsq"),
        "linalg.svd.s": s("linalg.svd"),
        "linalg.lstsq.calls": calls("linalg.lstsq"),
        "linalg.lstsq.flops": extra("linalg.lstsq", "flops"),
        "linalg.rank_ratio": extra("linalg.svd", "rank_ratio") / max(svd_calls, 1),
        "metrics.evaluate.s": s("metrics.evaluate"),
        "metrics.auc_roc.s": s("metrics.auc_roc"),
        "model_select.grid_search.s": s("model_select.grid_search"),
        "model_select.kfold_indices.s": s("model_select.kfold_indices"),
        "model_select.useful_config_ratio": extra("model_select.grid_search", "useful")
        / max(extra("model_select.grid_search", "configs"), 1),
        "cli.score.per_record_us": t.get("cli.cmd_score", {}).get("self_cpu_s", 0.0) / max(records, 1) * 1e6,
        "cli.score.errors": errors,
    }


# Per-layer metrics of each workload: (name, unit, better). Each is named
# after the module and public function it times or counts.
def _times(*names):
    return [(n, "s", "lower") for n in names]


_FIT_LAYERS = (
    [("dataio.load_csv.rows", "count", "higher"), ("dataio.load_csv.peak_mib", "MiB", "lower"),
     ("preprocess.clean.rows_dropped", "count", "lower"), ("preprocess.apply_scaler.calls", "count", "lower"),
     ("rng.draws", "count", "lower"), ("elm.fit.calls", "count", "lower"),
     ("elm.score.calls", "count", "lower"), ("elm.score.rows_per_call", "rows/call", "higher"),
     ("linalg.lstsq.calls", "count", "lower"), ("linalg.lstsq.flops", "flop-computed", "lower"),
     ("linalg.rank_ratio", "ratio", "higher")]
    + _times("dataio.load_csv.s", "dataio.save_model.s", "preprocess.clean.s", "preprocess.split.s",
             "preprocess.select_features.s", "preprocess.scaler.s", "rng.init_random.s",
             "elm.hidden_layer.s", "elm.score.s", "linalg.lstsq.s", "linalg.svd.s",
             "metrics.evaluate.s", "metrics.auc_roc.s")
)
_SCORE_LAYERS = (
    [("preprocess.apply_scaler.calls", "count", "lower"), ("elm.score.calls", "count", "lower"),
     ("elm.score.rows_per_call", "rows/call", "higher")]
    + _times("dataio.load_model.s", "preprocess.scaler.s", "elm.hidden_layer.s", "elm.score.s")
)
PER_LAYER = {
    "train-tall": _FIT_LAYERS,
    "grid-cv": _FIT_LAYERS
    + [("model_select.useful_config_ratio", "ratio", "higher")]
    + _times("elm.hidden_layer.rbf.s", "model_select.grid_search.s", "model_select.kfold_indices.s"),
    "evaluate-bulk": _SCORE_LAYERS
    + [("dataio.load_csv.rows", "count", "higher"), ("dataio.load_csv.peak_mib", "MiB", "lower")]
    + _times("dataio.load_csv.s", "metrics.evaluate.s", "metrics.auc_roc.s"),
    "score-stream": _SCORE_LAYERS
    + [("cli.score.per_record_us", "us", "lower"), ("cli.score.errors", "count", "higher"),
       ("generator.late_p99_ms", "ms", "lower")],
}
for _layers in PER_LAYER.values():
    _layers.append(("trace.overhead_s", "s", "lower"))


def trace_workload(name: str, seed: int) -> tuple[Outcome, dict[str, float]]:
    """One untraced and one traced execution of the workload's operation."""
    wl = make_workload(name)
    wl.prepare(seed)
    outcome = Outcome()
    spans_path = wl.work / "spans.json"
    if isinstance(wl, ScoreStream):
        records = wl.schedule(0)
        plain = serve_round(wl.artifact, records, wl.work)
        traced = serve_round(wl.artifact, records, wl.work, spans_path)
        for rnd in (plain, traced):
            outcome.attempted += len(records)
            check_round(rnd, wl.art, wl.artifact, outcome)
        trace = json.loads(spans_path.read_text())
        errors = sum(1 for v in traced.verdicts if v.split(",")[1:2] == ["ERROR"])
        values = layer_values(trace, records=len(records), errors=errors)
        values["generator.late_p99_ms"] = float(np.percentile(plain.late, 99)) * 1e3
    else:
        launch(wl.noop_argv(), wl.work)  # warm-up
        plain = launch(wl.argv(), wl.work)
        traced = launch(wl.argv(), wl.work, spans_path)
        for run in (plain, traced):
            outcome.attempted += 1
            outcome.failed += run.code != 0
            outcome.check(run.code == 0, f"{name} exited {run.code}: {run.err[-300:]}")
        if traced.code == 0:
            wl.verify(traced, outcome)
        trace = json.loads(spans_path.read_text())
        values = layer_values(trace)
    values["trace.overhead_s"] = traced.wall - trace["probe"].get("probe_seconds", 0.0) - plain.wall
    return outcome, {f"{name}.{key}": (values[key], unit) for key, unit, _ in PER_LAYER[name]}


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": PINNED_ENV["OPENBLAS_NUM_THREADS"],
    }


def run_once(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        # Every per-layer metric is named after its workload, so a traced
        # run visits all four workloads; attempted/failed are the named one's.
        outcome, metrics, problems = None, {}, []
        for other in WORKLOADS:
            got, values = trace_workload(other, seed)
            metrics.update(values)
            problems += [f"{other}: {p}" for p in got.problems]
            if other == name:
                outcome = got
        outcome.problems = problems
        outcome.metrics = metrics
    else:
        wl = make_workload(name)
        wl.prepare(seed)
        outcome = (run_stream if isinstance(wl, ScoreStream) else run_batch)(wl, seconds)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }


def steadiness(name: str, runs: int, seconds: int, first_seed: int) -> dict:
    """Two sets of runs with fresh seeds: per metric, each set's quartiles,
    the spread (interquartile distance over median) and the drift of the
    second median against the first, in the worse direction, next to the
    bound from BENCHMARK.json."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = []
    for s in range(2):
        results = []
        for k in range(runs):
            seed = first_seed + s * runs + k
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"set {s + 1} seed {seed}: " + json.dumps(result), flush=True)
            results.append(result)
        sets.append(results)
    summary = {"workload": name, "runs_per_set": runs, "seconds": seconds, "metrics": {}, "failed_share": []}
    for results in sets:
        summary["failed_share"].append(
            sorted({f"{r['failed']}/{r['attempted']}" for r in results}))
    for metric, spec_entry in bounds.items():
        rows = []
        for results in sets:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            rows.append({"q1": q1, "median": q2, "q3": q3, "spread": (q3 - q1) / q2})
        sign = 1 if spec_entry["better"] == "lower" else -1
        drift = sign * (rows[1]["median"] - rows[0]["median"]) / rows[0]["median"]
        summary["metrics"][metric] = {"sets": rows, "drift": drift, "bound": spec_entry["bound"]}
        print(f"{metric:16s} bound {spec_entry['bound']:.2f}  "
              + "  ".join(f"set{i + 1} median {r['median']:.6g} q1 {r['q1']:.6g} q3 {r['q3']:.6g} "
                          f"spread {r['spread']:.4f}" for i, r in enumerate(rows))
              + f"  drift {drift:+.4f}")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS", default=0,
                        help="run two sets of RUNS runs and compare them")
    args = parser.parse_args()
    if not (SRC / "flowelm" / "cli.py").is_file():
        print(f"perfbench: no flowelm sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.steadiness:
        print(json.dumps(steadiness(args.workload, args.steadiness, args.seconds, args.seed)))
        return 0
    os.sched_setaffinity(0, BENCHMARK_CPUS)
    print(json.dumps({"machine": machine_facts()}))
    print(json.dumps(run_once(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
