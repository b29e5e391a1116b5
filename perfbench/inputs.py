"""Seeded inputs for the benchmark: labeled flow captures and the score stream.

Everything here is a pure function of its arguments and uses numpy's PCG64
generator, never the program under test, so the same seed always gives the
same bytes. The README lists the make-up of each input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (name, benign mean, benign std, clip range). Attack categories shift a few
# columns by a handful of benign standard deviations; the shifts are chosen
# so that a width-32 tanh ELM lands near 95 % held-out accuracy, the band
# the source paper reports, instead of separating the classes perfectly.
FEATURES = (
    ("conn_request_rate", 4.0, 1.5, (0.0, np.inf)),
    ("packet_size_mean", 520.0, 180.0, (1.0, np.inf)),
    ("inter_arrival_ms", 120.0, 40.0, (0.0, np.inf)),
    ("distinct_ports", 3.0, 1.2, (0.0, np.inf)),
    ("mqtt_publish_rate", 1.5, 0.6, (0.0, np.inf)),
    ("addr_consistency", 0.97, 0.01, (0.0, 1.0)),
    ("port_entropy", 0.9, 0.35, (0.0, np.inf)),
    ("flow_duration_s", 8.0, 3.0, (0.0, np.inf)),
    ("packet_size_std", 90.0, 30.0, (0.0, np.inf)),
    ("inter_arrival_jitter", 25.0, 8.0, (0.0, np.inf)),
)
NOISE_COLUMNS = ("noise_0", "noise_1")
COLUMNS = tuple(name for name, *_ in FEATURES) + ("proto_tcp", "proto_udp") + NOISE_COLUMNS
LABEL = "Label"

ATTACKS = ("DDoS", "DoS", "Recon", "Spoofing", "MQTT")
SHIFTS = {
    "DDoS": {"conn_request_rate": 6.0, "inter_arrival_ms": -3.0, "packet_size_std": 2.5},
    "DoS": {"conn_request_rate": 6.0, "inter_arrival_ms": -2.5, "packet_size_mean": -2.0},
    "Recon": {"conn_request_rate": 4.0, "distinct_ports": 5.0, "port_entropy": 4.0},
    "Spoofing": {"conn_request_rate": 4.0, "addr_consistency": -6.0, "inter_arrival_jitter": 2.5},
    "MQTT": {"conn_request_rate": 4.0, "mqtt_publish_rate": 6.0, "packet_size_mean": 1.5},
}
TCP_PROBABILITY = {"Benign": 0.7, "DDoS": 0.45, "DoS": 0.45, "Recon": 0.6, "Spoofing": 0.6, "MQTT": 0.6}

# Shares of rows written with a missing or non-finite cell, and of exact
# copies of a clean row. clean() drops both; evaluate skips the first.
MISSING_SHARE = 0.004
DUPLICATE_SHARE = 0.004
MISSING_CELLS = ("", "nan", "inf", "-inf")


def draw_flows(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n flow records, half benign and half attack (attack mix uniform).

    Returns (features, categories), the categories as a string array.
    """
    n_attack = n // 2
    categories = np.array(["Benign"] * (n - n_attack) + list(rng.choice(ATTACKS, n_attack)))
    rng.shuffle(categories)
    x = np.empty((n, len(COLUMNS)))
    for j, (name, mean, std, clip) in enumerate(FEATURES):
        shift = np.zeros(n)
        for category, shifts in SHIFTS.items():
            shift[categories == category] = shifts.get(name, 0.0)
        x[:, j] = np.clip(rng.normal(mean + shift * std, std), *clip)
    p_tcp = np.zeros(n)
    for category, p in TCP_PROBABILITY.items():
        p_tcp[categories == category] = p
    tcp = rng.random(n) < p_tcp
    x[:, len(FEATURES)] = tcp
    x[:, len(FEATURES) + 1] = ~tcp
    x[:, len(FEATURES) + 2 :] = rng.normal(0.0, 1.0, (n, len(NOISE_COLUMNS)))
    return x, categories


def format_rows(x: np.ndarray) -> list[list[str]]:
    """Cells as text; 7 significant digits, and 0/1 flags as integers."""
    return [["%.7g" % v for v in row] for row in x.tolist()]


@dataclass(frozen=True)
class Capture:
    """A labeled CSV plus what the benchmark knows about its rows."""

    text: str
    n_missing: int
    n_duplicates: int


def labeled_capture(seed: int, n: int, dirty: bool = True) -> Capture:
    """Header plus n rows. With dirty, a fixed share of the rows carries a
    missing or non-finite cell and another share repeats a clean row."""
    rng = np.random.default_rng(seed)
    x, categories = draw_flows(rng, n)
    rows = format_rows(x)
    n_missing = n_duplicates = 0
    if dirty:
        n_missing = int(round(n * MISSING_SHARE))
        n_duplicates = int(round(n * DUPLICATE_SHARE))
        picked = rng.choice(np.arange(1, n), n_missing + n_duplicates, replace=False)
        for k, i in enumerate(picked[:n_missing]):
            rows[i][int(rng.integers(len(COLUMNS)))] = MISSING_CELLS[k % len(MISSING_CELLS)]
        sources = rng.choice(np.setdiff1d(np.arange(n), picked), n_duplicates, replace=False)
        for i, source in zip(picked[n_missing:], sources):
            rows[i] = list(rows[source])
            categories[i] = categories[source]
    lines = [",".join(COLUMNS + (LABEL,))]
    lines += [",".join(row) + "," + c for row, c in zip(rows, categories)]
    return Capture("\n".join(lines) + "\n", n_missing, n_duplicates)


def header_only() -> str:
    return ",".join(COLUMNS + (LABEL,)) + "\n"


# ---------------------------------------------------------------------------
# score stream: a fixed open-loop schedule
# ---------------------------------------------------------------------------

# One round of the stream: a steady trickle the scorer keeps up with, plus
# flood bursts offered all at once, faster than any per-record scorer drains.
ROUND_SECONDS = 2.5
TRICKLE_RATE = 2000  # records per second
# The burst is 1/6 of a round's records, so the round's 99th latency
# percentile falls well inside it, and it takes tens of milliseconds to
# drain, so that a millisecond-scale stall of the machine moves its drain
# rate little.
BURSTS = 1
BURST_RECORDS = 1000
MALFORMED_EVERY = 97  # every 97th trickle record is malformed
NONFINITE_EVERY = 151  # every 151st trickle record carries nan/inf/-inf
# A non-finite record is the same fixed text whatever the seed: it fails the
# same way on every run while the scorer lets non-finite values through.
NONFINITE_BASE = ("6.5", "430", "80", "3", "1.4", "0.96", "1.1", "7", "95", "27", "1", "0", "0.3", "-0.2")
NONFINITE_CELLS = ("nan", "inf", "-inf")

FINITE, MALFORMED, NONFINITE = "finite", "malformed", "nonfinite"


@dataclass(frozen=True)
class Record:
    due: float  # seconds after the round starts
    line: str
    kind: str
    label: int  # true class; -1 for records that must be answered ERROR
    burst: int  # burst index, or -1 for trickle records


def stream_round(seed: int, round_index: int) -> list[Record]:
    """The records of one round, in send order (non-decreasing due times)."""
    rng = np.random.default_rng([seed, round_index])
    n_trickle = int(ROUND_SECONDS * TRICKLE_RATE)
    n_total = n_trickle + BURSTS * BURST_RECORDS
    x, categories = draw_flows(rng, n_total)
    rows = format_rows(x)
    labels = (categories != "Benign").astype(int)

    records = []
    burst_times = [ROUND_SECONDS * (b + 0.5) / BURSTS for b in range(BURSTS)]
    for i in range(n_trickle):
        due = i / TRICKLE_RATE
        cells, kind, label = rows[i], FINITE, int(labels[i])
        if i % NONFINITE_EVERY == NONFINITE_EVERY - 1:
            cells = list(NONFINITE_BASE)
            cells[i % len(cells)] = NONFINITE_CELLS[(i // NONFINITE_EVERY) % 3]
            kind, label = NONFINITE, -1
        elif i % MALFORMED_EVERY == MALFORMED_EVERY - 1:
            cells = list(cells)
            if (i // MALFORMED_EVERY) % 2:
                cells = cells[:-1]  # wrong field count
            else:
                cells[int(rng.integers(len(cells)))] = "0x1f"  # unparseable cell
            kind, label = MALFORMED, -1
        records.append(Record(due, ",".join(cells), kind, label, -1))
    for b, start in enumerate(burst_times):
        base = n_trickle + b * BURST_RECORDS
        for k in range(BURST_RECORDS):
            i = base + k
            records.append(Record(start, ",".join(rows[i]), FINITE, int(labels[i]), b))
    records.sort(key=lambda r: r.due)  # stable: a burst goes after trickle records due with it
    return records
