"""Self-tests of the benchmark's own reference computations and inputs.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import itertools
import json
import sys
import unittest

import numpy as np

import inputs
import oracle
import run


def pair_counting_auc(y, s) -> float:
    wins = 0.0
    pos = [v for v, t in zip(s, y) if t == 1]
    neg = [v for v, t in zip(s, y) if t == 0]
    for p, n in itertools.product(pos, neg):
        wins += 1.0 if p > n else 0.5 if p == n else 0.0
    return wins / (len(pos) * len(neg))


TINY_ARTIFACT = """flowelm-model v1
schema.label_column=Label
schema.benign_value=Benign
schema.delimiter=,
schema.exclude_columns=
meta.seed=7
meta.source=hand-built
meta.fingerprint=0
selection.n_original=3
selection.kept=0 2
selection.correlations=0.5 0 -0.4
scaler.means=1 10
scaler.stds=2 5
elm.hidden_nodes=2
elm.activation={activation}
elm.rbf_gamma=0.5
elm.seed=7
elm.n_features=2
feature=a
feature=b
feature=c
matrix.input_weights=2 2
1 -1
0.5 2
matrix.biases=1 2
0.25 -0.5
matrix.output_weights=2 1
0.75
-1.5
end
"""


class AucTest(unittest.TestCase):
    def test_matches_pair_counting_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            y = rng.integers(0, 2, n)
            y[0], y[1] = 0, 1
            s = rng.integers(0, 4, n).astype(float)  # few distinct values: many ties
            self.assertAlmostEqual(oracle.rank_auc(y, s), pair_counting_auc(y, s), places=12)

    def test_extremes(self):
        y = np.array([0, 1, 0, 1])
        self.assertEqual(oracle.rank_auc(y, np.ones(4)), 0.5)
        self.assertEqual(oracle.rank_auc(y, np.array([0.1, 0.9, 0.2, 0.8])), 1.0)


class ScorerTest(unittest.TestCase):
    x = np.array([[3.0, 99.0, 20.0], [-1.0, 0.0, 5.0]])

    def hand_hidden(self, activation):
        # selected columns a and c, z-scored with means (1, 10), stds (2, 5)
        rows = [((3 - 1) / 2, (20 - 10) / 5), ((-1 - 1) / 2, (5 - 10) / 5)]
        out = []
        for a, c in rows:
            if activation == "rbf":  # centers are the weight columns (1, 0.5) and (-1, 2)
                out.append([np.exp(-0.5 * ((a - 1) ** 2 + (c - 0.5) ** 2)),
                            np.exp(-0.5 * ((a + 1) ** 2 + (c - 2) ** 2))])
                continue
            z = [a * 1 + c * 0.5 + 0.25, a * -1 + c * 2 - 0.5]
            f = np.tanh if activation == "tanh" else (lambda v: 1 / (1 + np.exp(-v)))
            out.append([f(v) for v in z])
        return np.array(out)

    def test_each_activation_by_hand(self):
        for activation in ("tanh", "sigmoid", "rbf"):
            art = oracle.parse_artifact(TINY_ARTIFACT.format(activation=activation))
            self.assertEqual(art.kept, (0, 2))
            want = self.hand_hidden(activation) @ np.array([0.75, -1.5])
            np.testing.assert_allclose(oracle.scores(self.x, art), want, rtol=1e-14, atol=1e-15)

    def test_counts_agree_allows_only_near_threshold_records(self):
        y = np.array([1, 0, 1])
        s = np.array([0.9, 0.5 + 1e-12, 0.1])
        report = {"tp": 1, "fp": 0, "tn": 1, "fn": 1, "n_samples": 3}
        self.assertTrue(oracle.counts_agree(report, y, s))  # record 1 sits on the threshold
        self.assertFalse(oracle.counts_agree(dict(report, tp=2, fn=0), y, s))


class RowHandlingTest(unittest.TestCase):
    def test_clean_keeps_first_finite_of_each_duplicate(self):
        x = np.array([[1.0, 2.0], [np.nan, 1.0], [1.0, 2.0], [1.0, 2.0], [3.0, np.inf]])
        y = np.array([0, 0, 0, 1, 1])
        self.assertEqual(oracle.clean_rows(x, y).tolist(), [0, 3])

    def test_xoshiro_follows_the_documented_generator(self):
        sys.path.insert(0, str(run.SRC))
        from flowelm.rng import Rng

        ours, theirs = oracle.Xoshiro(12345), Rng(12345)
        self.assertEqual([ours.next_u64() for _ in range(5)], [theirs.next_u64() for _ in range(5)])

    def test_split_is_a_stratified_partition(self):
        y = np.array([0, 1] * 25 + [1] * 10)
        train, test = oracle.stratified_split(y, 0.8, 7)
        self.assertEqual(sorted(train.tolist() + test.tolist()), list(range(y.size)))
        self.assertEqual((y[train] == 0).sum(), 20)
        self.assertEqual((y[train] == 1).sum(), 28)


class InputsTest(unittest.TestCase):
    def test_schedule_counts(self):
        records = inputs.stream_round([5, 4], 0)
        n_trickle = int(inputs.ROUND_SECONDS * inputs.TRICKLE_RATE)
        self.assertEqual(len(records), n_trickle + inputs.BURSTS * inputs.BURST_RECORDS)
        for b in range(inputs.BURSTS):
            burst = [r for r in records if r.burst == b]
            self.assertEqual(len(burst), inputs.BURST_RECORDS)
            self.assertEqual(len({r.due for r in burst}), 1)
        kinds = [r.kind for r in records]
        self.assertEqual(kinds.count(inputs.NONFINITE), n_trickle // inputs.NONFINITE_EVERY)
        malformed = sum(1 for i in range(n_trickle)
                        if i % inputs.MALFORMED_EVERY == inputs.MALFORMED_EVERY - 1
                        and i % inputs.NONFINITE_EVERY != inputs.NONFINITE_EVERY - 1)
        self.assertEqual(kinds.count(inputs.MALFORMED), malformed)
        dues = [r.due for r in records]
        self.assertEqual(dues, sorted(dues))
        self.assertLess(dues[-1], inputs.ROUND_SECONDS)

    def test_nonfinite_records_do_not_depend_on_the_seed(self):
        def failing(seed):
            return [r.line for r in inputs.stream_round([seed, 4], 0) if r.kind == inputs.NONFINITE]

        self.assertEqual(failing(1), failing(2))
        self.assertTrue(all(any(c in line.split(",") for c in inputs.NONFINITE_CELLS) for line in failing(1)))

    def test_malformed_records_cannot_parse(self):
        width = len(inputs.COLUMNS)
        for r in inputs.stream_round([9, 4], 1):
            cells = r.line.split(",")
            if r.kind == inputs.MALFORMED:
                bad_count = len(cells) != width
                self.assertTrue(bad_count or any(np.isnan(oracle.parse_cell(c)) for c in cells))
            elif r.kind == inputs.FINITE:
                self.assertEqual(len(cells), width)
                self.assertTrue(np.isfinite([float(c) for c in cells]).all())

    def test_capture_shares_and_seed(self):
        a = inputs.labeled_capture([3, 1], 1000)
        self.assertEqual(a.text, inputs.labeled_capture([3, 1], 1000).text)
        self.assertNotEqual(a.text, inputs.labeled_capture([4, 1], 1000).text)
        x, y = oracle.parse_capture(a.text)
        self.assertEqual(x.shape, (1000, len(inputs.COLUMNS)))
        self.assertEqual(int((~np.isfinite(x).all(axis=1)).sum()), a.n_missing)
        self.assertEqual(oracle.clean_rows(x, y).size, 1000 - a.n_missing - a.n_duplicates)


class BenchmarkJsonTest(unittest.TestCase):
    def test_lists_what_the_runs_report(self):
        spec = json.loads(run.BENCHMARK_JSON.read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        want = [(f"{wl}.{n}", u, b) for wl in run.WORKLOADS for n, u, b in run.PER_LAYER[wl]]
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], want)


if __name__ == "__main__":
    unittest.main()
