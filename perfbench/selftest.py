"""Self-tests of the benchmark: its checker, its invalid inputs, and a smoke run.

    python3 perfbench/selftest.py          # all tests, about two minutes
    python3 perfbench/selftest.py -k Checker

The smoke tests run every workload for one pass, untraced and traced,
and compare the metric names with BENCHMARK.json.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import unittest
from itertools import product

from run import BENCH, OUT, ROOT, CliRunner, LibraryRunner, import_davote, result, run_passes

import reference as ref
import workloads

davote = import_davote("davote.cli")


def solve(cells, p, is_corr):
    kind = davote.Correspondence if is_corr else davote.Form
    return davote.recognize_tableau(kind(candidates=p, cells=cells))


class CheckerTest(unittest.TestCase):
    def test_corrupted_labeling_is_caught(self):
        rng = random.Random(5)
        for key, is_corr in (((3, 2, 3), True), ((3, 4, 9), False), ((2, 5, 6), True)):
            p = key[0]
            table = ref.outcome_table(*key)
            cells = ref.shuffle_grid(table if is_corr else ref.form_from(table, min), rng)
            lab = solve(cells, p, is_corr).labeling
            rows, cols = list(lab.row_labels), list(lab.col_labels)
            self.assertIsNone(ref.check_labeling(cells, p, rows, cols, is_corr))
            self.assertIsNotNone(ref.check_labeling(cells, p, rows, [cols[1]] + cols[1:], is_corr))
            self.assertIsNotNone(ref.check_labeling(cells, p, rows[:-1], cols, is_corr))
            if is_corr:
                # Columns 0 and j differ, so their labels cannot be swapped.
                j = next(j for j in range(1, len(cols)) if any(row[0] != row[j] for row in cells))
                cols[0], cols[j] = cols[j], cols[0]
                self.assertIsNotNone(ref.check_labeling(cells, p, rows, cols, is_corr))

    def test_corrupted_plane_labeling_is_caught(self):
        weights = (3, 4, 2)
        cells = ref.permute_planes(ref.n_correspondence(weights), weights, random.Random(2))
        res = davote.recognize_tableau(davote.NTableau(weights=weights, kind="correspondence", cells=cells))
        labels = [list(a) for a in res.labeling.axis_labels]
        self.assertIsNone(ref.check_plane_labeling(cells, weights, labels, True))
        labels[1][0], labels[1][-1] = labels[1][-1], labels[1][0]
        self.assertIsNotNone(ref.check_plane_labeling(cells, weights, labels, True))

    def test_wrong_exit_code_and_traceback_are_caught(self):
        runner = CliRunner(in_process=True)
        op = workloads.CliOp("probe", ["recognize", "x.json"], 0)
        self.assertEqual(runner.judge(op, None, (0, "", "")), (None, None))
        reason, _ = runner.judge(op, None, (1, "", ""))
        self.assertIn("expected 0", reason)
        reason, _ = runner.judge(op, None, (0, "", "Traceback (most recent call last):\n"))
        self.assertIn("traceback", reason)

    def test_reference_matches_documented_generation(self):
        # Generation order is documented as reverse-lexicographic; the CLI
        # session compares generated files with the reference cell for cell.
        for key in ((2, 4, 5), (3, 3, 2), (4, 2, 2)):
            corr = davote.generate_correspondence(*key)
            self.assertEqual(corr.cells, ref.outcome_table(*key))


class CorrectGateTest(unittest.TestCase):
    """Any failed timed operation makes a run incorrect, whatever the failure."""

    def run_with(self, call):
        runner = LibraryRunner(davote)
        if call:
            runner.call = call
        op = min(workloads.corr_ops(davote), key=lambda op: op.cells)
        rec, _ = run_passes([op], runner, 1, 0, 0)
        return result((rec,), {}, {}, {})

    def test_right_answer_is_correct(self):
        res = self.run_with(None)
        self.assertTrue(res["correct"])
        self.assertEqual((res["attempted"], res["failed"]), (1, 0))

    def test_raising_operation_is_incorrect(self):
        def call(op, ctx):
            raise RecursionError("maximum recursion depth exceeded")

        res = self.run_with(call)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)

    def test_undecided_is_incorrect(self):
        res = self.run_with(lambda op, ctx: davote.RecognitionResult(verdict=davote.UNDECIDED, method="oracle"))
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)


def small_instances():
    """Every input the benchmark generates with at most 64 cells, for a few seeds."""
    out = []
    ops = workloads.corr_ops(davote) + workloads.form_ops(davote) + workloads.probe_form_ops(davote)
    for seed, (k, op) in product(range(4), enumerate(ops)):
        if op.cells <= 64:
            inp, _ = op.build(workloads.op_rng(seed, 0, k))
            out.append((op.label, inp, op.expect))
    # The same constructions on every small parameter triple, not only the
    # ones the workloads use.
    rng = random.Random(11)
    for p, a, b in product(range(2, 6), range(1, 8), range(1, 8)):
        if len(ref.strategies(p, a)) * len(ref.strategies(p, b)) > 64:
            continue
        table = ref.outcome_table(p, a, b)
        for make, is_corr, expect in ((workloads._valid, True, "accepted"),
                                      (workloads._perturbed, True, "rejected"),
                                      (workloads._tied(2), False, "accepted"),
                                      (workloads._invalid, False, "rejected")):
            kind = davote.Correspondence if is_corr else davote.Form
            out.append((f"{make.__name__} {(p, a, b)}", kind(candidates=p, cells=make(rng, table, p)), expect))
    return out


class OracleAgreementTest(unittest.TestCase):
    def test_oracle_agrees_with_expected_verdicts(self):
        cases = small_instances()
        self.assertGreater(len(cases), 100)
        for label, inp, expect in cases:
            with self.subTest(label):
                report = davote.oracle_recognize(inp)
                self.assertEqual(report.is_dav, expect == "accepted")


class SmokeTest(unittest.TestCase):
    """Each workload once, untraced and traced, with the names BENCHMARK.json lists."""

    @classmethod
    def setUpClass(cls):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.spec = spec
        cls.e2e = {m["name"] for m in spec["end_to_end"]}
        cls.layers = {m["name"] for m in spec["per_layer"]}

    def run_bench(self, cwd, workload, trace):
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0",
               "--trace", str(trace)]
        return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)

    def test_each_workload_once(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))
        for workload, trace in product(workloads.WORKLOADS, (0, 1)):
            with self.subTest(workload=workload, trace=trace):
                r = self.run_bench(ROOT, workload, trace)
                self.assertEqual(r.returncode, 0, r.stderr)
                res = json.loads(r.stdout.strip().splitlines()[-1])
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertEqual(set(res["metrics"]), self.layers if trace else self.e2e)

    def test_refuses_to_run_without_the_package(self):
        bare = OUT / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            r = self.run_bench(bare, "corr-recognize", 0)
            self.assertNotEqual(r.returncode, 0)
            self.assertFalse(r.stdout.strip())
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
