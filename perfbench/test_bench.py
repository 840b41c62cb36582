"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p "test_*.py"

They run the real program from src/ for short runs, about half a minute.
"""

from __future__ import annotations

import io
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import child
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # census_loop runs in this process


def first_ops(workload: str, seed: int, count: int = 200) -> list:
    return list(itertools.islice(workloads.op_stream(workload, seed), count))


class OperationLists(unittest.TestCase):

    def test_same_seed_same_operations(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(first_ops(workload, 7), first_ops(workload, 7))

    def test_other_seed_other_operations(self):
        for workload in ("explore", "census"):
            self.assertNotEqual(first_ops(workload, 7), first_ops(workload, 8))
        # verify has fixed inputs: the seed is unused
        self.assertEqual(first_ops("verify", 7), first_ops("verify", 8))

    def test_explore_rounds_cover_every_delta(self):
        ops = first_ops("explore", 3, 4 * len(workloads.EXPLORE_DELTAS))
        for i in range(0, len(ops), len(workloads.EXPLORE_DELTAS)):
            deltas = sorted(int(argv[-1]) for argv in
                            ops[i:i + len(workloads.EXPLORE_DELTAS)])
            self.assertEqual(deltas, list(workloads.EXPLORE_DELTAS))

    def test_census_orders(self):
        for seed in (0, 1):
            orders = [order for _expr, order in workloads.census_pool(seed)]
            self.assertEqual(len(orders), workloads.CENSUS_POOL_SIZE)
            self.assertTrue(all(2 <= order <= 64 for order in orders))
            self.assertGreaterEqual(sum(order >= 32 for order in orders),
                                    len(orders) / 3)


class CorruptedReferences(unittest.TestCase):
    """Each reference accepts the program's output and rejects a corruption."""

    def short_run(self, workload: str) -> run.Run:
        bench = run.Run(workload, seed=5, seconds=0.01)
        bench.warm_up()
        return bench

    def test_verify(self):
        bench = self.short_run("verify")
        bench.run(traced=False)
        self.assertEqual(bench.failed, 0)
        table = dict(bench.paper_table)
        table[5] = ("C7", "D14", "Q12")
        bench.paper_table = table
        bench.run(traced=False)
        self.assertGreater(bench.failed / bench.attempted, 0)

    def test_explore(self):
        bench = self.short_run("explore")
        bench.run(traced=True)
        self.assertEqual(bench.failed, 0)
        self.assertEqual(bench.per_layer(["candidates.count.d16"])[
            "candidates.count.d16"], workloads.PINNED_CANDIDATE_COUNTS[16])
        bench.golden = dict(bench.golden)
        bench.golden[9] = bench.golden[9][1:]
        bench.run(traced=False)
        self.assertEqual(bench.failed, 1)
        self.assertGreater(bench.failed / bench.attempted, 0)

    def test_census(self):
        pool = workloads.census_pool(5)[:50]
        out = io.StringIO()
        result = child.census_loop(pool, 60, out)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(len(out.getvalue().splitlines()), len(pool))
        corrupted = [(expr, order + 1) for expr, order in pool]
        result = child.census_loop(corrupted, 60, io.StringIO())
        self.assertEqual(result["failed"], len(pool))

    def test_candidate_counts(self):
        self.assertIsNone(workloads.check_candidate_counts({16: 8525, 7: 1}))
        self.assertIsNotNone(workloads.check_candidate_counts({16: 8524}))


class ReferenceUnits(unittest.TestCase):

    def test_operation_over_the_references_around_it(self):
        bench = run.Run("verify", seed=0, seconds=0)
        bench.references = [0.1, 0.3, 0.2]
        bench.latencies = [0.4, 0.5]
        bench.reference_of = [0, 1]
        for got, want in zip(bench.relative_latencies(), [2.0, 2.0]):
            self.assertAlmostEqual(got, want)


class CommandLine(unittest.TestCase):

    def bench(self, cwd: Path, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
            cwd=cwd, capture_output=True, text=True, timeout=180)

    def test_result_line(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            proc = self.bench(ROOT, "--workload", "census", "--seed", "3",
                              "--seconds", "1", "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(list(result["metrics"]),
                             [m["name"] for m in spec[kind]])

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = self.bench(bare, "--workload", "verify", "--seed", "1",
                              "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
