"""groupcensus benchmark: three closed-loop workloads with one client.

    python3 perfbench/run.py --workload verify|explore|census \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is taken from that
checkout's src/.  Every workload runs with at most one child process alive:

  verify   each operation is a fresh ``python -m groupcensus verify --all``;
  explore  each operation is a fresh ``python -m groupcensus explore --delta
           d``, every d in 6..16 once per round, rounds shuffled by the seed;
  census   a worker process runs parse_group + census over a seeded pool
           of expressions for CENSUS_STRETCH_S, then the next goes on where
           it stopped (one worker for the whole of a traced run).

Every output is checked against a reference of the benchmark's own (see
workloads.py).  With --trace 0 the last line reports the end-to-end metrics
of BENCHMARK.json; with --trace 1 it reports the per-layer metrics, taken by
wrapping the library's public functions in separate child processes (see
tracer.py).  The line before it records the environment, the sample counts,
the bases of every ratio and the raw wall-clock latencies.

The end-to-end latencies are given in units of a reference process: each
operation's wall time over the mean wall time of a fixed pure-Python process,
which does not import groupcensus, timed just before and just after it.  On a
shared host the CPU speed switches between states some 50% apart every few
seconds, so that a run's wall times drift by 10-30% with the share of time it
spent in each; the ratio drifts by a third of that or less.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = str(HERE / "child.py")

SETUP_REPEATS = 5
OP_TIMEOUT_S = 120
# The reference process: interpreter start-up and permutation products, the
# kind of work groupcensus does, about 0.1 s.  It is timed before the first
# operation and after every operation (CLI workloads) or every
# CENSUS_STRETCH_S of census work.
REFERENCE = """\
import itertools
perms = list(itertools.permutations(range(6)))
seen = {}
for p in perms[:300]:
    for q in perms[:120]:
        r = tuple(p[i] for i in q)
        seen[r] = seen.get(r, 0) + 1
"""
CENSUS_STRETCH_S = 1.0
# Percentile reported as latency_ref.tail: the highest that keeps at least
# ten samples beyond it in a 40 s run on a 2-vCPU Xeon VM, where verify and
# explore complete 55 to 66 operations (census some 14,000).  Fixed, so that
# two commits are compared at one percentile; each result records how many
# samples lay beyond it.
TAIL_PERCENTILE = {"verify": 83, "explore": 83, "census": 99}
# Traced values paid once per process, averaged per process rather than per
# operation.  Values the tracer keeps as maxima are reported as such; every
# other traced value is reported per operation.
PER_PROCESS = ("cli.import_s",)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def timed_run(argv: list[str], env: dict[str, str], timeout: float):
    """(seconds, CompletedProcess or the exception that ended it)."""
    start = perf_counter()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except (subprocess.TimeoutExpired, OSError) as err:
        return perf_counter() - start, err
    return perf_counter() - start, proc


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Run:
    """One workload run: operations, failures and the traced layer data."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.env = child_env()
        self.latencies: list[float] = []
        # wall times of the reference process, and for each operation the
        # index of the one timed just before it (the next came just after it)
        self.references: list[float] = []
        self.reference_of: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # the first few reasons
        self.snapshots: list[dict] = []
        self.traced_ops = 0
        self.overhead = {"traced_s": 0.0, "untraced_s": 0.0, "ops": 0}
        # the references, kept here so that a test can corrupt them
        self.paper_table = workloads.PAPER_DELTA_TABLE
        self.golden = workloads.load_golden()

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(reason)

    # -- set-up ---------------------------------------------------------------

    def warm_up(self) -> None:
        """Compile the sources once and check they are the checkout's.

        compileall writes bytecode even under PYTHONDONTWRITEBYTECODE, so
        every process imports cached bytecode, as an installed copy would.
        """
        _, proc = timed_run([sys.executable, "-m", "compileall", "-q",
                             str(SRC), str(HERE)], self.env, OP_TIMEOUT_S)
        if isinstance(proc, Exception) or proc.returncode != 0:
            raise SystemExit(f"cannot compile {SRC}: {proc}")
        _, proc = timed_run(
            [sys.executable, "-c",
             "import groupcensus.cli, groupcensus; print(groupcensus.__file__)"],
            self.env, OP_TIMEOUT_S)
        if isinstance(proc, Exception) or proc.returncode != 0:
            raise SystemExit(f"cannot import groupcensus from {SRC}: {proc}")
        found = Path(proc.stdout.strip()).resolve()
        if SRC.resolve() not in found.parents:
            raise SystemExit(f"groupcensus imported from {found}, not {SRC}")

    def setup_times(self) -> list[float]:
        """Wall times of SETUP_REPEATS fresh processes doing only the set-up."""
        if self.workload == "census":
            argv = [sys.executable, CHILD, "census-setup", str(self.seed)]
        else:
            argv = [sys.executable, "-c", "import groupcensus.cli"]
        times = []
        for _ in range(SETUP_REPEATS):
            seconds, proc = timed_run(argv, self.env, OP_TIMEOUT_S)
            if isinstance(proc, Exception) or proc.returncode != 0:
                raise SystemExit(f"set-up failed: {proc}")
            times.append(seconds)
        return times

    # -- reference process -----------------------------------------------------

    def reference(self) -> None:
        seconds, proc = timed_run([sys.executable, "-c", REFERENCE],
                                  self.env, OP_TIMEOUT_S)
        if isinstance(proc, Exception) or proc.returncode != 0:
            raise SystemExit(f"reference process failed: {proc}")
        self.references.append(seconds)

    def relative_latencies(self) -> list[float]:
        refs = self.references
        return [seconds / ((refs[i] + refs[i + 1]) / 2)
                for seconds, i in zip(self.latencies, self.reference_of)]

    # -- cold CLI workloads -------------------------------------------------------

    def check_cli(self, argv: list[str], code: int, stdout: str) -> str | None:
        if self.workload == "verify":
            return workloads.check_verify(code, stdout, self.paper_table)
        return workloads.check_explore(argv, code, stdout, self.golden)

    def cli_op(self, argv: list[str]) -> float:
        seconds, proc = timed_run(
            [sys.executable, "-m", "groupcensus", *argv], self.env, OP_TIMEOUT_S)
        self.attempted += 1
        self.latencies.append(seconds)
        self.reference_of.append(len(self.references) - 1)
        if isinstance(proc, Exception):
            self.fail(f"{argv}: {proc}")
        else:
            problem = self.check_cli(argv, proc.returncode, proc.stdout)
            if problem:
                self.fail(f"{argv}: {problem}")
        return seconds

    def traced_cli_op(self, argv: list[str]) -> float:
        seconds, proc = timed_run([sys.executable, CHILD, "cli", *argv],
                                  self.env, OP_TIMEOUT_S)
        self.attempted += 1
        self.traced_ops += 1
        try:
            if isinstance(proc, Exception):
                raise ValueError(proc)
            if proc.returncode != 0:
                raise ValueError(f"exit {proc.returncode}: {proc.stderr[-300:]}")
            result = json.loads(proc.stdout)
        except ValueError as err:
            self.fail(f"traced {argv}: {err}")
            return seconds
        trace = result["trace"]
        self.snapshots.append(trace)
        counts = {int(name.rsplit(".d", 1)[1]): value
                  for name, value in trace["maxima"].items()
                  if name.startswith("candidates.count.d")}
        problem = (self.check_cli(argv, result["code"], result["stdout"])
                   or workloads.check_candidate_counts(counts))
        if problem:
            self.fail(f"traced {argv}: {problem}")
        return seconds

    def run_cli(self, traced: bool) -> None:
        """Closed loop over whole rounds until the next would overrun."""
        stream = workloads.op_stream(self.workload, self.seed)
        size = len(workloads.EXPLORE_DELTAS) if self.workload == "explore" else 1
        deadline = perf_counter() + self.seconds
        if not traced:
            self.reference()
        rounds, last_round = 0, 0.0
        while rounds == 0 or perf_counter() + last_round <= deadline:
            rounds += 1
            start = perf_counter()
            for _ in range(size):
                argv = next(stream)
                if not traced:
                    self.cli_op(argv)
                    self.reference()
                    continue
                # plain and traced alternate which runs first
                if self.overhead["ops"] % 2:
                    self.overhead["traced_s"] += self.traced_cli_op(argv)
                    self.overhead["untraced_s"] += self.cli_op(argv)
                else:
                    self.overhead["untraced_s"] += self.cli_op(argv)
                    self.overhead["traced_s"] += self.traced_cli_op(argv)
                self.overhead["ops"] += 1
            last_round = perf_counter() - start

    # -- census worker ----------------------------------------------------------

    def census_worker(self, offset: int, seconds: float,
                      traced: bool) -> tuple[dict, dict]:
        """One worker process from operation `offset` of the pool on."""
        argv = [sys.executable, CHILD, "census", str(self.seed), str(seconds),
                "1" if traced else "0", str(offset)]
        _, proc = timed_run(argv, self.env, seconds + OP_TIMEOUT_S)
        if isinstance(proc, Exception) or proc.returncode != 0:
            raise SystemExit(f"census worker failed: {proc}")
        *lines, last = proc.stdout.splitlines()
        result = json.loads(last)
        latencies = {"plain": [], "traced": []}
        for line in lines:
            kind, value = line.split()
            latencies[kind].append(float(value))
        self.latencies += latencies["plain"]
        self.reference_of += [len(self.references) - 1] * len(latencies["plain"])
        self.attempted += len(lines)
        self.failed += result["failed"]
        self.failures += result["failures"][:5 - len(self.failures)]
        return latencies, result

    def run_census(self, traced: bool) -> None:
        if traced:
            latencies, result = self.census_worker(0, self.seconds, True)
            self.snapshots.append(result["trace"])
            self.traced_ops = len(latencies["traced"])
            self.overhead = {"traced_s": sum(latencies["traced"]),
                             "untraced_s": sum(latencies["plain"]),
                             "ops": self.traced_ops}
            return
        # one worker between each two reference processes, each going on
        # where the last stopped
        deadline = perf_counter() + self.seconds
        offset = 0
        self.reference()
        while offset == 0 or perf_counter() < deadline:
            latencies, _ = self.census_worker(offset, CENSUS_STRETCH_S, False)
            offset += len(latencies["plain"])
            self.reference()

    def run(self, traced: bool) -> None:
        if self.workload == "census":
            self.run_census(traced)
        else:
            self.run_cli(traced)

    # -- results ----------------------------------------------------------------

    def latency_summary(self, latencies: list[float], unit: str) -> dict:
        ok = self.attempted - self.failed
        return {
            f"latency_{unit}.p50": percentile(latencies, 50),
            f"latency_{unit}.tail": percentile(latencies,
                                               TAIL_PERCENTILE[self.workload]),
            f"ops_per_{unit}": ok / sum(latencies),
        }

    def end_to_end(self, setup: float, peak_kb: int) -> dict[str, float]:
        return {**self.latency_summary(self.relative_latencies(), "ref"),
                "setup_s": setup, "peak_rss_mb": peak_kb / 1024}

    def traced_totals(self) -> tuple[dict, dict]:
        """Sums and maxima of the traced values over all traced processes."""
        sums: dict[str, float] = {}
        maxima: dict[str, float] = {}
        for snap in self.snapshots:
            for name, value in snap["sums"].items():
                sums[name] = sums.get(name, 0) + value
            for name, value in snap["maxima"].items():
                maxima[name] = max(maxima.get(name, 0), value)
        return sums, maxima

    def per_layer(self, names: list[str]) -> dict[str, float]:
        sums, maxima = self.traced_totals()
        values = {}
        for name in names:
            if name in maxima:
                values[name] = maxima[name]
            elif name in PER_PROCESS:
                values[name] = sums.get(name, 0.0) / max(len(self.snapshots), 1)
            else:
                values[name] = sums.get(name, 0) / max(self.traced_ops, 1)
        signatures = sums.get("exclusion.signatures", 0)
        values["exclusion.survival_ratio"] = (
            sums.get("exclusion.survivors", 0) / signatures if signatures else 0.0)
        values["trace.overhead_ratio"] = (
            self.overhead["traced_s"] / self.overhead["untraced_s"])
        return values

    def ratio_bases(self) -> dict:
        sums, _ = self.traced_totals()
        return {
            "trace.overhead_ratio": {
                "traced_s": self.overhead["traced_s"],
                "untraced_s": self.overhead["untraced_s"],
                "operations": self.overhead["ops"]},
            "exclusion.survival_ratio": {
                "survivors": sums.get("exclusion.survivors", 0),
                "signatures": sums.get("exclusion.signatures", 0)},
        }


def environment() -> dict:
    # Imported here: a child's peak resident size starts at that of the
    # parent that spawns it, so the parent keeps few modules (about 15 MB,
    # below any process that imports groupcensus) until it has measured.
    # hashlib alone would add 4 MB: it loads OpenSSL.
    import hashlib
    import platform

    commit = None  # a checkout without .git is named by src_sha256 alone
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "groupcensus" / "__init__.py").is_file():
        print(f"error: no groupcensus sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    run = Run(args.workload, args.seed, args.seconds)
    run.warm_up()
    # set-up is timed before and after the run, so that its median does not
    # rest on one moment of a machine whose speed drifts
    setup = [] if args.trace else run.setup_times()
    start = perf_counter()
    run.run(traced=bool(args.trace))
    measured = perf_counter() - start
    # the largest child so far; read before the parent, now holding the
    # run's latencies, spawns anything else
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup += [] if args.trace else run.setup_times()

    if args.trace:
        declared = spec["per_layer"]
        values = run.per_layer([m["name"] for m in declared])
    else:
        declared = spec["end_to_end"]
        values = run.end_to_end(percentile(setup, 50), peak_kb)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    failed = run.failed
    q = TAIL_PERCENTILE[args.workload]
    samples = run.latencies if args.trace else run.relative_latencies()
    tail = percentile(samples, q)
    beyond = sum(1 for x in samples if x > tail)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "measured_s": measured,
        "environment": environment(),
        "samples": {"operations": run.attempted,
                    "timed": len(run.latencies), "traced": run.traced_ops,
                    "setup_repeats": len(setup),
                    "tail_percentile": q, "beyond_tail": beyond},
        "fail_ratio": {"value": failed / run.attempted, "failed": failed,
                       "attempted": run.attempted},
        "ratio_bases": run.ratio_bases() if args.trace else {},
        "wall": run.latency_summary(run.latencies, "s"),
        "reference_s": {} if args.trace else {
            "mean": sum(run.references) / len(run.references),
            "min": min(run.references), "max": max(run.references),
            "count": len(run.references)},
    }
    for reason in run.failures[:5]:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
