"""Paired perfbench runs of a parent and a change checkout, kept as BENCH_*.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workload verify --workload explore --workload census \
        --seed 1001 --traced \
        --claim "verify latency_ref.p50 drops" --out BENCH_N.json

Each pair runs ``python3 perfbench/run.py --workload W --seed N --seconds S``
from the root of both checkouts with the same seed, one after the other,
where S is the ``run_seconds`` of the change's BENCHMARK.json.  Every
workload gets 10 pairs, the fewest the benchmark's pairing rule accepts.
The parent goes first on even pair indices and the change on odd ones, so
neither side always meets the machine in the same state.  Pairs of all
workloads are interleaved, pair 0 of every workload before pair 1 of any.
``--traced`` adds 3 ``--trace 1`` pairs per workload at the end, in the
same alternating order: one traced run per side follows the host's speed.

Every run's record line and result line are kept.  The summary gives, per
workload and end-to-end metric of the change's BENCHMARK.json, the median
and quartiles of each side over the pairs (``statistics.quantiles(n=4,
method='inclusive')``) and the number of pairs in which the change reads
better.  Where BENCHMARK.json gives the metric a ``bound``, it adds the
relative change of the medians and ``within_bound``: whether the change
reads worse than the parent by no more than that share.  For traced pairs
it gives each side's median per-layer value and the number of pairs in
which the change's value is lower.  Medians and
quartiles keep 5 significant digits, so a census latency of 0.003 ref
keeps as many as a verify latency of 0.9.  Where the metrics
include ``peak_rss_mb``, each workload also gets the least-squares line of
that metric against the run's operation count (``samples.operations``),
over both sides' runs, with each side's median count: a run's peak
includes the harness's own size, which grows with the latencies it keeps,
so a faster program can read larger without being larger.  The output file is
rewritten after every run, so an interrupted session keeps what it ran.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
TRACED_PAIRS = 3


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> tuple[dict, dict]:
    """One perfbench run; its record line and result line, parsed."""
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"perfbench failed in {checkout} ({workload}, seed"
                         f" {seed}): exit {child.returncode}\n{child.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _significant(value: float) -> float:
    """A measured value to 5 significant digits; counts stay exact."""
    return value if isinstance(value, int) else float(f"{value:.5g}")


def _pairs(runs: list[dict], workload: str, trace: int,
           line: str = "result") -> list[dict]:
    """The result (or record) lines of the seeds run on both sides, as
    {side: line}."""
    by_seed: dict[int, dict[str, dict]] = {}
    for r in runs:
        if r["workload"] == workload and r["trace"] == trace:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r[line]
    return [sides for _seed, sides in sorted(by_seed.items())
            if len(sides) == 2]


def _wins(pairs: list[dict], name: str, sign: int) -> str:
    """In how many pairs sign * value reads lower on the change side."""
    wins = sum(1 for p in pairs
               if sign * p["change"]["metrics"][name]["value"]
               < sign * p["parent"]["metrics"][name]["value"])
    return f"{wins}/{len(pairs)}"


def _against_bound(stats: dict, sign: int, bound: float) -> dict:
    """The relative change of the medians, change over parent, and whether
    it stays within the metric's bound in the direction that reads worse."""
    change = stats["change_median"] / stats["parent_median"] - 1
    return {"relative_change": round(change, 4),
            "within_bound": sign * change <= bound}


def _rss_fit(pairs: list[dict], records: list[dict]) -> dict:
    """peak_rss_mb against operations: each side's median operation count,
    and the least-squares slope (MB per 10k operations) and intercept over
    both sides' runs."""
    ops = {side: [r[side]["samples"]["operations"] for r in records]
           for side in SIDES}
    medians = {side: statistics.median(ops[side]) for side in SIDES}
    fit = {f"{side}_operations_median": medians[side] for side in SIDES}
    xs = ops["parent"] + ops["change"]
    ys = [p[side]["metrics"]["peak_rss_mb"]["value"] for side in SIDES
          for p in pairs]
    if len(set(xs)) > 1:
        slope, intercept = statistics.linear_regression(xs, ys)
        fit["mb_per_10k_operations"] = round(slope * 1e4, 4)
        fit["intercept_mb"] = round(intercept, 3)
    return fit


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload, the paired comparison of every end-to-end metric.

    ``runs`` holds entries with workload, seed, side, trace and the parsed
    result line; ``end_to_end`` the metric declarations of BENCHMARK.json
    (name, ``better`` and, optionally, ``bound``).  Only seeds run on both
    sides count as pairs.
    """
    summary: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs
                                  if not r["trace"]):
        pairs = _pairs(runs, workload, 0)
        entry: dict = {"pairs": len(pairs)}
        if pairs:
            for metric in end_to_end:
                name = metric["name"]
                stats = {}
                for side in SIDES:
                    q1, median, q3 = _quartiles(
                        [p[side]["metrics"][name]["value"] for p in pairs])
                    stats[f"{side}_median"] = _significant(median)
                    stats[f"{side}_q1"] = _significant(q1)
                    stats[f"{side}_q3"] = _significant(q3)
                sign = 1 if metric["better"] == "lower" else -1
                stats["change_better"] = _wins(pairs, name, sign)
                if "bound" in metric:
                    stats.update(_against_bound(stats, sign, metric["bound"]))
                entry[name] = stats
            if "peak_rss_mb" in entry:
                entry["peak_rss_mb_fit"] = _rss_fit(
                    pairs, _pairs(runs, workload, 0, "record"))
        for key in ("attempted", "failed"):
            entry[key] = {side: sum(p[side][key] for p in pairs)
                          for side in SIDES}
        summary[workload] = entry
    traced: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if r["trace"]):
        pairs = _pairs(runs, workload, 1)
        if not pairs:
            continue
        layers: dict = {"pairs": len(pairs)}
        for name in pairs[0]["parent"]["metrics"]:
            layers[name] = {
                f"{side}_median": _significant(statistics.median(
                    p[side]["metrics"][name]["value"] for p in pairs))
                for side in SIDES}
            layers[name]["change_lower"] = _wins(pairs, name, 1)
        layers["fired_and_counts_identical"] = all(
            p["parent"]["metrics"][name]["value"]
            == p["change"]["metrics"][name]["value"]
            for p in pairs for name in p["parent"]["metrics"]
            if name.startswith(("candidates.count.", "exclusion.fired.")))
        traced[workload] = layers
    if traced:
        summary["traced"] = traced
    return summary


def describe_side(record: dict) -> str:
    env = record["environment"]
    if env.get("commit"):
        return f"commit {env['commit']}, src_sha256 {env['src_sha256']}"
    return f"src_sha256 {env['src_sha256']}"


def describe_machine(record: dict) -> str:
    env = record["environment"]
    return (f"{env['nproc']}-CPU {env['cpu_model']}, {env['implementation']}"
            f" {env['python']}, {env['platform']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, default=1000,
                        help="first seed; every pair of every workload"
                             " takes the next one")
    parser.add_argument("--traced", action="store_true",
                        help=f"add {TRACED_PAIRS} --trace 1 pairs per"
                             " workload")
    parser.add_argument("--claim", default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    schedule = []  # (workload, seed, trace, pair index)
    seed = args.seed
    traced_pairs = TRACED_PAIRS if args.traced else 0
    for trace, count in ((0, PAIRS), (1, traced_pairs)):
        for index in range(count):
            for workload in args.workload:
                schedule.append((workload, seed, trace, index))
                seed += 1

    runs: list[dict] = []
    for workload, seed, trace, index in schedule:
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        for side in order:
            record, result = run_once(checkouts[side], workload, seed,
                                      seconds, trace)
            runs.append({"workload": workload, "seed": seed, "side": side,
                         "trace": trace,
                         "finished": time.strftime("%H:%M:%S"),
                         "record": record, "result": result})
            first = {s: next(r["record"] for r in runs if r["side"] == s)
                     for s in SIDES if any(r["side"] == s for r in runs)}
            report = {
                "claim": args.claim,
                "command": "python3 perfbench/run.py --workload W --seed N"
                           f" --seconds {seconds:g} --trace T, run from"
                           " the root of each checkout",
                "sides": {s: describe_side(rec) for s, rec in first.items()},
                "machine": describe_machine(runs[0]["record"]),
                "order": "pairs alternate which side runs first (the parent"
                         " on even pair indices); pairs of all workloads are"
                         " interleaved; runs are listed in the order they"
                         " finished",
                "quartiles": "statistics.quantiles(n=4, method='inclusive')"
                             " over the per-pair values; change_better counts"
                             " the pairs (same seed) in which the change"
                             " reads better",
                "summary": summarize(runs, spec["end_to_end"]),
                "runs": runs,
            }
            args.out.write_text(json.dumps(report, indent=1) + "\n")
            values = {} if trace else {
                name: round(m["value"], 4)
                for name, m in result["metrics"].items()}
            print(f"{runs[-1]['finished']} {workload} seed {seed} {side}"
                  f" trace {trace} {values}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
