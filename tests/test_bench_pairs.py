"""tools/bench_pairs.py: the paired summary, on canned perfbench lines."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def result_line(p50, ops, attempted, failed=0):
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {"latency_ref.p50": {"value": p50, "unit": "ref"},
                    "ops_per_ref": {"value": ops, "unit": "1/ref"}}})


def traced_line(d16, fired, seconds):
    return json.dumps({
        "correct": True, "attempted": 4, "failed": 0,
        "metrics": {"candidates.count.d16": {"value": d16, "unit": "count"},
                    "exclusion.fired.odd_4s": {"value": fired,
                                               "unit": "count"},
                    "verify.explore_s": {"value": seconds, "unit": "s"}}})


def test_summary_of_canned_pairs():
    tool = load_tool()
    end_to_end = [{"name": "latency_ref.p50", "better": "lower"},
                  {"name": "ops_per_ref", "better": "higher"}]
    # (seed, side, p50, ops, attempted); seed 4 has no change run, so it is
    # no pair
    canned = [(1, "parent", 1.10, 0.90, 10), (1, "change", 1.00, 1.00, 11),
              (2, "change", 1.05, 0.95, 11), (2, "parent", 1.12, 0.88, 10),
              (3, "parent", 1.08, 0.93, 10), (3, "change", 1.09, 0.92, 10),
              (4, "parent", 9.99, 0.01, 1)]
    runs = [{"workload": "verify", "seed": seed, "side": side, "trace": 0,
             "result": json.loads(result_line(p50, ops, attempted))}
            for seed, side, p50, ops, attempted in canned]
    # two traced pairs; seed 10 has the change run first
    runs += [{"workload": "explore", "seed": seed, "side": side, "trace": 1,
              "result": json.loads(traced_line(8525, 5, seconds))}
             for seed, side, seconds in ((9, "parent", 0.08),
                                         (9, "change", 0.06),
                                         (10, "change", 0.07),
                                         (10, "parent", 0.06))]
    summary = tool.summarize(runs, end_to_end)
    verify = summary["verify"]
    assert verify["pairs"] == 3
    assert verify["latency_ref.p50"] == {
        "parent_median": 1.10, "parent_q1": 1.09, "parent_q3": 1.11,
        "change_median": 1.05, "change_q1": 1.025, "change_q3": 1.07,
        "change_better": "2/3"}
    assert verify["ops_per_ref"]["change_better"] == "2/3"
    assert verify["ops_per_ref"]["parent_median"] == 0.90
    assert verify["attempted"] == {"parent": 30, "change": 32}
    assert verify["failed"] == {"parent": 0, "change": 0}
    assert "explore" not in summary
    traced = summary["traced"]["explore"]
    assert traced["pairs"] == 2
    assert traced["verify.explore_s"] == {
        "parent_median": 0.07, "change_median": 0.065, "change_lower": "1/2"}
    assert traced["candidates.count.d16"]["change_lower"] == "0/2"
    assert traced["fired_and_counts_identical"] is True
    runs[-1]["result"] = json.loads(traced_line(8525, 6, 0.06))
    assert tool.summarize(runs, end_to_end)["traced"]["explore"][
        "fired_and_counts_identical"] is False


def test_peak_rss_fit_of_canned_runs():
    tool = load_tool()
    end_to_end = [{"name": "peak_rss_mb", "better": "lower"}]

    def run(seed, side, operations, rss):
        return {"workload": "census", "seed": seed, "side": side, "trace": 0,
                "record": {"samples": {"operations": operations}},
                "result": {"attempted": operations, "failed": 0, "metrics": {
                    "peak_rss_mb": {"value": rss, "unit": "MB"}}}}

    # peak = 10 MB + 1 MB per 1,000 operations on both sides: the change
    # reads 2 MB more in the median only because it ran more operations
    runs = [run(1, "parent", 1000, 11.0), run(1, "change", 2000, 12.0),
            run(2, "change", 4000, 14.0), run(2, "parent", 2000, 12.0),
            run(3, "parent", 3000, 13.0), run(3, "change", 5000, 15.0)]
    census = tool.summarize(runs, end_to_end)["census"]
    assert census["peak_rss_mb"]["parent_median"] == 12.0
    assert census["peak_rss_mb"]["change_median"] == 14.0
    assert census["peak_rss_mb_fit"] == {
        "parent_operations_median": 2000, "change_operations_median": 4000,
        "mb_per_10k_operations": 10.0, "intercept_mb": 10.0}
    # one operation count throughout: medians, no line
    for r in runs:
        r["record"]["samples"]["operations"] = 1000
    assert tool.summarize(runs, end_to_end)["census"]["peak_rss_mb_fit"] == {
        "parent_operations_median": 1000, "change_operations_median": 1000}
    # no peak_rss_mb among the metrics: no fit
    assert "peak_rss_mb_fit" not in tool.summarize(runs, [])["census"]


def test_summary_keeps_5_significant_digits():
    tool = load_tool()
    end_to_end = [{"name": "latency_ref.p50", "better": "lower"}]
    # census-sized latencies, which 4 decimals would all read as 0.003
    canned = [(1, "parent", 0.0029605), (1, "change", 0.0027001),
              (2, "parent", 0.0029611), (2, "change", 0.0026999),
              (3, "parent", 0.0029599), (3, "change", 0.0027003)]
    runs = [{"workload": "census", "seed": seed, "side": side, "trace": 0,
             "result": json.loads(result_line(p50, 1.0, 10))}
            for seed, side, p50 in canned]
    runs += [{"workload": "census", "seed": seed, "side": side, "trace": 1,
              "result": json.loads(traced_line(8525, 5, seconds))}
             for seed, side, seconds in ((9, "parent", 0.0012345678),
                                         (9, "change", 1.2345678))]
    summary = tool.summarize(runs, end_to_end)
    assert summary["census"]["latency_ref.p50"] == {
        "parent_median": 0.0029605, "parent_q1": 0.0029602,
        "parent_q3": 0.0029608, "change_median": 0.0027001,
        "change_q1": 0.0027, "change_q3": 0.0027002, "change_better": "3/3"}
    traced = summary["traced"]["census"]
    assert traced["verify.explore_s"] == {
        "parent_median": 0.0012346, "change_median": 1.2346,
        "change_lower": "0/1"}
    # counts stay exact integers
    assert traced["candidates.count.d16"]["parent_median"] == 8525
    assert isinstance(traced["candidates.count.d16"]["parent_median"], int)


def test_relative_change_against_bounds():
    tool = load_tool()
    end_to_end = [{"name": "latency_ref.p50", "better": "lower", "bound": 0.25},
                  {"name": "ops_per_ref", "better": "higher", "bound": 0.25},
                  {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]

    def run(seed, side, p50, ops, rss):
        result = json.loads(result_line(p50, ops, 10))
        result["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        return {"workload": "census", "seed": seed, "side": side, "trace": 0,
                "record": {"samples": {"operations": 1000}},
                "result": result}

    # the change is 20% faster and grows 12% in peak: p50 and ops within
    # their bounds, peak_rss_mb past its 10%
    runs = [run(seed, side, p50, ops, rss)
            for seed in (1, 2, 3)
            for side, p50, ops, rss in (("parent", 1.00, 1.00, 20.0),
                                        ("change", 0.80, 1.25, 22.4))]
    census = tool.summarize(runs, end_to_end)["census"]
    assert census["latency_ref.p50"]["relative_change"] == -0.2
    assert census["latency_ref.p50"]["within_bound"] is True
    assert census["ops_per_ref"]["relative_change"] == 0.25
    assert census["ops_per_ref"]["within_bound"] is True
    assert census["peak_rss_mb"]["relative_change"] == 0.12
    assert census["peak_rss_mb"]["within_bound"] is False
    # a throughput that drops by more than its bound is outside it too
    for r in runs:
        if r["side"] == "change":
            r["result"]["metrics"]["ops_per_ref"]["value"] = 0.7
    census = tool.summarize(runs, end_to_end)["census"]
    assert census["ops_per_ref"]["relative_change"] == -0.3
    assert census["ops_per_ref"]["within_bound"] is False
    # without a bound, neither key
    del end_to_end[0]["bound"]
    stats = tool.summarize(runs, end_to_end)["census"]["latency_ref.p50"]
    assert "relative_change" not in stats and "within_bound" not in stats
