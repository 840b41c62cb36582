"""Child processes of the benchmark; each ends its stdout with a JSON line.

    child.py cli ARGS...                      one traced CLI run
    child.py census-setup SEED                import and input generation only
    child.py census SEED SECONDS TRACE OFFSET the census worker loop, starting
                                              at operation OFFSET of the pool

The parent puts the checkout's src/ on PYTHONPATH.  Only the census worker
checks outputs itself, because its results are tables that never leave the
process; the other children hand their output back to the parent.
"""

from __future__ import annotations

import importlib
import io
import itertools
import json
import sys
from time import perf_counter

import workloads
from tracer import Tracer


def traced_cli(argv: list[str]) -> dict:
    start = perf_counter()
    import groupcensus.cli as cli
    tracer = Tracer()
    tracer.add("cli.import_s", perf_counter() - start)
    tracer.install()
    out = io.StringIO()
    code = cli.run(argv, out=out)
    return {"code": code, "stdout": out.getvalue(), "trace": tracer.snapshot()}


def census_setup(seed: int) -> list[tuple[str, int]]:
    import groupcensus.cli  # noqa: F401  (the same import the CLI pays)
    return workloads.census_pool(seed)


def census_loop(ops, seconds: float, out, tracer: Tracer | None = None) -> dict:
    """Run parse_group + census on each (expression, order) until time is up.

    Only the two library calls are timed; the reference check runs between
    timed regions.  Each latency goes to `out` as it is taken, as a line
    ``plain SECONDS`` or ``traced SECONDS``, so the worker's memory does not
    grow with the number of operations.  With a tracer every operation runs
    twice, plain and traced, so that the overhead is measured on the same
    inputs.
    """
    parse_module = importlib.import_module("groupcensus.expressions")
    census_module = importlib.import_module("groupcensus.census")
    if tracer is not None:
        tracer.install()
    failed, failures = 0, []
    deadline = perf_counter() + seconds
    for i, (expr, order) in enumerate(ops):
        if perf_counter() >= deadline:
            break
        # with a tracer, plain and traced alternate which runs first
        modes = (False, True)[::-1 if i % 2 else 1] if tracer else (False,)
        for traced in modes:
            if tracer is not None:
                tracer.enable(traced)
            start = perf_counter()
            try:
                table = parse_module.parse_group(expr)
                report = census_module.census(table)
                problem = None
            except Exception as err:  # any exception is a failed operation
                problem = f"{type(err).__name__}: {err}"
            seconds_taken = perf_counter() - start
            out.write(f"{'traced' if traced else 'plain'} {seconds_taken!r}\n")
            if problem is None:
                problem = workloads.check_census(
                    order, table.product, report.group_order, report.n_d,
                    report.total_cyclic, report.delta)
            if problem:
                failed += 1
                if len(failures) < 5:
                    failures.append(f"{expr}: {problem}")
    return {"failed": failed, "failures": failures}


def main(argv: list[str]) -> dict:
    command, rest = argv[0], argv[1:]
    if command == "cli":
        return traced_cli(rest)
    if command == "census-setup":
        census_setup(int(rest[0]))
        return {}
    if command == "census":
        seed, seconds, trace, offset = rest
        start = perf_counter()
        tracer = Tracer() if trace == "1" else None
        import groupcensus.cli  # noqa: F401
        if tracer is not None:
            tracer.add("cli.import_s", perf_counter() - start)
        pool = workloads.census_pool(int(seed))
        ops = itertools.islice(itertools.cycle(pool), int(offset) % len(pool),
                               None)
        result = census_loop(ops, float(seconds), sys.stdout, tracer)
        if tracer is not None:
            result["trace"] = tracer.snapshot()
        return result
    raise SystemExit(f"unknown child command {command!r}")


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
