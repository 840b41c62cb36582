"""Command-line interface: analyze, candidates, exclude, verify, catalog, explore.

Exit codes: 0 on success, 1 when a verification fails or the reader closes
stdout before the output ends, 2 on usage or parse errors.  All output is
deterministic: identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from typing import Sequence

from .candidates import Candidate, enumerate_candidates, integer_partitions
from .catalog import MAX_CATALOG_ORDER, catalog_search, catalog_validate
from .census import census
from .exclusion import apply_rules
from .expressions import GroupExpressionError, parse_group
from .verify import explore, known_groups_for, verify_all, verify_theorem

USAGE_ERROR = 2
VERIFICATION_FAILURE = 1


def _sig_str(entries: Sequence[int]) -> str:
    return "(" + ",".join(str(e) for e in entries) + ")"


def _emit(stream, text: str) -> None:
    stream.write(text + "\n")


def _emit_json(stream, payload) -> None:
    """Write ``json.dumps(payload, indent=2)`` and a newline.

    The standard library's C encoder serves only ``indent=None``; with an
    indent every value goes through its pure-Python encoder.  The payloads
    here hold only dicts with string keys, lists, strings, ints, booleans
    and None, so the indented layout is written directly, with the C string
    encoder for every string.  The ints of a list, the bulk of every
    payload, are written in the list's one join rather than by a call
    each.  json is imported here, not at start-up, because only
    ``--format json`` needs it.
    """
    from json.encoder import encode_basestring_ascii as quote

    def encode(value, indent: str) -> str:
        kind = type(value)
        if kind is int:
            return str(value)
        if kind is str:
            return quote(value)
        if value is None:
            return "null"
        if kind is bool:
            return "true" if value else "false"
        inner = indent + "  "
        if kind is list:
            if not value:
                return "[]"
            body = (",\n" + inner).join([
                str(v) if type(v) is int else encode(v, inner) for v in value])
            return "[\n" + inner + body + "\n" + indent + "]"
        if kind is dict:
            if not value:
                return "{}"
            body = (",\n" + inner).join([quote(k) + ": " + encode(v, inner)
                                          for k, v in value.items()])
            return "{\n" + inner + body + "\n" + indent + "}"
        raise TypeError(f"cannot write a {kind.__name__} as JSON")

    _emit(stream, encode(payload, ""))


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args, out) -> int:
    try:
        table = parse_group(args.expr)
    except (GroupExpressionError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    report = census(table)
    if args.format == "json":
        payload = {"group": table.name, "census": report.to_json_dict()}
        _emit_json(out, payload)
        return 0
    _emit(out, f"group: {table.name}")
    _emit(out, f"order: {report.group_order}")
    _emit(out, "n_d: " + " ".join(f"{d}:{c}" for d, c in report.n_d))
    _emit(out, f"cyclic subgroups: {report.total_cyclic}")
    _emit(out, f"delta: {report.delta}")
    _emit(out, f"sigma: {_sig_str(report.signature)}")
    return 0


# ---------------------------------------------------------------------------
# candidates


def _partition_rows(delta: int, cands: list[Candidate]) -> list[tuple[str, str]]:
    """(partition, its signatures) as text, for every partition of delta."""
    by_partition: dict[tuple[int, ...], list[tuple[int, ...]]] = {
        p: [] for p in integer_partitions(delta)}
    for cand in cands:
        for row in cand.rows:
            by_partition[row.partition].append(cand.signature)
    return [("+".join(str(part) for part in p),
             ", ".join(_sig_str(s) for s in sorted(sigs)) or "none")
            for p, sigs in by_partition.items()]


def _emit_latex_table(out, caption: str, columns: str, header: str,
                      body_lines: list[str]) -> None:
    """One LaTeX table; the body lines carry their own ``\\hline`` rows."""
    _emit(out, "\\begin{table}[ht]")
    _emit(out, f"\\caption{{{caption}}}")
    _emit(out, "\\centering")
    _emit(out, f"\\begin{{tabular}}{{{columns}}}")
    _emit(out, "\\hline")
    _emit(out, f"{header} \\\\")
    _emit(out, "\\hline")
    for line in body_lines:
        _emit(out, line)
    _emit(out, "\\end{tabular}")
    _emit(out, "\\end{table}")


def _emit_partition_latex(out, delta: int, cands: list[Candidate]) -> None:
    body = []
    for partition, sigs in _partition_rows(delta, cands):
        body += [f"{partition} & {sigs} \\\\", "\\hline"]
    _emit_latex_table(out, f"Table for $\\Delta(G)={delta}$", "|c|c|",
                      "Partition & $\\sigma(G)$", body)


def _cmd_candidates(args, out) -> int:
    cands = enumerate_candidates(args.delta)
    if args.format == "json":
        payload = {
            "delta": args.delta,
            "count": len(cands),
            "candidates": [
                {
                    "signature": list(c.signature),
                    "rows": [{"partition": list(r.partition),
                              "factorization": [list(f) for f in r.factorization]}
                             for r in c.rows],
                }
                for c in cands
            ],
        }
        _emit_json(out, payload)
        return 0
    if args.format == "latex":
        _emit_partition_latex(out, args.delta, cands)
        return 0
    _emit(out, f"candidate signatures for delta = {args.delta}: {len(cands)}")
    for partition, body in _partition_rows(args.delta, cands):
        _emit(out, f"  {partition:<12} {body}")
    return 0


# ---------------------------------------------------------------------------
# exclude


def _cmd_exclude(args, out) -> int:
    cands = enumerate_candidates(args.delta)
    verdicts = [apply_rules(c.signature) for c in cands]
    excluded = [v for v in verdicts if v.excluded]
    survivors = [v.signature for v in verdicts if not v.excluded]
    if args.format == "json":
        payload = {
            "delta": args.delta,
            "candidates": [list(c.signature) for c in cands],
            "exclusions": [
                {"signature": list(v.signature),
                 "rules": list(v.fired_rules),
                 "recorded_rule": v.recorded_rule}
                for v in excluded
            ],
            "survivors": [list(s) for s in survivors],
            "counts": {"candidates": len(cands), "excluded": len(excluded),
                       "survivors": len(survivors)},
        }
        _emit_json(out, payload)
        return 0
    if args.format == "latex":
        _emit_partition_latex(out, args.delta, cands)
        body = []
        for v in excluded:
            rule = (v.recorded_rule or v.fired_rules[0]).replace("_", "\\_")
            body.append(f"{_sig_str(v.signature)} & {rule} \\\\")
        _emit_latex_table(
            out, f"Exclusion table for $\\Delta(G)={args.delta}$", "|c|l|",
            "$\\sigma(G)$ & Excluded by", body + ["\\hline"])
        body = []
        for sig in survivors:
            known = known_groups_for(sig)
            groups = ", ".join(r.label for r in known) if known else ""
            body.append(f"{_sig_str(sig)} & {groups} \\\\")
        _emit_latex_table(
            out, f"Revised table for $\\Delta(G)={args.delta}$", "|c|c|",
            "$\\sigma(G)$ & Groups", body + ["\\hline"])
        return 0
    _emit(out, f"delta = {args.delta}: {len(cands)} candidates,"
               f" {len(excluded)} excluded, {len(survivors)} survivors")
    _emit(out, "candidates:")
    for c in cands:
        _emit(out, f"  {_sig_str(c.signature)}")
    _emit(out, "excluded:")
    for v in excluded:
        tag = v.recorded_rule or v.fired_rules[0]
        extra = ""
        others = [r for r in v.fired_rules if r != tag]
        if others:
            extra = f"  (also: {', '.join(others)})"
        _emit(out, f"  {_sig_str(v.signature):<20} {tag}{extra}")
    _emit(out, "survivors:")
    for sig in survivors:
        _emit(out, f"  {_sig_str(sig)}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args, out) -> int:
    if args.all:
        report = verify_all()
    else:
        report = verify_theorem(args.delta)
        report.merge(catalog_validate())
    if args.format == "json":
        _emit_json(out, report.to_json_dict())
    else:
        for claim in report.claims:
            status = "ok" if claim.passed else "FAIL"
            _emit(out, f"claim delta={claim.delta} {claim.label:<12}"
                       f" order={claim.order:<3} delta={claim.delta_computed}"
                       f" sigma={_sig_str(claim.sigma_computed)} {status}")
        for check in report.sweep + report.properties:
            status = "ok" if check.passed else "FAIL"
            _emit(out, f"check {check.name}: {status}  {check.detail}")
        _emit(out, "PASS" if report.passed else "FAIL")
    return 0 if report.passed else VERIFICATION_FAILURE


# ---------------------------------------------------------------------------
# catalog


def _cmd_catalog(args, out) -> int:
    sigma = None
    if args.sigma is not None:  # "" is the empty signature ()
        try:
            tokens = args.sigma.split(",") if args.sigma else ()
            sigma = tuple(sorted(int(tok) for tok in tokens))
            if sigma and sigma[0] <= 2:
                raise ValueError(f"signature entries must exceed 2: {sigma}")
        except ValueError as err:
            print(f"error: bad --sigma: {err}", file=sys.stderr)
            return USAGE_ERROR
    try:
        hits = catalog_search(args.max_order, delta=args.delta, sigma=sigma)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    if args.format == "json":
        payload = [{"order": e.order, "index": e.index, "label": e.label,
                    "census": r.to_json_dict()} for e, r in hits]
        _emit_json(out, payload)
        return 0
    for entry, report in hits:
        _emit(out, f"{entry.order:>2} {entry.index:>2} {entry.label:<14}"
                   f" delta={report.delta:<3}"
                   f" sigma={_sig_str(report.signature)}")
    _emit(out, f"{len(hits)} groups")
    return 0


# ---------------------------------------------------------------------------
# explore


def _cmd_explore(args, out) -> int:
    survivors = explore(args.delta)
    if args.format == "json":
        payload = {"delta": args.delta,
                   "survivors": [s.to_json_dict() for s in survivors]}
        _emit_json(out, payload)
        return 0
    _emit(out, f"delta = {args.delta}: {len(survivors)} surviving signatures")
    for surv in survivors:
        if surv.known is not None:
            status = "classified: " + ", ".join(surv.known)
        else:
            status = "undecided"
        _emit(out, f"  {_sig_str(surv.signature):<20} {status}")
        for entry, rep in surv.witnesses:
            _emit(out, f"    witness {entry.label} (order {entry.order},"
                       f" delta {rep.delta})")
    return 0


# ---------------------------------------------------------------------------
# driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupcensus",
        description="Cyclic-subgroup census of small finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="census of one constructed group")
    p.add_argument("expr", help="group expression, e.g. 'D8 x C2'")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("candidates", help="possible signatures for a delta")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--format", choices=["table", "json", "latex"],
                   default="table")

    p = sub.add_parser("exclude", help="exclusion and revised tables")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--format", choices=["table", "json", "latex"],
                   default="table")

    p = sub.add_parser("verify", help="verify the classification")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", type=int)
    group.add_argument("--all", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("catalog", help="search the bundled catalog")
    p.add_argument("--max-order", type=int, default=MAX_CATALOG_ORDER)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--sigma", type=str, default=None,
                   help="comma-separated entries, e.g. 4,4,4")
    p.add_argument("--format", choices=["table", "json"], default="table")

    p = sub.add_parser("explore", help="survivors beyond the classified range")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--format", choices=["table", "json"], default="table")

    return parser


_COMMANDS = {
    "analyze": _cmd_analyze,
    "candidates": _cmd_candidates,
    "exclude": _cmd_exclude,
    "verify": _cmd_verify,
    "catalog": _cmd_catalog,
    "explore": _cmd_explore,
}


def run(argv: Sequence[str], out=None) -> int:
    """Parse arguments and run one subcommand; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = out if out is not None else sys.stdout
    try:
        return _COMMANDS[args.command](args, out)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    """Run the command line in ``sys.argv`` and end the process with its code.

    This always exits, through ``sys.exit``; library callers use ``run``.
    """
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout, as ``| head`` does: exit 1, with stdout
        # pointed at devnull so the flush at exit raises nothing more (the
        # idiom of the SIGPIPE note in Python's signal documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    # the process is ending: no collection at shutdown should walk its objects
    gc.freeze()
    sys.exit(code)
