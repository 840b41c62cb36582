"""Command-line interface: analyze, candidates, exclude, verify, catalog, explore.

``parse_args`` reads the arguments from one table by argparse's rules,
without importing argparse: ``--opt VALUE``, ``--opt=VALUE`` or a unique
prefix of the option; a dash-led token is an option unless it is "-" or a
negative number; "--" ends the options; the last repeat wins.  ``-h``
writes help to the output stream.

Exit codes: 0 on success and help, 1 when a verification fails or the
reader closes stdout before the output ends, 2 on usage or parse errors,
each an ``error:`` line on stderr.  All output is deterministic: identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .candidates import Candidate, enumerate_candidates, integer_partitions
from .catalog import MAX_CATALOG_ORDER, catalog_search, catalog_validate
from .census import CensusReport, census
from .exclusion import apply_rules
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
    here hold only dicts with string keys, lists, tuples (written as
    arrays, as ``json.dumps`` writes them), strings, ints, booleans and
    None, so the indented layout is written directly, with the C string
    encoder for every string.  The ints of an array, the bulk of every
    payload, are written in the array's one join rather than by a call
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
        if kind is list or kind is tuple:
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


def _census_json(report: CensusReport) -> dict:
    """The JSON of a census, as ``analyze`` and ``catalog`` write it."""
    return {"order": report.group_order,
            "n_d": {str(d): count for d, count in report.n_d},
            "cyclic_count": report.total_cyclic, "delta": report.delta,
            "sigma": report.signature}


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args, out) -> int:
    # imported here, so that the other commands' processes skip the module
    from .expressions import GroupExpressionError, parse_group
    try:
        table = parse_group(args.expr)
    except (GroupExpressionError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    report = census(table)
    if args.format == "json":
        _emit_json(out, {"group": table.name, "census": _census_json(report)})
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
                    "signature": c.signature,
                    "rows": [{"partition": r.partition,
                              "factorization": r.factorization}
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
            "candidates": [c.signature for c in cands],
            "exclusions": [
                {"signature": v.signature,
                 "rules": v.fired_rules,
                 "recorded_rule": v.recorded_rule}
                for v in excluded
            ],
            "survivors": survivors,
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
        payload = {"claims": [
            {"delta": c.delta, "label": c.label, "order": c.order,
             "delta_computed": c.delta_computed,
             "sigma_computed": c.sigma_computed, "pass": c.passed,
             "detail": c.detail} for c in report.claims]}
        for key, checks in (("sweep", report.sweep),
                            ("properties", report.properties)):
            payload[key] = [{"name": c.name, "pass": c.passed,
                             "detail": c.detail} for c in checks]
        payload["pass"] = report.passed
        _emit_json(out, payload)
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
                    "census": _census_json(r)} for e, r in hits]
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
        payload = {"delta": args.delta, "survivors": [
            {"signature": s.signature,
             "witnesses": [{"label": e.label, "order": e.order,
                            "delta": r.delta} for e, r in s.witnesses],
             "known_groups": s.known} for s in survivors]}
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


# Each command's one-line help, positional names and options.  An option
# has a kind (int, str, a tuple of choices, or bool for a flag that takes
# no value) and a default, or _REQUIRED for none.
_REQUIRED = object()
_TABLES = {"--delta": (int, _REQUIRED),
           "--format": (("table", "json", "latex"), "table")}
_GRAMMAR = {
    "analyze": ("census of one group expression, e.g. 'D8 x C2'", ("expr",),
                {"--format": (("text", "json"), "text")}),
    "candidates": ("possible signatures for a delta", (), _TABLES),
    "exclude": ("exclusion and revised tables", (), _TABLES),
    "verify": ("verify the classification: --delta or --all, not both", (),
               {"--delta": (int, None), "--all": (bool, False),
                "--format": (("text", "json"), "text")}),
    "catalog": ("search the bundled catalog; --sigma is e.g. 4,4,4", (),
                {"--max-order": (int, MAX_CATALOG_ORDER),
                 "--delta": (int, None), "--sigma": (str, None),
                 "--format": (("table", "json"), "table")}),
    "explore": ("survivors beyond the classified range", (),
                {"--delta": (int, _REQUIRED),
                 "--format": (("table", "json"), "table")}),
}
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$").match


def _help(commands, out) -> None:
    """Write the usage line and the help of each of ``commands``."""
    for command in commands:
        help_, slots, options = _GRAMMAR[command]
        words = [f"usage: groupcensus {command} [-h]", *slots]
        for name, (kind, default) in options.items():
            word = name + ("" if kind is bool else " {%s}" % ",".join(kind)
                           if type(kind) is tuple else " " + name[2:].upper())
            words.append(word if default is _REQUIRED else f"[{word}]")
        _emit(out, " ".join(words) + "\n    " + help_)


def _match(token: str, names) -> tuple[str | None, str | None]:
    """The option among ``names`` that a token gives, and its value.

    The option is None for a positional and "" for an unknown option; the
    value, what follows "=" (or "-h"), is None when there is none.
    """
    if token[:1] != "-" or token == "-":
        return None, None
    if token.startswith("-h"):  # -hx and -h=x give help a value
        return "--help", token[2:] or None
    if token[1] == "-":  # a long option may be cut to a unique prefix
        name, eq, value = token.partition("=")
        hits = [n for n in names if n.startswith(name)]
        if len(hits) > 1:
            raise ValueError(f"ambiguous option: {token}")
        if hits:
            return hits[0], value if eq else None
    # failing a match, a negative number or text with a space is positional
    return None if _NEGATIVE_NUMBER(token) or " " in token else "", None


def parse_args(argv: Sequence[str], out) -> SimpleNamespace | None:
    """The command and option values of argv, by argparse's rules.

    Help goes to ``out`` and returns None.  A usage error raises ValueError:
    a bad or missing value at once, so help after it loses, and an unknown
    option, a stray positional or a missing option after the last token.
    """
    unknown = []
    for start, token in enumerate(argv):
        # argparse takes a "--" before the command as the command
        name, value = (None, None) if token == "--" else _match(
            token, ["--help"])
        if name is None:
            break
        if name and value is not None:
            raise ValueError("--help takes no value")
        if name:
            return _help(_GRAMMAR, out)
        unknown.append(token)
    else:
        token = None
    if token not in _GRAMMAR:
        raise ValueError(f"the command is one of {', '.join(_GRAMMAR)}")
    command, tokens = token, argv[start + 1:]
    _, slots, options = _GRAMMAR[command]
    options = {"--help": (bool, False), **options}
    # every token up to "--" is matched first, as argparse does, so that an
    # ambiguous prefix fails before any help; all after it are positionals
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    matches = [_match(token, options) for token in tokens[:cut]]
    matches += [("--", None)] + [(None, None)] * (len(tokens) - cut - 1)
    values = {name: default for name, (_kind, default) in options.items()}
    filled, filled_at, i = [], None, 0
    while i < len(tokens):
        token, (name, value) = tokens[i], matches[i]
        kind, i = options.get(name, (None,))[0], i + 1
        if name is None and len(filled) < len(slots):
            filled.append(token)
            filled_at = i
        elif name == "--" and (len(filled) < len(slots) or filled_at == i - 1):
            pass  # argparse drops a "--" next to a positional it fills
        elif kind is None:
            unknown.append(token)
        elif kind is bool:
            if value is not None:
                raise ValueError(f"{name} takes no value")
            if name == "--help":
                return _help([command], out)
            values[name] = True
        else:
            if value is None:
                if matches[i][0] is not None:
                    raise ValueError(f"{name} needs a value")
                value, i = tokens[i], i + 1
            if type(kind) is tuple and value not in kind:
                raise ValueError(f"{name}: {value!r} is not one of"
                                 f" {', '.join(kind)}")
            try:
                values[name] = int(value) if kind is int else value
            except ValueError:
                raise ValueError(f"{name}: {value!r} is not an integer"
                                 ) from None
        if values.get("--all") and values["--delta"] is not None:
            raise ValueError("--delta and --all exclude each other")
    missing = [name for name, value in values.items() if value is _REQUIRED]
    if command == "verify" and values["--delta"] is None and not values["--all"]:
        missing.append("--delta or --all")
    missing += slots[len(filled):]
    if missing:
        raise ValueError(f"required: {' '.join(missing)}")
    if unknown:
        raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    args = {name[2:].replace("-", "_"): value for name, value in values.items()
            if name != "--help"}
    return SimpleNamespace(command=command, **args, **dict(zip(slots, filled)))


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
    out = out if out is not None else sys.stdout
    try:
        args = parse_args(argv, out)
        return 0 if args is None else _COMMANDS[args.command](args, out)
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
