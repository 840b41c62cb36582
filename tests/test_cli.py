"""CLI subcommands: output schemas, determinism and exit codes."""

import argparse
import ast
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcensus import cli
from groupcensus.catalog import MAX_CATALOG_ORDER
from groupcensus.report import CheckResult, VerificationReport


def run_cli(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue()


# sha256 of the candidates and exclude output for delta 1..16 in every
# format, captured from the partition-backtracking enumerator
PINNED_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_digests.json").read_text()
)["digests"]


def run_json(*argv):
    code, text = run_cli(*argv, "--format", "json")
    return code, json.loads(text)


def test_analyze_text():
    code, text = run_cli("analyze", "Q8")
    assert code == 0
    assert "delta: 3" in text
    assert "sigma: (4,4,4)" in text


def test_analyze_json():
    code, payload = run_json("analyze", "sd(C3 x C3, C2, inv)")
    assert code == 0
    assert payload["census"]["delta"] == 4
    assert payload["census"]["sigma"] == [3, 3, 3, 3]
    assert set(payload["census"]) == {"order", "n_d", "cyclic_count",
                                      "delta", "sigma"}


def test_analyze_deep_nesting_is_usage_error():
    # this used to escape as RecursionError and exit 1, the verification code
    code, text = run_cli("analyze", "sd(" * 400)
    assert code == 2
    assert text == ""


def test_analyze_perm_cost_follows_the_text():
    # only moved points are kept: a large point label used to allocate a
    # permutation of that degree (about 1.5 s and 300 MB for 3,000,000),
    # and a label past the machine word escaped as OverflowError, exit 1
    expected = run_cli("analyze", "perm[(0 1)]")
    assert expected[0] == 0
    start = time.perf_counter()
    assert run_cli("analyze", "perm[(0 3000000)]") == expected
    assert time.perf_counter() - start < 1.0
    assert run_cli("analyze", "perm[(0 99999999999999999999)]") == expected


def test_analyze_perm_moved_points_are_capped(capsys):
    # a 5.8 MB text moving 400,000 points took 2.8 s and 262 MB before the
    # closure bound stopped it; the cap stops it once the text is read
    pairs = "".join(f"({2 * i} {2 * i + 1})" for i in range(2048))
    code, text = run_cli("analyze", f"perm[{pairs}]")  # C2 on 4,096 points
    assert code == 0
    assert "order: 2\n" in text
    start = time.perf_counter()
    code, text = run_cli("analyze",
                         "perm[(" + " ".join(map(str, range(4097))) + ")]")
    assert time.perf_counter() - start < 0.5
    assert (code, text) == (2, "")
    assert "generators move 4097 points, more than 4096" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("cycles", [
    "(" + " ".join(map(str, range(400_000))) + ")",  # 2.7 MB
    "".join(f"({2 * i} {2 * i + 1})" for i in range(200_000)),  # 2.9 MB
], ids=["one-cycle", "transpositions"])
def test_analyze_perm_cap_stops_at_the_first_point_past_it(capsys, cycles):
    # the cap applies at the 4,097th moved point, so neither text is read
    # past it and the error names 4,097 points, not all 400,000
    start = time.perf_counter()
    assert run_cli("analyze", f"perm[{cycles}]") == (2, "")
    assert time.perf_counter() - start < 0.5
    assert "generators move 4097 points, more than 4096" in (
        capsys.readouterr().err)


def test_analyze_parse_error_is_usage_error():
    for expr in ("C100", "notagroup", "C" + "9" * 5000, "C4xC4xC4xC4"):
        code, _ = run_cli("analyze", expr)
        assert code == 2


@pytest.mark.parametrize("expr", ["C\uff16", "D\u0668"])
def test_analyze_size_takes_ascii_digits_only(expr, capsys):
    # a fullwidth 6 or an Arabic-Indic 8 is no size, as it is no perm[...]
    # point: one error line and exit 2, not the census of C6 or D8
    assert run_cli("analyze", expr) == (2, "")
    assert capsys.readouterr().err == ("error: expected a group name, sd(...)"
                                       " or perm[...] (at position 0)\n")


def test_candidates_counts():
    for delta, expected in [(1, 3), (4, 27), (5, 49)]:
        code, payload = run_json("candidates", "--delta", str(delta))
        assert code == 0
        assert payload["count"] == expected


def test_candidates_latex_caption():
    code, text = run_cli("candidates", "--delta", "4", "--format", "latex")
    assert code == 0
    assert "\\caption{Table for $\\Delta(G)=4$}" in text
    assert "none" in text  # the 1+1+1+1 partition row


def test_exclude_sections():
    code, payload = run_json("exclude", "--delta", "5")
    assert code == 0
    assert payload["counts"] == {"candidates": 49, "excluded": 47,
                                 "survivors": 2}
    assert payload["survivors"] == [[3, 4, 4, 4, 6], [7]]
    rules = {tuple(e["signature"]): e["recorded_rule"]
             for e in payload["exclusions"]}
    assert rules[(4, 4, 5)] == "pattern_445"


def test_exclude_latex_has_both_tables():
    code, text = run_cli("exclude", "--delta", "2", "--format", "latex")
    assert code == 0
    assert "Exclusion table for $\\Delta(G)=2$" in text
    assert "Revised table for $\\Delta(G)=2$" in text


def test_verify_all_passes():
    code, payload = run_json("verify", "--all")
    assert code == 0
    assert payload["pass"] is True
    assert len(payload["claims"]) == 25
    assert set(payload) == {"claims", "sweep", "properties", "pass"}


def test_verify_single_delta():
    code, text = run_cli("verify", "--delta", "3")
    assert code == 0
    assert text.strip().endswith("PASS")


def test_verify_failure_exit_code(monkeypatch):
    failing = VerificationReport(
        sweep=[CheckResult("stub", False, "synthetic failure")])
    monkeypatch.setattr(cli, "verify_all", lambda: failing)
    code, text = run_cli("verify", "--all")
    assert code == 1
    assert "FAIL" in text


def test_catalog_search():
    code, payload = run_json("catalog", "--max-order", "24", "--delta", "2")
    assert code == 0
    assert {e["label"] for e in payload} == {"C6", "C4xC2", "D12", "D8xC2"}
    code, payload = run_json("catalog", "--max-order", "16",
                             "--sigma", "4,4,4,4")
    assert {e["label"] for e in payload} == {"C4xC2xC2", "(C2xC2):C4",
                                             "Q8:C2"}


def test_catalog_empty_sigma_is_the_empty_signature():
    # the groups with no cyclic subgroup of order > 2: elementary abelian
    code, text = run_cli("catalog", "--sigma", "")
    assert code == 0
    labels = [line.split()[2] for line in text.splitlines()[:-1]]
    assert labels == ["C1", "C2", "C2xC2", "C2xC2xC2", "C2xC2xC2xC2"]
    assert text.endswith("\n5 groups\n")


def test_catalog_max_order_bounds_the_window():
    # S3 has signature (3,) too, but order 6 lies past --max-order 5
    code, text = run_cli("catalog", "--sigma", "3", "--max-order", "5")
    assert code == 0
    assert [line.split()[2] for line in text.splitlines()[:-1]] == ["C3"]
    assert text.endswith("\n1 groups\n")


def test_catalog_huge_sigma_entry_is_quick():
    # an entry past --max-order empties the window before any totient;
    # computing its totient by trial division takes well over 10 s
    start = time.perf_counter()
    child = run_python("-m", "groupcensus", "catalog", "--sigma",
                       "99999999999999999999999999", timeout=10)
    assert time.perf_counter() - start < 1
    assert (child.returncode, child.stdout, child.stderr) == (0, b"0 groups\n",
                                                              b"")


def test_catalog_sigma_entries_must_exceed_2(capsys):
    code, text = run_cli("catalog", "--sigma", "2")
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        "error: bad --sigma: signature entries must exceed 2: (2,)\n")
    # the entries are sorted before the check, so it names them in order
    code, text = run_cli("catalog", "--sigma", "3,2")
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        "error: bad --sigma: signature entries must exceed 2: (2, 3)\n")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_catalog_sigma_order_does_not_matter(fmt):
    code, text = run_cli("catalog", "--sigma", "3,6", "--format", fmt)
    assert code == 0
    assert run_cli("catalog", "--sigma", "6,3", "--format", fmt) == (0, text)
    assert "C6" in text and "D12" in text


def test_catalog_bounds_error():
    code, _ = run_cli("catalog", "--max-order", "25")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("catalog", "--max-order", "0"),
    ("catalog", "--max-order", "-5"),
    ("catalog", "--delta", "-1"),
    ("catalog", "--sigma", ",,"),
    ("catalog", "--sigma", "2"),
    ("catalog", "--sigma", "-3"),
    ("catalog", "--sigma", "3" * 5000),  # past Python's int-digit limit
    ("explore", "--delta", "0"),
    ("explore", "--delta", "17"),
    ("candidates", "--delta", "0"),
    ("candidates", "--delta", "17"),
    ("exclude", "--delta", "0"),
    ("exclude", "--delta", "17"),
    ("verify", "--delta", "0"),
    ("verify", "--delta", "6"),
])
def test_catalog_edge_values_are_usage_errors(argv, capsys):
    code, text = run_cli(*argv)
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_catalog_smallest_bounds_still_search():
    code, text = run_cli("catalog", "--max-order", "1", "--delta", "0")
    assert code == 0
    assert text.endswith("1 groups\n")


def test_explore_json():
    code, payload = run_json("explore", "--delta", "6")
    assert code == 0
    sigs = {tuple(s["signature"]) for s in payload["survivors"]}
    assert (4, 4, 4, 4, 4, 4) in sigs
    assert (5, 10) in sigs
    witnesses = {w["label"]: w["delta"] for s in payload["survivors"]
                 for w in s["witnesses"]}
    assert witnesses["Q8xC2"] == 6
    assert witnesses["C10"] == 6
    assert witnesses["D20"] == 6


def test_usage_errors():
    assert run_cli("frobnicate")[0] == 2
    assert run_cli("candidates")[0] == 2
    assert run_cli("verify")[0] == 2
    assert run_cli("candidates", "--delta", "4", "--format", "yaml")[0] == 2


@functools.cache
def argparse_oracle() -> argparse.ArgumentParser:
    """The argparse parser the CLI used before its table-driven parser.

    Built once per session: ``parse_args`` reads the parser and never
    changes it, so every example meets the same parser.
    """
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


def assert_parses_as_argparse(argv):
    """cli.parse_args gives argparse's values, help (exit 0) or exit 2."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            expected = vars(argparse_oracle().parse_args(argv))
        except SystemExit as exc:
            expected = exc.code
    out = io.StringIO()
    try:
        args = cli.parse_args(argv, out)
        got = 0 if args is None else vars(args)
    except ValueError:
        got = 2
    assert got == expected, argv
    assert out.getvalue().startswith("usage: groupcensus ") == (got == 0), argv


_COMMAND_WORDS = ["analyze", "candidates", "exclude", "verify", "catalog",
                  "explore", "frob"]
_ARGV_TOKENS = st.sampled_from(_COMMAND_WORDS + [
    # every option, unique prefixes, and values after "="
    "--delta", "--all", "--format", "--max-order", "--sigma", "-h", "--help",
    "--del", "--d", "--form", "--max", "--a", "--s", "--he",
    "--delta=3", "--del=x", "--format=json", "--form=latex", "--all=1",
    "--sigma=4,4", "--sigma=", "--max-order=16", "--help=", "--=x", "-hx",
    # the end of options, dash-led values and words, and plain values
    "--", "-", "-1", "-.5", "-C4", "-x y", "0", "3", "5", "16", "text",
    "table", "json", "latex", "yaml", "", " 5", "x", "4,4,4"])
_ARGV = st.one_of(
    st.lists(_ARGV_TOKENS, max_size=5),
    st.tuples(st.sampled_from(_COMMAND_WORDS),
              st.lists(_ARGV_TOKENS, max_size=7)).map(
        lambda pair: [pair[0], *pair[1]]))


@settings(max_examples=1000, deadline=2000)
@given(_ARGV)
def test_parser_agrees_with_argparse(argv):
    assert_parses_as_argparse(argv)


@pytest.mark.parametrize("argv", [
    # every documented form of every command
    ["analyze", "D8 x C2"], ["analyze", "Q8", "--format", "json"],
    ["analyze", "--format=json", "sd(C3 x C3, C2, inv)"],
    ["candidates", "--delta", "4"], ["candidates", "--delta=4"],
    ["candidates", "--delta", "5", "--format", "latex"],
    ["exclude", "--delta", "5"], ["exclude", "--delta", "2", "--format",
                                  "json"],
    ["verify", "--all"], ["verify", "--delta", "3"],
    ["verify", "--all", "--format", "json"],
    ["catalog"], ["catalog", "--max-order", "24", "--delta", "2"],
    ["catalog", "--max-order", "16", "--sigma", "4,4,4,4"],
    ["catalog", "--sigma", ""], ["catalog", "--sigma="],
    ["catalog", "--sigma", "3,6", "--format", "json"],
    ["explore", "--delta", "6"], ["explore", "--delta", "16", "--format",
                                  "json"],
    ["-h"], ["--help"], ["verify", "-h"], ["explore", "--he"],
    # prefixes, repeats, negative numbers and "-" as values
    ["explore", "--del", "6", "--form", "json"], ["catalog", "--m=3"],
    ["verify", "--delta", "1", "--delta", "2"], ["catalog", "--delta", "-1"],
    ["catalog", "--sigma", "-"], ["analyze", "-1"], ["analyze", "-.5"],
    # ways a parser that reads tokens naively parts from argparse
    ["analyze", "-h"], ["analyze", "x", "--"], ["analyze", "--", "-x"],
    ["catalog", "--sigma", "-C4"], ["explore", "-C4", "--he"],
    ["verify", "--all", "--"], ["verify", "--delta", "1", "--all", "-h"],
    ["verify", "-h", "--delta", "1", "--all"], ["verify", "--all=1", "-h"],
    ["verify", "-h", "--=x"], ["--=x", "verify"], ["-C4", "verify", "-h"],
    ["--", "verify", "--all"], ["-hx"], ["analyze", "x", "y"], [],
    ["frob", "-h"], ["candidates", "--delta", " 5"],
])
def test_parser_corpus_agrees_with_argparse(argv):
    assert_parses_as_argparse(argv)


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["verify", "-h"], ["analyze", "--he"],
    ["catalog", "-C4", "-h", "--max-order", "x"],
])
def test_help_goes_to_out_and_exits_0(argv, capsys):
    code, text = run_cli(*argv)
    assert code == 0
    assert text.startswith("usage: groupcensus ")
    assert capsys.readouterr() == ("", "")


def test_help_names_every_command_and_option():
    text = run_cli("-h")[1]
    assert [line.split()[2] for line in text.splitlines()
            if line.startswith("usage:")] == list(cli._GRAMMAR)
    for command, (_help, slots, options) in cli._GRAMMAR.items():
        usage = run_cli(command, "-h")[1].splitlines()[0]
        assert all(word in usage for word in [*slots, *options])


def test_usage_error_is_one_line_on_stderr(capsys):
    assert run_cli("verify", "--delta", "x") == (2, "")
    assert capsys.readouterr() == (
        "", "error: --delta: 'x' is not an integer\n")


@pytest.mark.parametrize("argv", [
    ("analyze", "D8 x C2"),
    ("candidates", "--delta", "5", "--format", "latex"),
    ("exclude", "--delta", "4"),
    ("catalog", "--max-order", "16"),
    ("explore", "--delta", "6"),
    ("verify", "--all", "--format", "json"),
])
def test_output_is_deterministic(argv):
    assert run_cli(*argv) == run_cli(*argv)


@pytest.mark.parametrize("command", ["candidates", "exclude"])
@pytest.mark.parametrize("fmt", ["table", "json", "latex"])
def test_output_matches_pinned_digests(command, fmt):
    for delta in range(1, 17):
        argv = [command, "--delta", str(delta), "--format", fmt]
        code, text = run_cli(*argv)
        assert code == 0
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == PINNED_DIGESTS[" ".join(argv)], argv


# sha256 of the catalog forms of the tests above and of the bare command,
# in both formats, captured when every catalog order was built per call
CATALOG_DIGESTS = {
    (("--max-order", "24", "--delta", "2"), "table"):
        "c55d7898e9439eb56e824cc235ad5ec5a264709d0118646d3b609072d329caad",
    (("--max-order", "24", "--delta", "2"), "json"):
        "147f4cc4f9d775ee8f230f141f4a8c98a90f722010120b8dafb00981c4cc3f8e",
    (("--max-order", "16", "--sigma", "4,4,4,4"), "table"):
        "89da5110b2a5d917b87af7c4c47cde2f6808e36292e4b4a4655ca107a2eadd91",
    (("--max-order", "16", "--sigma", "4,4,4,4"), "json"):
        "c420f05b1a01204451ee5e4aabf6e6ac3e6e0a76022202a03a05042dbe1202c2",
    (("--sigma", ""), "table"):
        "94ade16584858b26fb8cde89903684488913490a284758c30c6582ba547bbbb9",
    (("--sigma", ""), "json"):
        "cd12d33ac999d132b763e0cd8d180130894965faf5f5fe9def1ced6bf3dda287",
    (("--sigma", "3,6"), "table"):
        "07ea69774fabfe77cb29b8fa4bbeac0566303af79532870a16277c23817736e1",
    (("--sigma", "3,6"), "json"):
        "aa4ccd6033d44fc74b5e783ec12f08686312eb38f6c8665722abb9a89c890595",
    (("--sigma", "6,3"), "table"):
        "07ea69774fabfe77cb29b8fa4bbeac0566303af79532870a16277c23817736e1",
    (("--sigma", "6,3"), "json"):
        "aa4ccd6033d44fc74b5e783ec12f08686312eb38f6c8665722abb9a89c890595",
    (("--max-order", "1", "--delta", "0"), "table"):
        "3ed250e38124258c271f5be8e8ef1fc3806958318ec2c9d1bd0844d778617894",
    (("--max-order", "1", "--delta", "0"), "json"):
        "404e563cad4e487816320282cc1f7ac9e66ac770e3b186bab14142d4fff93c5c",
    (("--max-order", "16"), "table"):
        "693c869abc48ed379240a9ff566be061c793730058bdf3385da5234b7b195979",
    (("--max-order", "16"), "json"):
        "2fe59168b33c10389da21bf02a530b0a506501ed028cae4c088cdcb1f54c177c",
    ((), "table"):
        "7d61c40048410fe9e202c907d26cbd836eadf9ddb87269b84bd082dbb2505265",
    ((), "json"):
        "32cebd3870f1db55719d590c8471cea4f2dc131c6579762715900f2ca185f339",
}


@pytest.mark.parametrize("args,fmt", list(CATALOG_DIGESTS))
def test_catalog_forms_keep_their_bytes(args, fmt):
    code, text = run_cli("catalog", *args, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == \
        CATALOG_DIGESTS[args, fmt]


# sha256 of the --format json output of verify, explore and analyze,
# captured while the result records still built their own JSON
JSON_DIGESTS = {
    ("verify", "--all"):
        "87278c11e9effb7cbfe273e26af77ce7f4e2096877d55cb204c625ef763817e2",
    ("verify", "--delta", "1"):
        "01cf34be8cd9b7f531f55e8cb3a16fddc125d25d7b76f0dccad29cee41758ff9",
    ("verify", "--delta", "2"):
        "23de30a866c83025f5c95bd6375fddb7e6b89b2e4b30c5df931082b4ae7ec8aa",
    ("verify", "--delta", "3"):
        "07f9e6e94bb19a97288ab8d3c2f9eec1ea80ad4ded039147519f1d1ff2d7f23b",
    ("verify", "--delta", "4"):
        "a25c26bb7509dcf1900045d73bdab02e2b7c02a091c961e0b56f19e4a5c37161",
    ("verify", "--delta", "5"):
        "2ec84304d48dc11e9572241724eb58f2ad4a76a89220e6b3285db04e29542763",
    ("explore", "--delta", "1"):
        "9150cd697732d8de9c971749aaca1b4d43409817ef6c502a3d5413d91d8e5891",
    ("explore", "--delta", "2"):
        "1f25d47752ee70e61570f05891a3f95d7598fedbbb7bc990a07451b9375a2e98",
    ("explore", "--delta", "3"):
        "2336358a7461e50f9f79500e6698f0c071aac309f48a8728965cc1d07e8f1f7d",
    ("explore", "--delta", "4"):
        "ca58b15b3207ea752d8b17fab5ddd86f4a3ec395f92a433b64a427396771dec5",
    ("explore", "--delta", "5"):
        "199ef3ed1a3f50c743db6231ff38897656d628bb3d1c49bdbb7a698e2cd84153",
    ("explore", "--delta", "6"):
        "77b072afc544db0f449d04ac3444d31ca6dd3ff6e6b4a266ccdfec1ecd39dd1f",
    ("explore", "--delta", "7"):
        "36c1b774ddd9310bbb6588abb219451f0d128ca0cb1f9dafa13828ae6205fcea",
    ("explore", "--delta", "8"):
        "d6e7775e66d267ceb1676aac763b9034184d47923266d1c3ad2113e602b7e7e4",
    ("explore", "--delta", "9"):
        "218016cb322c63d189be3b0cbdc315329ee064c191ce074df3868b6d6aecab3a",
    ("explore", "--delta", "10"):
        "be944ff4cd17004240aad8f04889e4df213f8d28825d928438402acc7bfc000c",
    ("explore", "--delta", "11"):
        "d1b870ccd36e95d02996dc8dd36892ac758c5f5d03cf62adae7be7a2706507d9",
    ("explore", "--delta", "12"):
        "3244d2dde62a93f6a3fcd5abc6a5bcce0eca9885e9d685a71ff9f78388889528",
    ("explore", "--delta", "13"):
        "4ad66abbc1d3ce737d64b9c4c1d4ed6fe0fe50b5b5bb648a1683833974d389e6",
    ("explore", "--delta", "14"):
        "a3ab52ca3f443648f398870478d94d7b5a2ec2dab42ae53afe468bc137baaa70",
    ("explore", "--delta", "15"):
        "0f4e35357ae0b8dff198e39b66a2371c942f1642212356dc60a3abccbb863447",
    ("explore", "--delta", "16"):
        "89f227ee642297180ececd0679420673df8352e286e6b3ff7d678ba5517a0a3b",
    ("analyze", "C1"):
        "0188240a13b68c24b4f61529db694fc3d52a95f7e20a4ffaa3eabfa2f30de54c",
    ("analyze", "Q8"):
        "90f21ede29d15c5608e8685ea6c96f486f315cdff9b2400530bc917fb0bc3ee5",
    ("analyze", "D8 x C2"):
        "743547c9dd7f816d292e0b208399f46c3dc7d2ce7828eae013bcecba3fb4bb39",
    ("analyze", "sd(C3xC3, C2, inv)"):
        "e2e765da086a5d6026b67faaa37af7c85da9fae92cb46576e6d6637af221b1af",
    ("analyze", "perm[(0 1 2)(3 4)]"):
        "4313d33e081d56f5a35706553fd474274c10470d0ba35b5e04b88db210de6405",
    ("analyze", "S4"):
        "cfc41510888096faf7f34076ae250381d9f72c06f5da0738f8a2fa4cee5d069e",
    ("analyze", "A4 x C2"):
        "b7674a9a2013bab6e88a922d9a8d2e730b3826aacf221100124d9367f69779c5",
    ("analyze", "C64"):
        "64e068ab6c2c6b118f589f103a09ba493f20ba05d3391090b244754152e3503b",
}


@pytest.mark.parametrize("argv", list(JSON_DIGESTS))
def test_json_forms_keep_their_bytes(argv):
    code, text = run_cli(*argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == JSON_DIGESTS[argv]


def test_json_writer_matches_the_standard_encoder():
    payload = {"ints": [0, -7, 10 ** 30], "empty": [], "none": {},
               "flags": [True, False, None],
               "text": ["plain", "quote \" and \\", "tab\tline\n",
                        "caf\u00e9 \u2200", ""],
               "nested": [[[]], [{"a": [1, {"b": None}]}]],
               "mixed": [1, True, None, "x", [2], 3],
               "tuples": [(), ((), (1, (2, 3))), {"t": (4, "y", None)},
                          [(5,), [()]]]}
    out = io.StringIO()
    cli._emit_json(out, payload)
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"
    with pytest.raises(TypeError):
        cli._emit_json(io.StringIO(), {"ratio": 0.5})


def test_cli_import_loads_no_heavy_modules():
    # -S, because site can preload typing; argparse pulls in gettext and
    # locale, dataclasses inspect, ast and dis; json is needed only by
    # --format json and is imported there
    code = ("import sys; before = set(sys.modules); import groupcensus.cli;"
            " print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-S", "-c", code],
                           capture_output=True, text=True, timeout=60, env=env)
    assert child.returncode == 0, child.stderr
    added = set(child.stdout.split())
    assert "groupcensus.cli" in added
    assert not added & {"argparse", "gettext", "locale", "typing",
                        "dataclasses", "inspect", "json"}


def test_cli_import_loads_no_expression_parser():
    # only analyze parses an expression: cli imports the parser inside it,
    # and the package resolves parse_group on first use
    code = ("import sys, groupcensus.cli\n"
            "print('groupcensus.expressions' in sys.modules)\n"
            "from groupcensus import parse_group\n"
            "print('groupcensus.expressions' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-S", "-c", code],
                           capture_output=True, text=True, timeout=60, env=env)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["False", "True"]


def test_closed_stdout_exits_1_without_traceback():
    # 185 kB of output outgrow the pipe buffer, so the child is still
    # writing when the reader closes the pipe after one line
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.Popen(
        [sys.executable, "-m", "groupcensus", "candidates", "--delta", "16"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert child.stdout.readline().startswith(b"candidate signatures")
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert stderr == b""


def run_python(*args, timeout=60):
    """A child interpreter on this process's import path, output captured."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          timeout=timeout, env=env)


@pytest.mark.parametrize("argv", [
    ("verify", "--all"),
    ("explore", "--delta", "16"),
    # 185 kB, more than a pipe holds: the tail is written by the flush at exit
    ("candidates", "--delta", "16", "--format", "json"),
])
def test_process_output_matches_run(argv):
    child = run_python("-m", "groupcensus", *argv)
    code, text = run_cli(*argv)
    assert child.returncode == code == 0
    assert child.stderr == b""
    assert child.stdout == text.encode()


def test_process_help_exits_0_on_stdout():
    child = run_python("-m", "groupcensus", "explore", "-h")
    assert (child.returncode, child.stderr) == (0, b"")
    assert child.stdout == run_cli("explore", "-h")[1].encode()


def test_process_usage_error_exits_2():
    child = run_python("-m", "groupcensus", "verify", "--delta", "9")
    assert child.returncode == 2
    assert child.stderr == b"error: classified deltas are 1..5, got 9\n"
    assert child.stdout == b""


def test_main_freezes_the_collector_and_atexit_still_runs():
    code = ("import atexit, gc, sys; from groupcensus import cli;"
            " atexit.register(lambda: print(gc.get_freeze_count() > 0));"
            " sys.argv[1:] = ['catalog', '--max-order', '4']; cli.main()")
    child = run_python("-c", code)
    assert (child.returncode, child.stderr) == (0, b"")
    text = run_cli("catalog", "--max-order", "4")[1]
    assert child.stdout == text.encode() + b"True\n"


def test_run_leaves_the_collector_unfrozen():
    before = gc.get_freeze_count()
    assert run_cli("verify", "--all")[0] == 0
    assert gc.get_freeze_count() == before


def test_no_assert_statements_in_src_or_tools():
    # invariants raise explicit errors: python -O strips assert statements
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = sorted((root / "src").rglob("*.py")) + sorted(
        (root / "tools").rglob("*.py"))
    assert len(paths) > 12
    found = [f"{path.relative_to(root)}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_optimized_process_verifies_the_same():
    plain = run_python("-m", "groupcensus", "verify", "--all")
    optimized = run_python("-O", "-m", "groupcensus", "verify", "--all")
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stderr == b""
    assert optimized.stdout == plain.stdout


# well-formed expressions over valid and out-of-range names and random
# cycles, fragments of the language, and raw characters
_CYCLES = st.lists(st.lists(st.integers(0, 12), max_size=5), max_size=3).map(
    lambda cycles: "".join("(" + " ".join(map(str, c)) + ")" for c in cycles))
_LEAVES = st.one_of(
    st.sampled_from(["C1", "C2", "C3", "C4", "C6", "D6", "D8", "Q8", "SD16",
                     "S3", "S4", "A4", "C0", "C65", "D7", "SD8", "S5"]),
    st.lists(_CYCLES, max_size=3).map(lambda gens: f"perm[{';'.join(gens)}]"))
_EXPRESSIONS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.tuples(inner, inner).map(lambda pair: f"{pair[0]} x {pair[1]}"),
    st.tuples(inner, inner).map(lambda pair: f"sd({pair[0]}, {pair[1]}, inv)")),
    max_leaves=4)
_PIECES = st.sampled_from(["C4", "Q8", "x", "sd(", ",", "inv", ")", "perm[",
                           "]", "(0 1)", "(0 0)", "(9 200000)", ";", "(", " ",
                           "-", "7", ""])
_EXPRESSION_TEXT = st.one_of(
    _EXPRESSIONS,
    st.lists(_PIECES, max_size=12).map("".join),
    st.text(alphabet="CDQSAxsdpermiv(),;[] 0123456789-", max_size=30))


@settings(max_examples=300, deadline=2000)
@given(_EXPRESSION_TEXT)
def test_analyze_fuzz_exits_0_or_2(text):
    # any expression or cycle text parses to a census or a usage error,
    # never a traceback
    assert run_cli("analyze", text)[0] in (0, 2)
