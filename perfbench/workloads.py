"""Workload inputs, made from a seed, and the references outputs must match.

Nothing here imports groupcensus.  Inputs are generated, and outputs checked,
by the benchmark's own code, so a defect in the program cannot vouch for
itself.  Every check returns None when the output is right and a one-line
reason when it is wrong.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("verify", "explore", "census")

# The delta table of PAPER.md, copied by hand: the groups claimed for each
# delta, in the order the paper lists them.
PAPER_DELTA_TABLE = {
    1: ("C3", "C4", "S3", "D8"),
    2: ("C4xC2", "D8xC2", "C6", "D12"),
    3: ("Q8", "C5", "D10"),
    4: ("C4xC2xC2", "C2xC2xD8", "(C2xC2):C4", "Q8:C2", "C3xC3",
        "(C3xC3):C2", "A4", "C6xC2", "C2xC2xS3", "C8", "D16"),
    5: ("C7", "D14", "C3:C4"),
}

EXPLORE_DELTAS = tuple(range(6, 17))

# Candidate signature counts for even delta, written by hand rather than
# computed; the traced run must reproduce them.
PINNED_CANDIDATE_COUNTS = {6: 90, 8: 260, 10: 686, 12: 1681, 14: 3877,
                           16: 8525}

GOLDEN_SURVIVORS = HERE / "golden" / "explore_survivors.json"
CATALOG_GENERATORS = HERE / "data" / "catalog_generators.txt"

# census workload: pool size, and the share of each stratum in it
CENSUS_POOL_SIZE = 1024
CENSUS_STRATA = (("name", "low"), ("name", "high"),
                 ("product", "low"), ("product", "high"),
                 ("sd", "low"), ("sd", "high"),
                 ("perm", "low"), ("perm", "low"))
HIGH_ORDER = 32  # orders >= this form the "high" band
MAX_ORDER = 64


# ---------------------------------------------------------------------------
# operation streams


def op_stream(workload: str, seed: int):
    """The endless, seed-determined stream of operations of one workload.

    verify and explore yield CLI argument lists (the arguments after
    ``python -m groupcensus``); census yields (expression, predicted order).
    """
    if workload == "verify":
        # the inputs are fixed; the seed has nothing to choose
        return itertools.repeat(["verify", "--all"])
    if workload == "explore":
        return _explore_stream(seed)
    if workload == "census":
        return itertools.cycle(census_pool(seed))
    raise ValueError(f"unknown workload {workload!r}")


def _explore_stream(seed: int):
    rng = random.Random(seed)
    while True:
        round_ = list(EXPLORE_DELTAS)
        rng.shuffle(round_)
        for delta in round_:
            yield ["explore", "--delta", str(delta)]


# ---------------------------------------------------------------------------
# census inputs


def _names() -> list[tuple[str, int]]:
    """Every named group of order 2..64 the expression language knows."""
    out = [(f"C{n}", n) for n in range(2, MAX_ORDER + 1)]
    out += [(f"D{n}", n) for n in range(4, MAX_ORDER + 1, 2)]
    out += [(f"Q{n}", n) for n in range(8, MAX_ORDER + 1, 4)]
    out += [(f"SD{n}", n) for n in (16, 32, 64)]
    out += [("S2", 2), ("S3", 6), ("S4", 24), ("A3", 3), ("A4", 12)]
    return out


def _products(names: list[tuple[str, int]]) -> list[tuple[str, int]]:
    """Products of two or three names with order at most 64."""
    out = []
    for (a, na), (b, nb) in itertools.product(names, repeat=2):
        if na * nb <= MAX_ORDER:
            out.append((f"{a} x {b}", na * nb))
            for c, nc in names:
                if na * nb * nc <= MAX_ORDER:
                    out.append((f"{a} x {b} x {c}", na * nb * nc))
    return out


def _semidirects() -> list[tuple[str, int]]:
    """sd(A, C2, inv) for cyclic A and for A a product of two cyclic groups."""
    bases = [(f"C{n}", n) for n in range(2, MAX_ORDER // 2 + 1)]
    bases += [(f"C{a} x C{b}", a * b) for a in range(2, 17) for b in range(2, 17)
              if a * b <= MAX_ORDER // 2]
    return [(f"sd({base}, C2, inv)", 2 * n) for base, n in bases]


def _catalog_lines() -> list[tuple[int, list[list[list[int]]]]]:
    """(order, generators as lists of cycles) for each bundled catalog line."""
    out = []
    for raw in CATALOG_GENERATORS.read_text().splitlines():
        if not raw.strip() or raw.startswith("#"):
            continue
        order, _index, _label, gens = raw.split(maxsplit=3)
        cycles = [[[int(p) for p in body.split()]
                   for body in re.findall(r"\(([0-9 ]*)\)", chunk)]
                  for chunk in gens[len("gens="):].split(";")]
        out.append((int(order), cycles))
    return out


def _relabelled(rng: random.Random, gens: list[list[list[int]]]) -> str:
    """A perm[...] expression for the generators with points relabelled."""
    degree = 1 + max(p for gen in gens for cycle in gen for p in cycle)
    image = list(range(degree))
    rng.shuffle(image)
    text = "; ".join(
        "".join("(" + " ".join(str(image[p]) for p in cycle) + ")"
                for cycle in gen)
        for gen in gens)
    return f"perm[{text}]"


def census_pool(seed: int) -> list[tuple[str, int]]:
    """CENSUS_POOL_SIZE (expression, predicted order) pairs drawn from seed.

    The pool is stratified: every stratum of CENSUS_STRATA fills the same
    share, so seeds change which expressions run but not the mix of kinds
    and sizes.  Three strata of eight have order >= 32.
    """
    rng = random.Random(seed)
    names = _names()
    choices = {"name": names, "product": _products(names),
               "sd": _semidirects()}
    by_stratum = {}
    for kind, exprs in choices.items():
        by_stratum[kind, "low"] = [e for e in exprs if e[1] < HIGH_ORDER]
        by_stratum[kind, "high"] = [e for e in exprs if e[1] >= HIGH_ORDER]
    catalog = _catalog_lines()
    pool = []
    per_stratum = CENSUS_POOL_SIZE // len(CENSUS_STRATA)
    for stratum in CENSUS_STRATA:
        for _ in range(per_stratum):
            if stratum[0] == "perm":
                order, gens = rng.choice(catalog)
                pool.append((_relabelled(rng, gens), order))
            else:
                pool.append(rng.choice(by_stratum[stratum]))
    rng.shuffle(pool)
    return pool


# ---------------------------------------------------------------------------
# references


_CLAIM = re.compile(r"claim delta=(\d+) (\S+)\s+order=(\d+)\s+delta=(-?\d+)"
                    r" sigma=\(([\d,]*)\) (ok|FAIL)")


def check_verify(code: int, stdout: str,
                 table: dict[int, tuple[str, ...]]) -> str | None:
    """verify --all: exit 0, final PASS, the 25 claims of the paper table."""
    if code != 0:
        return f"exit code {code}"
    lines = stdout.splitlines()
    if not lines or lines[-1] != "PASS":
        return "last line is not PASS"
    claims = [_CLAIM.fullmatch(line) for line in lines
              if line.startswith("claim ")]
    if None in claims:
        return "unparseable claim line"
    got = sorted((int(m[1]), m[2]) for m in claims)
    want = sorted((d, label) for d, labels in table.items() for label in labels)
    if got != want:
        return f"claims {got} differ from the paper table {want}"
    for m in claims:
        if int(m[4]) != int(m[1]) or m[6] != "ok":
            return f"claim {m[2]}: computed delta {m[4]}, status {m[6]}"
    return None


def parse_explore(stdout: str) -> tuple[int, list]:
    """(header count, [[signature, status, [witness labels]], ...])."""
    lines = stdout.splitlines()
    head = re.fullmatch(r"delta = (\d+): (\d+) surviving signatures", lines[0])
    if head is None:
        raise ValueError(f"bad header {lines[0]!r}")
    survivors = []
    for line in lines[1:]:
        if line.startswith("    witness "):
            survivors[-1][2].append(line.split()[1])
            continue
        sig, status = line.split(maxsplit=1)
        survivors.append([sig, status, []])
    return int(head[2]), survivors


def load_golden() -> dict[int, list]:
    data = json.loads(GOLDEN_SURVIVORS.read_text())
    return {int(d): survivors for d, survivors in data["survivors"].items()}


def check_explore(argv: list[str], code: int, stdout: str,
                  golden: dict[int, list]) -> str | None:
    """explore --delta d: exit 0 and the golden survivors, witnesses included."""
    delta = int(argv[-1])
    if code != 0:
        return f"exit code {code}"
    try:
        count, survivors = parse_explore(stdout)
    except (ValueError, IndexError) as err:
        return f"unparseable output: {err}"
    if count != len(survivors):
        return f"header says {count} survivors, {len(survivors)} listed"
    if survivors != golden[delta]:
        return f"delta {delta}: survivors differ from the golden data"
    return None


def check_candidate_counts(counts: dict[int, int]) -> str | None:
    """Traced explore: the pinned candidate counts, where enumerated."""
    for delta, count in counts.items():
        pinned = PINNED_CANDIDATE_COUNTS.get(delta)
        if pinned is not None and count != pinned:
            return f"delta {delta}: {count} candidates, pinned {pinned}"
    return None


def totient(d: int) -> int:
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def check_census(expected_order: int, product: list, group_order: int,
                 n_d: list[tuple[int, int]], total: int, delta: int,
                 ) -> str | None:
    """The table has the predicted order and n_d = #{order d} / phi(d).

    Element orders come from the product rows, the totient from this
    module, so the reference shares no code with the census it checks.
    """
    n = len(product)
    if n != expected_order or group_order != expected_order:
        return (f"order {n} (reported {group_order}),"
                f" predicted {expected_order}")
    identity = next((e for e in range(n) if product[e][e] == e), None)
    if identity is None:
        return "no identity element"
    histogram: dict[int, int] = {}
    for x in range(n):
        k, acc = 1, x
        while acc != identity and k <= n:
            acc = product[acc][x]
            k += 1
        if acc != identity:
            return f"element {x} has no order up to {n}"
        histogram[k] = histogram.get(k, 0) + 1
    want = {}
    for d, count in histogram.items():
        if count % totient(d):
            return f"{count} elements of order {d}, not a multiple of phi"
        want[d] = count // totient(d)
    if dict(n_d) != want:
        return f"n_d {dict(n_d)}, reference {want}"
    if total != sum(want.values()) or delta != n - total:
        return f"cyclic count {total} / delta {delta} inconsistent with n_d"
    return None
