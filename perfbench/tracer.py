"""Per-layer times and counts, taken by wrapping groupcensus's public functions.

`Tracer.install` rebinds every module-level name in groupcensus that refers
to a traced function, so a caller that did ``from .catalog import
load_catalog`` calls the wrapper too.  A time is inclusive, so a time
nested in another is counted in both; `cli.self_s` is `cli.run` minus the
time of the traced calls directly inside it.  Nothing here runs unless a
traced run asks for it, so untraced runs measure the program untouched.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter


class Tracer:
    """Sums per metric over the traced calls, plus maxima for pinned values."""

    def __init__(self) -> None:
        self.sums: dict[str, float] = {}
        self.maxima: dict[str, int] = {}
        self._covered: list[list[float]] = []  # per open span: child time
        self._patches: list[tuple] = []  # (owner, attribute, plain, wrapped)

    def add(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0) + value

    def at_least(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def snapshot(self) -> dict:
        return {"sums": dict(self.sums), "maxima": dict(self.maxima)}

    def wrap(self, fn, hook):
        """fn timed; hook(args, result, seconds, self_seconds) on return."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._covered.append([0.0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                covered = self._covered.pop()[0]
                if self._covered:
                    self._covered[-1][0] += seconds
            hook(args, result, seconds, seconds - covered)
            return result

        return wrapper

    def timed(self, name: str):
        return lambda args, result, seconds, own: self.add(name, seconds)

    # -- hooks that count work ------------------------------------------------

    def _on_load_catalog(self, args, entries, seconds, own):
        self.add("catalog.load_s", seconds)
        self.at_least("catalog.entries", len(entries))

    def _on_table(self, args, result, seconds, own):
        self.add("groups.tables", 1)
        self.add("groups.elements", args[0].order)

    def _on_census(self, args, report, seconds, own):
        self.add("census.census_s", seconds)
        self.add("census.calls", 1)
        self.add("census.elements", report.group_order)

    def _on_isomorphic(self, args, same, seconds, own):
        self.add("isomorphism.calls", 1)
        if same:
            self.add("isomorphism.iso_pairs", 1)
            self.add("isomorphism.iso_s", seconds)
        else:
            self.add("isomorphism.noniso_s", seconds)

    def _on_enumerate(self, args, candidates, seconds, own):
        self.add("candidates.enumerate_s", seconds)
        self.add("candidates.rows", sum(len(c.rows) for c in candidates))
        self.at_least(f"candidates.count.d{args[0]}", len(candidates))

    def _on_apply(self, args, verdict, seconds, own):
        self.add("exclusion.apply_s", seconds)
        self.add("exclusion.signatures", 1)
        if not verdict.excluded:
            self.add("exclusion.survivors", 1)
        for rule in verdict.fired_rules:
            self.add(f"exclusion.fired.{rule}", 1)

    def _on_cli_run(self, args, code, seconds, own):
        self.add("cli.self_s", own)

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions wherever groupcensus binds them."""
        # import_module, because the package rebinds some module names
        # (groupcensus.census is the function) to functions
        (candidates, catalog, census, cli, exclusion, expressions, groups,
         isomorphism, verify) = (
            importlib.import_module(f"groupcensus.{name}")
            for name in ("candidates", "catalog", "census", "cli", "exclusion",
                         "expressions", "groups", "isomorphism", "verify"))

        functions = (
            (cli.run, self._on_cli_run),
            (catalog.load_catalog, self._on_load_catalog),
            (catalog.catalog_validate, self.timed("catalog.validate_s")),
            (expressions.parse_group, self.timed("expressions.parse_group_s")),
            (census.census, self._on_census),
            (isomorphism.is_isomorphic, self._on_isomorphic),
            (verify.verify_theorem, self.timed("verify.theorem_s")),
            (verify.property_suite, self.timed("verify.properties_s")),
            (verify.explore, self.timed("verify.explore_s")),
            (verify.known_groups_for, self.timed("verify.known_groups_for_s")),
            (candidates.enumerate_candidates, self._on_enumerate),
            (exclusion.apply_rules, self._on_apply),
        )
        modules = [m for name, m in sys.modules.items()
                   if name == "groupcensus" or name.startswith("groupcensus.")]
        for fn, hook in functions:
            wrapper = self.wrap(fn, hook)
            self._patches += [(module, attr, fn, wrapper) for module in modules
                              for attr, value in vars(module).items()
                              if value is fn]
        for owner, attr, hook in (
                (catalog.CatalogEntry, "build", self.timed("groups.build_s")),
                (groups.GroupTable, "__init__", self._on_table)):
            fn = getattr(owner, attr)
            self._patches.append((owner, attr, fn, self.wrap(fn, hook)))
        self.enable(True)

    def enable(self, on: bool) -> None:
        """Switch between the wrapped and the plain functions."""
        for owner, attr, plain, wrapped in self._patches:
            setattr(owner, attr, wrapped if on else plain)
