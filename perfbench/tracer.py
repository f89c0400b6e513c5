"""Spans around the public functions at the package's module boundaries.

The tracer replaces a function in every package module whose namespace
holds it (so `periods.m0_bound`, imported from `spectral`, is the same
span as `spectral.m0_bound`) and restores the originals on `uninstall`.
Each call records a span: its name, start, end, the span that caused it and
the operation it belongs to.  Self time is a span's duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time

MODULES = ("words", "homology", "spectral", "periods", "pl_oracle", "cli")

#: (module, attribute path) of every traced function
TARGETS = (
    ("words", "chi_of_iterate"),
    ("words", "gamma_of_iterate"),
    ("homology", "abelianize"),
    ("homology", "LefschetzTable.of"),
    ("homology", "mat_pow"),
    ("homology", "lefschetz"),
    ("homology", "periodic_lefschetz"),
    ("spectral", "eigenvalues"),
    ("spectral", "entropy_limit"),
    ("spectral", "dominant_test"),
    ("spectral", "m0_bound"),
    ("periods", "fix_count"),
    ("periods", "per_census"),
    ("periods", "lefschetz_fix_check"),
    ("periods", "criteria_doubling"),
    ("periods", "criteria_lowgrow"),
    ("periods", "criteria_delaylowgrow"),
    ("periods", "fmbig_test"),
    ("periods", "dominant_periods"),
    ("pl_oracle", "build_lift"),
    ("pl_oracle", "lift_branch_period"),
    ("pl_oracle", "count_fixed"),
    ("pl_oracle", "cover_growth"),
    ("cli", "parse_spec"),
    ("cli", "run_report"),
    ("cli", "render_json"),
)


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "active")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.active = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.fix_keys: set[tuple[int, int]] = set()
        self.op = 0
        self._stack: list[list] = []
        self._next_id = 1
        self._saved: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"bouquet_dyn.{m}") for m in MODULES}
        for mod_name, path in TARGETS:
            owner = mods[mod_name]
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p, None)
            if owner is None or not hasattr(owner, attr):
                continue  # a later version of the package dropped it
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
            orig = getattr(owner, attr)
            wrapped = self._wrap(f"{mod_name}.{path}", orig)
            if isinstance(raw, staticmethod):
                self._swap(owner, attr, staticmethod(wrapped))
                continue
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._swap(mod, name, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def _swap(self, owner, name, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        count_keys = name == "periods.fix_count"
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_keys:
                m = args[1] if len(args) > 1 else kwargs.get("m")
                self.fix_keys.add((self.op, m))
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, 0]  # id, name, child time
            stack.append(frame)
            stat.active += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat.active -= 1
                dur = end - start
                stat.calls += 1
                if not stat.active:
                    stat.total_ns += dur
                stat.self_ns += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                parent_id = parent[0] if parent else 0
                parent_name = parent[1] if parent else "op"
                key = (parent_name, name)
                self.edges[key] = self.edges.get(key, 0) + 1
                self.spans.append((self.op, span_id, parent_id, name,
                                   start, end))

        return traced

    # -- results -------------------------------------------------------

    def calls(self, name: str) -> int:
        s = self.stats.get(name)
        return s.calls if s else 0

    def total_ms(self, name: str) -> float:
        s = self.stats.get(name)
        return s.total_ns / 1e6 if s else 0.0

    def self_ms(self, name: str) -> float:
        s = self.stats.get(name)
        return s.self_ns / 1e6 if s else 0.0

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for rec in self.spans:
                fh.write(",".join(map(str, rec)) + "\n")
