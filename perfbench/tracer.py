"""In-memory spans and counters recorded around calls into sawlab's layers.

The tracer never edits the package.  ``install`` replaces public functions
in the module namespaces where their callers look them up (for example
``sawlab.tables.count_saws``, which ``build_count_table`` calls through its
own module globals) with wrappers, and ``uninstall`` puts the originals back.
Families returned by ``parse_family`` get a counting neighbor oracle through
``dataclasses.replace``.

A span is ``[name, start, end, parent, pass_id, counts]``: times come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans written by a
child process line up with the parent's), ``parent`` is the index of the
enclosing span, and ``counts`` holds the counter increments that happened
while the span was open (inclusive of its children).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span name): every place a caller looks the function up
TIMED = (
    ("sawlab.families", "ball", "families.ball"),
    ("sawlab.heights", "ball", "families.ball"),
    ("sawlab.bounds", "ball", "families.ball"),
    ("sawlab.tables", "count_saws", "walks.count_saws"),
    ("sawlab.tables", "count_halfspace", "walks.count_halfspace"),
    ("sawlab.tables", "count_bridges", "walks.count_bridges"),
    ("sawlab.tables", "build_count_table", "tables.build_count_table"),
    ("sawlab.cli", "build_count_table", "tables.build_count_table"),
    ("sawlab.tables", "table_to_dict", "tables.encode"),
    ("sawlab.cli", "table_to_dict", "tables.encode"),
    ("sawlab.tables", "read_table", "tables.decode"),
    ("sawlab.cli", "read_table", "tables.decode"),
    ("sawlab.synthesis", "build_quotient", "quotient.build_quotient"),
    ("sawlab.cli", "build_quotient", "quotient.build_quotient"),
    ("sawlab.synthesis", "synthesize_height", "synthesis.synthesize_height"),
    ("sawlab.cli", "synthesize_height", "synthesis.synthesize_height"),
    ("sawlab.synthesis", "cycle_basis", "synthesis.cycle_basis"),
    ("sawlab.synthesis", "solve_increments", "synthesis.solve_increments"),
    ("sawlab.synthesis", "lift_height", "synthesis.lift_height"),
    ("sawlab.synthesis", "verify_cocycle", "synthesis.verify_cocycle"),
    ("sawlab.cli", "verify_cocycle", "synthesis.verify_cocycle"),
    ("sawlab.heights", "validate_height", "heights.validate_height"),
    ("sawlab.cli", "validate_height", "heights.validate_height"),
    ("sawlab.heights", "verify_r", "heights.verify_r"),
    ("sawlab.cli", "verify_r", "heights.verify_r"),
    ("sawlab.bounds", "bracket", "bounds.bracket"),
    ("sawlab.cli", "bracket", "bounds.bracket"),
    ("sawlab.bounds", "similarity_K", "bounds.similarity_K"),
    ("sawlab.bounds", "ball_isomorphic", "bounds.ball_isomorphic"),
    ("sawlab.bounds", "locality_report", "bounds.locality_report"),
    ("sawlab.cli", "locality_report", "bounds.locality_report"),
)

# hot functions: a counter only, a span per call would dwarf the work
COUNTED = (
    ("sawlab.synthesis", "edge_head", "synthesis.edge_head"),
)

FAMILY_PARSERS = (
    ("sawlab.families", "parse_family"),
    ("sawlab.cli", "parse_family"),
)

NEIGHBORS = "families.neighbors"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.pass_id: int | None = None
        self._begin_counts: dict[int, dict] = {}
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id, {}])
        self._begin_counts[sid] = dict(self.counters)
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        span = self.spans[sid]
        span[2] = time.perf_counter()
        before = self._begin_counts.pop(sid)
        span[5] = {k: v - before.get(k, 0) for k, v in self.counters.items()
                   if v != before.get(k, 0)}
        self.stack.pop()

    def timed(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)
        return wrapper

    def counted(self, fn, name: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def merge(self, child_spans: list[list]) -> None:
        """Adopt spans written by a child process under the open span; their
        root counts are added to this process's counters so enclosing spans
        include them."""
        offset = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        for name, start, end, p, counts in child_spans:
            self.spans.append([name, start, end, parent if p is None else p + offset,
                               self.pass_id, dict(counts)])
            if p is None:
                for k, v in counts.items():
                    self.counters[k] += v

    # -- patching ------------------------------------------------------------

    def _patch(self, container, key, replacement) -> None:
        if isinstance(container, dict):
            self._patches.append((container, key, container[key]))
            container[key] = replacement
        else:
            self._patches.append((container, key, getattr(container, key)))
            setattr(container, key, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name in TIMED:
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, self.timed(getattr(mod, attr), name))
        for mod_name, attr, name in COUNTED:
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, self.counted(getattr(mod, attr), name))
        for mod_name, attr in FAMILY_PARSERS:
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, self._counting_parser(getattr(mod, attr)))
        cli = importlib.import_module("sawlab.cli")
        for sub, fn in list(cli._COMMANDS.items()):
            self._patch(cli._COMMANDS, sub, self.timed(fn, f"cli.{sub}"))

    def uninstall(self) -> None:
        for container, key, original in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    def _counting_parser(self, parse):
        counted = self.counted

        @functools.wraps(parse)
        def wrapper(spec):
            family = parse(spec)
            return dataclasses.replace(family, neighbors=counted(family.neighbors, NEIGHBORS))
        return wrapper


# -- reading spans ------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children
    (children of one span run one after another)."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def per_pass(spans: list[list], pass_ids) -> dict[int, dict]:
    """For each pass: total and self seconds per span name, span count per
    name, and the counts of every span by name (inclusive)."""
    selfs = self_times(spans)
    out = {p: {"s": defaultdict(float), "self_s": defaultdict(float),
               "calls": defaultdict(int), "counts": defaultdict(lambda: defaultdict(int))}
           for p in pass_ids}
    for s, self_s in zip(spans, selfs):
        name, start, end, _parent, pid, counts = s
        if pid not in out:
            continue
        agg = out[pid]
        agg["s"][name] += end - start
        agg["self_s"][name] += self_s
        agg["calls"][name] += 1
        for k, v in counts.items():
            agg["counts"][name][k] += v
    return out
