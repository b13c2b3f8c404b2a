"""Count tables: exact per-length walk counts and their serialization.

A table stores, for one (family, height) pair, the per-length counts from
each height-orbit representative plus the combined tables: sigma is the
max over representatives (supremum definition), b the min (infimum
definition), and c is taken from the origin representative.  Every integer
is serialized as a decimal string so arbitrary precision survives JSON.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import InvariantViolationError, UsageError
from .families import GraphFamily, parse_family
from .heights import HeightFunction, parse_height
from .walks import count_bridges, count_halfspace, count_saws


@dataclass(frozen=True)
class CountTable:
    family: str
    height: str
    n_max: int
    reps: tuple
    sigma_by_rep: tuple[tuple[int, ...], ...]
    c_by_rep: tuple[tuple[int, ...], ...]
    b_by_rep: tuple[tuple[int, ...], ...]
    b_spans_by_rep: tuple[tuple[dict, ...], ...]

    @property
    def sigma(self) -> tuple[int, ...]:
        return tuple(max(col) for col in zip(*self.sigma_by_rep))

    @property
    def c(self) -> tuple[int, ...]:
        return self.c_by_rep[0]

    @property
    def b(self) -> tuple[int, ...]:
        return tuple(min(col) for col in zip(*self.b_by_rep))

    @property
    def b_by_span(self) -> tuple[dict, ...]:
        """Span distribution of the representative attaining the minimum at
        each length (first such representative on ties)."""
        out = []
        for n in range(self.n_max + 1):
            k = min(range(len(self.b_by_rep)), key=lambda i: (self.b_by_rep[i][n], i))
            out.append(dict(self.b_spans_by_rep[k][n]))
        return tuple(out)

    def truncate(self, n_max: int) -> "CountTable":
        if not 0 <= n_max <= self.n_max:
            raise UsageError("truncation length out of range")
        cut = n_max + 1
        return CountTable(
            family=self.family, height=self.height, n_max=n_max, reps=self.reps,
            sigma_by_rep=tuple(r[:cut] for r in self.sigma_by_rep),
            c_by_rep=tuple(r[:cut] for r in self.c_by_rep),
            b_by_rep=tuple(r[:cut] for r in self.b_by_rep),
            b_spans_by_rep=tuple(r[:cut] for r in self.b_spans_by_rep),
        )


def build_count_table(family: GraphFamily, hf: HeightFunction, n_max: int,
                      jobs: int = 1, node_budget: int | None = None) -> CountTable:
    """Count SAWs, half-space walks, and bridges from every height-orbit
    representative.

    Under a node budget the result may stop short of n_max: the returned
    table's n_max is the high-water mark actually completed for every
    representative and kind.
    """
    sigma_rows, c_rows, b_rows, span_rows = [], [], [], []
    achieved = n_max
    for rep in hf.h_orbits:
        sigma = count_saws(family, rep, n_max, jobs=jobs, node_budget=node_budget)
        c = count_halfspace(family, hf, rep, n_max, jobs=jobs, node_budget=node_budget)
        b, spans = count_bridges(family, hf, rep, n_max, jobs=jobs, node_budget=node_budget)
        achieved = min(achieved, len(sigma) - 1, len(c) - 1, len(b) - 1)
        sigma_rows.append(tuple(sigma))
        c_rows.append(tuple(c))
        b_rows.append(tuple(b))
        span_rows.append(tuple(spans))
    cut = achieved + 1
    return CountTable(
        family=family.spec, height=hf.spec, n_max=achieved, reps=tuple(hf.h_orbits),
        sigma_by_rep=tuple(r[:cut] for r in sigma_rows),
        c_by_rep=tuple(r[:cut] for r in c_rows),
        b_by_rep=tuple(r[:cut] for r in b_rows),
        b_spans_by_rep=tuple(r[:cut] for r in span_rows),
    )


def check_table_invariants(t: CountTable) -> list[str]:
    """Structural invariants: conventions at n = 0, span sums, and the
    per-vertex chain bridges <= half-space <= SAWs."""
    problems = []
    for name, rows in (("sigma", t.sigma_by_rep), ("c", t.c_by_rep), ("b", t.b_by_rep)):
        for row in rows:
            if row[0] != 1:
                problems.append(f"{name}[0] = {row[0]} != 1")
            if any(x < 0 for x in row):
                problems.append(f"{name} has a negative count")
    for i in range(len(t.reps)):
        for n in range(t.n_max + 1):
            if not t.b_by_rep[i][n] <= t.c_by_rep[i][n] <= t.sigma_by_rep[i][n]:
                problems.append(f"chain b <= c <= sigma fails at rep {i}, n = {n}")
            if sum(t.b_spans_by_rep[i][n].values()) != t.b_by_rep[i][n]:
                problems.append(f"span sums differ from b at rep {i}, n = {n}")
    return problems


def _enc_counts(row) -> list[str]:
    return [str(x) for x in row]


def table_to_dict(t: CountTable) -> dict:
    return {
        "kind": "count-table",
        "family": t.family,
        "height": t.height,
        "n_max": t.n_max,
        "reps": [list(r) if isinstance(r, tuple) else r for r in t.reps],
        "sigma": _enc_counts(t.sigma),
        "c": _enc_counts(t.c),
        "b": _enc_counts(t.b),
        "sigma_by_rep": [_enc_counts(r) for r in t.sigma_by_rep],
        "c_by_rep": [_enc_counts(r) for r in t.c_by_rep],
        "b_by_rep": [_enc_counts(r) for r in t.b_by_rep],
        "b_spans_by_rep": [[{str(s): str(c) for s, c in table.items()} for table in row]
                           for row in t.b_spans_by_rep],
    }


def _label_from_json(x):
    """A label: an int, or a list of labels read as a tuple."""
    if isinstance(x, list):
        return tuple(_label_from_json(y) for y in x)
    if type(x) is not int:
        raise TypeError(f"label entry {x!r} is not an integer or a list")
    return x


def decode_int(x) -> int:
    """An integer written as a JSON number or a decimal string: ASCII digits
    after an optional minus sign, so ``"1_000"``, ``"+5"`` and ``"٣"`` are
    rejected although ``int`` reads them."""
    if type(x) is int or type(x) is str and re.fullmatch("-?[0-9]+", x):
        return int(x)
    raise ValueError(f"{x!r} is not a decimal integer")


def table_from_dict(d: dict) -> CountTable:
    """Decode a count-table document.

    A missing key, a non-integer count, a ``family`` or ``height`` that is
    not a string, a representative that is not an int or a nested list of
    ints, or a row whose length is not n_max + 1 raises UsageError.  Top-level ``sigma``, ``c`` or ``b`` series
    that differ from what the per-representative rows imply raise
    InvariantViolationError.
    """
    if not isinstance(d, dict) or d.get("kind") != "count-table":
        raise UsageError("not a count-table document")
    try:
        family, height, n_max = d["family"], d["height"], decode_int(d["n_max"])
        if not (isinstance(family, str) and isinstance(height, str)):
            raise TypeError("family and height must be strings")
        reps = tuple(_label_from_json(r) for r in d["reps"])
        rows = {k: tuple(tuple(decode_int(x) for x in row) for row in d[k])
                for k in ("sigma_by_rep", "c_by_rep", "b_by_rep")}
        spans = tuple(tuple({decode_int(s): decode_int(c) for s, c in table.items()} for table in row)
                      for row in d["b_spans_by_rep"])
        series = {k: tuple(decode_int(x) for x in d[k]) for k in ("sigma", "c", "b")}
    except KeyError as exc:
        raise UsageError(f"count table lacks key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed count table: {exc}") from exc
    by_rep = (*rows.values(), spans)
    if (n_max < 0 or not reps or any(len(r) != len(reps) for r in by_rep)
            or any(len(row) != n_max + 1 for r in (*by_rep, series.values()) for row in r)):
        raise UsageError(f"count table needs one row per representative, each of "
                         f"n_max + 1 = {n_max + 1} entries")
    t = CountTable(family=family, height=height, n_max=n_max, reps=reps,
                   sigma_by_rep=rows["sigma_by_rep"], c_by_rep=rows["c_by_rep"],
                   b_by_rep=rows["b_by_rep"], b_spans_by_rep=spans)
    for key, implied in (("sigma", t.sigma), ("c", t.c), ("b", t.b)):
        if series[key] != implied:
            raise InvariantViolationError(
                f"count table {key} differs from what its per-representative rows imply")
    return t


def write_table(t: CountTable, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(table_to_dict(t), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str, what: str):
    """Load a JSON document; a file that cannot be read or does not hold
    JSON raises UsageError naming ``what`` it should have been."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot load {what} {path!r}: {exc}") from exc


def read_table(path: str) -> CountTable:
    return table_from_dict(read_json(path, "count table"))


def table_for_specs(family_spec: str, height_spec: str, n_max: int,
                    jobs: int = 1) -> CountTable:
    family = parse_family(family_spec)
    hf = parse_height(family, height_spec or "default")
    return build_count_table(family, hf, n_max, jobs=jobs)
