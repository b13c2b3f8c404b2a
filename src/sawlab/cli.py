"""Batch command-line front end.

Subcommands mirror the library: ``count``, ``bounds``, ``locality``,
``quotient``, ``synth-height``, ``validate-height``, ``decompose``, and
``verify`` (re-checks a written table).  All outputs are deterministic JSON
documents (sorted keys, big integers as decimal strings, every rounded
float labeled with its rounding direction); runs are reproducible from a
config file that supplies default options.

Exit codes: 0 ok, 2 usage error, 3 resource budget exceeded, 4 invariant
violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .bounds import BoundsReport, bracket, check_fekete, locality_report
from .errors import (
    InvariantViolationError,
    MalformedLabelError,
    ResourceBudgetError,
    UsageError,
    budget,
)
from .families import parse_family
from .heights import parse_height, validate_height, verify_r
from .quotient import build_quotient, check_symmetric
from .synthesis import (
    increment_invariant_problems,
    quotient_tables,
    synthesize_height,
    verify_cocycle,
)
from .tables import (
    build_count_table,
    check_table_invariants,
    decode_int,
    read_json,
    read_table,
    table_to_dict,
)
from .walks import decompose, make_walk

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4

# the options that take one of a few values, on the command line and in a
# config file alike
CHOICES = {"kind": ("saw", "halfspace", "bridge"), "method": ("auto", "staged", "direct")}


@dataclass
class RunConfig:
    """Resolved options for one run; config-file values fill unset flags."""

    command: str
    family: str = ""
    family_b: str = ""
    height: str = "default"
    height_b: str = "default"
    kind: str = "saw"
    n_max: int = 8
    cap: int = 6
    jobs: int = 1
    seed: int = 0
    radius: int = 5
    r: int | None = None
    shifts: str = ""
    walk: str = ""
    per_span: bool = False
    pretty: bool = False
    out: str = ""
    table: str = ""
    quotient: str = ""
    method: str = "auto"


def _emit(doc: dict, out_path: str) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _bounds_doc(rep: BoundsReport) -> dict:
    return {
        "kind": "bounds-report",
        "family": rep.family,
        "height": rep.height,
        "n_max": rep.n_max,
        "lower_candidates": [
            {"n": n, "value": v, "rounding": "down"} for n, v in rep.lower_candidates],
        "upper_candidates": [
            {"n": n, "value": v, "rounding": "up"} for n, v in rep.upper_candidates],
        "certified_lower": {"value": rep.certified_lower, "rounding": "down"},
        "certified_upper": {"value": rep.certified_upper, "rounding": "up"},
        "width": rep.width,
    }


def _parse_vectors(value, flag: str, example: str) -> tuple[tuple[int, ...], ...]:
    """Integer vectors written as 'a,b;c,d', or read from a JSON document as
    a list of integer lists (``flag`` names the option or field)."""
    if not value:
        raise UsageError(f"missing {flag} (e.g. '{example}')")
    if isinstance(value, str):
        rows = [[c.strip(" ") for c in part.split(",")] for part in value.split(";")]
    elif isinstance(value, list) and all(isinstance(row, list) for row in value):
        rows = value
    else:
        raise UsageError(f"bad {flag} {value!r}: not a list of integer lists")
    try:
        vectors = tuple(tuple(decode_int(c) for c in row) for row in rows)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {flag} {value!r}: {exc}") from exc
    if not all(vectors):
        raise UsageError(f"bad {flag} {value!r}: empty vector")
    return vectors


def _render_table(table) -> str:
    lines = [f"family={table.family} height={table.height}",
             f"{'n':>3} {'sigma':>14} {'halfspace':>14} {'bridge':>14}"]
    for n in range(table.n_max + 1):
        lines.append(f"{n:>3} {table.sigma[n]:>14} {table.c[n]:>14} {table.b[n]:>14}")
    return "\n".join(lines) + "\n"


def cmd_count(cfg: RunConfig) -> int:
    family = parse_family(cfg.family)
    hf = parse_height(family, cfg.height)
    table = build_count_table(family, hf, cfg.n_max, jobs=cfg.jobs,
                              node_budget=budget("COUNT_NODES"))
    doc = table_to_dict(table)
    series = {"saw": table.sigma, "halfspace": table.c, "bridge": table.b}[cfg.kind]
    doc["kind_series"] = {"kind": cfg.kind, "counts": [str(x) for x in series]}
    if cfg.per_span:
        doc["b_by_span"] = [{str(s): str(c) for s, c in row.items()}
                            for row in table.b_by_span]
    if cfg.pretty:
        sys.stderr.write(_render_table(table))
    if table.n_max < cfg.n_max:
        doc["requested_n_max"] = cfg.n_max
        _emit(doc, cfg.out)
        print(f"resource error: count or ball budget reached at n = {table.n_max} "
              f"(requested {cfg.n_max}); partial table written", file=sys.stderr)
        return EXIT_RESOURCE
    _emit(doc, cfg.out)
    return EXIT_OK


def _table_problems(table) -> list[str]:
    """The table's structural invariants and Fekete inequalities that fail."""
    problems = check_table_invariants(table)
    if not check_fekete(table):
        problems.append("a Fekete inequality fails")
    return problems


def _decimals(x: Fraction, places: int, up: bool) -> str:
    """x with ``places`` decimals, rounded up or down, never to nearest."""
    scaled = x * 10 ** places
    return f"{Decimal(math.ceil(scaled) if up else math.floor(scaled)).scaleb(-places):f}"


def cmd_bounds(cfg: RunConfig) -> int:
    if not cfg.table:
        raise UsageError("bounds needs --table")
    table = read_table(cfg.table)
    # a bracket is certified only for a table that verify accepts
    problems = _table_problems(table)
    if problems:
        raise InvariantViolationError(f"table {cfg.table}: {'; '.join(problems)}")
    rep = bracket(table)
    if cfg.pretty:
        lo, hi = Fraction(rep.certified_lower), Fraction(rep.certified_upper)
        sys.stderr.write(
            f"family={rep.family} n_max={rep.n_max} "
            f"bracket=[{_decimals(lo, 9, up=False)}, {_decimals(hi, 9, up=True)}] "
            f"width={_decimals(hi - lo, 6, up=True)}\n")
    _emit(_bounds_doc(rep), cfg.out)
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    if not cfg.table:
        raise UsageError("verify needs --table")
    problems = _table_problems(read_table(cfg.table))
    _emit({"kind": "verify-report", "table": cfg.table, "problems": problems}, cfg.out)
    return EXIT_OK if not problems else EXIT_INVARIANT


def cmd_locality(cfg: RunConfig) -> int:
    fam_a = parse_family(cfg.family)
    fam_b = parse_family(cfg.family_b)
    hf_a = parse_height(fam_a, cfg.height)
    hf_b = parse_height(fam_b, cfg.height_b)
    rep = locality_report(fam_a, hf_a, fam_b, hf_b, cfg.n_max, cfg.cap, jobs=cfg.jobs)
    doc = {
        "kind": "locality-report",
        "family_a": fam_a.spec,
        "family_b": fam_b.spec,
        "similarity_K": rep.similarity.K,
        "similarity_capped": rep.similarity.capped,
        "slack": rep.slack,
        "tables_should_agree": rep.tables_should_agree,
        "sigma_divergence_n": rep.sigma_divergence_n,
        "b_divergence_n": rep.b_divergence_n,
        "cross_inequalities_ok": rep.cross_ok,
        "bracket_a": _bounds_doc(rep.bracket_a),
        "bracket_b": _bounds_doc(rep.bracket_b),
        "gap": rep.gap,
    }
    _emit(doc, cfg.out)
    return EXIT_OK


def cmd_quotient(cfg: RunConfig) -> int:
    family = parse_family(cfg.family)
    shifts = _parse_vectors(cfg.shifts, "--shifts", "3,0;0,3")
    q = build_quotient(family, shifts)
    doc = {
        "kind": "quotient",
        "family": family.spec,
        "shifts": [list(s) for s in shifts],
        "orbits": q.orbit_count,
        "reps": [list(r) for r in q.reps],
        "multiplicities": [list(row) for row in q.multiplicities],
        "symmetric": check_symmetric(q),
    }
    _emit(doc, cfg.out)
    return EXIT_OK


def cmd_synth_height(cfg: RunConfig) -> int:
    if cfg.quotient:
        qdoc = read_json(cfg.quotient, "quotient document")
        if not isinstance(qdoc, dict) or qdoc.get("kind") != "quotient":
            raise UsageError("--quotient file must be a quotient document")
        if not isinstance(qdoc.get("family"), str):
            raise UsageError("quotient document needs a family spec string")
        family = parse_family(qdoc["family"])
        shifts = _parse_vectors(qdoc.get("shifts"), "quotient shifts", "[[3, 0], [0, 3]]")
    else:
        family = parse_family(cfg.family)
        shifts = _parse_vectors(cfg.shifts, "--shifts", "3,0;0,3")
    q, basis, inc, lifted = synthesize_height(family, shifts, method=cfg.method)
    problems = increment_invariant_problems(inc, basis, q)
    hf = lifted.as_height_function()
    validation = validate_height(family, hf, min(cfg.radius, 6))
    t = quotient_tables(q)
    doc = {
        "kind": "height-synthesis",
        "family": family.spec,
        "orbits": q.orbit_count,
        "basis_rho": basis.rho,
        "basis_dim": basis.dim,
        "method": inc.method,
        "scaling_m": str(lifted.scaling),
        "increments": [
            {"from": i, "to": t.head[t.edge_id((i, step))], "step": list(step),
             "numerator": str(v.numerator), "denominator": str(v.denominator)}
            for (i, step), v in sorted(inc.values.items())],
        "invariant_problems": problems,
        "cocycle_ok": verify_cocycle(inc, family, q, 200, seed=cfg.seed),
        "lifted_valid": validation.ok(),
        "lifted_d": hf.declared_d,
        "declared_r": hf.declared_r,
    }
    _emit(doc, cfg.out)
    return EXIT_OK if not problems and validation.ok() else EXIT_INVARIANT


def cmd_validate_height(cfg: RunConfig) -> int:
    family = parse_family(cfg.family)
    hf = parse_height(family, cfg.height)
    rep = validate_height(family, hf, cfg.radius)
    doc = {
        "kind": "height-validation",
        "family": family.spec,
        "height": hf.spec,
        "radius": rep.radius,
        "measured_d": rep.measured_d,
        "violations": [
            {"clause": v.clause, "vertex": list(v.vertex) if isinstance(v.vertex, tuple) else v.vertex,
             "detail": v.detail} for v in rep.violations],
    }
    if cfg.r is not None:
        doc["r_check"] = {"r": cfg.r, "verified": verify_r(family, hf, cfg.r)}
    _emit(doc, cfg.out)
    return EXIT_OK if rep.ok() else EXIT_INVARIANT


def cmd_decompose(cfg: RunConfig) -> int:
    family = parse_family(cfg.family)
    hf = parse_height(family, cfg.height)
    walk = make_walk(family, _parse_vectors(cfg.walk, "--walk", "0,0;1,0;1,1"))
    dec = decompose(hf, walk)
    _emit({
        "kind": "bridge-decomposition",
        "family": family.spec,
        "height": hf.spec,
        "spans": list(dec.spans),
        "breaks": list(dec.breaks),
    }, cfg.out)
    return EXIT_OK


_COMMANDS = {
    "count": cmd_count,
    "bounds": cmd_bounds,
    "locality": cmd_locality,
    "quotient": cmd_quotient,
    "synth-height": cmd_synth_height,
    "validate-height": cmd_validate_height,
    "decompose": cmd_decompose,
    "verify": cmd_verify,
}


# each option a subcommand can take: its flags with their add_argument
# keywords (every default is None, so that config values fill unset flags)
_OPTIONS = {
    "family": [("--family", {})],
    "family_b": [("--b", {"dest": "family_b"}), ("--a", {"dest": "family"})],
    "height": [("--height", {})],
    "height_b": [("--height-b", {})],
    "kind": [("--kind", {"choices": CHOICES["kind"]})],
    "n": [("--n", {"dest": "n_max", "type": int})],
    "cap": [("--cap", {"type": int})],
    "jobs": [("--jobs", {"type": int})],
    "seed": [("--seed", {"type": int})],
    "radius": [("--radius", {"type": int})],
    "r": [("--r", {"type": int})],
    "shifts": [("--shifts", {})],
    "walk": [("--walk", {})],
    "per_span": [("--per-span", {"action": "store_true"})],
    "pretty": [("--pretty", {"action": "store_true"})],
    "out": [("--out", {})],
    "table": [("--table", {})],
    "quotient": [("--quotient", {})],
    "method": [("--method", {"choices": CHOICES["method"]})],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sawlab",
        description="Exact SAW/bridge enumeration and certified connective-constant brackets.")
    parser.add_argument("--config", default="", help="JSON file with default options")
    sub = parser.add_subparsers(dest="command")

    def add(name, *options):
        p = sub.add_parser(name)
        for option in options:
            for flag, kwargs in _OPTIONS[option]:
                p.add_argument(flag, default=None, **kwargs)
        return p

    add("count", "family", "height", "kind", "n", "per_span", "pretty", "jobs", "out")
    add("bounds", "table", "pretty", "out")
    add("locality", "family_b", "height", "height_b", "n", "cap", "jobs", "out")
    add("quotient", "family", "shifts", "out")
    add("synth-height", "family", "shifts", "quotient", "method", "radius", "seed", "out")
    add("validate-height", "family", "height", "radius", "r", "out")
    add("decompose", "family", "height", "walk", "out")
    add("verify", "table", "out")
    return parser


def _check_config(defaults: dict) -> None:
    """Each key of a config file must name a RunConfig option and its value
    have the option's type (an int is not a bool here, nor a bool an int)."""
    types = typing.get_type_hints(RunConfig)
    del types["command"]
    for name, value in defaults.items():
        if name not in types:
            raise UsageError(f"config file: unknown option {name!r}")
        allowed = typing.get_args(types[name]) or (types[name],)
        if not any(type(value) is t for t in allowed):
            want = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
            raise UsageError(f"config file: option {name!r} must be {want}, not {value!r}")
        if value not in CHOICES.get(name, (value,)):
            raise UsageError(f"config file: option {name!r} must be one of {CHOICES[name]}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    defaults: dict = {}
    if args.config:
        defaults = read_json(args.config, "config file")
        if not isinstance(defaults, dict):
            raise UsageError("config file must hold a JSON object")
        _check_config(defaults)
    cfg = RunConfig(command=args.command)
    for name in vars(cfg):
        if name == "command":
            continue
        value = getattr(args, name, None)
        if value is None:
            value = defaults.get(name, getattr(cfg, name))
        setattr(cfg, name, value)
    if cfg.n_max < 0 or cfg.cap < 0:
        raise UsageError("n and cap must be >= 0")
    if cfg.jobs < 1:
        raise UsageError("jobs must be >= 1")
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if not args.command:
        parser.print_help()
        return EXIT_USAGE
    try:
        cfg = resolve_config(args)
        code = _COMMANDS[cfg.command](cfg)
        sys.stdout.flush()
        return code
    except BrokenPipeError as exc:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the interpreter's flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"usage error: cannot write to standard output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, MalformedLabelError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceBudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
