"""Shared exception types and resource budgets.

Budgets guard the operations that walk unbounded graphs (ball extraction,
walk counts and enumeration, isomorphism backtracking, quotients).  Each
budget can be overridden by an environment variable ``SAWLAB_BUDGET_<NAME>``.
"""

import os


class SawlabError(Exception):
    """Base class for all package errors."""


class MalformedLabelError(SawlabError, ValueError):
    """A vertex label is not a canonical label of the family."""


class ResourceBudgetError(SawlabError, RuntimeError):
    """A configured search/extraction budget was exceeded."""


class InvariantViolationError(SawlabError, RuntimeError):
    """A structural invariant failed (e.g. ill-defined quotient multiplicity)."""


class UsageError(SawlabError, ValueError):
    """Invalid configuration or arguments."""


_DEFAULT_BUDGETS = {
    "BALL_VERTICES": 500_000,
    "ISO_VERTICES": 10_000,
    "QUOTIENT_ORBITS": 20_000,
    "ENUM_WALKS": 50_000_000,
    "COUNT_NODES": None,  # no cap unless set
}


def budget(name: str) -> int | None:
    """Return the effective budget, honoring SAWLAB_BUDGET_<NAME> overrides;
    None means no cap."""
    raw = os.environ.get(f"SAWLAB_BUDGET_{name}")
    if raw is not None:
        try:
            return int(raw)
        except ValueError as exc:
            raise UsageError(f"bad budget override for {name}: {raw!r}") from exc
    return _DEFAULT_BUDGETS[name]
