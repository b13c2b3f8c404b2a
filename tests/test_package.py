"""The package's top-level names: each resolves on first use to the object
its submodule defines."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import sawlab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sawlab.__file__)))

EXPORTS = {
    "bounds": ("BoundsReport", "LocalityReport", "SimilarityResult", "ball_isomorphic",
               "bracket", "check_fekete", "distinct_partitions", "locality_report",
               "similarity_K"),
    "errors": ("InvariantViolationError", "MalformedLabelError", "ResourceBudgetError",
               "SawlabError", "UsageError"),
    "families": ("Ball", "GraphFamily", "ball", "heisenberg", "hexagonal", "hypercubic",
                 "parse_family", "regular_tree", "square_octagon"),
    "heights": ("HeightFunction", "HeightValidationReport", "default_height",
                "validate_height", "verify_r"),
    "quotient": ("QuotientGraph", "build_quotient", "check_symmetric", "cylinder"),
    "synthesis": ("DirectedCycleBasis", "EdgeIncrement", "LiftedHeight", "cycle_basis",
                  "lift_height", "solve_increments", "synthesize_height",
                  "unit_square_generators", "verify_cocycle"),
    "tables": ("CountTable", "build_count_table", "read_table", "write_table"),
    "walks": ("BridgeDecomposition", "Walk", "count_bridges", "count_halfspace", "count_saws",
              "decompose", "enumerate_walks", "is_bridge", "is_halfspace",
              "is_reversed_bridge", "make_walk", "span"),
}


def test_all_lists_the_exports_and_the_submodules():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 57
    assert sawlab.__all__ == sorted([*names, *EXPORTS])


def test_each_export_is_the_object_of_its_submodule():
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"sawlab.{module}")
        assert getattr(sawlab, module) is sub
        for name in names:
            assert getattr(sawlab, name) is getattr(sub, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sawlab.no_such_name
    assert not hasattr(sawlab, "no_such_name")


def test_star_import_in_a_fresh_interpreter():
    # import sawlab loads no submodule; from sawlab import * binds every
    # name of __all__ to the package's own object
    script = """import json, sys
import sawlab
loaded = sorted(m for m in sys.modules if m.startswith("sawlab."))
scope = {}
exec("from sawlab import *", scope)
bound = sorted(k for k in scope if k != "__builtins__")
print(json.dumps([loaded, bound == sawlab.__all__,
                  all(scope[k] is getattr(sawlab, k) for k in sawlab.__all__)]))
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert json.loads(proc.stdout) == [[], True, True], proc.stderr
