"""The benchmark's tracer wraps trigdunkl functions by name; every name it
lists must still exist, so that a rename or deletion fails here first."""
import importlib
import runpy
from pathlib import Path

import trigdunkl
from trigdunkl import verify

# run_path compiles from source and writes no bytecode into perfbench/
TRACING = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"))


def test_every_traced_target_resolves():
    for name, modname, path in TRACING["TARGETS"]:
        owner = importlib.import_module(f"trigdunkl.{modname}")
        assert getattr(trigdunkl, modname) is owner, name
        *classes, attr = path.split(".")
        for cls_name in classes:
            owner = vars(owner)[cls_name]
        assert callable(vars(owner).get(attr)), f"{name}: {modname}.{path}"


def test_traced_suites_are_the_verify_suites():
    assert TRACING["SUITE_NAMES"] == tuple(verify.SUITES)
