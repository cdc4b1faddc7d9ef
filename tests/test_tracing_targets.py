"""The benchmark's tracer wraps trigdunkl functions by name, and its
workloads and checks call them as attributes of the package; every such name
must still exist, so that a rename or deletion fails here first.  The
benchmark's self-test runs here too, so that a change to a function it
checks fails the tests and not only the benchmark."""
import ast
import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import trigdunkl
import trigdunkl.cli  # noqa: F401  (the benchmark imports it too)
from trigdunkl import verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# run_path compiles from source and writes no bytecode into perfbench/
TRACING = runpy.run_path(str(PERFBENCH / "tracing.py"))


def test_every_traced_target_resolves():
    for name, modname, path in TRACING["TARGETS"]:
        owner = importlib.import_module(f"trigdunkl.{modname}")
        assert getattr(trigdunkl, modname) is owner, name
        *classes, attr = path.split(".")
        for cls_name in classes:
            owner = vars(owner)[cls_name]
        assert callable(vars(owner).get(attr)), f"{name}: {modname}.{path}"


def _package_chains(tree):
    """Every attribute chain td.X, td.X.Y, ... in a module, with td the
    package as the benchmark binds it (a name td or an attribute .td)."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
            if (isinstance(node, ast.Name) and node.id == "td"
                    or isinstance(node, ast.Attribute) and node.attr == "td"):
                chains.add(tuple(reversed(parts)))
    return chains


def test_every_package_name_the_benchmark_uses_resolves():
    chains = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        chains |= _package_chains(ast.parse(path.read_text(), str(path)))
    assert ("Localized", "from_laurent") in chains and ("pair_with_xi",) in chains
    for chain in sorted(chains):
        owner = trigdunkl
        for attr in chain:
            assert hasattr(owner, attr), "td." + ".".join(chain)
            owner = getattr(owner, attr)


def test_traced_suites_are_the_verify_suites():
    assert TRACING["SUITE_NAMES"] == tuple(verify.SUITES)


def test_benchmark_selftest_passes():
    before = sorted(PERFBENCH.rglob("*"))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "selftest.py")],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith("self-test passed\n")
    assert sorted(PERFBENCH.rglob("*")) == before  # nothing written there
