"""The package surface is what the package itself uses: every name that
trigdunkl exports is used by one of its other modules, every table that
RootSystem stores is read by some module, each but those on the short lists
below, no module reaches into another through a private name, and the
import loads neither dataclasses nor inspect."""
import ast
import subprocess
import sys
from pathlib import Path

import trigdunkl

SRC = Path(trigdunkl.__file__).resolve().parent

# exported for callers although no other module of the package uses them:
# the coupling vector's class and the error of a pole, the type spec, the
# special-exponent report, the le_plus verdicts that no suite compares with,
# the reader of Laurent JSON (it reads `jacobi --format json` back into a
# Laurent element), and the divided difference of a Laurent element (the
# operators read its strings instead)
ALLOWED_UNUSED = frozenset({
    "CouplingVector", "EvaluationError", "GREATER", "INCOMPARABLE",
    "RootSystemSpec", "SpecialExponentReport", "divided_difference",
    "laurent_from_json",
})


# stored by RootSystem.__init__ although no module reads it: the norm of
# each coupling class, which the golden tables of tests/test_rootsys.py pin
ALLOWED_UNREAD = frozenset({"class_norms"})


def _modules():
    """(module name, syntax tree) for every module but __init__."""
    return [(path.stem, ast.parse(path.read_text(), str(path)))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def _used_names(tree):
    """Every name a module reads, as a Name, an Attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
            names.add((node.module or "").rpartition(".")[2])
    return names


def test_every_exported_name_is_used_by_another_module():
    init = ast.parse((SRC / "__init__.py").read_text())
    # the module each exported name comes from; a submodule is its own
    home = {alias.asname or alias.name: node.module
            for node in init.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}
    used = {name: _used_names(tree) for name, tree in _modules()}
    unused = {name for name in trigdunkl.__all__
              if not any(name in names for mod, names in used.items()
                         if mod != home.get(name, name))}
    assert unused == ALLOWED_UNUSED


def test_no_module_imports_a_private_name():
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, (name, node.module, private)


def _self_targets(target):
    """The attribute names of self that an assignment target stores."""
    if isinstance(target, ast.Tuple):
        return [name for t in target.elts for name in _self_targets(t)]
    if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        return [target.attr]
    return []


def test_every_root_system_table_is_read():
    cls = next(node for node in dict(_modules())["rootsys"].body
               if isinstance(node, ast.ClassDef) and node.name == "RootSystem")
    init = next(node for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    stored = {name for node in ast.walk(init) if isinstance(node, ast.Assign)
              for target in node.targets for name in _self_targets(target)}
    read = {node.attr for _, tree in _modules() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert "spec" in stored and "gram_fw_int" in stored
    assert stored - read == ALLOWED_UNREAD


def test_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site, so that only the package's imports count
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import trigdunkl; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
