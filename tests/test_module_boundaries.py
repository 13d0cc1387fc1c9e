"""The fblab module boundaries: no module reaches into another's private
names (an underscore name is an implementation detail of the module that
defines it), and every public function or class has a caller in the package
or a stated reason to stay."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fblab"
MODULES = sorted(SRC.glob("*.py"))


def _private_uses(tree: ast.Module) -> list[str]:
    """``from .m import _x`` imports, and ``m._x`` reads through a module
    bound by ``from . import m``, inside the fblab package."""
    uses, modules = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level == 1 or (node.module or "").split(".")[0] == "fblab"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                uses.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
            if node.module is None:
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            uses.append(f"{node.value.id}.{node.attr}")
    return uses


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_imports_another_modules_private_names(path):
    assert _private_uses(ast.parse(path.read_text())) == []


def test_the_check_sees_a_private_import():
    tree = ast.parse("from .channel import _MASK64, ChannelParams\nfrom . import chain\nchain._x\n")
    assert _private_uses(tree) == ["from .channel import _MASK64", "chain._x"]


# Public names that no fblab module calls, and why each stays in the package.
KEPT = {
    "one_step_values": "the paper's printed one-step law, which the acceptance checks evaluate",
    "one_step_gap": "the printed one-step law's gap, which the acceptance checks evaluate",
    "error_upper_bound_exact": "the acceptance check that the upper bound dominates; "
    "ROADMAP item 2 gives it a command",
    "forward_distribution": "the layer view that the oracle tests and the hub-mass "
    "cross-check compare against",
    "sorted_lattice": "the lattice order that the oracle tests use",
    "run_trajectory_audit": "the paper's vote invariants",
    "simulate_trajectory": "the scalar Monte Carlo oracle, which perfbench/tracing.py patches",
}


def _uncalled(sources: dict[str, str]) -> list[str]:
    """Public top-level functions and classes, as ``module.name``, that no
    source refers to by name, attribute or import."""
    defined, used = {}, set()
    for stem, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = stem
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(f"{stem}.{name}" for name, stem in defined.items() if name not in used)


def test_every_public_name_has_a_caller_or_a_reason():
    # __init__ only re-exports, which is not a use
    uncalled = _uncalled({p.stem: p.read_text() for p in MODULES if p.name != "__init__.py"})
    assert [name for name in uncalled if name.split(".")[1] not in KEPT] == []
    # a kept name that is deleted or gains a caller leaves KEPT
    assert sorted(name.split(".")[1] for name in uncalled) == sorted(KEPT)


def test_the_check_sees_an_uncalled_name():
    sources = {"a": "def f():\n    g()\n\ndef g(): ...\nclass C: ...\ndef _h(): ...\n",
               "b": "from .a import C\n"}
    assert _uncalled(sources) == ["a.f"]
