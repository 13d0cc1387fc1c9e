"""No fblab module reaches into another's private names: an underscore name
is an implementation detail of the module that defines it."""

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
