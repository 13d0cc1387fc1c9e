"""The fblab module boundaries: no module reaches into another's private
names (an underscore name is an implementation detail of the module that
defines it), and every public function or class has a caller in the package
or a stated reason to stay."""

import ast
import os
import subprocess
import sys
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


def _fresh(code: str):
    """The value a fresh interpreter prints, as a literal, after running code."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    return ast.literal_eval(out)


def _loaded_after_import(modules: list[str], names: set[str], then: str = "") -> list[str]:
    """Which of names a fresh interpreter holds in sys.modules after importing
    modules and running the statement ``then``."""
    return _fresh(f"import sys\nimport {', '.join(modules)}\n{then}\n"
                  f"print(sorted({names!r} & set(sys.modules)))\n")


def test_light_modules_load_without_numpy_or_mpmath():
    # the package re-exports nothing, so one module loads only what it imports
    light = ["fblab.serialize", "fblab.channel", "fblab.strategy", "fblab.belief",
             "fblab.cubicfield", "fblab.bounds"]
    assert _loaded_after_import(light, {"numpy", "mpmath"}) == []
    # the CLI imports a numpy kernel, or bounds, only in the subcommand that runs it
    heavy = {"numpy", "fblab.bounds"}
    assert _loaded_after_import(["fblab.cli"], heavy, "fblab.cli.build_parser()") == []
    # mpmath is not a dependency, though sympy brings it into many environments;
    # the package's own __init__ loads with any module, and __main__ runs the CLI
    every = [f"fblab.{p.stem}" for p in MODULES if not p.stem.startswith("__")]
    assert _loaded_after_import(every, {"mpmath"}) == []


@pytest.mark.parametrize(
    "argv, code, numpy_loaded",
    [
        (["bounds", "--p", "1/10", "--n", "60"], 0, False),
        (["bounds", "--p", "1/20,1/10", "--n", "60", "--format", "csv"], 0, False),
        (["simplex", "--p", "1/10", "--n", "9", "--mode", "rational"], 0, False),
        (["--help"], 0, False),
        (["exact", "--p", "2", "--n", "3"], 2, False),
        (["exact", "--p", "1/10", "--n", "3"], 0, True),  # so the check is not vacuous
    ],
    ids=["bounds-json", "bounds-csv", "simplex-rational", "help", "invalid-p", "exact"],
)
def test_only_subcommands_with_a_numpy_kernel_load_numpy(argv, code, numpy_loaded):
    run = f"""
import contextlib, io, sys
from fblab import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.dispatch({argv!r})
    except SystemExit as exc:  # --help
        code = exc.code
print((code, "numpy" in sys.modules))
"""
    assert _fresh(run) == (code, numpy_loaded)


# Public names that no fblab module calls, and why each stays in the package.
KEPT = {
    "one_step_values": "the paper's printed one-step law, which the acceptance checks evaluate",
    "one_step_gap": "the printed one-step law's gap, which the acceptance checks evaluate",
    "error_upper_bound_exact": "the acceptance check that the upper bound dominates; "
    "ROADMAP item 3 gives it a command",
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
    uncalled = _uncalled({p.stem: p.read_text() for p in MODULES})
    assert [name for name in uncalled if name.split(".")[1] not in KEPT] == []
    # a kept name that is deleted or gains a caller leaves KEPT
    assert sorted(name.split(".")[1] for name in uncalled) == sorted(KEPT)


def test_the_check_sees_an_uncalled_name():
    sources = {"a": "def f():\n    g()\n\ndef g(): ...\nclass C: ...\ndef _h(): ...\n",
               "b": "from .a import C\n"}
    assert _uncalled(sources) == ["a.f"]
