"""The package namespace holds what the demos and the acceptance suite use;
everything else is imported from its module."""

import ast
from pathlib import Path

import talklora

ROOT = Path(__file__).resolve().parent.parent


def _imported(path: Path, modules: bool) -> set:
    """The names ``path`` imports from ``talklora``, and from its modules too
    when ``modules`` is set."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module and (
                node.module == "talklora" or modules and node.module.startswith("talklora.")):
            names |= {alias.name for alias in node.names}
    return names


def test_namespace_is_what_the_demos_and_the_acceptance_suite_import():
    demos = set().union(*(_imported(path, False) for path in (ROOT / "demos").glob("*.py")))
    acceptance = _imported(ROOT / "tests" / "test_acceptance.py", True)
    exported = set(talklora.__all__)
    assert sorted(demos - exported) == []
    assert sorted(exported - demos - acceptance) == []


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from talklora import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(talklora.__all__)
