"""Every function, class and method in ``src/apcg`` is named by the program.

A definition that only a test names is surface kept for the tests; it goes,
or its test goes with it.  "Named" is syntactic: an ``ast.Name`` or an
``ast.Attribute`` with the definition's name anywhere in ``src/apcg`` or in
the benchmark's own code (``bench/*.py`` except its tests).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Kept without a caller in the program, each for the ROADMAP item that will
# give it one.
ALLOWED = {
    "complexity_estimate",             # item 3: apcg-bench rates
    "ErmDualState.check_consistency",  # item 9: --check-drift
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def definitions(tree: ast.Module):
    """(qualified name, name) of each module-level function and class and
    each non-dunder method."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds) and not (item.name.startswith("__")
                                                    and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name


def named(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_function_in_src_has_a_caller():
    src = sorted((ROOT / "src" / "apcg").glob("*.py"))
    bench = [p for p in sorted((ROOT / "bench").glob("*.py")) if p.name != "test_bench.py"]
    used = set().union(*(named(parse(p)) for p in src + bench))
    uncalled = {qualified for p in src if p.name != "__init__.py"
                for qualified, name in definitions(parse(p)) if name not in used}
    assert uncalled == ALLOWED
