"""No module of the package or of its tests imports a name it never reads."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(tree):
    """The names an import binds in tree and no expression of tree reads,
    as (line, name); a name listed in __all__ counts as read."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_sources_are_found():
    names = {path.name for path in SOURCES}
    assert {"dj.py", "conftest.py", "test_imports.py"} <= names


def test_no_import_goes_unread():
    unused = {
        str(path.relative_to(ROOT)): found
        for path in SOURCES
        if (found := unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert unused == {}


def test_the_scan_finds_an_unread_import():
    tree = ast.parse(
        "import os\nimport json.decoder\nfrom sys import argv, path as p\n"
        "__all__ = ['argv']\nprint(json)\n"
    )
    assert unused_imports(tree) == [(1, "os"), (3, "p")]
