"""The package source holds only what the package runs."""

import ast
from pathlib import Path

import ncshift

SRC = Path(ncshift.__file__).parent
#: the os names through which a module reads the process environment
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _unreferenced(src: Path) -> list[str]:
    """Top-level functions and classes whose name no module of src mentions
    as a name, an attribute or an import alias."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update({node.name, node.asname})
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    ]


def test_every_top_level_definition_is_used_by_the_package():
    # a reference formula only tests call belongs in tests/tests_support.py
    assert _unreferenced(SRC) == []


def _environment_reads(src: Path) -> list[str]:
    """module:line of every attribute or import alias in src that names an
    environment reader of os."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT or (
                isinstance(node, ast.alias) and node.name in ENVIRONMENT
            ):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_no_module_reads_the_environment():
    # an option is a CLI flag or a module constant, never an environment variable
    assert _environment_reads(SRC) == []
