"""Source hygiene: no module of the package imports a name it never uses.

``__init__.py`` is left out, since it imports names only to export them.
A name counts as used when the module reads it anywhere or lists it in
``__all__``.
"""

import ast
from pathlib import Path

import combicontracts

SRC = Path(combicontracts.__file__).parent


def unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    probe = ast.parse("import os.path\nfrom a import b, c as d\nfrom e import f\nprint(d)\n")
    assert unused_imports(probe) == [(1, "os"), (2, "b"), (3, "f")]
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            unused = unused_imports(ast.parse(path.read_text(), str(path)))
            if unused:
                found[path.name] = unused
    assert found == {}

