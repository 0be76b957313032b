"""Source hygiene: no module of the package imports a name it never uses,
every import stands at module level, the modules import each other in one
direction (no cycle), no public name is there for the tests alone, the
solver modules hold no float, every raise is of a ``ContractError``
subclass, and no module reads the environment.

``__init__.py`` is left out of the unused-name and cycle checks, since it
imports names only to export them.  A name counts as used when the module
reads it anywhere or lists it in ``__all__``.
"""

import ast
from pathlib import Path

import combicontracts
from combicontracts import errors

SRC = Path(combicontracts.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


def all_entries(tree: ast.Module) -> list:
    """The constant nodes listed in the module's ``__all__``, or none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return node.value.elts
    return []


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
    used |= {elt.value for elt in all_entries(tree)}
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


def nested_imports(tree: ast.Module) -> list:
    """(line, module) for each import inside a function or class body."""
    top = set(map(id, tree.body))
    return [
        (node.lineno, node.module if isinstance(node, ast.ImportFrom) else node.names[0].name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]


def test_every_import_stands_at_module_level():
    """An import inside a function hides a dependency, and so can hide an
    import cycle, from the module's header."""
    probe = "import a\ndef f():\n    import b\nclass C:\n    from .c import d\n"
    assert nested_imports(ast.parse(probe)) == [(3, "b"), (5, "c")]
    found = {}
    for path in sorted(SRC.glob("*.py")):
        nested = nested_imports(ast.parse(path.read_text(), str(path)))
        if nested:
            found[path.name] = nested
    assert found == {}


def package_imports(tree: ast.Module) -> set:
    """The sibling modules a module imports, wherever the import stands:
    ``from .m import x`` and ``from .m.sub import x`` name m, ``from . import
    m, n`` names m and n."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


def import_cycles(graph: dict) -> list:
    """The strongly connected groups of ``graph`` (module -> imported
    modules) that hold a cycle, each as a sorted tuple."""
    reach = {}
    for start in graph:
        seen, stack = set(), list(graph[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(graph.get(node, ()))
        reach[start] = seen
    cyclic = [s for s in graph if s in reach[s]]
    return sorted({tuple(sorted(m for m in reach[s] if s in reach.get(m, ()))) for s in cyclic})


def test_the_package_imports_in_one_direction():
    probe = "from . import b, c\ndef f():\n    from .d.e import g\nfrom x import y\n"
    assert package_imports(ast.parse(probe)) == {"b", "c", "d"}
    assert import_cycles({"a": {"b"}, "b": {"a", "c"}, "c": set(), "d": {"d"}}) == [
        ("a", "b"),
        ("d",),
    ]
    graph = {
        path.stem: package_imports(ast.parse(path.read_text(), str(path)))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert import_cycles(graph) == []


def names_read(tree: ast.Module) -> set:
    """Every name the code reads, imports or attribute-accesses, and every
    string constant (perfbench wraps functions by name); ``__all__``'s own
    entries are not reads."""
    listed = set(map(id, all_entries(tree)))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in listed:
                out.add(node.value)
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    """A name in a module's ``__all__`` is read by the package (its own
    module counts, ``__init__`` does not), a demo or the benchmark."""
    probe = ast.parse("__all__ = ['a', 'b']\nx = b\ny.c = 'd'\nfrom e import f\n")
    assert names_read(probe) == {"b", "y", "c", "d", "f"}
    callers = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    callers += [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]
    read = set().union(*(names_read(ast.parse(p.read_text(), str(p))) for p in callers))
    dead = {}
    for path in sorted(SRC.glob("*.py")):
        entries = all_entries(ast.parse(path.read_text(), str(path)))
        names = [elt.value for elt in entries if elt.value not in read]
        if names:
            dead[path.name] = names
    assert dead == {}


# The modules on a solver path: every answer there is exact.
EXACT_MODULES = ("approx", "contract", "demand", "functions")


def float_uses(tree: ast.AST) -> list:
    """(line, what) for each float literal, ``float`` name and true division."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/"))
    return sorted(found)


def test_no_solver_module_holds_a_float():
    probe = ast.parse("x = 0.5\ny = float(x)\nz = x / 2\nz /= 2\nw = x // 2\ns = '1/2'\n")
    assert float_uses(probe) == [(1, "0.5"), (2, "float"), (3, "/"), (4, "/")]
    found = {}
    for name in EXACT_MODULES:
        path = SRC / f"{name}.py"
        uses = float_uses(ast.parse(path.read_text(), str(path)))
        if uses:
            found[path.name] = uses
    assert found == {}


def raises(tree: ast.Module) -> list:
    """(scope, name) for each ``raise``: scope is the dotted path of the
    classes and functions around it, name the raised class as written (the
    called one for ``raise X(...)``), or "" for a bare ``raise``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                found.append((".".join(scope), "" if exc is None else ast.unparse(exc)))
            defines = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, scope + (child.name,) if defines else scope)

    visit(tree, ())
    return found


def test_every_raise_is_a_contract_error():
    probe = "class A:\n    def f(self):\n        raise X('a') from None\nraise e\nraise\n"
    assert raises(ast.parse(probe)) == [("A.f", "X"), ("", "e"), ("", "")]
    found = []
    for path in sorted(SRC.glob("*.py")):
        for scope, name in raises(ast.parse(path.read_text(), str(path))):
            exc = getattr(errors, name, None)
            if not (isinstance(exc, type) and issubclass(exc, errors.ContractError)):
                found.append((path.name, scope, name))
    assert found == []


def environment_reads(tree: ast.AST) -> list:
    """(line, name) for each ``environ`` or ``getenv`` read off a module or
    imported from ``os``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, a.name) for a in node.names if a.name in ("environ", "getenv")]
    return sorted(found)


def test_no_module_reads_the_environment():
    """Settings come from arguments and files, so a run depends on nothing
    its caller did not pass."""
    probe = "import os as o\nx = o.environ.get('A')\ny = o.getenv('B')\nfrom os import environ\n"
    assert environment_reads(ast.parse(probe)) == [(2, "environ"), (3, "getenv"), (4, "environ")]
    found = {}
    for path in sorted(SRC.glob("*.py")):
        reads = environment_reads(ast.parse(path.read_text(), str(path)))
        if reads:
            found[path.name] = reads
    assert found == {}
