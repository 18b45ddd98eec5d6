"""List the functions, classes and methods defined in ``src/weakhopf`` that
nothing in ``src/`` references, split by who does reference them.

    python3 tools/test_only_names.py

References are read from the syntax tree, so comments never count, and a
string counts only as a whole.  Dunders, which Python calls implicitly, are
left out.

- A function or class is referenced by a name, an attribute, an import, or,
  outside ``src/``, a string equal to its name (``bench/tracing.py``
  ``TARGETS`` names functions that way).  In ``src/`` a string counts only as
  ``"module.function"`` with a module of the package, which is how
  ``cli.COMMANDS`` names a handler, so the package's export table in
  ``__init__.py`` does not.
- A method is referenced only by an attribute access ``.name`` or by a
  string ``"Class.name"``, which is how ``TARGETS`` names methods; a local
  variable or a word in a message that shares the method's name does not
  count.

The unreferenced definitions are split into those that ``bench/`` or
``tools/`` reference (the benchmark resolves them, so they stay while it
does), those that only ``tests/`` reference, and those that nothing
references.  Matching is by name, not by type, so two methods that share a
name are referenced together: the tool could not see that ``FinVec.index``
was named only by tests, since ``src/`` calls ``FiniteGroupoid.index`` as
``G.index``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = {ast.FunctionDef: "function", ast.AsyncFunctionDef: "function", ast.ClassDef: "class"}
GROUPS = ("named by bench/ or tools/", "named only by tests/", "named nowhere")


def definitions(tree: ast.Module, module: str):
    """(qualified name, class or None, bare name, kind) of each top-level
    function and class and of each method of a top-level class, dunders left
    out."""
    defs = tuple(KINDS)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("__"):
            yield f"{module}.{node.name}", None, node.name, KINDS[type(node)]
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", node.name, item.name, "method"


def references(tree: ast.Module) -> tuple[set, set, set]:
    """The identifiers (names, imports and attributes), the attribute names
    and the string constants that ``tree`` uses."""
    idents, attrs, strings = set(), set(), set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            idents.add(n.id)
        elif isinstance(n, ast.Attribute):
            idents.add(n.attr)
            attrs.add(n.attr)
        elif isinstance(n, ast.alias):
            idents.add(n.name.rpartition(".")[2])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            strings.add(n.value)
    return idents, attrs, strings


def folder_references(folder: str) -> tuple[set, set, set]:
    """`references` over every Python file under ``folder``; in ``src/`` a
    string counts only as ``"module.function"``, naming the function."""
    idents, attrs, strings = set(), set(), set()
    for path in sorted((ROOT / folder).rglob("*.py")):
        i, a, s = references(ast.parse(path.read_text(encoding="utf-8")))
        idents |= i
        attrs |= a
        strings |= s
    if folder != "src":
        return idents, attrs, strings
    stems = {path.stem for path in (ROOT / "src" / "weakhopf").glob("*.py")}
    for module, dot, name in (text.partition(".") for text in strings):
        if dot and module in stems and name.isidentifier():
            idents.add(name)
    return idents, attrs, set()


def _referenced(refs: tuple[set, set, set], cls, name: str) -> bool:
    idents, attrs, strings = refs
    if cls is None:
        return name in idents or name in strings
    return name in attrs or f"{cls}.{name}" in strings


def unreferenced() -> dict:
    """The definitions that nothing in ``src/`` references, by group, each
    as ``"qualified name (kind)"``."""
    defined = []
    for path in sorted((ROOT / "src" / "weakhopf").glob("*.py")):
        defined += definitions(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    refs = {folder: folder_references(folder) for folder in ("src", "bench", "tools", "tests")}
    groups = {key: [] for key in GROUPS}
    for qualified, cls, name, kind in defined:
        if _referenced(refs["src"], cls, name):
            continue
        key = (GROUPS[0] if any(_referenced(refs[f], cls, name) for f in ("bench", "tools"))
               else GROUPS[1] if _referenced(refs["tests"], cls, name) else GROUPS[2])
        groups[key].append(f"{qualified} ({kind})")
    return groups


def main() -> None:
    print("definitions in src/weakhopf that nothing in src/ references:")
    for key, names in unreferenced().items():
        print(f"  {key}: {len(names)}")
        for line in names:
            print(f"    {line}")


if __name__ == "__main__":
    main()
