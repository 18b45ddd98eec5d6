"""List the functions, classes and methods defined in ``src/weakhopf`` whose
name nothing in ``src/`` references, split by who does reference them.

    python3 tools/test_only_names.py

A name counts as referenced in ``src/`` when it occurs there as a name or an
attribute outside its own definition; the package's export table (strings in
``__init__.py``) does not count, and dunders, which Python calls implicitly,
are left out.  The unreferenced names are split into those that ``bench/`` or
``tools/`` name (the benchmark resolves them, so they stay while it does),
those that only ``tests/`` name, and those that nothing names.  Matching is by
name alone, so a name shared by two definitions is referenced if either is.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = {ast.FunctionDef: "function", ast.AsyncFunctionDef: "function", ast.ClassDef: "class"}


def definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, kind) of each top-level function and class
    and of each method of a top-level class, dunders left out."""
    defs = tuple(KINDS)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("__"):
            yield f"{module}.{node.name}", node.name, KINDS[type(node)]
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item.name, "method"


def used_names(tree: ast.Module) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}


def named_in(folder: str, name: str) -> bool:
    word = re.compile(rf"\b{re.escape(name)}\b")
    return any(word.search(p.read_text(encoding="utf-8"))
               for p in sorted((ROOT / folder).rglob("*.py")))


def main() -> None:
    used, defined = set(), []
    for path in sorted((ROOT / "src" / "weakhopf").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used |= used_names(tree)
        defined += definitions(tree, path.stem)
    groups = {"named by bench/ or tools/": [], "named only by tests/": [], "named nowhere": []}
    for qualified, name, kind in defined:
        if name in used:
            continue
        key = ("named by bench/ or tools/" if named_in("bench", name) or named_in("tools", name)
               else "named only by tests/" if named_in("tests", name) else "named nowhere")
        groups[key].append(f"{qualified} ({kind})")
    print("definitions in src/weakhopf that nothing in src/ references:")
    for key, names in groups.items():
        print(f"  {key}: {len(names)}")
        for line in names:
            print(f"    {line}")


if __name__ == "__main__":
    main()
