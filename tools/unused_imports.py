"""Report module-level imports that a module never uses.

    python3 tools/unused_imports.py src tests tools

Reads every ``.py`` file under the given files and directories with ``ast``
alone, nothing imported. A name that a module-level ``import`` binds is used
when the module reads it anywhere, in code or in a quoted annotation, or
lists it in ``__all__``. Prints one line per unused import and exits 1 if
there is any, 0 otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

# (file, name) pairs left in place on purpose
KEPT = {
    # tests/test_acceptance.py does not change with the library around it
    ("test_acceptance.py", "SampledCircle"),
}


def imported_names(tree: ast.Module) -> list:
    """(name bound, line) of each module-level import, __future__ aside."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names if a.name != "*"]
    return out


def used_names(tree: ast.Module) -> set:
    """Every name the module reads, in quoted annotations and __all__ too."""
    used, quoted = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            quoted.append(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for annotation in quoted:
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used.update(n.id for n in ast.walk(ast.parse(annotation.value, mode="eval"))
                        if isinstance(n, ast.Name))
    return used


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree)
            if name not in used and (path.name, name) not in KEPT]


def main(argv=None) -> int:
    roots = [Path(a) for a in (sys.argv[1:] if argv is None else argv)]
    files = sorted(f for root in roots for f in ([root] if root.is_file() else root.rglob("*.py")))
    found = 0
    for path in files:
        for name, line in unused_imports(path):
            print(f"{path}:{line}: {name} imported but unused")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
