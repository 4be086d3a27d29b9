"""Fail on a module-level import that its module neither uses nor exports.

Usage: python tools/unused_imports.py [DIR ...]    (default: src/curvjet)

Each top-level ``import`` or ``from ... import`` of a module binds names.
A name counts as used if the module reads it anywhere (annotations too) or
lists it in ``__all__``; ``from __future__`` imports are exempt.  Prints
one ``path:line: name`` line per unused name and exits 1 if there is any.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each module-level import of the file that is neither read nor exported."""
    tree = ast.parse(path.read_text(), str(path))
    bound, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read | exported)


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv or ["src/curvjet"]]
    found = [
        f"{path}:{line}: {name}"
        for root in roots
        for path in sorted(root.rglob("*.py"))
        for line, name in unused_imports(path)
    ]
    print("\n".join(found) or f"no unused imports in {' '.join(map(str, roots))}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
