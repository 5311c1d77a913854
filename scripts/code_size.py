#!/usr/bin/env python3
"""Print the package's size as JSON: source lines and public names.

``source_lines`` is the ``wc -l`` total of ``src/spatialqkd/*.py`` and
``module_lines`` the count of each module, ``package_all`` the length of
``spatialqkd.__all__`` and ``module_all`` the length of each module's own
``__all__`` (0 for a module without one).  The names are read from the
source, so the package need not be importable:

    python scripts/code_size.py
"""

import ast
import json
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "spatialqkd"


def all_names(path: pathlib.Path) -> list[str]:
    """The module's ``__all__`` list, or an empty list if it has none."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def main() -> None:
    files = sorted(PACKAGE.glob("*.py"))
    lines = {p.stem: p.read_bytes().count(b"\n") for p in files}
    print(json.dumps({
        "source_lines": sum(lines.values()),
        "module_lines": lines,
        "package_all": len(all_names(PACKAGE / "__init__.py")),
        "module_all": {p.stem: len(all_names(p)) for p in files
                       if p.stem != "__init__"},
    }, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
