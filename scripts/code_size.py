#!/usr/bin/env python3
"""Print the package's size as JSON: source lines, public names and options.

``source_lines`` is the ``wc -l`` total of ``src/spatialqkd/*.py`` and
``module_lines`` the count of each module, ``package_all`` the length of
``spatialqkd.__all__`` and ``module_all`` the length of each module's own
``__all__`` (0 for a module without one).  ``cli_options`` counts the
``add_argument`` calls in ``cli.py``, so an option shared by every
subcommand counts once.  ``config_fields`` counts the settings of
``ExperimentConfig``: the fields of each nested settings class plus its own
scalar fields.  All are read from the source, so the package need not be
importable:

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


def cli_options() -> int:
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    return sum(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "add_argument"
               for node in ast.walk(tree))


def config_fields(files: list[pathlib.Path]) -> int:
    fields = {}  # class name -> annotations of its fields
    for path in files:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                fields[node.name] = [ast.unparse(s.annotation)
                                     for s in node.body
                                     if isinstance(s, ast.AnnAssign)]
    return sum(len(fields[kind]) if kind in fields else 1
               for kind in fields["ExperimentConfig"])


def main() -> None:
    files = sorted(PACKAGE.glob("*.py"))
    lines = {p.stem: p.read_bytes().count(b"\n") for p in files}
    print(json.dumps({
        "cli_options": cli_options(),
        "config_fields": config_fields(files),
        "source_lines": sum(lines.values()),
        "module_lines": lines,
        "package_all": len(all_names(PACKAGE / "__init__.py")),
        "module_all": {p.stem: len(all_names(p)) for p in files
                       if p.stem != "__init__"},
    }, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
