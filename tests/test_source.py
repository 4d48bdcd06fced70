import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ego_focus"


def test_no_assert_in_the_package():
    # python -O strips assert statements, so a check the package relies on
    # must raise an error of its own
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_import_in_the_package():
    # A name imported and never used is a leftover of code that was taken
    # out. __init__.py is left out: its imports are the package's exports.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{node.lineno} {alias.asname or alias.name.partition('.')[0]}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for alias in node.names
                  if (alias.asname or alias.name.partition(".")[0]) not in used]
    assert found == []
