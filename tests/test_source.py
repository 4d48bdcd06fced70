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
