import ast
import pathlib

import ngridsim


def test_only_tables_module_imports_csv():
    """The CSV format lives in one module; loaders and writers use it."""
    importers = []
    for path in sorted(pathlib.Path(ngridsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            if "csv" in names:
                importers.append(path.name)
    assert importers == ["tables.py"]


def test_only_tables_module_decodes_json():
    """Fleet and model files share one JSON reader, ``tables.read_json``."""
    callers = []
    for path in sorted(pathlib.Path(ngridsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                callers.append(path.name)
    assert callers == ["tables.py"]
