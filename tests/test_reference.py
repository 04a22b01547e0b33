"""The reference models stay off the production path.

``deflatekit.reference`` holds the paper's second coding construction
and the canonicity checker; only the tests import it.  This parses every
module of the package and fails if any other module imports it, in any
spelling of the import statement or through ``importlib``.
"""

import ast
from pathlib import Path

import deflatekit

PACKAGE = Path(deflatekit.__file__).parent
REFERENCE = "deflatekit.reference"


def imported_modules(tree: ast.AST) -> set[str]:
    """Absolute names of every module a package module's source imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # the package is flat: every relative import is from it
                base = f"deflatekit.{base}".rstrip(".")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            first = node.args[0]
            if name in ("import_module", "__import__") and isinstance(first, ast.Constant):
                names.add(str(first.value).lstrip("."))
    return names


def test_no_production_module_imports_reference():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "reference.py" in sources
    offenders = []
    for path in sources:
        if path.name == "reference.py":
            continue
        for name in imported_modules(ast.parse(path.read_text(), str(path))):
            if name in (REFERENCE, "reference") or name.startswith(REFERENCE + "."):
                offenders.append(f"{path.name} imports {name}")
    assert offenders == []
    assert deflatekit.__all__ == [
        "CompressParams",
        "DeflateError",
        "InflateError",
        "crc32",
        "deflate",
        "gzip_compress",
        "gzip_decompress",
        "inflate",
    ]


def test_every_import_spelling_is_caught():
    spellings = [
        "from . import reference",
        "from .reference import check_axioms",
        "from .reference import *",
        "import deflatekit.reference",
        "import deflatekit.reference as r",
        "from deflatekit import reference",
        "from deflatekit.reference import build_coding_counting",
        "importlib.import_module('deflatekit.reference')",
        "importlib.import_module('.reference', 'deflatekit')",
        "__import__('deflatekit.reference')",
    ]
    for source in spellings:
        names = imported_modules(ast.parse(source))
        assert REFERENCE in names or "reference" in names, source
    assert REFERENCE not in imported_modules(ast.parse("from . import prefix_coding"))
