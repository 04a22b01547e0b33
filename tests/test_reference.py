"""The reference models stay off the production path.

``deflatekit.reference`` holds the paper's second coding construction,
the canonicity checker and the RFC 1951 codepoint spec, and
``deflatekit.history_window`` the paper's window model (ExpList,
QueueOfDoom, ``resolve_tokens``); only the tests import them.  This
parses every module of the package and fails if any other module
imports either, in any spelling of the import statement or through
``importlib``, or defines a name either defines; and it checks in a
fresh interpreter that importing the codec loads neither.  The same
scan keeps the package pure Python: no module of it may import ``zlib``
or ``binascii``, whose C checksums and codecs would be a shortcut past
the code under test, and the encoder may not import the decoder.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import deflatekit

PACKAGE = Path(deflatekit.__file__).parent
REFERENCE_MODULES = ("reference", "history_window")
REFERENCE_FILES = {f"{name}.py" for name in REFERENCE_MODULES}
C_SHORTCUTS = ("zlib", "binascii")
# Standard-library modules that would cost a CLI call most of its start-up.
SLOW_IMPORTS = ("dataclasses", "inspect", "fractions", "decimal", "typing")


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


def reference_imports(names: set[str]) -> list[str]:
    """The names in ``names`` that are a reference module or one of its members."""
    return sorted(
        name
        for name in names
        for module in REFERENCE_MODULES
        if name in (module, f"deflatekit.{module}")
        or name.startswith(f"deflatekit.{module}.")
    )


def test_no_production_module_imports_reference():
    sources = sorted(PACKAGE.glob("*.py"))
    assert {PACKAGE / name for name in REFERENCE_FILES} <= set(sources)
    offenders = []
    for path in sources:
        if path.name in REFERENCE_FILES:
            continue
        for name in reference_imports(imported_modules(ast.parse(path.read_text(), str(path)))):
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


def test_the_encoder_imports_nothing_from_the_decoder():
    # Both take the RFC 1951 tables, BlockType among them, from symbol_tables.
    names = imported_modules(ast.parse((PACKAGE / "compress.py").read_text()))
    assert sorted(n for n in names if n.split(".")[:2] == ["deflatekit", "inflate"]) == []


def top_level_names(tree: ast.Module) -> set[str]:
    """Names a module's own top-level statements define (imports excluded)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_no_production_module_defines_a_reference_name():
    spec = set()
    for name in REFERENCE_FILES:
        spec |= top_level_names(ast.parse((PACKAGE / name).read_text()))
    assert {"LENGTH_TABLE", "length_decode", "InvalidLengthExtra", "explist_iter"} <= spec
    assert {"QueueOfDoom", "resolve_tokens", "explist_index", "IndexOutOfRange"} <= spec
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in REFERENCE_FILES:
            continue
        defined = top_level_names(ast.parse(path.read_text(), str(path)))
        offenders += [f"{path.name} defines {name}" for name in sorted(defined & spec)]
    assert offenders == []


def test_every_definition_spelling_is_caught():
    source = "A = 1\nB: int = 2\nC, (D, E) = 3, (4, 5)\ndef f(): G = 6\nclass H: I = 7\nimport J"
    assert top_level_names(ast.parse(source)) == {"A", "B", "C", "D", "E", "f", "H"}


def c_shortcuts(names: set[str]) -> list[str]:
    """The names in ``names`` that are a C-backed module or one of its members."""
    return sorted(n for n in names if n.split(".")[0] in C_SHORTCUTS)


def test_no_module_imports_a_c_backed_shortcut():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in c_shortcuts(imported_modules(ast.parse(path.read_text(), str(path)))):
            offenders.append(f"{path.name} imports {name}")
    assert offenders == []


def test_every_c_shortcut_spelling_is_caught():
    spellings = [
        "import zlib",
        "import zlib as z",
        "from zlib import crc32",
        "import binascii",
        "from binascii import crc32 as c",
        "importlib.import_module('zlib')",
        "__import__('binascii')",
    ]
    for source in spellings:
        assert c_shortcuts(imported_modules(ast.parse(source))), source
    assert c_shortcuts(imported_modules(ast.parse("import struct\nfrom . import bitio"))) == []


def test_every_import_spelling_is_caught():
    spellings = [
        "from . import reference",
        "from .reference import check_axioms",
        "from .reference import *",
        "import deflatekit.reference",
        "import deflatekit.reference as r",
        "from deflatekit import reference",
        "from deflatekit.reference import build_coding_sorted",
        "importlib.import_module('deflatekit.reference')",
        "importlib.import_module('.reference', 'deflatekit')",
        "__import__('deflatekit.reference')",
        "from . import history_window",
        "from .history_window import QueueOfDoom",
        "from .history_window import *",
        "import deflatekit.history_window",
        "import deflatekit.history_window as h",
        "from deflatekit import history_window",
        "from deflatekit.history_window import resolve_tokens",
        "importlib.import_module('deflatekit.history_window')",
        "importlib.import_module('.history_window', 'deflatekit')",
        "__import__('deflatekit.history_window')",
    ]
    for source in spellings:
        assert reference_imports(imported_modules(ast.parse(source))), source
    assert reference_imports(imported_modules(ast.parse("from . import prefix_coding"))) == []


def test_importing_the_codec_loads_no_reference_module():
    # Nor the slow stdlib modules the records and the Kraft check once
    # pulled in.  ``site`` may preload some of them, so only the modules
    # the import adds count.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import deflatekit, deflatekit.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    path = os.pathsep.join(p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    loaded = set(result.stdout.split())
    assert {"deflatekit.inflate", "deflatekit.cli"} <= loaded
    assert loaded.isdisjoint({f"deflatekit.{name}" for name in REFERENCE_MODULES})
    assert loaded.isdisjoint(SLOW_IMPORTS)
