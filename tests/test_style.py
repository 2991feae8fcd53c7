"""Source layout: every line of the package fits in 100 characters, every
read of a table's narrow coefficient cube is widened or reviewed, no module
imports a name it never reads, every private helper is read in the
package, and the exact pairing has one caller per kind of pairing."""

import ast
import re
from pathlib import Path

import etalab

LINE_LIMIT = 100


def test_package_lines_fit_the_line_limit():
    package = Path(etalab.__file__).parent
    long_lines = [
        f"{path.name}:{number} has {len(line)} characters"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > LINE_LIMIT
    ]
    assert long_lines == []


# A table's cube is held in the narrowest signed dtype that fits it (int8 for
# every table so far), so a reader that multiplies or adds must widen first.
# Every `.cube` read in the package is either widened on its line or listed
# here, by file and code (comments dropped), with what makes it safe: a new
# or changed read fails the check until it is reviewed.
WIDENED = re.compile(r"\.astype\(np\.int64\)|dtype=np\.int64")
REVIEWED_CUBE_READS = {
    "table.py": {
        # the narrowing itself, the read-only flag, dtype and shape
        'object.__setattr__(self, "cube", narrowest(self.cube))',
        "self.cube.setflags(write=False)",
        "bounds = np.iinfo(self.cube.dtype)",
        "rows = rows.astype(self.cube.dtype, copy=False).reshape(len(rows), -1)",
        "one = np.zeros((1, *self.cube.shape[1:]), dtype=self.cube.dtype)",
        # views: Character arithmetic widens through cyclotomic._exact
        'self, "irreducibles", tuple(Character._of(self.group, row) for row in self.cube)',
        # keys, gathers and comparisons at the cube's dtype
        "keys = _as_keys(self.cube.reshape(len(self.cube), -1))",
        "return self._rows_index(self.cube[:, list(act)])",
        # Python integers
        "return tuple(self.cube[:, 0, 0].tolist())",
        '"irreducibles": self.cube.tolist(),',
        # kernels that widen: galois and linear_map; Evaluated, whose values
        # widen a bounded block at a time and whose norms sum in int64
        "return Evaluated(self.cube)",
        "if not np.array_equal(galois(self.cube, self.e, u), self.cube[:, act]):",
        "if irrational or (linear_map(mults, self.cube[:, :1, 0])[:, 0] != degrees).any():",
    },
    "charops.py": {
        # kernels that widen: _orbit_sums sums in int64
        "heads, sums = _orbit_sums(first, below.cube)",
        # keys at one dtype with the orbit sums, and a comparison
        "dtype = np.promote_types(sums.dtype, table.cube.dtype)",
        "restricted = table.cube[:, _fusion(M, N)].astype(dtype, copy=False)",
        "keep = (table.cube[:, gen_classes] == table.cube[:, :1]).all(axis=(1, 2))",
    },
    "verify.py": {
        # the shape of one row
        "step = max(1, _LIFT_ENTRIES // table.cube[0].size)",
        "step = (_branching(series[i], series[i - 1])[0] == principal) & (tab_i.cube[:, 0, 0] == 1)",
    },
}


def _cube_reads():
    """(file name, code) of each line of the package that reads an attribute `cube`."""
    package = Path(etalab.__file__).parent
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        numbers = sorted(
            {
                node.lineno
                for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Attribute) and node.attr == "cube"
            }
        )
        for number in numbers:
            yield path.name, number, re.sub(r"\s+#.*$", "", lines[number - 1]).strip()


def test_every_cube_read_is_widened_or_reviewed():
    reads = list(_cube_reads())
    unreviewed = [
        f"{name}:{number}: {code}"
        for name, number, code in reads
        if not WIDENED.search(code) and code not in REVIEWED_CUBE_READS.get(name, ())
    ]
    assert unreviewed == []
    # and the list names no read that is gone
    present = {(name, code) for name, _, code in reads}
    stale = [(n, c) for n, codes in REVIEWED_CUBE_READS.items() for c in codes if (n, c) not in present]
    assert stale == []


def _unused_imports(source):
    """(line, name) of each name a top-level import of source binds that
    nothing reads, neither code nor `__all__`."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    package = Path(etalab.__file__).parent
    unused = [
        f"{path.name}:{line} imports {name}"
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
        for line, name in _unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_the_unused_import_check_sees_an_unused_name():
    source = (
        "from typing import Iterator, Optional\n"
        "import numpy as np\n"
        "x: Optional[int] = np.int8(1)\n"
    )
    assert _unused_imports(source) == [(1, "Iterator")]


def _private_definitions(sources):
    """(file name, name) of each underscore-named function or class, dunders
    aside, defined in sources, a {file name: source} map, and the set of names
    their code reads, by name or as an attribute."""
    defined, read = [], set()
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((name, node.name))
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    return defined, read


def test_every_private_helper_is_read_in_the_package():
    # a helper that only tests import belongs in the tests
    package = Path(etalab.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    defined, read = _private_definitions(sources)
    assert defined
    assert [f"{name}: {helper}" for name, helper in defined if helper not in read] == []


def test_the_private_helper_check_sees_an_unread_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _unused():\n    _unused = 1\n",
        "b.py": "from a import _used\n\n\nclass _Box:\n    def _open(self):\n        _used()\n",
    }
    defined, read = _private_definitions(sources)
    assert [d for d in defined if d[1] not in read] == [
        ("a.py", "_unused"),
        ("b.py", "_Box"),
        ("b.py", "_open"),
    ]


def _pairing_callers(sources):
    """(file name, enclosing function) of each call of a name `pairing` in
    sources, a {file name: source} map; methods as Class.method."""
    found = []

    class Calls(ast.NodeVisitor):
        def __init__(self, name):
            self.name, self.scope = name, []

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef

        def visit_Call(self, node):
            func = node.func
            if getattr(func, "id", getattr(func, "attr", None)) == "pairing":
                found.append((self.name, ".".join(self.scope)))
            self.generic_visit(node)

    for name, source in sources.items():
        Calls(name).visit(ast.parse(source))
    return sorted(found)


def test_tables_are_paired_through_one_seam():
    # every pairing against a table, its mode decision and its degree check
    # are CharTable._multiplicity_rows'; inner_product pairs two characters
    package = Path(etalab.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert _pairing_callers(sources) == [
        ("charops.py", "inner_product"),
        ("table.py", "CharTable._multiplicity_rows"),
    ]


def test_the_pairing_caller_check_sees_every_caller():
    sources = {
        "a.py": "def f():\n    return pairing(x)\n\n\nclass T:\n    def g(self):\n"
        "        def h():\n            return cyclotomic.pairing(y)\n        return h\n",
        "b.py": "pairing(z)\n",
    }
    assert _pairing_callers(sources) == [("a.py", "T.g.h"), ("a.py", "f"), ("b.py", "")]
