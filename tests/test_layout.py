"""The package holds what a run calls.

Every ``def`` and ``class`` in ``src/surfdiff`` must be named somewhere else
in the package: test-only helpers belong in ``tests/*_oracle.py``.  The
benchmark is a caller too: a name its modules read counts as used, and the
functions its tracer wraps (``perfbench/tracer.py`` ``TARGETS``, attribute
paths given as strings) are exempt.  Every parameter of a module-level
function must be read by its body; a method may keep one its class ignores,
because an interface asks for it.  Every field of a dataclass and every
attribute a method stores on ``self`` must be read, by name, somewhere in
``src``, ``tests`` or ``perfbench``.  All is read with ``ast``, never imported.
"""

import ast
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PACKAGE = os.path.join(ROOT, "src", "surfdiff")
PERFBENCH = os.path.join(ROOT, "perfbench")
TRACER = os.path.join(PERFBENCH, "tracer.py")


def _names_used(tree):
    """Every identifier a tree reads: names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _definitions(tree):
    """(dotted path, node) of every def and class, methods as Class.name."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                path = prefix + child.name
                yield path, child
                yield from walk(child, path + ".")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")


def _parse_dir(directory, tests=False):
    """Module name -> syntax tree of every ``.py`` file in a directory, test
    modules only if ``tests``."""
    return {fname[:-3]: ast.parse(open(os.path.join(directory, fname)).read())
            for fname in sorted(os.listdir(directory))
            if fname.endswith(".py") and (tests or not fname.startswith("test_"))}


def _tracer_targets():
    """(module, attribute path) of each ``TARGETS`` entry, read without importing."""
    tree = ast.parse(open(TRACER).read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {(entry.elts[1].value, entry.elts[2].value) for entry in node.value.elts}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def unused_definitions(package=PACKAGE, exempt=frozenset(), callers=()):
    """Dotted paths of the definitions whose name appears nowhere else in the package.

    ``exempt`` holds (module, dotted path) pairs; a name read by one of the
    ``callers`` trees counts as used.
    """
    trees = _parse_dir(package)
    used = {}
    for tree in [*trees.values(), *callers]:
        for name in _names_used(tree):
            used[name] = used.get(name, 0) + 1
    unused = []
    for module, tree in trees.items():
        for path, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if (module, path) in exempt:
                continue
            inside = sum(1 for n in _names_used(node) if n == name)
            if used.get(name, 0) - inside == 0:
                unused.append(f"{module}.{path}")
    return unused


def unread_parameters(package=PACKAGE):
    """``module.function(parameter)`` of each parameter of a module-level
    function that the function's body never reads."""
    unread = []
    for module, tree in _parse_dir(package).items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs,
                                          a.kwarg) if p is not None]
                read = {n.id for stmt in node.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)}
                unread += [f"{module}.{node.name}({p})" for p in params if p not in read]
    return unread


def _is_dataclass(node):
    return any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
               for d in (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list))


def unread_attributes(package=PACKAGE, readers=()):
    """``module.Class.name`` of each dataclass field, and of each attribute a
    method stores on ``self``, whose name no attribute read in the package
    or in the ``readers`` trees gives."""
    trees = _parse_dir(package)
    read = {n.attr for tree in [*trees.values(), *readers] for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = set()
    for module, tree in trees.items():
        for path, node in _definitions(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            names = [stmt.target.id for stmt in node.body if _is_dataclass(node)
                     and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            names += [n.attr for stmt in node.body
                      if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                      for n in ast.walk(stmt)
                      if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                      and isinstance(n.value, ast.Name) and n.value.id == "self"]
            unread |= {f"{module}.{path}.{name}" for name in names if name not in read}
    return sorted(unread)


def test_src_holds_only_what_runs():
    bench = _parse_dir(PERFBENCH)
    assert unused_definitions(exempt=_tracer_targets(), callers=bench.values()) == []


def test_src_functions_read_every_parameter():
    assert unread_parameters() == []


def test_src_stores_only_attributes_something_reads():
    readers = [*_parse_dir(os.path.join(ROOT, "tests"), tests=True).values(),
               *_parse_dir(PERFBENCH, tests=True).values()]
    assert unread_attributes(readers=readers) == []


def test_guard_flags_a_helper_nothing_calls(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Shape:\n"
        "    def area(self):\n        return 1.0\n\n"
        "    def spare(self):\n        return self.spare_value\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n"
        "def used():\n    return Shape().area()\n")
    (tmp_path / "b.py").write_text("from .a import used\n\nVALUE = used()\n")
    assert unused_definitions(str(tmp_path)) == ["a.Shape.spare", "a.lonely"]
    assert unused_definitions(str(tmp_path), exempt={("a", "lonely")}) == ["a.Shape.spare"]
    caller = ast.parse("import a\n\na.Shape().spare()\n")
    assert unused_definitions(str(tmp_path), callers=[caller]) == ["a.lonely"]


def test_guard_flags_a_parameter_nothing_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Shape:\n"
        "    def area(self, t=0.0):\n        return 1.0\n\n"
        "def scaled(shape, factor, *rest, unit=1, **extra):\n"
        "    def inner():\n        return factor * unit\n"
        "    return shape.area() * inner()\n")
    assert unread_parameters(str(tmp_path)) == ["a.scaled(rest)", "a.scaled(extra)"]


def test_guard_flags_an_attribute_nothing_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n\n"
        "@dataclass(frozen=True)\nclass Report:\n    slack: float\n    floor: float\n\n"
        "@dataclasses.dataclass\nclass Verdict:\n    slack: float\n    length: float\n\n"
        "class Plain:\n    size: int\n\n"
        "    def __init__(self, n):\n"
        "        self.n, self.spare = n, n\n"
        "        self.cache = {}\n\n"
        "    def grow(self):\n"
        "        def inner():\n            self.extra = 1\n"
        "        inner()\n        return self.n\n")
    (tmp_path / "b.py").write_text(
        "from .a import Plain, Report\n\n"
        "VALUE = Report(1.0, 0.0).slack + Plain(2).grow()\n")
    assert unread_attributes(str(tmp_path)) == [
        "a.Plain.cache", "a.Plain.extra", "a.Plain.spare", "a.Report.floor",
        "a.Verdict.length"]
    caller = ast.parse("def f(v, p):\n    return v.length + len(p.cache)\n")
    assert unread_attributes(str(tmp_path), readers=[caller]) == [
        "a.Plain.extra", "a.Plain.spare", "a.Report.floor"]
