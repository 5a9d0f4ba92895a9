"""Every name a module in src/ or tests/ imports is used in it, every
private module-level name in src/ is referenced somewhere, and every
public name in src/ is read by the program or its benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.joinpath("src").rglob("*.py"), *ROOT.joinpath("tests").rglob("*.py")])
SRC = sorted(ROOT.joinpath("src").rglob("*.py"))
BENCH = sorted(ROOT.joinpath("perfbench").rglob("*.py"))
READERS = [*FILES, *BENCH]


def unused_imports(text):
    """(line, name) of each imported name that the module never reads.  A name
    listed in `__all__` counts as read; an import on a line marked
    `# noqa: F401` is exempt."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in ln for ln in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    text = "import os\nimport sys  # noqa: F401\nfrom a.b import c as d, e\n__all__ = ['e']\n"
    assert unused_imports(text) == [(1, "os"), (3, "d")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in FILES for line, name in unused_imports(path.read_text())]
    assert found == []


def defined_names(node):
    """The names a module-level function, class or assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def private_definitions(text):
    """(line, name) of each module-level function, class or constant whose
    name starts with one underscore."""
    return [(node.lineno, n) for node in ast.parse(text).body for n in defined_names(node)
            if n.startswith("_") and not n.startswith("__")]


def references(text):
    """Every name a module reads: loaded names, attributes, imported names and
    identifier strings (names patched by string, as monkeypatch.setattr does)."""
    refs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            refs.add(node.value)
    return refs


def unreferenced_private_names(sources, readers):
    """'path:line: name' for each private definition of `sources` (path -> text)
    that no text of `readers` references."""
    refs = set().union(*map(references, readers))
    return [f"{path}:{line}: {name}" for path, text in sources.items()
            for line, name in private_definitions(text) if name not in refs]


def test_scan_finds_an_unreferenced_private_name():
    mesh = ROOT.joinpath("src", "polyscat", "forward", "mesh.py").read_text()
    readers = [path.read_text() for path in READERS]
    assert unreferenced_private_names({"mesh.py": mesh}, readers) == []
    dead = mesh + "\n\ndef _helper(x):\n    return 2 * x\n"
    assert unreferenced_private_names({"mesh.py": dead}, [dead, *readers]) == [
        f"mesh.py:{len(mesh.splitlines()) + 3}: _helper"]
    text = "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    pass\n"
    assert unreferenced_private_names({"m": text}, [text, "x._C", "setattr(m, '_B', 3)"]) == [
        "m:4: _f"]


def test_no_unreferenced_private_names():
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in SRC}
    assert unreferenced_private_names(sources, [path.read_text() for path in READERS]) == []


def public_definitions(text):
    """(line, name) of each public module-level function, class or constant,
    and (line, 'Class.method') of each public method of a module-level class."""
    found = []
    for node in ast.parse(text).body:
        found += [(node.lineno, n) for n in defined_names(node) if not n.startswith("_")]
        if isinstance(node, ast.ClassDef):
            found += [(f.lineno, f"{node.name}.{f.name}") for f in node.body
                      if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
    return found


def reads(text, strings=False):
    """Names a module reads: loaded names and attributes, and with `strings`
    its identifier strings (names the benchmark patches by string).  An
    import is not a read, nor is `__all__`."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.add(node.value)
    return found


def unread_public_names(sources, bench):
    """'path:line: name' for each public definition of `sources` (path -> text
    of every module in src/) that neither src/ nor a text of `bench` reads.
    A name is matched by its last part against every read at once, so a
    method only tests call is missed when it shares its name with any
    attribute src/ reads (`values`, `area`, ...)."""
    read = set().union(*(reads(text) for text in sources.values()),
                       *(reads(text, strings=True) for text in bench))
    return [f"{path}:{line}: {name}" for path, text in sources.items()
            for line, name in public_definitions(text) if name.split(".")[-1] not in read]


def test_scan_finds_an_unread_public_name():
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in SRC}
    bench = [path.read_text() for path in BENCH]
    probe = str(Path("src", "polyscat", "probe.py"))
    # a function only tests call (tests are no readers), imported by src/ and
    # listed in its __all__
    dead = sources[probe] + "\n\ndef eval_I6(v):\n    return v\n"
    importer = "from .probe import eval_I6\n__all__ = ['eval_I6']\n"
    assert unread_public_names({**sources, probe: dead, "importer.py": importer}, bench) == [
        f"{probe}:{len(sources[probe].splitlines()) + 3}: eval_I6"]
    # a loaded name, an attribute or a benchmark string is a read; a src/
    # string is not
    text = "X = 1\nclass C:\n    def m(self):\n        pass\ndef f():\n    return X\n"
    assert unread_public_names({"m.py": text, "r.py": "g('f', 'C')"}, []) == [
        "m.py:2: C", "m.py:3: C.m", "m.py:5: f"]
    assert unread_public_names({"m.py": text, "r.py": "f()\nC().m()"}, []) == []
    assert unread_public_names({"m.py": text}, ["patch(mod, 'f')\nobj.m"]) == ["m.py:2: C"]
    # the known gap: an unrelated read of the same attribute name hides a
    # method only tests call
    assert unread_public_names({"m.py": text, "r.py": "f()\nC\nother.m"}, []) == []


def test_every_public_name_is_read_by_src_or_perfbench():
    sources = {str(path.relative_to(ROOT)): path.read_text() for path in SRC}
    assert unread_public_names(sources, [path.read_text() for path in BENCH]) == []
