"""The package as a whole: its root imports nothing, each module and test
file reads what it imports and every private name it defines, no module
imports another's private name or reads another object's private attribute,
and README's library example runs."""
import ast
import pathlib

from conftest import run_python
import funneltrack

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted(pathlib.Path(funneltrack.__file__).parent.glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def test_importing_the_root_loads_no_layer_and_no_numpy():
    code = ("import sys, funneltrack\n"
            "loaded = [m for m in sys.modules if m.startswith('funneltrack.') or m == 'numpy']\n"
            "assert not loaded, loaded")
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr


def test_a_single_run_loads_no_process_pool():
    # only a parallel sweep needs multiprocessing: about 16 ms and 2 MiB to import
    code = ("import sys\n"
            "from funneltrack import cli, sim\n"
            "loaded = [m for m in ('multiprocessing', 'concurrent.futures.process')\n"
            "          if m in sys.modules]\n"
            "assert not loaded, loaded")
    run = run_python("-c", code)
    assert run.returncode == 0, run.stderr


def read_names(tree: ast.AST) -> set:
    """Names a module reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unread_imports(source: str) -> list:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = read_names(tree)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def unread_private_names(source: str) -> list:
    """Private (``_name``, not dunder) module-level functions, classes and
    variables that the module never reads: helpers left behind."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = read_names(tree)
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__") and name not in read)


def test_every_module_reads_what_it_imports():
    unread = {f"{path.parent.name}/{path.name}": unread_imports(path.read_text())
              for path in MODULES}
    assert {name: names for name, names in unread.items() if names} == {}


def test_the_scan_finds_an_unread_import():
    assert unread_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)", "path (line 2)"]


def test_every_module_reads_its_private_names():
    unread = {f"{path.parent.name}/{path.name}": unread_private_names(path.read_text())
              for path in MODULES}
    assert {name: names for name, names in unread.items() if names} == {}


def test_the_scan_finds_an_unread_private_name():
    source = ("_A, _B = 1, 2\n__all__ = []\n_C: int = 3\n"
              "def _helper():\n    return _A\n"
              "class _Left:\n    pass\n"
              "def public():\n    _local = _C\n    return _local\n")
    assert unread_private_names(source) == ["_B (line 1)", "_Left (line 6)", "_helper (line 4)"]


def private_imports(source: str) -> list:
    """Private (``_name``, not dunder) names a module imports from another."""
    return sorted(f"{alias.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) for alias in node.names
                  if alias.name.startswith("_") and not alias.name.startswith("__"))


def test_no_package_module_imports_a_private_name():
    assert [f"{p.name}: {name}" for p in PACKAGE for name in private_imports(p.read_text())] == []


def test_the_scan_finds_an_imported_private_name():
    source = "from os import _exit, path\nfrom .a import (_B,\n    __all__)\nimport _thread\n"
    assert private_imports(source) == ["_B (line 2)", "_exit (line 1)"]


def private_attribute_reads(source: str) -> list:
    """Private (``_name``, not dunder) attributes a module reads off another
    object than ``self``; a namedtuple's ``_fields`` is public."""
    tree = ast.parse(source)
    return sorted(f"{ast.unparse(node)} (line {node.lineno})" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and node.attr.startswith("_") and not node.attr.startswith("__")
                  and node.attr != "_fields"
                  and not (isinstance(node.value, ast.Name) and node.value.id == "self"))


def test_no_package_module_reads_another_objects_private_attribute():
    assert [f"{p.name}: {name}" for p in PACKAGE
            for name in private_attribute_reads(p.read_text())] == []


def test_the_scan_finds_a_private_attribute_read_off_another_object():
    source = ("class A:\n    def f(self, obj):\n        return self._x + obj._x + obj.__dict__\n"
              "n = len(Row._fields) + A()._y\nself._z = 1\n")
    assert private_attribute_reads(source) == ["A()._y (line 4)", "obj._x (line 3)"]


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert (tmp_path / "hg.csv").is_file()
