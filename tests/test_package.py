"""The package as a whole: its root imports nothing, each module reads what
it imports, and README's library example runs."""
import ast
import os
import pathlib
import subprocess
import sys

import funneltrack

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(pathlib.Path(funneltrack.__file__).parent.glob("*.py"))


def test_importing_the_root_loads_no_layer_and_no_numpy():
    code = ("import sys, funneltrack\n"
            "loaded = [m for m in sys.modules if m.startswith('funneltrack.') or m == 'numpy']\n"
            "assert not loaded, loaded")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


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
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_every_module_reads_what_it_imports():
    unread = {path.name: unread_imports(path.read_text()) for path in MODULES}
    assert {name: names for name, names in unread.items() if names} == {}


def test_the_scan_finds_an_unread_import():
    assert unread_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)", "path (line 2)"]


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert (tmp_path / "hg.csv").is_file()
