"""Mutant bank for the bit-exact right-hand-side kernel and the solver.

Each entry changes one piece of text in a copy of the package and its tests,
then runs pytest selections on that copy with ``-x``, in order, until one
fails.  A failing selection kills the mutant; a mutant that passes every
selection survives.  The working tree is never edited.  Run it from the
repository root, after any change to ``sim.ClosedLoop._bind_kernel``,
``ClosedLoop.rhs``, ``rk45.solve``, ``rk45.formed`` or ``rk45._dense_block``:

    PYTHONPATH=src python tests/mutants.py

It first runs every selection on the unmutated copy and stops if one fails.
It exits non-zero if an entry's ``old`` text is not in its file exactly once,
if a mutant that is not marked equivalent survives, or if one marked
equivalent is killed.  pytest does not collect this file (its name does not
start with ``test_``), so the bank stays out of tier 1: it takes minutes.
"""
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
import typing

from expected_failures import EXPECTED_FAILURES

ROOT = pathlib.Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "README.md", "pyproject.toml")  # what the tests read
SIM, RK45 = "src/funneltrack/sim.py", "src/funneltrack/rk45.py"

KERNEL = ("tests/test_sim.py::TestKernelMatchesLayers",)
# tier 1 less the three acceptance assertions that fail by design
TIER1 = ("tests", *(arg for node in EXPECTED_FAILURES for arg in ("--deselect", node)))
SELECTION_NAMES = {KERNEL: "TestKernelMatchesLayers", TIER1: "tier 1"}


class Mutant(typing.NamedTuple):
    name: str
    file: str
    old: str
    new: str
    selection: tuple = (KERNEL, TIER1)  # the pytest selections to run, in order
    equivalent: str = ""  # why no input can tell it apart, if none can


MUTANTS = [
    Mutant("the ladder in hg too", SIM,
           "if not observer:\n", "if True:\n"),
    Mutant("y1, y2 swapped in the hg array unpack", SIM,
           "x1, x2, x3, x4, zeta1, y1, y2 = state.tolist()",
           "x1, x2, x3, x4, zeta1, y2, y1 = state.tolist()"),
    Mutant("zeta1 formed from b4 in the hg stage parts", SIM,
           "zeta1, y1, y2 = q5 * h + b5,", "zeta1, y1, y2 = q5 * h + b4,"),
    Mutant("the memo reuses t = 0", SIM,
           "if t != memo[0] or not t:", "if t != memo[0]:"),
    Mutant("k0_1 without its phi0_dot term", SIM,
           "(phi0_dot * e0 + phi0 * e0_1)", "(phi0 * e0_1)"),
    Mutant("the kernel's disturbance sign flipped", SIM,
           "amp1 * sin(freq1 * t) + amp2 * cos(freq2 * t))",
           "-(amp1 * sin(freq1 * t) + amp2 * cos(freq2 * t)))"),
    Mutant("tau == 0 hand-off removed", SIM,
           " " * 24 + "if tau == 0.0:\n" + " " * 28 + "return None\n", ""),
    Mutant("_error_norm's NaN-passing max as max(a, b)", RK45,
           "(a if a >= b or a != a else b)", "max(a, b)", (TIER1,)),
    Mutant("spline index clamped to last - 1", SIM,
           "i = last\n", "i = last - 1\n",
           equivalent="a not-a-knot spline's last two pieces are one cubic"),
    Mutant("level-0 gate as abs(pe) >= 1.0", SIM,
           "if not abs(pe) < 1.0:  # a NaN too", "if abs(pe) >= 1.0:",
           equivalent="a NaN still stops at level 1 and goes to the layers"),
    Mutant("dense output without min(1.0, theta)", RK45,
           "theta = min(1.0, (t_emit - t) / h)", "theta = (t_emit - t) / h", (TIER1,)),
    Mutant("formed as base + h * increment", RK45,
           "v = increment * h  # one temporary: the sum rounds in place\n    v += base\n",
           "v = base + h * increment\n",
           equivalent="IEEE * and + commute"),
    Mutant("the hand-off formed from base alone", SIM,
           "self.evaluate(t, rk45.formed(state).tolist())",
           "self.evaluate(t, list(state[2]) if type(state) is tuple else state.tolist())"),
    Mutant("the np.where hand-off", SIM,
           "self.evaluate(t, rk45.formed(state).tolist())",
           "self.evaluate(t, (np.where(state[0] == 0, state[2], state[0] * state[1] + state[2])"
           " if type(state) is tuple else state).tolist())"),
    Mutant("a lin kernel that returns None past 0.3 s", SIM,
           "            if record is None:\n",
           "            if record is None:\n"
           "                if not observer and t > 0.3:\n"
           "                    return None\n"),
    Mutant("the record route's d(t) with its sign flipped", SIM,
           "dist = record.u, record.y_new, disturbance(cfg.disturbance, t)",
           "dist = record.u, record.y_new, -disturbance(cfg.disturbance, t)"),
    Mutant("u read from e2", SIM,
           "u, y_new, dist = record.u,", "u, y_new, dist = record.e2,"),
]


def check_texts():
    """Exit unless every mutant's ``old`` text is in its file exactly once."""
    for m in MUTANTS:
        found = (ROOT / m.file).read_text().count(m.old)
        if found != 1:
            sys.exit(f"mutant {m.name!r}: its old text is in {m.file} {found} times, not once")


def fresh_copy(parent: pathlib.Path) -> pathlib.Path:
    """A new copy of what the tests read, without caches, under ``parent``."""
    tree = pathlib.Path(tempfile.mkdtemp(dir=parent))
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, tree / name, ignore=ignore)
        else:
            shutil.copy2(src, tree / name)
    return tree


def run(tree: pathlib.Path, selection: tuple) -> tuple[int, str, float]:
    """pytest's exit code, the first failing test and the wall time of one
    selection run with ``-x`` on ``tree``, whose ``src`` alone is imported."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
                           "-p", "no:cacheprovider", *selection],
                          cwd=tree, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode not in (0, 1):  # interrupted, internal or usage error, or no test
        sys.exit(f"pytest exited {proc.returncode} on {selection[0]}:\n{proc.stdout}{proc.stderr}")
    failed = [line.split(" - ")[0].split(" ", 1)[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode, failed[0] if failed else "", elapsed


def main() -> int:
    check_texts()
    selections = list(dict.fromkeys(s for m in MUTANTS for s in m.selection))
    with tempfile.TemporaryDirectory() as scratch:
        scratch = pathlib.Path(scratch)
        tree = fresh_copy(scratch)
        for selection in selections:
            code, test, elapsed = run(tree, selection)
            print(f"unmutated: {SELECTION_NAMES[selection]} {'passed' if code == 0 else 'FAILED'}"
                  f" in {elapsed:.1f} s", flush=True)
            if code:
                sys.exit(f"the unmutated copy fails {test}; fix it before running the bank")
        shutil.rmtree(tree)

        print("\n| mutant | outcome | selection | killing test | time |")
        print("|--------|---------|-----------|--------------|------|", flush=True)
        faults = 0
        for m in MUTANTS:
            tree = fresh_copy(scratch)
            path = tree / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            total, killer, killed_by = 0.0, "", "—"
            for selection in m.selection:
                code, killer, elapsed = run(tree, selection)
                total += elapsed
                if code:
                    killed_by = SELECTION_NAMES[selection]
                    break
            shutil.rmtree(tree)
            if code:
                outcome = "killed" + (" (marked equivalent!)" if m.equivalent else "")
            else:
                outcome = f"survived, equivalent: {m.equivalent}" if m.equivalent else "SURVIVED"
            faults += bool(code) == bool(m.equivalent)
            print(f"| {m.name} | {outcome} | {killed_by} | {killer or '—'} | {total:.1f} s |",
                  flush=True)
    print(f"\n{faults} unexpected outcome(s)" if faults else "\nevery mutant as expected")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
