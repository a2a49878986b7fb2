"""Spans and counts around the public functions of each funneltrack module.

``install`` wraps every public function and public method of the layer
modules and rebinds each wrapper wherever a module holds the original, so
``psi`` is traced whether ``linid``, ``funnel`` or ``sim`` calls it.
``Installation.restore`` puts every binding back.  Spans stay in memory:
each span name keeps its call count, failures, inclusive time and self
time.
"""
import dataclasses
import functools
import importlib
import inspect
import json
import re
import sys
import time

LAYERS = ("model", "bif", "linid", "reference", "funnel", "rk45", "sim", "cli")
MARK = "perfbench_span"

# per-layer metric -> span it reads
SPANS = {
    "reference.build": "reference.BoundedReference.__init__",
    "reference.yref": "reference.yref_eval",
    "reference.eval": "reference.BoundedReference.eval",
    "rk45.solve": "rk45.solve",
    "sim.rhs": "sim.ClosedLoop.rhs",
    "sim.row": "sim.ClosedLoop.row",
    "sim.summarize": "sim.summarize",
    "sim.csv": "sim.Trajectory.write_csv",
    "sim.json": "json.dump",
    "funnel.cascade": "funnel.cascade",
    "funnel.margins": "funnel.cascade_margins",
    "funnel.observer": "funnel.observer_rhs",
    "linid.eigensplit": "linid.eigensplit",
    "linid.psi": "linid.psi",
    "linid.ladder": "linid.ynew_derivatives",
    "bif.phi_forward": "bif.phi_forward",
    "model.plant_rhs": "model.plant_rhs",
    "cli.main": "cli.main",
}
SOLVER_COUNTS = ("nfev", "naccept", "nreject", "nguard")


class Tracer:
    """Nested spans on one thread, aggregated per name.

    Children of a span run inside it and one after another, so the time
    they cover is the sum of their durations and a span's self time is its
    duration minus that sum.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # name -> [calls, failed calls, inclusive s, self s]
        self.solver = dict.fromkeys(SOLVER_COUNTS, 0)
        self._open = []  # [name, start, child s]

    def enter(self, name):
        self._open.append([name, self.clock(), 0.0])

    def exit(self, failed=False):
        end = self.clock()
        name, start, child = self._open.pop()
        duration = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0.0, 0.0]
        st[0] += 1
        st[1] += bool(failed)
        st[2] += duration
        st[3] += duration - child
        if self._open:
            self._open[-1][2] += duration


def _traced(tracer, name, fn):
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            leave(True)
            raise
        leave(False)
        return result

    setattr(wrapper, MARK, name)
    return wrapper


def _solver_hooks(tracer, solve, error_norm):
    """Count solver work from the right-hand-side calls, guard exceptions and
    error norms seen during each solve.

    A solve that raises returns no ``SolveResult``, so the counts come from
    these hooks whether it returns or raises: both end the same way.  An
    error norm <= 1 is an accepted step and any other a rejected one, as in
    ``rk45.solve``.
    """
    counts = tracer.solver

    def counted_norm(*args, **kwargs):
        err = error_norm(*args, **kwargs)
        counts["naccept" if err <= 1.0 else "nreject"] += 1
        return err

    def counted_solve(f, *args, **kwargs):
        guards = tuple(kwargs.get("guards", ()))

        def counted_f(t, y):
            counts["nfev"] += 1
            try:
                return f(t, y)
            except guards:
                counts["nguard"] += 1
                raise

        return solve(counted_f, *args, **kwargs)

    for hook in (counted_norm, counted_solve):
        setattr(hook, MARK, "rk45.counts")
    return counted_solve, counted_norm


def _package_modules(package):
    prefix = package.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package.__name__ or name.startswith(prefix))]


def _member_targets(cls):
    """(attribute, member) of the public methods of a class, plus a hand-written
    ``__init__`` (dataclass initialisers only store fields)."""
    for attr, member in vars(cls).items():
        if attr.startswith("_") and (attr != "__init__" or dataclasses.is_dataclass(cls)):
            continue
        if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
            yield attr, member


def _wrap_member(tracer, name, member):
    if isinstance(member, (classmethod, staticmethod)):
        return type(member)(_traced(tracer, name, member.__func__))
    return _traced(tracer, name, member)


class Installation:
    """The bindings an ``install`` replaced, so they can be put back."""

    def __init__(self, package):
        self.package = package
        self.patched = []  # (owner, attribute, original), in patch order

    def replace(self, owner, attr, value):
        self.patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def rebind(self, original, replacement):
        """Point every module-level binding of ``original`` at ``replacement``."""
        for module in _package_modules(self.package):
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, attr, replacement)

    def restore(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def leftovers(self) -> list:
        """Bindings that still hold a wrapper; empty after ``restore``."""
        first = {}  # a binding patched twice must be back at its first original
        for owner, attr, original in self.patched:
            first.setdefault((id(owner), attr), (owner, attr, original))
        found = [f"{owner.__name__}.{attr}" for owner, attr, original in first.values()
                 if vars(owner)[attr] is not original]
        for module in _package_modules(self.package):
            owners = [module] + [c for c in vars(module).values() if inspect.isclass(c)]
            for owner in owners:
                for attr, value in vars(owner).items():
                    fn = getattr(value, "__func__", value)
                    if getattr(fn, MARK, None) is not None:
                        found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return sorted(set(found))


def install(tracer, package) -> Installation:
    """Wrap the public functions and methods of the layer modules of ``package``."""
    inst = Installation(package)
    # import every layer first, so that no module binds a wrapper on import
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
    for layer, module in modules.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                inst.rebind(obj, _traced(tracer, f"{layer}.{name}", obj))
            elif inspect.isclass(obj):
                for attr, member in list(_member_targets(obj)):
                    inst.replace(obj, attr, _wrap_member(tracer, f"{layer}.{name}.{attr}", member))
    rk45 = modules["rk45"]
    counted_solve, counted_norm = _solver_hooks(tracer, rk45.solve, rk45._error_norm)
    inst.rebind(rk45.solve, counted_solve)
    inst.rebind(rk45._error_norm, counted_norm)
    # ``sweep`` writes its output with json.dump, ``simulate`` with write_csv
    inst.replace(json, "dump", _traced(tracer, SPANS["sim.json"], json.dump))
    return inst


def layer_metrics(tracer: Tracer, wall: float, output_bytes: int, statuses: list,
                  violations: tuple) -> dict:
    """Per-layer metric name -> value, from one traced iteration.

    ``wall`` is the iteration's traced wall time, ``output_bytes`` the size
    of the file the CLI wrote, ``statuses`` the status of each sweep point and
    ``violations`` the statuses that count as funnel or domain violations.
    """
    stats, solver = tracer.stats, tracer.solver

    def calls(key):
        return stats.get(SPANS[key], (0, 0, 0.0, 0.0))[0]

    def total(key):
        return stats.get(SPANS[key], (0, 0, 0.0, 0.0))[2]

    def self_s(key):
        return stats.get(SPANS[key], (0, 0, 0.0, 0.0))[3]

    def per_call_us(seconds, key):
        return 1e6 * seconds / calls(key) if calls(key) else 0.0

    attempts = solver["naccept"] + solver["nreject"] + solver["nguard"]
    # the wall clock times the cli.main call itself, so only the spans below it count
    below_cli = total("cli.main") - self_s("cli.main")
    return {
        "reference.build.s": total("reference.build"),
        "reference.build.calls": calls("reference.build"),
        "reference.yref.calls": calls("reference.yref"),
        "reference.eval.calls": calls("reference.eval"),
        "reference.eval.us": per_call_us(total("reference.eval"), "reference.eval"),
        "rk45.solve.s": total("rk45.solve"),
        "rk45.self.s": self_s("rk45.solve"),
        **{f"rk45.{key}": solver[key] for key in SOLVER_COUNTS},
        "rk45.accept_ratio": solver["naccept"] / attempts if attempts else 0.0,
        "sim.rhs.calls": calls("sim.rhs"),
        "sim.rhs.self_us": per_call_us(self_s("sim.rhs"), "sim.rhs"),
        "sim.row.calls": calls("sim.row"),
        "sim.resample.s": total("sim.row"),
        "sim.summarize.s": total("sim.summarize"),
        "sim.output.s": total("sim.csv") + total("sim.json"),
        "sim.output.bytes": output_bytes,
        "sim.sweep.ok": sum(s == "ok" for s in statuses),
        "sim.sweep.violation": sum(s in violations for s in statuses),
        "funnel.cascade.calls": calls("funnel.cascade"),
        "funnel.cascade.us": per_call_us(total("funnel.cascade"), "funnel.cascade"),
        "funnel.margins.calls": calls("funnel.margins"),
        "funnel.observer.calls": calls("funnel.observer"),
        "linid.eigensplit.s": total("linid.eigensplit"),
        "linid.psi.calls": calls("linid.psi"),
        "linid.psi.us": per_call_us(total("linid.psi"), "linid.psi"),
        "linid.ladder.calls": calls("linid.ladder"),
        "linid.psi_per_rhs": calls("linid.psi") / calls("sim.rhs") if calls("sim.rhs") else 0.0,
        "bif.phi_forward.calls": calls("bif.phi_forward"),
        "bif.phi_forward.us": per_call_us(total("bif.phi_forward"), "bif.phi_forward"),
        "model.plant_rhs.calls": calls("model.plant_rhs"),
        "model.plant_rhs.us": per_call_us(total("model.plant_rhs"), "model.plant_rhs"),
        "cli.self.s": self_s("cli.main"),
        "trace.uncovered_share": max(0.0, wall - below_cli) / wall,
    }


IMPORT_GROUPS = ("funneltrack", "numpy", "scipy", "other")
_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)\s*$")


def import_seconds(stderr: str) -> dict:
    """Self import time by top-level package, from ``python -X importtime``."""
    out = dict.fromkeys(IMPORT_GROUPS, 0.0)
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            root = match.group(2).split(".")[0]
            out[root if root in out else "other"] += int(match.group(1)) * 1e-6
    return out
