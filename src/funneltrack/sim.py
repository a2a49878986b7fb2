"""Closed-loop simulation harness, scenario configuration and CSV output.

A scenario couples the plant with one of the two feedback laws, an
additive torque disturbance, and the bounded auxiliary reference (which
is evaluated, never integrated forward).  Integration uses the guarded
adaptive Runge-Kutta pair from :mod:`.rk45`; trial steps that cross a
funnel boundary or leave the admissible region are bisected and, if the
violation persists below the minimum step, reported with the offending
time and state.  The whole pipeline is deterministic: identical
configurations produce bit-identical CSV files.
"""
import dataclasses
import json
import math
import os
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rk45
from .errors import (ConfigError, DomainError, FunnelViolation,
                     IntegrationError, SimulationError, require_finite)
from .funnel import (CascadeOutput, FunnelSpec, cascade, observer_derivatives,
                     observer_rhs, phi_eval)
from .linid import LinData, eigensplit, psi, ynew_derivatives
from .model import (DOMAIN_COS_LIMIT, ManipulatorParams, PlantState,
                    accelerations, output)
from .reference import BoundedReference, TransitionRef, yref_eval

SAMPLE_STEP = 1e-3

BASE_COLUMNS = ("t", "alpha", "beta", "alpha_dot", "beta_dot", "y", "y_ref",
                *CascadeOutput._fields)
OBSERVER_COLUMNS = ("zeta1", "zeta2", "zeta3")
# rk45.SolveResult step statistics kept on a Trajectory and in its summary
SOLVER_STATS = ("nfev", "naccept", "nreject", "nguard")


@dataclass(frozen=True)
class DisturbanceSpec:
    """Additive torque disturbance amp1*sin(freq1 t) + amp2*cos(freq2 t)."""

    amp1: float = 0.0
    freq1: float = 0.0
    amp2: float = 0.0
    freq2: float = 0.0

    def __post_init__(self):
        require_finite(self)


def disturbance(spec: DisturbanceSpec, t: float) -> float:
    return spec.amp1 * math.sin(spec.freq1 * t) + spec.amp2 * math.cos(spec.freq2 * t)


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = 0.05
    min_step: float = 1e-12

    def __post_init__(self):
        require_finite(self)
        rk45.check_tolerances(self.rel_tol, self.abs_tol, ConfigError)
        if not 0 < self.min_step < self.max_step:  # > 0 also ends guard bisection
            raise ConfigError(f"need 0 < min_step < max_step, got {self.min_step}, {self.max_step}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one closed-loop run.

    The field annotations are the JSON schema: ``from_dict`` builds each
    field from its annotated type.
    """

    params: ManipulatorParams = ManipulatorParams()
    x0: PlantState = PlantState()
    ref: TransitionRef = TransitionRef()
    funnels: tuple[FunnelSpec, ...] = (FunnelSpec(1.5, 0.8, 0.001),
                                       FunnelSpec(1.5, 0.8, 0.001),
                                       FunnelSpec(60.0, 0.2, 0.001))
    mode: str = "lin"
    observer_gains: tuple[float, ...] = (1e2, 1e5, 1e6)
    disturbance: DisturbanceSpec = DisturbanceSpec()
    t_end: float = 3.0
    integrator: IntegratorConfig = IntegratorConfig()

    def __post_init__(self):
        require_finite(self)
        if self.params.c <= 0:  # the model allows c = 0, the hyperbolic split does not
            raise ConfigError(f"params.c must be > 0 for the hyperbolic split, got {self.params.c}")
        if self.mode not in ("lin", "hg"):
            raise ConfigError(f"mode must be 'lin' or 'hg', got {self.mode!r}")
        if self.t_end <= 0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if len(self.funnels) != 3:
            raise ConfigError("exactly three funnel functions are required")
        if len(self.observer_gains) != 3:
            raise ConfigError("observer_gains must have three entries")

    def to_dict(self) -> dict:
        """JSON form: nested dicts in field order, tuples as lists."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in dataclasses.asdict(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            return cls(**{k: _from_json(types[k], v) for k, v in data.items()})
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:  # e.g. a string where a number belongs
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_json_file(cls, path) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be a JSON object, got {type(data).__name__}")
        return cls.from_dict(data)

    def write_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def _from_json(tp, value):
    """A value of field type ``tp`` built from its ``to_dict`` form."""
    if dataclasses.is_dataclass(tp):
        return tp(**value)
    if typing.get_origin(tp) is tuple:
        return tuple(_from_json(typing.get_args(tp)[0], v) for v in value)
    return value


def case_study_config(mode: str = "lin", disturbed: bool = True) -> ScenarioConfig:
    """The case-study scenario: rest-to-rest transition 0 -> pi/4 in 3 s."""
    dist = DisturbanceSpec(0.1, 5.0, 0.2, 8.0) if disturbed else DisturbanceSpec()
    return ScenarioConfig(ref=TransitionRef(0.0, math.pi / 4, 0.0, 3.0),
                          mode=mode, disturbance=dist)


@dataclass
class Trajectory:
    """Uniformly sampled closed-loop time series."""

    columns: tuple
    data: np.ndarray  # shape (n_samples, n_columns)
    solver: dict  # SOLVER_STATS of the solve

    def __getitem__(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    @property
    def t(self) -> np.ndarray:
        return self["t"]

    def funnel_margins(self, funnels) -> np.ndarray:
        """phi_i(t) * |e_i(t)| for i = 0, 1, 2, shape (n, 3)."""
        out = np.empty((len(self.t), 3))
        for j, (spec, col) in enumerate(zip(funnels, ("e0", "e1", "e2"))):
            phis = np.array([phi_eval(spec, t)[0] for t in self.t])
            out[:, j] = phis * np.abs(self[col])
        return out

    def write_csv(self, path):
        fmt = ",".join(["%.17g"] * len(self.columns)) + "\n"
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(self.columns) + "\n")
            fh.writelines(fmt % tuple(row) for row in self.data.tolist())


class ClosedLoop:
    """Assembled plant + controller right-hand side for one scenario."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.params = cfg.params
        self.lin: LinData = eigensplit(cfg.params)
        self.new_ref = BoundedReference(self.lin, cfg.ref)
        self.observer = cfg.mode == "hg"
        # the one place the variants differ: where y_new's derivatives come from
        self.derivatives = observer_derivatives if self.observer else ynew_derivatives
        self.columns = BASE_COLUMNS + (OBSERVER_COLUMNS if self.observer else ())
        self.specs = cfg.funnels
        self.gains = cfg.observer_gains
        self.dist = cfg.disturbance

    def initial_state(self) -> np.ndarray:
        x0 = self.cfg.x0.as_array()
        if self.observer:
            return np.concatenate([x0, [psi(self.lin, x0), 0.0, 0.0]])
        return x0

    def evaluate(self, t: float, state: np.ndarray) -> tuple[list, CascadeOutput]:
        """State derivative and controller record at (t, state), in one pass.

        The derivative source and the plant take the state list whole.  Raises
        DomainError, with t and the state, outside cos(beta) > 2/3, and
        FunnelViolation once an error reaches its funnel boundary.
        """
        # Python floats: the same values, but numpy scalars are several times slower
        t = float(t)
        xs = state.tolist()
        if math.cos(xs[1]) <= DOMAIN_COS_LIMIT:
            raise DomainError(
                f"beta = {xs[1]:.6f} left the admissible region at t = {t:.6f}",
                t=t, state=state.copy())
        y_new, y1, y2 = self.derivatives(self.lin, xs)
        out = cascade(self.specs, t, y_new, y1, y2, *self.new_ref.eval(t))
        u_d = out.u + disturbance(self.dist, t)
        deriv = [xs[2], xs[3], *accelerations(self.params, xs, u_d)]
        if self.observer:
            deriv.extend(observer_rhs(self.gains, xs[4:], out.y_new))
        return deriv, out

    def rhs(self, t: float, state: np.ndarray) -> np.ndarray:
        return np.array(self.evaluate(t, state)[0])

    def margins(self, t: float, state: np.ndarray) -> tuple[float, float, float]:
        """Funnel margins phi_i |e_i| at (t, state); raises like ``rhs``."""
        out = self.evaluate(t, state)[1]
        return tuple(phi_eval(spec, t)[0] * abs(e)
                     for spec, e in zip(self.specs, (out.e0, out.e1, out.e2)))

    def row(self, t: float, state: np.ndarray) -> list:
        """One output sample (re-evaluates the closed loop at the state)."""
        out = self.evaluate(t, state)[1]
        xs = state.tolist()
        return [t, *xs[:4], output(xs)[0], yref_eval(self.cfg.ref, t)[0], *out, *xs[4:]]


def integrate(cfg: ScenarioConfig) -> Trajectory:
    """Run one scenario and sample it on the uniform output grid."""
    loop = ClosedLoop(cfg)
    y0 = loop.initial_state()
    intg = cfg.integrator
    try:
        result = rk45.solve(loop.rhs, (0.0, cfg.t_end), y0,
                            rel_tol=intg.rel_tol, abs_tol=intg.abs_tol,
                            max_step=intg.max_step, min_step=intg.min_step,
                            sample_step=SAMPLE_STEP,
                            guards=(FunnelViolation, DomainError))
    except IntegrationError as exc:
        # near a funnel wall the gains blow up and the step size underflows
        # before any evaluation crosses; report that as the violation it is
        if exc.state is not None:
            margins = loop.margins(exc.t, exc.state)
            if max(margins) >= 0.99:
                level = int(np.argmax(margins))
                raise FunnelViolation(
                    f"integration pinned against funnel {level} at t = {exc.t:.6f} "
                    f"(margins {margins[0]:.6f}, {margins[1]:.6f}, {margins[2]:.6f})",
                    t=exc.t, level=level, state=exc.state) from exc
        raise
    rows = [loop.row(t, state) for t, state in zip(result.t, result.y)]
    data = np.array(rows)
    if not np.all(np.isfinite(data)):
        raise FunnelViolation("non-finite values in sampled trajectory", t=float(result.t[-1]))
    return Trajectory(columns=loop.columns, data=data,
                      solver={k: getattr(result, k) for k in SOLVER_STATS})


def summarize(cfg: ScenarioConfig, traj: Trajectory) -> dict:
    """Scalar diagnostics of a completed run."""
    margins = traj.funnel_margins(cfg.funnels)
    worst = np.argmax(margins, axis=0)  # per funnel; a NaN counts as the worst
    y_final = float(traj["y"][-1])
    return {
        "mode": cfg.mode,
        "y_final": y_final,
        "final_tracking_error": abs(y_final - yref_eval(cfg.ref, traj.t[-1])[0]),
        "max_abs_u": float(np.max(np.abs(traj["u"]))),
        "max_abs_beta": float(np.max(np.abs(traj["beta"]))),
        "max_funnel_margins": [float(margins[i, j]) for j, i in enumerate(worst)],
        "max_funnel_margin_times": [float(traj.t[i]) for i in worst],
        "funnel_invariant": bool(np.all(margins < 1.0)),
        "solver": dict(traj.solver),
    }


def run_case_study(out_dir=".", disturbed: bool = True) -> tuple[Trajectory, Trajectory, dict]:
    """Run both controller variants on the case-study scenario.

    Writes ``lin.csv``, ``hg.csv`` and ``summary.json`` into ``out_dir``
    and returns the two trajectories plus the summary dictionary.
    """
    cfg_lin = case_study_config("lin", disturbed)
    cfg_hg = case_study_config("hg", disturbed)
    traj_lin = integrate(cfg_lin)
    traj_hg = integrate(cfg_hg)

    mask = traj_lin.t >= 0.5
    u_gap = float(np.max(np.abs(traj_lin["u"][mask] - traj_hg["u"][mask])))
    summary = {
        "lin": summarize(cfg_lin, traj_lin),
        "hg": summarize(cfg_hg, traj_hg),
        "sup_u_difference_after_0p5s": u_gap,
        "y_final_difference": abs(float(traj_lin["y"][-1]) - float(traj_hg["y"][-1])),
        "disturbed": disturbed,
    }
    os.makedirs(out_dir, exist_ok=True)
    traj_lin.write_csv(os.path.join(out_dir, "lin.csv"))
    traj_hg.write_csv(os.path.join(out_dir, "hg.csv"))
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return traj_lin, traj_hg, summary


def _replace_field(cfg: ScenarioConfig, dotted: str, value: float) -> ScenarioConfig:
    """Return a validated config with the ``to_dict`` leaf at ``dotted`` replaced.

    Each part of the path is a dict key or a list index, e.g. ``funnels.2.eps``.
    """
    data = node = cfg.to_dict()
    try:
        for part in dotted.split("."):
            key = int(part) if isinstance(node, list) and part.isdecimal() else part
            parent, node = node, node[key]
    except (KeyError, IndexError, TypeError):
        raise ConfigError(f"unknown sweep field {dotted!r}") from None
    parent[key] = value
    return ScenarioConfig.from_dict(data)


def _sweep_worker(job):
    value, cfg = job
    try:
        traj = integrate(cfg)
        summary = summarize(cfg, traj)
        summary.update({"value": value, "status": "ok"})
    except SimulationError as exc:
        summary = {"value": value, "status": type(exc).__name__, "detail": str(exc),
                   "t": exc.t, "level": exc.level}
    return summary


def run_sweep(cfg: ScenarioConfig, dotted_field: str, start: float, stop: float,
              n: int, parallel: bool = True) -> list[dict]:
    """Run ``n`` scenarios with ``dotted_field`` varied linearly.

    Every point's config is built and validated before any point runs.
    """
    if n < 1:
        raise ConfigError("sweep needs at least one point")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"sweep range must be finite, got {start}:{stop}")
    jobs = [(float(v), _replace_field(cfg, dotted_field, float(v)))
            for v in np.linspace(start, stop, n)]
    if parallel and n > 1:
        with ProcessPoolExecutor() as pool:
            return list(pool.map(_sweep_worker, jobs))
    return [_sweep_worker(job) for job in jobs]
