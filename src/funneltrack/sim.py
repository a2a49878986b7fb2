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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rk45
from .errors import (ConfigError, DomainError, FunnelViolation,
                     IntegrationError, require_finite)
from .funnel import CascadeOutput, FunnelSpec, control_law, observer_rhs, phi_eval
from .linid import LinData, eigensplit, psi
from .model import (DOMAIN_COS_LIMIT, ManipulatorParams, PlantState,
                    accelerations, output)
from .reference import BoundedReference, NewRefConfig, TransitionRef, yref_eval

SAMPLE_STEP = 1e-3

BASE_COLUMNS = ("t", "alpha", "beta", "alpha_dot", "beta_dot", "y", "y_ref",
                "y_bar_ref", "y_new", "e0", "e1", "e2", "k0", "k1", "k2", "u")
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
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ConfigError("integrator tolerances must be positive")
        if not 0 < self.min_step < self.max_step:  # > 0 also ends guard bisection
            raise ConfigError(f"need 0 < min_step < max_step, got {self.min_step}, {self.max_step}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one closed-loop run."""

    params: ManipulatorParams = ManipulatorParams()
    x0: PlantState = PlantState()
    ref: TransitionRef = TransitionRef()
    funnels: tuple = (FunnelSpec(1.5, 0.8, 0.001),
                      FunnelSpec(1.5, 0.8, 0.001),
                      FunnelSpec(60.0, 0.2, 0.001))
    mode: str = "lin"
    observer_gains: tuple = (1e2, 1e5, 1e6)
    disturbance: DisturbanceSpec = DisturbanceSpec()
    t_end: float = 3.0
    integrator: IntegratorConfig = IntegratorConfig()

    def __post_init__(self):
        require_finite(self)
        if self.mode not in ("lin", "hg"):
            raise ConfigError(f"mode must be 'lin' or 'hg', got {self.mode!r}")
        if self.t_end <= 0:
            raise ConfigError(f"t_end must be positive, got {self.t_end}")
        if len(self.funnels) != 3:
            raise ConfigError("exactly three funnel functions are required")
        if len(self.observer_gains) != 3:
            raise ConfigError("observer_gains must have three entries")
        if self.params.s != self.params.l:
            raise ConfigError("the feedback laws assume end-effector tracking (s = l)")

    def to_dict(self) -> dict:
        return {
            "params": dataclasses.asdict(self.params),
            "x0": dataclasses.asdict(self.x0),
            "ref": dataclasses.asdict(self.ref),
            "funnels": [dataclasses.asdict(f) for f in self.funnels],
            "mode": self.mode,
            "observer_gains": list(self.observer_gains),
            "disturbance": dataclasses.asdict(self.disturbance),
            "t_end": self.t_end,
            "integrator": dataclasses.asdict(self.integrator),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        try:
            kwargs = {}
            if "params" in data:
                kwargs["params"] = ManipulatorParams(**data["params"])
            if "x0" in data:
                kwargs["x0"] = PlantState(**data["x0"])
            if "ref" in data:
                kwargs["ref"] = TransitionRef(**data["ref"])
            if "funnels" in data:
                kwargs["funnels"] = tuple(FunnelSpec(**f) for f in data["funnels"])
            if "mode" in data:
                kwargs["mode"] = data["mode"]
            if "observer_gains" in data:
                kwargs["observer_gains"] = tuple(float(g) for g in data["observer_gains"])
            if "disturbance" in data:
                kwargs["disturbance"] = DisturbanceSpec(**data["disturbance"])
            if "t_end" in data:
                kwargs["t_end"] = float(data["t_end"])
            if "integrator" in data:
                kwargs["integrator"] = IntegratorConfig(**data["integrator"])
            unknown = set(data) - {"params", "x0", "ref", "funnels", "mode",
                                   "observer_gains", "disturbance", "t_end", "integrator"}
            if unknown:
                raise ConfigError(f"unknown config fields: {sorted(unknown)}")
            return cls(**kwargs)
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
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.data:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


class ClosedLoop:
    """Assembled plant + controller right-hand side for one scenario."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.params = cfg.params
        self.lin: LinData = eigensplit(cfg.params)
        self.new_ref = BoundedReference(
            NewRefConfig(lambda2=self.lin.lambda2, p2=self.lin.p2), cfg.ref)
        self.observer = cfg.mode == "hg"
        self.columns = BASE_COLUMNS + (OBSERVER_COLUMNS if self.observer else ())
        self.specs = cfg.funnels
        self.gains = cfg.observer_gains
        self.dist = cfg.disturbance

    def initial_state(self) -> np.ndarray:
        x0 = self.cfg.x0.as_array()
        if self.observer:
            return np.concatenate([x0, [psi(self.params, self.lin, x0), 0.0, 0.0]])
        return x0

    def evaluate(self, t: float, state: np.ndarray) -> tuple[list, CascadeOutput, float]:
        """State derivative, cascade output and y_new at (t, state), in one pass.

        Raises DomainError outside cos(beta) > 2/3 and FunnelViolation
        once an error reaches its funnel boundary.
        """
        # Python floats: the same values, but numpy scalars are several times slower
        t = float(t)
        xs = state.tolist()
        x2, x3, x4 = xs[1], xs[2], xs[3]
        cb = math.cos(x2)
        if cb <= DOMAIN_COS_LIMIT:
            raise DomainError(
                f"beta = {x2:.6f} left the admissible region at t = {t:.6f}",
                t=t, state=state.copy())
        zeta = xs[4:] if self.observer else None
        out, y_new = control_law(self.params, self.lin, self.specs, self.new_ref,
                                 t, xs, zeta, cb)
        u_d = out.u + disturbance(self.dist, t)
        deriv = [x3, x4, *accelerations(self.params, cb, math.sin(x2), x2, x3, x4, u_d)]
        if zeta is not None:
            deriv.extend(observer_rhs(self.gains, zeta, y_new))
        return deriv, out, y_new

    def rhs(self, t: float, state: np.ndarray) -> np.ndarray:
        return np.array(self.evaluate(t, state)[0])

    def margins(self, t: float, state: np.ndarray) -> tuple[float, float, float]:
        """Funnel margins phi_i |e_i| at (t, state); raises like ``rhs``."""
        out = self.evaluate(t, state)[1]
        return tuple(phi_eval(spec, t)[0] * abs(e)
                     for spec, e in zip(self.specs, (out.e0, out.e1, out.e2)))

    def row(self, t: float, state: np.ndarray) -> list:
        """One output sample (re-evaluates the closed loop at the state)."""
        _, out, y_new = self.evaluate(t, state)
        xs = state.tolist()
        y, _ = output(self.params, xs)
        return [t, *xs[:4], y, yref_eval(self.cfg.ref, t)[0], self.new_ref.value(t), y_new,
                out.e0, out.e1, out.e2, out.k0, out.k1, out.k2, out.u, *xs[4:]]


def integrate(cfg: ScenarioConfig) -> Trajectory:
    """Run one scenario and sample it on the uniform output grid."""
    loop = ClosedLoop(cfg)
    y0 = loop.initial_state()
    loop.evaluate(0.0, y0)  # initial funnel feasibility / domain check
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
    y_final = float(traj["y"][-1])
    return {
        "mode": cfg.mode,
        "y_final": y_final,
        "final_tracking_error": abs(y_final - yref_eval(cfg.ref, traj.t[-1])[0]),
        "max_abs_u": float(np.max(np.abs(traj["u"]))),
        "max_abs_beta": float(np.max(np.abs(traj["beta"]))),
        "max_funnel_margin_e0": float(np.max(margins[:, 0])),
        "max_funnel_margins": [float(np.max(margins[:, j])) for j in range(3)],
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
    """Return a config with one (possibly nested) numeric field replaced."""
    data = cfg.to_dict()
    node = data
    parts = dotted.split(".")
    for part in parts[:-1]:
        if part not in node:
            raise ConfigError(f"unknown sweep field {dotted!r}")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown sweep field {dotted!r}")
    node[leaf] = value
    return ScenarioConfig.from_dict(data)


def _sweep_worker(args):
    cfg_dict, dotted, value = args
    cfg = _replace_field(ScenarioConfig.from_dict(cfg_dict), dotted, value)
    try:
        traj = integrate(cfg)
        summary = summarize(cfg, traj)
        summary.update({"value": value, "status": "ok"})
    except (FunnelViolation, DomainError, IntegrationError) as exc:
        summary = {"value": value, "status": type(exc).__name__, "detail": str(exc)}
    return summary


def run_sweep(cfg: ScenarioConfig, dotted_field: str, start: float, stop: float,
              n: int, parallel: bool = True) -> list[dict]:
    """Run ``n`` scenarios with ``dotted_field`` varied linearly."""
    if n < 1:
        raise ConfigError("sweep needs at least one point")
    _replace_field(cfg, dotted_field, start)  # validate the field path early
    values = np.linspace(start, stop, n)
    jobs = [(cfg.to_dict(), dotted_field, float(v)) for v in values]
    if parallel and n > 1:
        with ProcessPoolExecutor() as pool:
            return list(pool.map(_sweep_worker, jobs))
    return [_sweep_worker(job) for job in jobs]
