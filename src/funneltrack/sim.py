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
import functools
import json
import math
import os
import typing
from dataclasses import dataclass
from math import cos, exp, sin

import numpy as np

from . import rk45
from .errors import (ConfigError, FunnelViolation, IntegrationError,
                     SimulationError, require_finite)
from .funnel import CascadeOutput, FunnelSpec, cascade, cascade_margins, observer_derivatives
from .linid import LinData, eigensplit, psi, ynew_derivatives
from .model import DOMAIN_COS_LIMIT, ManipulatorParams, PlantState, output
from .reference import (SLOPE_COEFFS, TRANSITION_COEFFS, BoundedReference, TransitionRef,
                        yref_eval)

SAMPLE_STEP = 1e-3
# rows per ``%`` in Trajectory.write_csv: few enough that a block's Python
# floats stay small next to the array, enough to amortise the call
_CSV_BLOCK = 256

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
    """``rk45.solve``'s tolerance and step-size keywords, which it takes whole."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = 0.05
    min_step: float = rk45.MIN_STEP

    def __post_init__(self):
        require_finite(self)
        rk45.check_settings(self.rel_tol, self.abs_tol, self.min_step, self.max_step)


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
        eigensplit(self.params)  # ConfigError unless the split is hyperbolic, as c = 0 is not
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
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        # ValueError: a JSONDecodeError, bytes that are not UTF-8 or an int
        # past int()'s digit limit; RecursionError: nesting past the
        # interpreter's limit
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be a JSON object, got {type(data).__name__}")
        return cls.from_dict(data)

    def write_json(self, path):
        dump_json(self.to_dict(), path)


def dump_json(obj, path):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
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

    def write_csv(self, path):
        """The header, then each row's values with ``%.17g``, formatted
        ``_CSV_BLOCK`` rows per ``%`` so that only one block of the array is
        held as Python floats at a time."""
        fmt = ",".join(["%.17g"] * len(self.columns)) + "\n"
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(self.columns) + "\n")
            for i in range(0, len(self.data), _CSV_BLOCK):
                block = self.data[i:i + _CSV_BLOCK]
                fh.write((fmt * len(block)) % tuple(block.ravel().tolist()))


@functools.lru_cache(maxsize=1)
def _split_and_reference(key: str, params: ManipulatorParams,
                         ref: TransitionRef) -> tuple[LinData, BoundedReference]:
    """(eigensplit(params), BoundedReference) of this pair, from a one-entry
    cache, so that a sweep's points that share them build the reference once
    per process.  ``key`` is the repr of ``(params, ref)``, which tells every
    float apart (-0.0 from 0.0 too) where == does not."""
    lin = eigensplit(params)
    return lin, BoundedReference(lin, ref)


class ClosedLoop:
    """Assembled plant + controller right-hand side for one scenario."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.lin, self.new_ref = _split_and_reference(repr((cfg.params, cfg.ref)),
                                                      cfg.params, cfg.ref)
        self.observer = cfg.mode == "hg"
        # the one place the variants differ: where y_new's derivatives come from
        self.derivatives = observer_derivatives if self.observer else ynew_derivatives
        self.columns = BASE_COLUMNS + (OBSERVER_COLUMNS if self.observer else ())
        self._kernel = self._bind_kernel()

    def initial_state(self) -> np.ndarray:
        """x0 and, in ``hg`` mode, the observer at rest on y_new(x0); a start the
        controller rejects raises from ``evaluate``, with the observer at 0."""
        xs = self.cfg.x0.as_array().tolist() + [0.0, 0.0, 0.0] * self.observer
        self.evaluate(0.0, xs)
        if self.observer:
            xs[4] = psi(self.lin, xs)
        return np.array(xs)

    def evaluate(self, t: float, xs: list) -> CascadeOutput:
        """Controller record at time t and closed-loop state ``xs``, which the
        derivative source takes whole: a Python float and a list, or the
        sample times and the states' transpose, one array per state entry.
        It returns the record or raises a controller error (DomainError
        outside cos(beta) > 2/3, FunnelViolation at a funnel boundary), with
        this t and state attached."""
        try:
            return cascade(self.cfg.funnels, t, *self.derivatives(self.lin, xs),
                           *self.new_ref.eval(t))
        except SimulationError as exc:
            exc.t, exc.state = t, np.array(xs)
            raise

    def rhs(self, t: float, state: np.ndarray | tuple) -> list:
        """State derivative, a list of Python floats: the plant under the
        controller's input plus the disturbance and, in ``hg`` mode, the
        observer.  ``state`` is a float64 array, or the stage parts that
        ``rk45.solve(..., stage_parts=True)`` hands over for the state
        ``rk45.formed`` makes of them.  The one kernel of both modes, bound
        at construction (``_bind_kernel``), computes it, forming parts per
        entry by that rule.  Where the kernel returns None, ``evaluate`` hands
        it the controller record of the formed state, or raises the stamped
        controller error, so that the error carries that state's bytes."""
        deriv = self._kernel(t, state)
        if deriv is None:
            deriv = self._kernel(t, state, self.evaluate(t, rk45.formed(state).tolist()))
        return deriv

    def _bind_kernel(self):
        """``rhs`` as one pass of float arithmetic over this scenario's
        constants: one kernel for both modes, taking ``rhs``'s arguments, that
        branches on the mode for the state it unpacks, for y_new's derivatives
        (the observer's estimates in ``hg``, the ladder in ``lin``) and for the
        observer's derivative it appends.

        From ``t_lo`` on and inside every funnel, it performs each operation of
        ``evaluate`` and of the dynamics under its input -- ``psi``, the ladder
        or the observer's estimates, ``BoundedReference.eval`` (on a float copy
        of the spline before tf, its constants from tf on), ``cascade``,
        ``disturbance``, ``model.plant_rhs`` and ``funnel.observer_rhs`` -- on
        the same operands in the same order, and so returns their bits without
        reference calls.  A stage's parts are formed as ``q * h + b`` per
        entry, which rounds as ``rk45.formed`` does.  The kernel keeps the
        terms of t alone (the reference, the funnels' phi and the disturbance)
        of the last t in its one-entry memo for the calls that keep it, as a
        step's last two stages do; t = 0 is never reused, since -0.0 == 0.0.
        Before ``t_lo``, where tau = (t - t0) / (tf - t0) is 0 before tf (at
        t0 or just past it, where y_ref holds y0), and at the layers' guards
        (``not cos(beta) > 2/3``, ``not phi_i |e_i| < 1`` at levels 0, 1 and
        2, a NaN included), it returns None.  Given ``record``, ``evaluate``'s record at this t and
        state, it skips the controller: it takes u and y_new from the record
        and d(t) from ``disturbance``, and computes the dynamics alone.  The
        kernel holds no reference to the loop, so a loop is freed as soon as
        it is dropped.
        """
        cfg, ref = self.cfg, self.cfg.ref
        (a0, b0, eps0), (a1, b1, eps1), (a2, b2, eps2) = [(f.a, f.b, f.eps) for f in cfg.funnels]
        nb0, nb1, nb2 = -b0, -b1, -b2
        w0, w1 = self.lin.unstable_row
        lam2, p2 = self.lin.lambda2, self.lin.p2
        lam2p2 = lam2 * p2
        t0, tf, y0 = ref.t0, ref.tf, ref.y0
        span, dy = tf - t0, ref.yf - y0
        c5, c6, c7, c8, c9 = TRANSITION_COEFFS
        s5, s6, s7, s8, s9 = SLOPE_COEFFS
        bref = self.new_ref
        t_lo, gap, final, last = bref.t_lo, bref.gap, bref.final_value, len(bref.knots) - 2
        knots, coeffs = bref.knots.tolist(), list(zip(*bref.coeffs.tolist()))
        l2m, nc, d = cfg.params.l2m, -cfg.params.c, cfg.params.d
        half_l2m = 0.5 * l2m
        amp1, freq1, amp2, freq2 = dataclasses.astuple(cfg.disturbance)
        g1, g2, g3 = cfg.observer_gains
        observer = self.observer
        memo = (math.nan,)  # the last t and its terms

        def kernel(t, state, record=None):
            nonlocal memo
            if observer:
                if type(state) is tuple:
                    increment, h, (b1, b2, b3, b4, b5, b6, b7) = state
                    q1, q2, q3, q4, q5, q6, q7 = increment.tolist()
                    x1, x2, x3, x4 = q1 * h + b1, q2 * h + b2, q3 * h + b3, q4 * h + b4
                    zeta1, y1, y2 = q5 * h + b5, q6 * h + b6, q7 * h + b7
                else:
                    x1, x2, x3, x4, zeta1, y1, y2 = state.tolist()
            elif type(state) is tuple:
                increment, h, (b1, b2, b3, b4) = state
                q1, q2, q3, q4 = increment.tolist()
                x1, x2, x3, x4 = q1 * h + b1, q2 * h + b2, q3 * h + b3, q4 * h + b4
            else:
                x1, x2, x3, x4 = state.tolist()
            cb = cos(x2)
            if record is None:
                if not cb > DOMAIN_COS_LIMIT:
                    return None
                if t != memo[0] or not t:  # the terms of t alone, once per t
                    if not t >= t_lo:
                        return None
                    if t < tf:  # the bounded reference's spline; y_ref rising through the ladder
                        i = int((t - t_lo) / gap)
                        if i > last:
                            i = last
                        q3, q2, q1, q0 = coeffs[i]
                        dt = t - knots[i]
                        r0 = ((q3 * dt + q2) * dt + q1) * dt + q0
                        tau = (t - t0) / span
                        if tau == 0.0:
                            return None
                        t5 = tau ** 5
                        y_ref = y0 + t5 * ((((c9 * tau + c8) * tau + c7) * tau + c6) * tau
                                           + c5) * dy
                        y_ref_dot = (t5 / tau * ((((s9 * tau + s8) * tau + s7) * tau + s6) * tau
                                                 + s5) * dy / span)
                        r1 = lam2 * r0 + lam2p2 * y_ref
                        r2 = lam2 * r1 + lam2p2 * y_ref_dot
                    else:  # BoundedReference.eval's values from tf on
                        r0, r1, r2 = final, 0.0, 0.0
                    decay = a0 * exp(nb0 * t)
                    phi0 = 1.0 / (decay + eps0)
                    memo = (t, r0, r1, r2, phi0, b0 * decay * phi0 * phi0,
                            1.0 / (a1 * exp(nb1 * t) + eps1), 1.0 / (a2 * exp(nb2 * t) + eps2),
                            amp1 * sin(freq1 * t) + amp2 * cos(freq2 * t))
                _, r0, r1, r2, phi0, phi0_dot, phi1, phi2, dist = memo
                # y_new = psi(x), its derivatives the observer's estimates or the ladder's
                y = x1 + 0.5 * x2
                y_new = w0 * x2 + w1 * ((1.0 / 3.0 + 0.5 * cb) * x3 + x4 / 3.0) - p2 * y
                if not observer:
                    y1 = lam2 * y_new + lam2p2 * y
                    y2 = lam2 * y1 + lam2p2 * (x3 + 0.5 * x4)
                # the cascade, each funnel tested before its gain squares
                e0, e0_1, e0_2 = y_new - r0, y1 - r1, y2 - r2
                pe = phi0 * e0
                if not abs(pe) < 1.0:  # a NaN too
                    return None
                k0 = 1.0 / (1.0 - pe ** 2)
                k0_1 = 2.0 * phi0 * e0 * k0 * k0 * (phi0_dot * e0 + phi0 * e0_1)
                e1 = e0_1 + k0 * e0
                pe = phi1 * e1
                if not abs(pe) < 1.0:
                    return None
                k1 = 1.0 / (1.0 - pe ** 2)
                e2 = e0_2 + k0 * e0_1 + k0_1 * e0 + k1 * e1
                pe = phi2 * e2
                if not abs(pe) < 1.0:
                    return None
                u = 1.0 / (1.0 - pe ** 2) * e2
            else:  # the controller's record where the kernel returned None
                u, y_new, dist = record.u, record.y_new, disturbance(cfg.disturbance, t)
            # the plant under u + d(t), then the observer
            sb = sin(x2)
            t1 = half_l2m * x4 * (2.0 * x3 + x4) * sb + (u + dist)
            f2 = nc * x2 - d * x4 - half_l2m * x3 * x3 * sb
            k = 36.0 / (l2m * (16.0 - 9.0 * cb * cb))
            a12 = -1.0 / 3.0 - 0.5 * cb
            v3, v4 = k * (t1 / 3.0 + a12 * f2), k * (a12 * t1 + (5.0 / 3.0 + cb) * f2)
            if observer:
                err = y_new - zeta1
                return [x3, x4, v3, v4, g1 * err + y1, g2 * err + y2, g3 * err]
            return [x3, x4, v3, v4]

        return kernel

    def row(self, ts: np.ndarray, states: np.ndarray) -> np.ndarray:
        """The output samples at times ``ts`` of ``states`` (one state per row),
        one row each: t, the state, the outputs and the controller record.

        Every sample goes through the layer functions and ``evaluate`` at
        once, as arrays, and gets the bits that ``evaluate`` gives it alone.
        If the controller rejects any sample, ``evaluate`` runs on the samples
        in order and raises, stamped, at the first it rejects.
        """
        x = states.T
        try:
            # numpy on Python float terms: overflow and NaN pass silently
            with np.errstate(over="ignore", invalid="ignore"):
                return np.column_stack((ts, *x[:4], output(x)[0], yref_eval(self.cfg.ref, ts)[0],
                                        *self.evaluate(ts, x), *x[4:]))
        except SimulationError:
            for t, state in zip(ts.tolist(), states.tolist()):
                self.evaluate(t, state)
            raise


def integrate(cfg: ScenarioConfig) -> Trajectory:
    """Run one scenario and sample it on the uniform output grid."""
    loop = ClosedLoop(cfg)
    y0 = loop.initial_state()
    try:
        result = rk45.solve(loop.rhs, (0.0, cfg.t_end), y0, **dataclasses.asdict(cfg.integrator),
                            sample_step=SAMPLE_STEP, guards=(SimulationError,), stage_parts=True)
    except IntegrationError as exc:
        # near a funnel wall the gains blow up and the step size underflows
        # before any evaluation crosses; report that as the violation it is
        out = loop.evaluate(exc.t, exc.state.tolist())
        margins = cascade_margins(cfg.funnels, [exc.t], [[out.e0], [out.e1], [out.e2]])[0]
        if max(margins) >= 0.99:
            level = int(np.argmax(margins))
            raise FunnelViolation(
                f"integration pinned against funnel {level} "
                f"(margins {margins[0]:.6f}, {margins[1]:.6f}, {margins[2]:.6f})",
                t=exc.t, level=level, state=exc.state) from exc
        raise
    data = loop.row(result.t, result.y)
    if not np.all(np.isfinite(data)):
        raise FunnelViolation("non-finite values in sampled trajectory", t=float(result.t[-1]))
    return Trajectory(columns=loop.columns, data=data,
                      solver={k: getattr(result, k) for k in SOLVER_STATS})


def summarize(cfg: ScenarioConfig, traj: Trajectory) -> dict:
    """Scalar diagnostics of a completed run."""
    margins = cascade_margins(cfg.funnels, traj.t, [traj["e0"], traj["e1"], traj["e2"]])
    worst = np.argmax(margins, axis=0)  # per funnel; a NaN counts as the worst
    y_final = float(traj["y"][-1])
    return {
        "mode": cfg.mode,
        "y_final": y_final,
        "final_tracking_error": abs(y_final - float(traj["y_ref"][-1])),
        "max_abs_u": float(np.max(np.abs(traj["u"]))),
        "max_abs_beta": float(np.max(np.abs(traj["beta"]))),
        "max_funnel_margins": [float(margins[i, j]) for j, i in enumerate(worst)],
        "max_funnel_margin_times": [float(traj.t[i]) for i in worst],
        "funnel_invariant": bool(np.all(margins < 1.0)),
        "solver": dict(traj.solver),
    }


def run_case_study(disturbed: bool = True) -> tuple[Trajectory, Trajectory, dict]:
    """Run both controller variants on the case-study scenario.

    Returns the two trajectories and the summary of both.
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
    try:
        grid = np.linspace(start, stop, n)
    except (ValueError, MemoryError, IndexError) as exc:  # a grid numpy cannot build
        raise ConfigError(f"cannot sweep {n} points: {exc}") from exc
    jobs = [(float(v), _replace_field(cfg, dotted_field, float(v))) for v in grid]
    if parallel and n > 1:
        # imported here, so that a single run does not load multiprocessing;
        # under fork the pool starts all its workers at the first submit, so
        # it has no more than the points or the CPUs this process may run on
        from concurrent.futures import ProcessPoolExecutor
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:  # macOS and Windows: every CPU of the machine
            cpus = os.cpu_count() or 1
        with ProcessPoolExecutor(max_workers=min(n, cpus)) as pool:
            return list(pool.map(_sweep_worker, jobs))
    return [_sweep_worker(job) for job in jobs]
