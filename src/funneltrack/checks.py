"""Independent-route checks of the package that need numpy only.

Each check recomputes a structural property of the model or controller
through an independent route (generic linear algebra, finite differences,
a chain-rule oracle, Richardson-refined quadrature, forward integration)
and compares it with the closed forms shipped in the package.  Every check
returns ``(ok, detail)``.  ``funneltrack check`` runs all of them through
``run_all``; pytest runs each one once (``tests/test_checks.py``) and the
acceptance criteria read the ones they name from those results.  Sampling
is deterministic: every draw is a fixed seed and count.
"""
import math

import numpy as np

from . import bif, linid, model, reference, rk45, sim
from .funnel import cascade, observer_rhs, phi_eval
from .model import ManipulatorParams

_SEED = 20240817
_P = ManipulatorParams()
_CASE = sim.case_study_config()
_REF = _CASE.ref
_GAINS = _CASE.observer_gains
_BETA_MARGIN = 0.02  # random states keep this far inside the admissible region
_FD_STEP = 1e-6


def random_domain_states(n, seed, vel_scale=2.0):
    """``n`` plant states with beta strictly inside the admissible region.

    ``seed`` is an int or a ``np.random.Generator``; a generator is drawn
    from in place, so the caller can go on drawing inputs from it.
    """
    rng = np.random.default_rng(seed)
    beta_max = model.BETA_MAX - _BETA_MARGIN
    states = np.empty((n, 4))
    states[:, 0] = rng.uniform(-2.0, 2.0, n)
    states[:, 1] = rng.uniform(-beta_max, beta_max, n)
    states[:, 2:] = rng.uniform(-vel_scale, vel_scale, (n, 2))
    return states


def _states(*draws):
    """The states of several ``(n, seed)`` draws, stacked."""
    return np.vstack([random_domain_states(n, seed) for n, seed in draws])


def fd_gradient(fun, x):
    """Central differences of ``fun`` at ``x``: the gradient of a scalar
    function, the Jacobian (one column per coordinate) of a vector one."""
    cols = []
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = _FD_STEP
        cols.append((np.asarray(fun(x + e)) - np.asarray(fun(x - e))) / (2 * _FD_STEP))
    return np.array(cols).T


def check_plant_residual():
    """Accelerations satisfy the second-order equations of motion, and the
    position rates are exactly the velocities, three parameter sets."""
    rng = np.random.default_rng(_SEED)
    states = np.vstack([random_domain_states(1000, rng), random_domain_states(1000, 11)])
    inputs = np.concatenate([rng.uniform(-5.0, 5.0, 1000),
                             np.random.default_rng(7).uniform(-5.0, 5.0, 1000)])
    worst, kinematic = [], True
    for p in (_P, ManipulatorParams(m=2.0, l=0.7, c=3.0, d=0.1),
              ManipulatorParams(m=2.0, l=0.5, c=2.0, d=0.1)):
        res = 0.0
        for x, u_d in zip(states, inputs):
            xdot = model.plant_rhs(p, x, u_d)
            kinematic = kinematic and xdot[0] == x[2] and xdot[1] == x[3]
            f1, f2 = model.generalized_forces(p, x)
            r = model.mass_matrix(p, x[1]) @ xdot[2:] - np.array([f1 + u_d, f2])
            res = max(res, float(np.max(np.abs(r))))
        worst.append(res)
    return max(worst) < 1e-12 and kinematic, (
        f"max residual per parameter set = {', '.join(f'{w:.3e}' for w in worst)}, "
        f"exact kinematics: {kinematic}")


_LIE_DRAWS = ((200, _SEED + 1), (1000, 13), (1000, 17), (300, 103))
_DH = np.array([1.0, 0.5, 0.0, 0.0])  # grad(h), constant


def lie_derivatives_analytic():
    """L_g h = 0 and L_g L_f h = Gamma from the closed-form gradients."""
    dlfh = np.array([0.0, 0.0, 1.0, 0.5])
    lgh = lglfh = 0.0
    for x in _states(*_LIE_DRAWS):
        g = model.input_field(_P, x)
        lgh = max(lgh, abs(_DH @ g))
        lglfh = max(lglfh, abs(dlfh @ g - model.gamma(_P, x[1])))
    return lgh < 1e-12 and lglfh < 1e-10, f"L_g h {lgh:.3e}, L_g L_f h - Gamma {lglfh:.3e}"


def lie_derivatives_fd():
    """L_g h = 0 and L_g L_f h = Gamma with finite-difference gradients."""
    worst = 0.0
    for x in _states(*_LIE_DRAWS):
        g = model.input_field(_P, x)
        grad_h = fd_gradient(lambda z: model.output(z)[0], x)
        grad_lfh = fd_gradient(lambda z: float(_DH @ model.plant_rhs(_P, z, 0.0)), x)
        worst = max(worst, abs(grad_h @ g), abs(grad_lfh @ g - model.gamma(_P, x[1])))
    return worst < 1e-6, f"finite-difference {worst:.3e}"


def gamma_at_zero():
    """Gamma(0) = -3/7."""
    err = abs(model.gamma(_P, 0.0) + 3 / 7)
    return err <= 1e-12, f"Gamma(0) + 3/7 = {err:.3e}"


def gamma_root_at_boundary():
    """Gamma vanishes on the boundary cos(beta) = 2/3."""
    root = abs(model.gamma(_P, model.BETA_MAX))
    return root <= 1e-15, f"Gamma at the boundary {root:.3e}"


def gamma_sign_on_circle():
    """Gamma < 0 exactly where cos(beta) > 2/3, on two grids of the circle."""
    flip = all((model.gamma(_P, beta) < 0) == (math.cos(beta) > 2 / 3)
               for n, gap in ((2001, 1e-6), (4001, 1e-3))
               for beta in np.linspace(-math.pi, math.pi, n, endpoint=False)
               if abs(math.cos(beta) - 2 / 3) >= gap)
    return flip, f"sign flip at cos(beta) = 2/3: {flip}"


def check_transform_roundtrip():
    """phi_inverse(phi_forward(x)) = x and the reverse composition."""
    worst = 0.0
    for x in _states((1000, _SEED + 2), (1000, 23), (1000, 101)):
        z = bif.phi_forward(x)
        worst = max(worst, float(np.max(np.abs(bif.phi_inverse(z) - x))))
        z2 = bif.phi_forward(bif.phi_inverse(z))
        worst = max(worst, float(np.max(np.abs(np.array(z2) - np.array(z)))))
    return worst < 1e-10, f"max round-trip error = {worst:.3e}"


def check_decoupling():
    """The internal coordinates annihilate the input field."""
    worst = 0.0
    for x in _states((1000, _SEED + 3), (1000, 37), (1000, 101)):
        g = model.input_field(_P, x)
        worst = max(worst, abs(bif.grad_phi1() @ g), abs(bif.grad_phi2(x) @ g))
    return worst < 1e-12, f"max |grad(phi_i) . g| = {worst:.3e}"


def check_internal_dynamics():
    """Closed-form internal dynamics match the chain-rule oracle, two parameter sets."""
    rng = np.random.default_rng(_SEED + 4)
    states = np.vstack([random_domain_states(1000, rng), _states((1000, 43), (1000, 101))])
    inputs = np.concatenate([rng.uniform(-10.0, 10.0, 1000), np.zeros(1000),
                             np.random.default_rng(97).uniform(-10.0, 10.0, 1000)])
    worst = 0.0
    for p in (_P, ManipulatorParams(m=2.0, l=0.8, c=1.7, d=0.05)):
        for x, u_d in zip(states, inputs):
            z = bif.phi_forward(x)
            got = bif.internal_rhs(p, (z.eta1, z.eta2), z.y_dot)
            want = bif.internal_rhs_oracle(p, x, u_d=u_d)
            worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    return worst < 1e-9, f"max |closed form - oracle| = {worst:.3e}"


def check_linearization():
    """(Q, P) equal the finite-difference Jacobians at the origin."""
    Q, P = linid.linearize(_P)
    fd_q = fd_gradient(lambda eta: bif.internal_rhs(_P, eta, 0.0), np.zeros(2))
    fd_p = fd_gradient(lambda v: bif.internal_rhs(_P, (0.0, 0.0), v[0]), np.zeros(1))[:, 0]
    worst = max(float(np.max(np.abs(fd_q - Q))), float(np.max(np.abs(fd_p - P))))
    return worst < 1e-6, f"max FD mismatch = {worst:.3e}"


def eigen_diagonalization():
    """V^-1 Q V = diag(lambda1, lambda2)."""
    lin = linid.eigensplit(_P)
    diag = lin.Vinv @ lin.Q @ lin.V - np.diag([lin.lambda1, lin.lambda2])
    res = float(np.max(np.abs(diag)))
    return res < 1e-10, f"|V^-1 Q V - diag| = {res:.3e}"


def eigen_coupling_split():
    """V p = P."""
    lin = linid.eigensplit(_P)
    res_p = float(np.max(np.abs(lin.V @ np.array([lin.p1, lin.p2]) - lin.P)))
    return res_p < 1e-10, f"|Vp - P| = {res_p:.3e}"


def eigen_identities():
    """lambda1 lambda2 = -12 c / (l^2 m) and lambda1 + lambda2 = 12 d / (l^2 m)."""
    lin = linid.eigensplit(_P)
    res = max(abs(lin.lambda1 * lin.lambda2 + 12 * _P.c / _P.l2m),
              abs(lin.lambda1 + lin.lambda2 - 12 * _P.d / _P.l2m))
    return res < 1e-10, f"eigen identities {res:.3e}"


def eigen_closed_form():
    """The closed-form eigenvalues, the hyperbolic split and the sign of p2."""
    lin = linid.eigensplit(_P)
    res = max(abs(lin.lambda1 - (1.5 - 2 * math.sqrt(3.5625))),
              abs(lin.lambda2 - (1.5 + 2 * math.sqrt(3.5625))))
    ok = res <= 1e-12 and lin.lambda1 < 0 < lin.lambda2 and lin.p2 > 0
    return ok, f"closed-form eigenvalues {res:.3e}"


def _bounded_reference():
    """The eigensplit and the bounded reference of ``_REF``."""
    lin = linid.eigensplit(_P)
    return lin, reference.BoundedReference(lin, _REF)


def check_reference_ic():
    """The bounded reference at 0 (the case study's first knot value) vs the
    bounded initial value by Richardson-refined Simpson quadrature."""
    lin, bref = _bounded_reference()
    got = bref.value(0.0)

    def integrand(s):
        return math.exp(-lin.lambda2 * s) * lin.lambda2 * lin.p2 * reference.yref_eval(_REF, s)[0]

    def simpson(n):
        ts = np.linspace(0.0, _REF.tf, n + 1)
        vals = np.array([integrand(t) for t in ts])
        h = ts[1] - ts[0]
        return h / 3 * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum())

    coarse, fine = simpson(4096), simpson(8192)
    refined = fine + (fine - coarse) / 15.0
    want = -(refined + lin.p2 * _REF.yf * math.exp(-lin.lambda2 * _REF.tf))
    err = abs(got - want)
    return err < 1e-9, f"|BoundedReference(0) - Richardson| = {err:.3e}"


def reference_derivative_fd():
    """The reference's first derivative matches central differences of its value."""
    _, bref = _bounded_reference()
    t = np.concatenate([np.linspace(0.05, 2.95, 59), np.linspace(0.01, 2.95, 59)])
    fd = np.max(np.abs((bref.value(t + 1e-4) - bref.value(t - 1e-4)) / 2e-4 - bref.eval(t)[1]))
    return fd < 1e-5, f"max FD residual = {fd:.3e}"


def reference_steady_state():
    """After the transition the reference is exactly -p2 yf with zero derivatives."""
    lin, bref = _bounded_reference()
    steady = max(abs(v + lin.p2 * _REF.yf) + abs(vd) + abs(vdd)
                 for v, vd, vdd in (bref.eval(t) for t in (3.0, 4.0, 5.0, 10.0)))
    return steady == 0.0, f"steady-state error = {steady:.3e}"


def reference_forward_agreement():
    """Integrating the unstable reference ODE forward from the reference's
    value at 0 tracks the reference."""
    lin, bref = _bounded_reference()
    # forward integration amplifies errors by exp(lam2 t), hence the loose band
    res = rk45.solve(
        lambda t, x: [lin.lambda2 * x[0] + lin.lambda2 * lin.p2 * reference.yref_eval(_REF, t)[0]],
        (0.0, 3.0), np.array([bref.value(0.0)]),
        rel_tol=1e-13, abs_tol=1e-15, max_step=0.01, sample_step=0.01)
    fwd = np.max(np.abs(res.y[:, 0] - bref.value(res.t)))
    return fwd <= 1e-4, f"forward agreement {fwd:.3e}"


def reference_sup_bound():
    """sup |y_bar_ref| over [0, 10] stays within 10 |p2 yf|."""
    lin, bref = _bounded_reference()
    sup = np.max(np.abs(bref.value(np.linspace(0.0, 10.0, 2001))))
    bound = 10.0 * abs(lin.p2) * abs(_REF.yf)
    return sup <= bound, f"sup |y_bar_ref| = {sup:.3f} (<= {bound:.3f})"


def check_cascade_algebra():
    """Rebuild the cascade from scratch at random feasible points."""
    specs = _CASE.funnels
    worst = 0.0
    for rng, n in ((np.random.default_rng(_SEED + 5), 200), (np.random.default_rng(71), 300)):
        for _ in range(n):
            # Python floats, as ClosedLoop.evaluate hands the cascade at one time
            t = rng.uniform(0.0, 3.0)
            y = rng.uniform(-0.02, 0.02, 6).tolist()  # inside the tightest funnel on [0, 3]
            out = cascade(specs, t, *y)
            phi0, dphi0 = phi_eval(specs[0], t)
            phi1, _ = phi_eval(specs[1], t)
            phi2, _ = phi_eval(specs[2], t)
            e0, e0_1, e0_2 = y[0] - y[3], y[1] - y[4], y[2] - y[5]
            k0 = 1 / (1 - phi0**2 * e0**2)
            k0_1 = 2 * phi0 * e0 / (1 - phi0**2 * e0**2) ** 2 * (dphi0 * e0 + phi0 * e0_1)
            e1 = e0_1 + k0 * e0
            k1 = 1 / (1 - phi1**2 * e1**2)
            e2 = e0_2 + k0 * e0_1 + k0_1 * e0 + k1 * e1
            u = e2 / (1 - phi2**2 * e2**2)
            worst = max(worst, abs(u - out.u), abs(e2 - out.e2), abs(e1 - out.e1))
    return worst < 1e-12, f"max rebuild mismatch = {worst:.3e}"


def check_observer_linearity():
    """Superposition a*f(za, ya) + b*f(zb, yb) = f(a*za + b*zb, a*ya + b*yb)
    of the observer right-hand side, relative to max(1, |lhs|)."""
    worst = 0.0
    for rng, scaled in ((np.random.default_rng(_SEED + 6), False),
                        (np.random.default_rng(73), True)):
        for _ in range(100):
            za, zb = rng.normal(size=3), rng.normal(size=3)
            ya, yb = rng.normal(), rng.normal()
            a, b = (rng.normal(), rng.normal()) if scaled else (1.0, 1.0)
            lhs = np.array(observer_rhs(_GAINS, a * za + b * zb, a * ya + b * yb))
            rhs = (a * np.array(observer_rhs(_GAINS, za, ya))
                   + b * np.array(observer_rhs(_GAINS, zb, yb)))
            scale = max(1.0, float(np.max(np.abs(lhs))))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return worst < 1e-12, f"max superposition error / max(1, |lhs|) = {worst:.3e}"


def check_observer_convergence():
    """Driven by y_new(t) = sin t, the observer's derivative estimates
    settle onto cos t and -sin t after 0.5 s."""
    res = rk45.solve(lambda t, z: observer_rhs(_GAINS, z, math.sin(t)),
                     (0.0, 3.0), np.zeros(3), rel_tol=1e-9, abs_tol=1e-12,
                     max_step=0.01, sample_step=1e-2)
    late = res.t >= 0.5
    err1 = max(abs(z[1] - math.cos(t)) for t, z in zip(res.t[late], res.y[late]))
    err2 = max(abs(z[2] + math.sin(t)) for t, z in zip(res.t[late], res.y[late]))
    return err1 <= 1e-2 and err2 <= 0.5, (f"after 0.5 s: |zeta2 - cos t| = {err1:.3e}, "
                                          f"|zeta3 + sin t| = {err2:.3e}")


def check_energy_conservation():
    """Unforced, undamped runs conserve mechanical energy, at the accepted
    steps and on a dense 0.01 s grid."""
    p = ManipulatorParams(d=0.0)
    x0 = np.array([0.3, 0.2, 0.4, -0.3])
    e0 = model.mechanical_energy(p, x0)
    drift = 0.0
    for sample_step in (None, 1e-2):
        res = rk45.solve(lambda t, x: model.plant_rhs(p, x, 0.0), (0.0, 3.0), x0,
                         rel_tol=1e-11, abs_tol=1e-13, max_step=0.05, sample_step=sample_step)
        drift = max(drift, max(abs(model.mechanical_energy(p, x) - e0) for x in res.y))
    return drift < 1e-6, f"energy drift = {drift:.3e}"


def check_zero_scenario():
    """All-zero configuration stays identically at the origin."""
    traj = sim.integrate(sim.ScenarioConfig())
    state_max = float(np.max(np.abs(traj.data[:, 1:5])))
    u_max = float(np.max(np.abs(traj["u"])))
    gains_dev = max(float(np.max(np.abs(traj[k] - 1.0))) for k in ("k0", "k1", "k2"))
    ok = state_max <= 1e-10 and u_max <= 1e-10 and gains_dev <= 1e-10
    return ok, f"max |state| = {state_max:.3e}, max |u| = {u_max:.3e}, max |k - 1| = {gains_dev:.3e}"


ALL_CHECKS = (
    ("plant-residual", check_plant_residual),
    ("lie-derivatives-analytic", lie_derivatives_analytic),
    ("lie-derivatives-fd", lie_derivatives_fd),
    ("gamma-at-zero", gamma_at_zero),
    ("gamma-root-at-boundary", gamma_root_at_boundary),
    ("gamma-sign-on-circle", gamma_sign_on_circle),
    ("transform-roundtrip", check_transform_roundtrip),
    ("input-decoupling", check_decoupling),
    ("internal-dynamics-oracle", check_internal_dynamics),
    ("linearization-fd", check_linearization),
    ("eigen-diagonalization", eigen_diagonalization),
    ("eigen-coupling-split", eigen_coupling_split),
    ("eigen-identities", eigen_identities),
    ("eigen-closed-form", eigen_closed_form),
    ("reference-ic-quadrature", check_reference_ic),
    ("reference-derivative-fd", reference_derivative_fd),
    ("reference-steady-state", reference_steady_state),
    ("reference-forward-agreement", reference_forward_agreement),
    ("reference-sup-bound", reference_sup_bound),
    ("cascade-algebra", check_cascade_algebra),
    ("observer-linearity", check_observer_linearity),
    ("observer-convergence", check_observer_convergence),
    ("energy-conservation", check_energy_conservation),
    ("zero-scenario", check_zero_scenario),
)


def run_all() -> int:
    """Run every check; return 0 if all pass, 1 otherwise."""
    failures = 0
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashing check is a failing check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        failures += 0 if ok else 1
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return 0 if failures == 0 else 1
