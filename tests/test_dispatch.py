"""Float or array: each layer function that takes one time or state, or the
samples of many, gives every array entry the bits of the same call on that
entry alone, as a Python float and as an ``np.float64``, and rejects an input
with the same error whichever kind carries it.  ``model.libm`` makes the
libm calls for every kind."""
import math

import numpy as np
import pytest

from funneltrack.bif import phi_forward
from funneltrack.errors import DomainError, FunnelViolation
from funneltrack.funnel import FunnelSpec, gain, phi_eval
from funneltrack.linid import eigensplit, psi
from funneltrack.model import ManipulatorParams
from funneltrack.reference import BoundedReference, TransitionRef, yref_eval

LIN = eigensplit(ManipulatorParams())
SPECS = (FunnelSpec(1.5, 0.8, 0.001), FunnelSpec(60.0, 0.2, 0.001), FunnelSpec(0.0, 1.0, 0.5))
# windows starting before, at and after 0
REFS = (TransitionRef(0.1, math.pi / 4, -0.5, 1.0), TransitionRef(0.0, math.pi / 4, 0.0, 1.5),
        TransitionRef(0.2, -0.3, 0.4, 1.2))
BOUNDED = tuple(BoundedReference(LIN, r) for r in REFS)
# the case study's window: tau = t / 3 underflows to 0 at 5e-324, not at 1e-323
RISE = BoundedReference(LIN, TransitionRef(0.0, math.pi / 4, 0.0, 3.0))
JUST_PAST_T0 = np.array([0.0, 5e-324, 1e-323, 1.5])


def ref_times(r, rng):
    """t at t0, before max(0, t0), inside the window, at tf and after it."""
    t_lo = max(0.0, r.t0)
    return np.concatenate(([r.t0, t_lo - 0.3, t_lo - 1e-9, 0.5 * (t_lo + r.t0), t_lo,
                            r.tf, r.tf + 1e-9, r.tf + 2.0], rng.uniform(t_lo, r.tf, 40)))


def states(rng, n):
    """Plant states (alpha, beta, alpha_dot, beta_dot) inside the domain, one column each."""
    return np.array([rng.uniform(-3.0, 3.0, n), rng.uniform(-0.84, 0.84, n),
                     3.0 * rng.standard_normal(n), 3.0 * rng.standard_normal(n)])


def margins_near_one(rng, n):
    """(phi, e) with phi |e| near 1, where 1 - (phi e)**2 keeps the last bit of
    the square; numpy's x * x differs from the C library's pow(x, 2) there."""
    phi = rng.uniform(1.0, 60.0, n)
    return phi, rng.choice([-1.0, 1.0], n) * rng.uniform(0.9, 0.99999, n) / phi


def cases():
    """name -> [(function, its array arguments)]: times and funnel values as
    shape (n,), states as shape (4, n)."""
    rng = np.random.default_rng(26)
    ts = np.concatenate(([0.0, 1e-300, 1e3], rng.uniform(0.0, 50.0, 200)))
    x = states(rng, 300)
    return {
        "phi_eval": [(lambda t, f=f: phi_eval(f, t), (ts,)) for f in SPECS],
        "gain": [(lambda p, e: gain(p, e, level=1), margins_near_one(rng, 4000)),
                 (gain, (rng.uniform(0.0, 50.0, 200), rng.uniform(-0.01, 0.01, 200)))],
        "phi_forward": [(phi_forward, (x,))],
        "psi": [(lambda x: psi(LIN, x), (x,))],
        "yref_eval": [(lambda t, r=r: yref_eval(r, t), (ref_times(r, rng),)) for r in REFS],
        "value": [(b.value, (ref_times(b.ref, rng),)) for b in BOUNDED],
        "eval": [(b.eval, (ref_times(b.ref, rng),)) for b in BOUNDED],
        "tau-underflow": [(lambda t: yref_eval(RISE.ref, t), (JUST_PAST_T0,)),
                          (RISE.eval, (JUST_PAST_T0,))],
    }


CASES = cases()


def columns(out):
    """A function's result as a tuple of its fields."""
    return tuple(out) if isinstance(out, tuple) else (out,)


def one_sample(a, i, kind):
    """Entry i of an argument: a scalar of ``kind`` for a time, a state of them
    (a list of floats, or a float64 array) for a column of states."""
    if a.ndim == 1:
        return kind(a[i])
    return a[:, i].tolist() if kind is float else a[:, i]


@pytest.mark.parametrize("name", list(CASES))
def test_array_matches_each_float(name):
    for fn, args in CASES[name]:
        many = columns(fn(*args))
        for kind in (float, np.float64):
            ones = [columns(fn(*(one_sample(a, i, kind) for a in args)))
                    for i in range(args[0].shape[-1])]
            for j, field in enumerate(many):
                assert isinstance(field, np.ndarray) and field.dtype == np.float64
                assert np.array([one[j] for one in ones]).tobytes() == field.tobytes(), (kind, j)


# the rejected sample alone, and as the second of three samples
REJECTED = {
    "gain-outside": (FunnelViolation, lambda p: gain(p, 0.7 + 0.0 * p, level=2),
                     [0.5, 2.0, 3.0]),
    "gain-far-outside": (FunnelViolation, lambda p: gain(p, 0.7 + 0.0 * p, level=2),
                         [0.5, 1e200, 3.0]),
    "gain-nan": (FunnelViolation, lambda p: gain(p, 0.7 + 0.0 * p, level=2),
                 [0.5, math.nan, 3.0]),
    "phi_forward-outside": (DomainError, lambda b: phi_forward([0.0 * b, b, 0.0 * b, b]),
                            [0.2, 1.2, math.pi]),
    "phi_forward-nan": (DomainError, lambda b: phi_forward([0.0 * b, b, 0.0 * b, b]),
                        [0.2, math.nan, 0.5]),
}


@pytest.mark.parametrize("name", list(REJECTED))
def test_rejected_input_raises_alike(name):
    error, fn, samples = REJECTED[name]
    messages = []
    for arg in (samples[1], np.float64(samples[1]), np.array(samples)):
        with pytest.raises(error) as exc:
            fn(arg)
        assert type(exc.value) is error
        messages.append(str(exc.value))
    assert len(set(messages)) == 1, messages
