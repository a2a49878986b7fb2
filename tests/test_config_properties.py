"""Property tests of the scenario schema and of the config exit code."""
import json
import math
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from funneltrack.cli import main
from funneltrack.errors import ConfigError
from funneltrack.funnel import FunnelSpec
from funneltrack.linid import eigensplit
from funneltrack.model import ManipulatorParams, PlantState
from funneltrack.reference import MAX_INTERVALS, TransitionRef
from funneltrack.rk45 import MIN_ABS_TOL
from funneltrack.sim import (DisturbanceSpec, IntegratorConfig, ScenarioConfig,
                             _replace_field)

# fixed example sequences: tier-1 sees the same inputs on every run
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def floats(lo=-1e6, hi=1e6, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


positive = floats(0.0, 1e6, exclude_min=True)
nonnegative = floats(0.0, 1e6)


@st.composite
def transitions(draw):
    t0, tf = sorted((draw(floats(0.0, 10.0)), draw(floats(0.0, 10.0))))
    try:
        return TransitionRef(draw(floats()), draw(floats()), t0, tf)
    except ConfigError:  # a window of about 1 ns or less
        reject()


@st.composite
def integrators(draw):
    min_step, max_step = sorted(draw(st.lists(positive, min_size=2, max_size=2, unique=True)))
    return IntegratorConfig(draw(positive), draw(floats(MIN_ABS_TOL, 1e6)), max_step, min_step)


def split_params(m, l, c, d):
    """ManipulatorParams(m, l, c, d) if they are valid and split hyperbolically, else None."""
    try:
        params = ManipulatorParams(m=m, l=l, c=c, d=d)
        eigensplit(params)
    except ConfigError:
        return None
    return params


configs = st.builds(
    ScenarioConfig,
    # half of the draws (m = 2.2e-309, say) have no positive l^2 m or no
    # hyperbolic split in floats
    params=st.builds(split_params, positive, positive, positive,
                     nonnegative).filter(lambda params: params is not None),
    x0=st.builds(PlantState, floats(), floats(), floats(), floats()),
    ref=transitions(),
    funnels=st.tuples(*[st.builds(FunnelSpec, nonnegative, positive, positive)] * 3),
    mode=st.sampled_from(("lin", "hg")),
    observer_gains=st.tuples(floats(), floats(), floats()),
    disturbance=st.builds(DisturbanceSpec, floats(), floats(), floats(), floats()),
    t_end=positive,
    integrator=integrators(),
)


def numeric_leaves(node, prefix=""):
    """(dotted path, value) of every number in a ``to_dict`` tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        path = f"{prefix}{key}"
        if isinstance(value, (dict, list)):
            yield from numeric_leaves(value, path + ".")
        elif isinstance(value, (int, float)):
            yield path, value


def with_leaf(data, dotted, value):
    """The ``to_dict`` tree ``data`` with the leaf at ``dotted`` replaced in place."""
    *parents, leaf = dotted.split(".")
    node = data
    for part in parents:
        node = node[int(part)] if isinstance(node, list) else node[part]
    node[int(leaf) if isinstance(node, list) else leaf] = value
    return data


@PROPERTY
@given(configs)
def test_dict_and_json_roundtrip(cfg):
    data = cfg.to_dict()
    assert ScenarioConfig.from_dict(data) == cfg
    assert ScenarioConfig.from_dict(json.loads(json.dumps(data))) == cfg


@PROPERTY
@given(configs)
def test_every_numeric_leaf_roundtrips_through_the_field_setter(cfg):
    leaves = list(numeric_leaves(cfg.to_dict()))
    # params 4, x0 4, ref 4, funnels 9, observer_gains 3, disturbance 4,
    # t_end 1, integrator 4
    assert len(leaves) == 33
    for path, value in leaves:
        assert _replace_field(cfg, path, value) == cfg


BASE = ScenarioConfig(ref=TransitionRef(0.0, 0.2, 0.0, 1.0), t_end=1.0)
LEAVES = [path for path, _ in numeric_leaves(BASE.to_dict())]


def assert_exit_1_before_any_run(path, bad):
    """``simulate`` and ``sweep`` exit 1 on ``path`` = ``bad`` without integrating."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch("funneltrack.cli.integrate") as simulate_runs, \
            mock.patch("funneltrack.sim.integrate") as sweep_runs:
        valid, invalid = os.path.join(tmp, "valid.json"), os.path.join(tmp, "invalid.json")
        out = os.path.join(tmp, "never")
        BASE.write_json(valid)
        with open(invalid, "w") as fh:
            json.dump(with_leaf(BASE.to_dict(), path, bad), fh)
        assert main(["simulate", "--config", invalid, "--out", out]) == 1
        assert main(["sweep", "--config", invalid, "--vary", "t_end=1:2:2",
                     "--out", out, "--serial"]) == 1
        assert main(["sweep", "--config", valid, "--vary", f"{path}={bad}:{bad}:1",
                     "--out", out, "--serial"]) == 1
        assert simulate_runs.call_count == sweep_runs.call_count == 0
        assert not os.path.exists(out)
        with pytest.raises(ConfigError):
            _replace_field(BASE, path, bad)


# 33 leaves times 3 values: all 99 cases run
@settings(PROPERTY, max_examples=100)
@given(st.sampled_from(LEAVES), st.sampled_from((math.nan, math.inf, -math.inf)))
def test_non_finite_leaf_is_exit_1_before_any_run(path, bad):
    assert_exit_1_before_any_run(path, bad)


negative = floats(-1e6, 0.0, exclude_max=True)
nonpositive = floats(-1e6, 0.0)
# every finite value a leaf's range check rejects, with BASE's other leaves
OUT_OF_RANGE = {
    **{f"funnels.{k}.a": negative for k in range(3)},
    **{f"funnels.{k}.{name}": nonpositive for k in range(3) for name in ("b", "eps")},
    **dict.fromkeys(["t_end", "integrator.rel_tol", "params.m", "params.l", "params.c"],
                    nonpositive),
    "integrator.abs_tol": st.one_of(nonpositive, floats(0.0, MIN_ABS_TOL, exclude_min=True,
                                                        exclude_max=True)),
    "params.d": negative,
    "integrator.min_step": floats(BASE.integrator.max_step, 1e6),
    "integrator.max_step": floats(-1e6, BASE.integrator.min_step),
    # before t0, or a window of more than MAX_INTERVALS spline intervals, which
    # TransitionRef rejects before any spline is built
    "ref.tf": st.one_of(negative, floats(MAX_INTERVALS * 1e-3 + 1.0, 1e300)),
}


# 19 leaves, 2 values each: 38 cases
@pytest.mark.parametrize("path", OUT_OF_RANGE)
@settings(PROPERTY, max_examples=2)
@given(data=st.data())
def test_finite_out_of_range_leaf_is_exit_1_before_any_run(path, data):
    assert_exit_1_before_any_run(path, data.draw(OUT_OF_RANGE[path]))


# finite values that ManipulatorParams accepts but at which eigensplit's float
# arithmetic overflows, cancels or turns NaN, and a 1e300 s transition window;
# listed, not drawn, so that each of them runs every time
@pytest.mark.parametrize("path, bad", [
    ("params.m", 1e-300),   # (3 d / (l^2 m))**2 overflows
    ("params.d", 1e300),    # the same
    ("params.c", 1e-320),   # lambda1 cancels to 0
    ("params.c", 1e308),    # 3 c overflows: infinite eigenvalues
    ("params.l", 1e-160),   # l^2 m is subnormal: NaN eigenvalues
    ("ref.tf", 1e300),      # about 1e303 spline intervals
])
def test_degenerate_split_or_window_is_exit_1_before_any_run(path, bad):
    assert_exit_1_before_any_run(path, bad)
