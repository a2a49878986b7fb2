"""Workload inputs made from a seed, and the correctness gate for their outputs.

Seed 0 is the paper's case study exactly and is checked against pinned
values.  Any other seed scales each disturbance amplitude and frequency by
a factor drawn from [1 - JITTER, 1 + JITTER]; on ``sweep-hg`` it also moves
the start and the end of the amplitude grid up by at most GRID_JITTER of
the grid spacing, so that every point stays inside its grid cell.  The
sweep's jitter is small because its points 3 and 4 lie close to the
ok/violation threshold (amp1 near 1.6) and to the switch from an early to
a late violation (amp1 near 1.68); crossing either changes the sweep's
work by up to a fifth, which would swamp any change to the program.  This
module imports nothing from funneltrack, so run.py can use it without
loading the library.
"""
import random

WORKLOADS = ("case-lin", "case-hg", "sweep-hg")
DEFAULT_SEED = 0
JITTER = {"case-lin": 0.1, "case-hg": 0.1, "sweep-hg": 0.01}
GRID_JITTER = 0.1

SWEEP_FIELD = "disturbance.amp1"
SWEEP_START, SWEEP_STOP, SWEEP_POINTS = 0.0, 3.0, 8

# pinned outputs of seed 0 (y(t_end) as in tests/test_regression.py)
PINNED_CSV_SHA256 = {
    "case-lin": "5455cc04bf251bc16ef6670f432a354b839bc15e1955fd199edd81b89dfe8741",
    "case-hg": "8dcc1da5f0d7f4fd608c26f91f0c7c1478cd46d662ef4b0dd48562bfd637d908",
}
PINNED_Y_FINAL = {"case-lin": 0.8114754640, "case-hg": 0.7893495481}
Y_FINAL_TOL = 1e-4
PINNED_SWEEP_STATUSES = ("ok",) * 4 + ("FunnelViolation",) * 4

# outcomes that are the method's own verdict on a scenario, not a fault
VIOLATIONS = ("FunnelViolation", "DomainError")
# exit codes of ``funneltrack`` mapped to the outcome they report
EXIT_STATUS = {0: "ok", 1: "ConfigError", 2: "FunnelViolation", 3: "DomainError",
               4: "IntegrationError"}


def inputs(workload: str, seed: int) -> dict:
    """Disturbance scale factors and, for a sweep, the ``--vary`` argument."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    names = ("amp1", "freq1", "amp2", "freq2")
    if seed == DEFAULT_SEED:
        factors = {name: 1.0 for name in names}
    else:
        factors = {name: 1.0 + rng.uniform(-JITTER[workload], JITTER[workload])
                   for name in names}
    out = {"mode": "lin" if workload == "case-lin" else "hg", "disturbance_factors": factors}
    if workload == "sweep-hg":
        start, stop = SWEEP_START, SWEEP_STOP
        if seed != DEFAULT_SEED:
            cell = (SWEEP_STOP - SWEEP_START) / (SWEEP_POINTS - 1)
            start += rng.uniform(0.0, GRID_JITTER) * cell
            stop += rng.uniform(0.0, GRID_JITTER) * cell
        out["vary"] = f"{SWEEP_FIELD}={start!r}:{stop!r}:{SWEEP_POINTS}"
    return out


def judge(workload: str, seed: int, ops: list, sha256: str) -> list:
    """One entry per operation: None if it passed, else why it failed.

    An operation is one scenario or one sweep point, given as a dict with
    ``status`` and, when the status is ``ok``, ``y_final``,
    ``funnel_invariant`` and ``finite``.  ``sha256`` is the hash of the
    run's CSV (scenarios only).
    """
    pinned = seed == DEFAULT_SEED
    verdicts = []
    for i, op in enumerate(ops):
        status = op["status"]
        if pinned:
            expected = PINNED_SWEEP_STATUSES[i] if workload == "sweep-hg" else "ok"
            if status != expected:
                verdicts.append(f"op {i}: status {status}, pinned {expected}")
                continue
        elif status != "ok":
            verdicts.append(None if status in VIOLATIONS else f"op {i}: {status}")
            continue
        verdicts.append(_success_problem(workload, pinned, op, sha256, i)
                        if status == "ok" else None)
    return verdicts


def _success_problem(workload, pinned, op, sha256, i):
    if not op["finite"]:
        return f"op {i}: non-finite output"
    if not op["funnel_invariant"]:
        return f"op {i}: success reported with funnel_invariant false"
    if pinned and workload in PINNED_CSV_SHA256:
        if sha256 != PINNED_CSV_SHA256[workload]:
            return f"op {i}: CSV sha256 {sha256} differs from the pinned hash"
        pin = PINNED_Y_FINAL[workload]
        if not abs(op["y_final"] - pin) <= Y_FINAL_TOL:
            return f"op {i}: y(t_end) = {op['y_final']!r}, pinned {pin} +- {Y_FINAL_TOL}"
    return None

