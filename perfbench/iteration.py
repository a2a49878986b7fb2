"""One iteration of a workload, in the fresh interpreter it runs in.

``run.py`` starts this script once per timed iteration, from the root of a
checkout and with its ``src`` first on ``PYTHONPATH``.  The script imports
funneltrack, builds the workload's config and writes it as a file: that is
the set-up, and it prints the monotonic time at which it ended.  Then it
calls the ``funneltrack`` command's entry point in-process with the
arguments a user would type (``simulate`` for a scenario, ``sweep`` for a
sweep) and prints one JSON line with the outcome, the output's SHA-256,
the peak memory and the times of the calibration kernel (``calibrate.py``),
which runs just before and just after that call.  With ``--trace`` the
library is wrapped in spans for the duration of that call only.
"""
import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback

import workloads


def _summary_finite(summary: dict) -> bool:
    values = [v for v in summary.values() if isinstance(v, (int, float))]
    for v in summary.values():
        if isinstance(v, list):
            values.extend(v)
    return all(math.isfinite(v) for v in values)


def _op(status, summary=None):
    op = {"status": status}
    if status == "ok":
        op.update(y_final=summary["y_final"], funnel_invariant=summary["funnel_invariant"],
                  finite=_summary_finite(summary))
    return op


def _outcome(workload, code, stdout, out_path):
    """(ops, output bytes) of one CLI call."""
    status = workloads.EXIT_STATUS.get(code, code if isinstance(code, str) else f"exit {code}")
    data = b""
    if code == 0:
        with open(out_path, "rb") as fh:
            data = fh.read()
    if workload == "sweep-hg":
        if code != 0:
            return [_op(status)] * workloads.SWEEP_POINTS, data
        return [_op(row["status"], row) for row in json.loads(data)], data
    if code != 0:
        return [_op(status)], data
    op = _op(status, json.loads(stdout))
    op["finite"] = op["finite"] and b"nan" not in data and b"inf" not in data
    return [op], data


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir")
    parser.add_argument("--trace", action="store_true", help="wrap the library in spans")
    parser.add_argument("--serial", action="store_true", help="run a sweep without the pool")
    parser.add_argument("--warmup", action="store_true", help="import the library and exit")
    args = parser.parse_args(argv)

    import funneltrack
    from funneltrack import cli, sim

    source = os.path.join(os.getcwd(), "src", "funneltrack")
    if os.path.dirname(os.path.abspath(funneltrack.__file__)) != source:
        print(f"funneltrack imported from {funneltrack.__file__}, not {source}", file=sys.stderr)
        return 2
    if args.warmup:
        return 0

    inp = workloads.inputs(args.workload, args.seed)
    cfg = sim.case_study_config(inp["mode"])
    scale = inp["disturbance_factors"]
    dist = {k: getattr(cfg.disturbance, k) * f for k, f in scale.items()}
    cfg = dataclasses.replace(cfg, disturbance=sim.DisturbanceSpec(**dist))
    config_path = os.path.join(args.workdir, "config.json")
    cfg.write_json(config_path)
    if args.workload == "sweep-hg":
        out_path = os.path.join(args.workdir, "sweep.json")
        cli_argv = ["sweep", "--config", config_path, "--vary", inp["vary"], "--out", out_path]
        if args.serial:
            cli_argv.append("--serial")
    else:
        out_path = os.path.join(args.workdir, "trajectory.csv")
        cli_argv = ["simulate", "--config", config_path, "--out", out_path]
    with contextlib.suppress(FileNotFoundError):
        os.remove(out_path)
    setup_done = time.monotonic()

    import calibrate  # after set-up: the benchmark's own imports are not the library's
    parallel = args.workload == "sweep-hg" and not args.serial
    processes = os.cpu_count() if parallel else 1  # the sweep pool's default size
    kernel_s = calibrate.gauge(processes)
    tracer = installation = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        installation = tracing.install(tracer, funneltrack)
    stdout = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(cli_argv)
    except Exception as exc:  # a crash is an outcome to report, not to hide
        traceback.print_exc()
        code = type(exc).__name__
    wall = time.perf_counter() - start
    if installation is not None:
        installation.restore()
    kernel_s += calibrate.gauge(processes)

    ops, data = _outcome(args.workload, code, stdout.getvalue(), out_path)
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    import numpy
    import scipy
    result = {
        "setup_done": setup_done, "wall_s": wall, "kernel_s": kernel_s,
        "exit": code, "ops": ops,
        "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
        "peak_rss_mb": kib / 1024.0, "cli_argv": cli_argv,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        statuses = [op["status"] for op in ops] if args.workload == "sweep-hg" else []
        metrics = tracing.layer_metrics(tracer, wall, len(data), statuses, workloads.VIOLATIONS)
        result.update(layer=metrics, stats=tracer.stats,
                      leftovers=installation.leftovers())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
