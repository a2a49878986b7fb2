"""funneltrack benchmark: end-to-end timings per workload, or a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload case-hg --seed 0 --seconds 30 --trace 0

Every timed iteration is a fresh interpreter (``iteration.py``) that
imports the library from ``src``, builds the config and runs one
``funneltrack simulate`` or ``funneltrack sweep`` through the CLI's entry
point; iterations run one at a time until ``--seconds`` have passed.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
traced and untraced iterations and reports the per-layer metrics.
``--workload all`` runs the three workloads in turn.  The last line of
standard output is one JSON object; the exit code is 1 when an output was
wrong and 2 when there is no library to measure.  A full record of each
run is written to ``perfbench/out/``.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

import calibrate
import measure
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
MIN_ITERATIONS = 3
MIN_TRACED = 2
CHILD_TIMEOUT = 150
END_TO_END = {"setup_s": "s", "wall_s": "s", "wall_s_tail": "s", "peak_rss_mb": "MiB"}


class IterationError(RuntimeError):
    """An iteration's interpreter crashed, hung or printed no result."""


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith((".us", "_us")):
        return "us"
    if name.endswith(".s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_share", "_per_rhs", ".overhead")):
        return "ratio"
    return "count"


def run_iteration(root, workload, seed, *, trace=False, serial=False, warmup=False):
    """Start one iteration's interpreter, wait for it and return its result."""
    cmd = [sys.executable] + (["-X", "importtime"] if trace else [])
    cmd += [os.path.join(HERE, "iteration.py"), workload, str(seed), os.path.join(OUT, "work")]
    cmd += [flag for flag, on in (("--trace", trace), ("--serial", serial),
                                  ("--warmup", warmup)) if on]
    path = [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT)
    except BaseException as exc:  # a hang or a signal: end the iteration and its pool workers
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise IterationError(f"{workload} iteration exceeded {CHILD_TIMEOUT} s") from None
        raise
    if proc.returncode != 0:
        raise IterationError(f"{workload} iteration exited {proc.returncode}:\n{err[-4000:]}")
    if warmup:
        return None
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise IterationError(f"{workload} iteration printed no result:\n{err[-4000:]}") from exc
    # times in reference seconds, see calibrate.py
    result["speed_scale"] = calibrate.REFERENCE_S / measure.mean(result["kernel_s"])
    result["setup_raw_s"] = result["setup_done"] - started
    result["wall_raw_s"] = result["wall_s"]
    result["setup_s"] = result["setup_raw_s"] * result["speed_scale"]
    result["wall_s"] = result["wall_raw_s"] * result["speed_scale"]
    if trace:
        result["imports"] = tracing.import_seconds(err)
    return result


def _fresh_workdir():
    work = os.path.join(OUT, "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)


def judge_run(workload, seed, results):
    """(attempted, failed, problems) over every iteration of a run."""
    attempted, problems = 0, []
    for r in results:
        attempted += len(r["ops"])
        problems += [v for v in workloads.judge(workload, seed, r["ops"], r["sha256"]) if v]
    failed = len(problems)
    hashes = {r["sha256"] for r in results}
    if len(hashes) > 1:
        problems.append(f"iterations wrote different outputs: {sorted(hashes)}")
    return attempted, failed, problems


def end_to_end_run(root, workload, seed, seconds):
    _fresh_workdir()
    run_iteration(root, workload, seed, warmup=True)
    results = []
    deadline = time.monotonic() + seconds
    while len(results) < MIN_ITERATIONS or time.monotonic() < deadline:
        results.append(run_iteration(root, workload, seed))
    walls = [r["wall_s"] for r in results]
    tail = measure.tail(walls)
    metrics = {
        "setup_s": measure.median(r["setup_s"] for r in results),
        "wall_s": measure.median(walls),
        "wall_s_tail": tail["value"],
        "peak_rss_mb": measure.median(r["peak_rss_mb"] for r in results),
    }
    n = len(results)
    raw = {key: measure.median(r[key + "_raw_s"] for r in results) for key in ("setup", "wall")}
    notes = {"setup_s": f"median of {n} fresh interpreters; {raw['setup']:.4g} s measured",
             "wall_s": f"median of {n} iterations; {raw['wall']:.4g} s measured",
             "wall_s_tail": (f"p{tail['percentile']:.0f}, rank {tail['rank']} of "
                             f"{tail['samples']} samples, {tail['beyond']} beyond"),
             "peak_rss_mb": "median; iteration process plus its largest pool worker"}
    return metrics, notes, results, [], {"tail": tail, "iterations": results}


def traced_run(root, workload, seed, seconds):
    """Alternate traced and untraced iterations; sweeps run serially here."""
    serial = workload == "sweep-hg"
    _fresh_workdir()
    run_iteration(root, workload, seed, warmup=True)
    traced, plain = [], []
    deadline = time.monotonic() + seconds
    while len(traced) < MIN_TRACED or not plain or time.monotonic() < deadline:
        turn = len(traced) <= len(plain)
        (traced if turn else plain).append(
            run_iteration(root, workload, seed, trace=turn, serial=serial))
    problems = []
    metrics = {}
    for name, first in traced[0]["layer"].items():
        values = [r["layer"][name] for r in traced]
        if isinstance(first, int) and any(v != first for v in values):
            problems.append(f"count {name} differs between traced iterations: {values}")
        metrics[name] = first if isinstance(first, int) else measure.median(values)
    for package in traced[0]["imports"]:
        metrics[f"import.{package}.s"] = measure.median(r["imports"][package] for r in traced)
    metrics["trace.overhead"] = (measure.median(r["wall_s"] for r in traced)
                                 / measure.median(r["wall_s"] for r in plain))
    for r in traced:
        if r["leftovers"]:
            problems.append(f"wrappers left after the traced call: {r['leftovers']}")
    notes = {"trace.overhead": f"{len(traced)} traced / {len(plain)} untraced iterations"
                               + (", sweep run serially in both" if serial else "")}
    results = traced + plain
    record = {"serial": serial, "stats": [r["stats"] for r in traced],
              "iterations": [{k: v for k, v in r.items() if k != "stats"} for r in results]}
    return metrics, notes, results, problems, record


def _src_sha256(root):
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read() + b"\0")
    return digest.hexdigest()


def _git_revision(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "not a git checkout"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                               capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return rev + ("+modified-src" if dirty.strip() else "")


def provenance(root, seed, trace, results):
    nproc = len(os.sched_getaffinity(0))
    cpus = os.cpu_count()
    return {
        "git_revision": _git_revision(root), "src_sha256": _src_sha256(root),
        "python": platform.python_version(), **results[0]["versions"],
        "platform": platform.platform(), "nproc": nproc, "os_cpu_count": cpus,
        "cpu_count_exceeds_nproc": cpus is not None and cpus > nproc,
        "seed": seed, "tracing": bool(trace),
        "output_sha256": sorted({r["sha256"] for r in results}),
    }


def run_workload(root, workload, seed, seconds, trace):
    started = time.monotonic()
    kind = traced_run if trace else end_to_end_run
    metrics, notes, results, problems, record = kind(root, workload, seed, seconds)
    attempted, failed, judged = judge_run(workload, seed, results)
    problems = judged + problems
    prov = provenance(root, seed, trace, results)
    print(f"perfbench {workload}  seed {seed}  tracing {'on' if trace else 'off'}  "
          f"{len(results)} iterations in {time.monotonic() - started:.1f} s")
    for name, value in metrics.items():
        print(f"  {name:<24} {value:>14.6g} {unit_of(name):<6} {notes.get(name, '')}")
    print(f"  {'fail_ratio':<24} {measure.fail_ratio(failed, attempted):>14.6g} {'ratio':<6} "
          f"{failed} failed of {attempted} operations")
    for problem in problems:
        print(f"  FAIL {problem}")
    if prov["cpu_count_exceeds_nproc"]:
        print(f"  WARNING os.cpu_count() = {prov['os_cpu_count']} exceeds nproc = "
              f"{prov['nproc']}: the sweep pool is oversubscribed")
    print("  provenance " + json.dumps(prov))
    record.update(workload=workload, seed=seed, trace=bool(trace), seconds=seconds,
                  inputs=workloads.inputs(workload, seed), provenance=prov,
                  metrics=metrics, notes=notes, attempted=attempted, failed=failed,
                  problems=problems)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(bool(trace))}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through the handlers above, which stop the running iteration
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "funneltrack", "__init__.py")):
        print("perfbench: no src/funneltrack here; run from the root of a funneltrack "
              "checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        for workload in names:
            m, a, f, problems = run_workload(root, workload, args.seed, args.seconds,
                                             args.trace)
            prefix = f"{workload}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": unit_of(k)} for k, v in m.items()})
            attempted, failed, correct = attempted + a, failed + f, correct and not problems
    except IterationError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
