"""Command-line interface.

Subcommands: ``simulate`` (one scenario from a JSON config), ``check``
(invariant/oracle suite), ``case-study`` (both controller variants on the
reference transition), ``sweep`` (vary one config field over a range).

Exit codes: 0 on success, else the code that ``FAILURES`` gives the
exception that stopped the command, whose stderr line is the label,
`` at t = <t>`` if the exception carries a time, and the message.
"""
import argparse
import dataclasses
import json
import os
import sys

from .errors import ConfigError, DomainError, FunnelViolation, IntegrationError
from .sim import ScenarioConfig, dump_json, integrate, run_case_study, run_sweep, summarize

# exception type -> (exit code, stderr label)
FAILURES = {
    ConfigError: (1, "config error"),
    FunnelViolation: (2, "funnel violation"),
    DomainError: (3, "domain exit"),
    IntegrationError: (4, "integrator failure"),
    OSError: (1, "I/O error"),  # an output path that cannot be written
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2), which we reserve
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="funneltrack", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scenario from a JSON config")
    p_sim.add_argument("--config", required=True, help="path to a scenario JSON file")
    p_sim.add_argument("--mode", help="override the config's mode (lin or hg)")
    p_sim.add_argument("--out", default="trajectory.csv", help="output CSV path")
    p_sim.add_argument("--t-end", type=float, help="override the config's horizon")

    sub.add_parser("check", help="run the invariant/oracle suite (exit 0/1)")

    p_case = sub.add_parser("case-study", help="reference transition, both variants")
    p_case.add_argument("--out-dir", default=".", help="directory for lin.csv/hg.csv/summary.json")
    p_case.add_argument("--no-disturbance", action="store_true",
                        help="drop the additive torque disturbance")

    p_sweep = sub.add_parser("sweep", help="vary one numeric config field")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--vary", required=True, metavar="FIELD=START:STOP:N",
                         help="e.g. disturbance.amp1=0:0.3:7 (dotted field path)")
    p_sweep.add_argument("--out", default="sweep.json", help="summary output path")
    p_sweep.add_argument("--serial", action="store_true", help="disable parallel execution")
    return parser


def _parse_vary(spec: str):
    try:
        field, rng = spec.split("=", 1)
        start, stop, n = rng.split(":")
        return field.strip(), float(start), float(stop), int(n)
    except ValueError as exc:
        raise ConfigError(f"--vary expects FIELD=START:STOP:N, got {spec!r}") from exc


def _check_writable(*paths) -> None:
    """Raise the OSError that writing any of ``paths`` would raise; create no file."""
    for path in paths:
        existed = os.path.lexists(path)
        open(path, "a").close()
        if not existed:
            os.remove(path)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "simulate":
            cfg = ScenarioConfig.from_json_file(args.config)
            overrides = {"mode": args.mode, "t_end": args.t_end}
            cfg = dataclasses.replace(
                cfg, **{k: v for k, v in overrides.items() if v is not None})
            _check_writable(args.out)
            traj = integrate(cfg)
            traj.write_csv(args.out)
            print(json.dumps(summarize(cfg, traj), indent=2))
            return 0
        if args.command == "check":
            from .checks import run_all
            return run_all()
        if args.command == "case-study":
            os.makedirs(args.out_dir, exist_ok=True)
            lin_csv, hg_csv, summary_json = (os.path.join(args.out_dir, name)
                                             for name in ("lin.csv", "hg.csv", "summary.json"))
            _check_writable(lin_csv, hg_csv, summary_json)
            traj_lin, traj_hg, summary = run_case_study(disturbed=not args.no_disturbance)
            traj_lin.write_csv(lin_csv)
            traj_hg.write_csv(hg_csv)
            dump_json(summary, summary_json)
            print(json.dumps(summary, indent=2))
            return 0
        if args.command == "sweep":
            cfg = ScenarioConfig.from_json_file(args.config)
            field, start, stop, n = _parse_vary(args.vary)
            _check_writable(args.out)
            results = run_sweep(cfg, field, start, stop, n, parallel=not args.serial)
            dump_json(results, args.out)
            for row in results:
                print(f"{field} = {row['value']:.6g}: {row['status']}")
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except tuple(FAILURES) as exc:
        code, label = next(FAILURES[c] for c in type(exc).__mro__ if c in FAILURES)
        where = "" if getattr(exc, "t", None) is None else f" at t = {exc.t:.6f}"
        print(f"{label}{where}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
