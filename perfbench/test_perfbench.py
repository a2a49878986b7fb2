"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench
"""
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class TestTail:
    def test_highest_percentile_with_ten_beyond(self):
        t = measure.tail(range(1, 101))
        assert (t["rank"], t["beyond"], t["value"], t["percentile"]) == (90, 10, 90.0, 90.0)

    def test_forty_samples_give_p75(self):
        t = measure.tail(reversed(range(40)))
        assert (t["percentile"], t["value"], t["beyond"]) == (75.0, 29.0, 10)

    @pytest.mark.parametrize("n, rank", [(25, 19), (13, 10), (7, 6), (4, 3), (3, 3), (1, 1)])
    def test_short_runs_keep_a_quarter_beyond(self, n, rank):
        t = measure.tail([float(x) for x in reversed(range(n))])
        assert (t["rank"], t["value"], t["beyond"], t["samples"]) == (rank, rank - 1, n - rank, n)
        assert t["percentile"] >= 75.0

    def test_no_samples(self):
        with pytest.raises(ValueError):
            measure.tail([])


def test_spread_is_interquartile_range_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    assert measure.spread(values) == pytest.approx((6.0 - 2.0) / 4.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSelfTime:
    def run(self, events):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)
        for at, what in events:
            clock.now = at
            if what == "exit":
                tracer.exit()
            elif what == "fail":
                tracer.exit(failed=True)
            else:
                tracer.enter(what)
        return tracer

    def test_self_time_is_span_minus_children(self):
        tracer = self.run([(0, "a"), (1, "b"), (3, "exit"), (4, "c"), (4.5, "d"),
                           (5, "exit"), (6, "exit"), (10, "exit")])
        calls, failed, inclusive, self_s = tracer.stats["a"]
        assert (calls, inclusive, self_s) == (1, 10, 6)  # 10 - (2 + 2)
        assert tracer.stats["c"][2:] == [2, 1.5]  # grandchild d is c's, not a's
        assert tracer.stats["d"][2:] == [0.5, 0.5]

    def test_calls_and_failures_accumulate_per_name(self):
        tracer = self.run([(0, "a"), (1, "b"), (2, "exit"), (3, "b"), (5, "fail"),
                           (6, "exit")])
        assert tracer.stats["b"] == [2, 1, 3, 3]
        assert tracer.stats["a"] == [1, 0, 6, 3]

    def test_uncovered_share_leaves_out_the_cli_span(self):
        tracer = self.run([(0, "cli.main"), (1, "sim.run_scenario"), (7, "linid.psi"),
                           (8, "exit"), (9, "exit"), (10, "exit")])
        got = tracing.layer_metrics(tracer, 10.5, 0, [], ())
        assert got["cli.self.s"] == 2
        assert got["trace.uncovered_share"] == pytest.approx((10.5 - 8) / 10.5)


class TestFailRatio:
    def test_counts(self):
        assert measure.fail_ratio(0, 8) == 0.0
        assert measure.fail_ratio(3, 12) == 0.25

    @pytest.mark.parametrize("failed, attempted", [(0, 0), (5, 4), (-1, 4)])
    def test_rejects_impossible_counts(self, failed, attempted):
        with pytest.raises(ValueError):
            measure.fail_ratio(failed, attempted)

    def test_every_sweep_point_is_an_operation(self):
        good = [{"status": s, "y_final": 0.0, "funnel_invariant": True, "finite": True}
                for s in workloads.PINNED_SWEEP_STATUSES]
        swapped = [good[4]] + good[1:4] + [good[0]] + good[5:]
        attempted, failed, problems = run.judge_run(
            "sweep-hg", workloads.DEFAULT_SEED,
            [{"ops": good, "sha256": "x"}, {"ops": swapped, "sha256": "x"}])
        assert (attempted, failed, len(problems)) == (16, 2, 2)

    def test_differing_outputs_fail_the_run_but_no_operation(self):
        ok = [{"status": "ok", "y_final": 0.8, "funnel_invariant": True, "finite": True}]
        attempted, failed, problems = run.judge_run(
            "case-lin", 7, [{"ops": ok, "sha256": "a"}, {"ops": ok, "sha256": "b"}])
        assert (attempted, failed, len(problems)) == (2, 0, 1)


class TestJudge:
    def ok(self, **kw):
        return {"status": "ok", "y_final": workloads.PINNED_Y_FINAL["case-hg"],
                "funnel_invariant": True, "finite": True, **kw}

    def test_default_seed_checks_hash_and_pinned_output(self):
        pin = workloads.PINNED_CSV_SHA256["case-hg"]
        assert workloads.judge("case-hg", 0, [self.ok()], pin) == [None]
        assert workloads.judge("case-hg", 0, [self.ok()], "0" * 64) != [None]
        off = self.ok(y_final=workloads.PINNED_Y_FINAL["case-hg"] + 2e-4)
        assert workloads.judge("case-hg", 0, [off], pin) != [None]
        assert workloads.judge("case-hg", 0, [{"status": "FunnelViolation"}], pin) != [None]

    def test_other_seeds_accept_violations_but_not_other_errors(self):
        verdicts = workloads.judge("case-lin", 3, [
            {"status": "FunnelViolation"}, {"status": "DomainError"},
            {"status": "IntegrationError"}, self.ok(funnel_invariant=False),
            self.ok(finite=False), self.ok(y_final=0.5)], "any")
        assert [v is None for v in verdicts] == [True, True, False, False, False, True]


class TestInputs:
    def test_default_seed_is_the_paper_scenario(self):
        inp = workloads.inputs("sweep-hg", workloads.DEFAULT_SEED)
        assert set(inp["disturbance_factors"].values()) == {1.0}
        assert inp["vary"] == "disturbance.amp1=0.0:3.0:8"

    def test_jitter_is_bounded_and_repeatable(self):
        cell = (workloads.SWEEP_STOP - workloads.SWEEP_START) / (workloads.SWEEP_POINTS - 1)
        for seed in range(1, 50):
            for workload in workloads.WORKLOADS:
                inp = workloads.inputs(workload, seed)
                assert inp == workloads.inputs(workload, seed)
                jitter = workloads.JITTER[workload]
                assert all(abs(f - 1.0) <= jitter for f in inp["disturbance_factors"].values())
            start, stop, n = inp["vary"].split("=")[1].split(":")
            assert 0.0 <= float(start) <= 0.1 * cell
            assert 0.0 <= float(stop) - workloads.SWEEP_STOP <= 0.1 * cell and n == "8"


class TestInstall:
    def test_every_binding_is_wrapped_and_restored(self):
        import funneltrack
        from funneltrack import funnel, linid, rk45, sim
        originals = (linid.psi, sim.ClosedLoop.__dict__["rhs"], rk45.solve,
                     sim.ScenarioConfig.__dict__["from_dict"])
        tracer = tracing.Tracer()
        inst = tracing.install(tracer, funneltrack)
        try:
            assert linid.psi is funnel.psi is sim.psi is not originals[0]
            assert getattr(linid.psi, tracing.MARK) == "linid.psi"
            cfg = sim.case_study_config("lin")
            sim.ClosedLoop(cfg).rhs(0.0, cfg.x0.as_array())
        finally:
            inst.restore()
        assert tracer.stats["sim.ClosedLoop.rhs"][0] == 1
        assert tracer.stats["linid.psi"][0] >= 1
        assert inst.leftovers() == []
        assert (linid.psi, sim.ClosedLoop.__dict__["rhs"], rk45.solve,
                sim.ScenarioConfig.__dict__["from_dict"]) == originals
        assert funnel.psi is sim.psi is linid.psi

    def test_solver_counts_agree_with_solve_result_and_survive_a_raise(self):
        import funneltrack
        from funneltrack import rk45

        class Wall(Exception):
            pass

        calls = [0, 0]  # right-hand-side calls, guard exceptions

        def walled(t, y):
            calls[0] += 1
            if y[0] < 0.5:
                calls[1] += 1
                raise Wall()
            return -y

        tracer = tracing.Tracer()
        inst = tracing.install(tracer, funneltrack)
        try:
            res = rk45.solve(lambda t, y: -y, (0.0, 1.0), [1.0], rel_tol=1e-6, abs_tol=1e-9)
            assert tracer.solver == {k: getattr(res, k) for k in tracing.SOLVER_COUNTS}
            before = dict(tracer.solver)
            with pytest.raises(Wall):
                rk45.solve(walled, (0.0, 2.0), [1.0], rel_tol=1e-6, abs_tol=1e-9, guards=(Wall,))
        finally:
            inst.restore()
        got = {k: tracer.solver[k] - before[k] for k in tracing.SOLVER_COUNTS}
        assert (got["nfev"], got["nguard"]) == tuple(calls)
        assert got["nguard"] > 0 and got["naccept"] > 0

    def test_import_seconds_group_by_top_level_package(self):
        err = ("import time: self [us] | cumulative | imported package\n"
               "import time:       100 |        100 |     numpy.core\n"
               "import time:      2000 |       2100 |   numpy\n"
               "import time:        50 |         50 | funneltrack.sim\n"
               "import time:         7 |          7 | json\n")
        got = tracing.import_seconds(err)
        assert got == pytest.approx({"funneltrack": 50e-6, "numpy": 2100e-6, "scipy": 0.0,
                                     "other": 7e-6})


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    layer = set(tracing.layer_metrics(tracing.Tracer(), 1.0, 0, [], ()))
    layer |= {f"import.{g}.s" for g in tracing.IMPORT_GROUPS} | {"trace.overhead"}
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: run.unit_of(name) for name in layer}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
