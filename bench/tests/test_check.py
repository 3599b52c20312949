"""The benchmark's correctness check and tracer.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import argparse
import time

import numpy as np
import pytest

import cases
import run
import tracer
from spilqr import cli, lti, matkit, model_based
from spilqr.exceptions import MaxIterationsError


@pytest.fixture(scope="module")
def mb_case():
    wl = cases.MbDense()
    return wl, wl.case(np.random.default_rng(0), cases.WARMUP_STRATA, 0)


def test_correct_answer_passes(mb_case):
    wl, case = mb_case
    _, raw = run.timed_call(wl, case)
    assert cases.verdict(wl, case, raw) == ("ok", "")


def test_perturbed_answer_is_flagged_wrong(mb_case):
    wl, case = mb_case
    _, raw = run.timed_call(wl, case)
    raw.solution.P[0, 0] *= 1.0 + 1e-4
    status, detail = cases.verdict(wl, case, raw)
    assert status == "wrong" and "relative error" in detail


def test_raised_exception_counts_as_error(mb_case):
    _, case = mb_case

    class Stalls(cases.MbDense):
        def call(self, case):
            raise MaxIterationsError("budget spent")

    wl = Stalls()
    _, raw = run.timed_call(wl, case)
    assert cases.verdict(wl, case, raw) == ("error", "MaxIterationsError")


def test_nonzero_exit_counts_as_error(tmp_path):
    wl = cases.PowerCli(str(tmp_path))
    case = wl.case(np.random.default_rng(0), cases.WARMUP_STRATA, 0)
    assert cases.verdict(wl, case, 3) == (
        "error", "spi-model-based exit code 3")


def test_tracer_patches_names_bound_by_import():
    tr = tracer.Tracer()
    originals = (model_based.is_controllable, cli.simulate,
                 matkit.spectral_radius)
    tr.install()
    try:
        assert model_based.is_controllable is not originals[0]
        assert cli.simulate is not originals[1]
        assert lti.simulate is cli.simulate
        tr.run_op(0, lambda: matkit.spectral_radius(np.eye(2)))
    finally:
        tr.uninstall()
    assert (model_based.is_controllable, cli.simulate,
            matkit.spectral_radius) == originals
    metrics = tr.metrics()
    assert metrics["matkit.spectral_radius.calls"] == 1
    assert metrics["lti.simulate.calls"] == 0


class Sleepy:
    """Ops of 2 ms; case 1 always raises, and case ``flip`` raises only
    after its first run."""

    name = "sleepy"

    def __init__(self, flip=None):
        self.flip, self.seen = flip, set()

    def case(self, rng, u, i):
        return cases.Case(np.eye(2), {"i": i})

    def call(self, case):
        time.sleep(0.002)
        i = case.args["i"]
        if i == 1 or (i == self.flip and i in self.seen):
            raise MaxIterationsError("budget spent")
        self.seen.add(i)
        return np.eye(2)

    def answer(self, case, P):
        return P


@pytest.fixture
def small_pool(monkeypatch):
    monkeypatch.setattr(run, "MIN_CASES", 3)
    monkeypatch.setitem(run.POOL_RATE, "sleepy", 0.0)
    return argparse.Namespace(seed=0, seconds=1.0)


def test_each_case_counts_once_at_its_fastest(small_pool):
    ops = run.take_ops(Sleepy(), 0, small_pool, None)
    assert ops.timed == 3 * run.REPEATS
    assert len(ops.best_s) == 3 and min(ops.best_s) >= 0.002
    assert ops.outcomes == {"ok": 2, "error": 1}
    assert ops.errors == {"error: MaxIterationsError": 1}
    assert not ops.unsteady


def test_the_loop_stops_after_the_first_pass_once_time_is_up(small_pool):
    small_pool.seconds = 0.0
    ops = run.take_ops(Sleepy(), 0, small_pool, None)
    assert ops.timed == 3 and len(ops.best_s) == 3


def test_a_changed_verdict_on_a_repeat_is_reported(small_pool):
    ops = run.take_ops(Sleepy(flip=2), 0, small_pool, None)
    assert ops.outcomes == {"ok": 2, "error": 1}
    assert ops.unsteady == {"case 2: ok then error": run.REPEATS - 1}
