"""Unit tests for simulation futures."""

import sys

import pytest

from repro.sim.futures import Future, FutureError, FutureTimeout, gather


def test_resolve_and_value(sim):
    future = Future(sim)
    future.resolve(41)
    assert future.resolved
    assert future.value == 41


def test_value_before_resolve_raises(sim):
    with pytest.raises(FutureError):
        Future(sim).value


def test_double_resolve_raises(sim):
    future = Future(sim)
    future.resolve(1)
    with pytest.raises(FutureError):
        future.resolve(2)


def test_try_resolve_reports_effect(sim):
    future = Future(sim)
    assert future.try_resolve(1)
    assert not future.try_resolve(2)
    assert future.value == 1


def test_callback_after_resolution_fires_immediately(sim):
    future = Future(sim)
    future.resolve("x")
    got = []
    future.add_callback(got.append)
    assert got == ["x"]


def test_callbacks_fire_in_order(sim):
    future = Future(sim)
    got = []
    future.add_callback(lambda v: got.append(("a", v)))
    future.add_callback(lambda v: got.append(("b", v)))
    future.resolve(9)
    assert got == [("a", 9), ("b", 9)]


def test_timeout_resolves_with_future_timeout(sim):
    future = Future(sim, timeout=10.0)
    sim.run()
    assert future.timed_out()
    assert isinstance(future.value, FutureTimeout)


def test_resolution_cancels_timeout(sim):
    future = Future(sim, timeout=10.0)
    sim.schedule(5.0, future.resolve, "ok")
    sim.run()
    assert future.value == "ok"
    assert not future.timed_out()


@pytest.mark.parametrize("early", [True, False],
                         ids=["resolved_early", "timed_out"])
def test_resolution_releases_timer_and_its_owner(sim, early):
    """Whether resolved before its timeout or by it, a future drops its
    timer and the timer drops the future (its owner, through the bound
    ``_on_timeout``), so neither needs the cyclic collector."""
    future = Future(sim, timeout=10.0)
    timer = future._timeout_event
    got = []
    future.add_callback(got.append)
    if early:
        sim.schedule(5.0, future.resolve, "ok")
    sim.run(until=20.0)
    assert len(got) == 1 and future.timed_out() is not early
    assert future._timeout_event is None
    assert timer.callback is None and timer.args == ()
    del timer
    # Only the local name refers to the future (getrefcount adds one).
    assert sys.getrefcount(future) == 2


def test_result_drives_simulator(sim):
    future = Future(sim)
    sim.schedule(3.0, future.resolve, 123)
    assert future.result() == 123
    assert sim.now == 3.0


def test_result_raises_on_timeout(sim):
    future = Future(sim, timeout=1.0)
    with pytest.raises(FutureTimeout):
        future.result()


class TestGather:
    def test_gathers_in_order(self, sim):
        futures = [Future(sim) for _ in range(3)]
        combined = gather(sim, futures)
        # Resolve out of order.
        futures[2].resolve("c")
        futures[0].resolve("a")
        futures[1].resolve("b")
        assert combined.value == ["a", "b", "c"]

    def test_empty_gather_resolves(self, sim):
        combined = gather(sim, [])
        sim.run()
        assert combined.value == []

    def test_individual_timeouts_appear_in_results(self, sim):
        fast = Future(sim)
        slow = Future(sim, timeout=5.0)
        combined = gather(sim, [fast, slow])
        fast.resolve(1)
        sim.run()
        assert combined.value[0] == 1
        assert isinstance(combined.value[1], FutureTimeout)

    def test_overall_timeout(self, sim):
        never = Future(sim)
        combined = gather(sim, [never], timeout=5.0)
        sim.run()
        assert combined.timed_out()

    def test_gather_with_pre_resolved(self, sim):
        done = Future(sim)
        done.resolve("pre")
        pending = Future(sim)
        combined = gather(sim, [done, pending])
        pending.resolve("post")
        assert combined.value == ["pre", "post"]
