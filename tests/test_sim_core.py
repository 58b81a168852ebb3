"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import Acquire, Resource, SimulationError, Simulator, Store, Timeout, Wait


def test_timeout_ordering():
    sim = Simulator()
    log = []

    def worker(name, delay):
        yield Timeout(delay)
        log.append((sim.now, name))

    sim.spawn(worker("a", 2.0))
    sim.spawn(worker("b", 1.0))
    sim.spawn(worker("c", 1.0))
    sim.run()
    assert log == [(1.0, "b"), (1.0, "c"), (2.0, "a")]


def test_fifo_tiebreak_same_time():
    sim = Simulator()
    log = []

    def worker(i):
        yield Timeout(5.0)
        log.append(i)

    for i in range(10):
        sim.spawn(worker(i))
    sim.run()
    assert log == list(range(10))


def test_run_until_stops_clock():
    sim = Simulator()

    def worker():
        yield Timeout(10.0)

    sim.spawn(worker())
    t = sim.run(until=3.0)
    assert t == 3.0
    assert sim.now == 3.0
    assert sim.peek() == 10.0
    sim.run()
    assert sim.now == 10.0


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-1.0)


def test_event_wait_and_value():
    sim = Simulator()
    ev = sim.event("go")
    got = []

    def waiter():
        value = yield Wait(ev)
        got.append((sim.now, value))

    def trigger():
        yield Timeout(4.0)
        ev.succeed(42)

    sim.spawn(waiter())
    sim.spawn(trigger())
    sim.run()
    assert got == [(4.0, 42)]


def test_event_yielded_directly():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        got.append((yield ev))

    sim.spawn(waiter())
    sim.call_after(1.0, ev.succeed, "x")
    sim.run()
    assert got == ["x"]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_late_waiter_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    got = []

    def late():
        yield Timeout(7.0)
        got.append((sim.now, (yield Wait(ev))))

    sim.spawn(late())
    sim.run()
    assert got == [(7.0, "early")]


def test_process_waitable_and_return_value():
    sim = Simulator()
    results = []

    def child():
        yield Timeout(2.0)
        return "payload"

    def parent():
        proc = sim.spawn(child())
        value = yield proc
        results.append((sim.now, value))

    sim.spawn(parent())
    sim.run()
    assert results == [(2.0, "payload")]


def test_exception_propagates_to_waiter():
    sim = Simulator()
    caught = []

    def child():
        yield Timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.spawn(child())
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(parent())
    sim.run()
    assert caught == ["boom"]


def test_unwaited_exception_aborts_run():
    sim = Simulator()

    def child():
        yield Timeout(1.0)
        raise ValueError("unhandled")

    sim.spawn(child())
    with pytest.raises(ValueError, match="unhandled"):
        sim.run()


def _kernel_series(o) -> dict:
    snap = o.metrics.snapshot()
    return {
        "events_scheduled": snap["counters"]["sim.events_scheduled"],
        "events_dispatched": snap["counters"]["sim.events_dispatched"],
        "processes_spawned": snap["counters"]["sim.processes_spawned"],
        "processes_finished": snap["counters"]["sim.processes_finished"],
        "max_heap_depth": snap["gauges"]["sim.max_heap_depth"],
        "now": snap["gauges"]["sim.now"],
    }


def _authority(sim) -> dict:
    st = sim.event_stats()
    return {k: st[k] for k in (
        "events_scheduled", "events_dispatched", "processes_spawned",
        "processes_finished", "max_heap_depth", "now",
    )}


def test_crash_still_updates_now_gauge():
    """The registry equals event_stats() at any read: between run(until=)
    slices, mid-run, and after run() re-raises a crash."""
    from repro import obs

    with obs.use() as o:
        sim = Simulator()
        mid_run = []

        def child():
            yield Timeout(3.0)
            raise ValueError("boom")

        def bystander():
            yield Timeout(1.0)
            mid_run.append((_kernel_series(o), _authority(sim)))
            yield Timeout(4.0)

        sim.spawn(child())
        sim.spawn(bystander())
        assert _kernel_series(o) == _authority(sim)  # before any run
        sim.run(until=0.5)
        assert _kernel_series(o) == _authority(sim)
        with pytest.raises(ValueError, match="boom"):
            sim.run()
        assert mid_run and mid_run[0][0] == mid_run[0][1]
        st = sim.event_stats()
        assert st["pending_events"] == 1
        assert o.metrics.snapshot()["gauges"]["sim.now"] == 3.0
        assert _kernel_series(o) == _authority(sim)
        assert st["events_scheduled"] == 5 and st["events_dispatched"] == 4


def test_failure_propagation_no_existing_and_late_waiters():
    """A crashed process must reach: run() when nobody waits, an existing
    waiter directly, and a late waiter that arrives after the failure."""
    sim = Simulator()
    caught = []

    def child():
        yield Timeout(1.0)
        raise RuntimeError("crashed")

    # no waiter: the exception aborts run()
    proc = sim.spawn(child())
    with pytest.raises(RuntimeError, match="crashed"):
        sim.run()
    assert sim.now == 1.0

    # late waiter: arrives after the failure, still sees the exception
    def late():
        try:
            yield proc
        except RuntimeError as exc:
            caught.append(("late", str(exc)))

    sim.spawn(late())
    sim.run()
    assert caught == [("late", "crashed")]

    # existing waiter: registered before the failure, exception delivered
    # into the waiter instead of aborting the run
    sim2 = Simulator()

    def child2():
        yield Timeout(1.0)
        raise RuntimeError("crashed2")

    def parent():
        try:
            yield sim2.spawn(child2())
        except RuntimeError as exc:
            caught.append(("existing", str(exc)))

    sim2.spawn(parent())
    sim2.run()
    assert caught[-1] == ("existing", "crashed2")


def test_spawn_rejects_non_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.spawn(lambda: None)  # type: ignore[arg-type]


def test_schedule_in_past_rejected():
    sim = Simulator()

    def worker():
        yield Timeout(5.0)

    sim.spawn(worker())
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_yield_garbage_raises_inside_process():
    sim = Simulator()

    def bad():
        yield "not a request"

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_resource_serializes_access():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    spans = []

    def job(i):
        grant = yield Acquire(res)
        start = sim.now
        yield Timeout(2.0)
        res.release(grant)
        spans.append((i, start, sim.now))

    for i in range(3):
        sim.spawn(job(i))
    sim.run()
    assert spans == [(0, 0.0, 2.0), (1, 2.0, 4.0), (2, 4.0, 6.0)]
    assert res.utilization() == pytest.approx(1.0)


def test_resource_capacity_two_overlaps():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    done = []

    def job(i):
        grant = yield Acquire(res)
        yield Timeout(1.0)
        res.release(grant)
        done.append((i, sim.now))

    for i in range(4):
        sim.spawn(job(i))
    sim.run()
    assert done == [(0, 1.0), (1, 1.0), (2, 2.0), (3, 2.0)]


def test_resource_double_release_raises():
    sim = Simulator()
    res = Resource(sim)
    grants = []

    def job():
        grant = yield Acquire(res)
        grants.append(grant)
        res.release(grant)

    sim.spawn(job())
    sim.run()
    with pytest.raises(SimulationError):
        res.release(grants[0])


def test_resource_mean_wait():
    sim = Simulator()
    res = Resource(sim)

    def job():
        grant = yield Acquire(res)
        yield Timeout(3.0)
        res.release(grant)

    sim.spawn(job())
    sim.spawn(job())
    sim.run()
    # second job waited 3s, first 0s
    assert res.mean_wait() == pytest.approx(1.5)

    # queued FIFO handoffs at capacity 2: exact wait and busy accounting
    sim = Simulator()
    res = Resource(sim, capacity=2)
    order = []

    def timed_job(i, arrive, hold):
        yield Timeout(arrive)
        grant = yield Acquire(res)
        order.append((i, sim.now))
        yield Timeout(hold)
        res.release(grant)

    for i, (arrive, hold) in enumerate([(0, 3), (0, 1), (0.5, 2), (1, 1), (2, 4)]):
        sim.spawn(timed_job(i, arrive, hold))
    sim.run()
    # job 3 arrives at t=1 just before job 1 releases: it queues behind 2
    assert order == [(0, 0.0), (1, 0.0), (2, 1.0), (3, 3.0), (4, 3.0)]
    assert res.total_grants == 5
    assert res.total_wait == 0.5 + 2.0 + 1.0
    assert res.mean_wait() == 3.5 / 5
    assert sim.now == 7.0
    assert res.utilization() == 11.0 / 14.0  # 11 unit-seconds over 7 s x 2
    assert res.in_use == 0 and res.queue_length == 0


def test_immediate_grant_resumes_after_same_instant_events():
    """A grant is one heap entry at the current time, scheduled when it
    is made: everything already queued for that instant runs first."""
    sim = Simulator()
    res = Resource(sim)
    log = []

    def acquirer():
        log.append("request")
        grant = yield Acquire(res)
        log.append(("granted", sim.now))
        yield Timeout(2.0)
        sim.call_at(sim.now, log.append, "cb2")  # queued before the handoff
        res.release(grant)

    def bystander():
        log.append("b0")
        yield Timeout(0.0)
        log.append("b0 again")

    def waiter():
        grant = yield Acquire(res)
        log.append(("handoff", sim.now))
        res.release(grant)

    sim.spawn(acquirer())
    sim.spawn(bystander())
    sim.call_at(0.0, log.append, "cb0")
    sim.spawn(waiter())
    sim.run()
    assert log == [
        "request", "b0", "cb0", ("granted", 0.0), "b0 again",
        "cb2", ("handoff", 2.0),
    ]


def test_store_fifo_and_blocking():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((sim.now, item))

    def producer():
        store.put("a")
        yield Timeout(2.0)
        store.put("b")
        store.put("c")

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert got == [(0.0, "a"), (2.0, "b"), (2.0, "c")]
    assert len(store) == 0


def test_store_buffered_before_get():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert store.peek() == 1
    got = []

    def consumer():
        got.append((yield store.get()))
        got.append((yield store.get()))

    sim.spawn(consumer())
    sim.run()
    assert got == [1, 2]


def test_call_at_coalesced_dedupes_per_time_and_key():
    sim = Simulator()
    fired = []

    def cb(tag):
        fired.append((sim.now, tag))

    # three requests for the same (time, key): one heap entry, one call
    assert sim.call_at_coalesced(1.0, "tick", cb, "a") is True
    assert sim.call_at_coalesced(1.0, "tick", cb, "ignored") is False
    assert sim.call_at_coalesced(1.0, "tick", cb, "ignored") is False
    # a different key at the same time, and the same key at another time,
    # each schedule independently
    assert sim.call_at_coalesced(1.0, "other", cb, "b") is True
    assert sim.call_at_coalesced(2.0, "tick", cb, "c") is True
    sim.run()
    assert fired == [(1.0, "a"), (1.0, "b"), (2.0, "c")]
    assert sim.event_stats()["wakeups_coalesced"] == 2


def test_call_at_coalesced_key_reusable_after_firing():
    sim = Simulator()
    fired = []
    sim.call_at_coalesced(1.0, "k", fired.append, 1)
    sim.run()
    # the (time, key) slot is released once the callback fires
    assert sim.call_at_coalesced(1.0, "k", fired.append, 2) is True
    sim.run()
    assert fired == [1, 2]


def test_event_pool_recycles():
    sim = Simulator()
    ev1 = sim.acquire_event(name="first")
    assert sim.event_stats()["events_pooled"] == 0  # pool was empty

    def waiter(ev, out):
        out.append((yield Wait(ev)))

    got = []
    sim.spawn(waiter(ev1, got))

    def trigger():
        yield Timeout(1.0)
        ev1.succeed(42)

    sim.spawn(trigger())
    sim.run()
    assert got == [42]
    sim.recycle_event(ev1)
    ev2 = sim.acquire_event(name="second")
    # same object, fully reset, and the reuse was counted
    assert ev2 is ev1
    assert ev2.name == "second" and not ev2.triggered
    assert sim.event_stats()["events_pooled"] == 1


def test_recycle_event_with_waiters_raises():
    sim = Simulator()
    ev = sim.acquire_event()

    def waiter():
        yield Wait(ev)

    sim.spawn(waiter())
    sim.run(until=0.0)  # let the waiter park on the event
    with pytest.raises(SimulationError):
        sim.recycle_event(ev)
