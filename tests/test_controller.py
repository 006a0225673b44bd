"""Unit tests for the memory controller."""

import pytest

from repro.config import DramConfig
from repro.engine import Engine
from repro.mem.controller import MemoryController, WRITE_DRAIN_WATERMARK
from repro.mem.request import MemRequest


@pytest.fixture
def setup():
    engine = Engine()
    controller = MemoryController(engine, DramConfig(), num_cores=2)
    return engine, controller


def _read(core, line, callback=None):
    return MemRequest(core=core, line_addr=line, callback=callback)


def test_single_read_completes_with_closed_row_latency(setup):
    engine, controller = setup
    done = []
    request = _read(0, 0, callback=lambda r: done.append(r.completion_time))
    request.arrival_time = 0
    controller.enqueue(request)
    engine.run()
    dram = controller.config
    assert done == [dram.trcd + dram.cas_latency + dram.burst_time]
    assert controller.reads_issued[0] == 1


def test_row_hits_counted(setup):
    engine, controller = setup
    done = []
    for line in range(4):  # same row
        controller.enqueue(
            _read(0, line, callback=lambda r: done.append(r.completion_time))
        )
    engine.run()
    # The first read opens the row; the other three are row hits, each
    # served in CAS plus burst once the bank frees.
    dram = controller.config
    opened = dram.trcd + dram.cas_latency + dram.burst_time
    hit = dram.cas_latency + dram.burst_time
    assert done == [opened + k * hit for k in range(4)]


def test_completion_listeners_see_reads_not_writes(setup):
    engine, controller = setup
    seen = []
    controller.completion_listeners.append(lambda r: seen.append(r))
    controller.enqueue(_read(0, 0))
    controller.enqueue(MemRequest(core=1, line_addr=1000, is_write=True))
    engine.run()
    assert len(seen) == 1 and not seen[0].is_write


def test_priority_core_served_first(setup):
    engine, controller = setup
    order = []
    # Two requests to the same bank, different rows; core 1 arrives later
    # but has priority.
    mapping = controller.mapping
    stride = mapping.lines_per_row * controller.config.banks_per_rank
    controller.set_priority_core(1)
    first = _read(0, 0, callback=lambda r: order.append(0))
    second = _read(1, stride, callback=lambda r: order.append(1))
    first.arrival_time = 0
    second.arrival_time = 0
    # Enqueue both before the engine runs: the controller wakes once.
    controller.enqueue(first)
    controller.enqueue(second)
    engine.run()
    assert order[0] == 1


def test_interference_attributed_to_waiting_request(setup):
    engine, controller = setup
    mapping = controller.mapping
    stride = mapping.lines_per_row * controller.config.banks_per_rank
    a = _read(0, 0)
    b = _read(1, stride)  # same bank, other core
    controller.enqueue(a)
    controller.enqueue(b)
    engine.run()
    assert b.interference_cycles > 0
    assert a.interference_cycles == 0


def test_no_interference_between_same_core_requests(setup):
    engine, controller = setup
    mapping = controller.mapping
    stride = mapping.lines_per_row * controller.config.banks_per_rank
    a = _read(0, 0)
    b = _read(0, stride)
    controller.enqueue(a)
    controller.enqueue(b)
    engine.run()
    assert b.interference_cycles == 0


def test_queueing_cycles_accrue_for_priority_core(setup):
    engine, controller = setup
    mapping = controller.mapping
    stride = mapping.lines_per_row * controller.config.banks_per_rank
    # Core 0's request occupies the bank; then core 1 (priority) waits.
    controller.enqueue(_read(0, 0))
    engine.run()
    controller.set_priority_core(1)
    blocker = _read(0, 2 * stride)
    controller.enqueue(blocker)
    # Let the blocker win the bank before the priority request arrives.
    engine.run(until=engine.now + 1)
    waiter = _read(1, stride)
    waiter.arrival_time = engine.now
    controller.enqueue(waiter)
    engine.run()
    assert controller.queueing_cycles[1] > 0


def test_write_drain_at_watermark(setup):
    engine, controller = setup
    # Stuff the write queue past the watermark; writes must issue even
    # though reads keep arriving.
    for i in range(WRITE_DRAIN_WATERMARK + 4):
        controller.enqueue(MemRequest(core=0, line_addr=i * 128, is_write=True))
    controller.enqueue(_read(1, 1))
    engine.run()
    assert not controller.write_queues[0]
    assert not controller.read_queues[0]


def test_outstanding_reads(setup):
    engine, controller = setup
    controller.enqueue(_read(0, 0))
    controller.enqueue(_read(0, 64))
    assert controller.outstanding_reads(0) == 2
    engine.run()
    assert controller.outstanding_reads(0) == 0


def test_controller_callbacks_keep_the_tracer_contract(monkeypatch):
    """The end-to-end benchmark's tracer reads the controller from outside:
    an engine callback defined in this module is a wake-up when its
    qualname names ``__init__`` (the per-channel issue thunks) and a
    completion when it names ``._issue.`` (the closures ``_issue`` builds);
    issues are ``Scheduler.pick`` calls, and row hits are counted through
    the module's ``service_request``. A refactor that renamed any of these
    would zero a traced metric rather than fail, so this test pins them."""
    import repro.mem.controller as controller_module
    from repro.mem.schedulers import FrFcfsScheduler

    engine = Engine()
    scheduled = []
    for name in ("schedule", "schedule_at"):
        def record(when, callback, _original=getattr(engine, name)):
            scheduled.append(callback)
            _original(when, callback)

        monkeypatch.setattr(engine, name, record)
    picks = []

    class RecordingFrFcfs(FrFcfsScheduler):
        def pick(self, candidates, channel, now):
            choice = super().pick(candidates, channel, now)
            assert choice in candidates
            picks.append(choice)
            return choice

    services = []
    service_request = controller_module.service_request

    def recording_service(channel, request, now, config):
        services.append(request)
        return service_request(channel, request, now, config)

    monkeypatch.setattr(controller_module, "service_request", recording_service)
    controller = MemoryController(
        engine, DramConfig(), num_cores=2, scheduler=RecordingFrFcfs()
    )
    stride = controller.mapping.lines_per_row * controller.config.banks_per_rank
    requests = [_read(i % 2, i * stride // 3) for i in range(6)]
    requests.append(MemRequest(core=1, line_addr=7 * stride, is_write=True))
    for request in requests:
        controller.enqueue(request)
    engine.run()

    module = controller_module.__name__
    ours = [cb for cb in scheduled if getattr(cb, "__module__", "") == module]
    wakes = [cb for cb in ours if "__init__" in cb.__qualname__]
    completions = [cb for cb in ours if "._issue." in cb.__qualname__]
    assert wakes, "wake thunks must be lambdas built in MemoryController.__init__"
    assert len(completions) == len(requests)
    assert len(wakes) + len(completions) == len(ours)
    assert picks == services and sorted(map(id, picks)) == sorted(map(id, requests))
