"""Unit tests for memory scheduling policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DramConfig
from repro.mem.dram import Channel, DramMapping, service_request
from repro.mem.request import MemRequest
from repro.mem.schedulers import (
    PARBS_MARKING_CAP,
    TCM_CLUSTER_PERIOD,
    FrFcfsScheduler,
    ParbsScheduler,
    TcmScheduler,
)


def _channel_with_open_row(dram, row_line=0):
    channel = Channel(dram.banks_per_rank)
    mapping = DramMapping(dram)
    opener = MemRequest(core=0, line_addr=row_line)
    opener.channel, opener.bank, opener.row = mapping.locate(row_line)
    service_request(channel, opener, 0, dram)
    return channel, mapping


def _req(mapping, line, core, arrival):
    request = MemRequest(core=core, line_addr=line, arrival_time=arrival)
    request.channel, request.bank, request.row = mapping.locate(line)
    return request


def test_frfcfs_prefers_row_hits():
    dram = DramConfig()
    channel, mapping = _channel_with_open_row(dram)
    row_hit = _req(mapping, 1, core=0, arrival=100)
    older_miss = _req(mapping, mapping.lines_per_row * 99, core=1, arrival=10)
    pick = FrFcfsScheduler().pick([older_miss, row_hit], channel, 200)
    assert pick is row_hit


def test_frfcfs_prefers_oldest_among_equals():
    dram = DramConfig()
    channel, mapping = _channel_with_open_row(dram)
    a = _req(mapping, mapping.lines_per_row * 50, core=0, arrival=30)
    b = _req(mapping, mapping.lines_per_row * 60, core=1, arrival=20)
    pick = FrFcfsScheduler().pick([a, b], channel, 100)
    assert pick is b


def test_parbs_marks_batch_and_prefers_marked():
    dram = DramConfig()
    channel, mapping = _channel_with_open_row(dram)
    scheduler = ParbsScheduler()
    # More requests on one (core, bank) than a batch may mark.
    stride = mapping.lines_per_row * dram.banks_per_rank
    queue = [
        _req(mapping, i * stride, core=0, arrival=i)
        for i in range(PARBS_MARKING_CAP + 2)
    ]
    scheduler.register_queues([queue])
    pick = scheduler.pick(queue, channel, 100)
    # The batch marks the oldest PARBS_MARKING_CAP and serves one of them.
    assert [r.marked for r in queue] == [True] * PARBS_MARKING_CAP + [False] * 2
    assert pick.marked


def test_parbs_ranks_light_core_first():
    dram = DramConfig()
    channel, mapping = _channel_with_open_row(dram)
    scheduler = ParbsScheduler()
    # Core 0: 4 requests on one bank; core 1: 1 request on the same bank.
    stride = mapping.lines_per_row * dram.banks_per_rank
    queue = [_req(mapping, i * stride, core=0, arrival=i) for i in range(4)]
    light = _req(mapping, 99 * stride, core=1, arrival=50)
    queue.append(light)
    scheduler.register_queues([queue])
    pick = scheduler.pick(queue, channel, 100)
    assert pick.core == 1, "shortest-job-first: the light core goes first"


def test_tcm_prioritises_latency_sensitive_cluster():
    dram = DramConfig()
    channel, mapping = _channel_with_open_row(dram)
    scheduler = TcmScheduler(num_cores=2)
    # Core 0 heavy (90 reads), core 1 light (10 reads), over the first
    # clustering period.
    scheduler.update(TCM_CLUSTER_PERIOD, [90, 10])
    heavy = _req(mapping, mapping.lines_per_row * 10, core=0, arrival=5)
    light = _req(mapping, mapping.lines_per_row * 20, core=1, arrival=50)
    pick = scheduler.pick([heavy, light], channel, TCM_CLUSTER_PERIOD)
    assert pick.core == 1


def test_tcm_shuffles_bandwidth_ranks_deterministically():
    s1 = TcmScheduler(num_cores=4)
    s2 = TcmScheduler(num_cores=4)
    s1.update(1_000_001, [10, 20, 30, 40])
    s2.update(1_000_001, [10, 20, 30, 40])
    assert s1._bw_rank == s2._bw_rank


def test_tcm_recluster_period():
    scheduler = TcmScheduler(num_cores=2)
    scheduler.update(TCM_CLUSTER_PERIOD + 1, [100, 0])
    first = set(scheduler._latency_cluster)
    # Before the next period, updates don't recluster.
    scheduler.update(TCM_CLUSTER_PERIOD * 3 // 2, [100, 500])
    assert set(scheduler._latency_cluster) == first


# -- FR-FCFS's one-pass pick against the max() it replaced ---------------

_ROWS = st.integers(min_value=0, max_value=3)
_CANDIDATES = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),  # bank
        _ROWS,  # row
        st.integers(min_value=0, max_value=6),  # arrival: ties and disorder
    ),
    min_size=1,
    max_size=24,
)


@given(
    open_rows=st.lists(st.one_of(st.none(), _ROWS), min_size=8, max_size=8),
    specs=_CANDIDATES,
)
@settings(max_examples=300, deadline=None)
def test_frfcfs_pick_equals_max_by_row_hit_then_oldest(open_rows, specs):
    channel = Channel(8)
    for bank, row in zip(channel.banks, open_rows):
        bank.open_row = row
    candidates = []
    for bank, row, arrival in specs:
        request = MemRequest(core=0, line_addr=0, arrival_time=arrival)
        request.bank, request.row = bank, row
        candidates.append(request)
    expected = max(
        candidates,
        key=lambda r: (channel.banks[r.bank].open_row == r.row, -r.arrival_time),
    )
    assert FrFcfsScheduler().pick(candidates, channel, 0) is expected
