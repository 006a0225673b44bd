"""Pinned result digests of the traffic the end-to-end benchmark does not run.

e2ebench pins FR-FCFS cells without prefetching or DRAM refresh, and
analytic cells only on ``scaled_config()``'s 4,096-line LLC. These pins
cover the other schedulers, the prefetcher, refresh and a UCP cell on one
2-quantum mix, plus a controller-level request stream deep enough to trip
the write drain, which no scheduler cell reaches (none ever queues more
than one write), and analytic cells on the paper's 32,768-line LLC. A
change meant to be bit for bit keeps every digest here; a change that
moves one declares it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from repro.analytic.runner import run_analytic
from repro.config import DramConfig, SystemConfig, scaled_config
from repro.engine import Engine
from repro.experiments.common import default_mixes
from repro.harness.runner import AloneRunCache, run_workload
from repro.mem.controller import WRITE_DRAIN_WATERMARK, MemoryController
from repro.mem.request import MemRequest
from repro.mem.schedulers import (
    BlissScheduler,
    FrFcfsScheduler,
    ParbsScheduler,
    TcmScheduler,
)
from repro.models import AsmModel, FstModel, MiseModel, PtcaModel, StfmModel
from repro.policies import AsmCacheMemPolicy, UcpPolicy
from repro.resilience.campaign import result_to_json
from repro.workloads.mixes import make_mix


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


SCHEDULERS = {
    "frfcfs": FrFcfsScheduler,
    "parbs": ParbsScheduler,
    "tcm": lambda: TcmScheduler(4),
    "bliss": lambda: BlissScheduler(4),
}


def _config(variant: str):
    config = scaled_config().with_quantum(100_000, 5_000)
    if variant == "prefetcher":
        return config.with_prefetcher(True)
    if variant == "refresh":
        return dataclasses.replace(
            config, dram=dataclasses.replace(config.dram, refresh_enabled=True)
        )
    return config


def _cell(scheduler: str, variant: str, policy: str = "asm-cache-mem") -> str:
    config = _config(variant)
    sets = config.ats_sampled_sets
    models = {
        "fst": lambda: FstModel(filter_counters=None),
        "ptca": lambda: PtcaModel(sampled_sets=None),
        "asm": lambda: AsmModel(sampled_sets=sets),
        "mise": MiseModel,
        "stfm": StfmModel,
    }
    if policy == "ucp":
        policies = [lambda models: UcpPolicy()]
    else:
        policies = [lambda models: AsmCacheMemPolicy(models["asm"])]
    result = run_workload(
        make_mix(["mcf", "lbm", "libquantum", "soplex"], seed=7),
        config,
        model_factories=models,
        policy_factories=policies,
        scheduler_factory=SCHEDULERS[scheduler],
        quanta=2,
        alone_cache=AloneRunCache(),
    )
    return _digest(result_to_json(result))


CELL_PINS = {
    ("frfcfs", "default"):
        "465d8dfcaaaee3e3ce948e94762b1a0152ad44e419b2d6e2614fc84d190a424c",
    ("frfcfs", "prefetcher"):
        "b515dfc749246e86196874e4ab7b0058b4044ae657200038434f6a842b8e3e4c",
    ("frfcfs", "refresh"):
        "6822258252257a89ad616cc29de22376d9050bcb482f0547b15df1adca09c95f",
    ("parbs", "default"):
        "b0af7a1bd5a90583f207c7737518640df894835fe3087bbc00088bc8b362daca",
    ("parbs", "prefetcher"):
        "527ba1ff4e06cd6c5aa1305dd22656021764d155614924f73b3e12a8e3a51e27",
    ("parbs", "refresh"):
        "c0140724ff27f5d0e3f0d2d00ec72fb02c7f2c60e01641e140d11d84c93ac357",
    ("tcm", "default"):
        "bf8685be9991f338d35552add7da3d5a8e98ba64dd60fc9506ded2ea25bb63ba",
    ("tcm", "prefetcher"):
        "05261e6defc252490e76b427518a6e2b6e1e08340a426802271181e3389254f1",
    ("tcm", "refresh"):
        "6b52edd54892fc32fe1128282ad76d965506909cbebf553edfdd071b93866221",
    ("bliss", "default"):
        "865f080e20c3815f3ee1c0ceafef7281e7b70791d93ec50bebd14c89ca5bef2d",
    ("bliss", "prefetcher"):
        "2888a4c8d9e46dd4ff81abc138b46ea2ad82289fd0969adc5025efd74e587f77",
    ("bliss", "refresh"):
        "30407f416f9c78c0e243e3c9849751314160e3948cfdf21446774eea454ff058",
}

UCP_PIN = "a1c33e6da9b099b3a5e601753317e30a6f1e13003aa6a82380b19ac37fb4cfcd"


@pytest.mark.parametrize("scheduler,variant", sorted(CELL_PINS))
def test_scheduler_cell_digest_is_pinned(scheduler, variant):
    assert _cell(scheduler, variant) == CELL_PINS[scheduler, variant]


def test_ucp_cell_digest_is_pinned():
    assert _cell("frfcfs", "default", policy="ucp") == UCP_PIN


# -- controller-level stream ------------------------------------------------


def _stream(scheduler: str):
    """A seeded 4-core stream on 2 channels of 2 banks each.

    Reads arrive steadily from every core; every 3,000 cycles one core
    dumps a burst of writes, so the write queue passes
    ``WRITE_DRAIN_WATERMARK`` while reads are still waiting. The priority
    and accounting cores switch on their own schedules, as epochs and
    their warm-up windows switch them.
    """
    rng = random.Random(20151205)
    engine = Engine()
    dram = DramConfig(channels=2, banks_per_rank=2)
    controller = MemoryController(engine, dram, 4, SCHEDULERS[scheduler]())
    requests = []
    peak_writes = [0]
    lines = 64 * 128  # 64 rows: 16 per bank

    def enqueue(request):
        request.arrival_time = engine.now
        controller.enqueue(request)
        peak_writes[0] = max(
            peak_writes[0], max(len(q) for q in controller.write_queues)
        )

    def add(when, core, line, is_write):
        request = MemRequest(core, line, is_write=is_write)
        requests.append(request)
        engine.schedule_at(when, lambda r=request: enqueue(r))

    for when in range(0, 30_000, 37):
        add(when + rng.randrange(37), rng.randrange(4), rng.randrange(lines), False)
        if rng.random() < 0.2:
            add(when, rng.randrange(4), rng.randrange(lines), True)
    for when in range(1_000, 30_000, 3_000):
        core = rng.randrange(4)
        for _ in range(WRITE_DRAIN_WATERMARK + 16):
            add(when, core, rng.randrange(lines), True)
    for when in range(0, 30_000, 1_250):
        core = rng.randrange(-1, 4)
        engine.schedule_at(when, lambda c=core: controller.set_priority_core(c))
        engine.schedule_at(
            when + 200, lambda c=core: controller.set_accounting_core(c)
        )
        if when % 5_000 == 0:
            engine.schedule_at(
                when + 100, lambda: controller.set_accounting_core(-1)
            )
    engine.run()
    assert peak_writes[0] >= WRITE_DRAIN_WATERMARK
    assert all(r.completion_time is not None for r in requests)
    return {
        "requests": [
            [r.issue_time, r.completion_time, r.interference_cycles]
            for r in requests
        ],
        "queueing_cycles": controller.queueing_cycles,
    }


STREAM_PINS = {
    "frfcfs": "64dac3ca68715ce1f08f19452bdede879693ab5925b5fb29936da1e0556dfa27",
    "parbs": "c86eebcc4c978364ae7ebd3c567e73351032731f6c1f70e076a848a2069f8b85",
    "tcm": "d5af3c49a4dd6e9c24b3c1bb99f79bd3bc18ecd83c64340c0ad4f9071f07cd89",
    "bliss": "32ce5d92936f7008fc07af02f8ab10cc8fb24a77c4923b28b36d117da07ccd87",
}


@pytest.mark.parametrize("scheduler", sorted(STREAM_PINS))
def test_controller_stream_is_pinned(scheduler):
    assert _digest(_stream(scheduler)) == STREAM_PINS[scheduler]


# -- the analytic tier at paper scale ---------------------------------------

#: 2-quantum analytic cells on ``SystemConfig()``, the first of
#: ``default_mixes(1, cores, seed=42)``. On this LLC most reuses sit far
#: below capacity, where the co-runner bound of ``analytic.llc`` decides
#: them without the insertion sum.
ANALYTIC_PINS = {
    4: "b1de9efa83883f147862caf31ab0a00a80f4575e76d33d3ce8a58b90bdd1fd8a",
    8: "3078cb46655bc0c4036439bc44878df2714147fb983787f557bca9da3740228d",
}


@pytest.mark.parametrize("cores", sorted(ANALYTIC_PINS))
def test_paper_scale_analytic_cell_is_pinned(cores):
    mix = default_mixes(1, cores, seed=42)[0]
    result = run_analytic(mix, SystemConfig(), quanta=2)
    assert _digest(result_to_json(result)) == ANALYTIC_PINS[cores]
