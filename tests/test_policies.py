"""Tests for the resource-management policies."""

import dataclasses

import pytest

from repro.config import scaled_config
from repro.harness.runner import AloneRunCache, run_workload
from repro.harness.system import System
from repro.models.asm import AsmModel
from repro.policies.asm_cache import AsmCachePolicy
from repro.policies.asm_mem import AsmMemPolicy
from repro.policies.combined import AsmCacheMemPolicy
from repro.policies.mcfq import McfqPolicy
from repro.policies.qos import AsmQosPolicy, NaiveQosPolicy
from repro.policies.ucp import UcpPolicy
from repro.workloads.mixes import make_mix


@pytest.fixture(scope="module")
def quick_config():
    return scaled_config().with_quantum(200_000, 5_000)


@pytest.fixture(scope="module")
def mixed_mix():
    # One cache-hungry, one streaming, one sensitive, one light.
    return make_mix(["mcf", "lbm", "ft", "h264ref"], seed=6)


def _system_with(policy_builder, config, mix):
    system = System(
        dataclasses.replace(config, num_cores=mix.num_cores),
        mix.traces(),
        seed=mix.seed,
    )
    asm = AsmModel(sampled_sets=16)
    asm.attach(system)
    policy = policy_builder(asm)
    policy.attach(system)
    return system, asm, policy


def test_ucp_installs_full_partition(quick_config, mixed_mix):
    system, _, policy = _system_with(
        lambda asm: UcpPolicy(), quick_config, mixed_mix
    )
    system.run_quantum()
    allocation = policy.last_allocation
    assert allocation is not None
    assert sum(allocation) == quick_config.llc.associativity
    assert all(w >= 1 for w in allocation)
    assert system.hierarchy.llc.partition == allocation


def test_ucp_gives_cache_hungry_app_more_ways(quick_config):
    mix = make_mix(["ft", "libquantum"], seed=7)
    system, _, policy = _system_with(lambda asm: UcpPolicy(), quick_config, mix)
    system.run_quantum()
    system.run_quantum()
    allocation = policy.last_allocation
    assert allocation[0] > allocation[1], "ft reuses; libquantum streams"


def test_asm_cache_partitions_and_projects(quick_config, mixed_mix):
    system, _, policy = _system_with(
        lambda asm: AsmCachePolicy(asm), quick_config, mixed_mix
    )
    system.run_quantum()
    assert sum(policy.last_allocation) == quick_config.llc.associativity
    assert len(policy.projected_slowdowns) == mixed_mix.num_cores
    assert all(s >= 1.0 for s in policy.projected_slowdowns)


def test_asm_cache_requires_attached_model(quick_config, mixed_mix):
    system = System(
        dataclasses.replace(quick_config, num_cores=4), mixed_mix.traces()
    )
    foreign_asm = AsmModel()
    policy = AsmCachePolicy(foreign_asm)
    with pytest.raises(ValueError):
        policy.attach(system)


@pytest.mark.parametrize(
    "make_policy",
    [
        AsmCachePolicy,
        AsmMemPolicy,
        AsmCacheMemPolicy,
        lambda asm: AsmQosPolicy(asm, 0, 2.0),
    ],
    ids=["asm-cache", "asm-mem", "asm-cache-mem", "asm-qos"],
)
def test_asm_policy_rejects_model_of_another_system(
    quick_config, mixed_mix, make_policy
):
    config = dataclasses.replace(quick_config, num_cores=4)
    asm = AsmModel()
    asm.attach(System(config, mixed_mix.traces()))
    system = System(config, mixed_mix.traces())
    listeners = list(system.quantum_listeners)
    with pytest.raises(ValueError, match="attached to the same system"):
        make_policy(asm).attach(system)
    assert system.quantum_listeners == listeners


def test_mcfq_partitions(quick_config, mixed_mix):
    system, _, policy = _system_with(
        lambda asm: McfqPolicy(), quick_config, mixed_mix
    )
    system.run_quantum()
    assert sum(policy.last_allocation) == quick_config.llc.associativity


def test_asm_mem_sets_epoch_weights(quick_config, mixed_mix):
    system, asm, _ = _system_with(
        lambda asm: AsmMemPolicy(asm), quick_config, mixed_mix
    )
    assert system.epoch_weights is None
    system.run_quantum()
    assert system.epoch_weights == asm.estimates_history[-1]


def test_combined_policy_sets_both(quick_config, mixed_mix):
    system, _, policy = _system_with(
        lambda asm: AsmCacheMemPolicy(asm), quick_config, mixed_mix
    )
    system.run_quantum()
    assert system.hierarchy.llc.partition is not None
    assert system.epoch_weights == policy.cache_policy.projected_slowdowns


def test_naive_qos_allocates_all_ways_immediately(quick_config, mixed_mix):
    system = System(
        dataclasses.replace(quick_config, num_cores=4),
        mixed_mix.traces(),
        seed=1,
    )
    policy = NaiveQosPolicy(target_core=2)
    policy.attach(system)
    partition = system.hierarchy.llc.partition
    assert partition[2] == quick_config.llc.associativity
    assert sum(partition) == quick_config.llc.associativity


def test_asm_qos_respects_bound_monotonicity(quick_config, mixed_mix):
    def target_ways(bound):
        system, _, policy = _system_with(
            lambda asm: AsmQosPolicy(asm, 0, bound), quick_config, mixed_mix
        )
        system.run_quantum()
        return policy.last_allocation[0]

    tight = target_ways(1.2)
    loose = target_ways(5.0)
    assert tight >= loose, "a tighter bound needs at least as many ways"


def test_asm_qos_validation(quick_config, mixed_mix):
    with pytest.raises(ValueError):
        AsmQosPolicy(AsmModel(), 0, 0.5)
    system = System(
        dataclasses.replace(quick_config, num_cores=4), mixed_mix.traces()
    )
    asm = AsmModel()
    asm.attach(system)
    with pytest.raises(ValueError):
        AsmQosPolicy(asm, 99, 2.0).attach(system)


def test_asm_cache_improves_fairness_over_nopart(quick_config):
    """End-to-end sanity: slowdown-aware partitioning should not hurt, and
    usually helps, unfairness on a cache-contended mix."""
    mix = make_mix(["mcf", "soplex", "ft", "lbm"], seed=9)
    cache = AloneRunCache()
    base = run_workload(mix, quick_config, quanta=3, alone_cache=cache)
    asm_cache = run_workload(
        mix,
        quick_config,
        quanta=3,
        alone_cache=cache,
        model_factories={"asm": lambda: AsmModel(sampled_sets=16)},
        policy_factories=[lambda models: AsmCachePolicy(models["asm"])],
    )
    assert asm_cache.max_slowdown() <= base.max_slowdown() * 1.10
