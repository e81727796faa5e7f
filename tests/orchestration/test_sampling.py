"""Tests for random and priority-guided sampling."""

import gc
import pickle
import statistics

import pytest

from repro.aig.aig import Aig
from repro.aig.kernels import LevelizedAig, levelized
from repro.circuits.benchmarks import load_benchmark
from repro.orchestration.decision import Operation
from repro.orchestration.sampling import (
    PriorityGuidedSampler,
    RandomSampler,
    evaluate_samples,
)


def test_random_sampler_covers_all_nodes(example_aig):
    sampler = RandomSampler(example_aig, seed=0)
    decisions = sampler.sample()
    assert set(iter(decisions)) == set(example_aig.nodes())


def test_random_sampler_is_deterministic(example_aig):
    first = RandomSampler(example_aig, seed=7).generate(3)
    second = RandomSampler(example_aig, seed=7).generate(3)
    assert [dict(v.items()) for v in first] == [dict(v.items()) for v in second]


def test_random_samples_differ_across_batch(example_aig):
    samples = RandomSampler(example_aig, seed=1).generate(4)
    assert len({tuple(sorted(v.items())) for v in samples}) > 1


def test_guided_base_sample_prefers_applicable_priority_op(example_aig):
    sampler = PriorityGuidedSampler(example_aig, seed=0)
    base = sampler.base_sample()
    analysis = sampler.analysis
    for node, operation in base.items():
        info = analysis[node]
        if info.rewrite_applicable:
            assert operation == Operation.REWRITE
        elif info.resub_applicable:
            assert operation == Operation.RESUB
        elif info.refactor_applicable:
            assert operation == Operation.REFACTOR


def test_guided_generate_returns_requested_count(example_aig):
    sampler = PriorityGuidedSampler(example_aig, seed=0)
    samples = sampler.generate(5)
    assert len(samples) == 5
    # The first sample is the unmutated base sample.
    assert dict(samples[0].items()) == dict(sampler.base_sample().items())


def test_guided_mutation_fraction_bounds(example_aig):
    with pytest.raises(ValueError):
        PriorityGuidedSampler(example_aig, min_fraction=0.9, max_fraction=0.1)


def test_mutate_changes_subset_of_nodes(example_aig):
    import random

    sampler = PriorityGuidedSampler(example_aig, seed=0)
    base = sampler.base_sample()
    mutated = sampler.mutate(base, 0.5, random.Random(3))
    differences = sum(1 for node in base if base[node] != mutated[node])
    assert 0 <= differences <= len(base)
    assert len(mutated) == len(base)


def test_evaluate_samples_records_results(example_aig):
    sampler = PriorityGuidedSampler(example_aig, seed=0)
    records = evaluate_samples(example_aig, sampler.generate(3))
    assert len(records) == 3
    for record in records:
        assert record.result is not None
        assert record.size_after <= example_aig.size
        assert record.reduction == example_aig.size - record.size_after


def test_guided_sampling_is_no_worse_than_random_on_average(example_aig):
    """The paper's Figure 2 claim at miniature scale: guided mean <= random mean."""
    random_records = evaluate_samples(example_aig, RandomSampler(example_aig, seed=3).generate(6))
    guided_records = evaluate_samples(
        example_aig, PriorityGuidedSampler(example_aig, seed=3).generate(6)
    )
    random_mean = statistics.mean(r.size_after for r in random_records)
    guided_mean = statistics.mean(r.size_after for r in guided_records)
    assert guided_mean <= random_mean + 1.0


#: The pickled state of an :class:`Aig`, field for field and in this order:
#: the structure only, never a cached snapshot.
_PICKLED_FIELDS = [
    "name", "_type", "_fanin0", "_fanin1", "_fanouts", "_po_refs", "_pis",
    "_pi_names", "_pos", "_po_names", "_strash", "_levels",
    "modification_count", "_forwarding", "_mutation_journal",
]


@pytest.fixture(scope="module")
def c880_samples():
    """64 guided c880 samples, each DFS recorded with its (network, version).

    Returns the design, the records, the recorded calls (which hold their
    networks, so no id is reused) and the snapshots alive before the run.
    """
    gc.collect()
    before = [obj for obj in gc.get_objects() if isinstance(obj, LevelizedAig)]
    design = load_benchmark("c880")
    vectors = PriorityGuidedSampler(design, seed=1).generate(64)
    calls = []
    original = Aig.topological_order

    def recording(self):
        calls.append((self, self.modification_count))
        return original(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Aig, "topological_order", recording)
        records = evaluate_samples(design, vectors)
    return design, records, calls, before


def test_evaluate_samples_runs_one_dfs_per_network_version(c880_samples):
    _, _, calls, _ = c880_samples
    keys = [(id(network), version) for network, version in calls]
    assert keys
    assert len(keys) == len(set(keys))


def test_sampled_copies_keep_no_stale_snapshot(c880_samples):
    design, records, _, before = c880_samples
    gc.collect()
    known = {id(view) for view in before}
    created = [
        obj for obj in gc.get_objects()
        if isinstance(obj, LevelizedAig) and id(obj) not in known
    ]
    networks = [design] + [record.result.optimized for record in records]
    # levelized() hands back a network's snapshot only while it is current.
    current = {id(levelized(network)) for network in networks}
    stale = [view for view in created if id(view) not in current]
    assert created
    assert not stale


def test_sampled_copies_pickle_only_their_structure(c880_samples):
    _, records, _, _ = c880_samples
    for record in records:
        network = record.result.optimized
        levelized(network)  # a live snapshot must not reach the pickle
        assert list(network.__getstate__()) == _PICKLED_FIELDS
        data = pickle.dumps(network)
        clone = pickle.loads(data)
        assert pickle.dumps(clone) == data
        assert levelized(clone).version == clone.modification_count
