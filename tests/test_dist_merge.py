"""Property test: the shard merge is arrival-order- and duplicate-proof.

The distributed coordinator's bit-identity contract reduces to one
algebraic property of the Runner's merge folds: for any arrival
sequence of :class:`~repro.runner.ShardResult` objects that covers
every shard index at least once — any permutation, any number of
duplicate deliveries — ``_merge_prefetch`` and ``_merge_realtime``
produce exactly the outcome of the canonical in-order sequence.
Hypothesis drives the arrival sequences; the shard results themselves
are real (one executed headline run), so the accumulators being folded
are the production ones, not stand-ins.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import (
    Runner,
    _merge_prefetch,
    _merge_realtime,
    canonical_shard_results,
    run_shard,
)

N_SHARDS = 3

#: Arrival sequences: every shard index at least once, duplicates and
#: any interleaving allowed (what an unreliable worker fleet delivers).
ARRIVALS = st.lists(
    st.integers(min_value=0, max_value=N_SHARDS - 1),
    min_size=N_SHARDS, max_size=2 * N_SHARDS + 2,
).filter(lambda seq: set(seq) == set(range(N_SHARDS)))


@pytest.fixture(scope="module")
def shard_results(tiny_config, tiny_world):
    """Real shard results of one headline run, in shard order."""
    runner = Runner(tiny_config, shards=N_SHARDS, world=tiny_world)
    return [run_shard(job) for job in runner._jobs("headline", tiny_world)]


@pytest.fixture(scope="module")
def baseline(shard_results, tiny_config):
    return (_merge_prefetch(shard_results, tiny_config),
            _merge_realtime(shard_results))


@settings(max_examples=40, deadline=None)
@given(arrivals=ARRIVALS)
def test_merges_are_invariant_under_arrival_order_and_duplicates(
        shard_results, baseline, tiny_config, arrivals):
    # Duplicates are *copies*, as a re-executed shard would deliver —
    # first-wins must not depend on object identity.
    seen: set[int] = set()
    delivered = []
    for index in arrivals:
        original = shard_results[index]
        delivered.append(original if index not in seen
                         else copy.deepcopy(original))
        seen.add(index)
    assert _merge_prefetch(delivered, tiny_config) == baseline[0]
    assert _merge_realtime(delivered) == baseline[1]


@settings(max_examples=40, deadline=None)
@given(arrivals=ARRIVALS)
def test_canonical_shard_results_normalizes_any_arrival(
        shard_results, arrivals):
    delivered = [shard_results[index] for index in arrivals]
    canonical = canonical_shard_results(delivered)
    assert [r.shard_index for r in canonical] == list(range(N_SHARDS))
    assert canonical == shard_results
