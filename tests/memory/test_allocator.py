"""Tests for the static memory-sharing allocator."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import GistConfig, build_gist_plan
from repro.core.policy import (
    HybridPolicy,
    STRATEGY_GIST,
    STRATEGY_RECOMPUTE,
    STRATEGY_SHARED_CONCAT,
    STRATEGY_SWAP,
)
from repro.graph.liveness import LiveTensor, ROLE_FEATURE_MAP
from repro.memory import (
    POLICY_FIRST_FIT,
    POLICY_GREEDY_SIZE,
    POLICY_NO_SHARING,
    StaticAllocator,
    build_hybrid_plan,
    build_memory_plan,
    simulate_dynamic,
)
from repro.models import available_models, build_model
from repro.tensor import TensorSpec
from repro.verify.fuzzer import GraphFuzzer
from repro.verify.oracles import interval_clique_bound


def lt(name, elements, birth, death, shareable=True):
    return LiveTensor(
        TensorSpec(name, (elements,)), birth, death, 0, ROLE_FEATURE_MAP,
        shareable,
    )


class TestPaperExample:
    """Figure 7: five tensors, baseline groups total 18 MB."""

    MB = 1024 * 1024 // 4  # elements per MB of FP32

    def test_baseline_18mb(self):
        # X stashed across the whole step; A..D immediately consumed, each
        # pairwise disjoint but overlapping X.
        tensors = [
            lt("X", 10 * self.MB, 0, 9),
            lt("A", 8 * self.MB, 2, 3),
            lt("B", 6 * self.MB, 4, 5),
            lt("C", 8 * self.MB, 6, 7),
            lt("D", 2 * self.MB, 8, 8),
        ]
        result = StaticAllocator().allocate(tensors)
        assert result.total_bytes == 18 * 1024 * 1024
        assert len(result.groups) == 2

    def test_after_encoding_12mb(self):
        # SSDC splits X into FP32 (forward only), 2 MB encoded (the gap),
        # and a decoded copy at the backward use — Figure 7(b).  The FP32
        # pieces become immediately-consumed and join A..D's group; only
        # the 2 MB encoded tensor stays stashed.
        tensors = [
            lt("X_fp32", 10 * self.MB, 0, 1),
            lt("X_enc", 2 * self.MB, 1, 9),
            lt("X_dec", 10 * self.MB, 9, 9),
            lt("A", 8 * self.MB, 2, 3),
            lt("B", 6 * self.MB, 4, 5),
            lt("C", 8 * self.MB, 6, 7),
            lt("D", 2 * self.MB, 8, 8),
        ]
        result = StaticAllocator().allocate(tensors)
        assert result.total_bytes == 12 * 1024 * 1024


class TestCorrectness:
    def test_group_members_never_overlap(self):
        rng = np.random.default_rng(3)
        tensors = []
        for i in range(200):
            birth = int(rng.integers(0, 50))
            death = birth + int(rng.integers(0, 20))
            tensors.append(lt(f"t{i}", int(rng.integers(1, 1000)), birth, death))
        result = StaticAllocator().allocate(tensors)
        for group in result.groups:
            for i, a in enumerate(group.members):
                for b in group.members[i + 1:]:
                    assert not a.overlaps(b), (a.spec.name, b.spec.name)

    def test_every_tensor_placed_once(self):
        tensors = [lt(f"t{i}", 10 + i, i % 5, i % 5 + 2) for i in range(50)]
        result = StaticAllocator().allocate(tensors)
        placed = [t.spec.name for g in result.groups for t in g.members]
        assert sorted(placed) == sorted(t.spec.name for t in tensors)

    def test_footprint_bounds(self):
        tensors = [lt(f"t{i}", 100 + i, i, i + 1) for i in range(20)]
        total = StaticAllocator().allocate(tensors).total_bytes
        assert total >= max(t.size_bytes for t in tensors)
        assert total <= sum(t.size_bytes for t in tensors)

    def test_non_shareable_gets_dedicated_group(self):
        tensors = [
            lt("pinned", 100, 0, 0, shareable=False),
            lt("other", 100, 5, 5),
        ]
        result = StaticAllocator().allocate(tensors)
        assert sorted([t.spec.name for t in g.members]
                      for g in result.groups) == [["other"], ["pinned"]]

    def test_disjoint_lifetimes_share(self):
        tensors = [lt("a", 100, 0, 1), lt("b", 100, 2, 3)]
        assert StaticAllocator().allocate(tensors).total_bytes == 400  # one shared group

    def test_adjacent_lifetimes_do_not_share(self):
        # Inclusive intervals: death==birth of the next means both live at
        # that step (producer/consumer of one op cannot alias).
        tensors = [lt("a", 100, 0, 2), lt("b", 100, 2, 3)]
        assert StaticAllocator().allocate(tensors).total_bytes == 800

    def test_group_size_is_max_member(self):
        tensors = [lt("big", 1000, 0, 1), lt("small", 10, 5, 6)]
        result = StaticAllocator().allocate(tensors)
        assert len(result.groups) == 1
        assert result.groups[0].size_bytes == 4000

    def test_policies(self):
        tensors = [lt(f"t{i}", 50 * (i + 1), 2 * i, 2 * i + 1) for i in range(6)]
        none, greedy, first = (
            StaticAllocator(policy).allocate(tensors).total_bytes
            for policy in (POLICY_NO_SHARING, POLICY_GREEDY_SIZE,
                           POLICY_FIRST_FIT))
        assert greedy <= first <= none

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            StaticAllocator("magic")

    def test_inverted_interval_occupies_its_birth_step(self):
        # LiveTensor validates death >= birth only at construction; the
        # fault-injection battery truncates .death afterwards.  Such a
        # tensor must not become a zero-width interval that fits (and
        # never blocks) every group.
        bad = lt("bad", 50, 4, 4)
        bad.death = 3

        def groups(*tensors):
            result = StaticAllocator(POLICY_FIRST_FIT).allocate(tensors)
            return [[t.spec.name for t in g.members] for g in result.groups]

        assert groups(lt("a", 100, 3, 5), bad) == [["a"], ["bad"]]
        assert groups(bad, lt("c", 10, 4, 4)) == [["bad"], ["c"]]
        assert groups(bad, lt("d", 10, 5, 6)) == [["bad", "d"]]
        assert groups(bad, lt("e", 10, 2, 3)) == [["bad", "e"]]

    def test_dynamic_charges_an_inverted_interval_at_its_birth_step(self):
        # Same corrupted-table contract: the simulator must charge the
        # bytes at the birth step, not subtract them from the steps in
        # between, or "static >= dynamic peak" compares two tables.
        bad = lt("bad", 50, 4, 4)
        bad.death = 2
        tensors = [lt("a", 100, 0, 5), bad]
        result = simulate_dynamic(tensors)
        assert result.timeline == (400, 400, 400, 400, 600, 400)
        assert (result.peak_bytes, result.peak_time) == (600, 4)
        assert StaticAllocator().allocate(tensors).total_bytes == 600
        bad.death = -1
        assert simulate_dynamic(tensors, horizon=6).timeline == result.timeline

    def test_clique_bound_charges_an_inverted_interval_at_its_birth_step(self):
        # The third reading of one corrupted table: the oracle's clique
        # bound must see the same 600 B the allocator and simulator charge.
        bad = lt("bad", 50, 4, 4)
        bad.death = 2
        tensors = [lt("a", 100, 0, 5), bad]
        assert interval_clique_bound(tensors) == 600
        assert (interval_clique_bound(tensors)
                == simulate_dynamic(tensors).peak_bytes
                == StaticAllocator().allocate(tensors).total_bytes)
        bad.death = -1
        assert interval_clique_bound(tensors) == 600
        assert interval_clique_bound([lt("c", 10, 3, 3), bad]) == 200
        assert interval_clique_bound([lt("c", 10, 4, 4), bad]) == 240

    def test_sharing_ratio(self):
        tensors = [lt("a", 100, 0, 1), lt("b", 100, 2, 3)]
        result = StaticAllocator().allocate(tensors)
        unshared = sum(t.size_bytes for t in tensors)
        assert unshared / result.total_bytes == pytest.approx(2.0)


def reference_groups(tensors, policy):
    """First-fit by pairwise ``overlaps`` — O(n^2), no occupancy
    structure: the ground truth ``StaticAllocator`` must match group for
    group, member for member."""
    share = policy != POLICY_NO_SHARING
    aliased, rest = {}, []
    for t in tensors:
        if share and t.shareable and t.alias_group is not None:
            aliased.setdefault(t.alias_group, []).append(t)
        else:
            rest.append(t)
    groups = [aliased[label] for label in sorted(aliased)]
    if policy == POLICY_GREEDY_SIZE:
        rest.sort(key=lambda t: (-t.size_bytes, t.spec.name))
    open_groups = []
    for t in rest:
        home = None
        if share and t.shareable:
            home = next((g for g in open_groups
                         if not any(t.overlaps(m) for m in g)), None)
        if home is None:
            home = []
            groups.append(home)
            if share and t.shareable:
                open_groups.append(home)
        home.append(t)
    return groups


def _assert_matches_reference(tensors, context):
    for policy in (POLICY_GREEDY_SIZE, POLICY_FIRST_FIT, POLICY_NO_SHARING):
        result = StaticAllocator(policy).allocate(tensors)
        expected = reference_groups(tensors, policy)
        assert [[t.spec.name for t in g.members] for g in result.groups] == [
            [t.spec.name for t in g] for g in expected], (context, policy)
        assert result.total_bytes == sum(
            max(t.size_bytes for t in g) for g in expected), (context, policy)


def _plans_of(graph, config):
    """Baseline (with unshareable weights and, under the investigation
    discipline, unshareable stashes), Table-I and hybrid liveness tables,
    and the four pure arms a hybrid build also allocates (the swap arm
    splits its lifetimes at the forward/backward boundary)."""
    plans = {
        "baseline": build_memory_plan(graph),
        "investigation": build_memory_plan(graph, include_weights=True,
                                           investigation=True),
        "gist": build_gist_plan(graph, config).plan,
        "hybrid": build_hybrid_plan(graph).plan,
    }
    for strategy in (STRATEGY_GIST, STRATEGY_RECOMPUTE, STRATEGY_SWAP,
                     STRATEGY_SHARED_CONCAT):
        plans[f"arm:{strategy}"] = build_hybrid_plan(
            graph, HybridPolicy(strategy=strategy)).plan
    return plans


class TestAgainstPairwiseReference:
    """The occupancy-int overlap test changes no grouping: every plan
    groups exactly as a pairwise-overlap first fit does."""

    @pytest.mark.parametrize("model", available_models())
    def test_registry_models(self, model):
        graph = build_model(model, batch_size=8)
        plans = _plans_of(graph, GistConfig.for_network(model))
        if model == "densenet":
            assert any(t.alias_group for t in plans["hybrid"].tensors)
        for label, plan in plans.items():
            _assert_matches_reference(plan.tensors, (model, label))

    def test_fuzzed_graphs(self):
        for seed in range(50):
            graph = GraphFuzzer(seed).graph()
            for label, plan in _plans_of(graph, GistConfig.full()).items():
                _assert_matches_reference(plan.tensors, (seed, label))


def _table(rows):
    """``(elements, birth, duration, shareable, alias_group)`` rows as a
    liveness table; a negative duration is an inverted interval, set
    after construction the way the fault-injection battery does."""
    tensors = []
    for i, (elements, birth, duration, shareable, alias) in enumerate(rows):
        tensor = lt(f"t{i}", elements, birth, birth + max(duration, 0),
                    shareable)
        tensor.death = birth + duration
        tensor.alias_group = alias
        tensors.append(tensor)
    return tensors


def _rows(*intervals):
    return [(10 * (i + 1), birth, duration, True, None)
            for i, (birth, duration) in enumerate(intervals)]


class TestAllocatorProperties:
    @settings(max_examples=100)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 500),   # elements
                st.integers(0, 20),    # birth
                st.integers(0, 20),    # duration
                st.booleans(),         # shareable
                st.sampled_from((None, None, None, "x", "y")),  # alias_group
            ),
            max_size=60,
        ),
    )
    # Every tensor live at one step; no two overlapping; two busy regions
    # with the middle of the clock idle; zero-width intervals stacked on
    # shared steps; one inverted interval among intervals that either span
    # it or avoid it (where pairwise ``overlaps`` and the birth-step rule
    # agree; test_inverted_interval_occupies_its_birth_step pins the
    # rest); the empty table.
    @example(_rows((0, 9), (3, 4), (5, 0), (2, 6), (5, 5), (4, 1)))
    @example(_rows((0, 1), (2, 0), (3, 2), (6, 6), (13, 0), (14, 3)))
    @example(_rows((0, 3), (1, 2), (2, 1), (3, 0), (20, 3), (21, 2),
                   (22, 1), (23, 0), (5, 1), (18, 1)))
    @example(_rows((4, 0), (4, 0), (5, 0), (4, 0), (6, 0), (5, 0)))
    @example(_rows((3, 2), (4, -1), (5, 1), (0, 2), (2, 4)))
    @example([])
    # Around the allocator's shortcut step (the middle of the clock, 5
    # here): two groups free there must be tried in opening order, and a
    # tensor born one step after it may still join a group busy at it.
    @example(_rows((0, 1), (1, 1), (4, 2), (8, 1)))
    @example(_rows((4, 1), (6, 1), (8, 1)))
    def test_matches_pairwise_reference(self, rows):
        _assert_matches_reference(_table(rows), rows)

    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 500),   # elements
                st.integers(0, 30),    # birth
                st.integers(0, 10),    # duration
                st.booleans(),         # shareable
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_invariants(self, raw):
        tensors = [
            lt(f"t{i}", e, b, b + d, s) for i, (e, b, d, s) in enumerate(raw)
        ]
        result = StaticAllocator().allocate(tensors)
        # Placement completeness.
        assert sum(len(g.members) for g in result.groups) == len(tensors)
        # No overlap within any group.
        for group in result.groups:
            for i, a in enumerate(group.members):
                for b2 in group.members[i + 1:]:
                    assert not a.overlaps(b2)
        # Footprint bounds.
        assert result.total_bytes <= sum(t.size_bytes for t in tensors)
        assert result.total_bytes >= max(t.size_bytes for t in tensors)
        # Dynamic peak is a lower bound on any correct static allocation.
        assert result.total_bytes >= simulate_dynamic(tensors).peak_bytes
