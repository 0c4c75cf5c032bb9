"""CNTK-style static memory-sharing allocator.

The paper (Section IV-C): *"The memory allocator creates groups of data
structures whose lifetimes do not overlap and thus can share the same
memory space.  [...] the size of this group is the largest size of the
member within the group [...] it first sorts the data structures on the
basis of size, and then forms these groups, so that large data structures
can share the same memory space."*

This module reimplements exactly that greedy policy, plus two ablation
policies (first-fit in insertion order, and no sharing) used by the
allocator ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import List, Sequence, Tuple

from repro.graph.liveness import LiveTensor

POLICY_GREEDY_SIZE = "greedy-size"
POLICY_FIRST_FIT = "first-fit"
POLICY_NO_SHARING = "none"

_POLICIES = (POLICY_GREEDY_SIZE, POLICY_FIRST_FIT, POLICY_NO_SHARING)

_NAME = attrgetter("spec.name")
_SIZE = attrgetter("spec.size_bytes")
_DEATH = attrgetter("death")


@dataclass
class AllocationGroup:
    """A set of tensors sharing one memory region."""

    members: List[LiveTensor] = field(default_factory=list)
    #: Whether new tensors may be added (False for dedicated groups that
    #: hold a single non-shareable tensor).
    open: bool = True
    #: True for a physical-aliasing group (same ``alias_group`` label on
    #: every member): the members are *views of one buffer*, so their
    #: lifetimes may overlap — the region is still sized by the largest
    #: member, which is exactly the shared-concat growing buffer.
    aliased: bool = False

    @property
    def size_bytes(self) -> int:
        """Region size: the largest member."""
        return max((t.size_bytes for t in self.members), default=0)


@dataclass
class AllocationResult:
    """Outcome of a static allocation."""

    groups: List[AllocationGroup]
    policy: str

    @property
    def total_bytes(self) -> int:
        """Total static footprint: sum of group sizes."""
        return sum(g.size_bytes for g in self.groups)


class StaticAllocator:
    """Groups tensors with disjoint lifetimes into shared regions.

    Args:
        policy: One of ``"greedy-size"`` (the CNTK policy), ``"first-fit"``
            (no size sorting — ablation) or ``"none"`` (no sharing).

    Each open group's occupancy is one Python int with a bit per schedule
    step, as wide as its latest death, and one ``&`` decides whether a
    candidate interval fits.  The first-fit scan visits only groups that
    can fit: a tensor live at the *pivot* step (the middle of the clock,
    ``horizon // 2`` with ``horizon`` one past the latest death) walks the
    ascending list of open groups still free at that step, every other
    tensor walks all open groups.  That is exact for any pivot — a group
    busy at a step can hold no tensor live at it, so the skipped groups
    would each have failed their ``&``, and the ones left are tried in the
    same opening order — and the middle is where a
    training step holds what it stashed for the backward pass, i.e. where
    the tensors that fit no group and would scan all of them are live.
    The grouping equals a pairwise-overlap first fit member for member
    (``tests/memory/test_allocator.py::reference_groups``).
    """

    def __init__(self, policy: str = POLICY_GREEDY_SIZE):
        if policy not in _POLICIES:
            raise ValueError(f"unknown policy {policy!r}; choose from {_POLICIES}")
        self.policy = policy

    def allocate(self, tensors: Sequence[LiveTensor]) -> AllocationResult:
        """Assign every tensor to a group; returns the grouping."""
        tensors = list(tensors)
        horizon = max(map(_DEATH, tensors), default=0) + 1

        share = self.policy != POLICY_NO_SHARING

        # Physical-aliasing sets first: tensors labelled with the same
        # alias_group are views of one buffer, so they form one region
        # regardless of lifetime overlap.  Under the no-sharing ablation
        # the label is ignored and every tensor gets dedicated space.
        groups: List[AllocationGroup] = []
        if share:
            rest = [t for t in tensors
                    if t.alias_group is None or not t.shareable]
            if len(rest) < len(tensors):
                aliased: dict = {}
                for tensor in tensors:
                    if tensor.alias_group is not None and tensor.shareable:
                        aliased.setdefault(tensor.alias_group,
                                           []).append(tensor)
                for label in sorted(aliased):
                    groups.append(AllocationGroup(aliased[label], open=False,
                                                  aliased=True))
            tensors = rest

        order = tensors
        if self.policy == POLICY_GREEDY_SIZE:
            # Stable deterministic order: size descending, then name —
            # two stable passes, no tuple key built per tensor.
            order = sorted(tensors, key=_NAME)
            order.sort(key=_SIZE, reverse=True)

        # Every group in result order, as (members, open); a group is
        # wrapped in an AllocationGroup once, after the scan.
        layout: List[Tuple[List[LiveTensor], bool]] = []
        # For each *open* group, its members and its occupancy over the
        # schedule clock as one int (bit t set = some member is live at
        # step t), so an overlap test is one ``&`` instead of an
        # O(members) scan.
        open_members: List[List[LiveTensor]] = []
        occupied: List[int] = []
        # Open groups still free at the pivot step, ascending (= scan
        # order): all a tensor live at the pivot can fit (class docstring).
        pivot = 1 << (horizon // 2)
        free_at_pivot: List[int] = []

        for tensor in order:
            if share and tensor.shareable:
                # An inverted interval (a corrupted table; LiveTensor only
                # validates at construction) still occupies its birth step.
                birth = tensor.birth
                span = tensor.death - birth
                mask = ((2 << span) - 1 if span > 0 else 1) << birth
                at_pivot = mask & pivot
                for i in free_at_pivot if at_pivot else range(len(occupied)):
                    if not occupied[i] & mask:
                        open_members[i].append(tensor)
                        occupied[i] |= mask
                        if at_pivot:
                            free_at_pivot.remove(i)
                        break
                else:
                    if not at_pivot:
                        free_at_pivot.append(len(occupied))
                    members = [tensor]
                    layout.append((members, True))
                    open_members.append(members)
                    occupied.append(mask)
            else:
                layout.append(([tensor], False))

        groups += [AllocationGroup(members, open=is_open)
                   for members, is_open in layout]
        return AllocationResult(groups, self.policy)
