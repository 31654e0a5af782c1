"""Container-style task groups with placement affinity.

A :class:`TaskGroup` models one co-scheduled worker group (a training job's
set of ranks, or one "pod" of containers in DCSim's terms).  Tasks carry a
``rank``; the first time the scheduler places any task of a group, a
placement-aware policy bin-packs the *whole* group onto servers and pins
``rank -> server`` in :attr:`TaskGroup.placement`.  Every later task with
the same rank lands on the same server, which is what makes ring-allreduce
neighbor pairs stable and lets the packet-train fast path batch the phases.
"""

from __future__ import annotations

from typing import Dict, Optional


class TaskGroup:
    """One placement-affine worker group of ``size`` ranks.

    Attributes filled in by the placement policy on first placement:

    * ``placement`` — rank -> server_id map (None until placed);
    * ``edge_switches_used`` — distinct edge switches hosting the group;
    * ``pods_used`` — distinct fat-tree pods hosting the group;
    * ``cross_pod_spills`` — ranks placed outside the group's primary pod
      (the explicit cost of spilling past one pod's capacity).
    """

    __slots__ = (
        "name",
        "size",
        "placement",
        "edge_switches_used",
        "pods_used",
        "cross_pod_spills",
    )

    def __init__(self, name: str, size: int):
        if size <= 0:
            raise ValueError(f"task group size must be positive, got {size}")
        self.name = name
        self.size = int(size)
        self.placement: Optional[Dict[int, int]] = None
        self.edge_switches_used = 0
        self.pods_used = 0
        self.cross_pod_spills = 0

    @property
    def placed(self) -> bool:
        return self.placement is not None

    def __repr__(self) -> str:
        state = "placed" if self.placed else "unplaced"
        return f"<TaskGroup {self.name!r} size={self.size} {state}>"
