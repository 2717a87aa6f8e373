"""The one grouping primitive behind every dedup, fan-out and shard split.

Answering each distinct query once is the online half of the paper's
speed: a batch is grouped by a hashable key, each group is answered once
(or dispatched as one sub-batch), and the answers are scattered back to
input order.  Every batch path in the package — placement dedup, route
dedup, the process-pool fan-out, the server's per-circuit split — goes
through these functions.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, TypeVar

K = TypeVar("K", bound=Hashable)
R = TypeVar("R")


def group_positions(keys: Iterable[K]) -> Dict[K, List[int]]:
    """Map each distinct key to its input positions, keys in first-seen order."""
    groups: Dict[K, List[int]] = {}
    for position, key in enumerate(keys):
        positions = groups.get(key)
        if positions is None:
            groups[key] = [position]
        else:
            positions.append(position)
    return groups


def scatter(groups: Mapping[K, Sequence[int]], results: Iterable[R]) -> List[R]:
    """Inverse of :func:`group_positions` for one result per group.

    ``results`` follows the group order; every position of a group gets
    that group's result, so duplicates share one object.
    """
    return scatter_each(
        groups,
        ([result] * len(positions) for positions, result in zip(groups.values(), results)),
    )


def scatter_each(
    groups: Mapping[K, Sequence[int]], results: Iterable[Sequence[R]]
) -> List[R]:
    """Inverse of :func:`group_positions` for one result per member.

    ``results`` follows the group order and holds, per group, one result
    per position of that group (a sub-batch answered in member order).
    """
    out: List[R] = [None] * sum(len(positions) for positions in groups.values())  # type: ignore[list-item]
    for positions, group_results in zip(groups.values(), results):
        for position, result in zip(positions, group_results):
            out[position] = result
    return out
