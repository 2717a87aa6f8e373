"""Seeded dimension-vector queries against a generated structure.

Queries come in three equal parts, so every instantiator tier is hit:

* ``inside`` — sampled inside one stored placement's dimension box
  (mostly the ``structure`` tier);
* ``perturbed`` — the same samples scaled by a random +-5..15% per
  coordinate (mostly ``nearest``);
* ``uniform`` — uniform over each block's designer bounds (mostly
  ``fallback`` on a sparse structure).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.core.structure import MultiPlacementStructure

Query = Tuple[Tuple[int, int], ...]


def _inside(rng: random.Random, structure: MultiPlacementStructure) -> Query:
    stored = rng.choice(structure.placements())
    return tuple(
        (
            rng.randint(box.width.start, box.width.end),
            rng.randint(box.height.start, box.height.end),
        )
        for box in stored.ranges
    )


def _perturb(rng: random.Random, query: Query) -> Query:
    def scale(value: int) -> int:
        factor = 1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.15)
        return max(1, int(round(value * factor)))

    return tuple((scale(w), scale(h)) for w, h in query)


def _uniform(rng: random.Random, structure: MultiPlacementStructure) -> Query:
    return tuple(
        (rng.randint(block.min_w, block.max_w), rng.randint(block.min_h, block.max_h))
        for block in structure.circuit.blocks
    )


def _clamped(structure: MultiPlacementStructure, query: Query) -> Query:
    return tuple(
        block.clamp_dims(w, h) for block, (w, h) in zip(structure.circuit.blocks, query)
    )


def mixed_queries(
    structure: MultiPlacementStructure, count: int, rng: random.Random
) -> List[Query]:
    """``count`` queries, a third from each part, interleaved.

    Queries are distinct after clamping into the block bounds, which is
    the form the service memoizes, so no two of them share a memo entry.
    """
    per_part = -(-count // 3)
    seen = set()
    inside: List[Query] = []
    perturbed: List[Query] = []
    uniform: List[Query] = []
    while len(inside) < per_part:
        query = _inside(rng, structure)
        moved = _perturb(rng, query)
        keys = (_clamped(structure, query), _clamped(structure, moved))
        if keys[0] == keys[1] or keys[0] in seen or keys[1] in seen:
            continue
        seen.update(keys)
        inside.append(query)
        perturbed.append(moved)
    while len(uniform) < per_part:
        query = _uniform(rng, structure)
        key = _clamped(structure, query)
        if key not in seen:
            seen.add(key)
            uniform.append(query)
    mixed = [q for triple in zip(inside, perturbed, uniform) for q in triple]
    return mixed[:count]
