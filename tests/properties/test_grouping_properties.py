"""Property: grouping and scattering are exact inverses.

Every batch path answers each distinct key once and scatters the answer
back to input order.  Random key sequences (heavy with duplicates, like
real snapped dimension vectors) must group in first-seen order with every
input position in exactly one group, and scattering must restore the
input order with duplicates sharing one result object.
"""

from __future__ import annotations

import random

import pytest

from repro.utils.grouping import group_positions, scatter, scatter_each
from tests.properties.conftest import TRIALS


def random_keys(rng: random.Random):
    """A key sequence drawn from a small alphabet of mixed hashable keys."""
    alphabet = [
        rng.randint(0, 5),
        str(rng.randint(0, 5)),
        ((rng.randint(4, 9), rng.randint(4, 9)),),
        None,
    ]
    return [rng.choice(alphabet) for _ in range(rng.randint(0, 40))]


@pytest.mark.parametrize("seed", range(TRIALS))
def test_groups_come_out_in_first_seen_order(seed):
    keys = random_keys(random.Random(seed))
    groups = group_positions(keys)
    first_seen = []
    for key in keys:
        if key not in first_seen:
            first_seen.append(key)
    assert list(groups) == first_seen


@pytest.mark.parametrize("seed", range(TRIALS))
def test_every_position_lands_in_exactly_one_group(seed):
    keys = random_keys(random.Random(1000 + seed))
    groups = group_positions(keys)
    positions = [position for members in groups.values() for position in members]
    assert sorted(positions) == list(range(len(keys)))
    for key, members in groups.items():
        assert members == sorted(members)
        assert all(keys[position] == key for position in members)


@pytest.mark.parametrize("seed", range(TRIALS))
def test_scatter_inverts_grouping(seed):
    keys = random_keys(random.Random(2000 + seed))
    groups = group_positions(keys)
    assert scatter(groups, list(groups)) == keys
    per_member = [[(key, position) for position in members] for key, members in groups.items()]
    assert scatter_each(groups, per_member) == [
        (key, position) for position, key in enumerate(keys)
    ]


@pytest.mark.parametrize("seed", range(TRIALS))
def test_duplicates_share_one_result_object(seed):
    keys = random_keys(random.Random(3000 + seed))
    groups = group_positions(keys)
    results = scatter(groups, [object() for _ in groups])
    for i, key_i in enumerate(keys):
        for j, key_j in enumerate(keys):
            assert (results[i] is results[j]) == (key_i == key_j)
