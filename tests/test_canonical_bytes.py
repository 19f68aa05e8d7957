"""Pinned canonical allocation bytes for small seeded instances of each class.

Refactors of the allocation pipeline must keep these digests: the same
instances have to yield the same bundles, guarantee and certificate bytes.
A digest changes only when an allocator's output changes on purpose, and
then the new value belongs in the same commit as the reason.
"""

import hashlib

import pytest

from graphfair import generators, io
from graphfair.blockcactus import allocate_block_cactus
from graphfair.multipartite import allocate_multipartite
from graphfair.splitgraph import allocate_split
from graphfair.verify import check_allocation

# (seed, vertices, agents).  The multipartite generator needs at least 10
# vertices for two agents and 11 for three, so only its single-agent cases
# stay at nine vertices or fewer.
CASES = {
    "block-cactus": (
        allocate_block_cactus,
        [(1, 4, 1), (2, 9, 1), (3, 6, 2), (4, 8, 2), (5, 9, 2), (6, 7, 3), (7, 9, 3), (8, 5, 3)],
    ),
    "multipartite": (
        allocate_multipartite,
        [(1, 3, 1), (2, 6, 1), (3, 9, 1), (4, 10, 2), (5, 10, 2), (6, 10, 2), (7, 11, 3), (8, 11, 3)],
    ),
    "split": (
        allocate_split,
        [(1, 4, 1), (2, 9, 1), (3, 6, 2), (4, 8, 2), (5, 9, 2), (6, 7, 3), (7, 9, 3), (8, 5, 3)],
    ),
}

PINNED = {
    "block-cactus": "c43d393ee23d0eeb8a37f681eed64e876da863a35a331ba3205592969eeec443",
    "multipartite": "4a2117663be13bb06694ddf7b956e9f73d2c0663a5465686451101d6746db63e",
    "split": "b89d0acaa7cd39857d7b874ac06ccbe067a2ec78e58e2546b9a8adcdeb448672",
}


def allocation_digest(class_name: str) -> str:
    allocate, cases = CASES[class_name]
    h = hashlib.sha256()
    for seed, vertices, agents in cases:
        inst = generators.generate(class_name, seed, vertices, agents, 20)
        alloc = allocate(inst)
        cert = check_allocation(inst, alloc, alloc.target_alpha)
        assert cert.passes, (class_name, seed, cert.notes)
        h.update(io.canonical_dumps(io.allocation_to_doc(inst, cert)).encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("class_name", sorted(CASES))
def test_canonical_allocation_bytes_are_pinned(class_name):
    assert allocation_digest(class_name) == PINNED[class_name]
