"""Property-based checks of whole allocations on generated instances.

Each example takes a seeded generator instance and reshapes its utilities
into one of four regimes: small integers, p/q values with mixed
denominators, integers just above 2^64, and flat integers 20..21, which
leave no vertex heavy enough to peel and so reach the bounded solvers.
Agents of one type keep one shared utility function.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from graphfair import io, oracle
from graphfair.blockcactus import allocate_block_cactus
from graphfair.core import Agent, GuaranteeViolationError, Instance
from graphfair.generators import gen_block_cactus, gen_multipartite, gen_split
from graphfair.multipartite import allocate_multipartite
from graphfair.splitgraph import allocate_split, split_alpha
from graphfair.verify import check_allocation


def reshape(draw, inst: Instance) -> Instance:
    """The instance with one drawn regime of utilities, one profile per type."""
    regime = draw(st.sampled_from(["int", "p/q", "near 2^64", "flat"]))
    names = sorted(inst.graph.vertices)
    shared: dict[int, dict[str, Fraction]] = {}
    for a in inst.agents:
        if a.type_id in shared:
            continue
        if regime == "int":
            shared[a.type_id] = dict(a.utility)
        elif regime == "p/q":
            dens = draw(st.lists(st.integers(1, 13), min_size=len(names), max_size=len(names)))
            shared[a.type_id] = {v: a.utility[v] / q for v, q in zip(names, dens)}
        elif regime == "near 2^64":
            shared[a.type_id] = {v: a.utility[v] + 2**64 for v in names}
        else:
            shared[a.type_id] = {v: 20 + a.utility[v] % 2 for v in names}
    return Instance(
        graph=inst.graph,
        agents=tuple(Agent(id=a.id, type_id=a.type_id, utility=shared[a.type_id]) for a in inst.agents),
    )


def folded(inst: Instance, types: int) -> Instance:
    """The instance with its agents folded into `types` types.

    The generators give every agent a type of her own; agent i joins type
    1 + (i - 1) % types and takes the utilities of that type's first agent.
    """
    agents = tuple(
        Agent(id=a.id, type_id=1 + (a.id - 1) % types, utility=inst.agents[(a.id - 1) % types].utility)
        for a in inst.agents
    )
    return Instance(graph=inst.graph, agents=agents)


@st.composite
def split_instances(draw) -> Instance:
    vertices = draw(st.integers(3, 9))
    agents = draw(st.integers(1, 4))
    types = draw(st.integers(1, agents))
    inst = gen_split(draw(st.integers(0, 10**6)), vertices, agents, 20, n_types=types)
    return reshape(draw, inst)


@st.composite
def block_cactus_instances(draw) -> Instance:
    vertices = draw(st.integers(1, 12))
    agents = draw(st.integers(1, 4))
    types = draw(st.integers(1, agents))
    inst = gen_block_cactus(draw(st.integers(0, 10**6)), vertices, agents, 20)
    return reshape(draw, folded(inst, types))


@st.composite
def multipartite_instances(draw) -> Instance:
    agents = draw(st.integers(1, 4))
    # The generator's fewest vertices for each agent count.
    vertices = draw(st.integers({1: 2, 2: 10, 3: 11, 4: 12}[agents], 13))
    types = draw(st.integers(1, agents))
    inst = gen_multipartite(draw(st.integers(0, 10**6)), vertices, agents, 20)
    return reshape(draw, folded(inst, types))


def canonical_bytes(inst: Instance, allocate) -> tuple[str, Fraction]:
    oracle.clear_cache()
    alloc = allocate(inst)
    cert = check_allocation(inst, alloc, alloc.target_alpha)
    assert cert.passes, cert.notes
    return io.canonical_dumps(io.allocation_to_doc(inst, cert)), alloc.target_alpha


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(split_instances())
def test_split_allocations_certify_at_the_class_alpha_and_repeat_byte_for_byte(inst):
    p = len({a.type_id for a in inst.agents})
    first, alpha = canonical_bytes(inst, allocate_split)
    assert alpha == split_alpha((p - 1).bit_length())
    second, _ = canonical_bytes(inst, allocate_split)
    assert second == first


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(block_cactus_instances())
def test_block_cactus_allocations_certify_at_one_half_and_repeat_byte_for_byte(inst):
    try:
        first, alpha = canonical_bytes(inst, allocate_block_cactus)
        second, _ = canonical_bytes(inst, allocate_block_cactus)
    except GuaranteeViolationError as exc:
        raise AssertionError(f"the allocator broke its own guarantee: {exc}") from exc
    assert alpha == Fraction(1, 2)
    assert second == first


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(multipartite_instances())
def test_multipartite_allocations_certify_at_one_quarter_and_repeat_byte_for_byte(inst):
    try:
        first, alpha = canonical_bytes(inst, allocate_multipartite)
        second, _ = canonical_bytes(inst, allocate_multipartite)
    except GuaranteeViolationError as exc:
        raise AssertionError(f"the allocator broke its own guarantee: {exc}") from exc
    assert alpha == Fraction(1, 4)
    assert second == first
