"""Property-based checks of whole allocations on generated instances.

Each example takes a seeded generator instance and reshapes its utilities
into one of four regimes: small integers, p/q values with mixed
denominators, integers just above 2^64, and flat integers 20..21, which
leave no vertex heavy enough to peel and so reach the bounded solvers.
Agents of one type keep one shared utility function.

The last property checks the share oracle alone, on generated graphs and
on disconnected ones: a pmms value is positive exactly when the agent
values at least n vertices above 0, the count the reduction reads instead.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from graphfair import io, oracle
from graphfair.blockcactus import allocate_block_cactus
from graphfair.core import Agent, GoodsGraph, GuaranteeViolationError, Instance
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


@st.composite
def generated_graphs(draw, low: int, high: int) -> GoodsGraph:
    """A generated block-cactus, complete multipartite or split graph."""
    gen = draw(st.sampled_from([gen_block_cactus, gen_multipartite, gen_split]))
    vertices = draw(st.integers(max(low, 1 if gen is gen_block_cactus else 2), high))
    return gen(draw(st.integers(0, 10**6)), vertices, 1, 20).graph


@st.composite
def share_graphs(draw) -> GoodsGraph:
    """A generated graph, or two side by side with some edges dropped."""
    if draw(st.booleans()):
        return draw(generated_graphs(1, 9))
    halves = [draw(generated_graphs(1, 5)), draw(generated_graphs(1, 4))]
    names = [{v: f"{side}{v}" for v in g.vertices} for side, g in zip("xy", halves)]
    edges = [(rename[u], rename[v]) for rename, g in zip(names, halves) for u, v in sorted(g.edges)]
    kept = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return GoodsGraph.build(
        [n for rename in names for n in rename.values()],
        [e for e, keep in zip(edges, kept) if keep],
    )


@st.composite
def share_profiles(draw, graph: GoodsGraph) -> dict:
    """int, p/q or all-zero utilities; the first two are often 0 too."""
    regime = draw(st.sampled_from(["int", "p/q", "zero"]))
    utility = {}
    for v in graph.vertices:
        if regime == "zero" or draw(st.integers(0, 2)) == 0:
            utility[v] = 0
        elif regime == "int":
            utility[v] = draw(st.integers(1, 20))
        else:
            utility[v] = Fraction(draw(st.integers(1, 20)), draw(st.integers(1, 13)))
    return utility


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_a_share_is_positive_exactly_when_n_vertices_are(data):
    # The reduction's one-component test reads this count in place of the
    # pmms value: n positive singletons are n disjoint connected bundles,
    # and n disjoint bundles worth more than 0 hold n positive vertices.
    graph = data.draw(share_graphs())
    agent = Agent(id=1, type_id=1, utility=data.draw(share_profiles(graph)))
    positive = sum(1 for v in graph.vertices if agent.utility[v] > 0)
    for n in range(1, len(graph) + 2):
        assert (oracle.pmms(graph, agent, n).value > 0) == (positive >= n), (n, positive)
