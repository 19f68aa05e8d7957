"""Half-share allocation on block-cactus graphs.

Every biconnected piece of such a graph is a clique or a cycle, and both
admit strong exact guarantees, so the strategy is to shrink the graph until
it is biconnected and finish by exact search.  Shrinking happens at a
terminal block B with cut vertex v in one of two ways:

* absorb: nobody values B - v at her target, so B - v is folded into v
  (whoever eventually receives v receives B - v on top) and the smaller
  graph goes back through the peel-and-split reduction, because the folded
  vertex may now be heavy;
* carve: someone values B - v at her target, so bundles worth half their
  targets are cut greedily from a Hamiltonian path of B ending at v, the
  served agents leave, and the rest of the graph is unchanged.

Targets are fixed by the caller and threaded through unchanged, the absorb
passing them to the reduction as its targets; each step preserves "the graph
still admits an n-bundle partition giving every active agent her target" and
every served agent walks away with at least half hers.
"""

from collections.abc import Mapping, Sequence
from fractions import Fraction

from .carve import greedy_prefix_carve
from .core import (
    Agent,
    Allocation,
    ClassMismatchError,
    GoodsGraph,
    Instance,
    InvalidInputError,
    StructuralError,
    Value,
    validate_instance,
)
from .graphs import (
    block_cut_tree,
    connected_components,
    hamiltonian_path_in_block,
    recognize,
)
from .reduction import allocate_reduction, finish_allocation
from . import oracle

HALF = Fraction(1, 2)


def is_block_cactus_graph(graph: GoodsGraph) -> bool:
    if len(graph) == 0:
        return False
    for comp in connected_components(graph):
        witness = recognize(graph.induced(frozenset(comp)))
        if not witness.has("block_cactus"):
            return False
    return True


def allocate_bounded(
    graph: GoodsGraph,
    agents: Sequence[Agent],
    targets: Mapping[int, Value],
) -> Allocation:
    """Serve every agent a connected bundle worth half her target.

    Precondition: the graph is connected block-cactus and admits a partition
    into len(agents) connected bundles worth each agent's target.  The
    returned bundles are disjoint but need not cover the graph.
    """
    if not agents:
        return finish_allocation(agents, targets, {}, HALF)
    for a in agents:
        if targets[a.id] < 0:
            raise InvalidInputError(f"negative target for agent {a.id}")
    n = len(agents)

    if n == 1:
        return finish_allocation(agents, targets, {agents[0].id: frozenset(graph.vertices)}, HALF)

    tree = block_cut_tree(graph)

    if len(tree.blocks) == 1:
        bundles = oracle.max_min_ratio_allocation(graph, list(agents), targets)
        return finish_allocation(agents, targets, bundles, HALF)

    block_idx = min(tree.terminal_blocks)
    block = tree.blocks[block_idx]
    cuts = block & tree.cut_vertices
    if len(cuts) != 1:
        raise StructuralError(f"terminal block {sorted(block)} has {len(cuts)} cut vertices")
    v = next(iter(cuts))
    rim = block - {v}

    if all(a.value(rim) < targets[a.id] for a in agents):
        # Absorb: fold the rim into the cut vertex and re-run the reduction;
        # folding can make v heavy, and the peel handles exactly that.
        kept = frozenset(graph.vertices) - rim
        sub_graph = graph.induced(kept)
        folded = []
        for a in agents:
            utility = dict(a.utility)
            utility[v] = a.value(block)
            folded.append(Agent(id=a.id, type_id=a.type_id, utility=utility))
        inner = allocate_reduction(
            Instance(graph=sub_graph, agents=tuple(folded)),
            HALF,
            allocate_bounded,
            targets=targets,
        )
        out = {a.id: inner.bundle_of(a.id) for a in agents}
        for aid, bundle in out.items():
            if v in bundle:
                out[aid] = bundle | rim
                break
        return finish_allocation(agents, targets, out, HALF)

    # Carve: someone values the rim at her whole target, so cut bundles off
    # a Hamiltonian path through the block.  The path ends at the cut vertex,
    # which the carve never sees, so it stays with the rest of the graph.
    path = hamiltonian_path_in_block(block, graph, v)
    carve = greedy_prefix_carve(
        path[:-1],
        [a.id for a in agents],
        {a.id: HALF * targets[a.id] for a in agents},
        {a.id: a.utility for a in agents},
    )
    if not carve.assignments:
        raise StructuralError("carve made no progress on a terminal block")
    out: dict[int, frozenset[str]] = {}
    taken: set[str] = set()
    for aid, piece in carve.assignments:
        out[aid] = piece
        taken |= piece
    rest_graph = graph.induced(frozenset(graph.vertices) - frozenset(taken))
    rest_agents = tuple(a for a in agents if a.id not in out)
    rest = allocate_bounded(rest_graph, rest_agents, targets)
    for a in rest_agents:
        out[a.id] = rest.bundle_of(a.id)
    return finish_allocation(agents, targets, out, HALF)


def allocate_block_cactus(inst: Instance) -> Allocation:
    """Allocate with guarantee 1/2 of each agent's share over packings.

    The instance graph must be a block-cactus graph (every biconnected block
    a clique or a cycle); disconnected graphs are fine, the reduction routes
    agents into components.
    """
    problems = validate_instance(inst)
    if problems:
        raise InvalidInputError("; ".join(problems))
    if not is_block_cactus_graph(inst.graph):
        raise ClassMismatchError("graph is not a block-cactus graph")
    return allocate_reduction(inst, HALF, allocate_bounded)
