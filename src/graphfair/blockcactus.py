"""Half-share allocation on block-cactus graphs.

Every biconnected piece of such a graph is a clique or a cycle, and both
admit strong exact guarantees, so the strategy is to shrink the graph until
it is biconnected and finish by exact search.  Shrinking happens at the
first terminal block B in id order, read off the lowpoint search
`graphs.block_cut_tree` on the bitmask view, with cut vertex v in one of
two ways:

* absorb: nobody values B - v at her target, so B - v is folded into v
  (whoever eventually receives v receives B - v on top) and the smaller
  graph goes back through the peel-and-split reduction, because the folded
  vertex may now be heavy;
* carve: someone values B - v at her target, so bundles worth half their
  targets are cut greedily from a Hamiltonian path of B ending at v, the
  served agents leave, and the rest of the graph is unchanged.

Targets are fixed by the caller.  A carve passes them unchanged to the rest
of the graph.  An absorb passes them to the reduction, where they hold only
in its peel and its final check: each leftover component that serves two or
more agents goes back to allocate_bounded with its agents' mms values on
that component as their targets.  Each step preserves "the graph still
admits an n-bundle partition giving every active agent her target", and
every served agent walks away with at least half hers.

Every block question here reads the memo `graphs._blocks`, so each graph
and component is searched once per operation: the class check's search of
the instance graph is the one the share oracle's plans then read, and each
smaller graph a round makes is searched once, for the round and the `mms`
targets on it alike.  The class check takes each component's pairs from
one `recognize` witness, with no induced graph per component, and stops at
the first block that is neither a clique nor a cycle.
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
    StructuralError,
    Value,
    check_instance,
    check_targets,
)
from .graphs import (
    _bits,
    _block_flags,
    _blocks,
    _sorted_blocks,
    hamiltonian_path_in_block,
    recognize,
)
from .reduction import allocate_reduction, finish_allocation
from . import oracle

HALF = Fraction(1, 2)


def is_block_cactus_graph(graph: GoodsGraph) -> bool:
    """Is every block of every component a clique or a cycle?  The empty graph is not.

    Stops at the first component with a block that is neither.
    """
    adj = graph.neighbor_masks
    return len(graph) > 0 and all(
        "block_cactus" in _block_flags(adj, pairs) for pairs in recognize(graph).component_blocks()
    )


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
    check_targets(agents, targets)
    ids = graph.vertices
    if len(agents) <= 1:
        return finish_allocation(agents, targets, {a.id: frozenset(ids) for a in agents}, HALF)

    full = (1 << len(ids)) - 1
    pairs, reached = _blocks(graph, full) if ids else ([], None)
    if reached != full:
        raise StructuralError("graph is empty or disconnected")

    if len(pairs) == 1:
        bundles = oracle.max_min_ratio_allocation(graph, list(agents), targets)
        return finish_allocation(agents, targets, bundles, HALF)

    # The first terminal block in id order; in a connected graph of two or
    # more blocks it holds exactly one cut vertex.
    masks, cuts = _sorted_blocks(pairs)
    mask = next(b for b in masks if (b & cuts).bit_count() <= 1)
    block = frozenset(ids[i] for i in _bits(mask))
    v = ids[(mask & cuts).bit_length() - 1]
    rim = block - {v}

    if all(a.value(rim) < targets[a.id] for a in agents):
        # Absorb: fold the rim into the cut vertex and re-run the reduction;
        # folding can make v heavy, and the peel handles exactly that.
        folded = tuple(
            Agent(id=a.id, type_id=a.type_id, utility={**a.utility, v: a.value(block)})
            for a in agents
        )
        inner = allocate_reduction(
            Instance(graph=graph.induced(frozenset(ids) - rim), agents=folded),
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
    out = dict(carve.assignments)
    rest_graph = graph.induced(frozenset(ids).difference(*out.values()))
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
    check_instance(inst)
    if not is_block_cactus_graph(inst.graph):
        raise ClassMismatchError("graph is not a block-cactus graph")
    return allocate_reduction(inst, HALF, allocate_bounded)
