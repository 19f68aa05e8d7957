"""Shared data model: graphs of goods, agents, instances, allocations.

All numeric work uses exact rationals (fractions.Fraction).  Floats are never
accepted; utility values parsed from external input must arrive as ints,
Fractions, or "p/q" strings.  Every container here is immutable after
construction so that instances and results can be shared freely.
"""

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

Value = Fraction

ZERO = Fraction(0)

# The types an exact value may have where it is taken as is, tested as
# `type(x) in _EXACT`: like as_value, no bool and no float.
_EXACT = (int, Fraction)


class FairDivisionError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(FairDivisionError):
    """Malformed instance data: bad vertex ids, duplicate edges, bad values."""


class StructuralError(FairDivisionError):
    """An operation was applied to a graph lacking the required structure."""


class SizeLimitError(FairDivisionError):
    """The instance exceeds the configured exhaustive-enumeration cap."""


class UndefinedMmsError(FairDivisionError):
    """The maximin share is undefined (more components than bundles)."""


class UnsupportedBlockError(FairDivisionError):
    """A block is neither a clique nor a cycle."""


class ClassMismatchError(FairDivisionError):
    """The instance does not belong to the graph class an allocator serves."""


class GuaranteeViolationError(FairDivisionError):
    """An internal invariant that the method's analysis rules out was violated.

    Seeing this error means a bug, not a hard instance.
    """


def as_value(x) -> Value:
    """Coerce an int, Fraction, or "p/q" string to an exact rational.

    Floats are rejected: exactness is a hard requirement and a float has
    already lost it.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InvalidInputError(f"not a rational value: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"not a rational value: {x!r}") from exc
    raise InvalidInputError(f"not a rational value: {x!r}")


def require_int(x, what: str) -> int:
    """`x` itself when it is an int; booleans are refused."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise InvalidInputError(f"{what} must be an integer, got {x!r}")
    return x


def check_targets(agents: Sequence["Agent"], targets: Mapping[int, Value]) -> None:
    """Refuse two agents with one id, then a missing, inexact or negative target."""
    if len({a.id for a in agents}) < len(agents):
        raise InvalidInputError("two agents share an id")
    for a in agents:
        if a.id not in targets:
            raise InvalidInputError(f"no target for agent {a.id}")
        t = targets[a.id]
        if type(t) not in _EXACT:
            raise InvalidInputError(f"target of agent {a.id} is {t!r}, not an int or a Fraction")
        if t < 0:
            raise InvalidInputError(f"negative target for agent {a.id}")


def value_str(v: Value) -> str:
    """Render a rational as "p/q" (denominator kept even when it is 1)."""
    return f"{v.numerator}/{v.denominator}"


@dataclass(frozen=True)
class GoodsGraph:
    """An undirected graph whose vertices are indivisible goods.

    Vertex ids are strings ordered lexicographically; that order is the
    canonical order used for every deterministic tie-break in the package.
    Edges are stored as (a, b) pairs with a < b.  Graphs compare and hash by
    their vertices and edges, so a graph can key a cache.
    """

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    @classmethod
    def build(cls, vertices: Iterable[str], edges: Iterable[Sequence[str]]) -> "GoodsGraph":
        """The graph on `vertices` with `edges`, each a tuple or list of two of them."""
        verts = tuple(vertices)
        for v in verts:
            if not isinstance(v, str):
                raise InvalidInputError(f"vertex id {v!r} is not a string")
        vset = set(verts)
        if len(vset) != len(verts):
            raise InvalidInputError("duplicate vertex id")
        seen: set[tuple[str, str]] = set()
        for e in edges:
            if not isinstance(e, (tuple, list)) or len(e) != 2:
                raise InvalidInputError(f"edge {e!r} is not a pair of vertex ids")
            a, b = e
            if a == b:
                raise InvalidInputError(f"self-loop at {a!r}")
            # Every vertex id is a string, so an end of another type is
            # unknown, and an unhashable one fails the lookup itself.
            try:
                known = a in vset and b in vset
            except TypeError:
                known = False
            if not known:
                raise InvalidInputError(f"edge ({a!r}, {b!r}) mentions an unknown vertex")
            e = (a, b) if a < b else (b, a)
            if e in seen:
                raise InvalidInputError(f"duplicate edge ({e[0]!r}, {e[1]!r})")
            seen.add(e)
        return cls(vertices=tuple(sorted(verts)), edges=frozenset(seen))

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        nbr: dict[str, set[str]] = {v: set() for v in self.vertices}
        for a, b in self.edges:
            nbr[a].add(b)
            nbr[b].add(a)
        return {v: frozenset(s) for v, s in nbr.items()}

    @cached_property
    def position(self) -> dict[str, int]:
        """Each vertex's index in `vertices`: its bit in a vertex mask."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Entry i has bit j set exactly when vertices i and j are adjacent."""
        pos = self.position
        return tuple(sum(1 << pos[w] for w in self.adjacency[v]) for v in self.vertices)

    def neighbors(self, v: str) -> frozenset[str]:
        return self.adjacency[v]

    def has_edge(self, a: str, b: str) -> bool:
        e = (a, b) if a < b else (b, a)
        return e in self.edges

    def induced(self, subset: Iterable[str]) -> "GoodsGraph":
        """The subgraph induced by `subset` (known vertices); all of them give back `self`."""
        sub = set(subset)
        unknown = sub - set(self.vertices)
        if unknown:
            raise InvalidInputError(f"unknown vertices: {sorted(unknown)}")
        if len(sub) == len(self.vertices):
            return self
        kept = frozenset(e for e in self.edges if e[0] in sub and e[1] in sub)
        return GoodsGraph(vertices=tuple(sorted(sub)), edges=kept)

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class Agent:
    """An agent with an additive utility over all vertices of a graph.

    Agents sharing a type_id are expected to have identical utility maps;
    validate_instance reports violations.  The utility mapping is treated as
    read-only after construction.
    """

    id: int
    type_id: int
    utility: Mapping[str, Value]

    def value(self, subset: Iterable[str]) -> Value:
        """Sum of the agent's values over a vertex set (additive utilities)."""
        total = ZERO
        for v in subset:
            if v not in self.utility:
                raise InvalidInputError(f"agent {self.id} has no value for vertex {v!r}")
            total += self.utility[v]
        return total


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: one goods graph plus a list of agents.

    Top-level instances carry agent ids 1..n; instances built internally by
    restricting to an agent subset keep the original ids.
    """

    graph: GoodsGraph
    agents: tuple[Agent, ...]

    @property
    def n(self) -> int:
        return len(self.agents)

    @cached_property
    def agents_by_id(self) -> dict[int, Agent]:
        return {a.id: a for a in self.agents}

    def agent(self, agent_id: int) -> Agent:
        return self.agents_by_id[agent_id]


def validate_instance(inst: Instance) -> list[str]:
    """Collect human-readable violations; an empty list means a valid instance.

    Checks agent ids, utility-domain coverage, nonnegativity, and type
    consistency.  Graph-level problems are rejected earlier, when the graph
    is built.
    """
    problems: list[str] = []
    if not inst.agents:
        problems.append("instance has no agents")
    ids = [a.id for a in inst.agents]
    # An id that is not an int, a bool included, would mis-sort or be
    # written back as something else.
    bad_ids = [aid for aid in ids if type(aid) is not int]
    problems += [f"agent id must be an integer, got {aid!r}" for aid in bad_ids]
    if not bad_ids and sorted(ids) != list(range(1, len(ids) + 1)):
        problems.append(f"agent ids are {sorted(ids)}, expected 1..{len(ids)}")
    vset = set(inst.graph.vertices)
    for a in inst.agents:
        dom = set(a.utility)
        if dom != vset:
            missing = sorted(vset - dom)
            extra = sorted(dom - vset)
            if missing:
                problems.append(f"agent {a.id} lacks values for {missing}")
            if extra:
                problems.append(f"agent {a.id} values unknown vertices {extra}")
        for v, val in a.utility.items():
            if type(val) not in _EXACT:
                problems.append(f"agent {a.id} has {val!r} at {v!r}, not an int or a Fraction")
            elif val < 0:
                problems.append(f"agent {a.id} has a negative value at {v!r}")
    by_type: dict[int, dict] = {}
    for a in inst.agents:
        ref = by_type.setdefault(a.type_id, dict(a.utility))
        if dict(a.utility) != ref:
            problems.append(f"agents of type {a.type_id} disagree on utilities")
    return problems


def check_instance(inst: Instance) -> None:
    """Refuse an instance with every problem `validate_instance` finds, in one message."""
    problems = validate_instance(inst)
    if problems:
        raise InvalidInputError("; ".join(problems))


@dataclass(frozen=True)
class Allocation:
    """Bundles labelled by agent id, with the alpha they claim.

    The bundles stay a tuple of (agent id, bundle) pairs, not a map, so that
    a parsed allocation file keeps any repeated or unknown label for
    verify.check_allocation to report.  It carries no ratios: how each bundle
    measures against its agent's share is for the checker to say.
    """

    bundles: tuple[tuple[int, frozenset[str]], ...]
    target_alpha: Value

    def bundle_of(self, agent_id: int) -> frozenset[str]:
        for label, vs in self.bundles:
            if label == agent_id:
                return vs
        return frozenset()
