"""Exact JSON serialization for instances and allocation certificates.

Numbers never pass through floats: instance utilities are integers or
"p/q" strings, allocation files always use "p/q".  Canonical form is UTF-8
with sorted keys, two-space indent, LF line endings, and one trailing
newline, so re-serializing a canonical file is byte-stable.
"""

import json
from typing import Mapping

from .core import (
    Agent,
    Allocation,
    GoodsGraph,
    Instance,
    InvalidInputError,
    Value,
    as_value,
    value_str,
)
from .verify import Certificate


def canonical_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _value_to_json(v: Value):
    return int(v) if v.denominator == 1 else value_str(v)


def instance_to_doc(inst: Instance, type_names: Mapping[int, str] | None = None) -> dict:
    """Plain-JSON form of an instance; type ids render via type_names."""
    names = type_names or {}
    return {
        "graph": {
            "vertices": list(inst.graph.vertices),
            "edges": sorted([a, b] for a, b in inst.graph.edges),
        },
        "agents": [
            {
                "id": a.id,
                "type": names.get(a.type_id, str(a.type_id)),
                "utilities": {v: _value_to_json(a.utility[v]) for v in inst.graph.vertices},
            }
            for a in sorted(inst.agents, key=lambda a: a.id)
        ],
    }


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidInputError(message)


def require_int(x, what: str) -> int:
    """`x` itself when it is a JSON integer; booleans are refused."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise InvalidInputError(f"{what} must be an integer, got {x!r}")
    return x


def read_json(path: str):
    """The parsed contents of the JSON file at `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def parse_instance_doc(doc) -> tuple[Instance, dict[int, str]]:
    """Build an Instance from parsed JSON; returns it with type-label names.

    Type labels are arbitrary strings in the file; they map to integer type
    ids by sorted order, and the returned name map lets a writer restore
    the original labels.
    """
    _require(isinstance(doc, dict), "instance file must be a JSON object")
    _require(isinstance(doc.get("graph"), dict), 'missing "graph" object')
    _require(isinstance(doc.get("agents"), list), 'missing "agents" list')
    g = doc["graph"]
    verts = g.get("vertices")
    edges = g.get("edges")
    _require(
        isinstance(verts, list) and all(isinstance(v, str) for v in verts),
        '"vertices" must be a list of strings',
    )
    _require(isinstance(edges, list), '"edges" must be a list')
    pairs = []
    for e in edges:
        _require(
            isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e),
            f"bad edge entry {e!r}",
        )
        pairs.append((e[0], e[1]))
    graph = GoodsGraph.build(verts, pairs)

    raw_agents = []
    labels = set()
    for entry in doc["agents"]:
        _require(isinstance(entry, dict), "agent entries must be objects")
        aid = require_int(entry.get("id"), "agent id")
        label = entry.get("type", str(aid))
        _require(isinstance(label, str), "agent type must be a string")
        utilities = entry.get("utilities")
        _require(isinstance(utilities, dict), f"agent {aid} needs a utilities object")
        util: dict[str, Value] = {}
        for v, x in utilities.items():
            if isinstance(x, float) or isinstance(x, bool):
                raise InvalidInputError(
                    f"agent {aid} has a non-exact value at {v!r}: {x!r}"
                )
            util[v] = as_value(x)
        labels.add(label)
        raw_agents.append((aid, label, util))
    ids = [aid for aid, _, _ in raw_agents]
    _require(len(set(ids)) == len(ids), "agent ids must be unique")
    type_ids = {label: i + 1 for i, label in enumerate(sorted(labels))}
    agents = tuple(
        Agent(id=aid, type_id=type_ids[label], utility=util)
        for aid, label, util in sorted(raw_agents, key=lambda t: t[0])
    )
    names = {tid: label for label, tid in type_ids.items()}
    return Instance(graph=graph, agents=agents), names


def load_instance(path: str) -> tuple[Instance, dict[int, str]]:
    return parse_instance_doc(read_json(path))


def allocation_to_doc(inst: Instance, cert: Certificate) -> dict:
    """AllocationFile form of a certificate; all rationals as "p/q"."""
    assigned: set[str] = set()
    bundles = []
    for aid, bundle, value, mms, ratio in cert.per_agent:
        assigned |= bundle
        bundles.append(
            {
                "agent": aid,
                "vertices": sorted(bundle),
                "value": value_str(value),
                "mms": value_str(mms),
                "ratio": value_str(ratio),
            }
        )
    return {
        "alpha_target": value_str(cert.alpha_target),
        "min_ratio": value_str(cert.min_ratio),
        "bundles": bundles,
        "unassigned": sorted(set(inst.graph.vertices) - assigned),
    }


def parse_allocation_doc(doc) -> Allocation:
    """Rebuild an Allocation: the bundles and the claimed alpha target.

    Values, shares, and ratios in the file are claims; verification always
    recomputes them, so only the structure is read back.
    """
    _require(isinstance(doc, dict), "allocation file must be a JSON object")
    _require(isinstance(doc.get("bundles"), list), 'missing "bundles" list')
    alpha = as_value(doc.get("alpha_target", 0))
    pairs = []
    for entry in doc["bundles"]:
        _require(isinstance(entry, dict), "bundle entries must be objects")
        aid = require_int(entry.get("agent"), "bundle agent id")
        verts = entry.get("vertices")
        _require(
            isinstance(verts, list) and all(isinstance(v, str) for v in verts),
            f"bundle of agent {aid} needs a vertex list",
        )
        pairs.append((aid, frozenset(verts)))
    return Allocation(bundles=tuple(sorted(pairs)), target_alpha=alpha)


def load_allocation(path: str) -> Allocation:
    return parse_allocation_doc(read_json(path))

