import json
from fractions import Fraction

import pytest

from graphfair import io
from graphfair.core import Agent, GoodsGraph, Instance, InvalidInputError, Allocation
from graphfair.verify import check_allocation


def sample_instance() -> Instance:
    g = GoodsGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    u1 = {"a": Fraction(1, 2), "b": Fraction(3), "c": Fraction(0)}
    u2 = {"a": Fraction(2), "b": Fraction(2), "c": Fraction(2)}
    return Instance(
        graph=g,
        agents=(
            Agent(id=1, type_id=1, utility=u1),
            Agent(id=2, type_id=2, utility=u2),
        ),
    )


def test_instance_doc_round_trip_is_byte_stable():
    inst = sample_instance()
    doc = io.instance_to_doc(inst, {1: "picky", 2: "easy"})
    text = io.canonical_dumps(doc)
    parsed, names = io.parse_instance_doc(json.loads(text))
    assert parsed.graph == inst.graph
    assert [a.utility for a in parsed.agents] == [a.utility for a in inst.agents]
    assert set(names.values()) == {"picky", "easy"}
    # machine-independent bytes: re-serializing changes nothing
    again = io.canonical_dumps(io.instance_to_doc(parsed, names))
    assert again == text
    assert text.endswith("\n")


def test_parse_accepts_ints_and_fractions():
    doc = {
        "graph": {"vertices": ["x", "y"], "edges": [["x", "y"]]},
        "agents": [{"id": 1, "type": "t", "utilities": {"x": 3, "y": "5/2"}}],
    }
    inst, names = io.parse_instance_doc(doc)
    assert inst.agent(1).utility == {"x": Fraction(3), "y": Fraction(5, 2)}
    assert names == {1: "t"}


def test_parse_rejects_floats_and_bools():
    base = {
        "graph": {"vertices": ["x"], "edges": []},
        "agents": [{"id": 1, "type": "t", "utilities": {"x": 1}}],
    }
    for bad in (0.5, True, None, [1]):
        doc = json.loads(json.dumps(base))
        doc["agents"][0]["utilities"]["x"] = bad
        with pytest.raises(InvalidInputError):
            io.parse_instance_doc(doc)


def test_parse_rejects_malformed_documents():
    with pytest.raises(InvalidInputError):
        io.parse_instance_doc([])
    with pytest.raises(InvalidInputError):
        io.parse_instance_doc({"graph": {"vertices": ["x"]}, "agents": []})
    with pytest.raises(InvalidInputError):
        io.parse_instance_doc(
            {"graph": {"vertices": ["x"], "edges": [["x"]]}, "agents": []}
        )
    # duplicate agent ids
    with pytest.raises(InvalidInputError):
        io.parse_instance_doc(
            {
                "graph": {"vertices": ["x"], "edges": []},
                "agents": [
                    {"id": 1, "type": "t", "utilities": {"x": 1}},
                    {"id": 1, "type": "t", "utilities": {"x": 1}},
                ],
            }
        )


def test_type_labels_map_to_sorted_ids():
    doc = {
        "graph": {"vertices": ["x"], "edges": []},
        "agents": [
            {"id": 1, "type": "zebra", "utilities": {"x": 1}},
            {"id": 2, "type": "ant", "utilities": {"x": 2}},
            {"id": 3, "type": "zebra", "utilities": {"x": 1}},
        ],
    }
    inst, names = io.parse_instance_doc(doc)
    assert names == {1: "ant", 2: "zebra"}
    assert inst.agent(2).type_id == 1
    assert inst.agent(1).type_id == inst.agent(3).type_id == 2


def test_file_round_trip(tmp_path):
    inst = sample_instance()
    p = tmp_path / "inst.json"
    p.write_bytes(io.canonical_dumps(io.instance_to_doc(inst)).encode("utf-8"))
    loaded, names = io.load_instance(str(p))
    assert loaded.graph == inst.graph
    assert loaded.agents == inst.agents
    text = p.read_text(encoding="utf-8")
    assert io.canonical_dumps(io.instance_to_doc(loaded, names)) == text


def test_canonicalize_normalizes_key_order(tmp_path):
    inst = sample_instance()
    text = io.canonical_dumps(io.instance_to_doc(inst))
    shuffled = json.dumps(json.loads(text), sort_keys=False, indent=None)
    parsed, names = io.parse_instance_doc(json.loads(shuffled))
    assert io.canonical_dumps(io.instance_to_doc(parsed, names)) == text
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidInputError):
        io.load_instance(str(broken))


def test_allocation_doc_round_trip():
    inst = sample_instance()
    alloc = Allocation(
        bundles=((1, frozenset({"b"})), (2, frozenset({"c"}))),
        target_alpha=Fraction(1, 2),
    )
    cert = check_allocation(inst, alloc, Fraction(1, 2))
    doc = io.allocation_to_doc(inst, cert)
    assert doc["unassigned"] == ["a"]
    assert all(
        "/" in entry[key]
        for entry in doc["bundles"]
        for key in ("value", "mms", "ratio")
    )
    text = io.canonical_dumps(doc)
    parsed = io.parse_allocation_doc(json.loads(text))
    assert parsed.target_alpha == Fraction(1, 2)
    assert parsed.bundle_of(1) == frozenset({"b"})
    assert parsed.bundle_of(2) == frozenset({"c"})
