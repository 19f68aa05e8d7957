from fractions import Fraction

from graphfair.core import Agent, Allocation, GoodsGraph, Instance
from graphfair.oracle import MmsRecord
from graphfair.verify import check_allocation


def path_instance() -> Instance:
    g = GoodsGraph.build(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    u1 = {"a": Fraction(2), "b": Fraction(2), "c": Fraction(1), "d": Fraction(1)}
    u2 = {"a": Fraction(1), "b": Fraction(1), "c": Fraction(2), "d": Fraction(2)}
    return Instance(
        graph=g,
        agents=(Agent(id=1, type_id=1, utility=u1), Agent(id=2, type_id=2, utility=u2)),
    )


def alloc_of(*bundles: tuple[int, set]) -> Allocation:
    pairs = tuple((aid, frozenset(vs)) for aid, vs in bundles)
    return Allocation(bundles=pairs, target_alpha=Fraction(1))


def test_ideal_split_passes_at_full_share():
    inst = path_instance()
    alloc = alloc_of((1, {"a", "b"}), (2, {"c", "d"}))
    cert = check_allocation(inst, alloc, Fraction(1))
    # both agents get 4 against an mms of 2
    assert cert.structural_ok and cert.passes
    assert cert.min_ratio == Fraction(2)
    rows = {row[0]: row for row in cert.per_agent}
    assert rows[1][2] == Fraction(4) and rows[1][3] == Fraction(2)
    assert cert.notes == ()


def test_alpha_above_achievement_fails():
    inst = path_instance()
    alloc = alloc_of((1, {"d"}), (2, {"a", "b", "c"}))
    cert = check_allocation(inst, alloc, Fraction(1))
    assert cert.structural_ok
    assert not cert.passes  # agent 1 holds 1 < 2
    assert cert.min_ratio == Fraction(1, 2)
    assert check_allocation(inst, alloc, Fraction(1, 2)).passes


def test_structural_failures_are_reported():
    inst = path_instance()

    overlap = alloc_of((1, {"a", "b"}), (2, {"b", "c", "d"}))
    cert = check_allocation(inst, overlap, Fraction(0))
    assert not cert.structural_ok and not cert.passes
    assert any("overlap" in note for note in cert.notes)

    disconnected = alloc_of((1, {"a", "c"}), (2, {"b", "d"}))
    cert = check_allocation(inst, disconnected, Fraction(0))
    assert not cert.structural_ok
    assert any("connected" in note for note in cert.notes)

    stray = alloc_of((1, {"a", "zz"}), (2, {"c"}))
    cert = check_allocation(inst, stray, Fraction(0))
    assert not cert.structural_ok

    missing_agent = alloc_of((1, {"a", "b"}))
    cert = check_allocation(inst, missing_agent, Fraction(0))
    assert not cert.structural_ok
    assert any("2" in note for note in cert.notes)

    unknown_label = alloc_of((1, {"a"}), (2, {"b"}), (9, {"c"}))
    cert = check_allocation(inst, unknown_label, Fraction(0))
    assert not cert.structural_ok


def test_label_checks_name_the_fault():
    # Allocation.bundles keeps (label, bundle) pairs so that these survive.
    inst = path_instance()

    repeated = alloc_of((1, {"a"}), (1, {"b"}), (2, {"c", "d"}))
    cert = check_allocation(inst, repeated, Fraction(0))
    assert not cert.structural_ok
    assert cert.notes == ("an agent id labels two bundles",)

    invented = alloc_of((1, {"a", "b"}), (2, {"c"}), (9, {"d"}))
    cert = check_allocation(inst, invented, Fraction(0))
    assert not cert.structural_ok
    assert cert.notes == ("bundle label 9 is not an agent id",)


def test_alpha_zero_accepts_any_sound_packing():
    inst = path_instance()
    # empty bundles and uncovered vertices are fine; only soundness matters
    alloc = alloc_of((1, set()), (2, {"d"}))
    cert = check_allocation(inst, alloc, Fraction(0))
    assert cert.structural_ok and cert.passes
    assert cert.min_ratio == Fraction(0)


def test_zero_share_agents_are_satisfied_by_anything():
    g = GoodsGraph.build(["a"], [])
    hungry = Agent(id=1, type_id=1, utility={"a": Fraction(5)})
    sated = Agent(id=2, type_id=2, utility={"a": Fraction(5)})
    inst = Instance(graph=g, agents=(hungry, sated))
    # two agents, one vertex: everyone's pmms is 0, so ratios are 1
    alloc = alloc_of((1, {"a"}), (2, set()))
    cert = check_allocation(inst, alloc, Fraction(1))
    assert cert.passes and cert.min_ratio == Fraction(1)


def test_caller_supplied_share_values():
    inst = path_instance()
    alloc = alloc_of((1, {"a", "b"}), (2, {"c", "d"}))
    # records with caller-chosen values replace the oracle's shares
    records = {
        aid: MmsRecord(value=value, witness=())
        for aid, value in ((1, Fraction(8)), (2, Fraction(2)))
    }
    cert = check_allocation(inst, alloc, Fraction(1), records)
    assert cert.min_ratio == Fraction(1, 2)
    assert not cert.passes


def test_empirical_alpha_reports_min_ratio():
    inst = path_instance()
    alloc = alloc_of((1, {"d"}), (2, {"a", "b", "c"}))
    assert check_allocation(inst, alloc, Fraction(0)).min_ratio == Fraction(1, 2)
