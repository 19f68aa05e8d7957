from fractions import Fraction

import pytest

from graphfair.carve import greedy_prefix_carve
from graphfair.core import InvalidInputError


def F(x) -> Fraction:
    return Fraction(x)


def test_segments_stop_at_threshold():
    order = ["a", "b", "c", "d"]
    utils = {1: {v: F(2) for v in order}, 2: {v: F(2) for v in order}}
    res = greedy_prefix_carve(order, [1, 2], {1: F(3), 2: F(4)}, utils)
    assert res.assignments == ((1, frozenset({"a", "b"})), (2, frozenset({"c", "d"})))
    assert res.leftover == ()
    assert {aid for aid, _ in res.assignments} == {1, 2}


def test_smallest_id_wins_simultaneous_crossing():
    order = ["a", "b"]
    utils = {7: {v: F(5) for v in order}, 3: {v: F(5) for v in order}}
    res = greedy_prefix_carve(order, [7, 3], {7: F(5), 3: F(5)}, utils)
    assert res.assignments[0][0] == 3
    assert res.assignments == ((3, frozenset({"a"})), (7, frozenset({"b"})))


def test_sums_accumulate_per_agent():
    order = ["a", "b", "c"]
    utils = {
        1: {"a": F(1), "b": F(1), "c": F(0)},
        2: {"a": F(0), "b": F(0), "c": F(9)},
    }
    res = greedy_prefix_carve(order, [1, 2], {1: F(2), 2: F(9)}, utils)
    assert res.assignments == ((1, frozenset({"a", "b"})), (2, frozenset({"c"})))


def test_unserved_agents_leave_leftover():
    order = ["a", "b"]
    utils = {1: {"a": F(1), "b": F(1)}}
    res = greedy_prefix_carve(order, [1], {1: F(10)}, utils)
    assert res.assignments == ()
    assert res.leftover == ("a", "b")


def test_zero_threshold_takes_first_vertex():
    order = ["a", "b"]
    utils = {1: {"a": F(0), "b": F(0)}}
    res = greedy_prefix_carve(order, [1], {1: F(0)}, utils)
    assert res.assignments == ((1, frozenset({"a"})),)
    assert res.leftover == ("b",)


def test_scanning_stops_once_pool_empty():
    order = ["a", "b", "c"]
    utils = {1: {v: F(5) for v in order}}
    res = greedy_prefix_carve(order, [1], {1: F(5)}, utils)
    assert res.assignments == ((1, frozenset({"a"})),)
    assert res.leftover == ("b", "c")


def test_input_validation():
    utils = {1: {"a": F(1)}}
    with pytest.raises(InvalidInputError):
        greedy_prefix_carve(["a", "a"], [1], {1: F(1)}, utils)
    with pytest.raises(InvalidInputError):
        greedy_prefix_carve(["a"], [1, 2], {1: F(1)}, utils)
    with pytest.raises(InvalidInputError):
        greedy_prefix_carve(["a"], [1], {}, {1: {"a": F(1)}})
