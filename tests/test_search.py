import random

import pytest

from siphons import EnumerationResult, PetriNet
from siphons.search import Budget, accept


def open_net() -> PetriNet:
    # "src" feeds A from nothing, so a set holding A is no siphon; every
    # nonempty set of B..F is one
    return PetriNet.from_transitions([("src", [], ["A"])],
                                     places=["A", "B", "C", "D", "E", "F"])


def test_accept_appends_incomparable_sets_of_equal_and_different_sizes():
    net = open_net()
    result = EnumerationResult()
    order = [("B", "C"), ("C", "D"), ("B", "D", "E"), ("F",)]
    for names in order:
        accept(net, result, net.place_set(*names))
    assert [net.set_names(s) for s in result.sets] == order


def test_accept_rejects_a_non_siphon():
    net = open_net()
    result = EnumerationResult()
    with pytest.raises(RuntimeError, match="siphon predicate"):
        accept(net, result, net.place_set("A", "B"))
    assert result.sets == []


@pytest.mark.parametrize("first, second", [
    (("B", "C"), ("B", "C")),        # duplicate
    (("B", "C", "D"), ("B", "C")),   # strict subset of an earlier set
    (("B",), ("B", "C", "D")),       # strict superset of an earlier set
])
def test_accept_rejects_comparable_sets(first, second):
    net = open_net()
    result = EnumerationResult()
    accept(net, result, net.place_set("E"))
    accept(net, result, net.place_set(*first))
    with pytest.raises(RuntimeError, match="antichain"):
        accept(net, result, net.place_set(*second))
    assert result.sets == [net.place_set("E"), net.place_set(*first)]


def test_accept_checks_sets_given_at_construction():
    net = open_net()
    result = EnumerationResult(sets=[net.place_set("B", "C")])
    with pytest.raises(RuntimeError, match="antichain"):
        accept(net, result, net.place_set("C"))
    accept(net, result, net.place_set("D"))
    assert len(result) == 2


def test_accept_agrees_with_the_pairwise_scan():
    # the size-grouped check raises exactly when some earlier set is
    # comparable with the new one
    net = PetriNet(places=[f"p{i}" for i in range(8)], transitions=[])
    rng = random.Random(2)
    for _ in range(200):
        result = EnumerationResult()
        for _ in range(12):
            s = frozenset(rng.sample(range(8), rng.randint(1, 5)))
            comparable = any(prev <= s or s <= prev for prev in result.sets)
            if comparable:
                with pytest.raises(RuntimeError, match="antichain"):
                    accept(net, result, s)
            else:
                accept(net, result, s)
                assert result.sets[-1] == s


@pytest.mark.parametrize("max_ms", [-1.0, float("nan")])
def test_budget_rejects_a_negative_or_nan_time(max_ms):
    # NaN compares false with everything, so a NaN deadline would never pass
    with pytest.raises(ValueError):
        Budget(max_ms=max_ms)
    assert Budget(max_ms=0.0).max_ms == 0.0
