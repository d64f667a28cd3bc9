import random
import re

import pytest
from hypothesis import given, strategies as st

from siphons import (CnfFormula, NotEnabledError, PetriNet, Propagator, VarMap,
                     format_place_set, gen_chain, isomorphic, random_walk, siphon_trap_report)

from conftest import enzyme_net, example2_net, irregular_net, potato_net, random_net_corpus


def place_names(net, trans_set):
    return {net.transitions[t] for t in trans_set}


def test_construction_and_indexing(enzyme):
    assert enzyme.places == ("E", "A", "AE", "B")
    assert enzyme.transitions == ("t1", "t_1", "t2")
    assert enzyme.place_index("AE") == 2
    assert enzyme.transition_index("t2") == 2
    with pytest.raises(ValueError):
        enzyme.place_index("nope")
    with pytest.raises(ValueError):
        enzyme.transition_index("nope")


def test_first_appearance_order():
    net = example2_net()
    assert net.places == ("A", "B", "C", "D")
    assert net.transitions == ("r1", "r2", "r3", "r4", "r5")


def test_weights_cleaned():
    net = PetriNet.from_transitions([("t", {"A": 2, "B": 0}, {"C": 1})])
    assert net.places == ("A", "B", "C")  # weight-0 place still declared
    a, t = net.place_index("A"), net.transition_index("t")
    assert net.weight_pt[(a, t)] == 2
    assert (net.place_index("B"), t) not in net.weight_pt
    with pytest.raises(ValueError):
        PetriNet.from_transitions([("t", {"A": -1}, {})])


def test_duplicate_names_rejected():
    with pytest.raises(ValueError):
        PetriNet(("A", "A"), ("t",), {}, {})
    with pytest.raises(ValueError):
        PetriNet.from_transitions([("t", ["A"], []), ("t", ["A"], [])])


def test_adjacency_enzyme(enzyme):
    ae = enzyme.place_index("AE")
    assert place_names(enzyme, enzyme.pre_transitions(ae)) == {"t1"}
    assert place_names(enzyme, enzyme.post_transitions(ae)) == {"t_1", "t2"}


def test_adjacency_example2(example2):
    c = example2.place_index("C")
    assert place_names(example2, example2.pre_transitions(c)) == {"r3", "r5"}


def test_adjacency_potato(potato):
    s3 = potato.place_index("S3")
    assert place_names(potato, potato.post_transitions(s3)) == {"t5"}


def test_isolated_place_has_no_neighbours():
    net = PetriNet(("A", "B"), ("t",), {(0, 0): 1}, {(0, 0): 1})
    b = net.place_index("B")
    assert net.pre_transitions(b) == frozenset()
    assert net.post_transitions(b) == frozenset()


def test_transition_pre_post_places(enzyme):
    t1 = enzyme.transition_index("t1")
    assert {enzyme.places[p] for p in enzyme.pre_places(t1)} == {"A", "E"}
    assert {enzyme.places[p] for p in enzyme.post_places(t1)} == {"AE"}


def test_is_siphon_goldens(enzyme, example2):
    assert enzyme.is_siphon(enzyme.place_set("A", "AE"))
    assert example2.is_siphon(example2.place_set("A", "B", "C", "D"))
    assert not example2.is_siphon(example2.place_set("C", "D"))
    assert not enzyme.is_siphon(frozenset())


def test_is_trap_goldens(enzyme, example2):
    assert example2.is_trap(example2.place_set("C", "D"))
    assert not enzyme.is_trap(enzyme.place_set("A"))
    assert not enzyme.is_trap(frozenset())


def test_potato_branch_variants():
    growth = PetriNet.from_transitions(
        [("t1", ["P1"], ["P1", "S1"]), ("t2", ["S1", "P2"], ["P2"]),
         ("t3", ["S1"], ["S2"]), ("t4", ["S2"], ["S3"])])
    assert growth.is_trap(growth.place_set("S2", "S3"))
    consume = PetriNet.from_transitions(
        [("t1", ["P1"], ["P1", "S1"]), ("t2", ["S1", "P2"], ["P2"]),
         ("t5", ["S3"], ["S4"]), ("t6", ["S4"], ["S1"])])
    assert consume.is_siphon(consume.place_set("S3", "S4"))
    # with both branches active neither special set survives
    full = potato_net()
    assert not full.is_trap(full.place_set("S2", "S3"))
    assert not full.is_siphon(full.place_set("S3", "S4"))


def test_is_proper_siphon(enzyme, example2):
    assert example2.is_proper_siphon(example2.place_set("A", "B"))
    assert not enzyme.is_proper_siphon(enzyme.place_set("E", "AE"))
    assert not example2.is_proper_siphon(example2.place_set("A", "B", "C", "D"))
    # non-siphons are simply not proper siphons
    assert not example2.is_proper_siphon(example2.place_set("C", "D"))


def test_dual_swaps_roles(enzyme, potato):
    d = enzyme.dual()
    ae = d.place_index("AE")
    assert place_names(d, d.pre_transitions(ae)) == {"t_1", "t2"}
    s = potato.place_set("S3", "S4")
    assert potato.is_siphon(s) == potato.dual().is_trap(s)


def test_dual_involution():
    for net in [enzyme_net(), example2_net(), potato_net(), gen_chain(3)]:
        assert net.dual().dual() == net


def test_fire_enzyme(enzyme):
    m = enzyme.marking({"A": 3, "E": 2})
    t1 = enzyme.transition_index("t1")
    assert enzyme.marking_dict(enzyme.fire(m, t1)) == {"A": 2, "E": 1, "AE": 1}


def test_fire_chain():
    net = gen_chain(2)
    m = net.marking({"A1": 1, "B1": 1})
    m2 = net.fire(m, net.transition_index("T1"))
    assert net.marking_dict(m2) == {"A2": 1, "B2": 1}


def test_fire_no_arcs_is_identity():
    net = PetriNet(("A",), ("t",), {}, {})
    m = net.marking({"A": 2})
    assert net.fire(m, 0) == m


def test_fire_requires_enabled(enzyme):
    m = enzyme.marking({})
    with pytest.raises(NotEnabledError):
        enzyme.fire(m, enzyme.transition_index("t1"))


def test_enabled_transitions(enzyme, potato):
    m = enzyme.marking({"A": 3, "E": 2})
    assert place_names(enzyme, enzyme.enabled_transitions(m)) == {"t1"}
    assert enzyme.enabled_transitions(enzyme.marking({})) == frozenset()
    m = potato.marking({"S3": 1})
    assert place_names(potato, potato.enabled_transitions(m)) == {"t5"}


def test_weighted_enabling():
    net = PetriNet.from_transitions([("t", {"A": 2}, {"B": 1})])
    assert not net.is_enabled(net.marking({"A": 1}), 0)
    m2 = net.fire(net.marking({"A": 2}), 0)
    assert net.marking_dict(m2) == {"B": 1}


def test_marking_validation(enzyme):
    with pytest.raises(ValueError):
        enzyme.marking({"A": -1})
    with pytest.raises(ValueError):
        enzyme.marking({"nope": 1})
    with pytest.raises(ValueError):
        enzyme.fire((0, 0), 0)  # wrong length


def test_net_input_error_messages(enzyme):
    with pytest.raises(ValueError) as err:
        PetriNet.from_transitions([("t", ["A"], ["Z"])], places=["A"])
    assert str(err.value) == "place 'Z' not in the given place list"
    with pytest.raises(ValueError) as err:
        enzyme.pre_places(99)
    assert str(err.value) == "invalid transition index 99"
    two = PetriNet.from_transitions([("t", ["A"], ["B"])])
    with pytest.raises(ValueError) as err:
        two.marking_dict((1, -1))
    assert str(err.value) == "marking has a negative token count"


@pytest.mark.parametrize("count", [True, False, 1.5, 1.0, "1", None])
def test_marking_rejects_a_token_count_that_is_not_an_int(count):
    # A bool is an int to Python, but no token count: `marking` used to
    # return (True, 0, ...) and `_check_marking` to pass (1.5, 0, ...).
    net = gen_chain(3)
    with pytest.raises(ValueError):
        net.marking({"A1": count})
    bad = (count,) + (0,) * (len(net.places) - 1)
    with pytest.raises(ValueError):
        net._check_marking(bad)
    with pytest.raises(ValueError):
        siphon_trap_report(net, bad)
    with pytest.raises(ValueError):
        random_walk(net, bad, 3)
    assert net._check_marking((1,) + (0,) * (len(net.places) - 1))


@pytest.mark.parametrize("marking", [None, 5, {i: 0 for i in range(6)}],
                         ids=["None", "int", "dict"])
def test_marking_that_is_not_a_list_or_tuple_is_rejected(marking):
    # A dict of the right length used to pass, its keys read as token counts,
    # and None or an int raised TypeError.
    net = gen_chain(3)
    assert len(net.places) == 6
    with pytest.raises(ValueError, match="list or tuple"):
        net._check_marking(marking)
    with pytest.raises(ValueError, match="list or tuple"):
        siphon_trap_report(net, marking)
    with pytest.raises(ValueError, match="list or tuple"):
        random_walk(net, marking, 3)


@pytest.mark.parametrize("weight_pt, weight_tp", [
    ({(0.5, 0): 1}, {}), ({(True, 0): 1}, {}), ({(0, 0.0): 1}, {}),
    ({}, {(0, True): 1}), ({}, {(False, 1): 1}), ({}, {("0", 1): 1}),
], ids=repr)
def test_arc_index_that_is_not_an_int_is_rejected(weight_pt, weight_tp):
    # The arc keys follow the index rule of `_check_place`: a float index
    # used to raise TypeError, and a bool was taken as place 0 or 1.
    with pytest.raises(ValueError, match="out of range"):
        PetriNet(["a", "b"], ["t"], weight_pt, weight_tp)


@pytest.mark.parametrize("key", [5, (0, 0, 0), (0,), None], ids=repr)
def test_arc_key_that_is_not_a_pair_is_rejected(key):
    # A key that does not unpack as (source, target) used to raise TypeError,
    # or a ValueError from the unpacking that did not name the key.
    message = rf"arc key {re.escape(repr(key))} is not a pair"
    with pytest.raises(ValueError, match=message):
        PetriNet(["a"], ["t"], {key: 1})
    with pytest.raises(ValueError, match=message):
        PetriNet(["a"], ["t"], {}, {key: 1})


def test_format_place_set(enzyme):
    assert format_place_set(enzyme, enzyme.place_set("AE", "A")) == "{A, AE}"


def test_isomorphic_ignores_order(enzyme):
    reordered = PetriNet.from_transitions(
        [("t2", ["AE"], ["B", "E"]), ("t1", ["A", "E"], ["AE"]),
         ("t_1", ["AE"], ["A", "E"])])
    assert reordered != enzyme  # strict equality is order-sensitive
    assert isomorphic(reordered, enzyme)
    other = PetriNet.from_transitions([("t1", ["A", "E"], ["AE"])])
    assert not isomorphic(other, enzyme)


@given(st.data())
def test_siphons_and_traps_closed_under_union(data):
    seed = data.draw(st.integers(0, 500))
    net = random_net_corpus(1, base_seed=seed, max_places=8)[0]
    n = len(net.places)
    a = frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    b = frozenset(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    if net.is_siphon(a) and net.is_siphon(b):
        assert net.is_siphon(a | b)
    if net.is_trap(a) and net.is_trap(b):
        assert net.is_trap(a | b)


@given(st.integers(0, 300))
def test_trap_equals_siphon_of_dual(seed):
    net = random_net_corpus(1, base_seed=seed, max_places=7)[0]
    dual = net.dual()
    for mask in range(1, 1 << len(net.places)):
        s = frozenset(i for i in range(len(net.places)) if mask >> i & 1)
        assert net.is_trap(s) == dual.is_siphon(s)
        assert net.is_siphon(s) == dual.is_trap(s)


def reversed_net(net):
    """The dual as the constructor builds it, checking every arc again."""
    return PetriNet(net.places, net.transitions,
                    weight_pt={(p, t): w for (t, p), w in net.weight_tp.items()},
                    weight_tp={(t, p): w for (p, t), w in net.weight_pt.items()})


def test_dual_equals_the_constructor_built_reversed_net():
    rng = random.Random(31)
    for _ in range(300):
        net = irregular_net(rng)
        dual, expected = net.dual(), reversed_net(net)
        assert type(dual) is PetriNet and dual == expected
        assert list(dual.weight_pt.items()) == list(expected.weight_pt.items())
        assert list(dual.weight_tp.items()) == list(expected.weight_tp.items())
        for p, name in enumerate(net.places):
            assert dual.place_index(name) == p
            assert dual.pre_transitions(p) == expected.pre_transitions(p)
            assert dual.post_transitions(p) == expected.post_transitions(p)
        for t, name in enumerate(net.transitions):
            assert dual.transition_index(name) == t
            assert dual.pre_places(t) == expected.pre_places(t)
            assert dual.post_places(t) == expected.post_places(t)
        s = frozenset(p for p in range(len(net.places)) if rng.random() < 0.5)
        assert dual.is_siphon(s) == expected.is_siphon(s) == net.is_trap(s)
        assert dual.is_proper_siphon(s) == expected.is_proper_siphon(s)
        assert dual.dual() == net


class Index(int):
    """An int subclass, such as an `IntEnum` member; no index rule accepts it."""


INT_SITES = {  # each call takes the plain int 1 as an index, a weight, a literal or a count
    "arc index": lambda one: PetriNet(["a", "b"], ["t"], {(one, 0): 1}),
    "arc weight": lambda one: PetriNet(["a"], ["t"], {(0, 0): one}),
    "pre_transitions": lambda one: gen_chain(2).pre_transitions(one),
    "CnfFormula.add_clause": lambda one: CnfFormula(2).add_clause([one]),
    "Propagator.add_clause": lambda one: Propagator(CnfFormula(2)).add_clause([one]),
    "VarMap.var": lambda one: VarMap(["a", "b"]).var(one),
    "Propagator.value": lambda one: Propagator(CnfFormula(2)).value(one),
    "CnfFormula": lambda one: CnfFormula(one),
    "random_walk": lambda one: random_walk(gen_chain(2), (1, 1, 0, 0), one),
}


@pytest.mark.parametrize("one", [True, Index(1)], ids=["True", "Index(1)"])
@pytest.mark.parametrize("site", INT_SITES.values(), ids=list(INT_SITES))
def test_every_int_rule_refuses_a_bool_and_an_int_subclass(site, one):
    # One rule, `type(x) is int`, at every site: both values equal 1, which
    # each site takes as a plain int.
    site(1)
    with pytest.raises(ValueError):
        site(one)


@pytest.mark.parametrize("make", [
    lambda: [], lambda: set(), lambda: frozenset(), lambda: iter(()),
    lambda: [0, 1, 2], lambda: (2, 0, 2), lambda: {1}, lambda: frozenset({0, 2}),
    lambda: range(3), lambda: iter([1, 2]), lambda: (p for p in (0, 1)),
    lambda: [True], lambda: [False], lambda: {True}, lambda: [1, True], lambda: [True, 1],
    lambda: [1.0], lambda: [0, 1.0], lambda: {1.0}, lambda: [1, 1.0],
    lambda: [Index(1)], lambda: [0, Index(2)], lambda: {Index(2)},
    lambda: [-1], lambda: [0, -1], lambda: {-1, 2},
    lambda: [3], lambda: [0, 3], lambda: {3}, lambda: [10 ** 20],
    lambda: [[0]], lambda: [0, [1]], lambda: [{}], lambda: [0, {1: 2}],
    lambda: ["0"], lambda: [None], lambda: [0, None],
], ids=lambda make: repr(list(make())))
def test_check_set_matches_the_per_place_rule(make):
    net = PetriNet(["a", "b", "c"], ["t"], {(0, 0): 1}, {(0, 1): 1})

    def outcome(check):
        try:
            s = check(make())
        except ValueError as exc:
            return "ValueError", str(exc)
        return s, sorted(map(type, s), key=repr)

    per_place = lambda s: frozenset(net._check_place(p) for p in s)  # noqa: E731
    assert outcome(net._check_set) == outcome(per_place)
