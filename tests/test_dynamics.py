import pytest

from siphons import (brute_force_minimal_siphons, brute_force_minimal_traps,
                     check_siphon_emptiness, check_trap_persistence, gen_chain,
                     random_walk, unmarked_places, walk_trace)

from conftest import random_net_corpus


def test_walk_is_deterministic(enzyme):
    m0 = enzyme.marking({"A": 3, "E": 2})
    assert random_walk(enzyme, m0, steps=30, seed=9) == random_walk(enzyme, m0, steps=30, seed=9)


def test_walk_refuses_a_negative_step_count(enzyme):
    with pytest.raises(ValueError) as err:
        random_walk(enzyme, enzyme.marking({"A": 1}), -1)
    assert str(err.value) == "step count must be >= 0"


@pytest.mark.parametrize("steps", [2.5, 2.0])
def test_walks_refuse_a_float_step_count(enzyme, steps):
    m0 = enzyme.marking({"A": 1})
    for walk in (random_walk, walk_trace):
        with pytest.raises(ValueError, match="step count must be an int"):
            walk(enzyme, m0, steps)


def test_walk_seeds_differ(enzyme):
    m0 = enzyme.marking({"A": 5, "E": 5})
    walks = {tuple(random_walk(enzyme, m0, steps=40, seed=s)) for s in range(8)}
    assert len(walks) > 1


def test_walk_stops_at_deadlock(enzyme):
    # A is consumed into B; eventually only E and B remain and nothing fires
    m0 = enzyme.marking({"A": 1, "E": 1})
    walk = random_walk(enzyme, m0, steps=1000, seed=0)
    final = walk[-1]
    assert enzyme.enabled_transitions(final) == frozenset()
    assert len(walk) < 1000


def test_walk_steps_are_firings(enzyme):
    m0 = enzyme.marking({"A": 3, "E": 2})
    walk = random_walk(enzyme, m0, steps=20, seed=3)
    for before, after in zip(walk, walk[1:]):
        fired = [t for t in range(len(enzyme.transitions))
                 if enzyme.is_enabled(before, t) and enzyme.fire(before, t) == after]
        assert fired, "each step is one enabled firing"


def test_walk_trace_format(enzyme):
    m0 = enzyme.marking({"A": 3, "E": 2})
    text = walk_trace(enzyme, m0, steps=3, seed=4)
    lines = text.splitlines()
    assert lines[0] == "0 - E:2 A:3"  # marking shown in net place order
    for line in lines[1:]:
        step, tname, *rest = line.split()
        assert step.isdigit()
        assert tname in enzyme.transitions


@pytest.mark.parametrize("marking", [None, 5, {i: 0 for i in range(6)}],
                         ids=["None", "int", "dict"])
def test_walks_reject_a_marking_that_is_not_a_list_or_tuple(marking):
    # The walks used to call tuple(marking) before any check: None and an
    # int raised TypeError, and a dict walked from its keys.
    net = gen_chain(3)
    with pytest.raises(ValueError, match="list or tuple"):
        random_walk(net, marking, 3)
    with pytest.raises(ValueError, match="list or tuple"):
        walk_trace(net, marking, 3)


def test_trap_persistence_enzyme(enzyme):
    m0 = enzyme.marking({"A": 3, "E": 2})
    walk = random_walk(enzyme, m0, steps=200, seed=11)
    trap = enzyme.place_set("AE", "E")
    assert check_trap_persistence(enzyme, trap, walk)


def test_siphon_emptiness_enzyme(enzyme):
    m0 = enzyme.marking({"E": 2})  # siphon {A, AE} starts empty
    walk = random_walk(enzyme, m0, steps=200, seed=11)
    assert check_siphon_emptiness(enzyme, enzyme.place_set("A", "AE"), walk)


def test_validators_reject_wrong_sets(enzyme):
    m0 = enzyme.marking({"A": 1})
    walk = random_walk(enzyme, m0, steps=5, seed=0)
    with pytest.raises(ValueError):
        check_trap_persistence(enzyme, enzyme.place_set("A"), walk)
    with pytest.raises(ValueError):
        check_siphon_emptiness(enzyme, enzyme.place_set("B"), walk)


def test_unmarked_places(enzyme):
    m = enzyme.marking({"A": 2})
    assert enzyme.set_names(unmarked_places(enzyme, m)) == ("AE", "B", "E")
    assert unmarked_places(enzyme, enzyme.marking({"A": 1, "E": 1, "AE": 1, "B": 1})) == frozenset()


def test_dynamics_properties_on_random_nets():
    checked_traps = checked_siphons = deadlocks = 0
    for seed in range(40):
        net = random_net_corpus(1, base_seed=seed, max_places=8)[0]
        for mseed in range(2):
            import random as _r
            rng = _r.Random(1000 * seed + mseed)
            m0 = tuple(rng.randint(0, 2) for _ in net.places)
            walk = random_walk(net, m0, steps=120, seed=mseed)
            for trap in brute_force_minimal_traps(net):
                assert check_trap_persistence(net, trap, walk)
                checked_traps += 1
            for siphon in brute_force_minimal_siphons(net):
                assert check_siphon_emptiness(net, siphon, walk)
                checked_siphons += 1
            final = walk[-1]
            if not net.enabled_transitions(final):
                um = unmarked_places(net, final)
                if um:
                    assert net.is_siphon(um)
                deadlocks += 1
    assert checked_traps > 50 and checked_siphons > 50 and deadlocks > 5


def test_chain_walk_cycles():
    net = gen_chain(3)
    m0 = net.marking({"A1": 1, "B1": 1})
    walk = random_walk(net, m0, steps=9, seed=0)
    # the only enabled transition at each step moves the pair up one level
    assert len(walk) == 10
    assert walk[-1] == walk[3 * ((len(walk) - 1) // 3)]
