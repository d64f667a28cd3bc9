from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from siphons import (SatSolver, SolveStatus, ThreeSatInstance, brute_force_minimal_siphons,
                     enumerate_minimal_sat, gen_3sat_reduction, gen_chain, gen_random_3sat,
                     gen_random_net)

# seeds where gen_random_3sat(n, 10n) is unsatisfiable, so the reduction has
# exactly n minimal siphons (none containing q0); frozen after checking the
# formulas with the solver below
UNSAT_SEEDS = {3: 0, 4: 0}


def test_chain_structure():
    net = gen_chain(3)
    assert net.places == ("A1", "B1", "A2", "B2", "A3", "B3")
    assert net.transitions == ("T1", "T2", "T3")
    t1 = net.transition_index("T1")
    assert {net.places[p] for p in net.pre_places(t1)} == {"A1", "B1"}
    assert {net.places[p] for p in net.post_places(t1)} == {"A2", "B2"}
    t3 = net.transition_index("T3")  # wraps around
    assert {net.places[p] for p in net.post_places(t3)} == {"A1", "B1"}
    with pytest.raises(ValueError):
        gen_chain(0)


def test_chain_counts():
    for n in range(1, 7):
        net = gen_chain(n)
        sets = enumerate_minimal_sat(net).sets
        assert len(sets) == 2 ** n
        for s in sets:
            # exactly one of Ai/Bi per level
            assert len(s) == n
            levels = {net.places[p][1:] for p in s}
            assert len(levels) == n


def test_3sat_instance_validation():
    with pytest.raises(ValueError):
        ThreeSatInstance(2, ((1, 2, -2),))       # fewer than 3 vars
    with pytest.raises(ValueError):
        ThreeSatInstance(3, ((1, 2),))           # not width 3
    with pytest.raises(ValueError):
        ThreeSatInstance(3, ((1, 2, 4),))        # literal out of range
    with pytest.raises(ValueError):
        ThreeSatInstance(3, ((1, 1, 2),))        # repeated variable
    inst = ThreeSatInstance(4, ((1, -2, 3),))
    assert inst.alpha == 0.25


class Var(IntEnum):
    X1 = 1


@pytest.mark.parametrize("num_vars, clause", [
    (3, (True, 2, 3)),        # a bool literal
    (3, (1.0, 2, 3)),         # a float literal
    (3, (Var.X1, 2, 3)),      # an int subclass
    (3.5, (1, 2, 3)),         # a float variable count
], ids=["bool", "float", "intenum", "float-num-vars"])
def test_3sat_instance_takes_plain_ints_only(num_vars, clause):
    # Each of these used to be accepted, and a bool literal was exported as
    # `True 2 3 0`, which parse_dimacs refuses.
    assert ThreeSatInstance(3, ((1, 2, 3),)).to_dimacs()
    with pytest.raises(ValueError):
        ThreeSatInstance(num_vars, (clause,))


def test_random_3sat_determinism():
    a = gen_random_3sat(10, 42, seed=5)
    b = gen_random_3sat(10, 42, seed=5)
    assert a == b
    assert a != gen_random_3sat(10, 42, seed=6)


def test_random_3sat_shape():
    inst = gen_random_3sat(8, 30, seed=1)
    assert inst.num_vars == 8 and len(inst.clauses) == 30
    for clause in inst.clauses:
        assert len({abs(l) for l in clause}) == 3
        assert all(1 <= abs(l) <= 8 for l in clause)


def test_instance_to_formula_and_dimacs():
    inst = ThreeSatInstance(3, ((1, -2, 3), (-1, 2, -3)))
    f = inst.to_formula()
    assert f.num_vars == 3 and len(f.clauses) == 2
    text = inst.to_dimacs()
    assert "p cnf 3 2" in text
    assert "1 -2 3 0" in text


def test_dimacs_keeps_duplicate_clauses():
    inst = ThreeSatInstance(3, ((1, 2, 3), (1, 2, 3)))
    assert inst.to_dimacs().count("1 2 3 0") == 2


def test_reduction_structure_small():
    inst = gen_random_3sat(3, 2, seed=7)
    net = gen_3sat_reduction(inst)
    assert len(net.places) == 4 * 3 + 1
    assert len(net.transitions) == 2 * 3 + 1 + 2
    # t0 hands the query token to every variable chooser
    t0 = net.transition_index("t0")
    assert {net.places[p] for p in net.pre_places(t0)} == {"q0"}
    assert {net.places[p] for p in net.post_places(t0)} == {
        "r1", "r1b", "r2", "r2b", "r3", "r3b"}
    # clause transitions return the token to q0
    u1 = net.transition_index("u1")
    assert {net.places[p] for p in net.post_places(u1)} == {"q0"}


def test_reduction_structure_large():
    net = gen_3sat_reduction(gen_random_3sat(200, 0, seed=1))
    assert len(net.places) == 801 and len(net.transitions) == 401
    net = gen_3sat_reduction(gen_random_3sat(200, 840, seed=1))
    assert len(net.places) == 801 and len(net.transitions) == 1241


def test_reduction_siphons_no_clauses():
    # with no clauses the only minimal siphons are {q0} and the n pairs
    for n in (3, 4):
        net = gen_3sat_reduction(gen_random_3sat(n, 0, seed=0))
        sets = {net.set_names(s) for s in brute_force_minimal_siphons(net)}
        want = {("q0",)} | {(f"s{i}", f"s{i}b") for i in range(1, n + 1)}
        assert sets == want


def test_reduction_siphons_unsat_formula():
    for n, seed in UNSAT_SEEDS.items():
        inst = gen_random_3sat(n, 10 * n, seed=seed)
        assert SatSolver(inst.to_formula()).solve() == SolveStatus.UNSAT
        net = gen_3sat_reduction(inst)
        sets = {net.set_names(s) for s in brute_force_minimal_siphons(net)}
        assert sets == {(f"s{i}", f"s{i}b") for i in range(1, n + 1)}


def test_reduction_siphons_track_satisfying_assignments():
    # a siphon through q0 picks s-places consistent with satisfying the formula
    inst = ThreeSatInstance(3, ((1, 2, 3),))
    net = gen_3sat_reduction(inst)
    with_q0 = [s for s in brute_force_minimal_siphons(net)
               if net.place_index("q0") in s]
    assert with_q0, "satisfiable formula must give a q0 siphon"
    solver = SatSolver(inst.to_formula())
    assert solver.solve() == SolveStatus.SAT
    for s in with_q0:
        names = set(net.set_names(s))
        # never both polarities of one variable
        for i in (1, 2, 3):
            assert not ({f"s{i}", f"s{i}b"} <= names)


def test_random_net_determinism_and_bounds():
    a = gen_random_net(8, 6, 3, seed=2)
    assert a == gen_random_net(8, 6, 3, seed=2)
    assert a != gen_random_net(8, 6, 3, seed=3)
    assert len(a.places) == 8 and len(a.transitions) == 6
    for t in range(len(a.transitions)):
        assert 1 <= len(a.pre_places(t)) <= 3
        assert 1 <= len(a.post_places(t)) <= 3


def test_random_net_validation():
    with pytest.raises(ValueError):
        gen_random_net(0, 3, 1)
    with pytest.raises(ValueError):
        gen_random_net(3, 3, 4)  # degree above place count
    # zero transitions is legal: every nonempty place set is then a siphon
    assert len(gen_random_net(3, 0, 1).transitions) == 0
    with pytest.raises(ValueError):
        gen_random_3sat(3, -1)


@pytest.mark.parametrize("make, name", [
    (lambda: gen_chain(True), "n"),
    (lambda: gen_chain(2.0), "n"),
    (lambda: gen_random_3sat(True, 2), "n"),
    (lambda: gen_random_3sat(5.0, 2), "n"),
    (lambda: gen_random_3sat(5, True), "m"),
    (lambda: gen_random_3sat(5, 2.5), "m"),
    (lambda: gen_random_net(True, 2, 1), "n_places"),
    (lambda: gen_random_net(3.0, 2, 1), "n_places"),
    (lambda: gen_random_net(3, True, 1), "n_transitions"),
    (lambda: gen_random_net(3, 2.0, 1), "n_transitions"),
    (lambda: gen_random_net(3, 2, True), "degree"),
    (lambda: gen_random_net(3, 2, 1.5), "degree"),
], ids=["chain-n-bool", "chain-n-float", "3sat-n-bool", "3sat-n-float", "3sat-m-bool",
        "3sat-m-float", "net-places-bool", "net-places-float", "net-transitions-bool",
        "net-transitions-float", "net-degree-bool", "net-degree-float"])
def test_generator_counts_take_plain_ints_only(make, name):
    # A bool count used to be read as 0 or 1, and a float one failed with a
    # TypeError or ValueError from deep inside `random` or `range`.
    with pytest.raises(ValueError, match=f"^{name} .*must be an int"):
        make()


@settings(max_examples=30)
@given(st.integers(3, 12), st.integers(0, 40), st.integers(0, 100))
def test_reduction_place_transition_counts(n, m, seed):
    net = gen_3sat_reduction(gen_random_3sat(n, m, seed=seed))
    assert len(net.places) == 4 * n + 1
    assert len(net.transitions) == 2 * n + 1 + m
