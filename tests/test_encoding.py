import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from siphons import (CnfFormula, ParseError, PetriNet, Propagator, VarMap, blocking_clause,
                     encode_siphon, evaluate, export_dimacs, parse_dimacs)

from conftest import enzyme_net, irregular_net, random_net_corpus

ENZYME_CLAUSES = {(-2, 3), (-3, 1, 2), (-1, 3), (-4, 3), (1, 2, 3, 4)}


def test_enzyme_clause_golden(enzyme):
    formula, varmap = encode_siphon(enzyme)
    assert formula.num_vars == 4
    assert {tuple(sorted(c)) for c in formula.clauses} == ENZYME_CLAUSES
    assert len(formula.clauses) == 5  # duplicates removed
    assert varmap.names == ("E", "A", "AE", "B")
    assert varmap.var(enzyme.place_index("AE")) == 3
    assert varmap.place(3) == enzyme.place_index("AE")


def test_varmap_true_places(enzyme):
    _, varmap = encode_siphon(enzyme)
    model = (False, True, True, False)
    assert {enzyme.places[p] for p in varmap.true_places(model)} == {"A", "AE"}


def test_encoding_models_are_nonempty_siphons(enzyme):
    formula, _ = encode_siphon(enzyme)
    for bits in product((False, True), repeat=4):
        s = frozenset(i for i, x in enumerate(bits) if x)
        assert evaluate(formula, bits) == (bool(s) and enzyme.is_siphon(s))


def test_self_loop_clause_is_tautology_and_dropped():
    # a transition consuming and producing the same place constrains nothing
    net = PetriNet.from_transitions([("t", ["A"], ["A"])])
    formula, _ = encode_siphon(net)
    assert formula.clauses == [(1,)]  # only non-emptiness remains


def test_source_transition_forbids_place():
    # a producer that consumes nothing forces the place out of every siphon
    net = PetriNet.from_transitions([("t", [], ["A"])], places=["A"])
    formula, _ = encode_siphon(net)
    assert (-1,) in formula.clauses


def test_blocking_clause(enzyme):
    _, varmap = encode_siphon(enzyme)
    s = enzyme.place_set("A", "AE")
    assert tuple(sorted(blocking_clause(s, varmap))) == (-3, -2)


@pytest.mark.parametrize("store", [CnfFormula, lambda n: Propagator(CnfFormula(n))],
                         ids=["CnfFormula", "Propagator"])
def test_add_clause_rejects_bool_literals(store):
    # True == 1 as an int, but DIMACS would get "True" for it, which
    # parse_dimacs rejects; a bool is no literal, as it is no place index
    target = store(2)
    for clause in ([True, -2], [1, False], [2, -1, True]):
        with pytest.raises(ValueError, match="bad literal"):
            target.add_clause(clause)
    assert target.add_clause([1, -2])
    if isinstance(target, CnfFormula):
        assert parse_dimacs(export_dimacs(target)).clauses == [(1, -2)]


def test_varmap_rejects_indices_out_of_range_and_bools():
    # True == 1 as an int, so a range check alone takes True as place 1
    # and as variable 1
    varmap = VarMap(["a", "b"])
    assert [varmap.var(p) for p in (0, 1)] == [1, 2]
    assert [varmap.place(v) for v in (1, 2)] == [0, 1]
    for bad in (-1, 2, True, False, 1.0):
        with pytest.raises(ValueError, match="invalid place index"):
            varmap.var(bad)
    for bad in (0, 3, True, False, 1.0):
        with pytest.raises(ValueError, match="invalid variable"):
            varmap.place(bad)


def test_formula_add_clause_rules():
    f = CnfFormula(3)
    assert f.add_clause([1, 2])
    assert not f.add_clause([2, 1])      # duplicate (order-insensitive)
    assert not f.add_clause([1, -1, 3])  # tautology
    assert f.add_clause([1, 1, 2, 3])    # repeated literal collapses
    assert f.clauses[-1] == (1, 2, 3)
    with pytest.raises(ValueError):
        f.add_clause([])
    with pytest.raises(ValueError):
        f.add_clause([4])
    with pytest.raises(ValueError):
        f.add_clause([0])
    with pytest.raises(ValueError):
        CnfFormula(0)


def test_evaluate():
    f = CnfFormula(2)
    f.add_clause([1, 2])
    f.add_clause([-1])
    assert evaluate(f, (False, True))
    assert not evaluate(f, (True, True))
    with pytest.raises(ValueError):
        evaluate(f, (True,))


def test_dimacs_export_golden(enzyme):
    formula, varmap = encode_siphon(enzyme)
    text = export_dimacs(formula, varmap)
    lines = text.splitlines()
    assert "c var 3 = AE" in lines
    assert "p cnf 4 5" in lines
    assert all(line.endswith(" 0") for line in lines if not line.startswith(("c", "p")))


def test_dimacs_roundtrip(enzyme):
    formula, varmap = encode_siphon(enzyme)
    parsed = parse_dimacs(export_dimacs(formula, varmap))
    assert parsed.num_vars == formula.num_vars
    assert {tuple(sorted(c)) for c in parsed.clauses} == ENZYME_CLAUSES


def test_dimacs_parse_flexible():
    text = "c comment\np cnf 3 2\n1 -2\n3 0\n2 -3 0\n%\n0\n"
    f = parse_dimacs(text)
    assert f.num_vars == 3
    assert f.clauses == [(1, -2, 3), (2, -3)]


def test_dimacs_parse_errors():
    with pytest.raises(ValueError):
        parse_dimacs("1 2 0\n")               # missing header
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\n3 0\n")      # literal out of range
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 2\n1 0\n")      # clause count mismatch


@pytest.mark.parametrize("text, message", [
    ("p cnf 2\n1 0\n", "line 1: bad problem line"),
    ("p dnf 2 1\n1 0\n", "line 1: bad problem line"),
    ("p cnf x 1\n1 0\n", "line 1: bad problem line"),
    ("p cnf 2 1\n1 a 0\n", "line 2: bad literal 'a'"),
    ("p cnf 2 1\n0\n", "line 2: empty clause"),
    ("c a comment and nothing else\n", "missing problem line"),
    ("p cnf 0 0\n", "line 1: bad problem line"),
    ("p cnf -2 1\n1 0\n", "line 1: bad problem line"),
    ("c header\np cnf 2 -1\n", "line 2: bad problem line"),
    ("p cnf 3 1\n5 0\n", "line 2: bad literal '5'"),
    ("p cnf 3 2\n1 2\n-3 -4 0\n2 0\n", "line 3: bad literal '-4'"),
    ("p cnf 3 1\n3 0\np cnf 1 1\n", "line 3: bad problem line"),
], ids=["short-problem-line", "not-cnf", "bad-count", "bad-literal", "lone-zero",
        "no-problem-line", "no-variables", "negative-variables", "negative-clauses", "literal-above-range",
        "negative-literal-above-range", "second-problem-line"])
def test_dimacs_parse_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_dimacs(text)
    assert str(err.value) == message


def test_dimacs_last_clause_may_omit_its_zero():
    assert parse_dimacs("p cnf 2 1\n1 -2\n").clauses == [(1, -2)]


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_encoding_soundness_random_nets(seed):
    net = random_net_corpus(1, base_seed=seed, max_places=7)[0]
    formula, _ = encode_siphon(net)
    for bits in product((False, True), repeat=len(net.places)):
        s = frozenset(i for i, x in enumerate(bits) if x)
        assert evaluate(formula, bits) == (bool(s) and net.is_siphon(s))


def checked_encoding(net):
    """encode_siphon's clauses, each one through the checked `add_clause`."""
    n = len(net.places)
    formula = CnfFormula(n)
    for p in range(n):
        for t in sorted(net.pre_transitions(p)):
            formula.add_clause((-(p + 1), *(q + 1 for q in sorted(net.pre_places(t)))))
    formula.add_clause(range(1, n + 1))
    return formula


def test_encoding_equals_the_checked_build_on_irregular_nets():
    rng = random.Random(11)
    shapes = {"self-loop": 0, "no inputs": 0, "repeated producer": 0}
    for _ in range(400):
        net = irregular_net(rng)
        formula, varmap = encode_siphon(net)
        assert formula.num_vars == len(net.places) == varmap.num_vars
        assert formula.clauses == checked_encoding(net).clauses
        inputs = [net.pre_places(t) for t in range(len(net.transitions))]
        shapes["self-loop"] += any(p in inputs[t] for p in range(len(net.places))
                                   for t in net.pre_transitions(p))
        shapes["no inputs"] += any(not inputs[t] and net.post_places(t)
                                   for t in range(len(net.transitions)))
        shapes["repeated producer"] += any(
            len({inputs[t] for t in net.pre_transitions(p)}) < len(net.pre_transitions(p))
            for p in range(len(net.places)))
    assert min(shapes.values()) > 40, shapes


def test_add_clause_rejects_an_encoded_clause_in_any_order():
    rng = random.Random(12)
    for _ in range(200):
        formula, _ = encode_siphon(irregular_net(rng))
        encoded = list(formula.clauses)
        for clause in encoded:
            literals = list(clause)
            rng.shuffle(literals)
            assert not formula.add_clause(literals)
        assert formula.clauses == encoded
        fresh = [-1, formula.num_vars] if formula.num_vars > 1 else None
        if fresh is not None and formula.add_clause(fresh):
            assert not formula.add_clause(reversed(fresh))
            assert formula.clauses == encoded + [tuple(fresh)]
