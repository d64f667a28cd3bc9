from siphons import (Budget, CnfFormula, Propagator, encode_siphon,
                     enumerate_minimal_bb, enumerate_minimal_sat, first_solution_is_minimal_check,
                     gen_chain)

from conftest import enzyme_net, example2_net, random_net_corpus


def test_propagate_enzyme_goldens(enzyme):
    formula, varmap = encode_siphon(enzyme)
    prop = Propagator(formula)
    v_ae = varmap.var(enzyme.place_index("AE"))
    v_e = varmap.var(enzyme.place_index("E"))
    v_a = varmap.var(enzyme.place_index("A"))

    assert prop.decide(v_ae, True)
    assert prop.value(v_a) is None  # nothing forced yet
    assert prop.value(v_e) is None

    assert prop.decide(v_e, False)  # clause (-3, 1, 2) now forces V_A
    assert prop.value(v_a) is True


def test_propagate_all_zero_conflicts(enzyme):
    formula, _ = encode_siphon(enzyme)
    prop = Propagator(formula)
    ok = True
    for v in range(1, formula.num_vars + 1):
        ok = prop.decide(v, False)
        if not ok:
            break
    assert not ok  # the non-emptiness clause is falsified


def test_propagate_blocking_clause():
    f = CnfFormula(3)
    f.add_clause([-2, -3])
    prop = Propagator(f)
    assert prop.decide(2, True)
    assert prop.value(3) is False


def test_propagator_backtrack():
    f = CnfFormula(2)
    f.add_clause([-1, 2])
    prop = Propagator(f)
    prop.decide(1, True)
    assert prop.value(2) is True
    prop.backtrack()
    assert prop.value(1) is None and prop.value(2) is None
    assert prop.num_assigned == 0


def test_propagator_root_conflict():
    f = CnfFormula(1)
    prop = Propagator(f)
    assert prop.add_clause([1])
    assert not prop.add_clause([-1])
    assert prop.conflicting


def test_bb_enzyme(enzyme):
    res = enumerate_minimal_bb(enzyme)
    assert {enzyme.set_names(s) for s in res.sets} == {("A", "AE"), ("AE", "E")}
    assert res.complete
    # one initial pass plus one resumed pass per blocking clause
    assert res.stats.solve_calls == len(res.sets) + 1


def test_bb_first_solution_matches_fixed_order(enzyme):
    # 0-before-1 with fixed variable order: first solution is {A, AE}
    res = enumerate_minimal_bb(enzyme)
    assert enzyme.set_names(res.sets[0]) == ("A", "AE")


def test_bb_example2():
    net = example2_net()
    res = enumerate_minimal_bb(net)
    assert [net.set_names(s) for s in res.sets] == [("A", "B")]


def test_bb_solutions_never_shrink():
    # later solutions are never subsets of earlier ones (discovery order)
    for seed in range(60):
        net = random_net_corpus(1, base_seed=seed)[0]
        sets = enumerate_minimal_bb(net).sets
        for i, early in enumerate(sets):
            for late in sets[i + 1:]:
                assert not late <= early


def test_bb_first_solution_is_minimal():
    assert first_solution_is_minimal_check(enzyme_net())
    for seed in range(50):
        net = random_net_corpus(1, base_seed=seed)[0]
        assert first_solution_is_minimal_check(net)


def test_bb_matches_sat_engine():
    for n in range(1, 7):
        net = gen_chain(n)
        assert set(enumerate_minimal_bb(net).sets) == set(enumerate_minimal_sat(net).sets)
        assert len(enumerate_minimal_bb(net).sets) == 2 ** n


def test_bb_trace_format(tmp_path, enzyme):
    path = tmp_path / "trace.txt"
    with open(path, "w") as fh:
        enumerate_minimal_bb(enzyme, trace=fh)
    lines = path.read_text().splitlines()
    assert lines, "trace is empty"
    solutions = [l for l in lines if l.startswith("S ")]
    assert solutions == ["S {A, AE}", "S {AE, E}"]
    for line in lines:
        kind = line.split()[0]
        assert kind in {"D", "B", "S"}
        if kind == "D":
            body = line.split()
            assert "=" in body[1] and body[2].isdigit()


def test_bb_timeout():
    net = gen_chain(10)
    res = enumerate_minimal_bb(net, budget=Budget(max_ms=0))
    assert res.stats.timed_out and not res.complete
    assert res.sets == []


def test_bb_budget_partial_results_are_siphons():
    net = gen_chain(9)
    res = enumerate_minimal_bb(net, budget=Budget(max_ms=20))
    if res.stats.timed_out:
        assert len(res.sets) < 512
    for s in res.sets:
        assert net.is_siphon(s)
