import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from siphons import (Budget, CnfFormula, SatSolver, SolveStatus, blocking_clause,
                     encode_branching, encode_siphon, enumerate_minimal_bb, enumerate_minimal_sat,
                     evaluate, gen_chain)

from siphons.search import Propagator

from conftest import (example2_net, least_model_corpus, random_net_corpus, trail_model,
                      unit_closure)


def models_of(formula):
    return [bits for bits in product((False, True), repeat=formula.num_vars)
            if evaluate(formula, bits)]


def assert_clauses_implied(solver, models):
    # every stored clause, learned ones included, holds in every model
    for bits in models:
        assert all(any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)
                   for clause in solver.clauses)


def random_formula(rng, num_vars, num_clauses):
    f = CnfFormula(num_vars)
    for _ in range(num_clauses):
        width = rng.randint(1, min(3, num_vars))
        vs = rng.sample(range(1, num_vars + 1), width)
        f.add_clause([v if rng.random() < 0.5 else -v for v in vs])
    return f


def test_trivial_sat_and_unsat():
    f = CnfFormula(1)
    f.add_clause([1])
    s = SatSolver(f)
    assert s.solve() == SolveStatus.SAT
    assert trail_model(s) == (True,)

    g = CnfFormula(1)
    g.add_clause([1])
    g.add_clause([-1])
    assert SatSolver(g).solve() == SolveStatus.UNSAT


def test_unit_propagation_chain():
    f = CnfFormula(4)
    f.add_clause([1])
    f.add_clause([-1, 2])
    f.add_clause([-2, 3])
    f.add_clause([-3, 4])
    s = SatSolver(f)
    assert s.solve() == SolveStatus.SAT
    assert trail_model(s) == (True, True, True, True)
    assert s.decisions == 0  # pure propagation


def test_false_first_polarity(enzyme):
    # default branching tries 0 before 1, biasing toward small models
    formula, varmap = encode_siphon(enzyme)
    s = SatSolver(formula)
    assert s.solve() == SolveStatus.SAT
    model = trail_model(s)
    assert {enzyme.places[varmap.order[i]] for i, x in enumerate(model) if x} == {"A", "AE"}


def test_pigeonhole_unsat():
    # 3 pigeons, 2 holes: var (p,h) = 2*p + h + 1
    f = CnfFormula(6)
    for p in range(3):
        f.add_clause([2 * p + 1, 2 * p + 2])
    for h in range(2):
        for p1 in range(3):
            for p2 in range(p1 + 1, 3):
                f.add_clause([-(2 * p1 + h + 1), -(2 * p2 + h + 1)])
    assert SatSolver(f).solve() == SolveStatus.UNSAT


def test_incremental_clause_addition():
    f = CnfFormula(2)
    f.add_clause([1, 2])
    s = SatSolver(f)
    assert s.solve() == SolveStatus.SAT
    s.add_clause([-1])
    s.add_clause([-2])
    assert s.solve() == SolveStatus.UNSAT


def test_conflict_budget_reports_unknown():
    rng = random.Random(5)
    # hard random 3-SAT near the phase transition
    f = CnfFormula(60)
    for _ in range(256):
        vs = rng.sample(range(1, 61), 3)
        f.add_clause([v if rng.random() < 0.5 else -v for v in vs])
    status = SatSolver(f).solve(budget=Budget(max_conflicts=1))
    assert status == SolveStatus.UNKNOWN


def test_a_solve_cut_by_its_budget_resumes_to_a_fresh_solvers_answer():
    # A solve cut to UNKNOWN keeps its trail and learned clauses, and the
    # next solve resumes from there: without a budget it must return the
    # status and least model of a fresh solver over the same formula.
    rng = random.Random(13)
    cut = kept = sat = 0
    for _ in range(150):
        num_vars = rng.randint(10, 20)
        f = CnfFormula(num_vars)
        for _ in range(round(rng.uniform(3.5, 5.0) * num_vars)):
            vs = rng.sample(range(1, num_vars + 1), 3)
            f.add_clause([v if rng.random() < 0.5 else -v for v in vs])
        s = SatSolver(f)
        if s.solve(budget=Budget(max_conflicts=rng.randint(1, 5))) is not SolveStatus.UNKNOWN:
            continue
        cut += 1
        kept += s.decision_level > 0
        fresh = SatSolver(f)
        status = s.solve()
        assert status == fresh.solve()
        if status is SolveStatus.SAT:
            assert trail_model(s) == trail_model(fresh)
            sat += 1
    assert cut > 50 and kept > 50 and 10 < sat < cut - 10


def test_solver_matches_brute_force():
    rng = random.Random(0)
    for _ in range(300):
        f = random_formula(rng, rng.randint(1, 8), rng.randint(1, 24))
        got = SatSolver(f).solve()
        want = SolveStatus.SAT if models_of(f) else SolveStatus.UNSAT
        assert got == want
        if got == SolveStatus.SAT:
            s = SatSolver(f)
            s.solve()
            assert evaluate(f, trail_model(s))


def test_learned_clauses_are_implied_on_dense_formulas():
    # 3-CNF above the satisfiability threshold, solved over rounds of
    # add_clause, so the conflicts span several decision levels and
    # learned-clause minimization has reason clauses to drop literals through
    rng = random.Random(1)
    conflicts = 0
    for _ in range(300):
        f = CnfFormula(8)
        for _ in range(34):
            vs = rng.sample(range(1, 9), 3)
            f.add_clause([v if rng.random() < 0.5 else -v for v in vs])
        s = SatSolver(f)
        for _ in range(5):
            models = models_of(f)
            assert s.solve() == (SolveStatus.SAT if models else SolveStatus.UNSAT)
            assert_clauses_implied(s, models)
            if not models:
                break
            clause = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 9), 3)]
            f.add_clause(clause)
            s.add_clause(clause)
        conflicts += s.conflicts
    assert conflicts > 1000


def test_free_solves_return_the_least_model_across_clause_additions():
    # A solve resumes from the trail that the last call left, and a clause
    # falsified by the current assignment backjumps only to its assertion
    # level. Whatever the mix of calls, a solve must still return the least
    # model of every clause so far, in product((False, True), ...) order.
    rng = random.Random(7)
    asserted = tied = 0
    for _ in range(600):
        num_vars = rng.randint(3, 8)
        f = random_formula(rng, num_vars, rng.randint(1, 2 * num_vars))
        s = SatSolver(f)
        models = models_of(f)
        model = None  # the last solve's
        for _ in range(16):
            op = rng.choice("solve solve solve block block falsified falsified falsified any"
                            .split())
            if op == "falsified" and not s.decision_level:
                op = "solve"
            if op == "solve":
                status = s.solve()
                assert status == (SolveStatus.SAT if models else SolveStatus.UNSAT)
                if models:
                    model = trail_model(s)
                    assert model == models[0]
            else:
                if op == "block":  # the non-superset clause of the last model
                    if model is None or not any(model):
                        continue
                    clause = [-v for v in range(1, num_vars + 1) if model[v - 1]]
                elif op == "falsified":
                    false_lits = [-q for q in s.trail]
                    clause = rng.sample(false_lits, min(rng.randint(2, 3), len(false_lits)))
                    top = max(s.level[-q] for q in clause)
                    same = [q for q in false_lits if s.level[-q] == top and q not in clause]
                    if same and rng.random() < 0.5:
                        clause.append(rng.choice(same))  # two literals share the top level
                else:
                    clause = [v if rng.random() < 0.5 else -v
                              for v in rng.sample(range(1, num_vars + 1), rng.randint(2, 3))]
                # A falsified clause with two literals above level 0 keeps the
                # trail up to its assertion level; a unique top literal is asserted.
                falsified = all(s.value(abs(q)) == (q < 0) for q in clause)
                ranked = sorted({q for q in clause if falsified and s.level[-q]},
                                key=lambda q: s.level[-q], reverse=True)
                levels = [s.level[-q] for q in ranked]
                s.add_clause(clause)
                f.add_clause(clause)
                models = models_of(f)
                if len(levels) >= 2:
                    if levels[0] != levels[1]:
                        assert s.decision_level == levels[1]
                        assert s.value(abs(ranked[0])) == (ranked[0] > 0)
                        asserted += 1
                    else:
                        assert s.decision_level == levels[0] - 1
                        tied += 1
            assert_clauses_implied(s, models)
            if not models:
                break
    assert asserted > 100 and tied > 100


def test_enumerate_enzyme(enzyme):
    res = enumerate_minimal_sat(enzyme)
    names = {enzyme.set_names(s) for s in res.sets}
    assert names == {("A", "AE"), ("AE", "E")}
    assert res.complete
    # one solve per found set, one for the final UNSAT, plus shrink steps
    assert res.stats.solve_calls == len(res.sets) + 1 + res.stats.minimize_steps


def test_enumerate_example2():
    net = example2_net()
    res = enumerate_minimal_sat(net)
    assert [net.set_names(s) for s in res.sets] == [("A", "B")]


def test_enumerate_finds_antichain():
    for seed in range(40):
        net = random_net_corpus(1, base_seed=seed)[0]
        sets = enumerate_minimal_sat(net).sets
        for i, a in enumerate(sets):
            for b in sets[i + 1:]:
                assert not (a <= b or b <= a)


def test_enumerate_timeout_is_inexhaustive_not_wrong():
    net = gen_chain(9)
    res = enumerate_minimal_sat(net, budget=Budget(max_conflicts=40))
    assert res.stats.timed_out
    assert not res.complete
    assert len(res.sets) < 512
    for s in res.sets:
        assert net.is_siphon(s)


def test_enumerate_zero_budget_returns_nothing():
    net = gen_chain(3)
    res = enumerate_minimal_sat(net, budget=Budget(max_ms=0))
    assert res.stats.timed_out
    assert res.sets == []


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_enumerate_equals_brute_force_minimal_models(seed):
    rng = random.Random(seed)
    net = random_net_corpus(1, base_seed=seed, max_places=6)[0]
    res = enumerate_minimal_sat(net)
    # collect minimal satisfying assignments of the encoding by brute force
    formula, varmap = encode_siphon(net)
    models = [frozenset(varmap.order[i] for i, x in enumerate(bits) if x)
              for bits in product((False, True), repeat=formula.num_vars)
              if evaluate(formula, bits)]
    minimal = {m for m in models if not any(o < m for o in models)}
    assert set(res.sets) == minimal


def test_sat_finds_the_same_sets_in_the_same_order_as_bb():
    # Both engines branch on the lowest unassigned variable, False first, so
    # each set is the least model left; this is what makes every SAT model
    # minimal without a shrink step. Traps of the reductions with clauses
    # cost bb about a million conflicts in file order; in the branching
    # order every run finishes well inside the budget.
    budget = Budget(max_conflicts=5000)
    corpus = least_model_corpus()
    checked = 0
    for net in corpus:
        sat = enumerate_minimal_sat(net, budget=budget)
        bb = enumerate_minimal_bb(net, budget=budget)
        if sat.stats.timed_out or bb.stats.timed_out:
            continue
        assert sat.sets == bb.sets
        assert sat.stats.minimize_steps == 0
        assert sat.stats.solve_calls == sum(len(s) > 1 for s in sat.sets) + 1
        checked += 1
    assert checked == len(corpus)


def test_enumeration_matches_a_fresh_solve_per_set():
    # The enumeration keeps its trail and learned clauses between solves; a
    # fresh solver over the engines' encoding and every blocking clause so
    # far must find the same next set, down to the same final UNSAT.
    budget = Budget(max_conflicts=5000)
    corpus = least_model_corpus()
    checked = 0
    for net in corpus:
        res = enumerate_minimal_sat(net, budget=budget)
        if res.stats.timed_out:
            continue
        formula, varmap = encode_branching(net)
        blocking, fresh = [], []
        while True:
            solver = SatSolver(formula)
            for clause in blocking:
                solver.add_clause(clause)
            if solver.solve() is SolveStatus.UNSAT:
                break
            model = trail_model(solver)
            fresh.append(frozenset(varmap.order[i] for i, x in enumerate(model) if x))
            blocking.append(blocking_clause(fresh[-1], varmap))
        assert res.sets == fresh
        assert res.stats.solve_calls == sum(len(s) > 1 for s in res.sets) + 1
        checked += 1
    assert checked == len(corpus)


@pytest.mark.parametrize("enumerate_, full_budget", [
    (enumerate_minimal_sat, None),
    # bb's full runs on the traps of the reductions with clauses took about
    # a million conflicts in file order, so a run that the budget cuts is
    # skipped; in the branching order none is
    (enumerate_minimal_bb, Budget(max_conflicts=5000)),
], ids=["enumerate_minimal_sat", "enumerate_minimal_bb"])
def test_conflict_budget_cuts_a_prefix_of_the_full_run(enumerate_, full_budget):
    # One conflict budget for the whole run, which both engines stop at. A
    # run not flagged timed out is the full list; a flagged one is a prefix.
    # Both engines check the budget after every conflict, so a conflict
    # budget cuts a run inside a search, never between sets: the solve call
    # that was cut counts, as the last one of a complete run does.
    cut = 0
    for net in least_model_corpus():
        full = enumerate_(net, budget=full_budget)
        if full.stats.timed_out:
            continue
        for k in (1, 5, 20):
            res = enumerate_(net, budget=Budget(max_conflicts=k))
            assert res.stats.conflicts <= k
            assert res.sets == full.sets[:len(res.sets)]
            assert res.stats.solve_calls == sum(len(s) > 1 for s in res.sets) + 1
            if not res.stats.timed_out:
                assert res.sets == full.sets
            cut += len(res.sets) < len(full.sets)
    assert cut > 0


@pytest.mark.parametrize("engine", [Propagator, SatSolver])
def test_input_clauses_leave_the_root_unit_closure(engine):
    # unit clauses may come anywhere: before the first long clause, between
    # long clauses, contradicting each other, or none at all. A new store is
    # UNSAT exactly when unit propagation refutes its formula; otherwise its
    # trail is the closure, and every clause it holds is satisfied or
    # watches two literals that are not false.
    rng = random.Random(21)
    units_seen = conflicts_seen = 0
    for _ in range(300):
        num_vars = rng.randint(1, 8)
        formula = CnfFormula(num_vars)
        for _ in range(rng.randint(0, 14)):
            width = 1 if num_vars == 1 or rng.random() < 0.15 else rng.randint(2, min(4, num_vars))
            vs = rng.sample(range(1, num_vars + 1), width)
            formula.add_clause([v if rng.random() < 0.5 else -v for v in vs])
        store = engine(formula)
        closure = unit_closure(formula.clauses, [])
        assert store.conflicting == (closure is None)
        units_seen += any(len(c) == 1 for c in formula.clauses)
        conflicts_seen += store.conflicting
        if closure is None:
            continue
        assert set(store.trail) == closure and len(store.trail) == len(closure)
        assign = store.assign
        for ci, clause in enumerate(store.clauses):
            assert ci in store.watches[clause[0]] and ci in store.watches[clause[1]]
            assert 1 in (assign[q] for q in clause) or -1 not in (assign[clause[0]],
                                                                  assign[clause[1]])
    assert units_seen > 50 and conflicts_seen > 5
