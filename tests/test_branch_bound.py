import functools
import random
from itertools import product

import pytest

from siphons import (Budget, CnfFormula, EnumerationResult, Propagator, SatSolver, SolveStatus,
                     brute_force_minimal_siphons, brute_force_minimal_traps, encode_siphon,
                     enumerate_minimal_bb, enumerate_minimal_sat,
                     first_solution_is_minimal_check, gen_3sat_reduction, gen_chain,
                     gen_random_3sat, gen_random_net)
from siphons import analysis
from siphons.branch_bound import _Dependencies

from conftest import (enzyme_net, example2_net, least_model_order, random_net_corpus,
                      unit_closure)


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


def test_decide_on_a_store_unsat_at_the_root_reports_a_conflict():
    # The intake stops at [-1], so [2, 3] is never attached and nothing
    # would propagate -2 to 3: the store must not call the trail [1, -2]
    # consistent.
    f = CnfFormula(3)
    for clause in ([1], [-1], [2, 3]):
        f.add_clause(clause)
    prop = Propagator(f)
    assert prop.conflicting
    assert not prop.decide(2, False)
    assert prop.conflict is None
    prop.backtrack()
    assert prop.decision_level == 0


def test_propagator_input_errors():
    prop = Propagator(CnfFormula(2))
    assert prop.add_clause([1, -1])  # a tautology leaves the store as it was
    assert (prop.clauses, prop.trail, prop.watches) == ([], [], [[] for _ in range(5)])
    with pytest.raises(ValueError) as err:
        prop.backtrack()
    assert str(err.value) == "already at the root level"
    assert prop.decide(1, True)
    with pytest.raises(ValueError) as err:
        prop.decide(1, False)
    assert str(err.value) == "variable 1 is already assigned"


def random_cnf(rng, num_vars):
    clauses = []
    for _ in range(rng.randint(1, 3 * num_vars)):
        vs = rng.sample(range(1, num_vars + 1), rng.randint(1, min(4, num_vars)))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def assert_matches_closure(prop, clauses, decisions):
    closure = unit_closure(clauses, decisions)
    if closure is None:
        assert prop.conflicting  # callers check a conflict below the root themselves
        return
    assert not prop.conflicting
    assert set(prop.trail) == closure and len(prop.trail) == len(closure)
    for v in range(1, prop.num_vars + 1):
        assert prop.value(v) == (True if v in closure else False if -v in closure else None)


@pytest.mark.parametrize("engine", [Propagator, SatSolver])
def test_kernel_matches_naive_unit_closure(engine):
    # random decide/backtrack/add_clause walks; after every step the trail is
    # the unit-propagation closure of the clauses and the open decisions. A
    # clause is posted at the root or on the live trail, which it may send
    # back to its assertion level.
    rng = random.Random(7)
    walks = conflicts = resumed = 0
    for _ in range(150):
        num_vars = rng.randint(1, 10)
        clauses = random_cnf(rng, num_vars)
        f = CnfFormula(num_vars)
        for clause in clauses:
            f.add_clause(clause)
        prop = engine(f)
        decisions = []
        assert_matches_closure(prop, clauses, decisions)
        if prop.conflicting:
            continue
        walks += 1
        ok = True
        for _ in range(40):
            free = [v for v in range(1, num_vars + 1) if prop.value(v) is None]
            if ok and free and rng.random() < 0.6:
                var = rng.choice(free)
                lit = var if rng.random() < 0.5 else -var
                decisions.append(lit)
                ok = prop.decide(var, lit > 0)
            elif decisions and rng.random() < 0.8:
                decisions.pop()
                prop.backtrack()
                ok = True
            else:
                above = prop.trail[prop.trail_lim[0]:] if ok and prop.trail_lim else []
                if above and rng.random() < 0.5:
                    # posted mid-trail, falsified by it as a blocking clause is
                    picked = rng.sample(above, rng.randint(1, min(3, len(above))))
                    clause = [-lit for lit in picked]
                else:
                    if not ok or rng.random() < 0.5:
                        decisions.clear()
                        while prop.decision_level:
                            prop.backtrack()
                    vs = rng.sample(range(1, num_vars + 1), rng.randint(1, min(3, num_vars)))
                    clause = [v if rng.random() < 0.5 else -v for v in vs]
                clauses.append(clause)
                ok = prop.add_clause(clause)
                if not ok:
                    assert unit_closure(clauses, []) is None
                    break
                # the search goes on from the level the clause left
                del decisions[prop.decision_level:]
                resumed += prop.decision_level > 0
                ok = prop._propagate() is None
            if ok:
                assert_matches_closure(prop, clauses, decisions)
            else:
                conflicts += 1
                assert unit_closure(clauses, decisions) is None
            # each variable's level, kept under its true literal
            for i, lit in enumerate(prop.trail):
                assert prop.level[lit] == sum(1 for head in prop.trail_lim if head <= i)
    assert walks > 80 and conflicts > 20 and resumed > 10


@pytest.mark.parametrize("engine", [Propagator, SatSolver])
def test_kernel_rejects_out_of_range_variables(engine):
    # negative list indices wrap in the literal-indexed arrays, so every
    # public entry checks its variables before touching them
    n = 4
    f = CnfFormula(n)
    f.add_clause([1, -2])
    prop = engine(f)
    # and a bool is no variable, though True == 1
    for bad in (0, -1, -n, n + 1, -(n + 1), True, False):
        with pytest.raises(ValueError):
            prop.value(bad)
    for bad in (-1, -n, 0, n + 1, True, False):
        with pytest.raises(ValueError):
            prop.decide(bad, True)
    assert prop.num_assigned == 0 and not prop.trail_lim
    for bad in (n + 1, -(n + 1), 0, True, False):
        with pytest.raises(ValueError):
            prop.add_clause([1, bad])
    if isinstance(prop, SatSolver):
        with pytest.raises(ValueError, match="no assumptions"):
            prop.solve(assumptions=[1])
        assert prop.solve() == SolveStatus.SAT


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


def test_first_solution_check_refuses_a_first_set_that_is_not_minimal(monkeypatch):
    # {A, AE, E} is a siphon of the enzyme net, the union of its two
    # minimal siphons.
    net = enzyme_net()
    union = net.place_set("A", "AE", "E")
    assert net.is_siphon(union)
    monkeypatch.setattr(analysis, "enumerate_minimal_bb",
                        lambda net: EnumerationResult(sets=[union]))
    assert not first_solution_is_minimal_check(net)


def test_first_solution_check_is_limited_to_12_places():
    with pytest.raises(ValueError) as err:
        first_solution_is_minimal_check(gen_chain(7))  # 14 places
    assert str(err.value) == "exhaustive minimality check is limited to 12 places"


def test_bb_matches_sat_engine():
    for n in range(1, 7):
        net = gen_chain(n)
        assert set(enumerate_minimal_bb(net).sets) == set(enumerate_minimal_sat(net).sets)
        assert len(enumerate_minimal_bb(net).sets) == 2 ** n


def test_bb_trace_format(tmp_path, enzyme):
    path = tmp_path / "trace.txt"
    with open(path, "w") as fh:
        enumerate_minimal_bb(enzyme, trace=functools.partial(print, file=fh))
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


@pytest.mark.parametrize("target", ["siphons", "traps"])
def test_bb_matches_the_oracle_in_least_model_order(target):
    # Backjumping skips only subtrees without a model, so each set is still
    # the least model left: the output is every minimal set, in that order.
    for seed in range(120):
        net = random_net_corpus(1, base_seed=seed)[0]
        if target == "siphons":
            searched, oracle = net, brute_force_minimal_siphons(net)
        else:
            searched, oracle = net.dual(), brute_force_minimal_traps(net)
        assert enumerate_minimal_bb(searched).sets == least_model_order(searched, oracle)


def test_bb_backjumps_past_decisions_a_conflict_does_not_depend_on():
    # Chronological backtracking re-explores every combination of the
    # decisions above a failure and took 2,551 conflicts for these 256 sets.
    res = enumerate_minimal_bb(gen_chain(8))
    assert len(res.sets) == 256 and res.complete
    assert res.stats.conflicts <= len(res.sets)
    # After each set the search resumes at its blocking clause's assertion
    # level; replaying the whole path from the root took 4,219 decisions.
    assert res.stats.decisions <= 4 * len(res.sets)
    assert res.stats.solve_calls == len(res.sets) + 1


def test_bb_replay_stops_at_a_decision_the_new_clause_implies(monkeypatch):
    # With seeds 38 and 271, some blocking clause forces a variable of the
    # replayed path to the value the path had decided for it. The replay
    # stops there and the search goes on from that level, so no later level
    # shifts down under the levels recorded for backjumping.
    events = []
    value = Propagator.value

    def spy(prop, var):
        known = value(prop, var)
        events.append((var, known))
        return known

    monkeypatch.setattr(Propagator, "value", spy)
    implied = 0
    for seed in (38, 271):
        net = random_net_corpus(1, base_seed=seed)[0]
        events.clear()
        res = enumerate_minimal_bb(net, trace=events.append)
        stack, path = [], []
        for event in events:
            if isinstance(event, tuple):  # the replay asks for a path variable
                implied += event in path
            elif event.startswith("D "):
                assignment, depth = event[2:].split()
                var, bit = assignment.split("=")
                del stack[int(depth) - 1:]
                stack.append((int(var), bit == "1"))
            elif event.startswith("B "):
                del stack[int(event[2:]):]
            elif "," in event:  # a searched set: the search unwinds and replays this path
                path = list(stack)
                stack.clear()
            # else `S {p}`: a one-place set, found without search
        assert res.sets == least_model_order(net, brute_force_minimal_siphons(net))
    assert implied >= 1


def forces_conflict(prop, decisions):
    """Whether these decision literals alone, with the clauses and the root
    units, unit-propagate to a conflict: the condition under which jumping
    over every other level skips no solution."""
    fresh = Propagator(CnfFormula(prop.num_vars))
    for lit in prop.trail[:prop.trail_lim[0] if prop.trail_lim else len(prop.trail)]:
        fresh.add_clause([lit])
    for clause in prop.clauses:
        if not fresh.add_clause(clause):
            return True
    for lit in decisions:
        known = fresh.value(abs(lit))
        if known is None:
            if not fresh.decide(abs(lit), lit > 0):
                return True
        elif known != (lit > 0):
            return True
    return False


def test_bb_traced_levels_force_the_failure(monkeypatch):
    # Every failure is checked, those given the full mask without a trace
    # too: the decisions of the levels below it that it is said to depend
    # on, plus its own decision, must force it.
    # The three seeded nets post a blocking clause that changes the replayed
    # trail at a level whose masks were filled in before the solution, so
    # stale masks would show. The chain's dual makes up the failures that the
    # random nets' one-place siphons no longer cost once they are not searched.
    checks = []
    failure = _Dependencies.failure

    def checked(deps):
        levels = failure(deps)
        prop = deps.prop
        top = prop.decision_level
        decisions = [prop.trail[prop.trail_lim[lv - 1]]
                     for lv in range(1, top + 1) if lv == top or levels >> lv & 1]
        checks.append(forces_conflict(prop, decisions))
        return levels

    monkeypatch.setattr(_Dependencies, "failure", checked)
    nets = [gen_random_net(16, 8, 3, 0), gen_random_net(20, 10, 3, 172).dual(),
            random_net_corpus(1, base_seed=288)[0],
            gen_chain(6), gen_chain(6).dual(), gen_3sat_reduction(gen_random_3sat(6, 26, 0))]
    for seed in range(40):
        net = random_net_corpus(1, base_seed=seed)[0]
        nets += [net, net.dual()]
    for net in nets:
        enumerate_minimal_bb(net)
    assert len(checks) > 100 and all(checks)


def cone_levels(prop):
    """The levels below the current one that the clause `prop.conflict`
    falsified depends on, by a walk back over the whole trail from its
    literals through their reasons to the decisions they rest on. The root
    adds only bit 0, which is not reported, so its literals are not walked."""
    level, reason, clauses = prop.level, prop.reason, prop.clauses
    needed = {-q for q in clauses[prop.conflict] if level[-q]}
    levels = 0
    for lit in reversed(prop.trail):
        if not needed:
            break
        if lit in needed:
            needed.remove(lit)
            r = reason[lit]
            if r is None:
                levels |= 1 << level[lit]
            else:
                needed.update(-q for q in clauses[r] if q != lit and level[-q])
    return levels & ((1 << prop.decision_level) - 2)


def test_bb_failure_masks_are_exact(monkeypatch):
    # Each failure's mask, those given without a trace too, is exactly the
    # set of levels its cone over the whole trail reaches. In the branching
    # order the reductions' trap searches take tens of conflicts, so the
    # siphons of the n=30 reductions bring most of the failures.
    masks = []
    failure = _Dependencies.failure

    def checked(deps):
        levels = failure(deps)
        masks.append((levels, cone_levels(deps.prop)))
        return levels

    monkeypatch.setattr(_Dependencies, "failure", checked)
    nets = [gen_chain(8), gen_chain(8).dual()]
    for n, alpha in product((20, 30), (3.0, 4.26, 6.0)):
        net = gen_3sat_reduction(gen_random_3sat(n, round(alpha * n), 0))
        nets += [net, net.dual()]
    for net in nets:
        assert enumerate_minimal_bb(net, budget=Budget(max_conflicts=20_000)).complete
    assert len(masks) > 3000
    assert all(levels == cone for levels, cone in masks)
