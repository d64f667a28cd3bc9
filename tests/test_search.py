import hashlib
import itertools
import random

import pytest

from siphons import (EnumerationResult, PetriNet, Propagator, blocking_clause,
                     brute_force_minimal_siphons, encode_branching, enumerate_minimal_bb,
                     enumerate_minimal_sat, enumerate_minimal_siphons, enumerate_minimal_traps,
                     first_solution_is_minimal_check, gen_3sat_reduction, gen_chain,
                     gen_random_3sat)
from siphons.reactions import export_reactions, parse_reactions
from siphons import search
from siphons.search import Budget, BudgetClock, accept

from conftest import (enzyme_cascade, least_model_corpus, least_model_order, random_net_corpus,
                      singleton_heavy_nets)


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


@pytest.mark.parametrize("kwargs", [
    {"max_conflicts": 2.5}, {"max_conflicts": True}, {"max_conflicts": "5"},
    {"max_ms": "5"}, {"max_ms": True}, {"max_ms": 1j},
])
def test_budget_rejects_a_bad_type(kwargs):
    # A float or bool conflict cap and a non-number time were accepted, or
    # failed later with a TypeError, instead of being refused here.
    with pytest.raises(ValueError):
        Budget(**kwargs)
    assert Budget(max_ms=0).max_ms == 0
    assert Budget(max_conflicts=0, max_ms=1.5).max_conflicts == 0


# -- output order and the one-place minimal siphons --------------------------

ENGINES = (enumerate_minimal_sat, enumerate_minimal_bb)


@pytest.mark.parametrize("enumerate_", ENGINES)
def test_sets_come_in_increasing_lex_order_of_their_characteristic_vectors(enumerate_):
    # The contract of `enumerate_minimal_siphons`: variable 1 (the first
    # place of the branching order) most significant, 0 before 1. It places
    # the one-place sets, which are merged in without search, among the
    # searched ones. Runs cut by the budget must be in order as far as they
    # go.
    budget = Budget(max_conflicts=5000)
    nets = least_model_corpus() + [n for net in singleton_heavy_nets() for n in (net, net.dual())]
    complete = 0
    for net in nets:
        res = enumerate_(net, budget=budget)
        assert res.sets == least_model_order(net, res.sets)
        complete += res.complete
    assert complete == len(nets)


def test_one_place_siphons_cost_no_search():
    # Nearly every minimal siphon and trap of these nets has one place. Their
    # units leave almost nothing to search, and the counters are
    # deterministic, so the decision bound holds on any machine.
    for net in singleton_heavy_nets():
        for instance in (net, net.dual()):
            sat, bb = enumerate_minimal_sat(instance), enumerate_minimal_bb(instance)
            assert sat.complete and bb.complete
            assert sat.sets == bb.sets
            assert sum(len(s) == 1 for s in sat.sets) >= 0.98 * len(sat.sets)
            assert sat.stats.decisions <= 20 and bb.stats.decisions <= 20


def test_no_conflict_is_counted_when_the_root_is_unsat():
    # "t" feeds A from nothing, so the net has no siphon and its encoding is
    # UNSAT at the root. When every minimal siphon has one place, their
    # units make the store UNSAT at the root too: the places left form no
    # siphon, so propagation falsifies every place.
    nets = [PetriNet.from_transitions([("t", [], ["A"])]), singleton_heavy_nets()[0]]
    nets += [net for net in random_net_corpus(60)
             if all(len(s) == 1 for s in brute_force_minimal_siphons(net))]
    assert len(nets) >= 10
    for net in nets:
        sat, bb = enumerate_minimal_sat(net), enumerate_minimal_bb(net)
        assert sat.sets == bb.sets
        assert all(len(s) == 1 for s in sat.sets)
        assert sat.stats.conflicts == bb.stats.conflicts == 0
        assert sat.stats.decisions == bb.stats.decisions == 0
        assert sat.stats.solve_calls == bb.stats.solve_calls == 1


@pytest.mark.parametrize("enumerate_", ENGINES)
def test_a_cut_run_drops_the_pending_one_place_sets(enumerate_):
    # The 500-place net's dual has one trap of two places among 255 of one
    # place; a budget that stops the search around it leaves the one-place
    # sets after it unemitted, and what was emitted is a prefix.
    net = singleton_heavy_nets()[1].dual()
    full = enumerate_(net).sets
    dropped = 0
    for k in (1, 2):
        res = enumerate_(net, budget=Budget(max_conflicts=k))
        assert res.stats.conflicts <= k
        assert res.sets == full[:len(res.sets)]
        if len(res.sets) < len(full):
            assert res.stats.timed_out
            dropped += len(full[len(res.sets)]) == 1
    assert dropped


@pytest.mark.parametrize("k, sat_cut, bb_cut", [
    (1, (True, 1, 1), (True, 1, 1)),
    # SAT's last blocking clause leaves its store UNSAT at the root, so the
    # run is complete with no clock asked; bb's store still needs a search.
    (256, (False, 256, 257), (True, 256, 256)),
])
def test_a_run_cut_right_after_a_set(monkeypatch, k, sat_cut, bb_cut):
    # The deadline passes as the k-th set is accepted. The driver asks the
    # clock after each set and counts a solve call only when it resumes the
    # engine, so either engine cut there reports k sets and k solve calls.
    # Every one of gen_chain(8)'s 256 minimal siphons is searched for.
    accepted = 0

    def counting_accept(net, result, s):
        nonlocal accepted
        accept(net, result, s)
        accepted += 1

    exhausted = BudgetClock.exhausted

    def deadline_after_k_sets(clock):
        if accepted >= k:
            clock.deadline = 0.0
        return exhausted(clock)

    monkeypatch.setattr(search, "accept", counting_accept)
    monkeypatch.setattr(BudgetClock, "exhausted", deadline_after_k_sets)
    net = gen_chain(8)
    for enumerate_, cut in ((enumerate_minimal_sat, sat_cut), (enumerate_minimal_bb, bb_cut)):
        accepted = 0
        res = enumerate_(net)
        assert (res.stats.timed_out, len(res.sets), res.stats.solve_calls) == cut
        assert all(len(s) > 1 for s in res.sets)


def test_first_solution_is_the_merged_first_set():
    # C has no producer, so {C} is a minimal siphon found without search. Its
    # least place is above that of the searched {A, B}, so it comes first.
    net = PetriNet.from_transitions([("t1", ["A"], ["B"]), ("t2", ["B"], ["A"])],
                                    places=["A", "B", "C"])
    assert enumerate_minimal_bb(net).sets == [net.place_set("C"), net.place_set("A", "B")]
    assert enumerate_minimal_bb(net).sets[0] == net.place_set("C")
    assert first_solution_is_minimal_check(net)


@pytest.mark.parametrize("k", [50, 100])
def test_enzyme_cascade_has_one_two_place_set_per_stage(k):
    # The regime of large nets with many small siphons. By the output order,
    # the stage with the greatest least place comes first.
    net = enzyme_cascade(k)
    assert len(net.places) == 3 * k + 1
    expected = [net.place_set(f"E{i}", f"C{i}") for i in range(k, 0, -1)]
    for instance in (net, net.dual()):
        sat, bb = enumerate_minimal_sat(instance), enumerate_minimal_bb(instance)
        assert sat.complete and bb.complete
        assert sat.sets == bb.sets == expected


def red8_rxn() -> PetriNet:
    # CI's red8.rxn: in its .rxn place order, bb took 12,532 conflicts while
    # the engines branched in file order.
    return parse_reactions(export_reactions(gen_3sat_reduction(gen_random_3sat(8, 34, 0))))[0]


@pytest.mark.parametrize("make, sat_counts, bb_counts", [
    (lambda: gen_chain(10), (1024, 1025, 512, 1535, 4600), (1024, 1025, 513, 2559, 3088)),
    (lambda: gen_chain(10).dual(), (1024, 1025, 512, 1535, 4600), (1024, 1025, 513, 2559, 3088)),
    (lambda: gen_3sat_reduction(gen_random_3sat(50, 213, 0)),
     (232, 233, 424, 12907, 12090), (232, 233, 2121, 17385, 20056)),
    (lambda: gen_3sat_reduction(gen_random_3sat(50, 300, 0)),
     (50, 51, 86, 1316, 3565), (50, 51, 102, 1478, 3865)),
    (red8_rxn, (9, 10, 14, 53, 207), (9, 10, 15, 75, 159)),
], ids=["chain10", "chain10-traps", "reduction50-213", "reduction50-300", "red8-rxn"])
def test_effort_counters_are_pinned(make, sat_counts, bb_counts):
    # (sets, solve calls, conflicts, decisions, propagations) of each engine. The counters
    # are deterministic, so a change to the search paths that alters the
    # work they do shows here on any machine.
    net = make()
    for enumerate_, counts in ((enumerate_minimal_sat, sat_counts), (enumerate_minimal_bb, bb_counts)):
        res = enumerate_(net)
        stats = res.stats
        assert res.complete
        assert (len(res.sets), stats.solve_calls, stats.conflicts, stats.decisions,
                stats.propagations) == counts


@pytest.mark.parametrize("n", [8, 12, 15])
def test_bb_costs_the_same_in_any_place_order(n):
    # Read back from .rxn, these reductions list q0 and the r places first.
    # While the engines branched in file order, bb took 12,532 conflicts on
    # the siphons at n=8 and ran out of time from n=10 on. The branching
    # order depends on the structure alone, so the .rxn copy runs the
    # generator order's search: the same sets and the same conflicts, under
    # 100. Conflict counts do not depend on the machine.
    net = gen_3sat_reduction(gen_random_3sat(n, round(4.26 * n), 0))
    rxn = parse_reactions(export_reactions(net))[0]
    assert rxn.places[:2] == ("q0", "r1") and net.places[:2] == ("q0", "s1")
    for generated, read_back in ((net, rxn), (net.dual(), rxn.dual())):
        twins = [enumerate_minimal_bb(target, budget=Budget(max_conflicts=1000))
                 for target in (generated, read_back)]
        assert all(res.complete for res in twins)
        assert twins[0].stats.conflicts == twins[1].stats.conflicts < 100
        assert ([generated.set_names(s) for s in twins[0].sets]
                == [read_back.set_names(s) for s in twins[1].sets])


@pytest.mark.parametrize("make, siphons_md5, traps_md5", [
    (lambda: gen_chain(8), "65ea63e8d350", "5d9d317ff3a6"),
    (red8_rxn, "30641d2e84ff", "543f9a52de33"),
    (lambda: enzyme_cascade(30), "c54b499e547a", "32c924350a3e"),
], ids=["chain8", "red8-rxn", "cascade30"])
def test_bb_trace_is_pinned(make, siphons_md5, traps_md5):
    # The whole `D`/`B`/`S` text of bb's search, hashed. In file order,
    # red8's long backjumps popped many levels per failure; in the branching
    # order its siphons take 15 conflicts. A change to the order, to how a
    # level is popped or to how its depth is written shows here.
    net = make()
    for enumerate_, expected in ((enumerate_minimal_siphons, siphons_md5),
                                 (enumerate_minimal_traps, traps_md5)):
        lines = []
        enumerate_(net, engine="bb", trace=lines.append)
        assert hashlib.md5("\n".join(lines).encode()).hexdigest()[:12] == expected


@pytest.mark.parametrize("enumerate_", [enumerate_minimal_sat, enumerate_minimal_bb])
def test_each_posted_blocking_clause_is_blocking_clause(monkeypatch, enumerate_):
    # The engines read a set's variables and its clause off the trail in one
    # pass and post the clause unchecked; it must be the public
    # `blocking_clause` of the set under the engines' `VarMap`, literal
    # order included, as `_post` sorts it stably by level.
    block, post = Propagator._block_model, Propagator._post
    inside = []  # the clauses `_post` takes within the current `_block_model`
    pairs = []

    def block_model(store):
        inside.append([])
        found = block(store)
        (clause,) = inside.pop()
        pairs.append((found, clause))
        return found

    def post_clause(store, clause):
        if inside:
            inside[-1].append(tuple(clause))
        return post(store, clause)

    monkeypatch.setattr(Propagator, "_block_model", block_model)
    monkeypatch.setattr(Propagator, "_post", post_clause)
    for net in random_net_corpus(40, base_seed=7) + [gen_chain(8), red8_rxn()]:
        for target in (net, net.dual()):
            pairs.clear()
            res = enumerate_(target)
            _, varmap = encode_branching(target)
            found = [frozenset(varmap.order[k - 1] for k in true) for true, _ in pairs]
            # every one-place minimal siphon is settled without search
            assert found == [s for s in res.sets if len(s) > 1]
            for s, (_, clause) in zip(found, pairs):
                assert clause == blocking_clause(s, varmap)


def behaviour_digest() -> tuple[int, int, str]:
    """(runs, runs cut by their budget, md5) over both engines' siphon and
    trap runs on a fixed corpus, at three conflict budgets. Each run hashes
    its sets in order, its counters, whether it was cut, and bb's trace."""
    nets = random_net_corpus(60, base_seed=11) + [enzyme_cascade(30), gen_chain(8), red8_rxn()]
    nets += [gen_3sat_reduction(gen_random_3sat(n, round(alpha * n), seed))
             for n in (10, 15) for alpha in (3, 4.26) for seed in (0, 1)]
    digest = hashlib.md5()
    runs = cut = 0
    for net, enumerate_, engine, max_conflicts in itertools.product(
            nets, (enumerate_minimal_siphons, enumerate_minimal_traps), ("sat", "bb"),
            (3, 50, 20_000)):
        lines = []
        res = enumerate_(net, engine=engine, budget=Budget(max_conflicts=max_conflicts),
                         trace=lines.append if engine == "bb" else None)
        stats = res.stats
        digest.update(repr(([tuple(sorted(s)) for s in res.sets], stats.solve_calls,
                            stats.conflicts, stats.decisions, stats.propagations,
                            stats.timed_out, lines)).encode())
        runs += 1
        cut += stats.timed_out
    return runs, cut, digest.hexdigest()


def test_behaviour_digest_is_pinned():
    # Everything both engines report, on 852 runs, in one hash: a change
    # meant to leave the engines' behaviour alone must leave it equal. A
    # change meant to alter the sets, their order, a counter or the trace
    # updates this pin and gives the reason in CHANGES.md.
    assert behaviour_digest() == (852, 65, "8a54820ff9b1fe859473422f725f8efa")
