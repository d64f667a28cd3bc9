import random

import pytest

from siphons import (Budget, PetriNet, brute_force_minimal_siphons, brute_force_minimal_traps,
                     canonical_order, enumerate_minimal_bb, enumerate_minimal_sat,
                     enumerate_minimal_siphons, enumerate_minimal_traps, filter_containing,
                     gen_3sat_reduction, gen_chain, gen_random_3sat, gen_random_net,
                     max_trap_within, siphon_trap_report)

from conftest import example2_net, potato_net, random_net_corpus


def names(net, sets):
    return [net.set_names(s) for s in sets]


def test_engine_dispatch(enzyme):
    want = {("A", "AE"), ("AE", "E")}
    for engine in ("sat", "bb", "oracle"):
        res = enumerate_minimal_siphons(enzyme, engine=engine)
        assert set(names(enzyme, res.sets)) == want
    with pytest.raises(ValueError):
        enumerate_minimal_siphons(enzyme, engine="nope")
    with pytest.raises(ValueError):
        enumerate_minimal_siphons(enzyme, engine="sat", trace=print)


def test_traps_via_dual(enzyme, example2):
    res = enumerate_minimal_traps(enzyme)
    assert set(names(enzyme, res.sets)) == {("B",), ("AE", "E")}
    res = enumerate_minimal_traps(example2)
    assert names(example2, res.sets) == [("C", "D")]


def test_trap_oracle_is_direct(enzyme):
    # the brute-force trap oracle tests is_trap itself, not the dual route
    got = brute_force_minimal_traps(enzyme)
    assert set(names(enzyme, got)) == {("B",), ("AE", "E")}
    for s in got:
        assert enzyme.is_trap(s)


def test_canonical_order(example2):
    sets = [example2.place_set("A", "B", "C", "D"), example2.place_set("C", "D"),
            example2.place_set("A", "B")]
    ordered = canonical_order(example2, sets)
    assert names(example2, ordered) == [("A", "B"), ("C", "D"), ("A", "B", "C", "D")]


def test_filter_containing(example2):
    sets = [example2.place_set("A", "B"), example2.place_set("C", "D")]
    kept = filter_containing(sets, example2.place_set("C"))
    assert names(example2, kept) == [("C", "D")]
    assert filter_containing(sets, frozenset()) == sets


def test_max_trap_within_example2(example2):
    all_places = example2.place_set("A", "B", "C", "D")
    assert max_trap_within(example2, all_places) == all_places
    assert max_trap_within(example2, example2.place_set("A", "B")) == frozenset()
    assert max_trap_within(example2, example2.place_set("C", "D")) == example2.place_set("C", "D")


def test_max_trap_within_is_greatest(potato):
    # every trap inside s is contained in max_trap_within(s)
    for seed in range(30):
        net = random_net_corpus(1, base_seed=seed, max_places=7)[0]
        n = len(net.places)
        s = frozenset(range(0, n, 2))
        best = max_trap_within(net, s)
        assert best <= s
        if best:
            assert net.is_trap(best)
        for mask in range(1, 1 << n):
            sub = frozenset(i for i in range(n) if mask >> i & 1)
            if sub <= s and net.is_trap(sub):
                assert sub <= best


def test_oracle_place_cap():
    net = gen_chain(11)  # 22 places, above the default cap
    with pytest.raises(ValueError):
        brute_force_minimal_siphons(net)
    small = gen_chain(8)
    assert len(brute_force_minimal_siphons(small)) == 2 ** 8


def test_oracle_honours_budget():
    net = gen_random_net(18, 6, 3, seed=1)
    full = set(brute_force_minimal_siphons(net))
    res = enumerate_minimal_siphons(net, engine="oracle", budget=Budget(max_ms=0))
    assert res.stats.timed_out and not res.complete
    # a cut scan keeps only sets that are minimal among all subsets
    assert 0 < len(res.sets) < len(full) and set(res.sets) <= full


def test_oracle_minimality(example2):
    got = brute_force_minimal_siphons(example2)
    assert names(example2, got) == [("A", "B")]


def test_report_enzyme(enzyme):
    marking = enzyme.marking({"A": 3, "E": 2})
    report = siphon_trap_report(enzyme, marking)
    by_siphon = {r.siphon: r for r in report.rows}
    r1 = by_siphon[("A", "AE")]
    assert r1.proper and r1.trap == () and not r1.trap_marked
    r2 = by_siphon[("AE", "E")]
    assert not r2.proper
    assert r2.trap == ("AE", "E") and r2.trap_marked
    assert not report.all_marked
    assert not report.timed_out


def test_report_takes_names_given_with_the_siphons(monkeypatch):
    # A caller that has named the siphons passes the names along, and the
    # report names only the traps; the rows are those of a report that
    # names the siphons itself.
    net = gen_chain(4)
    marking = net.marking({"A1": 1, "B3": 2})
    siphons = enumerate_minimal_siphons(net)
    expected = siphon_trap_report(net, marking, siphons=siphons)
    given = [net.set_names(s) for s in siphons.sets]
    named = []
    set_names = PetriNet.set_names
    monkeypatch.setattr(PetriNet, "set_names", lambda n, s: named.append(s) or set_names(n, s))
    report = siphon_trap_report(net, marking, siphons=siphons, names=given)
    assert report == expected
    assert len(named) == len(siphons.sets)  # one per row, for its trap
    for kwargs in ({"siphons": siphons, "names": given[1:]}, {"names": given}):
        with pytest.raises(ValueError, match="each set of the given siphons"):
            siphon_trap_report(net, marking, **kwargs)


def test_report_zero_marking(potato):
    report = siphon_trap_report(potato, potato.marking({}))
    assert all(not row.trap_marked for row in report.rows)


def test_report_vacuous_when_no_siphons():
    net = PetriNet.from_transitions([("t", [], ["A"])], places=["A"])
    report = siphon_trap_report(net, net.marking({}))
    assert report.rows == [] and report.all_marked


def test_engines_answer_a_net_without_places():
    # No nonempty siphon, so an empty, complete result and no trace line,
    # though the net has no encoding; a transition with neither inputs nor
    # outputs changes nothing.
    lines = []
    for net in (PetriNet.from_transitions([]), PetriNet.from_transitions([("t", [], [])])):
        for result in (enumerate_minimal_sat(net), enumerate_minimal_bb(net, trace=lines.append),
                       enumerate_minimal_traps(net, engine="bb")):
            assert result.sets == [] and result.complete
    assert lines == []


def test_report_serialization(enzyme):
    marking = enzyme.marking({"A": 3, "E": 2})
    report = siphon_trap_report(enzyme, marking)
    d = report.to_dict()
    assert [row["siphon"] for row in d["siphons"]] == [["A", "AE"], ["AE", "E"]]
    assert d["every_siphon_has_marked_trap"] is False
    text = report.to_text()
    assert "max trap {AE, E} (marked)" in text


def test_engines_agree_with_oracle_on_random_nets():
    for seed in range(120):
        net = random_net_corpus(1, base_seed=seed)[0]
        oracle = set(brute_force_minimal_siphons(net))
        assert set(enumerate_minimal_siphons(net, engine="sat").sets) == oracle
        assert set(enumerate_minimal_siphons(net, engine="bb").sets) == oracle
        t_oracle = set(brute_force_minimal_traps(net))
        assert set(enumerate_minimal_traps(net, engine="sat").sets) == t_oracle
        assert set(enumerate_minimal_traps(net, engine="bb").sets) == t_oracle


def max_siphon_within(net, s):
    """The greatest siphon inside s (possibly empty), the dual of
    max_trap_within, by a worklist fixpoint: a place leaves when one of its
    producers consumes from no remaining place, tracked by a per-transition
    count of remaining input places."""
    alive = set(s)
    inputs_left = {}
    for q in alive:
        for t in net.post_transitions(q):
            inputs_left[t] = inputs_left.get(t, 0) + 1
    queue = [q for q in alive if any(inputs_left.get(t, 0) == 0 for t in net.pre_transitions(q))]
    while queue:
        q = queue.pop()
        if q not in alive:
            continue
        alive.remove(q)
        for t in net.post_transitions(q):
            inputs_left[t] -= 1
            if inputs_left[t] == 0:
                queue.extend(r for r in net.post_places(t) if r in alive)
    return frozenset(alive)


def test_max_siphon_within_is_greatest():
    for seed in range(30):
        net = random_net_corpus(1, base_seed=seed, max_places=7)[0]
        n = len(net.places)
        s = frozenset(range(0, n, 2))
        best = max_siphon_within(net, s)
        assert not best or net.is_siphon(best)
        for mask in range(1, 1 << n):
            sub = frozenset(i for i in range(n) if mask >> i & 1)
            if sub <= s and net.is_siphon(sub):
                assert sub <= best


def test_engines_agree_past_oracle_cap():
    # nets of 13-49 places, too large for the brute-force oracle
    rng = random.Random(7)
    nets = [gen_3sat_reduction(gen_random_3sat(n, round(alpha * n), rng.randrange(2 ** 31)))
            for n in (10, 11, 12) for alpha in (0.0, 2.0, 4.26, 6.0) for _ in range(3)]
    nets += [gen_random_net(places, places // 3, 3, seed=rng.randrange(2 ** 31))
             for places in range(13, 41) for _ in range(2)]
    for net in nets:
        sat = enumerate_minimal_siphons(net, engine="sat")
        bb = enumerate_minimal_siphons(net, engine="bb")
        assert sat.complete and bb.complete
        assert set(sat.sets) == set(bb.sets)
        assert all(net.is_siphon(s) for s in sat.sets)
        # minimal: no siphon at all survives inside s with any one place removed
        assert all(not max_siphon_within(net, s - {p}) for s in sat.sets for p in s)


def test_budget_passes_through(enzyme):
    res = enumerate_minimal_siphons(gen_chain(10), budget=Budget(max_ms=0))
    assert res.stats.timed_out
