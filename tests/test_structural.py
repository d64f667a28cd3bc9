"""A completeness oracle past the brute-force oracle's 20 places.

`structural_minimal_sets` enumerates minimal siphons by a search over place
constraints with a greatest-siphon fixpoint, the dedicated Petri-net method
(Cordone, Ferrarini and Piroddi, IEEE TSMC-A 2005), straight from the
net's arcs. It imports nothing from `encoding`, `search`, `sat` or
`branch_bound`: the engines share the encoding, the propagator and the
enumeration driver, so a fault there would make sat and bb agree on a
wrong list.
"""

import random

from siphons import (brute_force_minimal_siphons, brute_force_minimal_traps, canonical_order,
                     enumerate_minimal_siphons, enumerate_minimal_traps, gen_3sat_reduction,
                     gen_random_3sat, gen_random_net)

from conftest import enzyme_cascade, irregular_net, random_net_corpus


def structural_minimal_sets(net, traps=False):
    """The minimal siphons of `net` (its minimal traps with `traps`), in
    increasing lex order of their characteristic vectors over place
    indices, place 0 most significant and absent before present.

    A 0-first depth-first search over places in index order. At each node
    the places outside the greatest siphon that avoids the excluded places
    are excluded, and the search fails if that drops an included one. An
    included place whose producer has one input left includes it, and a
    found set with one place left open excludes it. Each set found is the
    lex-least siphon that holds no earlier one, so it is minimal. A trap is
    a siphon with every arc reversed.
    """
    n, nt = len(net.places), len(net.transitions)
    inputs = [set() for _ in range(nt)]
    outputs = [set() for _ in range(nt)]
    for p, t in net.weight_pt:
        (outputs if traps else inputs)[t].add(p)
    for t, p in net.weight_tp:
        (inputs if traps else outputs)[t].add(p)
    consumers = [[] for _ in range(n)]
    producers = [[] for _ in range(n)]
    for t in range(nt):
        for p in inputs[t]:
            consumers[p].append(t)
        for p in outputs[t]:
            producers[p].append(t)
    everything = frozenset(range(n))
    found = []

    def greatest(excluded):
        # Take out the outputs of each transition with no input left.
        live = [len(ins - excluded) for ins in inputs]
        dead = set(excluded)
        stack = [t for t in range(nt) if not live[t]]
        while stack:
            for p in outputs[stack.pop()] - dead:
                dead.add(p)
                for u in consumers[p]:
                    live[u] -= 1
                    if not live[u]:
                        stack.append(u)
        return everything - dead

    def search(included, excluded):
        while True:
            g = greatest(excluded)
            if not included <= g:
                return
            excluded = everything - g
            more, fewer = set(), set()
            for p in included:
                for t in producers[p]:
                    live = inputs[t] & g
                    if len(live) == 1:
                        more |= live
            for f in found:
                if not f & excluded:
                    rest = f - included
                    if not rest:
                        return
                    if len(rest) == 1:
                        fewer |= rest
            if more <= included and not fewer:
                break
            included |= more
            excluded |= fewer
        free = [p for p in range(n) if p not in included and p not in excluded]
        if not free:
            if included:
                found.append(frozenset(included))
            return
        search(included, excluded | {free[0]})
        search(included | {free[0]}, excluded)

    search(frozenset(), frozenset())
    return found


def structural_corpus():
    """(net, whether its traps are compared too): random nets of 30-120
    places, enzyme cascades up to k=20 and 3-SAT reductions up to n=20 (81
    places), drawn from a fixed seed.

    The corpus was fixed by the enumerator's run time alone, measured on a
    2-vCPU machine before any list was compared. Every net here takes it
    under 0.4 s (the slowest is the reduction at n=20, alpha 3) and most
    under 40 ms. Two of the twelve random draws are left out: draw 8 (89
    places) has thousands of minimal siphons and traps, and the enumerator
    ran past 10 s on both; draw 11 (55 places) took it 1.0 s for 42
    siphons. The reductions enter on the siphon side only: the enumerator
    learns nothing, and their traps took it 3.8-5.7 s at n=15 with
    clauses and over 10 s at n=20."""
    rng = random.Random(26)
    nets = []
    for draw in range(12):
        places = rng.randint(30, 120)
        net = gen_random_net(places, rng.randint(places // 3, places), rng.randint(2, 4),
                             seed=rng.randrange(2 ** 31))
        if draw not in (8, 11):
            nets.append((net, True))
    nets += [(enzyme_cascade(k), True) for k in (5, 12, 20)]
    reductions = [gen_3sat_reduction(gen_random_3sat(n, round(alpha * n), rng.randrange(2 ** 31)))
                  for n in (10, 15, 20) for alpha in (0.0, 3.0, 4.26, 6.0)]
    return nets + [(net, False) for net in reductions]


def test_the_engines_match_a_structural_enumerator_past_the_oracle():
    runs = 0
    for net, with_traps in structural_corpus():
        for traps in (False, True) if with_traps else (False,):
            enumerate_ = enumerate_minimal_traps if traps else enumerate_minimal_siphons
            sat, bb = enumerate_(net, engine="sat"), enumerate_(net, engine="bb")
            assert sat.complete and bb.complete
            expected = structural_minimal_sets(net, traps)
            assert (canonical_order(net, sat.sets) == canonical_order(net, bb.sets)
                    == canonical_order(net, expected))
            runs += 1
    assert runs == 2 * 13 + 12


def test_the_structural_enumerator_matches_the_oracle():
    # Small nets, irregular ones too (self-loops, transitions without
    # inputs, repeated arcs), against the brute-force scan, and in lex order.
    rng = random.Random(5)
    nets = random_net_corpus(100, base_seed=3) + [irregular_net(rng) for _ in range(100)]
    for net in nets:
        for traps, oracle in ((False, brute_force_minimal_siphons),
                              (True, brute_force_minimal_traps)):
            found = structural_minimal_sets(net, traps)
            assert canonical_order(net, found) == oracle(net)
            assert found == sorted(found, key=lambda s: [p in s for p in range(len(net.places))])
