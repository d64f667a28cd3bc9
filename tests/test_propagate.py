"""Differential tests of the watched-literal kernel `Propagator._propagate`.

`reference_propagate` is the loop in its plain MiniSat form (Een and
Sorensson, SAT 2003): a `while` over the watch list that swaps the false
watch to position 1 on every visit, the kept ones included. The kernel in
`search.py` must leave the same trail, levels, reasons, conflicts, counters
and watch lists after every step; only the order of a clause's two watched
literals may differ.
"""

import random

import pytest

from siphons import (CnfFormula, Propagator, SatSolver, enumerate_minimal_bb,
                     enumerate_minimal_sat, gen_3sat_reduction, gen_chain, gen_random_3sat)
from siphons.reactions import export_reactions, parse_reactions

from conftest import enzyme_cascade, random_net_corpus


def reference_propagate(self):
    assign = self.assign
    clauses = self.clauses
    spans = self.spans
    watches = self.watches
    trail = self.trail
    level = self.level
    reason = self.reason
    depth = self.decision_level
    push = trail.append
    qhead = self.qhead
    start = len(trail)
    while qhead < len(trail):
        false_lit = -trail[qhead]
        qhead += 1
        watchers = watches[false_lit]
        i = j = 0
        n_watch = len(watchers)
        while i < n_watch:
            ci = watchers[i]
            i += 1
            clause = clauses[ci]
            if clause[0] == false_lit:
                clause[0], clause[1] = clause[1], clause[0]
            first = clause[0]
            a = assign[first]
            if a == 1:
                watchers[j] = ci
                j += 1
                continue
            for k in spans[ci]:
                other = clause[k]
                if assign[other] != -1:
                    clause[1], clause[k] = clause[k], clause[1]
                    watches[other].append(ci)
                    break
            else:
                watchers[j] = ci
                j += 1
                if a == 0:
                    assign[first] = 1
                    assign[-first] = -1
                    level[first] = depth
                    reason[first] = ci
                    push(first)
                else:
                    del watchers[j:i]
                    self.qhead = len(trail)
                    self.propagations += len(trail) - start
                    return ci
        del watchers[j:]
    self.qhead = qhead
    self.propagations += qhead - start
    return None


def random_formula(rng):
    # Short and long clauses of mixed sign, and all-negative ones of the
    # shape a blocking clause has.
    num_vars = rng.randint(3, 14)
    clauses = []
    for _ in range(rng.randint(1, 3 * num_vars)):
        width = rng.choice((1, 2, 2, 3, 3, 3, 4, num_vars))
        vs = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        if rng.random() < 0.25:
            clauses.append([-v for v in vs])
        else:
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    formula = CnfFormula(num_vars)
    for clause in clauses:
        formula.add_clause(clause)
    return formula


def assert_same_state(real, ref, returned):
    assert returned[0] == returned[1]
    assert real.conflicting == ref.conflicting
    assert real.trail == ref.trail
    assert real.trail_lim == ref.trail_lim
    assert real.qhead == ref.qhead
    assert real.assign == ref.assign
    assert [real.level[q] for q in real.trail] == [ref.level[q] for q in ref.trail]
    assert [real.reason[q] for q in real.trail] == [ref.reason[q] for q in ref.trail]
    assert real.propagations == ref.propagations
    assert real.watches == ref.watches
    for a, b in zip(real.clauses, ref.clauses, strict=True):
        assert sorted(a[:2]) == sorted(b[:2]) and a[2:] == b[2:]


@pytest.mark.parametrize("base", [Propagator, SatSolver])
def test_kernel_matches_the_reference_kernel_step_by_step(base):
    # Random decide/backtrack/add_clause walks on 320 formulas, driven the
    # same way on the real store and on one with the reference kernel. Half
    # of the posted clauses block the current trail, so the store backjumps
    # to their assertion level and the caller propagates there, as both
    # engines do after a set.
    reference = type("Reference", (base,), {"_propagate": reference_propagate})
    rng = random.Random(19)
    conflicts = resumed = assigned = walks = 0
    for _ in range(320):
        formula = random_formula(rng)
        real, ref = base(formula), reference(formula)
        assert_same_state(real, ref, (None, None))
        num_vars = formula.num_vars
        ok = not real.conflicting
        walks += ok
        for _ in range(40):
            if real.conflicting:
                break
            free = [v for v in range(1, num_vars + 1) if real.value(v) is None]
            step = rng.random()
            if ok and free and step < 0.55:
                var, value = rng.choice(free), rng.random() < 0.5
                ok = real.decide(var, value)
                assert ok == ref.decide(var, value)
                returned = real.conflict, ref.conflict
            elif real.decision_level and (not ok or step < 0.8):
                real.backtrack()
                ref.backtrack()
                ok, returned = True, (None, None)
            else:
                above = real.trail[real.trail_lim[0]:] if ok and real.trail_lim else []
                if above and rng.random() < 0.5:
                    picked = rng.sample(above, rng.randint(1, len(above)))
                    clause = [-q for q in picked]
                else:
                    width = rng.randint(1, num_vars)
                    clause = [v if rng.random() < 0.5 else -v
                              for v in rng.sample(range(1, num_vars + 1), width)]
                ok = real.add_clause(clause)
                assert ok == ref.add_clause(clause)
                returned = None, None
                if ok:
                    resumed += real.decision_level > 0
                    returned = real._propagate(), ref._propagate()
                    ok = returned[0] is None
            assert_same_state(real, ref, returned)
            conflicts += returned[0] is not None
            assigned += len(real.trail)
    assert walks > 250 and conflicts > 150 and resumed > 150 and assigned > 30_000


def test_engines_run_the_same_with_the_reference_kernel(monkeypatch):
    # Whole enumerations, siphons and traps, with the reference kernel
    # patched in: the same sets in the same order, the same counters and
    # the same bb trace. The .rxn round trip of the n=8 reduction reorders
    # its places so that bb backjumps over many levels.
    red8_rxn = parse_reactions(export_reactions(gen_3sat_reduction(gen_random_3sat(8, 34, 0))))[0]
    nets = [gen_chain(6), enzyme_cascade(8), red8_rxn,
            gen_3sat_reduction(gen_random_3sat(12, 51, 3)), *random_net_corpus(6, base_seed=5)]

    def runs():
        out = []
        for net in nets:
            for target in (net, net.dual()):
                for engine in (enumerate_minimal_sat, enumerate_minimal_bb):
                    lines = []
                    kwargs = {"trace": lines.append} if engine is enumerate_minimal_bb else {}
                    res = engine(target, **kwargs)
                    s = res.stats
                    out.append((res.sets, s.solve_calls, s.conflicts, s.decisions,
                                s.propagations, lines))
        return out

    real = runs()
    monkeypatch.setattr(Propagator, "_propagate", reference_propagate)
    assert runs() == real
