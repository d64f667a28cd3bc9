"""Differential tests of the watched-literal kernel `Propagator._propagate`,
and a checker of the store it keeps.

`reference_propagate` is the loop in its plain MiniSat form (Een and
Sorensson, SAT 2003): a `while` over the watch list that swaps the false
watch to position 1 on every visit, the kept ones included, and takes a
posted clause whose other watch is true at a lower level off the list,
filed under that true watch. An input clause looks for a replacement watch
from position 2 on, except the non-emptiness clause, the last input clause
when all its literals are positive: there the scan starts after the
position where the last one stopped and wraps around (Gent, JAIR 2013). A
posted clause, blocking or learned, first tests the position after its
last replacement, if that was not its last position, and scans from
position 2 on only if that literal is false. A nonzero `decision`, as
`decide` hands it in, opens a level for that literal, in the block that
opens the descent's levels. Each conflict-free fixpoint that leaves a
variable unassigned sets the branching cursor `_next_var` to the lowest
one, found by a scan from variable 1; in descend mode, as SAT's solve
calls it, it then opens a level that assigns that variable False. The
reference keeps its own scan state, in a dict on the store, and reads
nothing of the kernel's, its branching cursor included. The kernel in
`search.py` must leave the same trail, levels, reasons, decisions, cursor,
conflicts, counters, watch lists and held clauses after every step; only
the order of a clause's two watched literals may differ, so every position
from 2 on is checked, literal by literal. `assert_store_invariant` checks
where each stored clause is listed or filed, and the cursor.
"""

import itertools
import random
from collections import Counter

import pytest

from siphons import (Budget, CnfFormula, Propagator, SatSolver,
                     enumerate_minimal_bb, enumerate_minimal_sat, enumerate_minimal_siphons,
                     enumerate_minimal_traps, gen_3sat_reduction, gen_chain, gen_random_3sat)
from siphons import SolveStatus, branch_bound, sat, search
from siphons.reactions import export_reactions, parse_reactions

from conftest import enzyme_cascade, random_net_corpus, trail_model


RING_SCANS = Counter()  # watch moves in the non-emptiness clause, and those that wrapped
# Posted clauses: replacements found at the tested position ("hits"), tested
# positions that were false ("fallbacks"), and positions tested ("steps").
PROBES = Counter()


def reference_propagate(self, descend=False, decision=0):
    assign = self.assign
    clauses = self.clauses
    watches = self.watches
    trail = self.trail
    level = self.level
    reason = self.reason
    depth = self.decision_level
    push = trail.append
    qhead = self.qhead
    start = len(trail)
    ring = self.num_input - 1  # no stored clause while the formula goes in
    if not 0 <= ring < len(clauses) or any(q < 0 for q in clauses[ring]):
        ring = None
    probes = vars(self).setdefault("reference_probes", {})  # posted clause -> position
    while True:
        if decision:
            # A decision level, for the literal handed in or the descent's
            # 0-first one; the decision is no propagation.
            self.decisions += 1
            self.trail_lim.append(len(trail))
            self.decision_level = depth = depth + 1
            assign[decision] = 1
            assign[-decision] = -1
            level[decision] = depth
            reason[decision] = None
            push(decision)
            start += 1
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
                posted = ci >= self.num_input
                if a == 1:
                    if posted and level[first] < depth:
                        # A posted clause leaves this list, filed under its true
                        # watch, which is at position 0.
                        self.held.setdefault(first, []).append(ci)
                        continue
                    watchers[j] = ci
                    j += 1
                    continue
                if ci == ring:
                    last = getattr(self, "ring_last", 1)
                    positions = [*range(last + 1, len(clause)), *range(2, last + 1)]
                else:
                    positions = range(2, len(clause))
                    probe = probes.get(ci) if posted else None
                    if probe is not None:
                        PROBES["hits" if assign[clause[probe]] != -1 else "fallbacks"] += 1
                        positions = [probe, *positions]
                for k in positions:
                    if ci == ring:
                        self.ring_last = k
                    PROBES["steps"] += posted
                    other = clause[k]
                    if assign[other] != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        watches[other].append(ci)
                        if ci == ring:
                            RING_SCANS["moves"] += 1
                            RING_SCANS["wrapped"] += k <= last
                        if posted:
                            probes[ci] = k + 1 if k + 1 < len(clause) else None
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
        if len(trail) == self.num_vars:
            break
        # The lowest unassigned variable, found by a scan from variable 1:
        # the kernel's cursor is set, not read.
        self._next_var = next(v for v in range(1, self.num_vars + 1) if not assign[v])
        if not descend:
            break
        decision = -self._next_var
    self.qhead = qhead
    self.propagations += qhead - start
    return None


def assert_store_invariant(prop):
    """Every stored clause of two or more literals is listed once under each
    of its two watched literals, or is filed under its watch at position 0,
    which is true, and listed under that watch alone. Only a clause posted
    after the formula's own is filed, and nothing is filed under a literal
    that is not true. Nothing else is listed or filed. Every variable below
    the branching cursor is assigned."""
    n = prop.num_vars
    assert all(prop.assign[v] for v in range(1, prop._next_var)), "free below the cursor"
    listed = Counter((lit, ci) for lit in range(-n, n + 1) for ci in prop.watches[lit])
    filed = {}
    for lit, held in prop.held.items():
        assert held and prop.assign[lit] == 1, f"clauses are filed under {lit}, not true"
        for ci in held:
            assert ci not in filed and ci >= prop.num_input
            filed[ci] = lit
    for ci, clause in enumerate(prop.clauses):
        assert len(clause) >= 2
        under = [w for w in clause[:2] if listed.pop((w, ci), 0) == 1]
        if ci in filed:
            assert clause[0] == filed.pop(ci), f"clause {ci} is filed under its false watch"
            assert under == [clause[0]], f"clause {ci} is filed, not listed under its true watch"
        else:
            assert len(under) == 2, f"clause {ci} is neither filed nor listed under both watches"
    assert not listed


def random_formula(rng):
    # Short and long clauses of mixed sign, and all-negative ones of the
    # shape a blocking clause has; half the formulas end with the clause
    # over every variable, all positive, as the siphon encoding does.
    num_vars = rng.randint(3, 14)
    clauses = []
    for _ in range(rng.randint(1, 3 * num_vars)):
        width = rng.choice((1, 2, 2, 3, 3, 3, 4, num_vars))
        vs = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        if rng.random() < 0.25:
            clauses.append([-v for v in vs])
        else:
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    if rng.random() < 0.5:
        clauses.append(range(1, num_vars + 1))
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
    assert real.decisions == ref.decisions
    assert real._next_var == ref._next_var
    assert real.watches == ref.watches
    assert real.held == ref.held
    for a, b in zip(real.clauses, ref.clauses, strict=True):
        assert sorted(a[:2]) == sorted(b[:2]) and a[2:] == b[2:]


@pytest.mark.parametrize("base", [Propagator, SatSolver])
def test_kernel_matches_the_reference_kernel_step_by_step(base):
    # Random decide/backtrack/add_clause walks on 480 formulas, driven the
    # same way on the real store and on one with the reference kernel. Half
    # of the posted clauses block the current trail, so the store backjumps
    # to their assertion level and the caller propagates there, as both
    # engines do after a set. Most posted clauses are short, so a tested
    # position that turns out false is rare: the walks run long enough that
    # the scan from position 2 after one is taken more than 100 times.
    reference = type("Reference", (base,), {"_propagate": reference_propagate})
    RING_SCANS.clear()
    PROBES.clear()
    rng = random.Random(19)
    conflicts = resumed = assigned = walks = 0
    for _ in range(480):
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
            assert_store_invariant(real)
            conflicts += returned[0] is not None
            assigned += len(real.trail)
    assert walks > 250 and conflicts > 150 and resumed > 150 and assigned > 30_000
    assert RING_SCANS["moves"] > 100 and RING_SCANS["wrapped"] > 10
    assert PROBES["hits"] > 100 and PROBES["fallbacks"] > 100


def recording(base):
    """`base` with every kernel call recorded, with what it returned and the
    state it left: the trail with its levels and reasons, the decision
    levels, the counters, the branching cursor, the watch lists, the held
    clauses and the stored clauses (their two watched literals in either
    order)."""

    class Recording(base):
        def _propagate(self, descend=False, decision=0):
            returned = super()._propagate(descend, decision)
            trail = self.trail
            vars(self).setdefault("calls", []).append((
                descend, decision, returned, list(trail), list(self.trail_lim), self.qhead,
                [self.level[q] for q in trail], [self.reason[q] for q in trail],
                self.decisions, self.propagations, self._next_var,
                [list(w) for w in self.watches],
                {lit: list(held) for lit, held in self.held.items()},
                [(sorted(c[:2]), c[2:]) for c in self.clauses]))
            return returned

    return Recording


def test_sat_solves_match_the_reference_kernel_step_by_step():
    # Random walks of solves on 150 random formulas and 150 random 3-SAT
    # formulas of 8-20 variables at ratios 2-4.5, on a SatSolver and on one
    # with the reference kernel, which descends by its own scan for the
    # lowest unassigned variable. After a SAT answer the model is mostly
    # blocked, as the driver does after a set; otherwise a random clause is
    # added. A fifth of the solves are cut by a budget of 1-3 conflicts.
    # Every kernel call, the descents of `solve` and the root intake's calls
    # alike, must leave the same state on both stores.
    real_type = recording(SatSolver)
    ref_type = recording(type("Reference", (SatSolver,), {"_propagate": reference_propagate}))
    rng = random.Random(23)
    statuses = Counter()
    conflicts = resumed = 0
    for k in range(150):
        n = rng.randint(8, 20)
        for formula in (random_formula(rng),
                        gen_random_3sat(n, round(rng.uniform(2, 4.5) * n), seed=k).to_formula()):
            real, ref = real_type(formula), ref_type(formula)
            for _ in range(30):
                budget = Budget(max_conflicts=rng.randint(1, 3)) if rng.random() < 0.2 else None
                resumed += real.decision_level > 0
                status = real.solve(budget=budget)
                assert ref.solve(budget=budget) is status
                statuses[status] += 1
                if status is SolveStatus.UNSAT:
                    break
                if status is SolveStatus.SAT and rng.random() < 0.7:
                    assert real._block_model() == ref._block_model()
                else:
                    width = rng.randint(1, formula.num_vars)
                    clause = [v if rng.random() < 0.5 else -v
                              for v in rng.sample(range(1, formula.num_vars + 1), width)]
                    assert real.add_clause(clause) == ref.add_clause(clause)
                for mine, theirs in zip(real.calls, ref.calls, strict=True):
                    assert mine == theirs
                real.calls.clear()
                ref.calls.clear()
            assert_store_invariant(real)
            conflicts += real.conflicts
    assert statuses[SolveStatus.SAT] > 1000 and statuses[SolveStatus.UNKNOWN] > 60
    assert statuses[SolveStatus.UNSAT] > 250 and conflicts > 1500 and resumed > 400


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


def test_the_store_invariant_holds_at_every_set(monkeypatch):
    # Whole runs, siphons and traps, both engines, cut by conflict budgets
    # of 3, 50 and 20,000 (every run completes within the last): the store
    # is checked at every set and at the end.
    nets = [gen_chain(8), enzyme_cascade(20)]
    nets += [gen_3sat_reduction(gen_random_3sat(n, m, seed))
             for n, m, seed in ((12, 51, 0), (20, 60, 1), (30, 128, 2))]
    real_enumerate_sets = search.enumerate_sets
    held_at_sets = []

    def checked_enumerate_sets(net, store_type, search_, budget, emit=None):
        def checked(store, clock):
            for found in search_(store, clock):
                assert_store_invariant(store)
                held_at_sets.append(sum(map(len, store.held.values())))
                yield found
            assert_store_invariant(store)
        return real_enumerate_sets(net, store_type, checked, budget, emit)

    for module in (sat, branch_bound):
        monkeypatch.setattr(module, "enumerate_sets", checked_enumerate_sets)
    for net, enumerate_, engine, budget in itertools.product(
            nets, (enumerate_minimal_siphons, enumerate_minimal_traps), ("sat", "bb"),
            (3, 50, 20_000)):
        enumerate_(net, engine=engine, budget=Budget(max_conflicts=budget))
    assert len(held_at_sets) > 1000 and sum(held_at_sets) > 10_000


def test_a_clause_filed_under_an_assumption_is_put_back_at_the_root():
    # The decisions 1, -2 and 4 take levels 1-3. A posted clause is filed
    # under the decision that satisfies it, -2, when 4 forces 3 at level 3,
    # and is put back when the backtrack to level 1 unassigns -2.
    formula = CnfFormula(4)
    formula.add_clause([-4, 3])
    filed = []

    class Checked(Propagator):
        def _cancel_until(self, target):
            assert_store_invariant(self)
            filed.append((self.decision_level, list(self.held)))
            super()._cancel_until(target)

    store = Checked(formula)
    assert store.add_clause([-2, -3])
    assert store.decide(1, True) and store.decide(2, False) and store.decide(4, True)
    assert trail_model(store) == (True, False, True, True)
    for _ in range(3):
        store.backtrack()
    assert filed == [(3, [-2]), (2, [-2]), (1, [])] and not store.held
    assert store.watches[-3] == [1]
    assert_store_invariant(store)


def test_posted_clauses_scan_few_positions(monkeypatch):
    # Positions tested in blocking and learned clauses, counted by the
    # reference kernel, which the kernel matches step by step (above).
    # gen_chain(10) ends each run with 1,024 blocking clauses beside 21 input
    # clauses; scanning every posted clause from position 2 tested 92,422
    # positions under SAT and 103,428 under bb, and the tested position cuts
    # that about fivefold. The alpha=4.26 reduction's blocking clauses are
    # long (about 90 literals) and overlap: scanning them from position 2
    # tested 104,889 and 247,482 positions, and circular scanning, which walks
    # their false tail, more. Its counts are pinned, so a rule that costs the
    # long clauses shows. Counts do not depend on the machine.
    monkeypatch.setattr(Propagator, "_propagate", reference_propagate)
    steps = {}
    for name, net in (("chain", gen_chain(10)),
                      ("reduction", gen_3sat_reduction(gen_random_3sat(50, 213, 0)))):
        for engine in ("sat", "bb"):
            PROBES.clear()
            assert enumerate_minimal_siphons(net, engine=engine).complete
            steps[name, engine] = PROBES["steps"]
    assert steps["chain", "sat"] < 25_000 and steps["chain", "bb"] < 21_000
    assert steps["reduction", "sat"] == 104_867 and steps["reduction", "bb"] == 252_456
