"""Branch-and-bound enumeration of minimal siphons over the same CNF encoding.

Depth-first search with unit propagation on the shared `Propagator`, over
the encoding that the shared driver builds (`encoding.encode_branching`:
variable k is the k-th place of the structural branching order); every
decision takes the lowest-index unassigned variable and tries 0 before 1,
which makes the leftmost solution inclusion-minimal and guarantees that no
later solution is a subset of an earlier one. That is the SAT engine's
branching rule, kept once, in the propagation kernel: each decision goes
through `Propagator.decide`, whose kernel opens its level in the block
that opens SAT's 0-first levels, and the variable a 0-branch takes is the
kernel's cursor `_next_var`, which every conflict-free fixpoint leaves on
the lowest unassigned variable.

A descent stops as soon as the true variables form a nonempty siphon, not
when every variable is assigned. Every input clause is ¬p ∨ inputs(t), one
negative literal, and every blocking clause is all-negative, so from a
conflict-free fixpoint whose true set S is a siphon, the 0-decisions left
would only propagate 0s and end at S itself without a conflict: the sets,
their order and the conflicts are those of the full descent. The test runs
at every conflict-free fixpoint that leaves a variable unassigned, and
reads the net's structure off the encoder's `CnfFormula.producers` and
`inputs`. It keeps the witness of its last failure, a true p and a
producer of p with no true input: while that holds, the test fails at the
cost of one producer. Otherwise it goes on through p's producers from the
witness's, around, and then through the other true variables, newest
first, skipping the trail prefix that an earlier test found free of true
variables. It never calls `PetriNet.is_siphon`, which certifies each
emitted set.

On each solution the driver reads the set and its permanent non-superset
clause off the trail in one pass and posts the clause unchecked on the
live trail, as for the SAT engine: the trail's true set falsifies it, so
`Propagator._post_falsified` backjumps to the clause's assertion level
and asserts its top literal there. The levels below are kept as they are; the path
decisions above that level are re-decided while their variables are still
free, and the search goes on.

A failure backjumps instead of backtracking chronologically (conflict-directed
backjumping: Prosser 1993; Bayardo and Schrag, AAAI 1997). The falsified
clause is traced back through the reasons of its literals to the decision
levels it depends on. A 0-branch that fails flips to 1 and records those
levels as a bitmask; when the 1-branch fails too, the levels below that
either failure depends on are joined, and the search unwinds straight to
the deepest of them, skipping the pending branches above it. Those
branches share the failure, so only subtrees with no solution are skipped,
and the solutions and their order do not change. No clause is learned: the
only clauses added are the blocking clauses.

The search is a generator under the shared driver, `search.enumerate_sets`,
which asks the run's one `BudgetClock` after each solution. The search asks
it after each backjump, so it stops at `max_conflicts` as the SAT engine does.
Every failure leaves its level on the decision stack, so a failure is never
met at the root. `analysis.first_solution_is_minimal_check` cross-checks the
first solution against the brute-force oracle.
"""

# perfbench/tracing.py wraps these two here; the engine calls neither
from .encoding import blocking_clause, encode_siphon  # noqa: F401
from .net import PetriNet
from .search import Budget, BudgetClock, EnumerationResult, Propagator, enumerate_sets


class _Dependencies:
    """The decision levels each assigned literal depends on, for backjumping.

    `dep[lit]` is a bitmask over levels for a true literal: bit l for the
    decision at level l, bit 0 for the root. A decision depends on its own
    level and an implied literal on the union over its reason clause. The
    masks are filled in level by level, only when a failure is traced, and
    kept for the levels 1..`valid` that have not changed since. A failure is
    traced when it happens, before the search backtracks.
    """

    def __init__(self, prop: Propagator):
        self.prop = prop
        self.dep = [0] * len(prop.assign)
        self.valid = 0             # levels 1..valid are filled in
        self.rooted = 0            # so are trail[:rooted], all at level 0

    def failure(self) -> int:
        """The levels below the current one that the clause `prop.conflict`
        falsified depends on, as a mask (bit 0 never set): the union of its
        literals' masks, filled in through the current level. If its
        literals sit on every open level, so does the failure, as every
        assigned literal depends on the decision of its own level: then that
        mask is returned without a trace."""
        prop = self.prop
        top = prop.decision_level
        below = (1 << top) - 2
        clause = prop.clauses[prop.conflict]
        if len(clause) >= top:
            level = prop.level
            on = {level[-q] for q in clause}
            if len(on) - (0 in on) == top:
                return below
        self._fill(top)
        dep = self.dep
        levels = 0
        for q in clause:
            levels |= dep[-q]
        return levels & below

    def _fill(self, upto: int) -> None:
        """Fill in the masks of the open levels up to `upto`."""
        prop = self.prop
        trail = prop.trail
        lim = prop.trail_lim
        dep = self.dep
        root = lim[0] if lim else len(trail)
        if self.rooted < root:
            for x in trail[self.rooted:root]:
                dep[x] = 1
            self.rooted = root
        if self.valid < upto:
            level = prop.level
            reason = prop.reason
            clauses = prop.clauses
            end = lim[upto] if upto < len(lim) else len(trail)
            for x in trail[lim[self.valid]:end]:
                r = reason[x]
                if r is None:
                    dep[x] = 1 << level[x]
                else:
                    dep[-x] = 0  # x's own slot in its reason clause
                    m = 0
                    for q in clauses[r]:
                        m |= dep[-q]
                    dep[x] = m
            self.valid = upto


def _search(prop: Propagator, clock: BudgetClock, emit):
    """Yield at each solution of the 0-first search, in order: at the first
    conflict-free fixpoint whose true variables form a nonempty siphon; the
    driver posts its non-superset clause before the search resumes.

    A conflict backjumps to the deepest decision it depends on (see the
    module docstring). After a solution the search resumes at the clause's
    assertion level and replays only the decisions above it. Conflicts go
    onto `clock`. The search ends when a conflict depends on no decision,
    when a clause leaves the store UNSAT at the root, or when `clock` is
    exhausted after a backjump. A store that is already UNSAT at the root
    ends it with no conflict counted, as in the SAT engine.
    """
    # One entry per decision level: (var, value, failure). A 0-branch still
    # has its 1-branch pending; a 1-branch carries the levels its 0-branch's
    # failure depends on (see _Dependencies.failure).
    stack: list[tuple[int, bool, int]] = []
    deps = _Dependencies(prop)
    # The siphon test (see the module docstring). `wk` is a true variable
    # that the last failed test found with a producer, `producers[wk -
    # 1][wj]`, none of whose inputs is true; `wk` 0 is no witness, as
    # `assign[0]` is 0. `trail[:clean]` holds no true variable.
    trail = prop.trail
    truth = prop.assign.__getitem__
    producers = prop.formula.producers
    inputs = prop.formula.inputs
    num_vars = prop.num_vars
    wk = wj = clean = 0

    def decide(var, value, failure=0):
        stack.append((var, value, failure))
        if emit:
            emit(f"D {var}={1 if value else 0} {len(stack)}")
        return prop.decide(var, value)

    def pop():
        # Undo the deepest level; its masks go with it.
        nonlocal clean
        entry = stack.pop()
        prop.backtrack()
        deps.valid = min(deps.valid, len(stack))
        clean = min(clean, len(trail))
        if emit:
            emit(f"B {len(stack)}")
        return entry

    def settled():
        nonlocal wk, wj, clean
        if truth(wk) == 1:
            # The witness's producers, from its producer on, around.
            ts = producers[wk - 1]
            n = len(ts)
            for i in range(wj, wj + n):
                if 1 not in map(truth, inputs[ts[i % n]]):
                    wj = i % n
                    return False
        # The true variables past `clean`, the newest first.
        nonempty = False
        j = len(trail)
        while j > clean:
            j -= 1
            k = trail[j]
            if k > 0:
                nonempty = True
                if k != wk:
                    for i, t in enumerate(producers[k - 1]):
                        if 1 not in map(truth, inputs[t]):
                            wk, wj = k, i
                            return False
        if not nonempty:
            clean = len(trail)
        return nonempty

    consistent = True
    if prop.conflicting:
        return
    while True:
        if not consistent:
            # `stack` is never empty here: `decide` pushes its level before
            # it propagates, and a blocking clause posted at level 0 has
            # either left the store UNSAT, which ends the search, or been
            # propagated to fixpoint by `_add_root`, so the propagation after
            # a set can fail only above level 0.
            clock.conflicts += 1
            var, value, recorded = stack[-1]
            if value and recorded == (1 << len(stack)) - 2:
                # A 1-branch whose 0-branch depended on every level below:
                # the jump is to the level below, whatever this failure
                # depended on.
                failure = recorded
            else:
                failure = deps.failure()
            pop()
            if value:
                # Both branches failed: unwind to the deepest level below
                # that either failure depends on. A 0-branch there flips to
                # 1; a 1-branch failed both ways too, so its 0-branch's
                # levels join in and the jump goes on. With no level left,
                # the search is over.
                levels = failure | recorded
                while levels:
                    top = levels.bit_length() - 1
                    while len(stack) >= top:
                        var, value, recorded = pop()
                    levels ^= 1 << top
                    if not value:
                        break
                    levels |= recorded
                else:
                    while stack:
                        pop()
                    break
                failure = levels
            if clock.exhausted():
                break
            consistent = decide(var, True, failure)
        elif len(trail) == num_vars or settled():
            yield
            if prop.conflicting:
                return  # a root conflict ends the enumeration
            # The clause sent the search back to its assertion level and
            # asserted its top literal there; that level's masks are refilled
            # by the next trace, and the levels below are as they were. The
            # path above is replayed while its variables are still free. The
            # first one that the new clause has decided, either way, ends the
            # replay: if it is implied as decided, the decisions after it
            # would only repeat the 0-first rule. So every replayed decision
            # keeps its level, and the failures recorded on them still apply.
            kept = prop.decision_level
            clean = min(clean, prop.trail_lim[kept - 1] if kept else 0)
            path = stack[kept:]
            del stack[kept:]
            if deps.valid >= kept:
                deps.valid = max(kept - 1, 0)
            prop.conflict = prop._propagate()
            consistent = prop.conflict is None
            for var, value, recorded in path:
                if not consistent or prop.value(var) is not None:
                    break
                consistent = decide(var, value, recorded)
        else:
            consistent = decide(prop._next_var, False)


def enumerate_minimal_bb(net: PetriNet, budget: Budget | None = None,
                         trace=None) -> EnumerationResult:
    """All minimal siphons by propagation-based depth-first search.

    `trace`, if given, is called with one line per event: `D <var>=<0|1>
    <depth>` for decisions, `B <depth>` for each level a backjump pops (the
    depth left), `S {places}` for solutions. A `D` line names a variable,
    which is a position in the branching order (`branching_order(net)[var
    - 1]` is its place), not a place index. No `B` lines follow an `S`
    line: the depth of the next `D` line gives the level the search resumed
    at, one above the blocking clause's assertion level. A run of `D` lines
    ends at the first fixpoint where the true places form a siphon, which
    may leave variables unassigned. A one-place set is
    not searched for, so its `S` line has no `D` lines of its own: it comes
    just before the `S` line of the first searched set with a lower least
    place, or after the search ends.
    """
    return enumerate_sets(net, Propagator, lambda prop, clock: _search(prop, clock, trace),
                          budget, trace)
