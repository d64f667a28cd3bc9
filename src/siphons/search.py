"""Shared core of the two enumeration engines.

`Propagator` is the one watched-literal clause store and unit propagation
loop, with the decision level and reason of every assignment:
branch-and-bound drives it through `decide`/`backtrack` and reads the
falsified clause for backjumping, and the SAT solver subclasses it with
conflict learning. A caller's clause goes in through `add_clause`, which
checks it. A blocking clause is read off the trail with the set it blocks
(`_block_model`) and posted unchecked through `_post`, as the SAT solver
posts its learned clauses; `_post` resumes the search at the clause's
assertion level. Every other clause enters by the one root intake,
`_add_root`.
Truth values, levels, reasons and watch lists are indexed by literal, as in
MiniSat, so reading one takes no sign arithmetic. A clause posted after the
formula's own, blocking or learned, leaves the watch list of a false watch
when its other watch is true at a lower level, filed under that true
literal until it is undone; a root literal never is, so a clause satisfied
at the root leaves for good, as MiniSat removes such clauses (Een and
Sorensson, SAT 2003). On a net with many sets, most watch visits would
otherwise go to blocking clauses satisfied that way.

`enumerate_sets` is the one enumeration driver: an engine is a store class
and a generator that only searches. The driver encodes the net, builds the
engine's store and owns the run's `BudgetClock`; it settles the one-place
minimal siphons, blocks each set the search finds, maps it back to places,
certifies it with `accept`, cuts the run between sets and fills in every
stat. Also here: budgets, stats and results.
"""

import time
from dataclasses import dataclass, field
from numbers import Real

from .encoding import CnfFormula, check_clause, encode_branching
from .net import PetriNet, PlaceSet, format_place_set


@dataclass(frozen=True)
class Budget:
    """Resource cap for a whole enumeration run. None means unlimited."""

    max_conflicts: int | None = None
    max_ms: float | None = None

    def __post_init__(self):
        conflicts, ms = self.max_conflicts, self.max_ms
        if conflicts is not None and (type(conflicts) is not int or conflicts < 0):
            raise ValueError("max_conflicts must be an int >= 0")
        if ms is not None and (isinstance(ms, bool) or not isinstance(ms, Real)
                               or not ms >= 0):  # NaN too
            raise ValueError("max_ms must be a number >= 0")


class BudgetClock:
    """The one budget check of an enumeration run, shared by all its solves
    (see `enumerate_sets`). `exhausted()` latches: once it returns True,
    `timed_out` is True and it keeps returning True."""

    def __init__(self, budget: Budget | None):
        budget = budget or Budget()
        self.start = time.perf_counter()
        self.conflicts = 0
        self.max_conflicts = budget.max_conflicts
        self.deadline = None if budget.max_ms is None else self.start + budget.max_ms / 1000.0
        self.timed_out = False

    @property
    def elapsed_ms(self) -> float:
        return (time.perf_counter() - self.start) * 1000.0

    def exhausted(self) -> bool:
        if (self.max_conflicts is not None and self.conflicts >= self.max_conflicts
                or self.deadline is not None and time.perf_counter() >= self.deadline):
            self.timed_out = True
        return self.timed_out


@dataclass
class SearchStats:
    """Effort counters for an enumeration run.

    The driver `enumerate_sets` fills them; no engine sees them. It counts
    `solve_calls`: one for the first descent and one for each resume after
    a set, so a complete run has one per searched set plus one. A one-place
    set is not searched for, so it adds to no counter. Both engines resume
    after each set at its blocking clause's assertion level, so `decisions`,
    read off the store, counts only the decisions made after each resume;
    for branch-and-bound that includes the path decisions it re-makes above
    the assertion level. The SAT engine's `conflicts` are its solver's; the
    branch-and-bound engine's are falsified clauses (one per failure,
    however many levels its backjump pops). `propagations`, also read off
    the store, counts every literal that unit propagation assigned.

    `conflicts` is the count on the run's `BudgetClock`: under
    `Budget(max_conflicts=k)` either engine stops at k. The conflict that
    ends a search, proving that no set is left, counts but is no cut.
    `timed_out` means that completeness was not proven: the sets are a
    prefix of the full list, which may hold more. It is the clock's latch.
    """

    solve_calls: int = 0
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    minimize_steps: int = 0      # neither engine shrinks a set; always 0
    elapsed_ms: float = 0.0
    timed_out: bool = False


@dataclass
class EnumerationResult:
    """Minimal place sets in discovery order, plus how hard they were to find."""

    sets: list[frozenset[int]] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)
    # the sets `accept` appended, grouped by size
    _by_size: dict[int, set[frozenset[int]]] = field(default_factory=dict, init=False,
                                                     repr=False, compare=False)

    @property
    def complete(self) -> bool:
        return not self.stats.timed_out

    def __len__(self) -> int:
        return len(self.sets)


def accept(net: PetriNet, result: EnumerationResult, s: frozenset[int]) -> None:
    """Certify an emitted set as a siphon incomparable with every set this
    function appended to the result before, then append it. Distinct sets of
    one size are never comparable, so the set is looked up among those of
    its own size and subset-tested only against the other sizes."""
    if not net.is_siphon(s):
        raise RuntimeError("enumerated set fails the siphon predicate")
    size = len(s)
    for k, group in result._by_size.items():
        if k == size:
            clash = s in group
        elif k < size:
            clash = any(prev <= s for prev in group)
        else:
            clash = any(s <= prev for prev in group)
        if clash:
            raise RuntimeError("enumerated sets are not an antichain")
    result._by_size.setdefault(size, set()).add(s)
    result.sets.append(s)


class Propagator:
    """Watched-literal clause store with unit propagation over a decision trail.

    `assign` has 2n+1 entries indexed by literal, as in MiniSat:
    `assign[lit]` is 1 if lit is true, -1 if false, 0 if unassigned. A
    negative literal wraps into the top half, and True indexes as 1, so
    every public entry checks that a variable is an int in range. `level`
    and `reason` are kept under the true literal: the decision level at
    which it was assigned, and the index of the clause that forced it (None
    for a decision or a root unit). `watches[lit]` lists the clauses that
    watch lit, in the same layout.
    Clauses from `num_input` on are the ones posted after the formula's:
    blocking clauses and learned ones. When `_propagate` meets one whose
    other watch is true below the current level, it takes the clause off
    the false watch's list, puts the true watch at position 0 and files
    the clause under it in `held`, a dict keyed by literal: only literals
    with clauses filed under them get an entry, so a new store allocates
    no list per literal for it. `_cancel_until` puts the clause back under
    position 1 when it unassigns the true watch, in the same pass that
    unassigns the false one, assigned at a higher level. Meanwhile the
    clause stays listed under its true watch, which stays true. A root
    literal is never unassigned, so a clause filed under one has left for
    good. A clause whose true watch is from the current level stays where
    it is: its false watch is unassigned only when that level is undone,
    so leaving would save no visit. Input clauses stay too: putting them
    back on every backtrack costs more than it saves.
    Branching takes the lowest-index unassigned variable, found by a cursor
    below which every variable is assigned. `decisions` counts each level
    `_open_level` opens, for a `decide` or a SAT branch, and `propagations`
    each literal `_propagate` assigns.
    """

    def __init__(self, formula: CnfFormula):
        self.num_vars = formula.num_vars
        n = self.num_vars
        self.assign = [0] * (2 * n + 1)
        self.level = [0] * (2 * n + 1)
        self.reason: list[int | None] = [None] * (2 * n + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.decision_level = 0              # len(self.trail_lim)
        self.qhead = 0
        self.clauses: list[list[int]] = []   # positions 0 and 1 are watched
        self.spans: list[range] = []         # range(2, len(clause)) per clause
        self.watches: list[list[int]] = [[] for _ in range(2 * n + 1)]
        self.held: dict[int, list[int]] = {}   # true literal -> clauses filed under it
        self.num_input = 0                   # set once the formula is in
        self._next_var = 1                   # every variable below it is assigned
        self.conflicting = False             # a root-level clause is falsified
        self.conflict: int | None = None     # the clause the last `decide` falsified
        self.propagations = 0
        self.decisions = 0
        self._add_root(self._stored(formula.clauses))
        self.num_input = len(self.clauses)

    # -- assignment bookkeeping -------------------------------------------

    def value(self, var: int) -> bool | None:
        if type(var) is not int or not 1 <= var <= self.num_vars:
            raise ValueError(f"invalid variable {var!r}")
        a = self.assign[var]
        return None if a == 0 else a > 0

    @property
    def num_assigned(self) -> int:
        return len(self.trail)

    def all_assigned(self) -> bool:
        return len(self.trail) == self.num_vars

    def _enqueue(self, lit: int, reason: int | None) -> None:
        """Assign lit true at the current level, forced by clause `reason`."""
        self.assign[lit] = 1
        self.assign[-lit] = -1
        self.level[lit] = self.decision_level
        self.reason[lit] = reason
        self.trail.append(lit)

    def _open_level(self, lit: int) -> None:
        """Count a decision, open its level and assign lit true there."""
        self.decisions += 1
        self.trail_lim.append(len(self.trail))
        self.decision_level += 1
        self._enqueue(lit, None)

    def _cancel_until(self, target: int) -> None:
        """Unassign every decision level above `target`, in trail order, and
        put the clauses held under each literal unassigned back on the watch
        list they left."""
        if self.decision_level <= target:
            return
        head = self.trail_lim[target]
        assign = self.assign
        held = self.held
        watches = self.watches
        clauses = self.clauses
        lowest = self._next_var
        for lit in self.trail[head:]:
            assign[lit] = 0
            assign[-lit] = 0
            if lit in held:
                for ci in held.pop(lit):
                    watches[clauses[ci][1]].append(ci)
            v = lit if lit > 0 else -lit
            if v < lowest:
                lowest = v
        self._next_var = lowest
        del self.trail[head:]
        del self.trail_lim[target:]
        self.decision_level = target
        self.qhead = head

    def _pick_branch(self) -> int:
        """The lowest-index unassigned variable; one must exist."""
        assign = self.assign
        v = self._next_var
        while assign[v] != 0:
            v += 1
        self._next_var = v
        return v

    # -- clause management ---------------------------------------------------

    @staticmethod
    def _stored(clauses):
        """A formula's clauses as the store keeps them: fresh lists, as ordered."""
        return map(list, clauses)

    def add_clause(self, literals) -> bool:
        """Add a permanent clause; returns False once the store is UNSAT at the root.

        The literals are checked by `check_clause` before the store changes:
        a bad one raises ValueError, and a tautology changes nothing. The
        clause then goes in through `_post`, as the SAT solver's learned
        clauses and the blocking clauses of `_block_model` do.
        """
        clause = check_clause(literals, self.num_vars)
        if clause is None:
            return not self.conflicting
        return self._post(clause)

    def _post(self, clause: list[int]) -> bool:
        """Post a duplicate-free clause in range; False once the store is UNSAT.

        A clause that the current assignment falsifies, as every clause the
        SAT solver learns and every blocking clause against the model just
        found is, goes in as CDCL learning needs: its literals fixed at
        level 0 are dropped, the rest are sorted stably by decreasing
        level, and the search backjumps only as far as it must. If the top
        level is unique, it backjumps to the second-highest level and
        asserts the top literal there, which the caller propagates; if two
        literals share the top level, it backjumps to the level below and
        attaches. A clause with at most one literal above level 0, and any
        other clause, goes in by `_add_root` with the search state unwound
        first.
        """
        if self.decision_level:
            assign = self.assign
            if all(assign[q] == -1 for q in clause):
                level = self.level
                live = sorted([q for q in clause if level[-q]],
                              key=lambda q: level[-q], reverse=True)
                if len(live) >= 2:
                    top, second = level[-live[0]], level[-live[1]]
                    if top != second:
                        self._cancel_until(second)
                        self._enqueue(live[0], self._attach((live,)))
                    else:
                        self._cancel_until(top - 1)
                        self._attach((live,))
                    return True
            self._cancel_until(0)
        return self._add_root((clause,))

    def _block_model(self) -> list[int]:
        """Post the non-superset clause of the full model on the trail and
        return the model's true variables in ascending order.

        One pass over the trail gives both: the clause is `blocking_clause`
        of the model's set, in the same literal order, which `_post` sorts
        stably by level. It is built in range and duplicate-free, so it
        goes in unchecked.
        """
        true = sorted([q for q in self.trail if q > 0])
        self._post([-v for v in true])
        return true

    def _add_root(self, clauses) -> bool:
        """Take duplicate-free clauses in range in at the root, no decision
        open; returns False once the store is UNSAT.

        While nothing is assigned, a clause is kept as it is; from then on
        a clause satisfied at the root is skipped and its literals false
        there are dropped. Units are enqueued as they come; the longer
        clauses are attached together, in their order, and the units
        propagated once, after the last clause.
        """
        if self.conflicting:
            return False
        assign = self.assign
        trail = self.trail
        long: list[list[int]] = []
        for clause in clauses:
            if trail:
                if any(assign[q] == 1 for q in clause):
                    continue
                clause = [q for q in clause if not assign[q]]
            if len(clause) > 1:
                long.append(clause)
            elif clause:
                self._enqueue(clause[0], None)
            else:
                self._attach(long)
                self.conflicting = True
                return False
        self._attach(long)
        self.conflicting = self._propagate() is not None
        return not self.conflicting

    def _attach(self, clauses) -> int:
        """Store clauses of two or more literals, each watching its first
        two; returns the index of the last."""
        stored = self.clauses
        spans = self.spans
        watches = self.watches
        ci = len(stored) - 1
        for clause in clauses:
            ci += 1
            stored.append(clause)
            spans.append(range(2, len(clause)))
            watches[clause[0]].append(ci)
            watches[clause[1]].append(ci)
        return ci

    # -- unit propagation ---------------------------------------------------

    def _propagate(self) -> int | None:
        """Propagate to fixpoint; returns a falsified clause index or None."""
        # Attributes are read into locals once per call: this loop runs on
        # instances of two classes, so attribute lookups on self miss the
        # interpreter's per-type caches whenever the engines alternate.
        # Most visits find the other watch true. An input clause is then
        # kept at the cost of an index compare and the write back at `j`,
        # with no swap: only a visit that goes on to move a watch, assert or
        # conflict makes the clause a reason or a conflict, and that visit
        # puts the false watch at position 1 first. A posted clause whose
        # true watch is from a lower level leaves the list instead (see the
        # class docstring): it is filed under that watch and counts as
        # moved. A conflict drops the `moved` entries behind `j` and keeps
        # the unvisited tail.
        assign = self.assign
        clauses = self.clauses
        spans = self.spans
        watches = self.watches
        trail = self.trail
        level = self.level
        reason = self.reason
        depth = self.decision_level
        held = self.held
        num_input = self.num_input
        qhead = self.qhead
        start = len(trail)
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watchers = watches[false_lit]
            j = moved = 0
            for ci in watchers:
                clause = clauses[ci]
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                a = assign[first]
                if a == 1:
                    if ci >= num_input and level[first] < depth:
                        clause[0] = first
                        clause[1] = false_lit
                        held.setdefault(first, []).append(ci)
                        moved += 1
                        continue
                    watchers[j] = ci
                    j += 1
                    continue
                clause[0] = first
                clause[1] = false_lit
                for k in spans[ci]:
                    other = clause[k]
                    if assign[other] != -1:
                        clause[1] = other
                        clause[k] = false_lit
                        watches[other].append(ci)
                        moved += 1
                        break
                else:
                    watchers[j] = ci
                    j += 1
                    if a == 0:  # `_enqueue`, inlined
                        assign[first] = 1
                        assign[-first] = -1
                        level[first] = depth
                        reason[first] = ci
                        trail.append(first)
                    else:
                        del watchers[j:j + moved]
                        self.qhead = len(trail)
                        self.propagations += len(trail) - start
                        return ci
            del watchers[j:]
        self.qhead = qhead
        self.propagations += qhead - start
        return None

    # -- search interface for branch-and-bound --------------------------------

    def decide(self, var: int, value: bool) -> bool:
        """Open a decision level, assign, propagate; False on conflict, with
        the falsified clause's index left in `conflict`. A store already
        UNSAT at the root propagates nothing: False, with `conflict` None."""
        if type(var) is not int or not 1 <= var <= self.num_vars:
            raise ValueError(f"invalid variable {var!r}")
        if self.assign[var]:
            raise ValueError(f"variable {var} is already assigned")
        self._open_level(var if value else -var)
        if self.conflicting:
            self.conflict = None
            return False
        self.conflict = self._propagate()
        return self.conflict is None

    def backtrack(self) -> None:
        """Undo the most recent decision level."""
        if not self.decision_level:
            raise ValueError("already at the root level")
        self._cancel_until(self.decision_level - 1)


def enumerate_sets(net: PetriNet, store_type: type[Propagator], search, budget: Budget | None,
                   emit=None) -> EnumerationResult:
    """Encode `net` through `encode_branching`, run an engine's search over
    a `store_type` built from the formula, and return its sets with the
    one-place minimal siphons merged in, each certified by `accept` and
    passed to `emit`, if given, as an `S {places}` line. A net without
    places has no nonempty siphon and no encoding: its result is empty and
    complete. The run's `BudgetClock` starts once the store is built.

    `search(store, clock)` is a generator that only searches: it yields
    each time a full model of the store stands on its trail, counts its
    conflicts on `clock` and stops when `clock.exhausted()` after a
    conflict that does not end the search. The driver reads the model's
    true variables off the trail and posts its blocking clause
    (`Propagator._block_model`) before it resumes the search, and maps the
    variables back to places: variable k is place `varmap.order[k - 1]`. It
    counts a solve call for the first descent and one for each resume
    after a set. It asks the clock after each set, unless the store is
    UNSAT at the root, where the resumed engine ends the run complete. It
    fills in every stat, the `elapsed_ms` covering the last set.

    A place p whose producers all consume p, or that has none, is the
    minimal siphon {p}, and no other minimal siphon contains p: these are
    read off the net's adjacency, as the places whose producer set lies
    inside their consumer set. The units -var(p) go into the store
    together, at the root, before the search starts, so it finds the other
    minimal siphons and never branches on such a p.

    Both engines emit sets in increasing lexicographic order of their
    characteristic vectors over the variables (variable 1 most
    significant, 0 before 1), that is, in decreasing order of their least
    variable. {p} comes before a set S exactly when var(p) exceeds the
    least variable of S, so the pending {p} with a greater variable go out
    before S, in decreasing variable, and the rest after the search ends.
    A run cut by its budget drops the rest, so it is a prefix of the full
    one.
    """
    if not net.places:
        return EnumerationResult()
    formula, varmap = encode_branching(net)
    store = store_type(formula)
    clock = BudgetClock(budget)
    result = EnumerationResult()
    stats = result.stats

    def take(s: PlaceSet) -> None:
        accept(net, result, s)
        if emit:
            emit("S " + format_place_set(net, s))

    pre, post = net._pre_transitions, net._post_transitions
    order = varmap.order  # variable k is place order[k - 1]
    units = [k for k in range(len(order), 0, -1)  # decreasing
             if pre[order[k - 1]] <= post[order[k - 1]]]
    store._add_root([-k] for k in units)
    i = 0
    if not clock.exhausted():
        stats.solve_calls = 1
        for _ in search(store, clock):
            true = store._block_model()
            least = true[0]
            while i < len(units) and units[i] > least:
                take(frozenset((order[units[i] - 1],)))
                i += 1
            take(frozenset([order[k - 1] for k in true]))
            if not store.conflicting and clock.exhausted():
                break
            stats.solve_calls += 1
    if not clock.timed_out:
        for k in units[i:]:
            take(frozenset((order[k - 1],)))
    stats.timed_out = clock.timed_out
    stats.conflicts = clock.conflicts
    stats.decisions = store.decisions
    stats.propagations = store.propagations
    stats.elapsed_ms = clock.elapsed_ms
    return result
