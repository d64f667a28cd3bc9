"""Iterated SAT enumeration of minimal siphons.

The solver is a small CDCL on the shared watched-literal `Propagator`
(`search.py`, also under branch-and-bound): first-UIP conflict learning,
each learned clause posted unchecked through
`Propagator._post_falsified`, which backjumps; a solve never starts over.
No clause is deleted, but a posted clause that a learned clause subsumes,
among the clauses its analysis resolved on, is detached from the watch
lists (`Propagator._detach`): on-the-fly subsumption (Han and Somenzi,
SAT 2009). The learned clause implies the one it subsumes, so the models
left do not change, as all-solutions search needs (Toda and Soh, ACM JEA
2016). On `gen_chain(10)` SAT detaches 1,524 posted clauses, and the
positions that posted clauses' watch moves test fell from 20,978 to
11,937. Branching is the fixed rule both engines
share: the lowest-index unassigned variable, False before True, which the
propagation kernel's cursor `_next_var` names at each conflict-free
fixpoint. The solver runs the kernel in descend mode, which opens each
0-first level itself at such a fixpoint, as MiniSat's search loop does
(Een and Sorensson, SAT 2003), in the block that also opens each level
branch-and-bound hands it through `decide`. The shared driver encodes the
net through `encoding.encode_branching` and builds the solver over it, so
variable k is the k-th place of the structural branching order, not of
the model file's place list.
Each learned clause is minimized (a literal goes when every other literal
of its reason clause is in the clause or fixed at level 0) and stored with
the asserting literal first and the rest by decreasing decision level, so
when a watch moves, the replacement is usually found at once rather than
behind a run of literals false since an early level. Input clauses are
stored highest variable first, so the non-emptiness clause watches the
variables that the 0-first descent reaches last instead of chasing the
assignment frontier.

Enumeration solves, posts a clause that excludes the found set and all its
supersets, and repeats until UNSAT or the budget runs out. It is a
generator under the shared driver (`search.enumerate_sets`), which counts
the solves and asks the run's one `BudgetClock` after each set; each solve
counts its conflicts on the clock and asks it after each of them. Each solve
returns the lexicographically least model of the clause store (False below
True, variable 1 most significant), so the sets come in increasing lex order
of their characteristic vectors under the branching order, the same list as
branch-and-bound's. Only the branching rule matters for that, the
lowest-index variable and the 0-first phase, with sound propagation: if the
model found first differed from the least one, at the first variable where
they differ it would be 1 by implication from 0-decisions and clauses that
the least model shares, so the least model would be 1 there too. The least
model is inclusion-minimal among the models left; blocking clauses remove
only supersets of sets already found, so every model is a new minimal
siphon. The driver posts the one-place minimal siphons as units before the
first solve and merges them into the output without search. It reads each
model's set and blocking clause off the trail in one pass and posts the
clause unchecked, like a learned one: the model falsifies it, so it is
stored by decreasing level, the search backjumps to the clause's
assertion level and the next solve resumes there rather than
re-descending from the root, as all-solutions CDCL solvers do (Toda and
Soh, ACM JEA 2016).
Branch-and-bound resumes through the same call. The levels kept are the
ones a descent from the root would rebuild, and the clause is not unit
below them, so the models and their order do not change.
"""

from enum import Enum

from .encoding import CnfFormula
# perfbench/tracing.py wraps these two here; the engine calls neither
from .encoding import blocking_clause, encode_siphon  # noqa: F401
from .net import PetriNet
from .search import Budget, BudgetClock, EnumerationResult, Propagator, enumerate_sets


class SolveStatus(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class SatSolver(Propagator):
    """Incremental CDCL solver over a CnfFormula; clauses may be added between calls.

    The clause store, propagation, levels, reasons and branching cursor are
    the shared `Propagator`; this class adds learning and `solve`, which
    leaves each model it finds on the trail and resumes from there. Like
    `assign`, the conflict-analysis mark of a variable is indexed by its
    true literal. The formula's clauses go in through the store's one root
    intake, as `Propagator`'s do, reordered highest variable first by
    `_stored`. A clause added between calls goes through `add_clause`,
    which checks it; a learned clause is falsified by construction, so
    `solve` posts it through `_post_falsified` unchecked.
    """

    def __init__(self, formula: CnfFormula):
        super().__init__(formula)
        self._seen = [False] * (2 * formula.num_vars + 1)
        self.conflicts = 0

    @staticmethod
    def _stored(clauses):
        """Input clauses go in highest variable first (see the module docstring)."""
        return [sorted(clause, key=abs, reverse=True) for clause in clauses]

    # -- conflict analysis ----------------------------------------------------

    def _analyze(self, confl: int) -> list[int]:
        """The minimized first-UIP clause learned from conflict `confl`, as
        the trail literals it negates, for `_post_falsified`.

        The UIP comes first, the rest in the order analysis met them;
        `_post_falsified` sorts them by decreasing level, backjumps to the
        level of the second and asserts the negated first there. Each
        posted clause resolved on, the conflict clause or a reason at the
        conflict level, that the learned clause subsumes is detached: that
        backjump undoes the conflict level, so none of them is a reason
        again.
        """
        # Every literal q met in a conflict or reason clause other than the
        # implied one is false, so its variable's entries sit at index -q.
        seen = self._seen
        level = self.level
        reason = self.reason
        clauses = self.clauses
        trail = self.trail
        cur_level = self.decision_level
        num_input = self.num_input
        learned: list[int] = []
        touched: list[int] = []
        posted: list[int] = []  # the posted clauses resolved on
        counter = 0
        p = 0
        idx = len(trail) - 1
        ci = confl
        while True:
            clause = clauses[ci]
            if ci >= num_input:
                posted.append(ci)
            for q in clause:
                if q == p:
                    continue
                if not seen[-q] and level[-q] > 0:
                    seen[-q] = True
                    touched.append(-q)
                    if level[-q] >= cur_level:
                        counter += 1
                    else:
                        learned.append(-q)
            while not seen[trail[idx]]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            ci = reason[p]
        # Local minimization: a literal goes if every other literal of its
        # reason clause is in the learned clause or fixed at level 0.
        kept = [p]
        for t in learned:
            r = reason[t]
            if r is not None:
                for x in clauses[r]:
                    if x != t and not seen[-x] and level[-x] > 0:
                        break
                else:
                    continue
            kept.append(t)
        for t in touched:
            seen[t] = False
        # On-the-fly subsumption (see the module docstring). The length and
        # UIP tests spare most clauses resolved on the subset test.
        for ci in posted:
            clause = clauses[ci]
            if len(clause) > len(kept) and -p in clause and {-t for t in kept}.issubset(clause):
                self._detach(ci)
        return kept

    # -- main search ----------------------------------------------------------

    def solve(self, assumptions=(), budget: Budget | BudgetClock | None = None) -> SolveStatus:
        """SAT with the least model on the trail, UNSAT, or UNKNOWN on budget.

        `budget` is a cap for this call, or the `BudgetClock` of the run
        this call belongs to, which it shares with the run's other solves.
        Each conflict counts against it, and the search stops when it is
        exhausted after a conflict that does not end the search.

        Every solve resumes from the trail that the last `solve` or
        `add_clause` left, a solve cut by its budget included: nothing is
        unwound on the way out. That trail holds only 0-first decisions, and
        every level of it is what a descent from the root would rebuild, so
        the answer is still the least model of the clause store. After SAT
        the model stands on the trail, and `value(v)` reads it.

        The 0-first descent runs inside `_propagate(True)`, which returns
        only on a conflict or a full trail, so this loop only handles
        conflicts: it learns, backjumps and asks the budget.

        `assumptions` must be empty: the keyword stays only because
        `perfbench/tracing.py` passes `assumptions=()` on every call, and
        the benchmark change (ROADMAP item 1) removes it.
        """
        if assumptions:
            raise ValueError("solve takes no assumptions")
        if self.conflicting:
            return SolveStatus.UNSAT
        clock = budget if isinstance(budget, BudgetClock) else BudgetClock(budget)
        # The kernel descends until a conflict or a full trail. `conflicting`
        # is set here only by a learned unit refuted at the root, which
        # counts as the conflict that ends the search.
        while self.conflicting or (confl := self._propagate(True)) is not None:
            self.conflicts += 1
            clock.conflicts += 1
            if not self.decision_level:
                self.conflicting = True
                return SolveStatus.UNSAT
            self._post_falsified(self._analyze(confl))
            if clock.exhausted():
                return SolveStatus.UNKNOWN
        return SolveStatus.SAT


def _search(solver: SatSolver, clock: BudgetClock):
    """Solve and yield, and repeat until UNSAT or the budget runs out; the
    driver blocks each model before the next solve."""
    while solver.solve(budget=clock) is SolveStatus.SAT:
        yield


def enumerate_minimal_sat(net: PetriNet, budget: Budget | None = None) -> EnumerationResult:
    """All minimal siphons by iterated SAT with non-superset blocking clauses.

    Each model is the least one left, so it is a minimal siphon as found
    (see the module docstring). The driver `enumerate_sets` encodes the
    net, settles the one-place minimal siphons, certifies every set and
    keeps the budget: when it runs out, the result is returned as found so
    far, flagged timed out.
    """
    return enumerate_sets(net, SatSolver, _search, budget)
