"""Branch-and-bound enumeration of minimal siphons over the same CNF encoding.

Depth-first search with unit propagation on the shared `Propagator`; every
decision takes the lowest-index unassigned variable and tries 0 before 1,
which makes the leftmost solution inclusion-minimal and guarantees that no
later solution is a subset of an earlier one. On each solution the decision
path is memorized, the search unwinds to the root, a permanent non-superset
clause is posted, and the path is replayed; replay stops early at the
deepest prefix still consistent with the new clause and the search resumes
from there.
"""

from .encoding import blocking_clause, encode_siphon
from .net import PetriNet, format_place_set
from .search import (Budget, BudgetClock, EnumerationResult, Propagator, SearchStats,
                     accept)


def _solutions(net: PetriNet, stats: SearchStats, budget: Budget | None, emit):
    """Yield the place set of each solution of the 0-first search, in order.

    Resuming after a solution unwinds to the root, posts its non-superset
    clause and replays its decision path. Counters go into `stats`; the
    search ends at a root conflict or when the budget runs out.
    """
    formula, varmap = encode_siphon(net)
    prop = Propagator(formula)
    clock = BudgetClock(budget)
    stack: list[tuple[int, bool]] = []  # decisions; False still has the 1-branch pending

    def decide(var, value):
        stack.append((var, value))
        stats.decisions += 1
        if emit:
            emit(f"D {var}={1 if value else 0} {len(stack)}")
        return prop.decide(var, value)

    def out_of_budget():
        clock.conflicts = stats.conflicts
        if clock.exhausted():
            stats.timed_out = True
        return stats.timed_out

    stats.solve_calls = 1
    consistent = not prop.conflicting
    out_of_budget()
    while not stats.timed_out:
        if not consistent:
            stats.conflicts += 1
            while stack and stack[-1][1]:
                stack.pop()
                prop.backtrack()
                if emit:
                    emit(f"B {len(stack)}")
            if not stack:
                break
            var, _ = stack.pop()
            prop.backtrack()
            if emit:
                emit(f"B {len(stack)}")
            consistent = decide(var, True)
        elif prop.all_assigned():
            found = frozenset(varmap.place(v) for v in prop.true_vars())
            yield found
            path = stack.copy()
            stack.clear()
            prop.backtrack_all()
            stats.solve_calls += 1
            if not prop.add_clause(blocking_clause(found, varmap)) or out_of_budget():
                break  # a root conflict ends the enumeration
            consistent = True
            for var, value in path:
                known = prop.value(var)
                if known is None:
                    consistent = decide(var, value)
                    if not consistent:
                        break
                elif known != value:
                    break  # this subtree is now cut; resume here
        else:
            consistent = decide(prop._pick_branch(), False)
        if stats.decisions % 256 == 0:
            out_of_budget()
    stats.elapsed_ms = clock.elapsed_ms


def enumerate_minimal_bb(net: PetriNet, budget: Budget | None = None,
                         trace=None) -> EnumerationResult:
    """All minimal siphons by propagation-based depth-first search.

    `trace`, if given, is called with one line per event: `D <var>=<0|1>
    <depth>` for decisions, `B <depth>` for backtracks, `S {places}` for
    solutions.
    """
    if trace is None or callable(trace):
        emit = trace
    else:  # file-like
        emit = lambda line: print(line, file=trace)
    result = EnumerationResult()
    for found in _solutions(net, result.stats, budget, emit):
        accept(net, result, found)
        if emit:
            emit("S " + format_place_set(net, found))
    return result


def first_solution_is_minimal_check(net: PetriNet) -> bool:
    """Run the search to its first solution only and verify minimality by
    checking every proper nonempty subset against the siphon predicate."""
    if len(net.places) > 12:
        raise ValueError("exhaustive minimality check is limited to 12 places")
    first = next(_solutions(net, SearchStats(), None, None), None)
    if first is None:
        return True  # no solutions at all
    members = sorted(first)
    for mask in range(1, (1 << len(members)) - 1):
        subset = [members[i] for i in range(len(members)) if mask >> i & 1]
        if net.is_siphon(subset):
            return False
    return True
