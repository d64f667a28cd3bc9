"""Siphon/trap analysis: engine dispatch, trap enumeration through the dual
net, containment filtering, maximal-trap extraction, marking reports, and
small brute-force oracles used to cross-check the engines, among them the
check that bb's first set is one of the oracle's minimal siphons."""

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .branch_bound import enumerate_minimal_bb
from .net import PetriNet, PlaceSet, format_names
from .sat import enumerate_minimal_sat
from .search import Budget, BudgetClock, EnumerationResult, SearchStats

ENGINES = ("sat", "bb", "oracle")
ORACLE_MAX_PLACES = 20


def canonical_order(net: PetriNet, sets: Iterable[PlaceSet]) -> list[PlaceSet]:
    """Sort place sets by size, then by their sorted place names."""
    return sorted(sets, key=lambda s: (len(s), net.set_names(s)))


def enumerate_minimal_siphons(net: PetriNet, engine: str = "sat",
                              budget: Budget | None = None, trace=None) -> EnumerationResult:
    """All minimal siphons, through the chosen engine.

    The sat and bb engines return the same list: the sets in increasing
    lexicographic order of their characteristic vectors under the branching
    order (`encoding.branching_order`), with its first place (CNF variable
    1) most significant and absent before present, so in decreasing order
    of their least position in it. A run cut by its budget returns a prefix
    of that list. The oracle returns `canonical_order`.
    """
    if trace is not None and engine != "bb":
        raise ValueError("search traces are only produced by the bb engine")
    if engine == "sat":
        return enumerate_minimal_sat(net, budget=budget)
    if engine == "bb":
        return enumerate_minimal_bb(net, budget=budget, trace=trace)
    if engine == "oracle":
        clock = BudgetClock(budget)
        sets = _oracle(net, net.pre_transitions, net.post_transitions, clock)
        stats = SearchStats(solve_calls=1 if net.places else 0,  # one scan, if any place
                            elapsed_ms=clock.elapsed_ms, timed_out=clock.timed_out)
        return EnumerationResult(sets=sets, stats=stats)
    raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def enumerate_minimal_traps(net: PetriNet, engine: str = "sat",
                            budget: Budget | None = None, trace=None) -> EnumerationResult:
    """All minimal traps: the minimal siphons of the arc-reversed net."""
    return enumerate_minimal_siphons(net.dual(), engine=engine, budget=budget, trace=trace)


def filter_containing(sets: Iterable[PlaceSet], required: Iterable[int]) -> list[PlaceSet]:
    """Keep the sets that contain every required place.

    Minimal siphons containing given places are found by enumerating all
    minimal siphons first and filtering after; requiring the places inside
    the search would surface sets that are only minimal among the
    constrained ones.
    """
    required = frozenset(required)
    return [s for s in sets if required <= s]


def max_trap_within(net: PetriNet, s: Iterable[int]) -> PlaceSet:
    """The unique maximal trap inside s (possibly empty).

    Greatest fixpoint: repeatedly drop any place with a consumer that does
    not produce into the remaining set.
    """
    current = set(net._check_set(s))
    pre, post = net._pre_transitions, net._post_transitions
    while True:
        producers = frozenset().union(*(pre[p] for p in current))
        dropped = [p for p in current if not post[p] <= producers]
        if not dropped:
            return frozenset(current)
        current.difference_update(dropped)


def _oracle(net: PetriNet, predicate_pre, predicate_post,
            clock: BudgetClock | None = None) -> list[PlaceSet]:
    """Inclusion-minimal nonempty place sets passing pre<=post, in canonical
    order. A scan cut short by `clock` leaves `clock.timed_out` set.

    Masks are scanned in increasing order and every submask of a mask is
    numerically smaller, so the sets kept from a scan cut short by the clock
    are still globally minimal.
    """
    n = len(net.places)
    if n > ORACLE_MAX_PLACES:
        raise ValueError(f"net has {n} places; brute force is capped at {ORACLE_MAX_PLACES}")
    pre = [0] * n
    post = [0] * n
    for p in range(n):
        for t in predicate_pre(p):
            pre[p] |= 1 << t
        for t in predicate_post(p):
            post[p] |= 1 << t
    hits = []
    for mask in range(1, 1 << n):
        if mask & 4095 == 0 and clock is not None and clock.exhausted():
            break
        pre_u = 0
        post_u = 0
        m = mask
        while m:
            low = m & -m
            p = low.bit_length() - 1
            pre_u |= pre[p]
            post_u |= post[p]
            m ^= low
        if pre_u & ~post_u == 0:
            hits.append(mask)
    hits.sort(key=lambda m: bin(m).count("1"))
    minimal: list[int] = []
    for mask in hits:
        if not any(kept & mask == kept for kept in minimal):
            minimal.append(mask)
    sets = [frozenset(p for p in range(n) if mask >> p & 1) for mask in minimal]
    return canonical_order(net, sets)


def brute_force_minimal_siphons(net: PetriNet) -> list[PlaceSet]:
    """Oracle: scan all nonempty place subsets; practical up to ~15 places."""
    return _oracle(net, net.pre_transitions, net.post_transitions)


def brute_force_minimal_traps(net: PetriNet) -> list[PlaceSet]:
    """Trap oracle built directly on the trap condition, no dualization."""
    return _oracle(net, net.post_transitions, net.pre_transitions)


def first_solution_is_minimal_check(net: PetriNet) -> bool:
    """Verify that the first set of the bb run is inclusion-minimal by
    finding it among the oracle's minimal siphons. `accept` has already
    certified it as a siphon, and the oracle shares no code with the
    engines."""
    if len(net.places) > 12:
        raise ValueError("exhaustive minimality check is limited to 12 places")
    sets = enumerate_minimal_bb(net).sets
    return not sets or sets[0] in brute_force_minimal_siphons(net)


@dataclass
class SiphonReportRow:
    """One minimal siphon with its maximal inner trap and marking status."""

    siphon: tuple[str, ...]
    proper: bool
    trap: tuple[str, ...]
    trap_marked: bool


@dataclass
class SiphonTrapReport:
    """Per-siphon rows plus the deadlock-freedom style summary.

    `all_marked` is True when every minimal siphon contains an initially
    marked trap (vacuously true when there are no siphons); with
    `timed_out` set the rows cover only the siphons found in budget.
    """

    rows: list[SiphonReportRow] = field(default_factory=list)
    all_marked: bool = True
    timed_out: bool = False

    def to_dict(self) -> dict:
        return {
            "siphons": [
                {
                    "siphon": list(row.siphon),
                    "proper": row.proper,
                    "max_trap": list(row.trap),
                    "trap_marked": row.trap_marked,
                }
                for row in self.rows
            ],
            "every_siphon_has_marked_trap": self.all_marked,
            "timed_out": self.timed_out,
        }

    def to_text(self) -> str:
        lines = []
        for row in self.rows:
            flags = "proper" if row.proper else "not proper"
            marked = "marked" if row.trap_marked else "unmarked"
            lines.append(f"siphon {format_names(row.siphon)} ({flags}): "
                         f"max trap {format_names(row.trap)} ({marked})")
        verdict = "yes" if self.all_marked else "no"
        lines.append(f"every minimal siphon contains a marked trap: {verdict}"
                     + (" (partial: timed out)" if self.timed_out else ""))
        return "\n".join(lines)


def siphon_trap_report(net: PetriNet, marking, engine: str = "sat",
                       budget: Budget | None = None,
                       siphons: EnumerationResult | None = None,
                       names: Sequence[tuple[str, ...]] | None = None) -> SiphonTrapReport:
    """For each minimal siphon: its maximal inner trap and whether that trap
    is marked under the given marking.

    `siphons` is an already-computed siphon enumeration of `net`, all of
    its sets; without it the siphons are enumerated here with `engine`
    and `budget`. `names`, if given, holds `net.set_names` of each set of
    `siphons`, in the same order, so a caller that has named them already
    does not name them again.
    """
    net._check_marking(marking)
    if names is not None and (siphons is None or len(names) != len(siphons.sets)):
        raise ValueError("names must name each set of the given siphons")
    if siphons is None:
        siphons = enumerate_minimal_siphons(net, engine=engine, budget=budget)
    report = SiphonTrapReport(timed_out=siphons.stats.timed_out)
    # `canonical_order`: a set and its names have the same size, and
    # distinct sets have distinct names
    named = sorted(zip(names or map(net.set_names, siphons.sets), siphons.sets),
                   key=lambda row: (len(row[0]), row[0]))
    for siphon_names, siphon in named:
        trap = max_trap_within(net, siphon)
        marked = any(marking[p] > 0 for p in trap)
        report.rows.append(SiphonReportRow(
            siphon=siphon_names,
            proper=net.is_proper_siphon(siphon),
            trap=net.set_names(trap),
            trap_marked=marked,
        ))
        if not marked:
            report.all_marked = False
    return report
