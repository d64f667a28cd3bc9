"""Petri net core: immutable net structure, markings, siphon/trap predicates."""

import copy
import operator
from collections.abc import Iterable, Mapping, Sequence

Marking = tuple[int, ...]
PlaceSet = frozenset[int]

_INT = frozenset({int})  # the one element type `_check_set` and `_check_marking` pass in C


class NotEnabledError(ValueError):
    """Raised when firing a transition whose input places lack tokens."""


def _is_index(i, n: int) -> bool:
    """True iff i is a plain int in range(n): `type(i) is int` refuses a bool
    and any other int subclass."""
    return type(i) is int and 0 <= i < n


def _clean_weights(raw, n_left, n_right, what):
    """Validate an arc weight map; explicit zero weights mean 'no arc'."""
    weights = {}
    for key, w in dict(raw).items():
        try:
            a, b = key
        except (TypeError, ValueError):
            raise ValueError(f"{what} arc key {key!r} is not a pair") from None
        if type(w) is not int:
            raise ValueError(f"{what} weight for {(a, b)} must be an int, got {w!r}")
        if w < 0:
            raise ValueError(f"{what} weight for {(a, b)} is negative: {w}")
        if not (_is_index(a, n_left) and _is_index(b, n_right)):
            raise ValueError(f"{what} arc {(a, b)} is out of range")
        if w > 0:
            weights[(a, b)] = w
    return weights


class PetriNet:
    """A place/transition net with weighted arcs, immutable once built.

    Places and transitions are referred to by their construction index;
    names are kept only for input/output. `weight_pt` is keyed by
    (place, transition) and holds consumption weights, `weight_tp` by
    (transition, place) and holds production weights. Arcs with weight 0
    are treated as absent.
    """

    def __init__(self, places: Sequence[str], transitions: Sequence[str],
                 weight_pt: Mapping[tuple[int, int], int] = (),
                 weight_tp: Mapping[tuple[int, int], int] = ()):
        self.places = tuple(str(p) for p in places)
        self.transitions = tuple(str(t) for t in transitions)
        if len(set(self.places)) != len(self.places):
            raise ValueError("duplicate place names")
        if len(set(self.transitions)) != len(self.transitions):
            raise ValueError("duplicate transition names")
        np, nt = len(self.places), len(self.transitions)
        self.weight_pt = _clean_weights(weight_pt, np, nt, "place->transition")
        self.weight_tp = _clean_weights(weight_tp, nt, np, "transition->place")

        pre_t = [set() for _ in range(np)]   # transitions producing the place
        post_t = [set() for _ in range(np)]  # transitions consuming the place
        pre_p = [set() for _ in range(nt)]   # places consumed by the transition
        post_p = [set() for _ in range(nt)]  # places produced by the transition
        for (p, t) in self.weight_pt:
            post_t[p].add(t)
            pre_p[t].add(p)
        for (t, p) in self.weight_tp:
            pre_t[p].add(t)
            post_p[t].add(p)
        self._pre_transitions = tuple(frozenset(s) for s in pre_t)
        self._post_transitions = tuple(frozenset(s) for s in post_t)
        self._pre_places = tuple(frozenset(s) for s in pre_p)
        self._post_places = tuple(frozenset(s) for s in post_p)
        self._place_index = {name: i for i, name in enumerate(self.places)}
        self._transition_index = {name: j for j, name in enumerate(self.transitions)}

    @classmethod
    def from_transitions(cls, specs, places=None):
        """Build a net from (name, consumed, produced) triples.

        `consumed`/`produced` are mappings name->weight or iterables of
        names (weight 1 each). Place order is first appearance unless an
        explicit `places` sequence is given.
        """
        order = list(places) if places is not None else []
        index = {name: i for i, name in enumerate(order)}

        def as_counts(side):
            counts = dict(side) if isinstance(side, Mapping) else {}
            if not isinstance(side, Mapping):
                for name in side:
                    counts[name] = counts.get(name, 0) + 1
            for name in counts:
                if name not in index:
                    if places is not None:
                        raise ValueError(f"place {name!r} not in the given place list")
                    index[name] = len(order)
                    order.append(name)
            return counts

        names, weight_pt, weight_tp = [], {}, {}
        for j, (name, consumed, produced) in enumerate(specs):
            names.append(name)
            for pname, w in as_counts(consumed).items():
                weight_pt[(index[pname], j)] = w
            for pname, w in as_counts(produced).items():
                weight_tp[(j, index[pname])] = w
        return cls(order, names, weight_pt, weight_tp)

    # -- indexing helpers ------------------------------------------------

    def place_index(self, name: str) -> int:
        try:
            return self._place_index[name]
        except KeyError:
            raise ValueError(f"unknown place {name!r}") from None

    def transition_index(self, name: str) -> int:
        try:
            return self._transition_index[name]
        except KeyError:
            raise ValueError(f"unknown transition {name!r}") from None

    def place_set(self, *names: str) -> PlaceSet:
        return frozenset(self.place_index(n) for n in names)

    def set_names(self, s: Iterable[int]) -> tuple[str, ...]:
        """Names of a place set, sorted, for stable display."""
        return tuple(sorted(self.places[p] for p in self._check_set(s)))

    def _check_place(self, p: int) -> int:
        if not _is_index(p, len(self.places)):
            raise ValueError(f"invalid place index {p!r}")
        return p

    def _check_transition(self, t: int) -> int:
        if not _is_index(t, len(self.transitions)):
            raise ValueError(f"invalid transition index {t!r}")
        return t

    def _check_set(self, s: Iterable[int]) -> PlaceSet:
        if type(s) is not frozenset:
            s = tuple(s)  # each element is checked as given, before deduplication
        # When every element is a plain int, one pass each in C decides; any
        # other set gets the per-place rule, which names the first bad element.
        if s and _INT.issuperset(map(type, s)) and min(s) >= 0 and max(s) < len(self.places):
            return frozenset(s)
        return frozenset(self._check_place(p) for p in s)

    # -- structure queries -----------------------------------------------

    def pre_transitions(self, p: int) -> frozenset[int]:
        """Transitions with an arc into place p (its producers)."""
        return self._pre_transitions[self._check_place(p)]

    def post_transitions(self, p: int) -> frozenset[int]:
        """Transitions with an arc out of place p (its consumers)."""
        return self._post_transitions[self._check_place(p)]

    def pre_places(self, t: int) -> frozenset[int]:
        """Places consumed by transition t."""
        return self._pre_places[self._check_transition(t)]

    def post_places(self, t: int) -> frozenset[int]:
        """Places produced by transition t."""
        return self._post_places[self._check_transition(t)]

    def is_siphon(self, s: Iterable[int]) -> bool:
        """True iff s is nonempty and every producer of s also consumes in s."""
        return self._compare_transitions(s, operator.le)

    def is_trap(self, s: Iterable[int]) -> bool:
        """True iff s is nonempty and every consumer of s also produces in s."""
        return self._compare_transitions(s, operator.ge)

    def is_proper_siphon(self, s: Iterable[int]) -> bool:
        """True iff s is a siphon whose producer set is strictly inside its consumer set."""
        return self._compare_transitions(s, operator.lt)

    def _compare_transitions(self, s: Iterable[int], holds) -> bool:
        """False if s is empty, else `holds(producers, consumers)` of s."""
        s = self._check_set(s)
        if not s:
            return False
        pre = frozenset().union(*map(self._pre_transitions.__getitem__, s))
        post = frozenset().union(*map(self._post_transitions.__getitem__, s))
        return holds(pre, post)

    def dual(self) -> "PetriNet":
        """The net with every arc reversed; traps here are siphons there.

        The arcs are checked already, so the dual copies this net and swaps
        its arcs and adjacency tuples rather than checking them again.
        """
        dual = copy.copy(self)
        dual.weight_pt = {(p, t): w for (t, p), w in self.weight_tp.items()}
        dual.weight_tp = {(t, p): w for (p, t), w in self.weight_pt.items()}
        dual._pre_transitions = self._post_transitions
        dual._post_transitions = self._pre_transitions
        dual._pre_places = self._post_places
        dual._post_places = self._pre_places
        return dual

    # -- token game --------------------------------------------------------

    def marking(self, counts: Mapping[str, int] | None = None) -> Marking:
        """Marking tuple from a name->count mapping; unnamed places get 0."""
        m = [0] * len(self.places)
        for name, k in (counts or {}).items():
            if type(k) is not int or k < 0:
                raise ValueError(f"token count for {name!r} must be a nonnegative int")
            m[self.place_index(name)] = k
        return tuple(m)

    def marking_dict(self, m: Marking) -> dict[str, int]:
        """Nonzero entries of a marking, by place name."""
        self._check_marking(m)
        return {self.places[i]: k for i, k in enumerate(m) if k}

    def _check_marking(self, m: Marking) -> Marking:
        if not isinstance(m, (list, tuple)):
            raise ValueError(f"marking must be a list or tuple, got {type(m).__name__}")
        if len(m) != len(self.places):
            raise ValueError(f"marking has length {len(m)}, expected {len(self.places)}")
        if not _INT.issuperset(map(type, m)):
            raise ValueError("marking has a token count that is not an int")
        if any(k < 0 for k in m):
            raise ValueError("marking has a negative token count")
        return m

    def is_enabled(self, m: Marking, t: int) -> bool:
        self._check_marking(m)
        return self._enabled(m, self._check_transition(t))

    def enabled_transitions(self, m: Marking) -> frozenset[int]:
        self._check_marking(m)
        return frozenset(t for t in range(len(self.transitions)) if self._enabled(m, t))

    def _enabled(self, m: Marking, t: int) -> bool:
        """Every input place of t holds at least its arc weight; the caller checked m and t."""
        return all(m[p] >= self.weight_pt[(p, t)] for p in self._pre_places[t])

    def fire(self, m: Marking, t: int) -> Marking:
        """Successor marking after firing t; raises NotEnabledError if t is not enabled."""
        if not self.is_enabled(m, t):
            raise NotEnabledError(f"transition {self.transitions[t]!r} is not enabled")
        out = list(m)
        for p in self._pre_places[t]:
            out[p] -= self.weight_pt[(p, t)]
        for p in self._post_places[t]:
            out[p] += self.weight_tp[(t, p)]
        return tuple(out)

    # ----------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, PetriNet):
            return NotImplemented
        return (self.places == other.places
                and self.transitions == other.transitions
                and self.weight_pt == other.weight_pt
                and self.weight_tp == other.weight_tp)

    def __repr__(self):
        return f"PetriNet({len(self.places)} places, {len(self.transitions)} transitions)"


def format_names(names: Iterable[str]) -> str:
    """Names as a set literal: `{a, b}`."""
    return "{" + ", ".join(names) + "}"


def format_place_set(net: PetriNet, s: Iterable[int]) -> str:
    return format_names(net.set_names(s))


def isomorphic(a: PetriNet, b: PetriNet) -> bool:
    """True when two nets have the same named structure: equal place and
    transition name sets and equal arc weights keyed by names.  Internal
    index order is ignored (text formats do not all preserve it)."""
    if set(a.places) != set(b.places) or set(a.transitions) != set(b.transitions):
        return False

    def by_name(net: PetriNet) -> tuple[dict, dict]:
        pt = {(net.places[p], net.transitions[t]): w
              for (p, t), w in net.weight_pt.items()}
        tp = {(net.transitions[t], net.places[p]): w
              for (t, p), w in net.weight_tp.items()}
        return pt, tp

    return by_name(a) == by_name(b)
