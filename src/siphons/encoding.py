"""CNF encoding of the siphon constraint, plus DIMACS import/export.

A true variable selects its place. For each place p and each transition t
producing p, selecting p requires selecting some place consumed by t; one
final clause over all variables rules out the empty set. Tautological
clauses (from self-loops) are dropped and duplicate clauses are kept once.

`encode_siphon` maps place k-1 to variable k. The engines encode through
`encode_branching` instead, where variable k is the k-th place of
`branching_order`, a breadth-first walk over the net's structure: both
branch on the lowest free variable, so this order, not the order in which
a model file lists its places, decides how the search runs. A `VarMap`
carries the bijection either way.

Each index is checked once, where it enters: `PetriNet.__init__` checks
every arc, and `check_clause` every literal from outside (DIMACS text or a
caller's clause) for `CnfFormula.add_clause` and `Propagator.add_clause`,
which `SatSolver` inherits. The encoders read the net's
checked adjacency directly and build their clauses without checking them
again, and the engines attach a formula's clauses as they are.
"""

import functools
from collections.abc import Iterable, Sequence

from .net import _INT, PetriNet, PlaceSet
from .reactions import ParseError

Clause = tuple[int, ...]
Assignment = tuple[bool, ...]


def check_clause(literals: Iterable[int], num_vars: int) -> list[int] | None:
    """The distinct literals of a clause from outside, in first-seen order,
    or None for a tautology. Raises ValueError on a literal that is not a
    nonzero plain int within +-num_vars; a bool or other int subclass is not one."""
    out: list[int] = []
    seen: set[int] = set()
    for lit in literals:
        if type(lit) is not int or not 0 < abs(lit) <= num_vars:
            raise ValueError(f"bad literal {lit!r}")
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    if any(-lit in seen for lit in out):
        return None
    return out


class CnfFormula:
    """Clause store over variables 1..num_vars, duplicate- and tautology-free.

    A formula that the siphon encoders built also keeps the net's structure
    by variable, which branch-and-bound's siphon test reads: `producers[k -
    1]` lists the transitions that produce variable k's place, and
    `inputs[t]` the variables of t's input places, so the clauses
    ¬k ∨ inputs(t) are read off the two. Any other formula has both None.
    """

    def __init__(self, num_vars: int):
        if type(num_vars) is not int or num_vars < 1:
            raise ValueError("num_vars must be an int >= 1")
        self.num_vars = num_vars
        self.clauses: list[Clause] = []
        self.producers: list[list[int]] | None = None
        self.inputs: list[tuple[int, ...]] | None = None
        # The clauses as literal sets, built on the first `add_clause`, so a
        # formula that an encoder fills directly pays for no index.
        self._seen: set[frozenset[int]] | None = None

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if it was a duplicate or a tautology."""
        out = check_clause(literals, self.num_vars)
        if out is None:
            return False
        if not out:
            raise ValueError("empty clause")
        if self._seen is None:
            self._seen = set(map(frozenset, self.clauses))
        key = frozenset(out)
        if key in self._seen:
            return False
        self._seen.add(key)
        self.clauses.append(tuple(out))
        return True

    def __len__(self) -> int:
        return len(self.clauses)

    def __repr__(self):
        return f"CnfFormula({self.num_vars} vars, {len(self.clauses)} clauses)"


class VarMap:
    """The fixed bijection between place indices and DIMACS variables.

    `order` lists the places by variable: variable k is place `order[k-1]`,
    and `var_of[p]` is the variable of place p. Without an order, variable
    k is place k-1 and `order` is a range. `names` are the place names by
    variable, as `export_dimacs` writes them. An index must be a plain int:
    `type(...) is int` rejects a bool too."""

    def __init__(self, place_names: Sequence[str], order: Sequence[int] | None = None):
        if order is None:
            self.order: Sequence[int] = range(len(place_names))
            self.names = tuple(place_names)
            return
        order = tuple(order)
        if (len(order) != len(place_names) or not _INT.issuperset(map(type, order))
                or set(order) != set(range(len(order)))):
            raise ValueError("order must list every place index once")
        self.order = order
        self.names = tuple([place_names[p] for p in order])

    @functools.cached_property
    def var_of(self) -> tuple[int, ...]:
        var_of = [0] * len(self.order)
        for k, p in enumerate(self.order, start=1):
            var_of[p] = k
        return tuple(var_of)

    @property
    def num_vars(self) -> int:
        return len(self.names)

    def var(self, place: int) -> int:
        if type(place) is not int or not 0 <= place < len(self.names):
            raise ValueError(f"invalid place index {place!r}")
        return self.var_of[place]

    def place(self, var: int) -> int:
        if type(var) is not int or not 1 <= var <= len(self.names):
            raise ValueError(f"invalid variable {var!r}")
        return self.order[var - 1]


def encode_siphon(net: PetriNet) -> tuple[CnfFormula, VarMap]:
    """CNF whose models are exactly the nonempty siphons of the net, with
    variable k for place k-1."""
    return _encode(net, False)


def encode_branching(net: PetriNet) -> tuple[CnfFormula, VarMap]:
    """`encode_siphon` as both engines search it: variable k is the k-th
    place of `branching_order(net)`, and the clauses come by variable."""
    return _encode(net, True)


def branching_order(net: PetriNet) -> tuple[int, ...]:
    """The places in the order the engines branch on them (see `_walk`),
    read off the engines' encoding."""
    return encode_branching(net)[1].order


def _walk(inputs: list[list[int]], consumers: list[list[int]],
          producers: list[list[int]]) -> list[int]:
    """The places in breadth-first order over the net's structure.

    Each transition's inputs and each place's consumers and producers come
    in increasing index. A walk starts at the lowest-index place not yet
    reached. Visiting place p expands each not yet expanded consumer of p,
    then each such producer; expanding a transition appends its inputs not
    yet reached. The places a clause ties together, a place and the inputs
    of its producer or its co-inputs, so get nearby variables, whatever
    order the model file lists them in. O(places + arcs).
    """
    n = len(consumers)
    order: list[int] = []
    reached = [False] * n
    expanded = [False] * len(inputs)
    head = 0
    for root in range(n):
        if reached[root]:
            continue
        reached[root] = True
        order.append(root)
        while head < len(order):
            p = order[head]
            head += 1
            for t in consumers[p] + producers[p]:
                if not expanded[t]:
                    expanded[t] = True
                    for q in inputs[t]:
                        if not reached[q]:
                            reached[q] = True
                            order.append(q)
    return order


def _encode(net: PetriNet, structural: bool) -> tuple[CnfFormula, VarMap]:
    n = len(net.places)
    if n == 0:
        raise ValueError("cannot encode a net without places")
    # The net's arcs are checked, so the clauses are built as they are stored
    # (see the module docstring). A clause is the place's negated variable
    # followed by its producer's input variables in ascending order; one
    # that holds the place is a tautology, and as the form is canonical,
    # equal tuples are exactly duplicates. Each place's consumers, each
    # transition's inputs and its input variables come out ascending from a
    # pass over the arcs in that order, not from a sort.
    inputs = net._pre_places
    consumers: list[list[int]] = [[] for _ in range(n)]
    for t, ins in enumerate(inputs):
        for q in ins:
            consumers[q].append(t)
    producers = [sorted(s) for s in net._pre_transitions]
    if structural:
        sorted_inputs: list[list[int]] = [[] for _ in inputs]
        for p, ts in enumerate(consumers):
            for t in ts:
                sorted_inputs[t].append(p)
        varmap = VarMap(net.places, _walk(sorted_inputs, consumers, producers))
    else:
        varmap = VarMap(net.places)
    input_vars: list = [[] for _ in inputs]
    for k, p in enumerate(varmap.order, start=1):
        for t in consumers[p]:
            input_vars[t].append(k)
    input_vars = list(map(tuple, input_vars))
    clauses: list[Clause] = list(dict.fromkeys([
        (-k,) + input_vars[t]
        for k, p in enumerate(varmap.order, start=1) for t in producers[p] if p not in inputs[t]]))
    clauses.append(tuple(range(1, n + 1)))
    formula = CnfFormula(n)
    formula.clauses = clauses
    formula.producers = [producers[p] for p in varmap.order]
    formula.inputs = input_vars
    return formula, varmap


def blocking_clause(s: PlaceSet, varmap: VarMap) -> Clause:
    """Clause excluding s and every superset of s: the negated variables of
    its places, in ascending variable order.

    The engines read each set's clause off the trail instead
    (`Propagator._block_model`). This one stays public as the reference
    the tests compare `_block_model` against, and as a name that
    `perfbench/tracing.py` wraps in `siphons.sat` and
    `siphons.branch_bound`."""
    if not s:
        raise ValueError("cannot block the empty set")
    return tuple([-v for v in sorted(map(varmap.var, s))])


def evaluate(formula: CnfFormula, model: Assignment) -> bool:
    """True iff the full assignment satisfies every clause."""
    if len(model) != formula.num_vars:
        raise ValueError("model length does not match variable count")
    return all(
        any(model[abs(lit) - 1] == (lit > 0) for lit in clause)
        for clause in formula.clauses
    )


def export_dimacs(formula: CnfFormula, varmap: VarMap | None = None) -> str:
    """DIMACS text; with a VarMap, variable/place bindings go in comments."""
    lines = []
    if varmap is not None:
        if varmap.num_vars != formula.num_vars:
            raise ValueError("variable map does not match the formula")
        for k, name in enumerate(varmap.names, start=1):
            lines.append(f"c var {k} = {name}")
    lines.append(f"p cnf {formula.num_vars} {len(formula.clauses)}")
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF; comments are ignored, clauses may span lines. Every
    malformed input raises a `ParseError`, with its line where it has one."""
    num_vars = None
    expected = None
    literals: list[int] = []
    clauses: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break  # SATLIB trailer: "%" then a stray "0" line
        if line.startswith("p"):
            parts = line.split()
            if num_vars is not None or len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("bad problem line", lineno)  # a second one too
            try:
                num_vars, expected = int(parts[2]), int(parts[3])
                if num_vars < 1 or expected < 0:
                    raise ValueError
            except ValueError:
                raise ParseError("bad problem line", lineno) from None
            continue
        if num_vars is None:
            raise ParseError("clause before problem line", lineno)
        for token in line.split():
            try:
                lit = int(token)
                if abs(lit) > num_vars:
                    raise ValueError
            except ValueError:
                raise ParseError(f"bad literal {token!r}", lineno) from None
            if lit == 0:
                if not literals:
                    raise ParseError("empty clause", lineno)
                clauses.append(literals)
                literals = []
            else:
                literals.append(lit)
    if num_vars is None:
        raise ParseError("missing problem line")
    if literals:
        clauses.append(literals)
    if expected is not None and len(clauses) != expected:
        raise ParseError(f"expected {expected} clauses, found {len(clauses)}")
    formula = CnfFormula(num_vars)
    for clause in clauses:
        formula.add_clause(clause)
    return formula
