"""CNF encoding of the siphon constraint, plus DIMACS import/export.

Place k-1 maps to Boolean variable k. A true variable selects the place.
For each place p and each transition t producing p, selecting p requires
selecting some place consumed by t; one final clause over all variables
rules out the empty set. Tautological clauses (from self-loops) are
dropped and duplicate clauses are kept once.

Each index is checked once, where it enters: `PetriNet.__init__` checks
every arc, and `check_clause` every literal from outside (DIMACS text, a
caller's clause or SAT assumptions) for `CnfFormula.add_clause`,
`Propagator.add_clause` and `SatSolver.solve`. `encode_siphon` reads the
net's checked adjacency directly and builds its clauses without checking
them again, and the engines attach a formula's clauses as they are.
"""

from collections.abc import Iterable, Sequence

from .net import PetriNet, PlaceSet
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
    """Clause store over variables 1..num_vars, duplicate- and tautology-free."""

    def __init__(self, num_vars: int):
        if type(num_vars) is not int or num_vars < 1:
            raise ValueError("num_vars must be an int >= 1")
        self.num_vars = num_vars
        self.clauses: list[Clause] = []
        # The clauses as literal sets, built on the first `add_clause`, so a
        # formula that `encode_siphon` fills directly pays for no index.
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
    An index must be a plain int: `type(...) is int` rejects a bool too."""

    def __init__(self, place_names: Sequence[str]):
        self.names = tuple(place_names)

    @property
    def num_vars(self) -> int:
        return len(self.names)

    def var(self, place: int) -> int:
        if type(place) is not int or not 0 <= place < len(self.names):
            raise ValueError(f"invalid place index {place!r}")
        return place + 1

    def place(self, var: int) -> int:
        if type(var) is not int or not 1 <= var <= len(self.names):
            raise ValueError(f"invalid variable {var!r}")
        return var - 1

    def true_places(self, model: Assignment) -> PlaceSet:
        """Place set selected by a model (indexed by variable-1)."""
        if len(model) != len(self.names):
            raise ValueError("model length does not match variable count")
        return frozenset(i for i, value in enumerate(model) if value)


def encode_siphon(net: PetriNet) -> tuple[CnfFormula, VarMap]:
    """CNF whose models are exactly the nonempty siphons of the net."""
    n = len(net.places)
    if n == 0:
        raise ValueError("cannot encode a net without places")
    # The net's arcs are checked, so the clauses are built as they are stored
    # (see the module docstring). A clause is -p followed by its producer's
    # input variables in ascending order; one that holds p is a tautology,
    # and as the form is canonical, equal tuples are exactly duplicates.
    inputs = net._pre_places
    sorted_inputs = [tuple([q + 1 for q in sorted(s)]) for s in inputs]
    clauses: list[Clause] = []
    seen: set[Clause] = set()
    for p, producers in enumerate(net._pre_transitions):
        head = (-(p + 1),)
        for t in sorted(producers):
            if p not in inputs[t]:
                clause = head + sorted_inputs[t]
                if clause not in seen:
                    seen.add(clause)
                    clauses.append(clause)
    clauses.append(tuple(range(1, n + 1)))
    formula = CnfFormula(n)
    formula.clauses = clauses
    return formula, VarMap(net.places)


def blocking_clause(s: PlaceSet, varmap: VarMap) -> Clause:
    """Clause excluding s and every superset of s."""
    if not s:
        raise ValueError("cannot block the empty set")
    return tuple(-varmap.var(p) for p in sorted(s))


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
