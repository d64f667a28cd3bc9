"""Net families used for benchmarking.

- chain: n coupled pairs with wrap-around; 2^n minimal siphons and traps.
- 3-SAT reduction: a net whose minimal siphons through the seed place q0
  correspond to satisfying partial assignments of the formula, so siphon
  enumeration inherits the random 3-SAT phase transition (alpha ~ 4.26).

Every count a generator takes is a plain int, as `ThreeSatInstance` takes
them: a bool or a float is refused with a ValueError naming the parameter.
"""

import random
from dataclasses import dataclass

from .encoding import CnfFormula, check_clause, export_dimacs
from .net import PetriNet


def gen_chain(n: int) -> PetriNet:
    """Pairs (Ai, Bi) with Ti: Ai + Bi => A(i+1) + B(i+1), cyclically."""
    if type(n) is not int or n < 1:
        raise ValueError("n must be an int >= 1")
    places = []
    for i in range(1, n + 1):
        places.append(f"A{i}")
        places.append(f"B{i}")
    specs = []
    for i in range(1, n + 1):
        nxt = i % n + 1
        specs.append((f"T{i}", [f"A{i}", f"B{i}"], [f"A{nxt}", f"B{nxt}"]))
    return PetriNet.from_transitions(specs, places=places)


@dataclass(frozen=True)
class ThreeSatInstance:
    """A 3-SAT formula: clauses of three signed variables, no repeats inside a
    clause. `num_vars` and every literal are plain ints, as `check_clause`
    takes them."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if type(self.num_vars) is not int or self.num_vars < 3:
            raise ValueError("need at least 3 variables")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError(f"clause {clause!r} does not have 3 literals")
            literals = check_clause(clause, self.num_vars)
            if literals is None or len(literals) != 3:
                raise ValueError(f"bad clause {clause!r}")

    @property
    def alpha(self) -> float:
        return len(self.clauses) / self.num_vars

    def to_formula(self) -> CnfFormula:
        formula = CnfFormula(self.num_vars)
        for clause in self.clauses:
            formula.add_clause(clause)
        return formula

    def to_dimacs(self) -> str:
        """DIMACS text of the clauses as drawn, repeats included."""
        return export_dimacs(self)


def gen_random_3sat(n: int, m: int, seed: int = 0) -> ThreeSatInstance:
    """m clauses over n variables: 3 distinct variables each, signs uniform.

    Duplicate clauses across draws are allowed, as in the usual random
    3-SAT model.
    """
    if type(n) is not int or n < 3:
        raise ValueError("n (the variable count) must be an int >= 3")
    if type(m) is not int or m < 0:
        raise ValueError("m (the clause count) must be an int >= 0")
    rng = random.Random(seed)
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return ThreeSatInstance(n, tuple(clauses))


def gen_3sat_reduction(instance: ThreeSatInstance) -> PetriNet:
    """Net whose minimal siphons containing q0 are the minimal satisfying
    partial assignments of the instance (4n+1 places, 2n+1+m transitions)."""
    n = instance.num_vars
    places = ["q0"]
    for i in range(1, n + 1):
        places.append(f"s{i}")
        places.append(f"s{i}b")
    for i in range(1, n + 1):
        places.append(f"r{i}")
        places.append(f"r{i}b")
    specs = [("t0", ["q0"], [f"r{i}{suffix}" for i in range(1, n + 1) for suffix in ("", "b")])]
    for i in range(1, n + 1):
        specs.append((f"y{i}", [f"r{i}", f"s{i}b"], [f"s{i}"]))
        specs.append((f"y{i}b", [f"r{i}b", f"s{i}"], [f"s{i}b"]))
    for k, clause in enumerate(instance.clauses, start=1):
        literal_places = [f"s{lit}" if lit > 0 else f"s{-lit}b" for lit in clause]
        specs.append((f"u{k}", literal_places, ["q0"]))
    return PetriNet.from_transitions(specs, places=places)


def gen_random_net(n_places: int, n_transitions: int, degree: int, seed: int = 0) -> PetriNet:
    """Random net: each transition consumes and produces 1..degree distinct places."""
    if type(n_places) is not int or n_places < 1:
        raise ValueError("n_places must be an int >= 1")
    if type(n_transitions) is not int or n_transitions < 0:
        raise ValueError("n_transitions must be an int >= 0")
    if type(degree) is not int or not 1 <= degree <= n_places:
        raise ValueError("degree must be an int between 1 and n_places")
    rng = random.Random(seed)
    places = [f"p{i}" for i in range(1, n_places + 1)]
    specs = []
    for j in range(1, n_transitions + 1):
        pre = rng.sample(places, rng.randint(1, degree))
        post = rng.sample(places, rng.randint(1, degree))
        specs.append((f"t{j}", pre, post))
    return PetriNet.from_transitions(specs, places=places)
