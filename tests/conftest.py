import pathlib
import random

import pytest

from siphons import (PetriNet, branching_order, gen_3sat_reduction, gen_chain, gen_random_3sat,
                     gen_random_net)

MODELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "models"


def enzyme_net() -> PetriNet:
    # Substrate/enzyme binding net, places ordered E, A, AE, B so the CNF
    # variable numbering matches the frozen clause goldens.
    return PetriNet.from_transitions(
        [
            ("t1", ["A", "E"], ["AE"]),
            ("t_1", ["AE"], ["A", "E"]),
            ("t2", ["AE"], ["B", "E"]),
        ],
        places=["E", "A", "AE", "B"],
    )


def example2_net() -> PetriNet:
    return PetriNet.from_transitions(
        [
            ("r1", ["A"], ["B"]),
            ("r2", ["B"], ["A"]),
            ("r3", ["B"], ["C"]),
            ("r4", ["C"], ["D"]),
            ("r5", ["D"], ["C"]),
        ]
    )


def potato_net() -> PetriNet:
    return PetriNet.from_transitions(
        [
            ("t1", ["P1"], ["P1", "S1"]),
            ("t2", ["S1", "P2"], ["P2"]),
            ("t3", ["S1"], ["S2"]),
            ("t4", ["S2"], ["S3"]),
            ("t5", ["S3"], ["S4"]),
            ("t6", ["S4"], ["S1"]),
        ]
    )


def random_net_corpus(count: int, base_seed: int = 0, max_places: int = 12,
                      max_degree: int = 4) -> list[PetriNet]:
    """Deterministic corpus of small random nets for cross-checking."""
    nets = []
    for k in range(count):
        rng = random.Random(base_seed + k)
        n_places = rng.randint(2, max_places)
        n_transitions = rng.randint(1, max_places)
        degree = min(rng.randint(1, max_degree), n_places)
        nets.append(gen_random_net(n_places, n_transitions, degree,
                                   seed=base_seed + k))
    return nets


def trail_model(solver) -> tuple[bool, ...]:
    """The full model on a store's trail, by variable, as `evaluate` takes
    it; after SAT the solver's answer stands there."""
    return tuple(solver.value(v) for v in range(1, solver.num_vars + 1))


def unit_closure(clauses, literals):
    """Naive unit propagation: the closed set of true literals, or None on conflict."""
    true = set(literals)
    if any(-lit in true for lit in true):
        return None
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            if any(lit in true for lit in clause):
                continue
            open_lits = [lit for lit in clause if -lit not in true]
            if not open_lits:
                return None
            if len(open_lits) == 1:
                true.add(open_lits[0])
                changed = True
    return true


def least_model_corpus():
    """Siphon and trap instances of a chain, 3-SAT reductions at n=20 and
    random nets of 10-30 places, drawn from a fixed seed."""
    rng = random.Random(11)
    nets = [gen_chain(8)]
    nets += [gen_3sat_reduction(gen_random_3sat(20, round(alpha * 20), rng.randrange(2 ** 31)))
             for alpha in (0.0, 3.0, 4.26, 6.0) for _ in range(2)]
    for _ in range(30):
        places = rng.randint(10, 30)
        nets.append(gen_random_net(places, rng.randint(places // 3, places), rng.randint(2, 4),
                                   seed=rng.randrange(2 ** 31)))
    return [n for net in nets for n in (net, net.dual())]


def least_model_order(net, sets):
    """Sets in the order of the 0-first search: by membership vector in the
    engines' branching order, absent before present."""
    order = branching_order(net)
    return sorted(sets, key=lambda s: [p in s for p in order])


def singleton_heavy_nets() -> list[PetriNet]:
    """Random nets whose minimal siphons and traps nearly all have one place:
    a place whose producers all consume it. At 2,000 places every minimal
    siphon has one place; at 500, a few traps have more."""
    return [gen_random_net(2000, 666, 3, seed=1), gen_random_net(500, 166, 3, seed=1)]


def enzyme_cascade(k: int) -> PetriNet:
    """A k-stage enzyme cascade: S_i + E_i <-> C_i -> E_i + S_{i+1}, fed
    into S1 and drained from S_{k+1}. Its 3k+1 places come in first-use
    order, and its minimal siphons and traps are the k sets {E_i, C_i}."""
    specs = [("in", [], ["S1"])]
    for i in range(1, k + 1):
        s, e, c = f"S{i}", f"E{i}", f"C{i}"
        specs += [(f"b{i}", [s, e], [c]), (f"u{i}", [c], [s, e]),
                  (f"c{i}", [c], [e, f"S{i + 1}"])]
    specs.append(("out", [f"S{k + 1}"], []))
    return PetriNet.from_transitions(specs)


def irregular_net(rng: random.Random, max_places: int = 12) -> PetriNet:
    """A random net of 1..max_places places with the shapes the encoding
    treats specially: self-loops, zero-weight arcs (no arc), transitions
    without inputs, and transitions that repeat an earlier one's arcs."""
    n_places = rng.randint(1, max_places)
    n_transitions = rng.randint(0, max_places)
    weight_pt: dict[tuple[int, int], int] = {}
    weight_tp: dict[tuple[int, int], int] = {}
    for t in range(n_transitions):
        if t and rng.random() < 0.2:
            u = rng.randrange(t)
            weight_pt.update({(p, t): w for (p, v), w in weight_pt.items() if v == u})
            weight_tp.update({(t, p): w for (v, p), w in weight_tp.items() if v == u})
            continue
        for p in rng.sample(range(n_places), rng.randint(0, min(3, n_places))):
            weight_pt[(p, t)] = rng.choice((0, 1, 1, 2))
        for p in rng.sample(range(n_places), rng.randint(0, min(3, n_places))):
            weight_tp[(t, p)] = rng.choice((0, 1, 1, 2))
        if rng.random() < 0.2:
            p = rng.randrange(n_places)
            weight_pt[(p, t)] = weight_tp[(t, p)] = 1
    return PetriNet([f"p{i}" for i in range(n_places)],
                    [f"t{j}" for j in range(n_transitions)], weight_pt, weight_tp)


@pytest.fixture
def enzyme() -> PetriNet:
    return enzyme_net()


@pytest.fixture
def example2() -> PetriNet:
    return example2_net()


@pytest.fixture
def potato() -> PetriNet:
    return potato_net()


@pytest.fixture(scope="session")
def models_dir() -> pathlib.Path:
    return MODELS_DIR
