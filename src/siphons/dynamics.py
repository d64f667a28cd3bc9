"""Token-game simulation: seeded random walks and the structural checks
they validate (traps stay marked, siphons stay empty)."""

import random

from .net import Marking, PetriNet, PlaceSet


def _walk_steps(net: PetriNet, marking: Marking, steps: int, seed: int):
    """Yield (transition, successor marking) pairs; stops early at deadlock."""
    if steps < 0:
        raise ValueError("step count must be >= 0")
    net._check_marking(marking)
    rng = random.Random(seed)
    current = tuple(marking)
    for _ in range(steps):
        enabled = sorted(net.enabled_transitions(current))
        if not enabled:
            return
        t = rng.choice(enabled)
        current = net.fire(current, t)
        yield t, current


def random_walk(net: PetriNet, marking: Marking, steps: int, seed: int = 0) -> list[Marking]:
    """Markings visited by a uniform random walk, initial one included.

    The walk ends early at a deadlock; its length reveals this.
    """
    walk = [tuple(marking)]
    for _, m in _walk_steps(net, marking, steps, seed):
        walk.append(m)
    return walk


def walk_trace(net: PetriNet, marking: Marking, steps: int, seed: int = 0) -> str:
    """Text trace of the same walk: step, fired transition, marking."""
    def fmt(m):
        inside = " ".join(f"{name}:{k}" for name, k in net.marking_dict(m).items())
        return inside or "(empty)"

    lines = [f"0 - {fmt(tuple(marking))}"]
    for k, (t, m) in enumerate(_walk_steps(net, marking, steps, seed), start=1):
        lines.append(f"{k} {net.transitions[t]} {fmt(m)}")
    return "\n".join(lines) + "\n"


def check_trap_persistence(net: PetriNet, trap: PlaceSet, walk: list[Marking]) -> bool:
    """True iff once the trap holds a token it holds one in every later marking."""
    if not net.is_trap(trap):
        raise ValueError("the given place set is not a trap")
    marked = False
    for m in walk:
        net._check_marking(m)
        tokens = sum(m[p] for p in trap)
        if marked and tokens == 0:
            return False
        marked = marked or tokens > 0
    return True


def check_siphon_emptiness(net: PetriNet, siphon: PlaceSet, walk: list[Marking]) -> bool:
    """True iff once the siphon is empty it stays empty in every later marking."""
    if not net.is_siphon(siphon):
        raise ValueError("the given place set is not a siphon")
    empty = False
    for m in walk:
        net._check_marking(m)
        tokens = sum(m[p] for p in siphon)
        if empty and tokens > 0:
            return False
        empty = empty or tokens == 0
    return True


def unmarked_places(net: PetriNet, marking: Marking) -> PlaceSet:
    """Places with zero tokens; at a deadlock these always form a siphon."""
    net._check_marking(marking)
    return frozenset(p for p, k in enumerate(marking) if k == 0)
