"""Token-game simulation: seeded random walks and the structural checks
they validate (traps stay marked, siphons stay empty)."""

import random

from .net import Marking, PetriNet, PlaceSet


def _walk(net: PetriNet, marking: Marking, steps: int,
          seed: int) -> list[tuple[int | None, Marking]]:
    """(fired transition, marking) pairs of a seeded uniform random walk,
    starting with (None, initial marking); stops early at deadlock."""
    if type(steps) is not int:
        raise ValueError(f"step count must be an int, not {steps!r}")
    if steps < 0:
        raise ValueError("step count must be >= 0")
    net._check_marking(marking)
    rng = random.Random(seed)
    current = tuple(marking)
    walk = [(None, current)]
    for _ in range(steps):
        enabled = sorted(net.enabled_transitions(current))
        if not enabled:
            break
        t = rng.choice(enabled)
        current = net.fire(current, t)
        walk.append((t, current))
    return walk


def random_walk(net: PetriNet, marking: Marking, steps: int, seed: int = 0) -> list[Marking]:
    """Markings visited by a uniform random walk, initial one included.

    The walk ends early at a deadlock; its length reveals this.
    """
    return [m for _, m in _walk(net, marking, steps, seed)]


def walk_trace(net: PetriNet, marking: Marking, steps: int, seed: int = 0) -> str:
    """Text trace of the same walk: step, fired transition, marking."""
    def line(k, t, m):
        inside = " ".join(f"{name}:{count}" for name, count in net.marking_dict(m).items())
        return f"{k} {'-' if t is None else net.transitions[t]} {inside or '(empty)'}\n"

    return "".join(line(k, t, m) for k, (t, m) in enumerate(_walk(net, marking, steps, seed)))


def _stays(net: PetriNet, s: PlaceSet, walk: list[Marking], holds) -> bool:
    """True iff once `holds(tokens in s)` is true it is true at every later marking."""
    held = False
    for m in walk:
        net._check_marking(m)
        now = holds(sum(m[p] for p in s))
        if held and not now:
            return False
        held = held or now
    return True


def check_trap_persistence(net: PetriNet, trap: PlaceSet, walk: list[Marking]) -> bool:
    """True iff once the trap holds a token it holds one in every later marking."""
    if not net.is_trap(trap):
        raise ValueError("the given place set is not a trap")
    return _stays(net, trap, walk, lambda tokens: tokens > 0)


def check_siphon_emptiness(net: PetriNet, siphon: PlaceSet, walk: list[Marking]) -> bool:
    """True iff once the siphon is empty it stays empty in every later marking."""
    if not net.is_siphon(siphon):
        raise ValueError("the given place set is not a siphon")
    return _stays(net, siphon, walk, lambda tokens: tokens == 0)


def unmarked_places(net: PetriNet, marking: Marking) -> PlaceSet:
    """Places with zero tokens; at a deadlock these always form a siphon."""
    net._check_marking(marking)
    return frozenset(p for p, k in enumerate(marking) if k == 0)
