"""Independent output certificate for enumerated minimal siphons and traps.

Everything here is recomputed from the net's arc maps (`weight_pt`,
`weight_tp`); nothing calls the engines, the brute-force oracles or the
net's own siphon predicates. A set s is certified when it is a siphon and,
for every p in s, the greatest siphon inside s minus p is empty. Traps are
the siphons of the arc-reversed net, so the same code certifies them with
the arc maps swapped.
"""


class Arcs:
    """Adjacency of one orientation of a net, as plain index lists."""

    def __init__(self, num_places, num_transitions, consume, produce):
        self.producers = [[] for _ in range(num_places)]  # t with an arc t -> p
        self.consumers = [[] for _ in range(num_places)]  # t with an arc p -> t
        self.inputs = [[] for _ in range(num_transitions)]
        self.outputs = [[] for _ in range(num_transitions)]
        for (p, t), w in consume.items():
            if w > 0:
                self.consumers[p].append(t)
                self.inputs[t].append(p)
        for (t, p), w in produce.items():
            if w > 0:
                self.producers[p].append(t)
                self.outputs[t].append(p)

    @classmethod
    def siphons_of(cls, net):
        return cls(len(net.places), len(net.transitions), net.weight_pt, net.weight_tp)

    @classmethod
    def traps_of(cls, net):
        reversed_pt = {(p, t): w for (t, p), w in net.weight_tp.items()}
        reversed_tp = {(t, p): w for (p, t), w in net.weight_pt.items()}
        return cls(len(net.places), len(net.transitions), reversed_pt, reversed_tp)


def is_siphon(arcs, s):
    """Nonempty, and every transition producing into s consumes from s."""
    if not s:
        return False
    return all(any(q in s for q in arcs.inputs[t]) for p in s for t in arcs.producers[p])


def greatest_siphon_within(arcs, x):
    """The union of all siphons inside x, by a worklist greatest fixpoint.

    A place leaves when one of its producers has no input place left;
    each removal lowers a per-transition count of surviving inputs, so
    every arc inside x is looked at a constant number of times.
    """
    alive = set(x)
    left = {}
    for q in alive:
        for t in arcs.consumers[q]:
            left[t] = left.get(t, 0) + 1
    queue = [q for q in alive if any(left.get(t, 0) == 0 for t in arcs.producers[q])]
    while queue:
        q = queue.pop()
        if q not in alive:
            continue
        alive.discard(q)
        for t in arcs.consumers[q]:
            left[t] -= 1
            if left[t] == 0:
                queue.extend(r for r in arcs.outputs[t] if r in alive)
    return alive


def _drains_without(arcs, s, left_in_s, p, drained):
    """True when the greatest siphon inside s minus p is empty, s a siphon.

    `left_in_s` counts each transition's input places in s. The cascade
    may stop at a place q already in `drained`: what survives is a siphon
    inside s minus q, and that is known to be empty.
    """
    alive = set(s)
    left = dict(left_in_s)
    queue = [p]
    while queue:
        q = queue.pop()
        if q not in alive:
            continue
        if q in drained:
            return True
        alive.discard(q)
        for t in arcs.consumers[q]:
            left[t] -= 1
            if left[t] == 0:
                queue.extend(r for r in arcs.outputs[t] if r in alive)
    return not alive


def is_minimal_siphon(arcs, s):
    """s is a siphon and no place can leave it with a nonempty siphon remaining."""
    if not is_siphon(arcs, s):
        return False
    left_in_s = {}
    for q in s:
        for t in arcs.consumers[q]:
            left_in_s[t] = left_in_s.get(t, 0) + 1
    drained = set()
    for p in s:
        if not _drains_without(arcs, s, left_in_s, p, drained):
            return False
        drained.add(p)
    return True


def certify(arcs, sets):
    """Problems with an enumeration result, as short messages; empty when sound."""
    problems = []
    if len(set(sets)) != len(sets):
        problems.append("a set is reported twice")
    for s in sets:
        if not is_siphon(arcs, s):
            problems.append(f"{sorted(s)} fails the siphon predicate")
        elif not is_minimal_siphon(arcs, s):
            problems.append(f"{sorted(s)} is not inclusion-minimal")
    return problems
