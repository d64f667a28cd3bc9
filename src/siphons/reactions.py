"""Reaction-notation parsing and export.

One statement per line, `#` starts a comment:

    reaction ::= [name ':'] side (('=>' | '<=>') side)+
    side     ::= term ('+' term)*
    term     ::= [nat '*'] ident
    init     ::= 'init' ident nat

Species become places in first-appearance order. Each `=>` arrow yields one
transition, each `<=>` two (forward then backward, suffixed `_f`/`_b`).
Unnamed arrows are numbered `r1`, `r2`, ... in file order; a name on a line
with several arrows prefixes each as `<name>_<k>`.
"""

import re

from .net import Marking, PetriNet

IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(IDENT)
_TERM_RE = re.compile(rf"^(?:(\d+)\s*\*\s*)?({IDENT})$")
_NAME_RE = re.compile(rf"^\s*({IDENT})\s*:(.*)$")
_ARROW_RE = re.compile(r"(<=>|=>)")
_INIT_RE = re.compile(rf"^init\s+({IDENT})\s+(\d+)\s*$")


class ParseError(ValueError):
    """Input text (reaction notation, PNML, DIMACS) that does not parse."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


def _parse_side(text: str, lineno: int, offset: int) -> dict[str, int]:
    """One reaction side as a species->multiplicity multiset."""
    counts: dict[str, int] = {}
    pos = 0
    for raw in text.split("+"):
        term = raw.strip()
        col = offset + pos + raw.index(term) + 1 if term else offset + pos + 1
        pos += len(raw) + 1
        if not term:
            raise ParseError("empty term", lineno, col)
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError(f"bad term {term!r}", lineno, col)
        mult = int(m.group(1)) if m.group(1) else 1
        if mult < 1:
            raise ParseError(f"multiplicity must be >= 1 in {term!r}", lineno, col)
        name = m.group(2)
        counts[name] = counts.get(name, 0) + mult
    return counts


def parse_reactions(text: str) -> tuple[PetriNet, Marking]:
    """Parse reaction notation into a net plus its initial marking."""
    species: dict[str, None] = {}  # insertion-ordered: the places in first-appearance order
    specs: list[tuple[str, dict[str, int], dict[str, int]]] = []
    inits: dict[str, int] = {}
    arrow_no = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        init = _INIT_RE.match(line.strip())
        if init:
            name, count = init.group(1), int(init.group(2))
            if name in inits:
                raise ParseError(f"duplicate init for {name!r}", lineno)
            inits[name] = count
            species[name] = None
            continue
        if re.match(r"^init\s", line.strip()) and "=>" not in line:
            raise ParseError("bad init statement", lineno)

        body = line
        label = None
        named = _NAME_RE.match(line)
        if named:
            label, body = named.group(1), named.group(2)
        parts = _ARROW_RE.split(body)
        if len(parts) < 3:
            raise ParseError("expected '=>' or '<=>'", lineno)
        sides, ops = parts[0::2], parts[1::2]
        col = len(line) - len(body)  # where each side starts, counted as it goes
        side_counts = []
        for chunk, op in zip(sides, ops + [""]):
            side_counts.append(_parse_side(chunk, lineno, col))
            col += len(chunk) + len(op)
        for counts in side_counts:
            species.update(dict.fromkeys(counts))
        for k, op in enumerate(ops):
            arrow_no += 1
            if label is None:
                base = f"r{arrow_no}"
            elif len(ops) == 1:
                base = label
            else:
                base = f"{label}_{k + 1}"
            left, right = side_counts[k], side_counts[k + 1]
            if op == "=>":
                specs.append((base, left, right))
            else:
                specs.append((f"{base}_f", left, right))
                specs.append((f"{base}_b", right, left))

    names = [s[0] for s in specs]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise ParseError(f"duplicate reaction name {dup!r} after numbering")
    net = PetriNet.from_transitions(specs, places=list(species))
    return net, net.marking(inits)


def export_reactions(net: PetriNet, marking: Marking | None = None) -> str:
    """Render a net back to reaction notation, one transition per line.

    Positive token counts become `init` lines; places used by no transition
    get an explicit `init <place> 0` line so they survive a round trip.
    """
    for name in net.places + net.transitions:
        if not _IDENT_RE.fullmatch(name):
            raise ValueError(f"name {name!r} cannot be written in reaction notation")
    if marking is not None:
        net._check_marking(marking)

    def side(weights):
        terms = []
        for p in sorted(weights):
            w = weights[p]
            terms.append(f"{w}*{net.places[p]}" if w > 1 else net.places[p])
        return " + ".join(terms)

    lines = []
    used = set()
    for j, tname in enumerate(net.transitions):
        pre = {p: net.weight_pt[(p, j)] for p in net.pre_places(j)}
        post = {p: net.weight_tp[(j, p)] for p in net.post_places(j)}
        used.update(pre)
        used.update(post)
        if not pre or not post:
            raise ValueError(
                f"transition {tname!r} has an empty side; not expressible in reaction notation")
        lines.append(f"{tname}: {side(pre)} => {side(post)}")
    for i, pname in enumerate(net.places):
        count = marking[i] if marking is not None else 0
        if count > 0 or i not in used:
            lines.append(f"init {pname} {count}")
    return "\n".join(lines) + "\n"
