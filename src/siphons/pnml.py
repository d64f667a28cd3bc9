"""PNML import/export for place/transition nets.

Supported subset: place ids, transition ids, arcs with integer inscriptions
(default 1), initial markings. Names, pages and graphics are ignored on
input; ids are kept as the canonical place/transition names. Arcs between
two places or two transitions are rejected.
"""

import xml.etree.ElementTree as ET

from .net import Marking, PetriNet
from .reactions import ParseError

PNML_NS = "http://www.pnml.org/version-2009/grammar/pnml"
NET_TYPE = "http://www.pnml.org/version-2009/grammar/ptnet"


class _LocalNames(dict):
    """Tag -> its local name, without the namespace, filled in as tags are
    met; one parse keeps one, as a document repeats a few tags."""

    def __missing__(self, tag: str) -> str:
        name = self[tag] = tag.rpartition("}")[2]
        return name


def _int_text(elem, what: str, default: int, local: _LocalNames) -> int:
    for child in elem:
        if local[child.tag] == "text":
            raw = (child.text or "").strip()
            try:
                value = int(raw)
            except ValueError:
                raise ParseError(f"{what} is not an integer: {raw!r}") from None
            if value < 0:
                raise ParseError(f"{what} is negative: {value}")
            return value
    return default


def parse_pnml(text: str | bytes) -> tuple[PetriNet, Marking]:
    """Parse a PNML document into a net plus its initial marking."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ParseError(f"bad XML: {exc}") from None

    place_ids: list[str] = []
    transition_ids: list[str] = []
    marks: dict[str, int] = {}
    arcs: list[tuple[str, str, int]] = []
    local = _LocalNames()
    for elem in root.iter():
        kind = local[elem.tag]
        if kind in ("place", "transition"):
            ident = elem.get("id")
            if ident is None:
                raise ParseError(f"{kind} without id")
            if kind == "place":
                place_ids.append(ident)
                for child in elem:
                    if local[child.tag] == "initialMarking":
                        marks[ident] = _int_text(child, f"initial marking of {ident!r}", 0,
                                                 local)
            else:
                transition_ids.append(ident)
        elif kind == "arc":
            source, target = elem.get("source"), elem.get("target")
            if source is None or target is None:
                raise ParseError("arc without source/target")
            weight = 1
            for child in elem:
                if local[child.tag] == "inscription":
                    weight = _int_text(child, f"inscription of arc {source}->{target}", 1,
                                       local)
            arcs.append((source, target, weight))

    if len(set(place_ids)) != len(place_ids) or len(set(transition_ids)) != len(transition_ids):
        raise ParseError("duplicate node id")
    pindex = {name: i for i, name in enumerate(place_ids)}
    tindex = {name: j for j, name in enumerate(transition_ids)}
    if set(pindex) & set(tindex):
        raise ParseError("id used for both a place and a transition")

    weight_pt: dict[tuple[int, int], int] = {}
    weight_tp: dict[tuple[int, int], int] = {}
    for source, target, weight in arcs:
        if source in pindex and target in tindex:
            key, table = (pindex[source], tindex[target]), weight_pt
        elif source in tindex and target in pindex:
            key, table = (tindex[source], pindex[target]), weight_tp
        elif source in pindex and target in pindex:
            raise ParseError(f"arc between two places: {source} -> {target}")
        elif source in tindex and target in tindex:
            raise ParseError(f"arc between two transitions: {source} -> {target}")
        else:
            raise ParseError(f"arc references unknown node: {source} -> {target}")
        table[key] = table.get(key, 0) + weight

    net = PetriNet(place_ids, transition_ids, weight_pt, weight_tp)
    return net, net.marking(marks)


def _text_child(parent, tag: str, value) -> None:
    """Append `<tag><text>value</text></tag>` to parent."""
    ET.SubElement(ET.SubElement(parent, tag), "text").text = str(value)


def export_pnml(net: PetriNet, marking: Marking | None = None) -> str:
    """Serialize to PNML, deterministically: places, transitions, then arcs.

    Arcs are ordered by (transition, input-before-output, place). Markings
    of 0 and inscriptions of 1 are omitted.
    """
    if marking is not None:
        net._check_marking(marking)
    root = ET.Element("pnml", xmlns=PNML_NS)
    netel = ET.SubElement(root, "net", id="net1", type=NET_TYPE)
    page = ET.SubElement(netel, "page", id="page1")
    for i, name in enumerate(net.places):
        place = ET.SubElement(page, "place", id=name)
        _text_child(place, "name", name)
        if marking is not None and marking[i] > 0:
            _text_child(place, "initialMarking", marking[i])
    for name in net.transitions:
        _text_child(ET.SubElement(page, "transition", id=name), "name", name)
    arcs = []  # (source, target, weight), in output order
    for j, tname in enumerate(net.transitions):
        arcs += [(net.places[p], tname, net.weight_pt[(p, j)]) for p in sorted(net.pre_places(j))]
        arcs += [(tname, net.places[p], net.weight_tp[(j, p)]) for p in sorted(net.post_places(j))]
    for k, (source, target, weight) in enumerate(arcs, start=1):
        arc = ET.SubElement(page, "arc", id=f"a{k}", source=source, target=target)
        if weight != 1:
            _text_child(arc, "inscription", weight)
    ET.indent(root)
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + ET.tostring(root, encoding="unicode") + "\n"
