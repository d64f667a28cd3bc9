import pytest
from hypothesis import given, strategies as st

from siphons import ParseError, export_pnml, isomorphic, parse_pnml, parse_reactions

from conftest import random_net_corpus

SMALL = """<?xml version="1.0"?>
<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">
  <net id="n1" type="http://www.pnml.org/version-2009/grammar/ptnet">
    <page id="g1">
      <place id="A">
        <initialMarking><text>2</text></initialMarking>
      </place>
      <place id="B"/>
      <transition id="t"/>
      <arc id="a1" source="A" target="t">
        <inscription><text>2</text></inscription>
      </arc>
      <arc id="a2" source="t" target="B"/>
    </page>
  </net>
</pnml>
"""


def test_parse_small():
    net, marking = parse_pnml(SMALL)
    assert net.places == ("A", "B")
    assert net.transitions == ("t",)
    assert net.weight_pt[(0, 0)] == 2
    assert net.weight_tp[(0, 1)] == 1
    assert net.marking_dict(marking) == {"A": 2}


def test_parse_without_namespace():
    text = SMALL.replace(' xmlns="http://www.pnml.org/version-2009/grammar/pnml"', "")
    net, _ = parse_pnml(text)
    assert net.places == ("A", "B")


def test_parse_name_labels_ignored_for_identity():
    text = SMALL.replace('<place id="B"/>',
                         '<place id="B"><name><text>fancy</text></name></place>')
    net, _ = parse_pnml(text)
    assert "B" in net.places


def test_duplicate_arcs_summed():
    text = SMALL.replace('<arc id="a2" source="t" target="B"/>',
                         '<arc id="a2" source="t" target="B"/>'
                         '<arc id="a3" source="t" target="B"/>')
    net, _ = parse_pnml(text)
    assert net.weight_tp[(0, 1)] == 2


def test_parse_errors():
    cases = [
        ("not xml at all", "morning"),
        ("duplicate id", SMALL.replace('<place id="B"/>', '<place id="A"/>')),
        ("place-place arc", SMALL.replace('source="t" target="B"', 'source="A" target="B"')),
        ("unknown endpoint", SMALL.replace('target="B"', 'target="Z"')),
        ("negative weight", SMALL.replace("<text>2</text>", "<text>-2</text>")),
        ("bad weight text", SMALL.replace("<text>2</text>", "<text>two</text>")),
    ]
    for label, text in cases:
        with pytest.raises(ParseError):
            parse_pnml(text)


@pytest.mark.parametrize("old, new, message", [
    ('<place id="B"/>', '<place/>', "place without id"),
    ('<arc id="a2" source="t" target="B"/>', '<arc id="a2" target="B"/>',
     "arc without source/target"),
    ('<transition id="t"/>', '<transition id="t"/><transition id="B"/>',
     "id used for both a place and a transition"),
    ('<transition id="t"/>',
     '<transition id="t"/><transition id="a"/><transition id="b"/>'
     '<arc id="a3" source="a" target="b"/>',
     "arc between two transitions: a -> b"),
], ids=["place-without-id", "arc-without-source", "shared-id", "transition-arc"])
def test_parse_error_messages(old, new, message):
    assert old in SMALL
    with pytest.raises(ParseError) as err:
        parse_pnml(SMALL.replace(old, new))
    assert str(err.value) == message


def test_initial_marking_without_text_is_zero():
    net, marking = parse_pnml(SMALL.replace("<initialMarking><text>2</text></initialMarking>",
                                            "<initialMarking/>"))
    assert net.places == ("A", "B") and marking == (0, 0)


def test_export_golden_shape():
    net, marking = parse_pnml(SMALL)
    xml = export_pnml(net, marking)
    assert xml.startswith("<?xml")
    assert "ptnet" in xml
    assert "<initialMarking>" in xml and "<inscription>" in xml
    # weight-1 arcs carry no inscription, zero markings are omitted
    assert xml.count("<inscription>") == 1
    assert xml.count("<initialMarking>") == 1


def test_roundtrip_preserves_order():
    net, marking = parse_pnml(SMALL)
    net2, marking2 = parse_pnml(export_pnml(net, marking))
    assert net2 == net
    assert marking2 == marking


def test_roundtrip_corpus(models_dir):
    for path in sorted(models_dir.iterdir()):
        raw = path.read_text()
        net, marking = (parse_reactions if path.suffix == ".rxn" else parse_pnml)(raw)
        net2, marking2 = parse_pnml(export_pnml(net, marking))
        assert isomorphic(net, net2), path.name
        assert net2.marking_dict(marking2) == net.marking_dict(marking)


@given(st.integers(0, 400))
def test_roundtrip_random_nets(seed):
    net = random_net_corpus(1, base_seed=seed, max_places=8)[0]
    net2, _ = parse_pnml(export_pnml(net))
    assert isomorphic(net, net2)
