import pytest
from hypothesis import given, strategies as st

from siphons import ParseError, export_reactions, isomorphic, parse_reactions

from conftest import random_net_corpus


def trans_names(net, ts):
    return {net.transitions[t] for t in ts}


def test_enzyme_line():
    net, marking = parse_reactions("A + E <=> AE => B + E\n")
    assert set(net.places) == {"A", "E", "AE", "B"}
    assert len(net.transitions) == 3
    ae = net.place_index("AE")
    # one producer for the complex, two consumers
    assert len(net.pre_transitions(ae)) == 1
    assert len(net.post_transitions(ae)) == 2
    assert marking == (0, 0, 0, 0)


def test_reversible_expands_to_two_transitions():
    net, _ = parse_reactions("r: A <=> B\n")
    assert net.transitions == ("r_f", "r_b")
    a, b = net.place_index("A"), net.place_index("B")
    f, bk = net.transition_index("r_f"), net.transition_index("r_b")
    assert net.weight_pt[(a, f)] == 1 and net.weight_tp[(f, b)] == 1
    assert net.weight_pt[(b, bk)] == 1 and net.weight_tp[(bk, a)] == 1


def test_stoichiometric_weights():
    net, _ = parse_reactions("2*A => B\n")
    t = net.transition_index(net.transitions[0])
    assert net.weight_pt[(net.place_index("A"), t)] == 2
    assert net.weight_tp[(t, net.place_index("B"))] == 1


def test_named_and_auto_names():
    net, _ = parse_reactions("first: A => B\nB => C\n")
    assert net.transitions == ("first", "r2")


def test_chained_arrows_get_suffixes():
    net, _ = parse_reactions("path: A => B => C\n")
    assert net.transitions == ("path_1", "path_2")


def test_init_lines():
    net, marking = parse_reactions("A => B\ninit A 3\ninit C 1\n")
    assert net.marking_dict(marking) == {"A": 3, "C": 1}
    assert "C" in net.places  # init may introduce an isolated place


def test_comments_and_blank_lines():
    text = "# heading\n\nA => B\n  # indented comment\n"
    net, _ = parse_reactions(text)
    assert len(net.transitions) == 1


def test_empty_sides_rejected():
    # the grammar requires at least one term per side, and a net with a
    # side-less transition cannot be written back either
    with pytest.raises(ParseError):
        parse_reactions("src: => A\n")
    with pytest.raises(ParseError):
        parse_reactions("sink: A =>\n")
    from siphons import PetriNet
    source_net = PetriNet(("A",), ("t",), {}, {(0, 0): 1})
    with pytest.raises(ValueError):
        export_reactions(source_net)


def test_reaction_named_like_init():
    net, _ = parse_reactions("initial: A => B\n")
    assert net.transitions == ("initial",)


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_reactions("A => => B\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_reactions("A => B\nC + => D\n")
    assert err.value.line == 2


@pytest.mark.parametrize("text, column", [
    ("A + B + C => B +", 17),     # the second side's text also occurs in the first
    ("A+ => B", 3),               # in the first side
    ("r: A + B + C => B +", 20),  # a labelled line
], ids=["repeated-text", "first-side", "labelled"])
def test_error_columns(text, column):
    with pytest.raises(ParseError) as err:
        parse_reactions(text)
    assert (err.value.line, err.value.column) == (1, column)
    assert str(err.value) == f"line 1, column {column}: empty term"


def test_error_cases():
    for text in [
        "A B => C\n",          # missing +
        "A -> B\n",            # unknown arrow
        "0*A => B\n",          # zero multiplier
        "r: A => B\nr: B => A\n",   # duplicate transition name
        "init A 1\ninit A 2\n",     # duplicate init
        "init A x\n",          # non-numeric count
        "just text\n",
    ]:
        with pytest.raises(ParseError):
            parse_reactions(text)


def test_duplicate_species_weights_accumulate():
    net, _ = parse_reactions("A + A => B\n")
    t = 0
    assert net.weight_pt[(net.place_index("A"), t)] == 2


def test_export_golden():
    net, marking = parse_reactions("r1: 2*A => B\ninit A 5\n")
    text = export_reactions(net, marking)
    assert text == "r1: 2*A => B\ninit A 5\n"


def test_export_isolated_place_survives():
    net, _ = parse_reactions("A => B\ninit C 0\n")
    text = export_reactions(net)
    net2, _ = parse_reactions(text)
    assert set(net2.places) == {"A", "B", "C"}


def test_export_rejects_bad_names():
    net, _ = parse_reactions("A => B\n")
    bad = net.__class__(("A", "bad name"), ("t",), {(0, 0): 1}, {(0, 1): 1})
    with pytest.raises(ValueError):
        export_reactions(bad)


def test_roundtrip_corpus(models_dir):
    for path in sorted(models_dir.glob("*.rxn")):
        net, marking = parse_reactions(path.read_text())
        net2, marking2 = parse_reactions(export_reactions(net, marking))
        assert isomorphic(net, net2)
        assert net2.marking_dict(marking2) == net.marking_dict(marking)


@given(st.integers(0, 400))
def test_roundtrip_random_nets(seed):
    net = random_net_corpus(1, base_seed=seed, max_places=8)[0]
    net2, _ = parse_reactions(export_reactions(net))
    assert isomorphic(net, net2)
