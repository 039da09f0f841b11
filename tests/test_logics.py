import pytest

from modalcube import values
from modalcube.formula import parse, print_formula
from modalcube.logics import LogicError, all_logics, axioms, frame_tables, lookup
from modalcube.values import names_in

from conftest import ALL_LOGIC_NAMES
from reference import FRAME_PROPS, logic_values

# the property each letter of the transcription in tests/data names
PROPERTY_OF_LETTER = {"D": "serial", "T": "reflexive", "B": "symmetric",
                      "4": "transitive", "5": "euclidean"}


def test_registry_is_the_fifteen_cube_logics():
    assert tuple(l.name for l in all_logics()) == ALL_LOGIC_NAMES


@pytest.mark.parametrize("alias,target,props", [
    ("S4", "KT4", {"reflexive", "serial", "transitive"}),
    ("S5", "KT45", {"reflexive", "serial", "symmetric", "transitive", "euclidean"}),
    ("D", "KD", {"serial"}),
    ("T", "KT", {"reflexive", "serial"}),
    ("B", "KTB", {"reflexive", "serial", "symmetric"}),
    ("KB45", "KB5", {"symmetric", "transitive", "euclidean"}),
    ("D45", "KD45", {"serial", "transitive", "euclidean"}),
])
def test_aliases(alias, target, props):
    logic = lookup(alias)
    assert logic.name == target
    assert set(logic.frame_props) == props


def test_lookup_is_case_insensitive():
    assert lookup("s4").name == "KT4"
    assert lookup("kd").name == "KD"


def test_unknown_logic_lists_names():
    with pytest.raises(LogicError) as info:
        lookup("S6")
    assert "KT45" in str(info.value)


def test_families():
    # the values and frame properties derived from each logic's axiom labels
    # are those its family has in the independent transcription
    for logic in all_logics():
        assert frozenset(names_in(logic.values_mask)) == logic_values(logic.name), logic.name
        want = {PROPERTY_OF_LETTER[letter] for letter in FRAME_PROPS[logic.name]}
        assert logic.frame_props == want, logic.name


def test_value_sets_per_family():
    assert set(names_in(lookup("K").values_mask)) == set(values.VALUE_NAMES)
    assert set(names_in(lookup("KB5").values_mask)) == {"F", "f", "ff", "tt", "t", "T"}
    assert set(names_in(lookup("KD").values_mask)) == {"F", "f", "fff", "ttt", "t", "T"}
    assert set(names_in(lookup("KT").values_mask)) == {"F", "f", "t", "T"}


def test_designated_values(logic_name):
    logic = lookup(logic_name)
    assert logic.designated_mask == logic.values_mask & values.D_MASK
    assert logic.designated_mask != 0
    assert logic.values_mask & ~logic.designated_mask != 0


def test_stable_values_excluded_exactly_for_serial_families(logic_name):
    logic = lookup(logic_name)
    has_stable = logic.values_mask & values.STABLE_MASK != 0
    assert has_stable == ("D" not in FRAME_PROPS[logic_name])


def test_axiom_lists():
    assert [lab for lab, _ in axioms(lookup("K"))] == ["k"]
    assert [lab for lab, _ in axioms(lookup("KD45"))] == ["k", "d", "4", "5"]
    assert [lab for lab, _ in axioms(lookup("S5"))] == ["k", "t", "b", "4", "5"]
    assert [lab for lab, _ in axioms(lookup("KB5"))] == ["k", "b", "4", "5"]


def test_axiom_schemas_parse_and_print():
    k_schema = dict(axioms(lookup("K")))["k"]
    assert k_schema == parse("[](a -> b) -> ([]a -> []b)")
    t_schema = dict(axioms(lookup("KT")))["t"]
    assert print_formula(t_schema) == "[]a -> a"


def test_every_axiom_label_has_matching_frame_prop(logic_name):
    logic = lookup(logic_name)
    for label in logic.axiom_labels:
        if label == "k":
            continue
        assert PROPERTY_OF_LETTER[label.upper()] in logic.frame_props


def test_three_worlds_give_the_frame_tables_exactly():
    """Four worlds add nothing to the tables read off three in any logic,
    and two are too few in some."""
    too_few = []
    for logic in all_logics():
        three = frame_tables(logic.frame_props)
        four = frame_tables(logic.frame_props, worlds=4)
        assert four.values_mask == three.values_mask, logic.name
        assert (four.successors == three.successors).all(), logic.name
        assert (four.box == three.box).all(), logic.name
        two = frame_tables(logic.frame_props, worlds=2)
        if (two.successors != three.successors).any() or (two.box != three.box).any():
            too_few.append(logic.name)
    assert too_few


@pytest.mark.parametrize("props", [{"D"}, {"serial", "4"}, {"Serial"}])
def test_frame_tables_reject_unknown_property_names(props):
    with pytest.raises(ValueError, match="unknown frame property"):
        frame_tables(frozenset(props))


def test_frame_tables_refuse_five_worlds():
    # 2**25 relations on five worlds: refused before any is built
    with pytest.raises(ValueError, match="25 relation bits exceed the bound of 16"):
        frame_tables(frozenset(), worlds=5)
