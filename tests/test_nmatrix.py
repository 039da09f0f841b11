import numpy as np
import pytest

import reference as ref
from modalcube import values
from modalcube.kripke import frame_props
from modalcube.logics import _holds, lookup, value_at
from modalcube.nmatrix import ValueNotInLogicError, nmatrix
from modalcube.values import mask_of, names_in, value_id


def _names(mask):
    return set(names_in(mask))


def test_golden_imp_cells(logic_name):
    mat = nmatrix(logic_name)
    for a in ref.logic_values(logic_name):
        for b in ref.logic_values(logic_name):
            got = _names(mat.imp(value_id(a), value_id(b)))
            assert got == set(ref.imp_cell(logic_name, a, b)), (a, b)


def test_golden_box_cells(logic_name):
    mat = nmatrix(logic_name)
    for a in ref.logic_values(logic_name):
        assert _names(mat.box(value_id(a))) == set(ref.box_cell(logic_name, a)), a


def test_golden_bot(logic_name):
    mat = nmatrix(logic_name)
    assert _names(mat.bot_mask) == set(ref.bot_cell(logic_name))


def test_imp_examples():
    k = nmatrix("K")
    assert _names(k.imp(values.t, values.f)) == {"f", "fff"}
    assert _names(k.imp(values.F, values.ff)) == {"T"}
    kt = nmatrix("KT")
    assert _names(kt.imp(values.t, values.f)) == {"f"}


def test_box_examples():
    assert _names(nmatrix("K").box(values.ff)) == {"tt"}
    assert _names(nmatrix("KT").box(values.T)) == {"T", "t"}
    assert _names(nmatrix("KT4").box(values.T)) == {"T"}


def test_neg_examples():
    k = nmatrix("K")
    assert _names(k.neg(values.T)) == {"F"}
    assert _names(nmatrix("KT").neg(values.f)) == {"t"}


def test_neg_of_a_stable_value_is_stable():
    """Falsum is ff on the stable fragment, so negation never mixes stable
    with non-stable values."""
    k = nmatrix("K")
    assert _names(k.neg(values.tt)) == {"ff"}
    assert _names(k.neg(values.ff)) == {"tt"}


def test_value_not_in_logic():
    with pytest.raises(ValueNotInLogicError):
        nmatrix("KT").box(values.ff)
    with pytest.raises(ValueNotInLogicError):
        nmatrix("KD").imp(values.tt, values.T)


def test_dia_matches_independent_composition(logic_name):
    """Recompute the diamond composition from the JSON transcription."""
    mat = nmatrix(logic_name)
    for a in ref.logic_values(logic_name):
        bot = "ff" if a in ref.STABLE else "F"
        out = set()
        for b in ref.imp_cell(logic_name, a, bot):
            for c in ref.box_cell(logic_name, b):
                out |= ref.imp_cell(logic_name, c, bot)
        assert _names(mat.dia(value_id(a))) == out, a


def test_dia_frozen_values():
    # values fixed by the composition, not printed anywhere as a table
    assert _names(nmatrix("KT").dia(values.T)) == {"T"}
    assert _names(nmatrix("KD").dia(values.F)) == {"F", "f", "fff"}
    assert _names(nmatrix("K").dia(values.tt)) == {"ff"}


def test_imp_table_agrees_with_three_world_frames(logic_name):
    """A cell whose arguments are both stable or both non-stable holds
    exactly the values p -> q takes where p and q take them, over the
    logic's 3-world frames and every valuation of p and q; no frame realizes
    a cell that mixes the two kinds."""
    logic = lookup(logic_name)
    rels = ref.all_relations(3)
    rels = rels[_holds(rels, frame_props(logic))]
    vals = np.arange(64)
    p = (vals >> np.arange(3)[:, None]) & 1 == 1
    q = (vals >> np.arange(3, 6)[:, None]) & 1 == 1
    seen = np.zeros((8, 8, 8), dtype=bool)
    seen[value_at(rels, p), value_at(rels, q), value_at(rels, ~p | q)] = True
    got = np.packbits(seen, axis=-1, bitorder="little")[..., 0]
    stable = values.in_mask(values.STABLE_MASK, np.arange(8))
    want = np.where(stable[:, None] == stable, nmatrix(logic).imp_masks, 0)
    assert (got == want).all()


def _coherent_pairs(vmask):
    vals = values.values_in(vmask)
    stable = [v for v in vals if values.STABLE_MASK >> v & 1]
    plain = [v for v in vals if not values.STABLE_MASK >> v & 1]
    return [(a, b) for a in plain for b in plain] + [(a, b) for a in stable for b in stable]


def test_totality_on_coherent_pairs(logic_name):
    """Every restricted output that can occur inside a valuation is nonempty."""
    logic = lookup(logic_name)
    mat = nmatrix(logic)
    for a, b in _coherent_pairs(logic.values_mask):
        cell = mat.imp(a, b)
        assert cell != 0, (a, b)
        assert cell & ~logic.values_mask == 0
    for a in values.values_in(logic.values_mask):
        out = mat.box(a)
        assert out != 0 and out & ~logic.values_mask == 0
    assert mat.bot_mask != 0


def test_empty_restricted_cells_only_in_kb5_mixed_pairs(logic_name):
    """Stable/non-stable argument mixes can intersect to nothing, but only in
    KB5 and only on pairs the stability rule already rules out."""
    logic = lookup(logic_name)
    mat = nmatrix(logic)
    vals = values.values_in(logic.values_mask)
    empties = [(a, b) for a in vals for b in vals if mat.imp(a, b) == 0]
    if logic.name != "KB5":
        assert empties == []
    else:
        assert empties != []
        for a, b in empties:
            a_stable = bool(values.STABLE_MASK >> a & 1)
            b_stable = bool(values.STABLE_MASK >> b & 1)
            assert a_stable != b_stable


def test_diagonal_designation(logic_name):
    logic = lookup(logic_name)
    mat = nmatrix(logic)
    diag_ok = mask_of("T t tt")
    for a in values.values_in(logic.values_mask):
        assert mat.imp(a, a) & ~diag_ok == 0


def test_stable_fragment_is_two_valued(logic_name):
    logic = lookup(logic_name)
    if logic.values_mask & values.STABLE_MASK != values.STABLE_MASK:
        return
    mat = nmatrix(logic)
    tt, ff = values.tt, values.ff
    assert _names(mat.imp(tt, tt)) == {"tt"}
    assert _names(mat.imp(tt, ff)) == {"ff"}
    assert _names(mat.imp(ff, tt)) == {"tt"}
    assert _names(mat.imp(ff, ff)) == {"tt"}
    assert _names(mat.box(tt)) == {"tt"}
    assert _names(mat.box(ff)) == {"tt"}


def test_box_outputs_track_necessity(logic_name):
    """box of a necessary-grade value is designated, otherwise non-designated;
    in particular T and tt always map inside the designated set."""
    logic = lookup(logic_name)
    mat = nmatrix(logic)
    for a in values.values_in(logic.values_mask):
        out = mat.box(a)
        if values.member(a, "N"):
            assert out & ~values.D_MASK == 0
        else:
            assert out & values.D_MASK == 0


def test_families_share_the_implication_table():
    for fam_members in (("K", "KB", "K4", "K5", "K45"),
                        ("KD", "KDB", "KD4", "KD5", "KD45"),
                        ("KT", "KTB", "KT4", "KT45")):
        mats = [nmatrix(n) for n in fam_members]
        for other in mats[1:]:
            assert (other.imp_masks == mats[0].imp_masks).all()
