"""File loading, validation witnesses, and document round trips."""

import json

import pytest

from tvcat.core import InputError, ValidationError
from tvcat.lofs import comma_factorise
from tvcat.presheaf import saturated_class
from tvcat.report import LawReport
from tvcat.workspace import (Workspace, category_doc, factorisation_doc,
                             functor_doc, quantale_spec)

BOOL_DOC = {"name": "bool", "builtin": "boolean"}

TWO_DOC = {"name": "two", "quantale": "bool.json", "monad": "identity",
           "carrier": ["0", "1"], "default": "bot",
           "structure": [["0", "0", "1"], ["1", "1", "1"], ["0", "1", "1"]]}

PT_DOC = {"name": "pt", "quantale": "bool.json", "carrier": ["p"],
          "structure": [["p", "p", "1"]]}


def put(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def seed(tmp_path, *extra):
    put(tmp_path, "bool.json", BOOL_DOC)
    put(tmp_path, "two.json", TWO_DOC)
    put(tmp_path, "pt.json", PT_DOC)
    for name, doc in extra:
        put(tmp_path, name, doc)


def test_category_file_loads(tmp_path):
    seed(tmp_path)
    ws = Workspace()
    assert ws.load_file(str(tmp_path / "two.json")) == ("category", "two")
    C = ws.category("two")
    assert C.carrier.elements == ("0", "1")
    assert C.structure.entry("0", "1") == "1"
    assert C.structure.entry("1", "0") == "0"


def test_unknown_structure_element_names_the_entry(tmp_path):
    doc = dict(TWO_DOC, structure=[["0", "2", "1"]])
    seed(tmp_path, ("bad.json", doc))
    with pytest.raises(InputError, match=r"\['0', '2', '1'\]"):
        Workspace().load_file(str(tmp_path / "bad.json"))


def test_unknown_value_names_the_entry(tmp_path):
    doc = dict(TWO_DOC, structure=[["0", "0", "maybe"]])
    seed(tmp_path, ("bad.json", doc))
    with pytest.raises(InputError, match="maybe"):
        Workspace().load_file(str(tmp_path / "bad.json"))


def test_non_transitive_structure_is_a_validation_failure(tmp_path):
    # 0 <= 1 and 1 <= p but not 0 <= p
    doc = {"name": "wonky", "quantale": "bool.json",
           "carrier": ["0", "1", "p"],
           "structure": [["0", "0", "1"], ["1", "1", "1"], ["p", "p", "1"],
                         ["0", "1", "1"], ["1", "p", "1"]]}
    seed(tmp_path, ("wonky.json", doc))
    with pytest.raises(ValidationError, match="transitivity"):
        Workspace().load_file(str(tmp_path / "wonky.json"))


def test_bad_quantale_is_a_validation_failure(tmp_path):
    doc = {"name": "broken", "elements": ["0", "1"], "leq": [["0", "1"]],
           "tensor": {"0|0": "0", "0|1": "1", "1|0": "0", "1|1": "1"},
           "unit": "1"}
    put(tmp_path, "broken.json", doc)
    with pytest.raises(ValidationError, match="commutative"):
        Workspace().load_file(str(tmp_path / "broken.json"))


def test_functor_map_must_be_total_and_structure_preserving(tmp_path):
    seed(tmp_path,
         ("partial.json", {"name": "partial", "source": "two.json",
                           "target": "pt.json", "map": {"0": "p"}}),
         ("desc.json", {"name": "desc", "source": "two.json",
                        "target": "two.json", "map": {"0": "1", "1": "0"}}))
    with pytest.raises(InputError, match="misses carrier element '1'"):
        Workspace().load_file(str(tmp_path / "partial.json"))
    with pytest.raises(ValidationError, match=r"\('0', '1'\)"):
        Workspace().load_file(str(tmp_path / "desc.json"))


def test_problem_square_must_commute(tmp_path):
    fdoc = {"name": "f", "source": "pt.json", "target": "two.json",
            "map": {"p": "0"}}
    gdoc = {"name": "g", "source": "pt.json", "target": "two.json",
            "map": {"p": "1"}}
    iddoc = {"name": "idp", "source": "pt.json", "target": "pt.json",
             "map": {"p": "p"}}
    id2doc = {"name": "id2", "source": "two.json", "target": "two.json",
              "map": {"0": "0", "1": "1"}}
    prob = {"name": "square", "f": "f.json", "g": "g.json", "u": "idp.json",
            "v": "id2.json"}
    seed(tmp_path, ("f.json", fdoc), ("g.json", gdoc), ("idp.json", iddoc),
         ("id2.json", id2doc), ("square.json", prob))
    with pytest.raises(ValidationError, match="does not commute at p"):
        Workspace().load_file(str(tmp_path / "square.json"))
    good = dict(prob, name="ok", g="f.json")
    put(tmp_path, "ok.json", good)
    ws = Workspace()
    ws.load_file(str(tmp_path / "ok.json"))
    assert set(ws.problem("ok")) == {"f", "g", "u", "v"}


def test_quantales_intern_across_files(tmp_path):
    # same spec in two files gives the same object, so categories loaded
    # from either side stay composable
    seed(tmp_path, ("bool2.json", {"name": "b2", "builtin": "boolean"}),
         ("other.json", dict(PT_DOC, name="other", quantale="bool2.json")))
    ws = Workspace()
    ws.load_file(str(tmp_path / "two.json"))
    ws.load_file(str(tmp_path / "other.json"))
    assert ws.category("two").q is ws.category("other").q


def test_inline_quantale_reference(tmp_path):
    doc = dict(PT_DOC, name="inline", quantale={"builtin": "boolean"})
    put(tmp_path, "inline.json", doc)
    ws = Workspace()
    ws.load_file(str(tmp_path / "inline.json"))
    assert quantale_spec(ws.category("inline").q) == {"builtin": "boolean"}


def test_duplicate_names_are_rejected(tmp_path):
    seed(tmp_path, ("two_again.json", dict(TWO_DOC)))
    ws = Workspace()
    ws.load_file(str(tmp_path / "two.json"))
    with pytest.raises(InputError, match="already in use"):
        ws.load_file(str(tmp_path / "two_again.json"))


def test_malformed_json_is_an_input_error(tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("{not json")
    with pytest.raises(InputError, match="not valid JSON"):
        Workspace().load_file(str(p))
    with pytest.raises(InputError, match="No such file"):
        Workspace().load_file(str(tmp_path / "absent.json"))


def test_unrecognised_shape_is_an_input_error(tmp_path):
    put(tmp_path, "odd.json", {"name": "odd", "weird": 1})
    with pytest.raises(InputError, match="unrecognised"):
        Workspace().load_file(str(tmp_path / "odd.json"))


def test_category_doc_round_trip(tmp_path):
    seed(tmp_path)
    ws = Workspace()
    ws.load_file(str(tmp_path / "two.json"))
    C = ws.category("two")
    doc = category_doc(C, quantale_spec(C.q), name="copy")
    assert doc["default"] == "bot"
    assert ["0", "0", "1"] in doc["structure"]
    assert ["1", "0", "1"] not in doc["structure"]  # bottom rows are elided
    ws2 = Workspace()
    ws2.add_document(doc, str(tmp_path), "<mem>", "copy")
    assert ws2.category("copy").structure.rows == C.structure.rows


def test_functor_doc_round_trip(tmp_path):
    seed(tmp_path, ("emb.json", {"name": "emb", "source": "pt.json",
                                 "target": "two.json", "map": {"p": "1"}}))
    ws = Workspace()
    ws.load_file(str(tmp_path / "emb.json"))
    f = ws.functor("emb")
    doc = functor_doc(f, "pt", "two", name="emb2")
    ws.add_document(doc, str(tmp_path), "<mem>", "emb2")
    assert ws.functor("emb2").fn.table == f.fn.table


def test_factorisation_doc_is_self_contained(tmp_path):
    seed(tmp_path, ("emb.json", {"name": "emb", "source": "pt.json",
                                 "target": "two.json", "map": {"p": "1"}}))
    ws = Workspace()
    ws.load_file(str(tmp_path / "emb.json"))
    F = comma_factorise(ws.functor("emb"), saturated_class("all"))
    rep = LawReport("factor emb")
    rep.add("legs-compose", True, "R . L = emb")
    out = factorisation_doc(F, rep)
    p = put(tmp_path, "out.json", out)
    fresh = Workspace()
    kind, name = fresh.load_file(p)
    assert (kind, name) == ("factorisation", "factorisation(emb)")
    K = fresh.category("K(emb)")
    assert K.carrier.elements == ("([0],0)", "([0],1)", "([1],1)")
    L, R = fresh.functor("L(emb)"), fresh.functor("R(emb)")
    assert (R.fn @ L.fn) == ws.functor("emb").fn
