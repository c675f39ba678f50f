"""File loading, validation witnesses, and document round trips."""

import json
import os

import pytest

from tvcat.category import MEMO, TVFunctor
from tvcat.cli import run_command
from tvcat.core import Fn, InputError, ValidationError
from tvcat.lofs import comma_factorise
from tvcat.monad import instantiate_monad
from tvcat.presheaf import saturated_class
from tvcat.quantale import powerset_frame
from tvcat.report import LawReport
from tvcat.workspace import (Workspace, category_doc, factorisation_doc,
                             functor_doc)

from builders import discrete_category, entry

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
    assert entry(C.structure, "0", "1") == "1"
    assert entry(C.structure, "1", "0") == "0"


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


def test_unknown_default_names_the_file(tmp_path):
    seed(tmp_path, ("bad.json", dict(TWO_DOC, default="top")))
    with pytest.raises(InputError, match=r"bad\.json: default uses unknown "
                       r"value 'top'"):
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


def test_named_and_inline_quantales_are_one_object(tmp_path):
    tables = {"elements": ["no", "yes"], "leq": [["no", "yes"]],
              "tensor": {"no|no": "no", "no|yes": "no", "yes|no": "no",
                         "yes|yes": "yes"},
              "unit": "yes"}
    pt = dict(PT_DOC, structure=[["p", "p", "yes"]])
    seed(tmp_path, ("v.json", dict(tables, name="v")),
         ("a.json", dict(pt, name="a", quantale="v.json")),
         ("b.json", dict(pt, name="b", quantale=dict(tables, name="v"))))
    ws = Workspace()
    ws.load_file(str(tmp_path / "a.json"))
    ws.load_file(str(tmp_path / "b.json"))
    assert ws.category("a").q is ws.category("b").q
    assert "name" not in ws.category("b").q.spec


def test_inline_quantale_reference(tmp_path):
    doc = dict(PT_DOC, name="inline", quantale={"builtin": "boolean"})
    put(tmp_path, "inline.json", doc)
    ws = Workspace()
    ws.load_file(str(tmp_path / "inline.json"))
    assert ws.category("inline").q.spec == {"builtin": "boolean"}


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
    doc = category_doc(C, C.q.spec, name="copy")
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
    f = ws.functor("emb")
    F = comma_factorise(f, saturated_class("all"))
    rep = LawReport("factor emb")
    rep.add("legs-compose", True, "R . L = emb")
    out = factorisation_doc(F, rep, f)
    p = put(tmp_path, "out.json", out)
    fresh = Workspace()
    kind, name = fresh.load_file(p)
    assert (kind, name) == ("factorisation", "factorisation(emb)")
    K = fresh.category("K(emb)")
    assert K.carrier.elements == ("([0],0)", "([0],1)", "([1],1)")
    L, R = fresh.functor("L(emb)"), fresh.functor("R(emb)")
    assert (R.fn @ L.fn) == ws.functor("emb").fn


def test_factorisation_doc_of_a_quantale_built_in_code():
    # no document loads this quantale, so its spec comes from the object
    M = instantiate_monad("identity", powerset_frame(3))
    C = discrete_category(M, ["p"], name="pt")
    f = TVFunctor(C, C, Fn(C.carrier, C.carrier, [0]), "one")
    out = factorisation_doc(comma_factorise(f, saturated_class("all")),
                            LawReport("factor one"), f)
    assert out["source"]["quantale"] == {"builtin": "powerset_frame", "n": 3}
    assert out["K"]["quantale"] == {"builtin": "powerset_frame", "n": 3}


# -- reuse of unchanged files across workspaces -------------------------------

ID_DOC = {"name": "id", "source": "two.json", "target": "two.json",
          "map": {"0": "0", "1": "1"}}


def cold(argv):
    MEMO.clear()
    return run_command(argv)


def test_same_size_rewrite_with_old_mtime_is_seen(tmp_path):
    seed(tmp_path)
    path = str(tmp_path / "two.json")
    assert Workspace().load_file(path) == ("category", "two")
    before = os.stat(path)
    # 0 <= 1 becomes 1 <= 0: same bytes count, same mtime
    put(tmp_path, "two.json", dict(TWO_DOC, structure=[
        ["0", "0", "1"], ["1", "1", "1"], ["1", "0", "1"]]))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size,
                                                   before.st_mtime_ns)
    ws = Workspace()
    ws.load_file(path)
    C = ws.category("two")
    assert entry(C.structure, "1", "0") == "1"
    assert entry(C.structure, "0", "1") == "0"


@pytest.mark.parametrize("text, code", [
    ("not json", 2),
    # 0 <= 1 and 1 <= p but not 0 <= p
    (json.dumps({"name": "two", "quantale": "bool.json",
                 "carrier": ["0", "1", "p"],
                 "structure": [["0", "0", "1"], ["1", "1", "1"],
                               ["p", "p", "1"], ["0", "1", "1"],
                               ["1", "p", "1"]]}), 1)])
def test_file_made_invalid_gives_the_cold_error(tmp_path, text, code):
    seed(tmp_path)
    argv = ["check", str(tmp_path / "two.json")]
    assert cold(argv)[0] == 0
    (tmp_path / "two.json").write_text(text)
    warm = run_command(argv)
    assert warm[0] == code
    assert warm == cold(argv)


def test_functor_rechecked_when_its_category_changes(tmp_path):
    seed(tmp_path, ("other.json", dict(TWO_DOC, name="other")),
         ("id.json", dict(ID_DOC, target="other.json")))
    argv = ["check", str(tmp_path / "id.json")]
    assert cold(argv)[0] == 0
    # other loses 0 <= 1, which the identity on two must preserve
    put(tmp_path, "other.json", dict(TWO_DOC, name="other",
                                     structure=TWO_DOC["structure"][:2]))
    warm = run_command(argv)
    assert warm[0] == 1 and "action inequality" in warm[1]
    assert warm == cold(argv)


def test_failed_load_leaves_no_entry(tmp_path):
    seed(tmp_path)
    path = str(tmp_path / "two.json")
    Workspace().load_file(path)
    (tmp_path / "two.json").write_text("not json")
    with pytest.raises(InputError):
        Workspace().load_file(path)
    # a valid file whose reference fails leaves none either
    put(tmp_path, "two.json", dict(TWO_DOC, quantale="missing.json"))
    with pytest.raises(InputError, match="missing.json"):
        Workspace().load_file(path)
    put(tmp_path, "two.json", TWO_DOC)
    assert Workspace().load_file(path) == ("category", "two")


def test_crlf_file_reads_as_a_text_file(tmp_path):
    # error positions count each line break as one character
    p = tmp_path / "crlf.json"
    p.write_bytes(b'{\r\n  "a": \r\n}')
    with pytest.raises(InputError, match=r"line 3 column 1 \(char 10\)"):
        Workspace().load_file(str(p))


def test_file_that_is_not_utf8_is_an_input_error(tmp_path):
    p = tmp_path / "latin.json"
    p.write_bytes(b"\xff{}")
    MEMO.clear()
    code, text = run_command(["check", str(p)])
    assert code == 2
    assert text.startswith("error: %s: not UTF-8 text" % p)


def test_equal_files_without_names_keep_their_stems(tmp_path):
    doc = {k: v for k, v in TWO_DOC.items() if k != "name"}
    seed(tmp_path, ("a.json", doc), ("b.json", doc))
    MEMO.clear()
    for _ in range(2):
        ws = Workspace()
        assert ws.load_file(str(tmp_path / "a.json")) == ("category", "a")
        assert ws.load_file(str(tmp_path / "b.json")) == ("category", "b")
        assert (ws.category("a").name, ws.category("b").name) == ("a", "b")


def test_missing_reference_cannot_be_resolved(tmp_path):
    seed(tmp_path, ("id.json", dict(ID_DOC, target="nowhere.json")))
    code, text = run_command(["check", str(tmp_path / "id.json")])
    assert (code, text) == (2, "error: %s: cannot resolve category "
                               "reference 'nowhere.json'"
                            % (tmp_path / "id.json"))
    code, text = run_command(["classify", str(tmp_path / "nowhere.json")])
    assert (code, text) == (2, "error: <args>: cannot resolve functor "
                               "reference %r" % str(tmp_path / "nowhere.json"))


def test_directory_reference_gives_the_loader_message(tmp_path):
    # the path is there, so the open error is the message, as for `check`
    (tmp_path / "sub").mkdir()
    seed(tmp_path, ("id.json", dict(ID_DOC, target="sub")))
    candidate = os.path.join(str(tmp_path), "sub")
    with pytest.raises(OSError) as exc:
        open(candidate, "rb")
    code, text = run_command(["check", str(tmp_path / "id.json")])
    assert (code, text) == (2, "error: %s: %s" % (candidate, exc.value))
    assert run_command(["check", candidate]) == (code, text)
