"""Command dispatch, exit codes, artifact round trips, and report stability."""

import builtins
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tvcat import category, cli
from tvcat.cli import run_command
from tvcat.core import EngineError, InputError
from tvcat.corpus import seed_corpus
from tvcat.monad import MONAD_KINDS, MonadInstance, check_monad_kind
from tvcat.presheaf import CLASS_NAMES, CLASSES, saturated_class
from tvcat.quantale import boolean_quantale

BOOL_DOC = {"name": "bool", "builtin": "boolean"}

TWO_DOC = {"name": "two", "quantale": "bool.json", "monad": "identity",
           "carrier": ["0", "1"], "default": "bot",
           "structure": [["0", "0", "1"], ["1", "1", "1"], ["0", "1", "1"]]}

PT_DOC = {"name": "pt", "quantale": "bool.json", "carrier": ["p"],
          "structure": [["p", "p", "1"]]}

EMB_DOC = {"name": "emb", "source": "pt.json", "target": "two.json",
           "map": {"p": "1"}}

COLLAPSE_DOC = {"name": "collapse", "source": "two.json",
                "target": "pt.json", "map": {"0": "p", "1": "p"}}

ID2_DOC = {"name": "id2", "source": "two.json", "target": "two.json",
           "map": {"0": "0", "1": "1"}}

BANG_DOC = {"name": "bang", "source": "pt.json", "target": "pt.json",
            "map": {"p": "p"}}


@pytest.fixture(autouse=True)
def artifacts_are_json_dumps(monkeypatch):
    """Every artifact these tests produce has the bytes of json.dumps."""
    render = cli._artifact

    def checked(doc):
        out = render(doc)
        assert out == json.dumps(doc, indent=2, sort_keys=True)
        return out

    monkeypatch.setattr(cli, "_artifact", checked)


def put(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def seed(tmp_path, *extra):
    put(tmp_path, "bool.json", BOOL_DOC)
    put(tmp_path, "two.json", TWO_DOC)
    put(tmp_path, "pt.json", PT_DOC)
    put(tmp_path, "emb.json", EMB_DOC)
    for name, doc in extra:
        put(tmp_path, name, doc)


def test_check_lists_every_object(tmp_path):
    seed(tmp_path)
    code, out = run_command(["check", str(tmp_path / "two.json"),
                             str(tmp_path / "emb.json")])
    assert code == 0
    assert "ok category two" in out
    assert "ok functor emb" in out


def test_factor_emits_the_three_chain(tmp_path):
    seed(tmp_path)
    code, out = run_command(["factor", str(tmp_path / "emb.json")])
    assert code == 0
    doc = json.loads(out)
    assert doc["K"]["carrier"] == ["([0],0)", "([0],1)", "([1],1)"]
    assert doc["L"]["map"] == {"p": "([1],1)"}
    assert doc["R"]["map"] == {"([0],0)": "0", "([0],1)": "1",
                               "([1],1)": "1"}
    assert all(row["status"] == "pass" for row in doc["report"])


def test_factor_output_round_trips_through_check(tmp_path):
    # bang is an endofunctor: its factorisation embeds pt once
    seed(tmp_path, ("bang.json", BANG_DOC))
    for name in ("emb", "bang"):
        _, out = run_command(["factor", str(tmp_path / (name + ".json"))])
        fact = put(tmp_path, "fact_%s.json" % name, json.loads(out))
        code, out = run_command(["check", fact])
        assert code == 0, out
        assert "ok factorisation factorisation(%s)" % name in out


def test_two_factor_documents_load_together(tmp_path):
    # both embed pt and all(pt); the equal categories are registered once
    seed(tmp_path, ("bang.json", BANG_DOC))
    facts = []
    for name in ("emb", "bang"):
        _, out = run_command(["factor", str(tmp_path / (name + ".json"))])
        doc = json.loads(out)
        assert doc["q"]["name"] == "q(%s)" % name
        facts.append(put(tmp_path, "fact_%s.json" % name, doc))
    code, out = run_command(["check"] + facts)
    assert code == 0, out
    assert "ok factorisation factorisation(emb)" in out
    assert "ok factorisation factorisation(bang)" in out
    # an embedded copy agrees with a category document in either order
    pt = str(tmp_path / "pt.json")
    for argv in ([pt, facts[0]], [facts[0], pt]):
        code, out = run_command(["check"] + argv)
        assert code == 0, out
    # a different category under a used name is still refused
    path = put(tmp_path, "clash.json",
               dict(PT_DOC, carrier=["x"], structure=[["x", "x", "1"]]))
    code, out = run_command(["check", facts[0], path])
    assert (code, out) == (2, "error: %s: category name 'pt' already in "
                              "use" % path)


def test_classify_left_map(tmp_path):
    seed(tmp_path)
    code, out = run_command(["classify", str(tmp_path / "emb.json")])
    assert code == 0
    assert out == "L: yes (fully faithful, dense); R: no"


def test_classify_right_map(tmp_path):
    seed(tmp_path, ("collapse.json", COLLAPSE_DOC))
    code, out = run_command(["classify", str(tmp_path / "collapse.json")])
    assert code == 0
    assert out == "L: no (not fully faithful, dense); R: yes"


@pytest.mark.parametrize("output", ["text", "json"])
def test_lawvere_is_an_alias_of_right_adjoint(tmp_path, output):
    seed(tmp_path, ("collapse.json", COLLAPSE_DOC))
    for argv in (["classify", str(tmp_path / "collapse.json")],
                 ["presheaves", str(tmp_path / "two.json")]):
        argv += ["--output", output, "--class"]
        canonical = run_command(argv + ["right_adjoint"])
        assert canonical[0] == 0
        assert run_command(argv + ["lawvere"]) == canonical
        assert "lawvere" not in canonical[1]


def test_unknown_class_names_right_adjoint():
    with pytest.raises(InputError, match="right_adjoint") as exc:
        saturated_class("adjoint")
    assert str(exc.value) == "unknown class 'adjoint' (have %s)" \
        % ", ".join(CLASS_NAMES)


def test_lift_solves_a_commuting_square(tmp_path):
    idtwo = {"name": "idtwo", "source": "two.json", "target": "two.json",
             "map": {"0": "0", "1": "1"}}
    prob = {"name": "prob", "f": "emb.json", "g": "idtwo.json",
            "u": "emb.json", "v": "idtwo.json"}
    seed(tmp_path, ("idtwo.json", idtwo), ("prob.json", prob))
    code, out = run_command(["lift", str(tmp_path / "prob.json")])
    assert code == 0
    assert json.loads(out)["map"] == {"0": "0", "1": "1"}


def test_lift_rejects_f_outside_the_left_class(tmp_path):
    prob = {"name": "bad", "f": "collapse.json", "g": "bang.json",
            "u": "collapse.json", "v": "bang.json"}
    seed(tmp_path, ("collapse.json", COLLAPSE_DOC), ("bang.json", BANG_DOC),
         ("prob.json", prob))
    code, out = run_command(["lift", str(tmp_path / "prob.json")])
    assert code == 1
    assert "not in the left class" in out


def test_square_corners_are_compared_as_categories(tmp_path):
    # A is discrete and A2 the chain a <= b on the same labels, so every
    # corner's carrier matches while u starts at A2 and f at A
    def ident(name, src, dst):
        return {"name": name, "source": src, "target": dst,
                "map": {"a": "a", "b": "b"}}

    disc = {"name": "A", "quantale": "bool.json", "carrier": ["a", "b"],
            "structure": [["a", "a", "1"], ["b", "b", "1"]]}
    chain = dict(disc, name="A2", structure=disc["structure"]
                 + [["a", "b", "1"]])
    sq = {"name": "sq", "f": "f.json", "g": "g.json", "u": "u.json",
          "v": "v.json"}
    seed(tmp_path, ("A.json", disc), ("A2.json", chain),
         ("f.json", ident("f", "A.json", "A.json")),
         ("u.json", ident("u", "A2.json", "A2.json")),
         ("g.json", ident("g", "A2.json", "A2.json")),
         ("v.json", ident("v", "A.json", "A2.json")), ("sq.json", sq))
    for command in ("check", "lift"):
        code, out = run_command([command, str(tmp_path / "sq.json")])
        assert (code, out) == (2, "error: %s: problem sq: lifting square "
                               "(u, v) does not share its corners with f "
                               "and g" % (tmp_path / "sq.json"))


def test_functor_across_quantales_names_its_file(tmp_path):
    chain = {"name": "c", "quantale": {"builtin": "truncated_chain", "n": 1},
             "carrier": ["p"], "structure": [["p", "p", "0"]]}
    g = {"name": "g", "source": "pt.json", "target": "c.json",
         "map": {"p": "p"}}
    seed(tmp_path, ("c.json", chain), ("g.json", g))
    code, out = run_command(["check", str(tmp_path / "g.json")])
    assert code == 2
    assert out.startswith("error: %s: functor g endpoints use different "
                          "monad instances: " % (tmp_path / "g.json"))


def test_malformed_json_is_an_input_error(tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("not json")
    code, out = run_command(["check", str(p)])
    assert code == 2
    assert "not valid JSON" in out


def test_size_cap_is_exit_three(tmp_path):
    seed(tmp_path)
    code, out = run_command(["presheaves", str(tmp_path / "two.json"),
                             "--max-space", "2"])
    assert code == 3
    assert "cap" in out


def test_factor_cap_holds_after_an_uncapped_factor(tmp_path):
    seed(tmp_path, ("id2.json", ID2_DOC))
    argv = ["factor", str(tmp_path / "id2.json")]
    category.MEMO.clear()
    cold = run_command(argv + ["--max-space", "2"])
    assert cold[0] == 3
    assert run_command(argv)[0] == 0
    assert run_command(argv + ["--max-space", "2"]) == cold


def test_factor_past_the_comma_work_budget_is_exit_three(tmp_path,
                                                       monkeypatch):
    # the space over two fits a budget of 20 cells, K(id2)'s 5 pairs do not
    seed(tmp_path, ("id2.json", ID2_DOC))
    monkeypatch.setattr("tvcat.presheaf.STRUCTURE_WORK_CAP", 20)
    category.MEMO.clear()
    try:
        code, out = run_command(["factor", str(tmp_path / "id2.json")])
    finally:
        category.MEMO.clear()
    assert (code, out) == (3, "error: comma object of id2 has 5 pairs: its "
                              "structure is past the work budget")


def test_complete_emits_space_and_unit(tmp_path):
    seed(tmp_path)
    code, out = run_command(["complete", str(tmp_path / "pt.json")])
    assert code == 0
    doc = json.loads(out)
    assert doc["space"]["carrier"] == ["[0]", "[1]"]
    assert doc["unit"]["map"] == {"p": "[1]"}


def test_presheaves_lists_the_carrier(tmp_path):
    seed(tmp_path)
    code, out = run_command(["presheaves", str(tmp_path / "two.json")])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("3 presheaves on two")
    assert lines[1:] == ["[0,0]", "[1,0]", "[1,1]"]


def test_seed_corpus_resolves_names(tmp_path):
    seed(tmp_path)
    code, out = run_command(["classify", "emb",
                             "--seed-corpus", str(tmp_path)])
    assert code == 0
    assert out.startswith("L: yes")


def test_verify_paper_trivial_config_is_green():
    code, out = run_command(["verify-paper", "--max-size", "1"])
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL",
                                                         "SKIP"))]
    assert len(rows) == 12
    assert all(l.startswith("PASS") for l in rows)


def test_verify_paper_is_byte_identical():
    first = run_command(["verify-paper", "--max-size", "1"])
    second = run_command(["verify-paper", "--max-size", "1"])
    assert first == second


def test_verify_paper_json_envelope():
    code, out = run_command(["verify-paper", "--max-size", "1",
                             "--output", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "verify-paper"
    assert doc["report"]["ok"] is True
    assert len(doc["report"]["checks"]) == 12


def test_corrupt_builtin_fails_only_its_row(monkeypatch):
    # the boolean description with one tensor cell broken, k (x) k = bot
    q = boolean_quantale()
    names = q.elements
    tensor = {"%s|%s" % (names[a], names[b]): names[q.tensor_m[a][b]]
              for a in range(q.n) for b in range(q.n)}
    tensor["%s|%s" % (names[q.unit], names[q.unit])] = names[q.bottom]
    broken = {"elements": list(names),
              "leq": [[names[a], names[b]] for a in range(q.n)
                      for b in range(q.n) if q.leq_m[a][b]],
              "tensor": tensor, "unit": names[q.unit]}
    real = cli.check_quantale_laws
    monkeypatch.setattr(cli, "check_quantale_laws", lambda spec: real(
        broken if spec["builtin"] == "boolean" else spec))
    code, out = run_command(["verify-paper", "--max-size", "1"])
    assert code == 1
    rows = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert rows[0].startswith("FAIL quantale laws")
    assert "tensor-unit" in rows[0]
    assert all(l.startswith("PASS") for l in rows[1:])


def test_engine_error_fails_its_rows(tmp_path, monkeypatch):
    # every comma object reads as not separated, so each Factorisation
    # raises EngineError from its own invariant check
    monkeypatch.setattr("tvcat.lofs.is_separated", lambda K: False)
    code, out = run_command(["verify-paper", "--quantales", "boolean",
                             "--monads", "identity", "--max-size", "2"])
    assert code == 1
    failed = [l for l in out.splitlines() if l.startswith("FAIL")]
    assert [l.split(":")[0] for l in failed] == [
        "FAIL simplicity of the left leg", "FAIL left class characterisation",
        "FAIL factorisation comonad, monad, distributivity",
        "FAIL canonical fillers are least",
        "FAIL classical factorisation cross-check"]
    assert all("FAIL engine-error (comma object of " in l for l in failed)
    # other commands do not swallow it
    seed(tmp_path)
    category.MEMO.clear()
    with pytest.raises(EngineError, match="is not separated"):
        run_command(["factor", str(tmp_path / "emb.json")])


def test_unknown_monad_kind_is_an_input_error(tmp_path):
    # the option, a category document and a monad document all refuse the
    # kind with the message of `check_monad_kind`, which names MONAD_KINDS
    with pytest.raises(InputError) as exc:
        check_monad_kind("powerset")
    message = str(exc.value)
    assert message == "unknown monad kind 'powerset' (have %s)" \
        % ", ".join(MONAD_KINDS)
    assert run_command(["verify-paper", "--monads", "powerset"]) \
        == (2, "error: " + message)
    seed(tmp_path, ("cat.json", dict(PT_DOC, name="cat", monad="powerset")),
         ("kind.json", {"monad": "powerset"}))
    for name in ("cat.json", "kind.json"):
        path = str(tmp_path / name)
        assert run_command(["check", path]) \
            == (2, "error: %s: %s" % (path, message))


def test_the_class_table_gives_the_choices_and_the_class_list(monkeypatch):
    # every --class takes the table's names, the lawvere alias included
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if a.dest == "command")
    choices = [action.choices for sub in commands.choices.values()
               for action in sub._actions if action.dest == "cls"]
    assert len(choices) == 5
    assert all(c == tuple(CLASSES) for c in choices)
    assert tuple(CLASSES) == CLASS_NAMES + ("lawvere",)
    # verify-paper runs the table's classes in its order, the alias once
    seen = []
    real = cli.check_saturated

    def recorded(cls, cats, fns):
        seen.append(cls.name)
        return real(cls, cats, fns)

    monkeypatch.setattr(cli, "check_saturated", recorded)
    code, _ = run_command(["verify-paper", "--quantales", "boolean",
                           "--monads", "identity", "--max-size", "1"])
    assert code == 0
    assert seen == list(CLASS_NAMES)


# valid, but its two points lie below each other: not separated
BLOB_DOC = {"name": "blob", "quantale": "bool.json", "carrier": ["a", "b"],
            "default": "1"}


def test_an_endpoint_that_is_not_separated_is_refused(tmp_path):
    into = {"name": "into", "source": "pt.json", "target": "blob.json",
            "map": {"p": "a"}}
    out_of = {"name": "out", "source": "blob.json", "target": "pt.json",
              "map": {"a": "p", "b": "p"}}
    square = {"name": "sq", "f": "into.json", "g": "out.json",
              "u": "into.json", "v": "out.json"}
    seed(tmp_path, ("blob.json", BLOB_DOC), ("into.json", into),
         ("out.json", out_of), ("sq.json", square))
    assert run_command(["check"] + [str(tmp_path / name) for name in (
        "blob.json", "into.json", "out.json", "sq.json")])[0] == 0
    base = "presheaf space needs a separated base; blob is not"
    target = "comma object needs a separated target; blob is not"
    for argv, message in (
            (["factor", "into.json"], target),
            (["factor", "out.json"], base),
            (["classify", "into.json"], base),
            (["classify", "out.json"], base),
            (["lift", "sq.json"], target),
            (["presheaves", "blob.json"], base),
            (["complete", "blob.json"], base)):
        argv[1] = str(tmp_path / argv[1])
        assert run_command(argv) == (1, "error: " + message), argv


def test_console_entry_point(tmp_path):
    seed(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "tvcat.cli", "classify",
                           str(tmp_path / "emb.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "L: yes (fully faithful, dense); R: no"


def test_cap_is_read_on_every_command(tmp_path):
    # one process, one memo: each command's cap decides its own answer
    seed(tmp_path)
    argv = ["presheaves", str(tmp_path / "two.json")]
    first = run_command(argv)
    capped = run_command(argv + ["--max-space", "2"])
    again = run_command(argv)
    capped_again = run_command(argv + ["--max-space", "2"])
    assert [first[0], capped[0], again[0]] == [0, 3, 0]
    assert again == first and capped_again == capped


def test_identical_commands_parse_once(tmp_path, monkeypatch):
    seed(tmp_path)
    parser = cli._build_parser()
    parse = parser.parse_args
    calls = []
    monkeypatch.setattr(parser, "parse_args",
                        lambda argv: calls.append(argv) or parse(argv))
    argv = ["factor", str(tmp_path / "emb.json")]
    first = run_command(argv)
    second = run_command(argv)
    assert first == second and first[0] == 0
    # the repeat is answered from the kept answer, before parsing
    assert len(calls) == 1


def test_malformed_line_prints_its_usage_every_time(capsys):
    for _ in range(2):
        assert run_command(["classify"]) == (2, "")
        assert "usage:" in capsys.readouterr().err
    assert not [key for key in category.MEMO
                if key[:2] == ("answer", ("classify",))]


def test_file_rewritten_between_identical_commands(tmp_path):
    seed(tmp_path)
    argv = ["presheaves", str(tmp_path / "two.json")]
    chain = run_command(argv)
    # the discrete category on the same carrier has one more presheaf
    put(tmp_path, "two.json", dict(TWO_DOC, structure=[["0", "0", "1"],
                                                       ["1", "1", "1"]]))
    discrete = run_command(argv)
    assert chain[0] == discrete[0] == 0
    assert chain[1].startswith("3 presheaves on two")
    assert discrete[1].startswith("4 presheaves on two")


def test_second_classify_builds_no_inverse_image(tmp_path, monkeypatch):
    seed(tmp_path)
    argv = ["classify", str(tmp_path / "emb.json"), "--class",
            "representable"]
    # emb is not representable-dense: restriction along it leaves the
    # class space, which only the first run works out
    first = run_command(argv)
    assert first == (0, "L: no (fully faithful, not dense); R: yes")

    def rebuilt(*args):
        raise AssertionError("density decided again")

    monkeypatch.setattr("tvcat.presheaf.apply_P_star", rebuilt)
    assert run_command(argv) == first


def test_bad_cap_values_are_input_errors(tmp_path):
    seed(tmp_path)
    argv = ["presheaves", str(tmp_path / "two.json")]
    assert run_command(argv + ["--max-space", "8"])[0] == 0
    for raw in ("0", "-1"):
        code, out = run_command(argv + ["--max-space", raw])
        assert code == 2 and "--max-space" in out, (raw, out)


def test_max_size_below_one_is_an_input_error():
    # below 1 every corpus is empty or the empty category alone, and every
    # row would pass over nothing
    category.MEMO.clear()
    for raw in ("-1", "0"):
        code, out = run_command(["verify-paper", "--max-size", raw,
                                 "--quantales", "boolean"])
        assert code == 2 and out == "error: --max-size must be at least 1, " \
            "got %s" % raw, (raw, out)
    assert not [key for key in category.MEMO if key[0] == "answer"]


# verify-paper with --quantales boolean --monads finite_ultrafilter,identity
# --max-size 2: the identity label comes second and shares the ultrafilter
# corpus, yet the cross-check rows still run and carry its label
SHARED_ORDER_REPORT = (
    '== verify-paper: quantales=boolean monads=finite_ultrafilter,identity'
    ' max-size=2 ==\n'
    'PASS quantale laws: boolean: ok (9 checks)\n'
    'PASS monad conditions and span preservation: boolean/finite_ultrafilter:'
    ' ok (17 checks); boolean/identity: ok (14 checks)\n'
    'PASS category and bimodule calculus: boolean/finite_ultrafilter: ok (11'
    ' checks); boolean/identity: ok (11 checks)\n'
    'PASS yoneda lemma: boolean/finite_ultrafilter: ok (3 checks);'
    ' boolean/identity: ok (3 checks)\n'
    'PASS presheaf monad laws and lax idempotency: boolean/finite_ultrafilter:'
    ' ok (10 checks); boolean/identity: ok (10 checks)\n'
    'PASS simplicity of the left leg: boolean/finite_ultrafilter: ok (6'
    ' checks); boolean/identity: ok (6 checks)\n'
    'PASS saturation closure: boolean/finite_ultrafilter: ok (9 checks);'
    ' boolean/identity: ok (9 checks)\n'
    'PASS saturated submonads: boolean/finite_ultrafilter: ok (25 checks);'
    ' boolean/identity: ok (25 checks)\n'
    'PASS left class characterisation: boolean/finite_ultrafilter: ok (17'
    ' checks); boolean/identity: ok (17 checks)\n'
    'PASS factorisation comonad, monad, distributivity:'
    ' boolean/finite_ultrafilter: ok (8 checks); boolean/identity: ok (8'
    ' checks)\n'
    'PASS canonical fillers are least: boolean/identity: 84 lifting problems'
    ' solved, canonical filler least each time\n'
    'PASS classical factorisation cross-check: boolean/identity: left class ='
    ' order-embeddings on 19 maps; algebra = least retraction of the unit on'
    ' 19 maps, 2 of 4 objects complete; all 9 non-members fail some lifting at'
    ' this scale\n'
    'result: ok (12 checks, 0 failed, 0 skipped)'
)


def test_shared_corpus_keeps_every_row_and_label():
    code, out = run_command(["verify-paper", "--quantales", "boolean",
                             "--monads", "finite_ultrafilter,identity",
                             "--max-size", "2"])
    assert code == 0
    assert out == SHARED_ORDER_REPORT


def count_corpora(monkeypatch):
    """Record the quantale of every corpus verify-paper builds."""
    built = []

    def counted(M, size):
        built.append(M.q)
        return seed_corpus(M, size)

    monkeypatch.setattr("tvcat.cli.seed_corpus", counted)
    return built


def test_instances_with_equal_tables_share_one_corpus(monkeypatch):
    built = count_corpora(monkeypatch)
    code, _ = run_command(["verify-paper", "--max-size", "1"])
    assert code == 0
    # identity and finite_ultrafilter over boolean, identity over the chain
    assert len(built) == 2 and built[0] is not built[1]


def test_instances_with_other_tables_get_their_own_corpus(monkeypatch):
    def patched(kind, q):
        M = MonadInstance(kind, q)
        if kind == "finite_ultrafilter":
            M.xi_table = M.xi_table[::-1]
        return M

    monkeypatch.setattr("tvcat.cli.instantiate_monad", patched)
    built = count_corpora(monkeypatch)
    code, out = run_command(["verify-paper", "--quantales", "boolean",
                             "--max-size", "1"])
    assert len(built) == 2
    # the reversed algebra breaks the ultrafilter instance's own laws
    assert code == 1
    assert "boolean/finite_ultrafilter: FAIL algebra-unit" in out


# two boolean categories with one structure and two names, and an
# identity functor and lifting square on each
ONE_DOC = dict(TWO_DOC, name="one")
EFF_DOC = {"name": "eff", "source": "one.json", "target": "one.json",
           "map": {"0": "0", "1": "1"}}
GEE_DOC = dict(EFF_DOC, name="gee", source="two.json", target="two.json")
PEFF_DOC = {"name": "peff", "f": "eff.json", "g": "eff.json",
            "u": "eff.json", "v": "eff.json"}
PGEE_DOC = {"name": "pgee", "f": "gee.json", "g": "gee.json",
            "u": "gee.json", "v": "gee.json"}


def test_output_does_not_depend_on_command_history(tmp_path):
    # memo keys ignore names, so the second of two equal inputs hits the
    # entry the first one filled; its output must still carry its own names
    seed(tmp_path, ("one.json", ONE_DOC), ("eff.json", EFF_DOC),
         ("gee.json", GEE_DOC), ("peff.json", PEFF_DOC),
         ("pgee.json", PGEE_DOC))
    pairs = [("factor", "eff", "gee"), ("complete", "one", "two"),
             ("lift", "peff", "pgee")]
    for command, a, b in pairs:
        argv = {x: [command, str(tmp_path / (x + ".json"))] for x in (a, b)}
        cold = {}
        for x in (a, b):
            category.MEMO.clear()
            cold[x] = run_command(argv[x])
            assert cold[x][0] == 0, cold[x]
        assert cold[a] != cold[b]
        for first, second in ((a, b), (b, a)):
            category.MEMO.clear()
            run_command(argv[first])
            assert run_command(argv[second]) == cold[second], (command,
                                                                second)


def test_builtin_spec_does_not_depend_on_command_history(tmp_path):
    # both documents build the one boolean quantale; the second one's n is
    # ignored, and must not reach the first one's output
    seed(tmp_path, ("b1.json", {"builtin": "boolean"}),
         ("b2.json", {"builtin": "boolean", "n": 7}),
         ("c1.json", dict(PT_DOC, name="c1", quantale="b1.json")),
         ("c2.json", dict(PT_DOC, name="c2", quantale="b2.json")))
    argv = ["complete", str(tmp_path / "c1.json")]
    category.MEMO.clear()
    cold = run_command(argv)
    assert cold[0] == 0
    assert json.loads(cold[1])["space"]["quantale"] == {"builtin": "boolean"}
    category.MEMO.clear()
    assert run_command(["check", str(tmp_path / "c2.json")])[0] == 0
    category.MEMO.clear()
    assert run_command(argv) == cold


@pytest.mark.parametrize("n", [2.0, True, "2", None])
def test_builtin_family_needs_an_integer_n(tmp_path, n):
    doc = {"builtin": "truncated_chain", "n": n}
    seed(tmp_path, ("chain.json", doc))
    code, text = run_command(["check", str(tmp_path / "chain.json")])
    assert code == 2
    assert text == "error: %s: truncated_chain needs an integer n, got %r" \
        % (tmp_path / "chain.json", n)


# what each object command resolves its argument to
_WANTS = {"factor": "functor", "classify": "functor", "lift": "problem",
          "complete": "category", "presheaves": "category"}


def test_object_commands_take_one_kind_each(tmp_path):
    idtwo = {"name": "idtwo", "source": "two.json", "target": "two.json",
             "map": {"0": "0", "1": "1"}}
    prob = {"name": "prob", "f": "emb.json", "g": "idtwo.json",
            "u": "emb.json", "v": "idtwo.json"}
    seed(tmp_path, ("idtwo.json", idtwo), ("prob.json", prob),
         ("ident.json", {"monad": "identity"}))
    fact = json.loads(run_command(["factor", str(tmp_path / "emb.json")])[1])
    put(tmp_path, "fact.json", fact)
    files = {"quantale": "bool.json", "monad": "ident.json",
             "category": "two.json", "functor": "emb.json",
             "problem": "prob.json", "factorisation": "fact.json"}
    parts = ("source=pt, target=two, K=K(emb), space=all(pt), L=L(emb), "
             "R=R(emb), q=q(emb)")
    for command, wanted in _WANTS.items():
        for kind, name in files.items():
            path = str(tmp_path / name)
            code, text = run_command([command, path])
            if kind == wanted:
                assert code == 0, (command, kind, text)
            elif kind == "factorisation":
                assert (code, text) == (
                    2, "error: <args>: %s is the factorisation "
                       "factorisation(emb), expected a %s; name one of its "
                       "parts instead: %s" % (path, wanted, parts))
            else:
                assert (code, text) == (
                    2, "error: <args>: %s is a %s, expected a %s"
                       % (path, kind, wanted)), (command, kind)


def test_functor_over_a_factorisation_file_is_an_input_error(tmp_path):
    seed(tmp_path)
    fact = json.loads(run_command(["factor", str(tmp_path / "emb.json")])[1])
    put(tmp_path, "fact.json", fact)
    put(tmp_path, "over.json", dict(EMB_DOC, name="over", source="fact.json"))
    code, text = run_command(["classify", str(tmp_path / "over.json")])
    assert code == 2
    assert text.startswith("error: %s: fact.json is the factorisation "
                           "factorisation(emb), expected a category; "
                           % (tmp_path / "over.json"))
    # loaded first, its parts resolve by name
    put(tmp_path, "over.json", dict(EMB_DOC, name="over", source="pt",
                                    target="K(emb)",
                                    map={"p": "([1],1)"}))
    code, text = run_command(["check", str(tmp_path / "fact.json"),
                              str(tmp_path / "over.json")])
    assert code == 0, text


_TEXT = st.text(st.characters() | st.sampled_from(
    '"\\/\x00\x08\x0c\x1f\x7f\n\r\t\u00e9\u2028\ud800\U0001f600'))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_JSON)
def test_artifact_is_json_dumps_on_any_json_value(value):
    # the autouse fixture compares with json.dumps on every call
    cli._artifact(value)


def test_artifact_rejects_keys_that_are_not_str():
    for key in (1, None, True, ("a",)):
        with pytest.raises(TypeError):
            cli._artifact({"ok": [{key: 0}]})


def render_once(monkeypatch):
    """Make a second `_artifact` call fail; returns the documents rendered."""
    render = cli._artifact
    rendered = []

    def once(doc):
        if rendered:
            raise AssertionError("rendered a second document")
        rendered.append(doc)
        return render(doc)

    monkeypatch.setattr(cli, "_artifact", once)
    return rendered


@pytest.mark.parametrize("command,name", [("factor", "emb"),
                                          ("complete", "pt")])
def test_repeated_command_renders_once(tmp_path, monkeypatch, command, name):
    seed(tmp_path)
    rendered = render_once(monkeypatch)
    argv = [command, str(tmp_path / (name + ".json"))]
    first = run_command(argv)
    assert first[0] == 0
    assert run_command(argv) == first
    assert len(rendered) == 1


def test_rewritten_reference_gives_a_cold_answer(tmp_path):
    seed(tmp_path)
    argv = ["factor", str(tmp_path / "emb.json")]
    chain = run_command(argv)
    # emb.json keeps its bytes; only the category it maps into changes
    put(tmp_path, "two.json", dict(TWO_DOC, structure=[["0", "0", "1"],
                                                       ["1", "1", "1"]]))
    warm = run_command(argv)
    cold = subprocess.run([sys.executable, "-m", "tvcat.cli"] + argv,
                          capture_output=True, text=True)
    assert cold.returncode == warm[0] == 0
    assert warm[1] == cold.stdout.rstrip("\n")
    assert warm != chain


def test_kept_refusal_holds_only_for_its_category(tmp_path):
    # four presheaves on the discrete category, three on the chain
    discrete = dict(TWO_DOC, structure=[["0", "0", "1"], ["1", "1", "1"]])
    seed(tmp_path)
    argv = ["presheaves", str(tmp_path / "two.json"), "--max-space", "3"]
    put(tmp_path, "two.json", discrete)
    capped = run_command(argv)
    assert capped[0] == 3 and "cap of 3" in capped[1]
    put(tmp_path, "two.json", TWO_DOC)
    code, out = run_command(argv)
    assert code == 0 and out.startswith("3 presheaves on two")
    put(tmp_path, "two.json", discrete)
    assert run_command(argv) == capped


def test_rewrite_with_the_same_bytes_keeps_the_answer(tmp_path, monkeypatch):
    seed(tmp_path)
    argv = ["factor", str(tmp_path / "emb.json")]
    rendered = render_once(monkeypatch)
    first = run_command(argv)
    for name, doc in (("two.json", TWO_DOC), ("emb.json", EMB_DOC)):
        put(tmp_path, name, doc)
    assert run_command(argv) == first
    assert len(rendered) == 1


DISCRETE_DOC = dict(TWO_DOC, structure=[["0", "0", "1"], ["1", "1", "1"]])


def cold_answer(argv):
    """What the command gives in a process that has run nothing else."""
    category.MEMO.clear()
    return run_command(argv)


def test_relative_path_after_chdir_reads_the_new_directory(tmp_path,
                                                           monkeypatch):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    seed(tmp_path / "a")
    seed(tmp_path / "b", ("two.json", DISCRETE_DOC))
    argv = ["presheaves", "two.json"]
    monkeypatch.chdir(tmp_path / "a")
    chain = run_command(argv)
    monkeypatch.chdir(tmp_path / "b")
    # the first directory's files still read the same
    discrete = run_command(argv)
    assert chain[1].startswith("3 presheaves on two")
    assert discrete[1].startswith("4 presheaves on two")
    assert discrete == cold_answer(argv)


def test_absolute_paths_work_from_a_removed_directory(tmp_path,
                                                     monkeypatch):
    seed(tmp_path)
    (tmp_path / "gone").mkdir()
    monkeypatch.chdir(tmp_path / "gone")
    (tmp_path / "gone").rmdir()
    argv = ["presheaves", str(tmp_path / "two.json")]
    for _ in range(2):
        code, out = run_command(argv)
        assert code == 0 and out.startswith("3 presheaves on two")


def test_seed_corpus_that_gains_a_file_gives_a_cold_answer(tmp_path):
    seed(tmp_path)
    argv = ["classify", "emb", "--seed-corpus", str(tmp_path)]
    assert run_command(argv)[0] == 0
    # a second category named two: the listing changed, no kept file did
    put(tmp_path, "z.json", DISCRETE_DOC)
    warm = run_command(argv)
    assert warm[0] == 2 and "'two' already in use" in warm[1]
    assert warm == cold_answer(argv)


def test_deleted_reference_gives_the_cold_error(tmp_path):
    seed(tmp_path)
    argv = ["factor", str(tmp_path / "emb.json")]
    assert run_command(argv)[0] == 0
    (tmp_path / "pt.json").unlink()
    warm = run_command(argv)
    assert warm[0] == 2 and "cannot resolve category reference" in warm[1]
    assert warm == cold_answer(argv)


def test_rewrite_and_restore_give_cold_answers(tmp_path):
    seed(tmp_path)
    argv = ["presheaves", str(tmp_path / "two.json"), "--output", "json"]
    answers = []
    for doc in (TWO_DOC, DISCRETE_DOC, TWO_DOC):
        put(tmp_path, "two.json", doc)
        answers.append(run_command(argv))
    assert answers[0] != answers[1]
    assert answers[2] == answers[0] == cold_answer(argv)
    put(tmp_path, "two.json", DISCRETE_DOC)
    assert answers[1] == cold_answer(argv)


def test_repeat_reads_every_file_and_listing_of_its_first_run(tmp_path,
                                                             monkeypatch):
    # idtwo and prob name the corpus's objects
    idtwo = {"name": "idtwo", "source": "two", "target": "two",
             "map": {"0": "0", "1": "1"}}
    prob = {"name": "prob", "f": "emb", "g": "idtwo.json",
            "u": "emb", "v": "idtwo.json"}
    (tmp_path / "corpus").mkdir()
    seed(tmp_path / "corpus")
    put(tmp_path, "idtwo.json", idtwo)
    put(tmp_path, "prob.json", prob)
    argv = ["lift", str(tmp_path / "prob.json"), "--seed-corpus",
            str(tmp_path / "corpus")]
    reads = []

    def counted(real, kind):
        def wrapper(path, *args, **kw):
            reads.append((kind, os.path.abspath(path)))
            return real(path, *args, **kw)
        return wrapper

    runs = []
    for _ in range(2):
        with monkeypatch.context() as m:
            m.setattr(builtins, "open", counted(builtins.open, "file"))
            m.setattr(os, "open", counted(os.open, "file"))
            m.setattr(os, "listdir", counted(os.listdir, "dir"))
            runs.append(run_command(argv))
        assert runs[-1][0] == 0
        if len(runs) == 1:
            first, reads[:] = sorted(set(reads)), []
    assert runs[0] == runs[1]
    # seed corpus listing, its four files, and the two top-level files
    assert len(first) == 7 and first[0][0] == "dir"
    assert sorted(set(reads)) == first
