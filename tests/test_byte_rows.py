"""One byte per cell: relation rows and presheaf values are `bytes` throughout.

Every constructor and kernel path is pinned to `bytes` rows, lookups keyed
on value lines refuse tuples, the composition and comparison shortcuts
(`is` before `==`) keep every InputError, and documents still write
element names.
"""

import itertools
import json
import random

import pytest

from tvcat.category import (TVCategory, TVFunctor, costar, dual_category,
                            identity_functor, star, tensor_category,
                            unit_category, v_category)
from tvcat.cli import run_command
from tvcat.core import FinSet, Fn, InputError
from tvcat.corpus import _relabelled
from tvcat.lofs import _sigma, coalgebra, comma_factorise
from tvcat.monad import (instantiate_monad, kleisli, lax_extend,
                         lax_extend_formula)
from tvcat.presheaf import apply_P, apply_P_star, presheaf_space
from tvcat.quantale import (VRelation, boolean_quantale, powerset_frame,
                            residual_left, truncated_chain)
from tvcat.workspace import Workspace

from builders import (constant_relation, discrete_category, pointwise,
                      relation_from_entries)

BOOL = boolean_quantale()
CHAIN = truncated_chain(2)


def carrier(n, stem="x"):
    return FinSet("%s%d" % (stem, i) for i in range(n))


def random_rel(rng, q, X, Y):
    return VRelation(q, X, Y, [[rng.randrange(q.n) for _ in Y] for _ in X])


def byte_rows(rel):
    return all(type(row) is bytes for row in rel.rows) \
        and type(rel.rows) is tuple


def chain_category(M):
    # x0 -> x1 at distance 1, nothing back: a separated category
    X = carrier(2)
    q = M.q
    zero, one, bot = q.index_of("0"), q.index_of("1"), q.bottom
    return TVCategory(M, X, VRelation(q, X, X, [[zero, one], [bot, zero]]),
                      "two")


# ---------------------------------------------------------------------------
# every path yields bytes rows
# ---------------------------------------------------------------------------

def test_constructor_stores_bytes_and_keeps_bytes_input_uncopied():
    X, Y = carrier(2), carrier(3, "y")
    for rows in ([[0, 1, 1], [1, 0, 0]], ((0, 1, 1), (1, 0, 0)),
                 (iter((0, 1, 1)), iter((1, 0, 0)))):
        rel = VRelation(BOOL, X, Y, rows)
        assert byte_rows(rel)
        assert rel.rows == (bytes((0, 1, 1)), bytes((1, 0, 0)))
    given = [bytes((0, 1, 1)), bytes((1, 0, 0))]
    rel = VRelation(BOOL, X, Y, given)
    assert all(kept is row for kept, row in zip(rel.rows, given))
    # a second relation built from the first shares its rows
    assert VRelation(BOOL, X, Y, rel.rows).rows[1] is rel.rows[1]


def test_constructors_yield_bytes_rows():
    X, Y = carrier(3), carrier(2, "y")
    f = Fn(X, Y, (1, 0, 1))
    for rel in (VRelation.from_fn(CHAIN, f),
                VRelation.identity(CHAIN, X),
                constant_relation(CHAIN, X, Y, "1"),
                constant_relation(CHAIN, FinSet([]), Y, 0),
                relation_from_entries(BOOL, X, Y, {("x0", "y1"): "1"},
                                      default="0")):
        assert byte_rows(rel)
    g = VRelation.from_fn(CHAIN, f)
    assert g.rows == tuple(bytes(CHAIN.unit if t == j else CHAIN.bottom
                                 for j in range(2)) for t in f.table)
    assert constant_relation(CHAIN, X, Y, "1").rows \
        == (bytes((CHAIN.index_of("1"),)) * 2,) * 3


def test_transpose_meet_join_and_residuals_yield_bytes_rows():
    rng = random.Random(7)
    q = CHAIN
    X, Y, Z = carrier(3), carrier(2, "y"), carrier(4, "z")
    r, r2 = random_rel(rng, q, X, Y), random_rel(rng, q, X, Y)
    t = random_rel(rng, q, X, Z)
    for rel in (r.T,
                VRelation(q, FinSet([]), Y, []).T,
                pointwise(q.meet_m, r, r2), pointwise(q.join_m, r, r2),
                residual_left(t, r)):
        assert byte_rows(rel)
    assert r.T.rows == tuple(bytes(col) for col in zip(*r.rows))


@pytest.mark.parametrize("kind", ["identity", "finite_ultrafilter"])
def test_monad_paths_yield_bytes_rows(kind):
    M = instantiate_monad(kind, CHAIN)
    rng = random.Random(11)
    X, Y = carrier(2), carrier(3, "y")
    r = random_rel(rng, CHAIN, X, Y)
    assert byte_rows(lax_extend(M, r))
    assert byte_rows(lax_extend_formula(M, r))
    s = random_rel(rng, CHAIN, Y, carrier(2, "z"))
    assert byte_rows(kleisli(M, s, r, X))
    C = chain_category(M)
    for D in (tensor_category(C, C), dual_category(C), v_category(M),
              unit_category(M), discrete_category(M, ["p", "q"])):
        assert byte_rows(D.structure)
    f = identity_functor(C)
    assert byte_rows(star(f).rel) and byte_rows(costar(f).rel)


def test_lax_extend_with_a_nontrivial_algebra_yields_bytes_rows():
    # both built-in algebras are identities, which lets lax_extend return r
    assert instantiate_monad("identity", BOOL).xi_table \
        == tuple(range(BOOL.n))
    assert instantiate_monad("finite_ultrafilter", CHAIN).xi_table \
        == tuple(range(CHAIN.n))


def test_presheaf_structure_and_values_are_bytes():
    M = instantiate_monad("identity", CHAIN)
    C = chain_category(M)
    space = presheaf_space(C)
    assert all(type(p) is bytes for p in space.presheaves)
    assert byte_rows(space.values) and byte_rows(space.category.structure)
    # the presheaves are the value relation's rows, the same tuple
    assert space.presheaves is space.values.rows
    rows = M.presheaf_structure(space.presheaves)
    assert all(type(row) is bytes for row in rows)
    assert tuple(rows) == space.category.structure.rows


# ---------------------------------------------------------------------------
# lookups keyed on value lines
# ---------------------------------------------------------------------------

def test_a_tuple_key_cannot_pass_a_lookup():
    M = instantiate_monad("identity", CHAIN)
    C = chain_category(M)
    space = presheaf_space(C)
    for i, p in enumerate(space.presheaves):
        assert space.index[p] == i
        with pytest.raises(KeyError):
            space.index[tuple(p)]
    # the structure kernel refuses value tuples outright
    with pytest.raises(AttributeError):
        M.presheaf_structure([tuple(p) for p in space.presheaves])


def test_direct_and_inverse_images_look_up_byte_lines():
    M = instantiate_monad("identity", CHAIN)
    C = chain_category(M)
    f = identity_functor(C)
    assert apply_P(f).fn.is_identity()
    assert apply_P_star(f).fn.is_identity()


def test_comultiplication_and_coalgebra_find_their_byte_keys():
    M = instantiate_monad("identity", CHAIN)
    C = chain_category(M)
    P = carrier(1, "p")
    pt = TVCategory(M, P, VRelation.identity(CHAIN, P), "pt")
    f = TVFunctor(pt, C, Fn(P, C.carrier, (1,)), "f")
    F = comma_factorise(f)
    FL = comma_factorise(F.L)
    # both look a column of a structure up in a space's index; a miss
    # raises (sigma) or answers None (coalgebra)
    sigma = _sigma(FL)
    assert (FL.R.fn @ sigma.fn).is_identity()
    s = coalgebra(FL)
    assert s is not None and (FL.R.fn @ s.fn).is_identity()


# ---------------------------------------------------------------------------
# relabelled rows
# ---------------------------------------------------------------------------

def test_relabelled_rows_are_bytes_and_match_the_cell_formula():
    rng = random.Random(3)
    for n in range(5):
        rows = tuple(bytes(rng.randrange(256) for _ in range(n))
                     for _ in range(n))
        for p in itertools.permutations(range(n)):
            out = _relabelled(rows, p)
            assert all(type(row) is bytes for row in out)
            assert out == tuple(bytes(rows[p[i]][p[j]] for j in range(n))
                                for i in range(n))


# ---------------------------------------------------------------------------
# composition and comparison over equal and unequal carriers
# ---------------------------------------------------------------------------

def test_finset_equality_answers_identity_first():
    X = carrier(3)
    assert X == X and X == carrier(3) and X is not carrier(3)
    assert X != carrier(2) and X != carrier(3, "y")
    assert X != X.elements and X != list(X)


@pytest.mark.parametrize("q", [BOOL, CHAIN])
def test_equal_but_distinct_carriers_compose_and_compare(q):
    rng = random.Random(q.n + 17)
    for nx, ny, nz in [(2, 3, 2), (9, 4, 16)]:
        X, Y, Z = carrier(nx), carrier(ny, "y"), carrier(nz, "z")
        X2, Y2, Z2 = carrier(nx), carrier(ny, "y"), carrier(nz, "z")
        r = random_rel(rng, q, X, Y)
        s = random_rel(rng, q, Y2, Z)
        same = VRelation(q, Y, Z, s.rows)
        assert (s @ r).rows == (same @ r).rows
        r2 = VRelation(q, X2, Y2, r.rows)
        bigger = pointwise(q.join_m, r, random_rel(rng, q, X2, Y2))
        assert r <= r2 and r2 <= r and r == r2
        assert r <= bigger and r.first_violation(bigger) is None
        M = instantiate_monad("identity", q)
        assert kleisli(M, same, r2, X).rows == (s @ r).rows
        assert kleisli(M, VRelation(q, Y2, Z2, s.rows), r, X2).rows \
            == (s @ r).rows


def test_unequal_carriers_still_raise():
    q = CHAIN
    rng = random.Random(23)
    X, Y, Z = carrier(2), carrier(3, "y"), carrier(2, "z")
    r, s = random_rel(rng, q, X, Y), random_rel(rng, q, Z, X)
    with pytest.raises(InputError, match="cannot compose"):
        s @ r
    other = random_rel(rng, q, X, carrier(3, "w"))
    for op in (r.leq, r.first_violation):
        with pytest.raises(InputError, match="not parallel"):
            op(other)
    with pytest.raises(InputError, match="not parallel"):
        r.leq(random_rel(rng, q, carrier(2, "v"), Y))
    with pytest.raises(InputError, match="different quantale"):
        r.leq(random_rel(rng, BOOL, X, Y))
    M = instantiate_monad("identity", q)
    with pytest.raises(InputError, match="source T"):
        kleisli(M, random_rel(rng, q, Y, Z), r, Z)
    with pytest.raises(InputError, match="source T of r's target"):
        kleisli(M, random_rel(rng, q, Z, Z), r, X)
    with pytest.raises(InputError, match="shape"):
        VRelation(q, X, Y, [[0, 0, 0]])
    with pytest.raises(InputError, match="shape"):
        VRelation(q, X, Y, [[0, 0, 0], [0, 0]])


@pytest.mark.parametrize("q", [BOOL, CHAIN, powerset_frame(4)])
def test_leq_matches_the_cell_formula(q):
    rng = random.Random(q.n * 31)
    for _ in range(300):
        X, Y = carrier(rng.randrange(5)), carrier(rng.randrange(12), "y")
        r, s = random_rel(rng, q, X, Y), random_rel(rng, q, X, Y)
        for a, b in ((r, s), (r, pointwise(q.join_m, r, s)),
                     (pointwise(q.meet_m, r, s), r), (r, r)):
            expected = all(q.leq_m[u][v] for ra, rb in zip(a.rows, b.rows)
                           for u, v in zip(ra, rb))
            assert a.leq(b) == expected == (a.first_violation(b) is None)


# ---------------------------------------------------------------------------
# documents keep element names
# ---------------------------------------------------------------------------

CHAIN_DOC = {"name": "chain", "builtin": "truncated_chain", "n": 2}
LINE_DOC = {"name": "line", "quantale": "chain.json", "monad": "identity",
            "carrier": ["a", "b"], "default": "bot",
            "structure": [["a", "a", "0"], ["b", "b", "0"], ["a", "b", "1"]]}
PT_DOC = {"name": "pt", "quantale": "chain.json", "carrier": ["p"],
          "structure": [["p", "p", "0"]]}
EMB_DOC = {"name": "emb", "source": "pt.json", "target": "line.json",
           "map": {"p": "b"}}


def test_factor_document_writes_names_and_round_trips(tmp_path):
    for name, doc in [("chain", CHAIN_DOC), ("line", LINE_DOC),
                      ("pt", PT_DOC), ("emb", EMB_DOC)]:
        (tmp_path / (name + ".json")).write_text(json.dumps(doc))
    code, out = run_command(["factor", str(tmp_path / "emb.json")])
    assert code == 0, out
    assert "\\x" not in out and "\\u" not in out
    doc = json.loads(out)
    for key in ("source", "target", "K", "space"):
        entries = doc[key]["structure"]
        assert entries and all(isinstance(s, str) for e in entries for s in e)
        assert {v for _, _, v in entries} <= set(CHAIN.elements)
    for key in ("L", "R", "q"):
        assert all(isinstance(s, str) for s in doc[key]["map"].values())
    fact = tmp_path / "fact.json"
    fact.write_text(out)
    code, checked = run_command(["check", str(fact)])
    assert code == 0, checked
    assert "ok factorisation factorisation(emb)" in checked
    ws = Workspace()
    ws.load_file(str(tmp_path / "emb.json"))
    F = comma_factorise(ws.functor("emb"))
    fresh = Workspace()
    fresh.load_file(str(fact))
    K = fresh.category("K(emb)")
    assert K.carrier == F.K.carrier
    assert byte_rows(K.structure) and K.structure.rows == F.K.structure.rows
