"""Quantale construction, law scanning, and the V-relation calculus."""

from __future__ import annotations

import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvcat import (FinSet, InputError, ValidationError, VRelation,
                   boolean_quantale, build_quantale, check_quantale_laws,
                   lukasiewicz_chain, powerset_frame, residual_left,
                   truncated_chain)
from tvcat.report import FAIL, PASS
from tvcat.workspace import quantale_from_doc

from builders import entry, fn_from_dict, pointwise


BOOLEAN_SPEC = {
    "elements": ["0", "1"],
    "leq": [["0", "1"]],
    "tensor": {"0|0": "0", "0|1": "0", "1|0": "0", "1|1": "1"},
    "unit": "1",
}


def test_builtins_pass_all_laws():
    for spec in ({"builtin": "boolean"},
                 {"builtin": "truncated_chain", "n": 2},
                 {"builtin": "lukasiewicz_chain", "n": 2},
                 {"builtin": "powerset_frame", "n": 2}):
        rep = check_quantale_laws(spec)
        assert rep.ok, rep.to_text()


def value(q, table, a, b):
    """The name of table[a][b] for the value names a and b."""
    return q.elements[table[q.index_of(a)][q.index_of(b)]]


def test_boolean_hom_table():
    q = boolean_quantale()
    assert value(q, q.hom_m, "1", "0") == "0"
    assert value(q, q.hom_m, "0", "0") == "1"
    assert value(q, q.hom_m, "0", "1") == "1"
    assert value(q, q.hom_m, "1", "1") == "1"
    assert q.elements[q.unit] == "1"
    assert q.elements[q.bottom] == "0"


def test_truncated_chain_orientation():
    # the quantale order is numeric >=: 0 is the unit and the top, inf the bottom
    q = truncated_chain(2)
    assert q.elements[q.unit] == "0"
    assert q.elements[q.top] == "0"
    assert q.elements[q.bottom] == "inf"
    two, one = q.index_of("2"), q.index_of("1")
    assert q.leq_m[two][one] and not q.leq_m[one][two]
    assert value(q, q.tensor_m, "1", "2") == "inf"  # 3 > 2 truncates
    assert value(q, q.tensor_m, "1", "1") == "2"


def test_truncated_chain_hom_truncation_effect():
    # hom(1, inf) = 1 in the 0,1,inf chain: 1 (*) 1 already truncates to inf
    q = truncated_chain(1)
    assert value(q, q.hom_m, "1", "inf") == "1"
    assert value(q, q.hom_m, "0", "1") == "1"
    assert value(q, q.hom_m, "1", "0") == "0"


def test_lukasiewicz_tables():
    q = lukasiewicz_chain(2)
    assert q.elements[q.unit] == "2"
    assert value(q, q.tensor_m, "1", "1") == "0"
    assert value(q, q.tensor_m, "1", "2") == "1"
    assert value(q, q.hom_m, "2", "1") == "1"
    assert value(q, q.hom_m, "1", "0") == "1"


def test_powerset_frame_is_heyting():
    q = powerset_frame(2)
    assert q.elements[q.unit] == "{1,2}"
    assert value(q, q.tensor_m, "{1}", "{2}") == "{}"
    # hom(a,c) = complement(a) union c
    assert value(q, q.hom_m, "{1}", "{2}") == "{2}"
    assert value(q, q.hom_m, "{1}", "{1}") == "{1,2}"
    assert value(q, q.hom_m, "{}", "{}") == "{1,2}"


def test_antisymmetry_violation_is_an_error():
    spec = {"elements": ["a", "b"], "leq": [["a", "b"], ["b", "a"]],
            "tensor": {"a|a": "a", "a|b": "a", "b|a": "a", "b|b": "b"},
            "unit": "b"}
    with pytest.raises(ValidationError, match="antisymmetry"):
        build_quantale(spec)


# Orders that are not complete lattices, by how they fail.  Completeness is
# decided before the tensor is read, so no tensor is given.
TWO_MAXIMAL = {"elements": ["a", "b", "c"], "leq": [["c", "a"], ["c", "b"]],
               "tensor": {}, "unit": "a"}
TWO_MINIMAL = {"elements": ["a", "b", "c"], "leq": [["a", "c"], ["b", "c"]],
               "tensor": {}, "unit": "c"}
# 0 < a, b < c, d < 1: bounds, but {a, b} has two least upper bounds
BOWTIE = {"elements": ["0", "a", "b", "c", "d", "1"],
          "leq": [[x, y] for x, y in itertools.product("0ab", "cd1")]
          + [["0", "a"], ["0", "b"], ["c", "1"], ["d", "1"]],
          "tensor": {}, "unit": "1"}


def completeness(spec):
    check, = (c for c in check_quantale_laws(spec).checks
              if c.name == "lattice-completeness")
    return check.status, check.detail


@pytest.mark.parametrize("spec, missing", [
    # both 3-element orders lack a bound: the meet (join) of the empty set,
    # the first set a scan of all subsets by bitmask fails on
    (TWO_MAXIMAL, "{}"), (TWO_MINIMAL, "{}"),
    # with both bounds, the first pair in that scan's order
    (BOWTIE, "{a,b}")])
def test_incomplete_order_fails_lattice_completeness(spec, missing):
    assert completeness(spec) == (FAIL, "no join/meet for %s" % missing)


def test_incomplete_order_is_not_a_quantale():
    with pytest.raises(ValidationError,
                       match=r"^not a quantale: lattice-completeness "
                             r"\(no join/meet for \{\}\)$"):
        build_quantale(TWO_MINIMAL)


def test_completeness_holds_past_twelve_values():
    # 13 values: past the size where completeness was once scanned over
    # every subset, and held to the same law
    assert truncated_chain(11).n == 13
    status, detail = completeness({"builtin": "truncated_chain", "n": 11})
    assert status == PASS and "169" in detail


def test_missing_tensor_entry_is_an_error():
    spec = {k: v for k, v in BOOLEAN_SPEC.items()}
    spec["tensor"] = {"0|0": "0", "0|1": "0", "1|1": "1"}
    with pytest.raises(ValidationError, match="tensor-total"):
        build_quantale(spec)


@pytest.mark.parametrize("n", [2.0, True, "2", None])
def test_builtin_family_needs_an_integer_n(n):
    message = "truncated_chain needs an integer n, got %r" % n
    spec = {"builtin": "truncated_chain", "n": n}
    rep = check_quantale_laws(spec)
    assert [(c.name, c.status, c.detail) for c in rep.checks] == \
        [("well-formed", "fail", message)]
    for build in (lambda: truncated_chain(n), lambda: build_quantale(spec)):
        with pytest.raises(InputError) as err:
            build()
        assert str(err.value) == message


def test_equal_specs_give_one_quantale():
    spec = {"elements": ["no", "yes"], "leq": [["no", "yes"]],
            "tensor": {"no|no": "no", "no|yes": "no", "yes|no": "no",
                       "yes|yes": "yes"},
            "unit": "yes"}
    q = build_quantale(spec)
    assert build_quantale(copy.deepcopy(spec)) is q
    assert quantale_from_doc(spec, "<doc>") is q
    # the object keeps its own copy of the spec
    spec["unit"] = "no"
    assert q.spec["unit"] == "yes"
    # extra keys of a builtin do not make a second object
    assert build_quantale({"builtin": "boolean", "n": 5}) is boolean_quantale()


def test_union_tensor_on_frame_fails_unit_law():
    # redefining the frame tensor as union breaks the unit (full set absorbs)
    base = {"builtin": "powerset_frame", "n": 2}
    spec = dict(_expand(base))
    ix = {e: i for i, e in enumerate(spec["elements"])}
    def union(a, b):
        sa = set(a.strip("{}").split(",")) - {""}
        sb = set(b.strip("{}").split(",")) - {""}
        u = sorted(sa | sb)
        return "{%s}" % ",".join(u)
    spec["tensor"] = {"%s|%s" % (a, b): union(a, b)
                      for a in spec["elements"] for b in spec["elements"]}
    rep = check_quantale_laws(spec)
    assert not rep.ok
    assert any(c.name == "tensor-unit" and c.status == "fail" for c in rep.checks)


def _expand(spec):
    from tvcat.quantale import _builtin_spec
    if "builtin" in spec:
        return _builtin_spec(spec["builtin"], spec.get("n"))
    return spec


def test_every_boolean_tensor_mutation_is_caught():
    for key in BOOLEAN_SPEC["tensor"]:
        for wrong in ("0", "1"):
            if wrong == BOOLEAN_SPEC["tensor"][key]:
                continue
            spec = dict(BOOLEAN_SPEC)
            spec["tensor"] = dict(BOOLEAN_SPEC["tensor"], **{key: wrong})
            rep = check_quantale_laws(spec)
            assert not rep.ok, "mutation %s->%s slipped through" % (key, wrong)


# ---------------------------------------------------------------------------
# V-relations
# ---------------------------------------------------------------------------

X = FinSet(["x1", "x2"])
Y = FinSet(["y1", "y2"])
Z = FinSet(["z1"])


def all_relations(q, A, B):
    cells = len(A) * len(B)
    for combo in itertools.product(range(q.n), repeat=cells):
        rows = [combo[i * len(B):(i + 1) * len(B)] for i in range(len(A))]
        yield VRelation(q, A, B, rows)


def test_composition_and_identity():
    q = boolean_quantale()
    r = VRelation(q, X, Y, [[1, 0], [0, 1]])
    assert (r @ VRelation.identity(q, X)) == r
    assert (VRelation.identity(q, Y) @ r) == r


def test_involution_is_contravariant():
    q = boolean_quantale()
    for r in all_relations(q, X, Y):
        for s in all_relations(q, Y, Z):
            assert (s @ r).T == (r.T @ s.T)


def test_from_fn_graph():
    q = boolean_quantale()
    f = fn_from_dict(X, Y, {"x1": "y2", "x2": "y2"})
    g = VRelation.from_fn(q, f)
    assert entry(g, "x1", "y2") == "1"
    assert entry(g, "x1", "y1") == "0"
    with pytest.raises(InputError, match="not total"):
        fn_from_dict(X, Y, {"x1": "y1"})


def test_residuals_against_brute_force_boolean():
    q = boolean_quantale()
    rels_xy = list(all_relations(q, X, Y))
    rels_xz = list(all_relations(q, X, Z))
    for r in rels_xy:
        for t in rels_xz:
            best = residual_left(t, r)
            sols = [s for s in all_relations(q, Y, Z) if (s @ r) <= t]
            assert (best @ r) <= t
            assert all(s <= best for s in sols)
            assert best in sols


def test_residuals_against_brute_force_chain():
    q = truncated_chain(1)
    A = FinSet(["a"])
    B = FinSet(["b1", "b2"])
    C = FinSet(["c"])
    for r in all_relations(q, A, B):
        for t in all_relations(q, A, C):
            best = residual_left(t, r)
            sols = [s for s in all_relations(q, B, C) if (s @ r) <= t]
            assert best in sols and all(s <= best for s in sols)


def test_residual_by_identity_is_identity():
    q = lukasiewicz_chain(2)
    for t in itertools.islice(all_relations(q, X, Y), 0, 40, 7):
        assert residual_left(t, VRelation.identity(q, X)) == t


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4 ** 4 - 1), st.integers(0, 4 ** 4 - 1),
       st.integers(0, 4 ** 2 - 1))
def test_composition_associative_chain(ra, sa, ta):
    q = truncated_chain(2)
    def unpack(code, rows, cols):
        vals = []
        for _ in range(rows * cols):
            vals.append(code % 4)
            code //= 4
        return [vals[i * cols:(i + 1) * cols] for i in range(rows)]
    r = VRelation(q, X, Y, unpack(ra, 2, 2))
    s = VRelation(q, Y, X, unpack(sa, 2, 2))
    t = VRelation(q, X, Z, unpack(ta, 2, 1))
    assert ((t @ s) @ r) == (t @ (s @ r))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4 ** 4 - 1), st.integers(0, 4 ** 4 - 1),
       st.integers(0, 4 ** 4 - 1))
def test_composition_distributes_over_join(ra, sa, sb):
    q = truncated_chain(2)
    def unpack(code):
        vals = []
        for _ in range(4):
            vals.append(code % 4)
            code //= 4
        return [vals[:2], vals[2:]]
    r = VRelation(q, X, Y, unpack(ra))
    s1 = VRelation(q, Y, X, unpack(sa))
    s2 = VRelation(q, Y, X, unpack(sb))
    join = q.join_m
    assert (pointwise(join, s1, s2) @ r) \
        == pointwise(join, s1 @ r, s2 @ r)
