import pytest

from tvcat import lofs
from tvcat.core import (DEFAULT_MAX_SPACE, EngineError, Fn, InputError,
                        SizeCapError, ValidationError)
from tvcat.corpus import iso_representatives, seed_corpus
from tvcat.quantale import (boolean_quantale, lukasiewicz_chain,
                            powerset_frame, truncated_chain)
from tvcat.monad import instantiate_monad
from tvcat.category import (MEMO, TVFunctor, check_category, functor_leq,
                            identity_functor, is_fully_faithful, is_functor,
                            is_separated, star)
from tvcat.presheaf import (apply_P, mult_P, presheaf_space, saturated_class,
                            space_mult)
from tvcat.lofs import (AWFS_LAWS, _pi, _presheaf_rows, _sigma, check_awfs,
                        check_awfs_corpus, check_left_class, check_simplicity,
                        check_simplicity_corpus, check_subspace_fullness,
                        coalgebra, comma_factorise, comma_map,
                        enumerate_fillers, l_membership, lari,
                        r_membership, solve_lifting, wfs_cross_check)

from tvcat.report import FAIL, PASS, SKIP

from builders import (category_from_entries, discrete_category,
                      underlying_order)

BOOL = boolean_quantale()
ID = instantiate_monad("identity", BOOL)
UF = instantiate_monad("finite_ultrafilter", BOOL)
ALL = saturated_class("all")
REPR = saturated_class("representable")
ADJ = saturated_class("right_adjoint")


def chain_cat(M, labels, name):
    q = M.q
    entries = {(x, y): q.elements[q.unit]
               for i, x in enumerate(labels) for y in labels[i:]}
    return category_from_entries(M, labels, entries,
                                 default=q.elements[q.bottom], name=name)


PT = chain_cat(ID, ["p"], "pt")
TWO = chain_cat(ID, ["0", "1"], "two")
THREE = chain_cat(ID, ["0", "1", "2"], "three")
ANTI = discrete_category(ID, ["l", "r"], "anti")

TOP = TVFunctor(PT, TWO, Fn(PT.carrier, TWO.carrier, (1,)), "top")
BOT = TVFunctor(PT, TWO, Fn(PT.carrier, TWO.carrier, (0,)), "bot")
BANG = TVFunctor(TWO, PT, Fn(TWO.carrier, PT.carrier, (0, 0)), "bang")
BANG_A = TVFunctor(ANTI, PT, Fn(ANTI.carrier, PT.carrier, (0, 0)), "bang_a")
EMB = TVFunctor(TWO, THREE, Fn(TWO.carrier, THREE.carrier, (0, 2)), "emb")
FOLD = TVFunctor(ANTI, TWO, Fn(ANTI.carrier, TWO.carrier, (0, 1)), "fold")
COLLAPSE = TVFunctor(TWO, PT, Fn(TWO.carrier, PT.carrier, (0, 0)), "collapse")

SAMPLE_FNS = [TOP, BOT, BANG, EMB, FOLD, COLLAPSE,
              identity_functor(TWO), identity_functor(ANTI)]


def test_comma_of_point_into_chain():
    F = comma_factorise(TOP)
    assert F.K.carrier.elements == ("([0],0)", "([0],1)", "([1],1)")
    assert F.L.fn.table == (2,)
    assert F.R.fn.table == (0, 1, 1)
    assert F.q.fn.table == (0, 0, 1)
    assert ALL.contains(star(F.L))
    assert check_category(F.K).ok
    assert is_separated(F.K)
    assert underlying_order(F.K) == {
        (x, y) for i, x in enumerate(F.K.carrier.elements)
        for y in F.K.carrier.elements[i:]}


def test_density_is_decided_past_the_old_search_size():
    # constant onto the bottom c of a V-shaped order: K has 9 points, so a
    # search over the tables K -> X would try 3^9 of them
    X = discrete_category(ID, ["a", "b", "c"], "anti3")
    entries = {(x, x): "1" for x in "abc"}
    entries.update({("c", "a"): "1", ("c", "b"): "1"})
    Y = category_from_entries(ID, ["a", "b", "c"], entries, default="0",
                              name="vee")
    f = TVFunctor(X, Y, Fn(X.carrier, Y.carrier, (2, 2, 2)), "const")
    F = comma_factorise(f, REPR)
    assert len(X.carrier) ** len(F.K.carrier) == 3 ** 9
    assert REPR.contains(star(F.L))


def test_comma_legs_compose_and_project():
    for f in SAMPLE_FNS:
        F = comma_factorise(f)
        assert (F.R.fn @ F.L.fn) == f.fn
        assert is_fully_faithful(F.L)
        assert l_membership(F.L)


def test_coalgebra_exists_exactly_for_embeddings():
    assert coalgebra(comma_factorise(TOP)).fn.table == (0, 2)
    assert coalgebra(comma_factorise(EMB)).fn.table == (3, 4, 6)
    assert coalgebra(comma_factorise(COLLAPSE)) is None
    assert coalgebra(comma_factorise(FOLD)) is None


def test_comma_of_embedding_into_three_chain():
    F = comma_factorise(EMB)
    assert F.K.carrier.elements == (
        "([0,0],0)", "([0,0],1)", "([0,0],2)", "([1,0],0)", "([1,0],1)",
        "([1,0],2)", "([1,1],2)")
    assert F.L.fn.table == (3, 6)


def test_sigma_pi_frozen_tables():
    F = comma_factorise(TOP)
    FL = comma_factorise(F.L)
    FR = comma_factorise(F.R)
    sig = _sigma(FL)
    pi = _pi(F, FR)
    # sigma lands in K(Lf) as a section of its right leg; pi fixes the
    # right leg and projects to the space multiplication
    assert (FL.R.fn @ sig.fn) == Fn.identity(F.K.carrier)
    assert (F.R.fn @ pi.fn) == FR.R.fn
    pq = apply_P(F.q, ALL, DEFAULT_MAX_SPACE)
    mu = space_mult(TOP.src, ALL, DEFAULT_MAX_SPACE)
    assert (F.q.fn @ pi.fn) == (mu.fn @ pq.fn @ FR.q.fn)
    assert FL.K.carrier.elements == (
        "([0],([0],0))", "([0],([0],1))", "([0],([1],1))", "([1],([1],1))")
    assert sig.fn.table == (0, 1, 3)
    assert FR.K.carrier.elements == (
        "([0,0,0],0)", "([0,0,0],1)", "([1,0,0],0)", "([1,0,0],1)",
        "([1,1,0],1)", "([1,1,1],1)")
    assert pi.fn.table == (0, 1, 0, 1, 1, 2)


def test_pi_matches_the_multiplication_of_the_space_over_the_space():
    # mult . P(g) is one relation product (Yoneda); wherever the space over
    # P(X) fits, each use gives the table that space gives: pi's g = q over
    # the space of K(Rf)'s source, the simplicity adjoint's g = q over P(K),
    # and the LARI formula's g = q . s over P(Y)
    checked = []
    for q, size in ((BOOL, 3), (truncated_chain(2), 2)):
        _, fns = seed_corpus(instantiate_monad("identity", q), size)
        counts = {"pi": 0, "simplicity": 0, "lari-formula": 0}
        for f in iso_representatives(fns):
            try:
                F = comma_factorise(f, ALL, 512)
                old = space_mult(f.src, ALL, 512) @ apply_P(F.q, ALL, 512)
            except SizeCapError:
                continue
            FR = comma_factorise(F.R, ALL, 512)
            pi = _pi(F, FR)
            assert (F.q.fn @ pi.fn) == (old.fn @ FR.q.fn), f.name
            assert (F.R.fn @ pi.fn) == FR.R.fn, f.name
            counts["pi"] += 1
            PK = presheaf_space(F.K, ALL, 512)
            Q = _presheaf_rows(F.space, F.K.carrier, F.q.fn.table)
            assert mult_P(Q, PK, F.space) == list(old.fn.table)
            counts["simplicity"] += 1
            s = coalgebra(F)
            if s is None:
                continue
            PY = presheaf_space(f.dst, ALL, 512)
            qs = (F.q.fn @ s.fn).table
            ref = old @ apply_P(s, ALL, 512)
            QS = _presheaf_rows(F.space, f.dst.carrier, qs)
            assert mult_P(QS, PY, F.space) == list(ref.fn.table), f.name
            counts["lari-formula"] += 1
        checked.append(counts)
        MEMO.clear()
    assert checked == [{"pi": 263, "simplicity": 263, "lari-formula": 42},
                       {"pi": 63, "simplicity": 63, "lari-formula": 28}]


def test_left_class_caps_on_the_chain_are_spaces_over_spaces():
    # the LARI formula needs no space over K(f), so the only caps left are
    # P(P X) of the four largest corpus objects, which the density decision
    # of yoneda-in-left-class reaches
    cats, fns = seed_corpus(instantiate_monad("identity",
                                              truncated_chain(2)), 2)
    rep = check_left_class(cats, iso_representatives(fns), ALL, 512)
    MEMO.clear()
    rows = {c.name: c for c in rep.checks}
    assert (rows["lari-formula"].status, rows["lari-formula"].detail) == (
        PASS, "mult . P(q) . P(s) is the LARI section on 36 left maps")
    # the capped objects are not counted as decided
    assert (rows["yoneda-in-left-class"].status,
            rows["yoneda-in-left-class"].detail) == (
        PASS, "the unit is in the left class on 13 corpus objects")
    capped = [c for c in rep.checks if c.name == "capped"]
    assert [c.detail.split(":")[0] for c in capped] \
        == ["c2_09", "c2_10", "c2_13", "c2_14"]
    assert all("exceeds the cap of 512" in c.detail for c in capped)


def test_comonad_laws_are_never_capped_on_the_chain_corpus():
    # the comonad tower needs the space over the source only, so the
    # enumeration cap of 512 never binds on it
    _, fns = seed_corpus(instantiate_monad("identity", truncated_chain(2)), 2)
    comonad = {"comonad-counit-right", "comonad-counit-comma",
               "comonad-coassociativity"}
    reps = iso_representatives(fns)[::8]
    assert len(reps) == 27
    for f in reps:
        status = {c.name: c.status for c in check_awfs(f, ALL, 512).checks}
        assert {status[law] for law in comonad} == {PASS}, (f.name, status)
    MEMO.clear()


def test_perturbed_comultiplication_fails_the_laws():
    F = comma_factorise(TOP)
    FL = comma_factorise(F.L)
    sig = _sigma(FL)
    k_counit = comma_map(FL, F, identity_functor(PT), F.R)
    ident = Fn.identity(F.K.carrier)
    for k in range(len(F.K.carrier)):
        for wrong in range(len(FL.K.carrier)):
            if wrong == sig.fn.table[k]:
                continue
            table = list(sig.fn.table)
            table[k] = wrong
            bad = Fn(F.K.carrier, FL.K.carrier, tuple(table))
            assert ((FL.R.fn @ bad) != ident
                    or (k_counit.fn @ bad) != ident
                    or not is_functor(F.K, FL.K, bad))


def test_l_membership_matches_order_embeddings():
    embeddings = {"top", "bot", "emb", "fold", "id"}
    for f in SAMPLE_FNS:
        src = underlying_order(f.src)
        dst = underlying_order(f.dst)
        names = f.src.carrier.elements
        emb = all(((f(x), f(y)) in dst) == ((x, y) in src)
                  for x in names for y in names)
        assert l_membership(f) == emb


def test_r_membership_frozen():
    assert r_membership(BANG).fn.table == (0, 0, 1)
    assert r_membership(BANG_A) is None
    assert r_membership(identity_functor(THREE)) is not None
    assert r_membership(TOP) is None


def identity_reps(q, size):
    cats, fns = seed_corpus(instantiate_monad("identity", q), size)
    return cats, iso_representatives(fns)


def test_free_algebra_is_the_tower_multiplication():
    # R(f) is a free algebra, so its algebra is pi.  K(R f) has 1075 points
    # at c3_00>c3_07#26: a search that recurses once per point overflows
    # the interpreter's stack there
    built, largest = [], None
    for q, size, cap in ((BOOL, 3, DEFAULT_MAX_SPACE),
                         (truncated_chain(2), 2, 512)):
        _, reps = identity_reps(q, size)
        for cls in (ALL, REPR):
            legs = 0
            for f in reps:
                F = comma_factorise(f, cls, cap)
                try:
                    FR = comma_factorise(F.R, cls, cap)
                except SizeCapError:
                    continue
                assert r_membership(F.R, cls, cap).fn == _pi(F, FR).fn, f.name
                legs += 1
                if f.name == "c3_00>c3_07#26" and cls is ALL:
                    largest = len(FR.K.carrier)
            built.append(legs)
            MEMO.clear()
    assert built == [264, 265, 64, 216]
    assert largest == 1075


def algebra_without_fibre_test(F):
    K, Z = F.K, F.f.src
    points = {row: z for z, row in enumerate(Z.structure.rows)}
    table = [points.get(bytes(map(row.__getitem__, F.L.fn.table)))
             for row in K.structure.rows]
    if None in table:
        return None
    return TVFunctor(K, Z, Fn(K.carrier, Z.carrier, table), "alg")


def algebra_from_presheaf_homs(F):
    # hom(phi, y z) alone, without the meet with Y(y, g z)
    K, Z = F.K, F.f.src
    points = {row: z for z, row in enumerate(Z.structure.rows)}
    units = [F.q.fn.table[u] for u in F.L.fn.table]
    homs = F.space.category.structure.rows
    table = []
    for ip, y in F.pairs:
        z = points.get(bytes(map(homs[ip].__getitem__, units)))
        if z is None or F.f.fn.table[z] != y:
            return None
        table.append(z)
    return TVFunctor(K, Z, Fn(K.carrier, Z.carrier, table), "alg")


def right_class_row(cats, fns, cls=ALL):
    MEMO.clear()
    rep = wfs_cross_check(cats, fns, cls)
    MEMO.clear()
    return {c.name: c for c in rep.checks}["right-class-is-cocomplete"]


@pytest.mark.parametrize("mutant, q, size, wrong", [
    (algebra_without_fibre_test, BOOL, 3, 21),
    (algebra_without_fibre_test, truncated_chain(2), 2, 6),
    (algebra_from_presheaf_homs, BOOL, 3, 10),
    (algebra_from_presheaf_homs, truncated_chain(2), 2, 9)])
def test_the_search_catches_a_wrong_algebra(monkeypatch, mutant, q, size,
                                            wrong):
    cats, reps = identity_reps(q, size)
    monkeypatch.setattr(lofs, "_algebra", mutant)
    row = right_class_row(cats, reps)
    assert row.status == FAIL
    assert len(row.detail.split(", ")) == wrong


@pytest.mark.parametrize("q, size, cls, detail", [
    (BOOL, 3, ALL, "265 maps, 3 of 9 objects complete"),
    (powerset_frame(2), 2, ADJ, "206 maps, 6 of 11 objects complete")])
def test_complete_objects(q, size, cls, detail):
    cats, reps = identity_reps(q, size)
    row = right_class_row(cats, reps, cls)
    assert (row.status, row.detail) == (
        PASS, "algebra = least retraction of the unit on " + detail)


def test_the_complete_lattices_on_three_points_are_the_chains():
    # the empty poset has no bottom; the other posets lack a top or a join
    _, reps = identity_reps(BOOL, 3)
    objects = [f.src for f in reps if len(f.dst.carrier) == 1]
    assert len(objects) == 9
    assert [Z.name for Z in objects if lofs._complete_lattice(Z)] \
        == ["c1_00", "c2_01", "c3_07"]


def test_solve_lifting_canonical_and_least():
    u = TVFunctor(PT, TWO, Fn(PT.carrier, TWO.carrier, (1,)), "u")
    v = TVFunctor(TWO, PT, Fn(TWO.carrier, PT.carrier, (0, 0)), "v")
    d = solve_lifting(TOP, BANG, u, v)
    assert d.fn.table == (0, 1)
    fillers = enumerate_fillers(TOP, BANG, u, v)
    assert [e.fn.table for e in fillers] == [(0, 1), (1, 1)]
    assert all(functor_leq(d, e) for e in fillers)


def test_solve_lifting_rejects_outsiders():
    u = TVFunctor(TWO, PT, Fn(TWO.carrier, PT.carrier, (0, 0)), "u")
    v = TVFunctor(PT, PT, Fn(PT.carrier, PT.carrier, (0,)), "v")
    with pytest.raises(ValidationError):
        solve_lifting(COLLAPSE, identity_functor(PT), u, v)
    u2 = TVFunctor(PT, ANTI, Fn(PT.carrier, ANTI.carrier, (0,)), "u2")
    v2 = TVFunctor(TWO, PT, Fn(TWO.carrier, PT.carrier, (0, 0)), "v2")
    with pytest.raises(ValidationError):
        solve_lifting(TOP, BANG_A, u2, v2)


def test_lifting_square_corners_are_categories_not_labels():
    # A discrete and A2 the chain a <= b, on the same labels: the carriers
    # of every corner match, the categories at f's source and u's do not
    A = discrete_category(ID, ["a", "b"], "A")
    A2 = chain_cat(ID, ["a", "b"], "A2")
    ident = Fn.identity(A.carrier)
    f = TVFunctor(A, A, ident, "f")
    u = TVFunctor(A2, A2, ident, "u")
    g = TVFunctor(A2, A2, ident, "g")
    v = TVFunctor(A, A2, ident, "v")
    for search in (solve_lifting, enumerate_fillers):
        with pytest.raises(InputError, match="does not share its corners"):
            search(f, g, u, v)
    # the same square with u on A is accepted
    u = TVFunctor(A, A2, ident, "u")
    assert [d.fn.table for d in enumerate_fillers(f, g, u, v)] == [(0, 1)]


def test_filler_lies_between_its_own_squares_categories():
    # equal squares under other names: each filler is built on its own
    # square's categories and named after its own top and bottom
    for names in (("pt", "two", "u"), ("point", "arrow", "w")):
        pt = chain_cat(ID, ["p"], names[0])
        two = chain_cat(ID, ["0", "1"], names[1])
        top = TVFunctor(pt, two, Fn(pt.carrier, two.carrier, (1,)), names[2])
        ident = identity_functor(two)
        d = solve_lifting(top, ident, top, ident)
        assert d.fn.table == (0, 1)
        assert d.name == "filler(%s,id)" % names[2]
        assert d.src is top.dst and d.dst is ident.src


def test_comma_map_requires_commuting_square():
    # swap . top and top . id differ at p: every entry point refuses the
    # square by the one check, naming the point
    F = comma_factorise(TOP)
    ident = identity_functor(PT)
    swap = TVFunctor(TWO, TWO, Fn(TWO.carrier, TWO.carrier, (1, 0)), "swap")
    message = r"^lifting square \(id, swap\) does not commute at p$"
    with pytest.raises(ValidationError, match=message):
        comma_map(F, F, ident, swap)
    for search in (solve_lifting, enumerate_fillers):
        with pytest.raises(ValidationError, match=message):
            search(TOP, TOP, ident, swap)


def test_comma_map_names_the_map_and_the_point_on_a_miss(monkeypatch):
    # a P(u) that sends [0] to [1] takes the pair ([0],0) to ([1],0), which
    # is not in K(top): the image of [1] is not below b(-, 0)
    F = comma_factorise(TOP)
    real = lofs.apply_P

    def broken(u, *args):
        pu = real(u, *args)
        table = (1,) + pu.fn.table[1:]
        return TVFunctor(pu.src, pu.dst,
                         Fn(pu.src.carrier, pu.dst.carrier, table), pu.name)

    monkeypatch.setattr(lofs, "apply_P", broken)
    with pytest.raises(EngineError, match=r"^K\(id,id\) sends "
                       r"\(\[0\],0\) outside K\(top\)$"):
        comma_map(F, F, identity_functor(PT), identity_functor(TWO))


def test_awfs_laws_on_boolean_morphisms():
    for f in [TOP, BOT, BANG, EMB, FOLD, identity_functor(ANTI)]:
        rep = check_awfs(f)
        assert rep.ok, rep.failures
        assert {c.name for c in rep.checks} >= {
            "comonad-counit-right", "comonad-coassociativity",
            "monad-unit-left", "monad-associativity",
            "distributivity-1", "distributivity-2"}


def test_awfs_laws_for_restricted_classes():
    for cls in (REPR, ADJ):
        rep = check_awfs(BOT, cls)
        assert rep.ok, rep.failures


def test_awfs_laws_with_ultrafilter_monad():
    pt = chain_cat(UF, ["p"], "pt_uf")
    two = chain_cat(UF, ["0", "1"], "two_uf")
    f = TVFunctor(pt, two, Fn(pt.carrier, two.carrier, (1,)), "top_uf")
    rep = check_awfs(f)
    assert rep.ok, rep.failures
    F = comma_factorise(f)
    assert F.K.carrier.elements == ("([0],0)", "([0],1)", "([1],1)")


def test_comma_structure_is_charged_against_the_work_budget(monkeypatch):
    # K(1_two) has 5 pairs, so 25 structure cells; the space under it has 3
    # presheaves on 2 points, 18 cells: a budget of 20 admits the space
    # and refuses the comma object before its structure is built
    ident = identity_functor(TWO)
    monkeypatch.setattr("tvcat.presheaf.STRUCTURE_WORK_CAP", 20)
    MEMO.clear()
    try:
        assert len(presheaf_space(TWO)) == 3
        rep = check_awfs(ident)
    finally:
        MEMO.clear()
    reason = "comma object of id has 5 pairs: its structure is past the " \
        "work budget"
    assert [(c.status, c.detail) for c in rep.checks] \
        == [(SKIP, reason)] * len(AWFS_LAWS)


def test_awfs_laws_on_chain_quantales():
    q = truncated_chain(2)
    M = instantiate_monad("identity", q)
    Y = category_from_entries(M, ["y0", "y1"],
                              {("y0", "y0"): "0", ("y1", "y1"): "0",
                               ("y0", "y1"): "1"},
                              default="inf", name="asym")
    P = category_from_entries(M, ["x"], {("x", "x"): "0"}, default="inf",
                              name="ptc")
    f = TVFunctor(P, Y, Fn(P.carrier, Y.carrier, (1,)), "into")
    F = comma_factorise(f)
    assert F.K.carrier.elements == (
        "([0],y1)", "([1],y1)", "([2],y1)", "([inf],y0)", "([inf],y1)")
    rep = check_awfs(f)
    assert rep.ok, rep.failures
    assert {c.name: c.status for c in rep.checks}["monad-unit-left"] == "pass"

    ml = instantiate_monad("identity", lukasiewicz_chain(2))
    ptl = category_from_entries(ml, ["x"],
                                {("x", "x"): ml.q.elements[ml.q.unit]},
                                default="0", name="ptl")
    rep = check_awfs(identity_functor(ptl))
    assert rep.ok, rep.failures
    assert {c.name: c.status for c in rep.checks}["distributivity-1"] == "pass"


def test_simplicity_of_the_left_leg():
    for f in [TOP, EMB, FOLD, BANG]:
        rep = check_simplicity(f)
        assert rep.ok, rep.failures
    for cls in (REPR, ADJ):
        rep = check_simplicity(BOT, cls)
        assert rep.ok, rep.failures


def test_lari_frozen_and_matches_membership():
    assert lari(TOP).fn.table == (0, 0, 1)
    assert lari(COLLAPSE) is None
    assert lari(BOT, REPR) is not None
    assert lari(TOP, REPR) is None
    assert l_membership(BOT, REPR) and not l_membership(TOP, REPR)


def reference_lari(f, cls=ALL, max_space=DEFAULT_MAX_SPACE):
    """`lari` with every order test read cell by cell through `leq_m`:
    the loops that the down-set codes replaced."""
    PX = presheaf_space(f.src, cls, max_space)
    PY = presheaf_space(f.dst, cls, max_space)
    pf = apply_P(f, cls, max_space)
    q = f.src.q
    table = []
    for psi in PY.presheaves:
        cands = [ip for ip in range(len(PX))
                 if all(q.leq_m[a][b] for a, b in
                        zip(PY.presheaves[pf.fn.table[ip]], psi))]
        greatest = None
        for c in cands:
            cv = PX.presheaves[c]
            if all(all(q.leq_m[a][b] for a, b in zip(PX.presheaves[other], cv))
                   for other in cands):
                greatest = c
                break
        if greatest is None:
            return None
        table.append(greatest)
    fn = Fn(PY.carrier, PX.carrier, table)
    if not (fn @ pf.fn).is_identity():
        return None
    if not is_functor(PY.category, PX.category, fn):
        return None
    out = TVFunctor(PY.category, PX.category, fn, "lari(%s)" % f.name)
    if not functor_leq(pf @ out, identity_functor(PY.category)):
        return None
    return out


@pytest.mark.parametrize("q, size, sample", [
    (BOOL, 3, None), (truncated_chain(2), 2, None),
    # ten values: each cell's code takes two bytes
    (truncated_chain(8), 2, 60)],
    ids=["boolean", "truncated_chain(2)", "truncated_chain(8)"])
def test_lari_matches_the_cellwise_reference(q, size, sample):
    _, fns = seed_corpus(instantiate_monad("identity", q), size)
    reps = iso_representatives(fns)
    if sample:
        reps = reps[::len(reps) // sample]
    sections = []
    for cls in (ALL, REPR):
        for f in reps:
            got, want = lari(f, cls), reference_lari(f, cls)
            assert (got and got.fn.table) == (want and want.fn.table), (
                cls.name, f.name)
            sections.append(got is not None)
    MEMO.clear()
    # both answers occur
    assert any(sections) and not all(sections)


def test_left_class_suite():
    cats = [PT, TWO, THREE, ANTI]
    for cls in (ALL, REPR, ADJ):
        rep = check_left_class(cats, SAMPLE_FNS, cls)
        assert rep.ok, rep.failures


@pytest.mark.parametrize("cls", [ALL, REPR, ADJ], ids=lambda c: c.name)
def test_left_class_rows_that_decide_nothing_are_skips(cls):
    # at cap 1 every tower over a 2-point category is refused, so no row
    # that builds towers decides anything
    cats, fns = seed_corpus(ID, 2)
    cats = [C for C in cats if len(C.carrier) == 2]
    reps = [f for f in iso_representatives(fns) if len(f.src.carrier) == 2]
    MEMO.clear()
    try:
        rep = check_left_class(cats, reps, cls, 1)
    finally:
        MEMO.clear()
    rows = {c.name: c for c in rep.checks}
    towers = ["lari-description", "coalgebra-description", "lari-formula",
              "yoneda-in-left-class"]
    if cls is not ALL:
        towers.append("submonad-coherence")
    # each quotes the first item the cap stopped, a trailing capped row
    capped = {c.detail for c in rep.checks if c.name == "capped"}
    first = "no item decided; first capped "
    for name in towers:
        assert rows[name].status == SKIP, name
        assert rows[name].detail.startswith(first), name
        assert rows[name].detail[len(first):] in capped, name
        assert "cap of 1" in rows[name].detail, name
    # a scan that builds no tower still decides
    assert rows["fully-faithful-is-full"].status == PASS
    assert any(c.name == "capped" for c in rep.checks)
    # with nothing capped, a row that counts no item passes on 0
    rows = {c.name: c for c in check_left_class([PT], [COLLAPSE], cls).checks}
    assert (rows["lari-formula"].status, rows["lari-formula"].detail) == (
        PASS, "mult . P(q) . P(s) is the LARI section on 0 left maps")


def test_lari_formula_fails_a_member_without_a_coalgebra(monkeypatch):
    # EMB is in the left class; with no coalgebra the formula has nothing
    # to compare, and the row fails naming it instead of raising
    monkeypatch.setattr(lofs, "coalgebra", lambda F: None)
    MEMO.clear()
    try:
        rep = check_left_class([TWO, THREE], [EMB, TOP, BANG], ALL)
    finally:
        MEMO.clear()
    rows = {c.name: c for c in rep.checks}
    assert (rows["lari-formula"].status, rows["lari-formula"].detail) \
        == (FAIL, "failing: emb, top")
    assert rows["coalgebra-description"].status == FAIL
    assert rows["lari-description"].status == PASS


def test_subspace_fullness():
    cats = [PT, TWO, THREE, ANTI]
    for cls in (REPR, ADJ):
        rep = check_subspace_fullness(cats, cls)
        assert rep.ok, rep.failures


def test_wfs_cross_check_suite():
    rep = wfs_cross_check([PT, TWO, ANTI], SAMPLE_FNS)
    assert rep.ok, rep.failures
    by_name = {c.name: c for c in rep.checks}
    assert "lifting problems solved" in by_name[
        "liftings-exist-and-are-least"].detail


def test_wfs_cross_check_restricted_class():
    rep = wfs_cross_check([PT, TWO], [TOP, BOT, BANG, identity_functor(TWO)],
                          REPR)
    assert rep.ok, rep.failures
    names = {c.name for c in rep.checks}
    assert "left-class-is-laris" in names


def test_left_class_is_the_fully_faithful_maps_on_a_chain_quantale():
    # on a many-valued chain, comparing underlying orders is weaker than
    # fully faithful: the size-2 corpus has maps that are order embeddings
    # without being fully faithful
    M = instantiate_monad("identity", truncated_chain(2))
    cats, fns = seed_corpus(M, 2)
    rep = wfs_cross_check(cats, iso_representatives(fns))
    check = {c.name: c for c in rep.checks}["left-class-is-embeddings"]
    assert check.status == PASS, check.detail


def test_corpus_aggregators():
    rep = check_awfs_corpus([TOP, EMB, FOLD])
    assert rep.ok, rep.failures
    assert len(rep.checks) == 8
    by_name = {c.name: c for c in rep.checks}
    assert "held on 3 morphisms" in by_name["distributivity-1"].detail
    rep = check_simplicity_corpus([TOP, EMB])
    assert rep.ok, rep.failures
    assert len(rep.checks) == 2


def test_lifting_with_empty_source():
    empty = discrete_category(ID, [], name="empty")
    f = TVFunctor(empty, TWO, Fn(empty.carrier, TWO.carrier, []), name="never")
    u = TVFunctor(empty, TWO, Fn(empty.carrier, TWO.carrier, []), name="none")
    v = TVFunctor(TWO, PT, Fn(TWO.carrier, PT.carrier, [0, 0]), name="squash")
    d = solve_lifting(f, BANG, u, v)
    assert d.fn.table == (0, 0)
    fillers = enumerate_fillers(f, BANG, u, v)
    assert d.fn.table == fillers[0].fn.table
    assert len(fillers) == 3
