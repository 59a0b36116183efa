"""Zoo family tests: oracles computed by hand or by independent routes."""

import random

import pytest

from algebroids.algebroid import (DullAlgebroid, LinearConnection,
                                  bracket_eval, check_algebroid, side_B,
                                  tangent_algebroid)
from algebroids.bialgebroid import (bialgebroid_from_triple,
                                    bialgebroids_equivalent, check_la_dirac,
                                    check_manin_pair, verify_appendix_lemmas)
from algebroids.bundles import (Frame, Section, Subbundle, apply_matrix,
                                random_section)
from algebroids.cartan import cotangent, tangent
from algebroids.dorfman import check_dorfman_axioms
from algebroids.reporting import CheckConfig
from algebroids.scalars import Patch
from algebroids import bundles, cli, zoo

LIGHT = CheckConfig(seed=0, trials=4, max_degree=1)


def xy():
    return Patch(["x", "y"])


def names(results, status="fail"):
    return [r.name for r in results if r.status == status]


# -- Koszul bracket and Lie bialgebroid double ------------------------------


def test_koszul_bracket_oracle():
    # pi = x d/dx ^ d/dy: by hand [dx, dy] = L_{pi dx} dy - L_{pi dy} dx
    # - d(pi(dx, dy)) = d(x) + d(x) - d(x) = dx, and pi-sharp dx = x d/dy.
    patch = xy()
    pi = zoo.bivector_matrix(patch, {(0, 1): "x"})
    ks = zoo.koszul_algebroid(patch, pi)
    br = ks.bracket[0][1]
    assert str(br.components[0]) == "1"
    assert br.components[1].is_zero()
    assert ks.bracket[1][0].components[0] == -patch.one
    assert ks.anchored.anchor[0][0].is_zero()
    assert str(ks.anchored.anchor[1][0]) == "x"
    assert str(ks.anchored.anchor[0][1]) == "-x"


def test_koszul_non_poisson_fails_jacobi():
    # pi = y d/dx ^ d/dy + d/dy ^ d/dz has [pi, pi] != 0, so the Koszul
    # bracket cannot satisfy Jacobi.
    patch = Patch(["x", "y", "z"])
    pi = zoo.bivector_matrix(patch, {(0, 1): "y", (1, 2): "1"})
    ks = zoo.koszul_algebroid(patch, pi)
    res = check_algebroid(ks, LIGHT, prefix="koszul")
    assert "koszul.jacobi" in names(res)


def test_lie_bialgebroid_certificate():
    patch = xy()
    lb = zoo.poisson_bialgebroid(patch, zoo.bivector_matrix(patch, {(0, 1): "x"}))
    res = zoo.check_lie_bialgebroid(lb, LIGHT)
    assert not names(res)
    assert len(res) == 12


def test_lie_bialgebroid_skips_double_when_one_side_fails():
    patch = Patch(["x", "y", "z"])
    pi = zoo.bivector_matrix(patch, {(0, 1): "y", (1, 2): "1"})
    lb = zoo.poisson_bialgebroid(patch, pi)
    res = zoo.check_lie_bialgebroid(lb, LIGHT)
    assert "lie_bialgebroid.Astar.jacobi" in names(res)
    skipped = names(res, "skipped")
    assert skipped == ["lie_bialgebroid.double"]


def test_double_bracket_matches_direct_evaluator():
    # Independent route: evaluate the bracket on the double directly from
    # the Cartan operations, not from the frame table's Leibniz extension.
    patch = xy()
    lb = zoo.poisson_bialgebroid(patch, zoo.bivector_matrix(patch, {(0, 1): "x"}))
    C = zoo.courant_double(lb)
    A, As = lb.alg_A, lb.alg_Astar
    r = lb.rank

    def direct(c1, c2):
        a1 = Section(A.bundle, c1.components[:r])
        al1 = Section(As.bundle, c1.components[r:])
        a2 = Section(A.bundle, c2.components[:r])
        al2 = Section(As.bundle, c2.components[r:])
        apart = (bracket_eval(A, a1, a2) + zoo.lie_deriv_dual(As, al1, a2)
                 - zoo.interior_d_dual(As, al2, a1))
        aspart = (bracket_eval(As, al1, al2) + zoo.lie_deriv_dual(A, a1, al2)
                  - zoo.interior_d_dual(A, a2, al1))
        return Section(C.bundle, list(apart.components) + list(aspart.components))

    rng = random.Random(7)
    for _ in range(4):
        c1 = random_section(C.bundle, rng, 1)
        c2 = random_section(C.bundle, rng, 1)
        assert (C.bracket(c1, c2) - direct(c1, c2)).is_zero()


def test_double_differential_oracle():
    # D(x) = (d_* x, d x) = (pi-sharp dx in the A slot, dx in the A* slot).
    patch = xy()
    lb = zoo.poisson_bialgebroid(patch, zoo.bivector_matrix(patch, {(0, 1): "x"}))
    C = zoo.courant_double(lb)
    got = [str(v) for v in C.D_of(patch.coordinate(0)).components]
    assert got == ["0", "-x", "1", "0"]


def test_anchor_anomaly_vanishes_for_poisson_pair():
    patch = xy()
    lb = zoo.poisson_bialgebroid(patch, zoo.bivector_matrix(patch, {(0, 1): "x*y"}))
    anomaly = zoo.anchor_anomaly(lb)
    assert all(v.is_zero() for row in anomaly for v in row)


def test_transpose_intertwining_is_bialgebroid_specific():
    # The law rho_*^t L_{rho(a)} theta = [a, rho_*^t theta] - i_{rho^t theta}
    # d_* a needs the Koszul bracket on the dual side; keeping the anchor but
    # dropping the bracket must break the identity for pi = x d/dx ^ d/dy.
    patch = xy()
    pi = zoo.bivector_matrix(patch, {(0, 1): "x"})
    lb = zoo.poisson_bialgebroid(patch, pi)
    res = zoo.check_poisson_extras(lb, LIGHT)
    assert not names(res)
    zero = lb.alg_Astar.bundle.zero_section()
    abelian = DullAlgebroid(lb.alg_Astar.anchored,
                            [[zero, zero], [zero, zero]])
    res = zoo.check_poisson_extras(zoo.LieBialgebroidData(lb.alg_A, abelian),
                                   LIGHT)
    assert "poisson.transpose_intertwine" in names(res)


# -- Adapted Dorfman connection for Poisson pairs ---------------------------


def test_adapted_dorfman_poisson_table_oracles():
    patch = xy()
    lb = zoo.poisson_bialgebroid(patch, zoo.bivector_matrix(patch, {(0, 1): "x"}))
    D = zoo.adapted_dorfman_poisson(lb)
    dim, r = patch.dim, lb.rank
    # flat base connection: coordinate directions act trivially on frames
    for i in range(dim):
        for j in range(r + dim):
            assert D.table[i][j].is_zero()
    # T*M columns vanish identically
    for i in range(dim + r):
        for k in range(dim):
            assert D.table[i][r + k].is_zero()
    # by hand: Delta_{(0, eps_1)}(e_0, 0) has A part with component k equal
    # to ([eps_k, eps_1]_pi)_0, i.e. (d pi^{k1})_0 = (1, 0) for pi^{01} = x.
    entry = D.table[dim + 1][0]
    assert [str(v) for v in entry.components] == ["1", "0", "0", "0"]
    res = check_dorfman_axioms(D, LIGHT, prefix="adapted_dorfman")
    assert not names(res)


def test_poisson_triple_certificates():
    patch = xy()
    lb = zoo.poisson_bialgebroid(patch, zoo.bivector_matrix(patch, {(0, 1): "x"}))
    triple = zoo.poisson_triple(lb)
    res = check_la_dirac(triple, LIGHT)
    res += verify_appendix_lemmas(triple, LIGHT)
    assert not names(res)


def test_poisson_dual_restriction_transports_koszul():
    # the induced bracket on the graph of pi-sharp is the Koszul bracket
    patch = xy()
    lb = zoo.poisson_bialgebroid(patch, zoo.bivector_matrix(patch, {(0, 1): "x"}))
    res = zoo.check_poisson_extras(lb, LIGHT)
    got = [r for r in res if r.name == "poisson.dual_restriction"]
    assert got and got[0].status == "pass"


def test_poisson_manin_pair_and_round_trip():
    patch = xy()
    lb = zoo.poisson_bialgebroid(patch, zoo.bivector_matrix(patch, {(0, 1): "x"}))
    db, mp = zoo.bialgebroid_from_lie_bialgebroid(lb, LIGHT)
    res = check_manin_pair(mp, LIGHT)
    assert not names(res)
    triple = zoo.poisson_triple(lb)
    db2 = bialgebroid_from_triple(triple)
    res = bialgebroids_equivalent(db, db2, LIGHT, prefix="round_trip")
    assert not names(res)


def test_non_poisson_rejected_by_verified_constructor():
    patch = Patch(["x", "y", "z"])
    pi = zoo.bivector_matrix(patch, {(0, 1): "y", (1, 2): "1"})
    lb = zoo.poisson_bialgebroid(patch, pi)
    with pytest.raises(ValueError, match="failing checks"):
        zoo.bialgebroid_from_lie_bialgebroid(lb, LIGHT)


# -- IM 2-forms --------------------------------------------------------------


def test_sigma_from_2form_oracle():
    # omega = dx ^ dy: sigma(d/dx) = i_{d/dx} omega = dy, sigma(d/dy) = -dx.
    patch = xy()
    omega = zoo.two_form_matrix(patch, {(0, 1): "1"})
    sigma = zoo.sigma_from_2form(patch, omega)
    assert [[str(v) for v in row] for row in sigma] == [["0", "-1"], ["1", "0"]]


def test_im2form_defects_for_closed_and_nonclosed():
    patch = xy()
    alg = tangent_algebroid(patch)
    sigma = zoo.sigma_from_2form(patch, zoo.two_form_matrix(patch, {(0, 1): "1"}))
    assert not names(zoo.check_im2form(alg, sigma, LIGHT))

    patch3 = Patch(["x", "y", "z"])
    alg3 = tangent_algebroid(patch3)
    omega = zoo.two_form_matrix(patch3, {(0, 1): "z"})
    sigma3 = zoo.sigma_from_2form(patch3, omega)
    res = zoo.check_im2form(alg3, sigma3, LIGHT)
    assert names(res) == ["im2form.bracket"]
    # by hand, the bracket residual on (d/dx, d/dy) is -dz
    d1, d2 = zoo.im2form_defects(alg3, sigma3,
                                 alg3.bundle.basis_section(0),
                                 alg3.bundle.basis_section(1))
    assert d1.is_zero()
    assert [str(v) for v in d2.components] == ["0", "0", "-1"]


def test_im2form_residual_equals_morphism_defect():
    # Dual route for the same obstruction: the embedding Phi(a, theta) =
    # (rho a, sigma a + theta) into the standard Courant algebroid fails to
    # be bracket preserving by exactly (0, -bracket_residual), on closed
    # and non-closed instances alike.
    for coords, entries in ((["x", "y"], {(0, 1): "1"}),
                            (["x", "y", "z"], {(0, 1): "z"})):
        patch = Patch(coords)
        alg = tangent_algebroid(patch)
        omega = zoo.two_form_matrix(patch, entries)
        sigma = zoo.sigma_from_2form(patch, omega)
        db, mp = zoo.bialgebroid_from_im2form(alg, sigma)
        C = mp.C
        dim = patch.dim

        def phi(tau):
            return Section(C.bundle, apply_matrix(mp.Phi, tau.components, patch))

        B = tangent(patch)  # algebroid sections live over TM here
        for i in range(dim):
            for j in range(dim):
                a1, a2 = B.basis_section(i), B.basis_section(j)
                tau1 = Section(side_B(alg),
                               list(a1.components) + [patch.zero] * dim)
                tau2 = Section(side_B(alg),
                               list(a2.components) + [patch.zero] * dim)
                got = C.bracket(phi(tau1), phi(tau2))
                want_a = bracket_eval(alg, a1, a2)
                want = phi(Section(side_B(alg),
                                   list(want_a.components) + [patch.zero] * dim))
                defect = got - want
                _, d2 = zoo.im2form_defects(alg, sigma, a1, a2)
                assert all(v.is_zero() for v in defect.components[:dim])
                residual = Section(cotangent(patch), defect.components[dim:])
                assert (residual + d2).is_zero()


def test_presymplectic_triple_and_flip_round_trip():
    patch = xy()
    alg = tangent_algebroid(patch)
    sigma = zoo.sigma_from_2form(patch, zoo.two_form_matrix(patch, {(0, 1): "1"}))
    triple = zoo.presymplectic_triple(alg, sigma)
    res = check_la_dirac(triple, LIGHT)
    assert not names(res)
    db, mp = zoo.bialgebroid_from_im2form(alg, sigma)
    res = check_manin_pair(mp, LIGHT)
    assert not names(res)
    res = bialgebroids_equivalent(db, zoo.flip_astar(bialgebroid_from_triple(triple)),
                                  LIGHT, prefix="flip")
    assert not names(res)


# -- Infinitesimal ideal systems ---------------------------------------------


def foliation():
    patch = xy()
    alg = tangent_algebroid(patch)
    tm = tangent(patch)
    F = Subbundle(tm, Frame(tm, [tm.basis_section(0)]))
    J = Subbundle(alg.bundle, Frame(alg.bundle, [alg.bundle.basis_section(0)]))
    return alg, F, J


def test_iis_data_validates_shape():
    alg, F, J = foliation()
    conn = LinearConnection.flat(alg.bundle)
    other = Patch(["u"])
    bad_conn = LinearConnection.flat(tangent_algebroid(other).bundle)
    with pytest.raises(ValueError, match="connection"):
        zoo.IISData(alg, F, J, bad_conn)
    # a connection not preserving J along F_M is rejected up front
    gamma = [[alg.bundle.zero_section() for _ in range(2)] for _ in range(2)]
    gamma[0][0] = alg.bundle.basis_section(1)
    with pytest.raises(ValueError, match="preserve J"):
        zoo.IISData(alg, F, J, LinearConnection(alg.bundle, gamma))


def test_parallel_frame_search_flat_case():
    alg, F, J = foliation()
    iis = zoo.IISData(alg, F, J, LinearConnection.flat(alg.bundle))
    frame = zoo.parallel_frame_search(iis, degree=2)
    assert len(frame) == 1
    assert [str(v) for v in frame[0].components] == ["0", "1"]


def test_parallel_frame_search_with_rational_connection():
    # nabla_{d/dx} e_2 = x/(1+x) e_1 is J valued, so classes of e_2 stay
    # parallel and the exact linear algebra must cope with denominators.
    alg, F, J = foliation()
    patch = alg.patch
    x = patch.coordinate(0)
    gamma = [[alg.bundle.zero_section() for _ in range(2)] for _ in range(2)]
    gamma[0][1] = (x / (patch.one + x)) * alg.bundle.basis_section(0)
    iis = zoo.IISData(alg, F, J, LinearConnection(alg.bundle, gamma))
    frame = zoo.parallel_frame_search(iis, degree=1)
    assert [[str(v) for v in s.components] for s in frame] == [["0", "1"]]
    res = zoo.check_iis(iis, LIGHT)
    assert not names(res)


@pytest.mark.parametrize("name,want", [
    ("foliation-x", [["0", "1"]]),
    ("iis-curved-negative", []),
])
def test_parallel_frame_search_on_presets(name, want):
    frame = zoo.parallel_frame_search(zoo.zoo_preset(name)["iis"], degree=2)
    assert [[str(v) for v in s.components] for s in frame] == want


def test_parallel_frame_ansatz_over_the_aux_bound_fails_at_once(monkeypatch):
    # the ansatz terms are an unknown times a monomial of degree <= d, and
    # the auxiliary patch has three or more coordinates, so its bound 127
    # is passed from d = 127 on: the error comes before the patch is built
    iis = zoo.zoo_preset("foliation-x")["iis"]
    built, real = [], zoo.Patch
    monkeypatch.setattr(zoo, "Patch",
                        lambda coords: built.append(coords) or real(coords))
    over = "ansatz degree 128 is over the bound 127 of its auxiliary patch"
    with pytest.raises(ArithmeticError, match=over):
        zoo.parallel_frame_search(iis, degree=127)
    res = zoo.check_iis(iis, CheckConfig(trials=0, max_degree=127))
    pf = next(r for r in res if r.name == "iis.def.parallel_frame")
    assert (pf.status, pf.note) == ("error", "ArithmeticError: " + over)
    assert len(pf.note) < 200
    assert built == []


def test_parallel_frame_ansatz_over_the_unknown_limit_fails_at_once(
        monkeypatch):
    # one frame vector of A/J on two coordinates: C(d + 2, 2) unknowns, so
    # d = 33 lists 595, under the limit 600, and d = 34 would list 630
    iis = zoo.zoo_preset("foliation-x")["iis"]
    built, real = [], zoo.Patch
    monkeypatch.setattr(zoo, "Patch",
                        lambda coords: built.append(coords) or real(coords))
    over = "ansatz of degree 34 has 630 unknowns, over the limit 600"
    with pytest.raises(ArithmeticError, match=over):
        zoo.parallel_frame_search(iis, degree=34)
    res = zoo.check_iis(iis, CheckConfig(trials=0, max_degree=34))
    pf = next(r for r in res if r.name == "iis.def.parallel_frame")
    assert (pf.status, pf.note) == ("error", "ArithmeticError: " + over)
    assert len(pf.note) < 200
    assert built == []


def test_parallel_frame_search_skips_dependent_solutions():
    # J = 0 and nabla_{d/dx} e_1 = e_2: the solutions of degree <= 2 are
    # spanned by e_2, y e_2, y^2 e_2, -e_1 + x e_2 and y(-e_1 + x e_2);
    # the multiples are dependent over the functions and never selected.
    patch = xy()
    alg = tangent_algebroid(patch)
    tm = tangent(patch)
    F = Subbundle(tm, Frame(tm, [tm.basis_section(0)]))
    J = Subbundle(alg.bundle, Frame(alg.bundle, []))
    gamma = [[alg.bundle.zero_section() for _ in range(2)] for _ in range(2)]
    gamma[0][0] = alg.bundle.basis_section(1)
    iis = zoo.IISData(alg, F, J, LinearConnection(alg.bundle, gamma))
    frame = zoo.parallel_frame_search(iis, degree=2)
    assert [[str(v) for v in s.components] for s in frame] == [
        ["0", "1"], ["-1", "x"]]


def test_iis_both_routes_pass_on_foliation():
    alg, F, J = foliation()
    iis = zoo.IISData(alg, F, J, LinearConnection.flat(alg.bundle))
    res = zoo.check_iis(iis, LIGHT)
    assert not names(res)
    assert not names(res, "skipped")


def curved_mutant():
    patch = xy()
    alg = tangent_algebroid(patch)
    tm = tangent(patch)
    F = Subbundle(tm, Frame(tm, [tm.basis_section(0), tm.basis_section(1)]))
    J = Subbundle(alg.bundle, Frame(alg.bundle, [alg.bundle.basis_section(0)]))
    gamma = [[alg.bundle.zero_section() for _ in range(2)] for _ in range(2)]
    gamma[0][1] = patch.coordinate(1) * alg.bundle.basis_section(1)
    return zoo.IISData(alg, F, J, LinearConnection(alg.bundle, gamma))


def test_iis_curved_mutant_fails_both_routes_in_agreement():
    iis = curved_mutant()
    res = zoo.check_iis(iis, LIGHT)
    failing = set(names(res))
    assert failing == {"iis.alt.flat", "iis.def.parallel_frame"}
    cross = [r for r in res if r.name == "iis.cross_agree"]
    assert cross[0].status == "pass"


def test_quotient_presentation_oracles():
    alg, F, J = foliation()
    iis = zoo.IISData(alg, F, J, LinearConnection.flat(alg.bundle))
    abar = zoo.AbarAlgebroid(iis)
    patch = alg.patch
    # class of (0, e_1) is the class of (-rho(e_1), 0) shifted: it vanishes
    # together with its vector part
    dead = abar.lift(["-1"], alg.bundle.basis_section(0))
    assert abar.is_zero(dead)
    assert not abar.is_zero(abar.lift(["1"]))
    red = abar.reduced()
    assert red.rank == 2
    anchor = [[str(v) for v in row] for row in red.anchored.anchor]
    assert anchor == [["1", "0"], ["0", "1"]]
    assert all(s.is_zero() for row in red.bracket for s in row)
    res = zoo.check_abar(abar, LIGHT)
    assert not names(res)


def test_quotient_bracket_is_extension_independent():
    alg, F, J = foliation()
    patch = alg.patch
    flat = zoo.IISData(alg, F, J, LinearConnection.flat(alg.bundle))
    # a J-valued bump along F_M changes representatives but not classes
    gamma = [[alg.bundle.zero_section() for _ in range(2)] for _ in range(2)]
    gamma[0][1] = patch.coordinate(0) * alg.bundle.basis_section(0)
    bumped = zoo.IISData(alg, F, J, LinearConnection(alg.bundle, gamma))
    a1, a2 = zoo.AbarAlgebroid(flat), zoo.AbarAlgebroid(bumped)
    c1 = a1.lift(["y"], alg.bundle.basis_section(1))
    c2 = a1.lift(["x"], alg.bundle.section(["x", "y"]))
    b1, b2 = a1.bracket(c1, c2), a2.bracket(c1, c2)
    assert not (b1 - b2).is_zero()      # representatives differ
    assert a1.is_zero(b1 - b2)          # classes agree


def test_curved_mutant_jacobiator_matches_curvature_correction():
    iis = curved_mutant()
    abar = zoo.AbarAlgebroid(iis)
    res = zoo.check_abar(abar, LIGHT)
    failing = names(res)
    assert failing == ["abar.jacobi"]
    jac = [r for r in res if r.name == "abar.jacobi"][0]
    assert "iis.alt.flat" in jac.note
    good = [r for r in res if r.name == "abar.jacobiator_correction"][0]
    assert good.status == "pass"


def test_wrong_jacobiator_correction_prints_both_parts(monkeypatch):
    # F_M has rank 1 on the 2-dimensional patch of foliation-x, so the
    # witness is a vector field and a section of A side by side, not a
    # representative of the quotient
    iis = zoo.zoo_preset("foliation-x")["iis"]
    assert iis.F_M.rank < iis.alg.patch.dim
    real = zoo.AbarAlgebroid.jacobiator_correction
    monkeypatch.setattr(
        zoo.AbarAlgebroid, "jacobiator_correction",
        lambda self, *cs: real(self, *cs) + iis.alg.bundle.basis_section(0))
    res = zoo.check_abar(zoo.AbarAlgebroid(iis), CheckConfig(trials=2))
    bad = [r for r in res if r.name == "abar.jacobiator_correction"][0]
    assert bad.status == "fail"
    assert bad.witnesses[0].to_dict() == {
        "inputs": {"c1": "f0", "c2": "f1", "c3": "random0"},
        "residual": "(1, 0, -1, 0)"}


def test_iis_bialgebroid_oracles_and_round_trip():
    alg, F, J = foliation()
    iis = zoo.IISData(alg, F, J, LinearConnection.flat(alg.bundle))
    db, mp = zoo.bialgebroid_from_iis(iis, LIGHT)
    iota = [[str(v) for v in row] for row in db.iota]
    assert iota == [["1", "0"], ["0", "0"], ["0", "0"], ["0", "1"]]
    assert all(s.is_zero() for row in db.alg_U.bracket for s in row)
    res = check_manin_pair(mp, LIGHT)
    assert not names(res)
    triple = zoo.iis_triple(iis)
    res = check_la_dirac(triple, LIGHT)
    assert not names(res)
    res = bialgebroids_equivalent(db, bialgebroid_from_triple(triple),
                                  LIGHT, prefix="round_trip")
    assert not names(res)


def test_invalid_iis_rejected_by_verified_constructor():
    with pytest.raises(ValueError, match="failing checks"):
        zoo.bialgebroid_from_iis(curved_mutant(), LIGHT)


# -- Dirac bialgebras over a point -------------------------------------------


def test_aff1_bialgebra_all_green():
    res = zoo.check_dirac_bialgebra(zoo.aff1_bialgebra(), LIGHT)
    assert not names(res)
    assert not names(res, "skipped")


def test_non_ideal_mutant_fails_with_witness():
    res = zoo.check_dirac_bialgebra(zoo.aff1_non_ideal_mutant(), LIGHT)
    assert names(res) == ["bialgebra.ideal"]
    bad = [r for r in res if r.name == "bialgebra.ideal"][0]
    assert bad.witnesses and "leaves it" in bad.witnesses[0].residual
    assert names(res, "skipped")  # downstream structure not evaluated
    with pytest.raises(ValueError, match="not an ideal"):
        zoo.ideal_and_bialgebra_from(zoo.aff1_non_ideal_mutant())
    duality = [r for r in res if r.name == "bialgebra.duality"][0]
    assert duality.status == "skipped"
    assert duality.note == "the polar of p is not an ideal"


def test_duality_check_reads_the_reduction_not_det(monkeypatch):
    def no_det(rows, patch):
        raise AssertionError("det called for the duality pairing")

    monkeypatch.setattr(bundles, "det", no_det)
    # covers a det imported into zoo by name as well
    monkeypatch.setattr(zoo, "det", no_det, raising=False)
    report = cli.run("aff1-bialgebra", "all")
    duality = [r for r in report.results if r.name == "bialgebra.duality"]
    assert [r.status for r in duality] == ["pass"]
    assert report.all_passed


def test_reduction_rejects_non_injective_iota():
    # iota(xi_1) = iota(xi_2) = e_1*: the polar, spanned by e_2, is an
    # ideal, but P has one row for k = 2
    patch = zoo.point_patch()
    g = zoo.lie_algebra_algebroid(patch, "g", [[[0, 0], [0, 1]],
                                               [[0, -1], [0, 0]]])
    p = zoo.lie_algebra_algebroid(patch, "p", [[[0, 0], [0, 0]],
                                               [[0, 0], [0, 0]]])
    data = zoo.DiracBialgebraData(g, p, [[1, 1], [0, 0]])
    with pytest.raises(ValueError, match="pair p perfectly"):
        zoo.ideal_and_bialgebra_from(data)


def test_full_dual_bialgebra_transports_cobracket():
    # p = g* with [xi_1, xi_2] = xi_1 on aff(1): the polar is zero, h = g,
    # and the transported bracket on h* must reproduce p's structure
    # constants; the cocycle condition and the double axioms then certify
    # the same compatibility through two routes.
    patch = zoo.point_patch()
    g = zoo.lie_algebra_algebroid(patch, "g", [[[0, 0], [0, 1]],
                                               [[0, -1], [0, 0]]])
    p = zoo.lie_algebra_algebroid(patch, "p", [[[0, 0], [1, 0]],
                                               [[-1, 0], [0, 0]]])
    data = zoo.DiracBialgebraData(g, p, [[1, 0], [0, 1]])
    red = zoo.ideal_and_bialgebra_from(data)
    assert red.p_polar == []
    got = [str(v) for v in red.alg_hstar.bracket[0][1].components]
    assert got == ["1", "0"]
    res = zoo.check_dirac_bialgebra(data, LIGHT)
    assert not names(res)


def test_bialgebra_data_rejects_non_constant_input():
    patch = zoo.point_patch()
    g = zoo.lie_algebra_algebroid(patch, "g", [[[0]]])
    p = zoo.lie_algebra_algebroid(patch, "p", [[[0]]])
    with pytest.raises(ValueError, match="constant"):
        zoo.DiracBialgebraData(g, p, [["t"]])


# -- Preset registry and pipelines -------------------------------------------


def test_preset_registry():
    assert sorted(zoo.ZOO_PRESETS) == [
        "aff1-bialgebra", "foliation-x", "iis-curved-negative",
        "nonclosed-zdxdy", "poisson-xy", "presymplectic-dxdy"]
    with pytest.raises(KeyError, match="unknown preset"):
        zoo.zoo_preset("no-such-preset")
    inst = zoo.zoo_preset("poisson-xy")
    assert inst["kind"] == "poisson" and inst["name"] == "poisson-xy"


def test_positive_pipelines_are_green():
    for name in ("poisson-xy", "presymplectic-dxdy", "foliation-x",
                 "aff1-bialgebra"):
        res = zoo.run_zoo_pipeline(zoo.zoo_preset(name), LIGHT)
        assert not names(res), (name, names(res))


def test_nonclosed_pipeline_fails_exactly_where_expected():
    res = zoo.run_zoo_pipeline(zoo.zoo_preset("nonclosed-zdxdy"), LIGHT)
    assert set(names(res)) == {"graph_dirac.closed", "im2form.bracket",
                               "manin.phi.bracket"}


def test_curved_iis_pipeline_fails_exactly_where_expected():
    res = zoo.run_zoo_pipeline(zoo.zoo_preset("iis-curved-negative"), LIGHT)
    assert set(names(res)) == {"iis.alt.flat", "iis.def.parallel_frame",
                               "abar.jacobi", "u_algebroid.jacobi",
                               "manin.phi.bracket"}


def test_pipeline_results_are_deterministic():
    def snapshot():
        res = zoo.run_zoo_pipeline(zoo.zoo_preset("iis-curved-negative"), LIGHT)
        return [(r.name, r.status, r.note,
                 [(w.inputs, w.residual) for w in r.witnesses]) for r in res]

    assert snapshot() == snapshot()


def test_pipeline_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown instance kind"):
        zoo.run_zoo_pipeline({"kind": "nope"}, LIGHT)
