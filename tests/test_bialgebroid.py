"""Triples (U, K, Delta) on a Lie algebroid, the quotient Courant algebroid
they generate, Manin-pair certification, the lemma suite that pins the
curvature sign convention, and Dirac-bialgebroid equivalence/round trips.

The base instance everywhere is the tangent algebroid of the (x, y) patch
with U = TM + 0 carrying the vector-field bracket: its quotient must
reproduce the standard Courant algebroid on the nose, which gives an
independent oracle for the bracket, the pairing and the coordinates."""

import dataclasses
import random

import pytest

from algebroids.algebroid import (AnchoredBundle, DullAlgebroid, bracket_eval,
                                  side_B, side_Q, tangent_algebroid)
from algebroids.bialgebroid import (DiracBialgebroid, LADiracTriple,
                                    bialgebroid_from_triple,
                                    bialgebroids_equivalent, build_courant_C,
                                    check_la_dirac, check_manin_pair,
                                    quotient_equal,
                                    random_adapted_perturbation,
                                    triple_from_bialgebroid,
                                    verify_appendix_lemmas, verify_phi_skew)
from algebroids.bundles import (Frame, Section, Subbundle, TrivialBundle,
                                complement, membership)
from algebroids.courant import (check_courant_axioms, degenerate_courant,
                                standard_courant)
from algebroids.dorfman import (DorfmanConnection, check_dorfman_axioms,
                                dorfman_curvature, dorfman_eval,
                                extend_lie_bracket_to_dull, nabla_bas_TMAs)
from algebroids.reporting import CheckConfig
from algebroids.scalars import Patch

LA_DIRAC_NAMES = [
    "la_dirac.annihilator",
    "la_dirac.rho_rhot_into_U",
    "la_dirac.bracket_closed",
    "la_dirac.induced.anchor_compat",
    "la_dirac.induced.skew",
    "la_dirac.induced.jacobi",
    "la_dirac.basic_preserves_U",
    "la_dirac.basic_curvature_into_K",
    "la_dirac.delta_preserves_K",
    "la_dirac.quotient_flat",
]

LEMMA_NAMES = [
    "lemmas.intertwine_bas",
    "lemmas.basic_like",
    "lemmas.complicated",
    "lemmas.eq_for_morphism",
    "lemmas.bialgebroid1",
    "lemmas.bialgebroid2",
]

MANIN_NAMES = [
    "manin.isotropic",
    "manin.half_rank",
    "manin.self_perp",
    "manin.closed",
    "manin.induced_bracket",
    "manin.phi.anchor",
    "manin.phi.pairing",
    "manin.phi.bracket",
    "manin.spanning",
    "manin.pairing_compat",
]


def by_name(results):
    return {r.name: r.status for r in results}


@pytest.fixture(scope="module")
def flat():
    """Tangent algebroid of the plane, U = TM + 0 with the Lie bracket."""
    p = Patch(["x", "y"])
    alg = tangent_algebroid(p)
    Q = side_Q(alg)
    Ub = TrivialBundle(p, 2, "U")
    ident = [[p.one if i == j else p.zero for j in range(2)]
             for i in range(2)]
    table = [[Ub.zero_section()] * 2 for _ in range(2)]
    U_alg = DullAlgebroid(AnchoredBundle(Ub, ident), table)
    U = Subbundle(Q, Frame(Q, [Q.basis_section(0), Q.basis_section(1)]))
    ext = extend_lie_bracket_to_dull(U, U_alg, side_B(alg))
    assert all(r.passed for r in ext.checks)
    return LADiracTriple(alg, U, ext.dorfman)


@pytest.fixture(scope="module")
def pair(flat):
    return build_courant_C(flat)


@pytest.fixture(scope="module")
def perturbed(flat):
    # second adapted extension of the same U-structure, curvature no
    # longer zero
    return random_adapted_perturbation(flat, random.Random(11))


# ---------------------------------------------------------------------------
# the five conditions


def test_default_K_is_the_annihilator_of_U(flat):
    assert [str(s) for s in flat.K.frame] == ["(1, 0, 0, 0)", "(0, 1, 0, 0)"]


def test_la_dirac_report_on_the_tangent_triple(flat):
    res = check_la_dirac(flat)
    assert [r.name for r in res] == LA_DIRAC_NAMES
    assert all(r.passed for r in res)


def test_wrong_annihilator_is_rejected(flat):
    B = side_B(flat.alg)
    # same rank as U-polar but containing a cotangent direction
    K_bad = Subbundle(B, Frame(B, [B.basis_section(0), B.basis_section(2)]))
    bad = LADiracTriple(flat.alg, flat.U, flat.D, K=K_bad)
    assert by_name(check_la_dirac(bad))["la_dirac.annihilator"] == "fail"
    with pytest.raises(ValueError, match="not an LA-Dirac triple"):
        build_courant_C(bad)


def test_lemma_suite_on_the_flat_triple(flat):
    res = verify_appendix_lemmas(flat, CheckConfig(trials=2))
    assert [r.name for r in res] == LEMMA_NAMES
    assert all(r.passed for r in res)


def test_phi_skew_identity(flat):
    a = flat.alg.bundle.section(["x", "y*y"])
    assert all(r.passed for r in verify_phi_skew(flat, a))


# ---------------------------------------------------------------------------
# the quotient carrier


def test_presentation_and_reduced_ranks(pair):
    C = pair.C
    assert C.rank == 6
    assert C.true_rank == 4
    coords = [C.coordinates(s) for s in C.frame_sections()]
    for m, row in enumerate(coords):
        assert [str(c) for c in row] == \
            ["1" if n == m else "0" for n in range(4)]


def test_lift_and_split_are_inverse(pair):
    C = pair.C
    B = side_B(pair.alg)
    u, tau = C.split(C.lift(["x", "y*y"], B.section(["1", "0", "x", "y"])))
    assert str(u) == "(x, y^2, 0, 0)"
    assert str(tau) == "(1, 0, x, y)"


def test_graph_classes_vanish_and_nothing_else_does(pair):
    C = pair.C
    p = C.patch
    assert len(C.graph_frame) == 2
    for g in C.graph_frame:
        assert C.is_zero(g)
    assert not quotient_equal(C, C.lift([p.one, p.zero]), C.zero())
    k = side_B(pair.alg).basis_section(0)
    assert not C.is_zero(C.lift([p.zero, p.zero], k))


def test_bracket_well_defined_modulo_the_graph(pair):
    C = pair.C
    p = C.patch
    rng = random.Random(21)
    for g in C.graph_frame:
        for f in [p.scalar("x*y"), p.scalar("y + 1")]:
            shift = Section(C.bundle, [f * t for t in g.components])
            c1 = C.random_element(rng, 1)
            c2 = C.random_element(rng, 1)
            ref = C.bracket(c1, c2)
            assert quotient_equal(C, C.bracket(c1, c2 + shift), ref)
            assert quotient_equal(C, C.bracket(c1 + shift, c2), ref)


def test_quotient_of_the_tangent_triple_is_the_standard_courant(pair):
    C = pair.C
    p = C.patch
    std = standard_courant(p)
    rng = random.Random(5)
    for _ in range(6):
        s1 = std.random_element(rng, 2)
        s2 = std.random_element(rng, 2)
        c1 = C.lift(s1.components[:2],
                    [p.zero, p.zero] + list(s1.components[2:]))
        c2 = C.lift(s2.components[:2],
                    [p.zero, p.zero] + list(s2.components[2:]))
        want = std.bracket(s1, s2)
        got = C.coordinates(C.bracket(c1, c2))
        assert all((a - b).is_zero()
                   for a, b in zip(got, want.components))
        assert (C.pairing(c1, c2) - std.pairing(s1, s2)).is_zero()


def test_bracket_restricted_to_the_three_pure_types(flat, pair):
    C = pair.C
    p = C.patch
    Q = side_Q(flat.alg)
    B = side_B(flat.alg)

    # U against U reduces to the dual dull bracket of Delta
    c_u = C.lift(["y", "0"])
    c_v = C.lift(["0", "x"])
    want = bracket_eval(flat.dual, Q.section(["y", "0", "0", "0"]),
                        Q.section(["0", "x", "0", "0"]))
    assert all(c.is_zero() for c in want.components[2:])
    inside, coeffs = membership(want, flat.U)
    assert inside
    assert quotient_equal(C, C.bracket(c_u, c_v), C.lift(coeffs))

    # core against core reduces to the degenerate-Courant bracket
    dC = degenerate_courant(flat.alg)
    t1 = B.section(["y", "0", "1", "0"])
    t2 = B.section(["0", "x", "0", "x*y"])
    zero_u = [p.zero, p.zero]
    want2 = dC.bracket(Section(dC.bundle, t1.components),
                       Section(dC.bundle, t2.components))
    got2 = C.bracket(C.lift(zero_u, t1), C.lift(zero_u, t2))
    assert quotient_equal(
        C, got2, C.lift(zero_u, Section(B, want2.components)))

    # mixed: [u + 0, 0 + tau] = (-nabla^bas_{pr_A tau} u) + Delta_u tau
    u_sec = flat.U.frame[0]
    tau = B.section(["y", "x*x", "1", "0"])
    val = C.bracket(C.lift([p.one, p.zero]), C.lift(zero_u, tau))
    assert str(val) == "(0, 0, 0, 2*x, 0, 0)"
    a = Section(flat.alg.bundle, tau.components[:2])
    nb = nabla_bas_TMAs(flat.D, flat.alg, a, u_sec)
    inside, coeffs = membership(-nb, flat.U)
    assert inside
    expect = C.lift(coeffs, dorfman_eval(flat.D, u_sec, tau))
    assert quotient_equal(C, val, expect)


def test_courant_axioms_pass_on_the_quotient(pair):
    res = check_courant_axioms(pair.C)
    assert [r.name for r in res] == [
        "courant.jacobi", "courant.pairing_invariance",
        "courant.skew_defect", "courant.anchor_morphism",
        "courant.leibniz", "courant.differential_pairing"]
    assert all(r.passed for r in res)
    assert pair.C.axioms_checked


# ---------------------------------------------------------------------------
# Manin pair


def test_manin_pair_report(pair):
    res = check_manin_pair(pair)
    assert [r.name for r in res] == MANIN_NAMES
    assert all(r.passed for r in res)


def test_broken_phi_is_detected(pair):
    p = pair.C.patch
    zero_phi = [[p.zero] * 4 for _ in range(6)]
    broken = dataclasses.replace(pair, Phi=zero_phi)
    d = by_name(check_manin_pair(broken))
    assert d["manin.pairing_compat"] == "fail"
    assert d["manin.spanning"] == "fail"
    # the Dirac half of the pair is untouched
    assert d["manin.isotropic"] == "pass"
    assert d["manin.closed"] == "pass"


# ---------------------------------------------------------------------------
# extension independence


def test_perturbed_extension_is_still_la_dirac(flat, perturbed):
    assert all(r.passed for r in check_dorfman_axioms(perturbed.D))
    assert all(r.passed for r in check_la_dirac(perturbed))
    Q = side_Q(flat.alg)
    B = side_B(flat.alg)
    assert any(not dorfman_curvature(perturbed.D, Q.basis_section(i),
                                     Q.basis_section(j),
                                     B.basis_section(m)).is_zero()
               for i in range(4) for j in range(4) for m in range(4))


def test_lemma_suite_holds_with_nonzero_curvature(perturbed):
    # the decisive check for the curvature sign: on curved data the two
    # identities tying R_Delta and R^bas to the connection only close up
    # with the convention implemented here
    res = verify_appendix_lemmas(perturbed, CheckConfig(trials=2))
    assert all(r.passed for r in res)
    assert by_name(res)["lemmas.bialgebroid1"] == "pass"
    assert all(r.note == "" for r in res)


def test_bracket_independent_of_the_dorfman_extension(pair, perturbed):
    C = pair.C
    C2 = build_courant_C(perturbed, verify=False).C
    rng = random.Random(13)
    for _ in range(4):
        c1 = C.random_element(rng, 1)
        c2 = C.random_element(rng, 1)
        v2 = C2.bracket(Section(C2.bundle, c1.components),
                        Section(C2.bundle, c2.components))
        assert quotient_equal(C, C.bracket(c1, c2),
                              Section(C.bundle, v2.components))


def test_curvature_mutant_fails_condition_five_and_bialgebroid1(flat):
    # bump the A-columns of the table with complement-of-K values: still a
    # Dorfman connection, but the triple stops being LA-Dirac and the two
    # identities that need the LA-Dirac conditions must fail together
    p = flat.patch
    W = complement(flat.K)
    rng = random.Random(7)
    table = [[flat.D.table[i][j] for j in range(len(flat.D.table[0]))]
             for i in range(len(flat.D.table))]
    for i in range(4):
        for j in range(2):
            c0 = p.scalar(rng.choice(["1", "x", "y", "0"]))
            c1 = p.scalar(rng.choice(["1", "x", "y", "0"]))
            table[i][j] = table[i][j] + c0 * W[0] + c1 * W[1]
    D_mut = DorfmanConnection(flat.D.Q, flat.D.B, table)
    assert all(r.passed for r in check_dorfman_axioms(D_mut))

    mut = LADiracTriple(flat.alg, flat.U, D_mut)
    d = by_name(check_la_dirac(mut))
    assert d["la_dirac.basic_curvature_into_K"] == "fail"
    assert d["la_dirac.bracket_closed"] == "fail"
    assert d["la_dirac.induced"] == "skipped"

    lem = verify_appendix_lemmas(mut, CheckConfig(trials=2))
    d = by_name(lem)
    # these four only need a Lie algebroid and a Dorfman connection
    assert d["lemmas.intertwine_bas"] == "pass"
    assert d["lemmas.basic_like"] == "pass"
    assert d["lemmas.complicated"] == "pass"
    assert d["lemmas.bialgebroid2"] == "pass"
    # these two encode the LA-Dirac conditions
    assert d["lemmas.eq_for_morphism"] == "fail"
    assert d["lemmas.bialgebroid1"] == "fail"
    assert any(r.witnesses for r in lem if r.name == "lemmas.bialgebroid1")


# ---------------------------------------------------------------------------
# Dirac bialgebroids


def test_bialgebroid_validation(flat):
    p = flat.patch
    db = bialgebroid_from_triple(flat)
    assert db.iota_subbundle().rank == 2

    with pytest.raises(ValueError):
        DiracBialgebroid(flat.alg, db.alg_U, [[p.one, p.zero]] * 3)
    same = [[p.one, p.one], [p.zero, p.zero],
            [p.zero, p.zero], [p.zero, p.zero]]
    with pytest.raises(ValueError, match="full column rank"):
        DiracBialgebroid(flat.alg, db.alg_U, same)

    Ub = TrivialBundle(p, 2, "U")
    bad_anchor = DullAlgebroid(
        AnchoredBundle(Ub, [[p.one, p.zero], [p.zero, p.scalar(2)]]),
        [[Ub.zero_section()] * 2 for _ in range(2)])
    iota = [[p.one, p.zero], [p.zero, p.one],
            [p.zero, p.zero], [p.zero, p.zero]]
    with pytest.raises(ValueError, match="anchor of U"):
        DiracBialgebroid(flat.alg, bad_anchor, iota)


def test_iota_columns_are_eliminated_once_per_bialgebroid(monkeypatch):
    from algebroids import bialgebroid, cli
    built, frames = [], []
    real_init, real_frame = DiracBialgebroid.__init__, bialgebroid.Frame

    def recording_init(self, *args):
        real_init(self, *args)
        built.append(self)

    def recording_frame(bundle, sections):
        frames.append(sections)
        return real_frame(bundle, sections)

    monkeypatch.setattr(DiracBialgebroid, "__init__", recording_init)
    monkeypatch.setattr(bialgebroid, "Frame", recording_frame)
    cli.run("presymplectic-dxdy", "all", trials=0)
    assert len(built) == 4
    for db in built:
        assert sum(1 for s in frames if s is db.columns) == 1
        assert db.iota_subbundle() is db.iota_subbundle()
        assert db.iota_subbundle().frame.sections == tuple(db.columns)


def test_round_trip_is_equivalent(flat):
    db = bialgebroid_from_triple(flat)
    triple2 = triple_from_bialgebroid(db)
    assert all(r.passed for r in triple2.extension_checks)
    assert all(r.passed for r in check_la_dirac(triple2))
    db2 = bialgebroid_from_triple(triple2)
    assert all(r.passed for r in bialgebroids_equivalent(db, db2))


def test_equivalence_accepts_reparametrized_frames(flat):
    p = flat.patch
    db = bialgebroid_from_triple(flat)
    assert all(r.passed for r in bialgebroids_equivalent(db, db))

    def rebased(anchor):
        Ub = TrivialBundle(p, 2, "U")
        alg_U = DullAlgebroid(
            AnchoredBundle(Ub, anchor),
            [[Ub.zero_section()] * 2 for _ in range(2)])
        iota = [list(row) for row in anchor] + \
            [[p.zero, p.zero], [p.zero, p.zero]]
        return DiracBialgebroid(flat.alg, alg_U, iota)

    # constant change of basis 2e0, e0 + e1
    gl = rebased([[p.scalar(2), p.one], [p.zero, p.one]])
    assert all(r.passed for r in bialgebroids_equivalent(db, gl))
    # rescaling by the unit x; the transported bracket picks up Leibniz
    # terms that must cancel exactly
    xs = rebased([[p.coordinate(0), p.zero], [p.zero, p.one]])
    assert all(r.passed for r in bialgebroids_equivalent(db, xs))


def test_equivalence_rejects_a_different_span(flat):
    p = flat.patch
    db = bialgebroid_from_triple(flat)
    Ub = TrivialBundle(p, 2, "U")
    alg_U = DullAlgebroid(
        AnchoredBundle(Ub, [[p.one, p.zero], [p.zero, p.one]]),
        [[Ub.zero_section()] * 2 for _ in range(2)])
    iota = [[p.one, p.zero], [p.zero, p.one],
            [p.zero, p.one], [p.zero, p.zero]]
    res = bialgebroids_equivalent(db, DiracBialgebroid(flat.alg, alg_U, iota))
    d = by_name(res)
    assert d["equivalence.span"] == "fail"
    assert d["equivalence.bracket"] == "skipped"


# ---------------------------------------------------------------------------
# the induced algebroid on U is read once per triple


def _count_induced_builds(monkeypatch):
    from algebroids import bialgebroid
    built = []
    real = bialgebroid.induced_algebroid

    def counting(sub, *args):
        built.append(sub)
        return real(sub, *args)

    monkeypatch.setattr(bialgebroid, "induced_algebroid", counting)
    return built


def test_induced_algebroid_is_built_once(flat, monkeypatch):
    built = _count_induced_builds(monkeypatch)
    triple = LADiracTriple(flat.alg, flat.U, flat.D)
    check_la_dirac(triple)
    mp = build_courant_C(triple, verify=True)
    db = bialgebroid_from_triple(triple)
    assert built == [triple.U]
    assert mp.alg_U is db.alg_U is triple.induced[0]


@pytest.mark.parametrize("preset,triples", [
    ("poisson-xy", 1), ("presymplectic-dxdy", 2), ("foliation-x", 1)])
def test_pipelines_build_one_induced_algebroid_per_triple(
        preset, triples, monkeypatch):
    from algebroids import cli
    built = _count_induced_builds(monkeypatch)
    assert cli.run(preset, "all", trials=0).all_passed
    assert len(built) == triples
    assert len({id(U) for U in built}) == triples


@pytest.mark.parametrize("preset,builder", [
    ("poisson-xy", "adapted_dorfman_poisson"),
    ("presymplectic-dxdy", "adapted_dorfman_presymplectic"),
    ("foliation-x", "adapted_dorfman_iis")])
def test_pipelines_build_one_adapted_dorfman(preset, builder, monkeypatch):
    # the pipeline checks the triple's own connection instead of a twin
    from algebroids import cli, zoo
    built = []
    real = getattr(zoo, builder)

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(zoo, builder, counting)
    report = cli.run(preset, "all", trials=0)
    assert report.all_passed
    assert len(built) == 1
    assert any(r.name.startswith("adapted_dorfman.") for r in report.results)
