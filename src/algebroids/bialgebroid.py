"""Triples (U, K, Delta) over a Lie algebroid, the Courant algebroid they
induce on the quotient (U + (A + T*M)) / graph(-(rho, rho^t)|_K), Manin-pair
certification, and the bialgebroid bookkeeping on top of it.

A triple consists of a subbundle U of TM + A*, a Dorfman connection Delta of
TM + A* on A + T*M, and K inside A + T*M (by default the annihilator of U).
check_la_dirac certifies the five conditions that make the associated double
subbundle a Dirac structure with a Lie algebroid side:

    (1) K is the annihilator of U,
    (2) (rho, rho^t)(K) is contained in U,
    (3) the dual dull bracket closes on U and makes it a Lie algebroid
        anchored by pr_TM,
    (4) nabla^bas_a preserves Gamma(U),
    (5) the basic curvature R^bas(a, b) maps Gamma(U) into Gamma(K),

plus two consequences used throughout: Delta_u k stays in Gamma(K), and the
quotient connection induced on (A + T*M)/K is flat.

The quotient carrier is the graph quotient of bundles.GraphQuotient (see
the bundles module docstring) with phi = (rho, rho^t): elements are
representative sections (u-coefficients over the U frame, followed by
A + T*M components), and is_zero reduces modulo the graph, so every check
downstream compares classes, not representatives.  The bracket on
representatives is

    [u1 (+) t1, u2 (+) t2] = ([u1, u2]_Delta + nabla^bas_{t1} u2
                              - nabla^bas_{t2} u1)
        (+) ([t1, t2]_d + Delta_{u1} t2 - Delta_{u2} t1 + (0, d<t1, u2>)),

with [.,.]_d the anchored bracket of A + T*M and nabla^bas over pr_A of the
second index.  verify_appendix_lemmas exposes the identities this formula
rests on; they double as the convention oracle for the curvature sign.

QuotientCourant.bracket memoises on representatives by the algebroid
module's two-tier rule (bundles._recall), living as long as the carrier; a
hit skips the inner bracket_eval, nabla^bas, dorfman_eval and membership
calls as well.  The value tier pays off in the Jacobi check, which asks
for [c2, [c1, c3]] again from the tuple (c2, c1, c3).  The triple's
algebroid, connection and subbundles are read-only once the carrier has
evaluated a bracket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, product

from .algebroid import (DullAlgebroid, bracket_eval, check_algebroid,
                        induced_algebroid, rho_rhot, side_B, side_Q)
from .bundles import (Frame, FrameError, GraphQuotient, Section, Solver,
                      Subbundle, _recall, annihilator,
                      apply_matrix, canonical_pairing, degenerate_pairing,
                      matrix_rank, membership, nullspace, random_combination,
                      random_section)
from .cartan import apply_vf, tangent
from .courant import check_courant_morphism, degenerate_courant
from .dorfman import (DorfmanConnection, basic_curvature, dorfman_curvature,
                      dorfman_eval, dual_dull_bracket,
                      extend_lie_bracket_to_dull, nabla_bas_ATM,
                      nabla_bas_TMAs)
from .reporting import Check, labelled, named

__all__ = [
    "LADiracTriple", "check_la_dirac", "verify_phi_skew",
    "verify_appendix_lemmas", "QuotientCourant", "quotient_equal",
    "random_adapted_perturbation", "AManinPair", "build_courant_C",
    "check_manin_pair", "DiracBialgebroid", "bialgebroid_from_triple",
    "triple_from_bialgebroid", "bialgebroids_equivalent",
]


class LADiracTriple:
    """A subbundle U of TM + A*, a Dorfman connection of TM + A* on
    A + T*M, and K inside A + T*M (annihilator of U unless given)."""

    def __init__(self, alg, U, D, K=None):
        Q = side_Q(alg)
        B = side_B(alg)
        if U.ambient != Q:
            raise ValueError("U must be a subbundle of TM + A* of the "
                             "algebroid")
        if D.Q != Q or D.B != B:
            raise ValueError("connection must pair TM + A* with A + T*M of "
                             "the algebroid")
        if K is None:
            K = annihilator(U, twin=B, side="TM+A*")
        elif K.ambient != B:
            raise ValueError("K must be a subbundle of A + T*M")
        self.alg = alg
        self.U = U
        self.D = D
        self.K = K
        self.extension_checks = None
        self._induced = None

    @property
    def patch(self):
        return self.alg.patch

    @property
    def dual(self):
        """Dull bracket on TM + A* dual to the connection."""
        return dual_dull_bracket(self.D)

    @property
    def induced(self):
        """(the Lie algebroid the dual bracket induces on U, or None; the
        (p, q, value) U-frame pairs whose bracket left U), built once."""
        if self._induced is None:
            dual = self.dual
            self._induced = induced_algebroid(
                self.U, partial(bracket_eval, dual), dual.anchor_vf, "U")
        return self._induced


def check_la_dirac(triple, config=None, prefix="la_dirac"):
    """Certify the five conditions in the module docstring plus the two
    consequences (Delta preserves K; quotient connection flat), each as an
    exact membership or residual check with witnesses."""
    alg, U, K, D = triple.alg, triple.U, triple.K, triple.D
    ra = alg.rank
    Q, B = D.Q, D.B
    results = []

    ann = annihilator(U, twin=B, side="TM+A*")
    check = Check("%s.annihilator" % prefix, config)
    if K.rank != ann.rank:
        check.witness("rank %d != %d" % (K.rank, ann.rank))
    for m, k in enumerate(K.frame):
        check.witness_outside(k, ann, k="k%d" % m)
    for m, k in enumerate(ann.frame):
        check.witness_outside(k, K, annihilator_basis="a%d" % m)
    results.append(check.result())

    check = Check("%s.rho_rhot_into_U" % prefix, config)
    for m, k in enumerate(K.frame):
        check.witness_outside(rho_rhot(alg, k, target=Q), U, k="k%d" % m)
    results.append(check.result())

    check = Check("%s.bracket_closed" % prefix, config)
    alg_U, outside = triple.induced
    for p, q, value in outside:
        check.witness(value, u1="u%d" % p, u2="u%d" % q)
    closed = not outside
    results.append(check.result())

    if closed:
        results.extend(check_algebroid(alg_U, config,
                                       prefix="%s.induced" % prefix))
    else:
        results.append(Check("%s.induced" % prefix, config).skipped(
            "bracket does not close on U"))

    check = Check("%s.basic_preserves_U" % prefix, config)
    for i in range(ra):
        a = alg.bundle.basis_section(i)
        for p in range(U.rank):
            check.witness_outside(nabla_bas_TMAs(D, alg, a, U.frame[p]), U,
                                  a="e%d" % i, u="u%d" % p)
    results.append(check.result())

    check = Check("%s.basic_curvature_into_K" % prefix, config)
    for i in range(ra):
        for j in range(i + 1, ra):
            a1 = alg.bundle.basis_section(i)
            a2 = alg.bundle.basis_section(j)
            for p in range(U.rank):
                check.witness_outside(
                    basic_curvature(D, alg, a1, a2, U.frame[p]), K,
                    a1="e%d" % i, a2="e%d" % j, u="u%d" % p)
    results.append(check.result())

    check = Check("%s.delta_preserves_K" % prefix, config)
    for p in range(U.rank):
        for m, k in enumerate(K.frame):
            check.witness_outside(dorfman_eval(D, U.frame[p], k), K,
                                  u="u%d" % p, k="k%d" % m)
    results.append(check.result())

    check = Check("%s.quotient_flat" % prefix, config)
    if closed:
        draw = partial(random_combination, U)
        taus = labelled("e", B.basis_sections())
        results.append(check.run(
            (pair + (t,) for pair, t in product(check.tuples(
                combinations(labelled("u", U.frame), 2),
                ("random#%d.1", draw), ("random#%d.2", draw)), taus)),
            partial(dorfman_curvature, D),
            zero=lambda v: membership(v, K)[0]))
    else:
        results.append(check.skipped("bracket does not close on U"))

    return results


def verify_phi_skew(triple, a, config=None, prefix="phi_skew"):
    """<Omega_{u1} a, u2> + <Omega_{u2} a, u1> = 0 on U-frame pairs: the
    map phi_a(u) = [Omega_u a] is skew once values are read against U."""
    from .dorfman import omega_map
    U, D = triple.U, triple.D
    check = Check(prefix, config)
    for p in range(U.rank):
        om_p = omega_map(D, U.frame[p], a)
        for q in range(U.rank):
            om_q = omega_map(D, U.frame[q], a)
            residual = canonical_pairing(U.frame[q], om_p) \
                + canonical_pairing(U.frame[p], om_q)
            if not residual.is_zero():
                check.witness(residual, u1="u%d" % p, u2="u%d" % q, a=a)
    return [check.result()]


# ---------------------------------------------------------------------------
# the identities behind the quotient bracket


def verify_appendix_lemmas(triple, config=None, prefix="lemmas"):
    """The six identities used to prove that the quotient bracket is a
    Courant algebroid, each as an exact residual on frames and seeded
    random sections.

    The first four hold for any Lie algebroid with a Dorfman connection;
    the curvature identities additionally assume the triple's conditions
    where noted.  The R_Delta convention is validated here: if the basic
    curvature identity fails with this sign but holds with the opposite
    one, the result says so in its note.
    """
    alg, U, K, D = triple.alg, triple.U, triple.K, triple.D
    ra = alg.rank
    Q, B = D.Q, D.B
    dual = triple.dual
    dC = degenerate_courant(alg)

    def as_dc(t):
        return dC.bundle.wrap(t.components)

    def bracket_d(t1, t2):
        return B.wrap(dC.bracket(as_dc(t1), as_dc(t2)).components)

    def pr_A(t):
        return alg.bundle.wrap(t.components[:ra])

    frames_B = labelled("e", B.basis_sections())
    draw_B = partial(random_section, B)
    results = []

    check = Check("%s.intertwine_bas" % prefix, config)
    results.append(check.run(
        check.tuples(
            product(labelled("a", alg.bundle.basis_sections()), frames_B),
            ("random#%d.a", partial(random_section, alg.bundle)),
            ("random#%d.t", draw_B)),
        lambda a, tau: nabla_bas_TMAs(D, alg, a, rho_rhot(alg, tau, target=Q))
        - rho_rhot(alg, nabla_bas_ATM(D, alg, a, tau), target=Q),
        inputs=named("a", "tau")))

    check = Check("%s.basic_like" % prefix, config)
    results.append(check.run(
        check.tuples(product(frames_B, repeat=2),
                     ("random#%d.0", draw_B), ("random#%d.1", draw_B)),
        lambda t1, t2: bracket_d(t1, t2)
        - dorfman_eval(D, rho_rhot(alg, t1, target=Q), t2)
        + nabla_bas_ATM(D, alg, pr_A(t2), t1),
        inputs=named("tau1", "tau2")))

    def complicated(nu, tau, taup):
        inner = rho_rhot(alg, dorfman_eval(D, nu, tau), target=Q) \
            - bracket_eval(dual, nu, rho_rhot(alg, tau, target=Q)) \
            - nabla_bas_TMAs(D, alg, pr_A(tau), nu)
        return canonical_pairing(inner, taup) \
            - canonical_pairing(nabla_bas_TMAs(D, alg, pr_A(taup), nu), tau)

    check = Check("%s.complicated" % prefix, config)
    results.append(check.run(
        check.tuples(
            product(labelled("q", Q.basis_sections()), frames_B, frames_B),
            ("random#%d.nu", partial(random_section, Q)),
            ("random#%d.1", draw_B), ("random#%d.2", draw_B)),
        complicated, inputs=named("nu", "tau1", "tau2")))

    check = Check("%s.eq_for_morphism" % prefix, config)
    # k is drawn before u in each trial
    results.append(check.run(
        check.tuples(
            [(k, u) for u in labelled("u", U.frame)
             for k in labelled("k", K.frame)],
            ("random#%d.k", partial(random_combination, K)),
            ("random#%d.u", partial(random_combination, U))),
        lambda k, u: rho_rhot(alg, dorfman_eval(D, u, k), target=Q)
        - bracket_eval(dual, u, rho_rhot(alg, k, target=Q))
        - nabla_bas_TMAs(D, alg, pr_A(k), u),
        inputs=lambda e: {"u": e[1][0], "k": e[0][0]}))

    check = Check("%s.bialgebroid1" % prefix, config)
    flipped = Check("%s.bialgebroid1" % prefix, config)
    draw_U = partial(random_combination, U)
    # flipped shares the check's name, so its stream starts afresh; pr_A
    # of each tau is taken once
    taus = [(lt, tau, pr_A(tau))
            for lt, tau in flipped.tuples(frames_B, ("random#%d", draw_B))]
    try:
        for ((l1, u), (l2, v)), (lt, tau, a) in product(check.tuples(
                product(labelled("u", U.frame), repeat=2),
                ("random#%d.1", draw_U), ("random#%d.2", draw_U)), taus):
            lhs = nabla_bas_TMAs(D, alg, a, bracket_eval(dual, u, v)) \
                - bracket_eval(dual, nabla_bas_TMAs(D, alg, a, u), v) \
                - bracket_eval(dual, u, nabla_bas_TMAs(D, alg, a, v)) \
                + nabla_bas_TMAs(D, alg, pr_A(dorfman_eval(D, u, tau)), v) \
                - nabla_bas_TMAs(D, alg, pr_A(dorfman_eval(D, v, tau)), u)
            curv = rho_rhot(alg, dorfman_curvature(D, u, v, tau), target=Q)
            if not (lhs + curv).is_zero():
                check.witness(lhs + curv, u=l1, v=l2, tau=lt)
            if not (lhs - curv).is_zero():
                flipped.witness(lhs - curv, u=l1, v=l2, tau=lt)
            if check.settled and flipped.settled:
                break
    except Exception as exc:
        # flipped shares the check's name and is never reported
        straight = check.error(exc)
    else:
        straight = check.result()
        if not straight.passed and not flipped.witnesses:
            straight.note = ("residual vanishes with the opposite sign of "
                             "R_Delta; flip the curvature convention")
    results.append(straight)

    # pr_A of each tau and the bracket of each tau pair, taken once
    t_pairs = [((l1, (t1, pr_A(t1))), (l2, (t2, pr_A(t2), bracket_d(t1, t2))))
               for (l1, t1), (l2, t2) in Check(
                   "%s.bialgebroid2.aux" % prefix, config).tuples(
                   product(frames_B, repeat=2),
                   ("random#%d.0", draw_B), ("random#%d.1", draw_B))]

    def bialgebroid2(u, first, second):
        (t1, a1), (t2, a2, b12) = first, second
        n1 = nabla_bas_TMAs(D, alg, a1, u)
        n2 = nabla_bas_TMAs(D, alg, a2, u)
        lhs = dorfman_eval(D, u, b12) \
            - bracket_d(dorfman_eval(D, u, t1), t2) \
            - bracket_d(t1, dorfman_eval(D, u, t2)) \
            + dorfman_eval(D, n1, t2) - dorfman_eval(D, n2, t1) \
            + D.d_B(canonical_pairing(n2, t1))
        return lhs + basic_curvature(D, alg, a1, a2, u)

    check = Check("%s.bialgebroid2" % prefix, config)
    results.append(check.run(
        ((u,) + pair for u, pair in product(
            check.tuples(labelled("q", Q.basis_sections()),
                         ("random#%d.u", partial(random_section, Q))),
            t_pairs)),
        bialgebroid2, inputs=named("u", "tau1", "tau2")))

    return results


# ---------------------------------------------------------------------------
# the Courant algebroid on the quotient


class QuotientCourant(GraphQuotient):
    """Carrier (U + (A + T*M)) / graph(-(rho, rho^t)|_K): the graph quotient
    of bundles.GraphQuotient with V = U, E = A + T*M and phi = (rho, rho^t),
    presented on representative sections (rank(U) frame coefficients
    followed by A + T*M components).

    Implements the same protocol as CourantPresentation; frame_sections,
    coordinates and is_zero come from the graph quotient, so all
    downstream checks compare classes.
    """

    degenerate = False

    def __init__(self, triple):
        alg, U, D = triple.alg, triple.U, triple.D
        Q = U.ambient
        super().__init__(U, triple.K, lambda k: rho_rhot(alg, k, target=Q),
                         "U+%s" % D.B.name)
        self.alg = alg
        self.D = D
        self.dual = triple.dual
        self._dC = degenerate_courant(alg)
        self.ra = alg.rank
        self.axioms_checked = False
        self._TM = tangent(self.patch)
        # the two memo tiers of bracket (see the module docstring)
        self._memo = {}
        self._recent = {}

    @property
    def rank(self):
        return self.bundle.rank

    def anchor_vf(self, c):
        patch = self.patch
        u, tau = self.split(c)
        rho_a = apply_matrix(self.alg.anchored.anchor,
                            tau.components[:self.ra], patch)
        return Section(self._TM,
                       [u.components[i] + rho_a[i]
                        for i in range(patch.dim)])

    def apply_anchor(self, c, f):
        return apply_vf(self.anchor_vf(c), f)

    def pairing(self, c1, c2):
        u1, t1 = self.split(c1)
        u2, t2 = self.split(c2)
        return canonical_pairing(u1, t2) + canonical_pairing(u2, t1) \
            + degenerate_pairing(t1, t2, self.alg.anchored.anchor)

    def D_of(self, f):
        patch = self.patch
        return self.lift([patch.zero] * self.rV, self.D.d_B(f))

    def bracket(self, c1, c2):
        if (c1.bundle is not self.bundle and c1.bundle != self.bundle
                or c2.bundle is not self.bundle and c2.bundle != self.bundle):
            raise ValueError("sections do not live in the carrier bundle")
        return _recall(self, self.bundle, (c1, c2),
                       lambda: self._bracket(c1, c2))

    def _bracket(self, c1, c2):
        alg, D = self.alg, self.D
        u1, t1 = self.split(c1)
        u2, t2 = self.split(c2)
        a1 = alg.bundle.wrap(t1.components[:self.ra])
        a2 = alg.bundle.wrap(t2.components[:self.ra])
        u_out = bracket_eval(self.dual, u1, u2) \
            + nabla_bas_TMAs(D, alg, a1, u2) - nabla_bas_TMAs(D, alg, a2, u1)
        inside, coeffs = membership(u_out, self.V)
        if not inside:
            raise ValueError("bracket left the presentation: the TM + A* "
                             "part is not a section of U")
        dC, wrap = self._dC, self._dC.bundle.wrap
        dcb = dC.bracket(wrap(t1.components), wrap(t2.components))
        tau_out = self.E.wrap(dcb.components) \
            + dorfman_eval(D, u1, t2) - dorfman_eval(D, u2, t1) \
            + D.d_B(canonical_pairing(u2, t1))
        return self.lift(coeffs, tau_out)


def quotient_equal(C, c1, c2):
    """Equality of classes in the quotient carrier."""
    return C.is_zero(c1 - c2)


def random_adapted_perturbation(triple, rng, max_degree=1):
    """A different Dorfman connection adapted to the same structure: add a
    tensorial K-valued term on the A block of the table.  The T*M block is
    untouched (differential compatibility) and values in K leave every
    condition and the induced bracket on U unchanged."""
    D = triple.D
    table = [list(row) for row in D.table]
    for i in range(D.Q.rank):
        for j in range(triple.alg.rank):
            table[i][j] = table[i][j] + random_combination(triple.K, rng,
                                                           max_degree)
    return LADiracTriple(triple.alg, triple.U,
                         DorfmanConnection(D.Q, D.B, table), K=triple.K)


# ---------------------------------------------------------------------------
# Manin pairs


@dataclass
class AManinPair:
    """A Courant carrier with a distinguished Dirac structure, the
    inclusion iota of its bundle into TM + A*, and the map Phi from
    A + T*M into the carrier."""
    C: object
    U_in_C: Subbundle
    iota: list
    Phi: list
    alg: DullAlgebroid
    alg_U: DullAlgebroid
    triple: object = None
    checks: list = field(default=None, repr=False)


def build_courant_C(triple, config=None, verify=True):
    """The quotient Courant algebroid of a triple, packaged as a Manin
    pair: U embeds as u -> u (+) 0, Phi is tau -> 0 (+) tau, and the
    induced algebroid on U is read off the restricted dual bracket."""
    if verify:
        failing = [r.name for r in check_la_dirac(triple, config)
                   if r.failed]
        if failing:
            raise ValueError("not an LA-Dirac triple; failing checks: "
                             + ", ".join(failing))
    alg, U = triple.alg, triple.U
    patch = triple.patch
    C = QuotientCourant(triple)
    U_in_C = Subbundle(C.bundle,
                       Frame(C.bundle, C.frame_sections()[:U.rank]))
    iota = [[U.frame[p].components[i] for p in range(U.rank)]
            for i in range(U.ambient.rank)]
    Phi = [[patch.zero] * C.E.rank for _ in range(U.rank)] \
        + [[patch.one if i == j else patch.zero for j in range(C.E.rank)]
           for i in range(C.E.rank)]
    alg_U, outside = triple.induced
    if outside:
        raise ValueError("dual bracket does not close on U")
    return AManinPair(C=C, U_in_C=U_in_C, iota=iota, Phi=Phi, alg=alg,
                      alg_U=alg_U, triple=triple)


def check_manin_pair(mp, config=None, prefix="manin"):
    """Certify the Manin-pair conditions: the distinguished subbundle is
    Dirac in the carrier with induced bracket the one of alg_U, Phi is a
    morphism from the anchored bracket on A + T*M, images of iota and Phi
    span the carrier, and the two pairings are compatible."""
    C, U_in_C, alg, alg_U = mp.C, mp.U_in_C, mp.alg, mp.alg_U
    patch = C.patch
    n = C.true_rank
    results = []

    ucoords = [C.coordinates(u) for u in U_in_C.frame]
    usolver = Solver([[u[i] for u in ucoords] for i in range(n)], patch)

    check = Check("%s.isotropic" % prefix, config)
    for p, u1 in enumerate(U_in_C.frame):
        for q, u2 in enumerate(U_in_C.frame):
            residual = C.pairing(u1, u2)
            if not residual.is_zero():
                check.witness(residual, u1="u%d" % p, u2="u%d" % q)
    results.append(check.result())

    check = Check("%s.half_rank" % prefix, config)
    if getattr(C, "degenerate", False):
        results.append(check.skipped(
            "degenerate pairing: rank bookkeeping disabled"))
    else:
        if 2 * U_in_C.rank != n:
            check.witness("rank %d != %d" % (U_in_C.rank, n // 2))
        results.append(check.result())

    check = Check("%s.self_perp" % prefix, config)
    if getattr(C, "degenerate", False):
        results.append(check.skipped(
            "degenerate pairing: perpendicular not defined"))
    else:
        frames = C.frame_sections()
        rows = [[C.pairing(u, fj) for fj in frames] for u in U_in_C.frame]
        for v in nullspace(rows, patch, ncols=n):
            if usolver.solve(v)[0] != "solution":
                check.witness(v, perp="basis vector")
        results.append(check.result())

    closed = Check("%s.closed" % prefix, config)
    induced = Check("%s.induced_bracket" % prefix, config)
    for p, u1 in enumerate(U_in_C.frame):
        for q, u2 in enumerate(U_in_C.frame):
            value = C.bracket(u1, u2)
            status, coeffs = usolver.solve(C.coordinates(value))
            if status != "solution":
                closed.witness(value, u1="u%d" % p, u2="u%d" % q)
                continue
            expected = alg_U.bracket[p][q]
            for l in range(U_in_C.rank):
                if coeffs[l] != expected.components[l]:
                    induced.witness(
                        "coefficient %d: %s != %s"
                        % (l, coeffs[l], expected.components[l]),
                        u1="u%d" % p, u2="u%d" % q)
                    break
    draw = partial(random_combination, U_in_C)
    results.append(closed.run(
        closed.tuples([], ("random#%d.1", draw), ("random#%d.2", draw)),
        C.bracket, inputs=named("d1", "d2"),
        zero=lambda v: usolver.solve(C.coordinates(v))[0] == "solution"))
    results.append(induced.result())

    dc = degenerate_courant(alg)
    results.extend(check_courant_morphism(mp.Phi, dc, C, config,
                                          prefix="%s.phi" % prefix))

    check = Check("%s.spanning" % prefix, config)
    images = list(ucoords)
    for j in range(dc.rank):
        image = Section(C.bundle, apply_matrix(
            mp.Phi, dc.bundle.basis_section(j).components, patch))
        images.append(C.coordinates(image))
    rank = matrix_rank(images, patch)
    if rank != n:
        check.witness("iota and Phi images span rank %d, carrier has %d"
                      % (rank, n))
    results.append(check.result())

    check = Check("%s.pairing_compat" % prefix, config)
    Qbundle = side_Q(alg)
    us = [("u%d" % p, (u, Section(Qbundle, [mp.iota[i][p]
                                            for i in range(Qbundle.rank)])))
          for p, u in enumerate(U_in_C.frame)]
    # the image of each tau under Phi, and tau in A + T*M, taken once
    taus = [(lt, (Section(C.bundle, apply_matrix(mp.Phi, tau.components,
                                                 patch)),
                  Section(side_B(alg), tau.components)))
            for lt, tau in check.tuples(
                labelled("e", dc.bundle.basis_sections()),
                ("random#%d", partial(random_section, dc.bundle)))]
    results.append(check.run(
        product(us, taus),
        lambda u, tau: C.pairing(u[0], tau[0])
        - canonical_pairing(u[1], tau[1]), inputs=named("u", "tau")))

    mp.checks = results
    return results


# ---------------------------------------------------------------------------
# Dirac bialgebroids


class DiracBialgebroid:
    """(A, U, iota): a Lie algebroid on U together with an injective map
    iota into TM + A* intertwining the anchor of U with pr_TM."""

    def __init__(self, alg, alg_U, iota):
        patch = alg.patch
        Q = side_Q(alg)
        iota = [[patch.scalar(v) for v in row] for row in iota]
        if len(iota) != Q.rank or any(len(r) != alg_U.rank for r in iota):
            raise ValueError("iota must be (dim + rank A) x rank U")
        columns = [Section(Q, [iota[i][p] for i in range(Q.rank)])
                   for p in range(alg_U.rank)]
        try:
            frame = Frame(Q, columns)
        except FrameError:
            raise ValueError("iota must have full column rank") from None
        for p in range(alg_U.rank):
            for i in range(patch.dim):
                if alg_U.anchored.anchor[i][p] != iota[i][p]:
                    raise ValueError(
                        "pr_TM of iota must equal the anchor of U")
        self.alg = alg
        self.alg_U = alg_U
        self.iota = iota
        self.columns = columns
        self._subbundle = Subbundle(Q, frame)

    @property
    def patch(self):
        return self.alg.patch

    def iota_subbundle(self):
        """iota(U) inside TM + A*, on the frame validated at construction
        (one object per bialgebroid, so its eliminations are kept)."""
        return self._subbundle


def bialgebroid_from_triple(triple):
    """Read off (A, U, iota) from a triple: U with the restricted dual
    bracket, iota the frame inclusion."""
    U = triple.U
    alg_U, outside = triple.induced
    if outside:
        raise ValueError("dual bracket does not close on U")
    iota = [[U.frame[p].components[i] for p in range(U.rank)]
            for i in range(U.ambient.rank)]
    return DiracBialgebroid(triple.alg, alg_U, iota)


def triple_from_bialgebroid(db, config=None):
    """Identify U with iota(U) inside TM + A* and extend its bracket to a
    dull bracket with dual Dorfman connection; the extension's own checks
    are attached to the returned triple."""
    U = db.iota_subbundle()
    ext = extend_lie_bracket_to_dull(U, db.alg_U, side_B(db.alg), config)
    triple = LADiracTriple(db.alg, U, ext.dorfman)
    triple.extension_checks = ext.checks
    return triple


def bialgebroids_equivalent(db1, db2, config=None, prefix="equivalence"):
    """Same span of iota(U) and the same bracket on it, transported through
    membership coefficients."""
    if db1.patch != db2.patch:
        raise ValueError("bialgebroids live over different patches")
    U1 = db1.iota_subbundle()
    U2 = db2.iota_subbundle()
    results = []

    check = Check("%s.span" % prefix, config)
    if U1.rank != U2.rank:
        check.witness("rank %d != %d" % (U1.rank, U2.rank))
    for p, col in enumerate(db1.columns):
        check.witness_outside(col, U2, iota1_column="u%d" % p)
    for p, col in enumerate(db2.columns):
        check.witness_outside(col, U1, iota2_column="u%d" % p)
    span = check.result()
    results.append(span)

    check = Check("%s.bracket" % prefix, config)
    if not span.passed:
        results.append(check.skipped("spans differ"))
        return results
    transported = []
    for col in db1.columns:
        _, coeffs = membership(col, U2)
        transported.append(Section(db2.alg_U.bundle, coeffs))
    for p in range(U1.rank):
        for q in range(U1.rank):
            lhs = U1.frame.combination(db1.alg_U.bracket[p][q].components)
            value = bracket_eval(db2.alg_U, transported[p], transported[q])
            rhs = U2.frame.combination(value.components)
            residual = lhs - rhs
            if not residual.is_zero():
                check.witness(residual, u1="u%d" % p, u2="u%d" % q)
    results.append(check.result())
    return results
