"""Certified example families ("the zoo").

Four independent geometric sources land on the same certified objects
(Dirac bialgebroids, Manin pairs, LA-Dirac triples):

* Lie bialgebroids (A, A*): the Courant structure on the double A + A*,
  with Poisson bivectors and their Koszul bracket as the flagship case;
* IM 2-forms sigma: A -> T*M, mapped into the standard Courant algebroid;
* infinitesimal ideal systems (F_M, J, nabla), with the quotient algebroid
  presented on F_M + A (the graph quotient of the bundles module docstring,
  with phi = rho) and the Manin pair inside the double of its reduction;
* Dirac bialgebras: constant-coefficient structures over a point, modelled
  on a one-coordinate patch where nothing depends on the coordinate.

Every constructor bottoms out in objects the generic machinery certifies.
The preset registry at the bottom wires named instances to full check
pipelines; the CLI's `zoo` verb goes through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial

from .algebroid import (AnchoredBundle, BasicConnections, DullAlgebroid,
                        LinearConnection, _lie_derivative_dual, bracket_eval,
                        check_algebroid, rho_transpose, side_B, side_Q,
                        tangent_algebroid)
from .bialgebroid import (AManinPair, DiracBialgebroid, LADiracTriple,
                          bialgebroid_from_triple, bialgebroids_equivalent,
                          build_courant_C, check_la_dirac, check_manin_pair,
                          triple_from_bialgebroid)
from .bundles import (Frame, GraphQuotient, Section, Subbundle, TrivialBundle,
                      _apply_transpose, _independent_extension, _recall,
                      apply_matrix, direct_sum, matrix_rank, membership,
                      nullspace, random_combination, random_section, rref)
from .cartan import (apply_vf, cotangent, d_function, d_oneform,
                     interior_vf_2form, lie_bracket_vf, lie_derivative_1form,
                     pair_form_vf, tangent, two_form_matrix)
from .courant import (CourantPresentation, check_courant_axioms, check_dirac,
                      dirac_from_2form, dirac_from_poisson, standard_courant)
from .dorfman import DorfmanConnection, check_dorfman_axioms, dual_dull_bracket
from .reporting import Check, CheckConfig, labelled, named
from .scalars import (Patch, _accumulate, _dot, _field_bits, _monomials,
                      parse_scalar)


# ---------------------------------------------------------------------------
# Cartan calculus for an algebroid acting on its dual.
#
# A section xi of a rank-equal partner bundle is read as the functional
# a |-> sum_l xi_l a^l on the algebroid's frame.


def lie_deriv_dual(alg, a, xi):
    """Lie derivative of a dual section along a:
    <L_a xi, e_j> = rho(a)<xi, e_j> - <xi, [a, e_j]>."""
    return Section(xi.bundle, _lie_derivative_dual(alg, a, alg.anchor_vf(a),
                                                   xi.components))


def interior_d_dual(alg, b, xi):
    """Contraction of the algebroid differential of a dual section,
    i_b d xi = L_b xi - d<xi, b>:
    <i_b d xi, e_j> = rho(b)<xi, e_j> - rho(e_j)<xi, b> - <xi, [b, e_j]>."""
    pair_b = _dot(alg.patch, xi.components, b.components)
    lie = _lie_derivative_dual(alg, b, alg.anchor_vf(b), xi.components)
    return Section(xi.bundle, [
        v - apply_vf(alg.anchor_vf(alg.bundle.basis_section(j)), pair_b)
        for j, v in enumerate(lie)])


def dual_connection_eval(conn, X, xi):
    """Dual of a linear connection, on a rank-equal partner section:
    <nabla*_X xi, e_j> = X<xi, e_j> - <xi, nabla_X e_j>."""
    patch = conn.bundle.patch
    return Section(xi.bundle, [
        apply_vf(X, x) - _dot(patch, xi.components, conn.eval(X, e).components)
        for x, e in zip(xi.components, conn.bundle.basis_sections())])


def _dual_pairing_form(conn, xi, a):
    """The 1-form <nabla*_. xi, a>: its l-th component pairs
    nabla*_{d/dx_l} xi with a."""
    patch = conn.bundle.patch
    return Section(cotangent(patch), [
        _dot(patch, a.components, dual_connection_eval(conn, X, xi).components)
        for X in tangent(patch).basis_sections()])


def _conn_curvature(conn, X, Y, s):
    """R(X, Y)s = nabla_X nabla_Y s - nabla_Y nabla_X s - nabla_[X,Y] s."""
    return (conn.eval(X, conn.eval(Y, s)) - conn.eval(Y, conn.eval(X, s))
            - conn.eval(lie_bracket_vf(X, Y), s))


def dual_partner(bundle):
    """A bundle of the same rank standing in for the dual frame."""
    return TrivialBundle(bundle.patch, bundle.rank, bundle.name + "*")


def trivial_dual_algebroid(bundle):
    """Zero anchor, zero bracket: the fibrewise abelian partner."""
    patch = bundle.patch
    anchor = [[patch.zero] * bundle.rank for _ in range(patch.dim)]
    table = [[bundle.zero_section() for _ in range(bundle.rank)]
             for _ in range(bundle.rank)]
    return DullAlgebroid(AnchoredBundle(bundle, anchor), table)


# ---------------------------------------------------------------------------
# Lie bialgebroids and the Courant structure on the double.


@dataclass
class LieBialgebroidData:
    """A pair of algebroid structures on dual frames over one patch.

    alg_A carries the bracket on A, alg_Astar the bracket on A*; the frames
    are declared dual to each other, so no pairing data is needed.  Whether
    the pair really is a Lie bialgebroid is what check_lie_bialgebroid
    certifies (both sides Lie, double satisfies the Courant axioms)."""

    alg_A: DullAlgebroid
    alg_Astar: DullAlgebroid

    def __post_init__(self):
        if self.alg_A.patch is not self.alg_Astar.patch:
            raise ValueError("both algebroids must live on the same patch")
        if self.alg_A.rank != self.alg_Astar.rank:
            raise ValueError("dual frames must have equal rank")

    @property
    def patch(self):
        return self.alg_A.patch

    @property
    def rank(self):
        return self.alg_A.rank


def courant_double(lb):
    """The Courant presentation on A + A* with the hyperbolic pairing.

    Frame brackets: [e_i, e_j] is the A bracket, [eps_s, eps_t] the A*
    bracket, and the mixed terms are (-i_eps d_* e, L_e eps) and
    (L_eps e, -i_e d eps); the table's forced Leibniz extension then agrees
    with the usual bracket on the double because both satisfy the same
    expansion laws in each slot."""
    A, As = lb.alg_A, lb.alg_Astar
    patch = lb.patch
    r, dim = lb.rank, patch.dim
    bundle = direct_sum(A.bundle, As.bundle)
    rho = A.anchored.anchor
    rho_star = As.anchored.anchor
    anchor = [[rho[k][j] for j in range(r)]
              + [rho_star[k][s] for s in range(r)] for k in range(dim)]
    gram = [[patch.zero] * (2 * r) for _ in range(2 * r)]
    for i in range(r):
        gram[i][r + i] = patch.one
        gram[r + i][i] = patch.one
    dmat = [[rho_star[k][i] for k in range(dim)] for i in range(r)]
    dmat += [[rho[k][j] for k in range(dim)] for j in range(r)]

    def pair_up(sa, sas):
        return Section(bundle, list(sa.components) + list(sas.components))

    za, zas = A.bundle.zero_section(), As.bundle.zero_section()
    table = [[None] * (2 * r) for _ in range(2 * r)]
    for i in range(r):
        ei = A.bundle.basis_section(i)
        for j in range(r):
            table[i][j] = pair_up(A.bracket[i][j], zas)
        for s in range(r):
            eps = As.bundle.basis_section(s)
            table[i][r + s] = pair_up(-interior_d_dual(As, eps, ei),
                                      lie_deriv_dual(A, ei, eps))
    for s in range(r):
        eps = As.bundle.basis_section(s)
        for j in range(r):
            ej = A.bundle.basis_section(j)
            table[r + s][j] = pair_up(lie_deriv_dual(As, eps, ej),
                                      -interior_d_dual(A, ej, eps))
        for t in range(r):
            table[r + s][r + t] = pair_up(za, As.bracket[s][t])
    return CourantPresentation(bundle, anchor, gram, table, dmat)


def check_lie_bialgebroid(lb, config=None, prefix="lie_bialgebroid"):
    """Both duals are Lie algebroids and the double is Courant."""
    results = list(check_algebroid(lb.alg_A, config, prefix=prefix + ".A"))
    results += check_algebroid(lb.alg_Astar, config, prefix=prefix + ".Astar")
    if any(r.failed for r in results):
        results.append(Check(prefix + ".double", config).skipped(
            "one side is not a Lie algebroid"))
        return results
    results += check_courant_axioms(courant_double(lb), config,
                                    prefix=prefix + ".double")
    return results


# ---------------------------------------------------------------------------
# Poisson structures: the Koszul bracket on T*M and the induced pair.


def bivector_matrix(patch, entries):
    """Antisymmetric coefficient matrix pi[i][j] of a bivector from its
    upper-triangular entries {(i, j): value} with i < j."""
    return two_form_matrix(patch, entries)


def koszul_algebroid(patch, pi):
    """T*M with anchor pi-sharp and the Koszul bracket.

    [dx_i, dx_j] = L_{pi dx_i} dx_j - L_{pi dx_j} dx_i - d(pi(dx_i, dx_j)),
    which on coordinate differentials collapses to d(pi[i][j]).  This is a
    Lie algebroid exactly when pi is Poisson."""
    dim = patch.dim
    ct = cotangent(patch)
    anchor = [[pi[i][k] for i in range(dim)] for k in range(dim)]
    table = [[d_function(pi[i][j]) for j in range(dim)] for i in range(dim)]
    return DullAlgebroid(AnchoredBundle(ct, anchor), table)


def poisson_bialgebroid(patch, pi):
    """(TM, T*M_pi) with the Koszul bracket upstairs."""
    return LieBialgebroidData(tangent_algebroid(patch),
                              koszul_algebroid(patch, pi))


def anchor_anomaly(lb):
    """Matrix of rho . rho_*^t + rho_* . rho^t acting on T*M; it vanishes
    exactly when the two transposed anchors anti-commute."""
    rho = lb.alg_A.anchored.anchor
    rho_star = lb.alg_Astar.anchored.anchor
    return [[_dot(lb.patch, rk + sk, sl + rl) for rl, sl in zip(rho, rho_star)]
            for rk, sk in zip(rho, rho_star)]


def _rho_star_transpose(lb, theta_comps):
    """rho_*^t theta as a section of A: <rho_*^t theta, eps_i> = theta(rho_* eps_i)."""
    return Section(lb.alg_A.bundle, rho_transpose(lb.alg_Astar, theta_comps))


def _frame_dorfman(alg, partner, delta):
    """The Dorfman connection on TM + A* over A + T*M whose frame table
    holds delta(X, alpha, a, theta) = (A-part, T*M-part), for alpha a
    section of partner, the bundle of the A* frame."""
    patch = alg.patch
    tm, ct = tangent(patch), cotangent(patch)
    B = side_B(alg)
    rows = ([(X, partner.zero_section()) for X in tm.basis_sections()]
            + [(tm.zero_section(), al) for al in partner.basis_sections()])
    cols = ([(a, ct.zero_section()) for a in alg.bundle.basis_sections()]
            + [(alg.bundle.zero_section(), th) for th in ct.basis_sections()])
    table = []
    for X, alpha in rows:
        row = []
        for a, theta in cols:
            apart, tpart = delta(X, alpha, a, theta)
            row.append(Section(B, apart.components + tpart.components))
        table.append(row)
    return DorfmanConnection(side_Q(alg), B, table)


def adapted_dorfman_poisson(lb, conn=None):
    """The Dorfman connection on TM + A* over A + T*M adapted to a Lie
    bialgebroid, built from a linear connection nabla on A (flat frame
    connection by default):

    Delta_{(X, alpha)}(a, theta) =
        (<a, nabla^{*bas}_. alpha> + nabla_X a - rho_*^t<nabla*_. alpha, a>,
         L_X theta + <nabla*_. alpha, a>)

    where nabla^{*bas}_{alpha'} alpha = [alpha', alpha]_* + nabla*_{rho_* alpha} alpha'
    is the basic connection of A* paired with the dual connection."""
    A, As = lb.alg_A, lb.alg_Astar
    patch = lb.patch
    if conn is None:
        conn = LinearConnection.flat(A.bundle)

    def delta(X, alpha, a, theta):
        apart = conn.eval(X, a)
        tpart = lie_derivative_1form(X, theta)
        if alpha.is_zero():
            return apart, tpart
        rs_alpha = As.anchor_vf(alpha)
        term1 = [_dot(patch, a.components,
                      (bracket_eval(As, eps, alpha)
                       + dual_connection_eval(conn, rs_alpha, eps)).components)
                 for eps in As.bundle.basis_sections()]
        eta = _dual_pairing_form(conn, alpha, a)
        apart = (apart + Section(A.bundle, term1)
                 - _rho_star_transpose(lb, eta.components))
        return apart, tpart + eta

    return _frame_dorfman(A, As.bundle, delta)


def poisson_triple(lb, conn=None):
    """LA-Dirac triple on the graph of rho_*: A* -> TM inside TM + A*."""
    D = adapted_dorfman_poisson(lb, conn)
    patch = lb.patch
    r, dim = lb.rank, patch.dim
    rho_star = lb.alg_Astar.anchored.anchor
    Q = D.Q
    frames = []
    for s in range(r):
        comps = [rho_star[k][s] for k in range(dim)]
        comps += [patch.one if t == s else patch.zero for t in range(r)]
        frames.append(Section(Q, comps))
    U = Subbundle(Q, Frame(Q, frames))
    return LADiracTriple(lb.alg_A, U, D)


def check_poisson_extras(lb, config=None, prefix="poisson", dorfman=None):
    """Identities special to the bialgebroid pairs beyond the double axioms:
    the anchor anomaly, the restriction of the adapted dual bracket to the
    graph of rho_*, and the transpose intertwining law."""
    config = config or CheckConfig()
    A, As = lb.alg_A, lb.alg_Astar
    patch = lb.patch
    dim = patch.dim
    results = []

    check = Check(prefix + ".anchor_anomaly", config)
    anomaly = anchor_anomaly(lb)
    results.append(check.run(
        itertools.product(labelled("", range(dim)), repeat=2),
        lambda k, l: anomaly[k][l], inputs=named("row", "col")))

    check = Check(prefix + ".dual_restriction", config)
    D = dorfman if dorfman is not None else adapted_dorfman_poisson(lb)
    dull = dual_dull_bracket(D)
    rho_star = As.anchored.anchor

    def graph(alpha):
        comps = apply_matrix(rho_star, alpha.components, patch)
        return Section(D.Q, comps + list(alpha.components))

    alphas = check.tuples(
        labelled("eps", As.bundle.basis_sections()),
        ("random%d", partial(random_section, As.bundle)))
    results.append(check.run(
        itertools.combinations(alphas, 2),
        lambda a1, a2: bracket_eval(dull, graph(a1), graph(a2))
        - graph(bracket_eval(As, a1, a2)), inputs=named("alpha1", "alpha2")))

    def transpose_intertwine(a, theta, _trial):
        lt = lie_derivative_1form(A.anchor_vf(a), theta)
        lhs = _rho_star_transpose(lb, lt.components)
        rhs = bracket_eval(A, a, _rho_star_transpose(lb, theta.components))
        rho_t_theta = Section(As.bundle, rho_transpose(A, theta.components))
        return lhs - (rhs - interior_d_dual(As, rho_t_theta, a))

    check = Check(prefix + ".transpose_intertwine", config)
    rng = check.rng()
    ct = cotangent(patch)
    # drawn lazily, inside the guarded loop
    draws = ((("a", random_section(A.bundle, rng, config.max_degree)),
              ("theta", random_section(ct, rng, config.max_degree)),
              ("trial", t)) for t in range(max(config.trials, 1)))
    results.append(check.run(draws, transpose_intertwine))
    return results


def bialgebroid_from_lie_bialgebroid(lb, config=None, verify=True):
    """The Dirac bialgebroid (A, A*) with U = A* embedded in TM + A* as the
    graph of rho_*, plus the Manin pair (A + A*, A*).  Returns (db, mp)."""
    if verify:
        failing = [r.name for r in check_lie_bialgebroid(lb, config)
                   if r.failed]
        if failing:
            raise ValueError("not a Lie bialgebroid; failing checks: "
                             + ", ".join(failing))
    patch = lb.patch
    r, dim = lb.rank, patch.dim
    rho = lb.alg_A.anchored.anchor
    rho_star = lb.alg_Astar.anchored.anchor
    iota = [[rho_star[k][s] for s in range(r)] for k in range(dim)]
    iota += [[patch.one if t == s else patch.zero for s in range(r)]
             for t in range(r)]
    db = DiracBialgebroid(lb.alg_A, lb.alg_Astar, iota)
    C = courant_double(lb)
    U_in_C = Subbundle(C.bundle, Frame(C.bundle, [
        C.bundle.basis_section(r + s) for s in range(r)]))
    # Phi(a, theta) = (a + rho_*^t theta, rho^t theta) into A + A*
    Phi = [[patch.zero] * (r + dim) for _ in range(2 * r)]
    for i in range(r):
        Phi[i][i] = patch.one
        for k in range(dim):
            Phi[i][r + k] = rho_star[k][i]
    for j in range(r):
        for k in range(dim):
            Phi[r + j][r + k] = rho[k][j]
    mp = AManinPair(C=C, U_in_C=U_in_C, iota=iota, Phi=Phi,
                    alg=lb.alg_A, alg_U=lb.alg_Astar)
    return db, mp


# ---------------------------------------------------------------------------
# IM 2-forms sigma: A -> T*M.


def sigma_from_2form(patch, omega):
    """The bundle map TM -> T*M of a 2-form: sigma(X) = i_X omega, as a
    dim x dim coefficient matrix with column i the image of d/dx_i."""
    dim = patch.dim
    return [[omega[j][k] for j in range(dim)] for k in range(dim)]


def _sigma_apply(alg, sigma, a):
    """sigma(a) as a 1-form."""
    patch = alg.patch
    return Section(cotangent(patch), apply_matrix(sigma, a.components, patch))


def im2form_defects(alg, sigma, a1, a2):
    """The two defining residuals of an IM 2-form on a pair of sections:

    (pairing)  <rho(a1), sigma(a2)> + <rho(a2), sigma(a1)>
    (bracket)  sigma([a1, a2]) - L_{rho(a1)} sigma(a2) + i_{rho(a2)} d sigma(a1)

    Both vanish identically exactly when sigma is IM."""
    d1 = (pair_form_vf(_sigma_apply(alg, sigma, a2), alg.anchor_vf(a1))
          + pair_form_vf(_sigma_apply(alg, sigma, a1), alg.anchor_vf(a2)))
    d2 = _sigma_apply(alg, sigma, bracket_eval(alg, a1, a2))
    d2 = d2 - lie_derivative_1form(alg.anchor_vf(a1), _sigma_apply(alg, sigma, a2))
    d2 = d2 + interior_vf_2form(alg.anchor_vf(a2),
                                d_oneform(_sigma_apply(alg, sigma, a1)))
    return d1, d2


def check_im2form(alg, sigma, config=None, prefix="im2form"):
    """Certify the two IM conditions on frame pairs and random sections."""
    config = config or CheckConfig()
    patch = alg.patch
    if len(sigma) != patch.dim or any(len(r) != alg.rank for r in sigma):
        raise ValueError("sigma must be a dim x rank coefficient matrix")
    anti = Check(prefix + ".antisymmetry", config)
    anti.note = "IM condition (1): <sigma a1, rho a2> + <sigma a2, rho a1> = 0"
    brk = Check(prefix + ".bracket", config)
    brk.note = ("IM condition (2): sigma[a1,a2] = "
                "L_{rho a1} sigma(a2) - i_{rho a2} d(sigma a1)")
    elems = anti.tuples(
        labelled("e", alg.bundle.basis_sections()),
        ("random%d", partial(random_section, alg.bundle)))
    try:
        for (l1, a1), (l2, a2) in itertools.combinations(elems, 2):
            d1, d2 = im2form_defects(alg, sigma, a1, a2)
            if not d1.is_zero():
                anti.witness(d1, a1=l1, a2=l2)
            if not d2.is_zero():
                brk.witness(d2, a1=l1, a2=l2)
            if anti.settled and brk.settled:
                break
    except Exception as exc:
        return [anti.error(exc), brk.error(exc)]
    return [anti.result(), brk.result()]


def bialgebroid_from_im2form(alg, sigma):
    """The Dirac bialgebroid (A, TM) of a bundle map sigma: A -> T*M, with
    TM embedded in TM + A* as the graph of sigma^t, plus the Manin pair
    (TM + T*M, TM).  Built unconditionally; run check_im2form and
    check_manin_pair to certify.  Returns (db, mp)."""
    patch = alg.patch
    dim, ra = patch.dim, alg.rank
    rho = alg.anchored.anchor
    iota = [[patch.one if k == i else patch.zero for i in range(dim)]
            for k in range(dim)]
    iota += [[sigma[i][j] for i in range(dim)] for j in range(ra)]
    db = DiracBialgebroid(alg, tangent_algebroid(patch), iota)
    C = standard_courant(patch)
    U_in_C = Subbundle(C.bundle, Frame(C.bundle, [
        C.bundle.basis_section(i) for i in range(dim)]))
    # Phi(a, theta) = (rho(a), sigma(a) + theta) into TM + T*M
    Phi = [[patch.zero] * (ra + dim) for _ in range(2 * dim)]
    for k in range(dim):
        for j in range(ra):
            Phi[k][j] = rho[k][j]
            Phi[dim + k][j] = sigma[k][j]
        Phi[dim + k][ra + k] = patch.one
    mp = AManinPair(C=C, U_in_C=U_in_C, iota=iota, Phi=Phi,
                    alg=alg, alg_U=tangent_algebroid(patch))
    return db, mp


def _adapted_dorfman(alg, conn, sigma=None):
    """Dorfman connection adapted to a bundle map sigma: A -> T*M (zero
    map when sigma is None):

    Delta_{(X, alpha)}(a, theta) = (nabla_X a,
        L_X(theta - sigma a) + <nabla*_.(sigma^t X + alpha), a>
        + sigma(nabla_X a))

    The T*M columns come out zero, so the table is a valid Dorfman
    connection for any inputs."""
    patch = alg.patch
    partner = dual_partner(alg.bundle)

    def sig(a):
        if sigma is None:
            return cotangent(patch).zero_section()
        return _sigma_apply(alg, sigma, a)

    def delta(X, alpha, a, theta):
        apart = conn.eval(X, a)
        xi = alpha
        if sigma is not None:
            xi = xi + Section(partner,
                              _apply_transpose(sigma, X.components, patch))
        tpart = lie_derivative_1form(X, theta - sig(a))
        return apart, tpart + _dual_pairing_form(conn, xi, a) + sig(apart)

    return _frame_dorfman(alg, partner, delta)


def adapted_dorfman_presymplectic(alg, sigma, conn=None):
    """Dorfman connection on TM + A* adapted to a bundle map sigma."""
    if conn is None:
        conn = LinearConnection.flat(alg.bundle)
    return _adapted_dorfman(alg, conn, sigma)


def presymplectic_triple(alg, sigma, conn=None):
    """LA-Dirac triple on the graph of -sigma^t: TM -> A* inside TM + A*."""
    D = adapted_dorfman_presymplectic(alg, sigma, conn)
    patch = alg.patch
    dim, ra = patch.dim, alg.rank
    frames = []
    for i in range(dim):
        comps = [patch.one if k == i else patch.zero for k in range(dim)]
        comps += [-sigma[i][j] for j in range(ra)]
        frames.append(Section(D.Q, comps))
    U = Subbundle(D.Q, Frame(D.Q, frames))
    return LADiracTriple(alg, U, D)


def flip_astar(db):
    """The same Dirac bialgebroid with the A*-components of the embedding
    negated; bridges the two sign conventions for graph embeddings."""
    patch = db.patch
    dim = patch.dim
    iota = [list(row) for row in db.iota[:dim]]
    iota += [[-v for v in row] for row in db.iota[dim:]]
    return DiracBialgebroid(db.alg, db.alg_U, iota)


# ---------------------------------------------------------------------------
# Infinitesimal ideal systems (F_M, J, nabla).


@dataclass
class IISData:
    """Candidate ideal system on an algebroid: an involutive subbundle
    F_M of TM, a subbundle J of A with rho(J) inside F_M, and a linear
    connection whose restriction along F_M preserves J (so it descends to
    a partial connection on A/J).  Whether the quotient data really is an
    ideal system is what check_iis certifies; the constructor only rejects
    structurally ill-formed input."""

    alg: DullAlgebroid
    F_M: Subbundle
    J: Subbundle
    conn: LinearConnection

    def __post_init__(self):
        alg = self.alg
        patch = alg.patch
        if self.F_M.ambient != tangent(patch):
            raise ValueError("F_M must be a subbundle of TM")
        if self.J.ambient != alg.bundle:
            raise ValueError("J must be a subbundle of the algebroid bundle")
        if self.conn.bundle != alg.bundle:
            raise ValueError("the connection must live on the algebroid bundle")
        for X in self.F_M.frame:
            for Y in self.F_M.frame:
                if not membership(lie_bracket_vf(X, Y), self.F_M)[0]:
                    raise ValueError("F_M is not involutive")
        for j in self.J.frame:
            if not membership(alg.anchor_vf(j), self.F_M)[0]:
                raise ValueError("rho(J) must land in F_M")
            for X in self.F_M.frame:
                if not membership(self.conn.eval(X, j), self.J)[0]:
                    raise ValueError("the connection must preserve J along F_M")

    @property
    def patch(self):
        return self.alg.patch


# the most unknown coefficients parallel_frame_search lists: each one is a
# coordinate of the auxiliary patch, so its time and memory grow with the
# count (595 at degree 33 on two coordinates with one frame vector)
_ANSATZ_UNKNOWNS = 600


def parallel_frame_search(iis, degree=2):
    """Sections of a complement of J whose classes in A/J are parallel
    along every F_M frame, found exactly by a polynomial coefficient
    ansatz of the given total degree.

    The unknown coefficients become extra field generators on an auxiliary
    patch; the parallelism conditions are linear in them with denominators
    free of the unknowns, so collecting the numerator per monomial in the
    base coordinates gives a rational linear system.  Returns a maximal
    list of solutions independent modulo J (so a full parallel frame of
    A/J exists within this degree bound iff the list has corank-of-J many
    entries).  Parallel sections with non-polynomial coefficients are out
    of reach of the ansatz, so an empty result is evidence, not proof, of
    obstruction; on polynomial data the flat case always succeeds at
    degree 0.

    The selection is one greedy elimination: each nullspace vector of the
    Fraction system gives a candidate, and the candidates whose columns are
    pivots after J's frame are kept (at most t, the corank of J).

    A degree over the patch's bound, an ansatz over its auxiliary patch's
    bound, or one of more than _ANSATZ_UNKNOWNS unknowns raises
    ArithmeticError before the auxiliary patch is built."""
    alg, F, J, conn = iis.alg, iis.F_M, iis.J, iis.conn
    patch = alg.patch
    dim, ra = patch.dim, alg.rank
    adapted = J.adapted_frame()
    W = adapted.sections[J.rank:]
    t = len(W)
    if t == 0:
        return []
    proj = adapted.solver().T[J.rank:]

    monos = _monomials(patch, degree)
    nunk = t * len(monos)
    # the ansatz terms are an unknown times a monomial of the base
    bound = (1 << _field_bits(dim + nunk) - 1) - 1
    if degree + 1 > bound:
        raise ArithmeticError("ansatz degree %d is over the bound %d of its "
                              "auxiliary patch" % (degree + 1, bound))
    if nunk > _ANSATZ_UNKNOWNS:
        raise ArithmeticError("ansatz of degree %d has %d unknowns, over the "
                              "limit %d" % (degree, nunk, _ANSATZ_UNKNOWNS))
    stem = "uc"
    while any(name.startswith(stem) for name in patch.coords):
        stem = stem + "u"
    aux = Patch(list(patch.coords) + ["%s%d" % (stem, u) for u in range(nunk)])

    def lift(s):
        return parse_scalar(str(s), aux)

    def lift_all(rows):
        return [[lift(v) for v in row] for row in rows]

    def monomials(p):
        out = []
        for m in monos:
            v = p.one
            for i, e in enumerate(m):
                if e:
                    v = v * p.coordinate(i) ** e
            out.append(v)
        return out

    def ansatz(p, mono, coeffs, frame):
        """sum over mi of (sum_u coeffs[mi, u] mono[u]) frame[mi] on p."""
        comps = [p.zero] * ra
        for mi, w in enumerate(frame):
            f = _dot(p, coeffs[mi * len(monos):(mi + 1) * len(monos)], mono)
            if f:
                _accumulate(comps, f, w)
        return comps

    gamma_l = [lift_all([g.components for g in row]) for row in conn.gamma]
    proj_l = lift_all(proj)
    scomp = ansatz(aux, monomials(aux),
                   [aux.coordinate(dim + u) for u in range(nunk)],
                   lift_all([s.components for s in W]))
    # d_i s + sum_j s^j gamma[i][j], the covariant derivative along d/dx_i
    cov = []
    for i in range(dim):
        comps = [c.diff(i) for c in scomp]
        for sj, g in zip(scomp, gamma_l[i]):
            if sj:
                _accumulate(comps, sj, g)
        cov.append(comps)

    equations = {}
    for X in lift_all([X.components for X in F.frame]):
        nab = [_dot(aux, X, [c[k] for c in cov]) for k in range(ra)]
        for w in range(t):
            cond = _dot(aux, proj_l[w], nab)
            for exps, coeff in cond.numer.items():
                cexps = exps[dim:]
                total = sum(cexps)
                if total == 0 and coeff:
                    raise RuntimeError("parallelism condition is not "
                                       "homogeneous in the unknowns")
                if total != 1 or max(cexps) != 1:
                    raise RuntimeError("parallelism condition is not linear "
                                       "in the unknowns")
                idx = cexps.index(1)
                key = exps[:dim]
                row = equations.setdefault(key, [Fraction(0)] * nunk)
                row[idx] += coeff

    rows = [equations[k] for k in sorted(equations)]
    xmono = monomials(patch)
    W_comps = [w.components for w in W]
    candidates = [Section(alg.bundle, ansatz(patch, xmono,
                                             [patch.scalar(q) for q in vec],
                                             W_comps))
                  for vec in nullspace(rows, patch, nunk)]
    return _independent_extension(J, candidates)


def check_iis(iis, config=None, prefix="iis"):
    """Certify an ideal system both ways and cross-check the verdicts.

    The flatness route checks, on frames (enough, since every condition is
    a membership of a tensorial or frame-determined defect): curvature of
    nabla lands in J, basic covariant derivatives preserve F_M and J, and
    the basic curvature on F_M vectors lands in J.  The definition route
    hunts for an actual parallel frame of A/J and then tests the ideal and
    closure conditions on it."""
    config = config or CheckConfig()
    alg, F, J, conn = iis.alg, iis.F_M, iis.J, iis.conn
    bas = BasicConnections(alg, conn)
    results = []

    frames_A = labelled("e", alg.bundle.basis_sections())
    frames_F = labelled("F", F.frame)

    check = Check(prefix + ".alt.flat", config)
    results.append(check.run(
        (pair + (a,) for pair, a in itertools.product(
            itertools.combinations(frames_F, 2), frames_A)),
        partial(_conn_curvature, conn), zero=lambda v: membership(v, J)[0],
        inputs=named("X1", "X2", "a")))

    check = Check(prefix + ".alt.basic_vector", config)
    results.append(check.run(
        itertools.product(frames_A, frames_F), bas.on_vector_fields,
        zero=lambda v: membership(v, F)[0], inputs=named("a", "X")))

    check = Check(prefix + ".alt.basic_section", config)
    results.append(check.run(
        itertools.product(frames_A, labelled("J", J.frame)),
        lambda a, j: bas.on_sections(j, a),
        zero=lambda v: membership(v, J)[0],
        inputs=lambda e: {"j": e[1][0], "a": e[0][0]}))

    check = Check(prefix + ".alt.basic_curvature", config)
    results.append(check.run(
        (pair + (X,) for pair, X in itertools.product(
            itertools.combinations(frames_A, 2), frames_F)),
        bas.curvature, zero=lambda v: membership(v, J)[0],
        inputs=named("a1", "a2", "X")))
    alt_ok = all(r.status == "pass" for r in results)

    t = alg.rank - J.rank
    pf = Check(prefix + ".def.parallel_frame", config)
    try:
        frame = parallel_frame_search(iis, degree=config.max_degree)
    except ArithmeticError as exc:
        # a degree over a bound or an ansatz over the unknown limit, raised
        # before the auxiliary patch is built
        frame = None
        results.append(pf.error(exc))
    else:
        if len(frame) < t:
            pf.witness("degree <= %d ansatz" % config.max_degree,
                       found=len(frame), needed=t)
            results.append(pf.result(
                note="no full parallel frame of A/J with polynomial "
                     "coefficients of degree <= %d" % config.max_degree))
        else:
            results.append(pf.result(
                note="parallel frame of A/J found at degree <= %d"
                     % config.max_degree))
    have_frame = frame is not None and len(frame) >= t

    if have_frame:
        frames_s = labelled("s", frame)
        check = Check(prefix + ".def.ideal", config)
        results.append(check.run(
            itertools.product(frames_s, labelled("J", J.frame)),
            partial(bracket_eval, alg), zero=lambda v: membership(v, J)[0],
            inputs=named("parallel", "j")))

        check = Check(prefix + ".def.bracket_parallel", config)
        results.append(check.run(
            (pair + (X,) for pair, X in itertools.product(
                itertools.combinations(frames_s, 2), frames_F)),
            lambda s1, s2, X: conn.eval(X, bracket_eval(alg, s1, s2)),
            zero=lambda v: membership(v, J)[0],
            inputs=named("s1", "s2", "X")))

        check = Check(prefix + ".def.anchor_parallel", config)
        results.append(check.run(
            itertools.product(frames_s, frames_F),
            lambda s, X: lie_bracket_vf(X, alg.anchor_vf(s)),
            zero=lambda v: membership(v, F)[0], inputs=named("s", "X")))
        def_ok = all(r.status == "pass" for r in results[-4:])
    else:
        why = "needs a parallel frame of A/J"
        for name in (".def.ideal", ".def.bracket_parallel",
                     ".def.anchor_parallel"):
            results.append(Check(prefix + name, config).skipped(why))
        def_ok = False

    check = Check(prefix + ".cross_agree", config)
    if frame is None:
        results.append(check.skipped("the definition route errored"))
        return results
    if alt_ok != def_ok:
        check.witness("flatness route says %s, definition route says %s"
                      % ("pass" if alt_ok else "fail",
                         "pass" if def_ok else "fail"),
                      flatness_route=alt_ok, definition_route=def_ok)
    results.append(check.result(
        note="" if alt_ok else "both routes report the obstruction"))
    return results


def adapted_dorfman_iis(iis):
    """Dorfman connection on TM + A* adapted to an ideal system:
    Delta_{(X, alpha)}(a, theta) = (nabla_X a, L_X theta + <nabla*_. alpha, a>)."""
    return _adapted_dorfman(iis.alg, iis.conn)


def iis_triple(iis):
    """LA-Dirac triple on F_M + J-polar inside TM + A*."""
    alg = iis.alg
    patch = alg.patch
    dim, ra = patch.dim, alg.rank
    D = adapted_dorfman_iis(iis)
    j0 = nullspace([list(j.components) for j in iis.J.frame], patch, ra)
    frames = []
    for X in iis.F_M.frame:
        frames.append(Section(D.Q, list(X.components) + [patch.zero] * ra))
    for al in j0:
        frames.append(Section(D.Q, [patch.zero] * dim + list(al)))
    U = Subbundle(D.Q, Frame(D.Q, frames))
    return LADiracTriple(alg, U, D)


class AbarAlgebroid(GraphQuotient):
    """The quotient (F_M + A) / graph(-rho restricted to J): the graph
    quotient of bundles.GraphQuotient (see the bundles module docstring)
    with V = F_M, E = A and phi = rho.

    Presentation elements carry F_M-frame coordinates in the first rank(F_M)
    slots and A-frame components after; the class of (X, a) vanishes iff a
    is a section of J with X = -rho(a).  reduced() re-expresses everything
    on the canonical transversal (the F_M frame plus a complement of J) as
    an honest bracket-table algebroid, built once per quotient.  bracket
    memoises on representatives by the algebroid module's two-tier rule
    (bundles._recall), living as long as the quotient."""

    def __init__(self, iis):
        alg = iis.alg
        super().__init__(iis.F_M, iis.J, alg.anchor_vf,
                         "FM+%s" % alg.bundle.name)
        self.iis = iis
        self.rank = self.true_rank
        self.bas = BasicConnections(alg, iis.conn)
        self._reduced = None
        # the two memo tiers of bracket
        self._memo = {}
        self._recent = {}

    def anchor_vf(self, c):
        X, a = self.split(c)
        return X + self.iis.alg.anchor_vf(a)

    def bracket(self, c1, c2):
        """[X1 (+) a1, X2 (+) a2] = ([X1, X2] + nabla^bas_{a1} X2
        - nabla^bas_{a2} X1) (+) ([a1, a2] + nabla_{X1} a2 - nabla_{X2} a1)."""
        if (c1.bundle is not self.bundle and c1.bundle != self.bundle
                or c2.bundle is not self.bundle and c2.bundle != self.bundle):
            raise ValueError("sections do not live in the quotient bundle")
        return _recall(self, self.bundle, (c1, c2),
                       lambda: self._bracket(c1, c2))

    def _bracket(self, c1, c2):
        alg, conn = self.iis.alg, self.iis.conn
        (X1, a1), (X2, a2) = self.split(c1), self.split(c2)
        Xb = lie_bracket_vf(X1, X2)
        Xb = Xb + self.bas.on_vector_fields(a1, X2)
        Xb = Xb - self.bas.on_vector_fields(a2, X1)
        ab = bracket_eval(alg, a1, a2)
        ab = ab + conn.eval(X1, a2) - conn.eval(X2, a1)
        inside, xc = membership(Xb, self.iis.F_M)
        if not inside:
            raise ValueError("bracket leaves the presentation: the basic "
                             "connection does not preserve F_M")
        return Section(self.bundle, list(xc) + list(ab.components))

    def jacobiator(self, c1, c2, c3):
        out = self.bracket(self.bracket(c1, c2), c3)
        out = out + self.bracket(self.bracket(c2, c3), c1)
        out = out + self.bracket(self.bracket(c3, c1), c2)
        return out

    def jacobiator_correction(self, c1, c2, c3):
        """The exact section j of A with jacobiator = (-rho(j)) (+) j:
        j = sum over cyclic permutations of
        R^bas(a1, a2)X3 - R_nabla(X1, X2)a3."""
        alg, conn = self.iis.alg, self.iis.conn
        parts = [self.split(c) for c in (c1, c2, c3)]
        j = alg.bundle.zero_section()
        for i in range(3):
            (X1, a1), (X2, a2), (X3, a3) = (parts[i], parts[(i + 1) % 3],
                                            parts[(i + 2) % 3])
            j = j + self.bas.curvature(a1, a2, X3)
            j = j - _conn_curvature(conn, X1, X2, a3)
        return j

    def reduced(self):
        """The honest bracket-table algebroid on the canonical transversal,
        built at the first call and kept."""
        if self._reduced is not None:
            return self._reduced
        frames = self.frame_sections()
        n = len(frames)
        patch = self.patch
        rb = TrivialBundle(patch, n, "Abar")
        anchor = [[None] * n for _ in range(patch.dim)]
        for m, f in enumerate(frames):
            vf = self.anchor_vf(f)
            for k in range(patch.dim):
                anchor[k][m] = vf.components[k]
        table = [[Section(rb, self.coordinates(self.bracket(f1, f2)))
                  for f2 in frames] for f1 in frames]
        self._reduced = DullAlgebroid(AnchoredBundle(rb, anchor), table)
        return self._reduced


def random_extension_perturbation(iis, rng, max_degree=1):
    """A different linear connection inducing the same partial connection on
    A/J along F_M: J-valued bumps anywhere, arbitrary bumps on derivative
    directions transverse to every F_M frame."""
    alg, F, J = iis.alg, iis.F_M, iis.J
    patch = alg.patch
    gamma = [[iis.conn.gamma[i][j] for j in range(alg.rank)]
             for i in range(patch.dim)]
    for i in range(patch.dim):
        transverse = all(X.components[i].is_zero() for X in F.frame)
        for j in range(alg.rank):
            if transverse:
                bump = random_section(alg.bundle, rng, max_degree)
            else:
                bump = random_combination(J, rng, max_degree)
            gamma[i][j] = gamma[i][j] + bump
    return LinearConnection(alg.bundle, gamma)


def check_abar(abar, config=None, prefix="abar", iis_results=None):
    """Certify the quotient: the reduced algebroid's axioms, the exact
    expression of the presentation Jacobiator through the two curvatures,
    and independence of the choice of extension nabla.  A failing Jacobi
    check names the failing checks of iis_results, the check_iis results
    of the same ideal system and config (run here when not given)."""
    config = config or CheckConfig()
    iis = abar.iis
    red = abar.reduced()
    results = list(check_algebroid(red, config, prefix=prefix))
    jac_idx = next(i for i, r in enumerate(results)
                   if r.name == prefix + ".jacobi")
    if results[jac_idx].status == "fail":
        if iis_results is None:
            iis_results = check_iis(iis, config)
        failing = [r.name for r in iis_results if r.failed]
        results[jac_idx] = replace(
            results[jac_idx],
            note="ideal system conditions failing: " + ", ".join(failing))

    # the X and A parts of jacobiator - ((-rho(j)) (+) j), side by side
    sides = direct_sum(tangent(abar.patch), iis.alg.bundle)

    def correction(c1, c2, c3):
        X, a = abar.split(abar.jacobiator(c1, c2, c3))
        j = abar.jacobiator_correction(c1, c2, c3)
        xres = X + iis.alg.anchor_vf(j)
        return Section(sides, xres.components + (a - j).components)

    check = Check(prefix + ".jacobiator_correction", config)
    elems = check.tuples(labelled("f", abar.frame_sections()),
                         ("random%d", partial(random_section, abar.bundle)))
    results.append(check.run(
        itertools.islice(itertools.combinations(elems, 3), len(elems) * 3),
        correction, inputs=named("c1", "c2", "c3")))

    check = Check(prefix + ".extension_independent", config)
    rng = check.rng()
    conn2 = random_extension_perturbation(iis, rng,
                                          max_degree=min(config.max_degree, 1))
    abar2 = AbarAlgebroid(IISData(iis.alg, iis.F_M, iis.J, conn2))
    results.append(check.run(
        itertools.combinations(elems, 2),
        lambda c1, c2: abar.bracket(c1, c2) - abar2.bracket(c1, c2),
        zero=abar.is_zero, inputs=named("c1", "c2")))
    return results


def bialgebroid_from_iis(iis, config=None, verify=True, abar=None):
    """The Dirac bialgebroid (A, F_M + J-polar) of an ideal system, plus its
    Manin pair inside the double of the reduced quotient algebroid with its
    abelian dual; abar is the quotient AbarAlgebroid(iis), built here when
    not given.  Returns (db, mp)."""
    if verify:
        failing = [r.name for r in check_iis(iis, config)
                   if r.failed]
        if failing:
            raise ValueError("not an infinitesimal ideal system; failing "
                             "checks: " + ", ".join(failing))
    alg, F, J, conn = iis.alg, iis.F_M, iis.J, iis.conn
    patch = alg.patch
    dim, ra = patch.dim, alg.rank
    if abar is None:
        abar = AbarAlgebroid(iis)
    elif abar.iis is not iis:
        raise ValueError("abar must be the quotient of this ideal system")
    red = abar.reduced()
    n = red.rank
    dual = trivial_dual_algebroid(dual_partner(red.bundle))
    C = courant_double(LieBialgebroidData(red, dual))

    j0 = nullspace([list(j.components) for j in J.frame], patch, ra)
    rF, t = F.rank, len(j0)
    partner = dual_partner(alg.bundle)
    j0sub = Subbundle(partner, Frame(partner, [Section(partner, al)
                                               for al in j0]))

    ubundle = TrivialBundle(patch, rF + t, "FM+J0")
    anchor = [[patch.zero] * (rF + t) for _ in range(dim)]
    for p in range(rF):
        for k in range(dim):
            anchor[k][p] = F.frame[p].components[k]
    table = [[None] * (rF + t) for _ in range(rF + t)]
    zero_u = Section(ubundle, [patch.zero] * (rF + t))
    for p in range(rF):
        for q in range(rF):
            _, xc = membership(lie_bracket_vf(F.frame[p], F.frame[q]), F)
            table[p][q] = Section(ubundle, list(xc) + [patch.zero] * t)
        for s in range(t):
            nb = dual_connection_eval(conn, F.frame[p],
                                      Section(partner, j0[s]))
            inside, jc = membership(nb, j0sub)
            if not inside:
                raise ValueError("dual connection does not preserve the "
                                 "J-polar subbundle")
            table[p][rF + s] = Section(ubundle, [patch.zero] * rF + list(jc))
            table[rF + s][p] = -table[p][rF + s]
    for s in range(t):
        for u in range(t):
            table[rF + s][rF + u] = zero_u
    alg_U = DullAlgebroid(AnchoredBundle(ubundle, anchor), table)

    iota = [[patch.zero] * (rF + t) for _ in range(dim + ra)]
    for p in range(rF):
        for k in range(dim):
            iota[k][p] = F.frame[p].components[k]
    for s in range(t):
        for l in range(ra):
            iota[dim + l][rF + s] = j0[s][l]
    db = DiracBialgebroid(alg, alg_U, iota)

    frames = [C.bundle.basis_section(p) for p in range(rF)]
    for al in j0:
        frames.append(Section(C.bundle, [patch.zero] * (n + rF) + [
            _dot(patch, al, w.components) for w in abar.W]))
    U_in_C = Subbundle(C.bundle, Frame(C.bundle, frames))

    # Phi(a, theta) = (class of 0 (+) a, the functional
    # class(X, b) |-> theta(X + rho(b)))
    reps = abar.frame_sections()
    Phi = [[patch.zero] * (ra + dim) for _ in range(2 * n)]
    for j in range(ra):
        zc = abar.coordinates(abar.lift([patch.zero] * rF,
                                        alg.bundle.basis_section(j)))
        for m in range(n):
            Phi[m][j] = zc[m]
    for k in range(dim):
        for m, rep in enumerate(reps):
            vf = abar.anchor_vf(rep)
            Phi[n + m][ra + k] = vf.components[k]
    mp = AManinPair(C=C, U_in_C=U_in_C, iota=iota, Phi=Phi,
                    alg=alg, alg_U=alg_U)
    return db, mp


# ---------------------------------------------------------------------------
# Dirac bialgebras over a point.


def point_patch():
    """A one-coordinate patch standing in for a point; constant-coefficient
    data never looks at the coordinate."""
    return Patch(["t"])


def _require_constant(patch, value, what):
    for i in range(patch.dim):
        if not value.diff(i).is_zero():
            raise ValueError("%s must be constant, got %s" % (what, value))


def lie_algebra_algebroid(patch, name, table):
    """Zero-anchor algebroid with constant structure coefficients;
    table[i][j] lists the coefficients of [e_i, e_j]."""
    n = len(table)
    bundle = TrivialBundle(patch, n, name)
    anchor = [[patch.zero] * n for _ in range(patch.dim)]
    brk = [[bundle.section(list(table[i][j])) for j in range(n)]
           for i in range(n)]
    return DullAlgebroid(AnchoredBundle(bundle, anchor), brk)


@dataclass
class DiracBialgebraData:
    """A Lie algebra g, a Lie algebra p, and a map iota: p -> g* given by
    the n x k matrix iota[i][r] = <iota(xi_r), e_i>, all with constant
    coefficients over a point patch."""

    alg_g: DullAlgebroid
    alg_p: DullAlgebroid
    iota: list

    def __post_init__(self):
        patch = self.alg_g.patch
        if self.alg_p.patch is not patch:
            raise ValueError("g and p must live on the same patch")
        n, k = self.alg_g.rank, self.alg_p.rank
        self.iota = [[patch.scalar(v) for v in row] for row in self.iota]
        if len(self.iota) != n or any(len(r) != k for r in self.iota):
            raise ValueError("iota must be an n x k matrix")
        for alg, label in ((self.alg_g, "g"), (self.alg_p, "p")):
            for row in alg.anchored.anchor:
                for v in row:
                    if not v.is_zero():
                        raise ValueError("a Lie algebra has no anchor; %s "
                                         "has a nonzero one" % label)
            for row in alg.bracket:
                for s in row:
                    for v in s.components:
                        _require_constant(patch, v,
                                          "[%s] structure coefficient" % label)
        for row in self.iota:
            for v in row:
                _require_constant(patch, v, "iota entry")

    @property
    def patch(self):
        return self.alg_g.patch


@dataclass
class PointReduction:
    """Everything derived from a Dirac bialgebra whose p-polar is an ideal:
    the quotient h = g / p-polar, the bracket transported from p to h*, the
    double h + h*, and the two embeddings."""

    p_polar: list
    alg_h: DullAlgebroid
    alg_hstar: DullAlgebroid
    h_coords: list
    double: CourantPresentation
    phi: list
    p_in_double: list


def ideal_and_bialgebra_from(db):
    """Reduce a Dirac bialgebra through its p-polar; raises ValueError when
    the polar is not an ideal of g or iota does not pair p perfectly with
    the quotient (one tracked elimination of P gives the check and P^-1)."""
    g, p = db.alg_g, db.alg_p
    patch = db.patch
    n, k = g.rank, p.rank
    p0 = nullspace([[db.iota[i][r] for i in range(n)] for r in range(k)],
                   patch, n)
    p0_secs = [Section(g.bundle, v) for v in p0]
    p0_sub = Subbundle(g.bundle, Frame(g.bundle, p0_secs))
    for i in range(n):
        ei = g.bundle.basis_section(i)
        for z in p0_secs:
            br = bracket_eval(g, ei, z)
            inside, _ = membership(br, p0_sub)
            if not inside:
                raise ValueError("the polar of p is not an ideal of g: "
                                 "[e%d, %s] = %s leaves it" % (i, z, br))

    adapted = p0_sub.adapted_frame()
    W = adapted.sections[len(p0):]
    h_coords = adapted.solver().T[len(p0):]
    P = [_apply_transpose(db.iota, w.components, patch) for w in W]
    _, Pinv, pivots = rref(P, patch, track=True)
    if len(pivots) < k:
        raise ValueError("iota does not pair p perfectly with g / p-polar")

    hb = TrivialBundle(patch, k, "h")
    anchor = [[patch.zero] * k for _ in range(patch.dim)]
    h_table = [[Section(hb, apply_matrix(
        h_coords, bracket_eval(g, W[a], W[b]).components, patch))
        for b in range(k)] for a in range(k)]
    alg_h = DullAlgebroid(AnchoredBundle(hb, anchor), h_table)

    hsb = dual_partner(hb)
    hstar_table = [[None] * k for _ in range(k)]
    # P carries p-coordinates to h*-coordinates, so each bracket of p is
    # transported once
    p_table = [[apply_matrix(P, cp.components, patch) for cp in row]
               for row in p.bracket]
    for a in range(k):
        for b in range(k):
            comps = [patch.zero] * k
            for r in range(k):
                for s in range(k):
                    _accumulate(comps, Pinv[r][a], p_table[r][s],
                                Pinv[s][b])
            hstar_table[a][b] = Section(hsb, comps)
    alg_hstar = DullAlgebroid(
        AnchoredBundle(hsb, [[patch.zero] * k for _ in range(patch.dim)]),
        hstar_table)

    double = courant_double(LieBialgebroidData(alg_h, alg_hstar))
    phi = [[h_coords[a][i] for i in range(n)] for a in range(k)]
    phi += [[patch.zero] * n for _ in range(k)]
    p_in_double = [[patch.zero] * k for _ in range(k)] + [list(r) for r in P]
    return PointReduction(p_polar=p0, alg_h=alg_h, alg_hstar=alg_hstar,
                          h_coords=h_coords, double=double, phi=phi,
                          p_in_double=p_in_double)


def check_dirac_bialgebra(db, config=None, prefix="bialgebra"):
    """Certify a Dirac bialgebra: both brackets are Lie, iota is injective,
    the polar of p is an ideal, iota pairs p perfectly with the quotient h,
    the transported cobracket is a cocycle, the double of (h, h*) is
    Courant, and the two embeddings land as they should."""
    config = config or CheckConfig()
    g, p = db.alg_g, db.alg_p
    patch = db.patch
    n, k = g.rank, p.rank
    results = list(check_algebroid(g, config, prefix=prefix + ".g"))
    results += check_algebroid(p, config, prefix=prefix + ".p")

    check = Check(prefix + ".iota_injective", config)
    rank = matrix_rank(db.iota, patch)
    if rank != k:
        check.witness("rank %d < %d" % (rank, k), rank=rank, expected=k)
    results.append(check.result())
    injective = rank == k

    ideal = Check(prefix + ".ideal", config)
    reduction = None
    if injective:
        try:
            reduction = ideal_and_bialgebra_from(db)
        except ValueError as exc:
            ideal.witness(str(exc))
    downstream = (prefix + ".duality", prefix + ".cocycle",
                  prefix + ".phi_morphism", prefix + ".phi_isotropic",
                  prefix + ".p_lagrangian", prefix + ".pairing_compat",
                  prefix + ".spanning")
    if not injective:
        results.append(ideal.skipped("iota is not injective"))
        why = "iota is not injective"
    else:
        results.append(ideal.result())
        why = "the polar of p is not an ideal"
    if reduction is None:
        for name in downstream:
            results.append(Check(name, config).skipped(why))
        results.append(Check(prefix + ".double", config).skipped(why))
        return results

    red = reduction
    # iota is injective, so P is invertible (a dependent combination of W
    # would lie in the polar), and the reduction checked its k pivots
    results.append(Check(prefix + ".duality", config).result())

    # Cocycle route, dual to certifying the double directly: with
    # D_c[a][b] = [eta_a, eta_b]^c and ad matrices A_a[c][b] = [w_a, w_b]^c,
    # D([w_a, w_b]) = A_a D_b + D_b A_a^t - A_b D_a - D_a A_b^t.
    check = Check(prefix + ".cocycle", config)
    D_mats = [[[red.alg_hstar.bracket[a][b].components[c] for b in range(k)]
               for a in range(k)] for c in range(k)]
    A_mats = [[[red.alg_h.bracket[a][b].components[c] for b in range(k)]
               for c in range(k)] for a in range(k)]

    # entry (i, j) of A_a D_b + D_b A_a^t pairs row i of A_a and D_b with
    # column j of D_b and row j of A_a
    D_cols = [[list(col) for col in zip(*m)] for m in D_mats]

    def cocycle(a, b, i, j):
        lhs = _dot(patch, red.alg_h.bracket[a][b].components,
                   [m[i][j] for m in D_mats])
        return lhs - (_dot(patch, A_mats[a][i] + D_mats[b][i],
                           D_cols[b][j] + A_mats[a][j])
                      - _dot(patch, A_mats[b][i] + D_mats[a][i],
                             D_cols[a][j] + A_mats[b][j]))
    ks = labelled("", range(k))
    results.append(check.run(
        (pair + (i, j) for pair, i, j in itertools.product(
            itertools.combinations(ks, 2), ks, ks)),
        cocycle, inputs=named("a", "b", "row", "col")))

    results += check_courant_axioms(red.double, config,
                                    prefix=prefix + ".double")

    phi_cols = [Section(red.double.bundle, col) for col in zip(*red.phi)]
    p_cols = [Section(red.double.bundle, col)
              for col in zip(*red.p_in_double)]

    def phi_defect(i, j):
        want_g = bracket_eval(g, g.bundle.basis_section(i),
                              g.bundle.basis_section(j))
        want = Section(red.double.bundle,
                       apply_matrix(red.phi, want_g.components, patch))
        return red.double.bracket(phi_cols[i], phi_cols[j]) - want
    es = labelled("e", range(n))
    check = Check(prefix + ".phi_morphism", config)
    results.append(check.run(itertools.product(es, repeat=2), phi_defect,
                             zero=red.double.is_zero,
                             inputs=named("e1", "e2")))

    check = Check(prefix + ".phi_isotropic", config)
    results.append(check.run(
        itertools.combinations_with_replacement(labelled("e", phi_cols), 2),
        red.double.pairing, inputs=named("e1", "e2")))

    check = Check(prefix + ".p_lagrangian", config)
    psub = Subbundle(red.double.bundle, Frame(red.double.bundle, p_cols))
    for r in range(k):
        for s in range(r, k):
            val = red.double.pairing(p_cols[r], p_cols[s])
            if not val.is_zero():
                check.witness(val, xi1="xi%d" % r, xi2="xi%d" % s)
    for r in range(k):
        for s in range(k):
            coeffs = check.witness_outside(
                red.double.bracket(p_cols[r], p_cols[s]), psub,
                xi1="xi%d" % r, xi2="xi%d" % s)
            if coeffs is None:
                continue
            want = p.bracket[r][s].components
            for u in range(k):
                if not (coeffs[u] - want[u]).is_zero():
                    check.witness(coeffs[u] - want[u], xi1="xi%d" % r,
                                  xi2="xi%d" % s, coefficient=u)
    results.append(check.result(note="half rank %d of %d"
                                % (k, red.double.rank)))

    check = Check(prefix + ".pairing_compat", config)
    results.append(check.run(
        itertools.product(es, labelled("xi", range(k))),
        lambda i, r: red.double.pairing(phi_cols[i], p_cols[r])
        - db.iota[i][r], inputs=named("e", "xi")))

    check = Check(prefix + ".spanning", config)
    rank = matrix_rank([c.components for c in phi_cols + p_cols], patch)
    if rank != 2 * k:
        check.witness("rank %d < %d" % (rank, 2 * k), rank=rank,
                      expected=2 * k)
    results.append(check.result())
    return results


def _aff1(iota):
    """The affine line's Lie algebra [e1, e2] = e2 and a one-dimensional
    abelian p, paired with g by iota."""
    patch = point_patch()
    g = lie_algebra_algebroid(patch, "g", [[[0, 0], [0, 1]],
                                           [[0, -1], [0, 0]]])
    p = lie_algebra_algebroid(patch, "p", [[[0]]])
    return DiracBialgebraData(g, p, iota)


def aff1_bialgebra():
    """aff(1) with p spanned by e1*; the polar of p is the ideal spanned
    by e2."""
    return _aff1([[1], [0]])


def aff1_non_ideal_mutant():
    """Same g, but p spanned by e2*: the polar is spanned by e1, which is
    not an ideal ([e2, e1] = -e2)."""
    return _aff1([[0], [1]])


# ---------------------------------------------------------------------------
# Preset registry and pipelines.


def _preset_poisson_xy():
    patch = Patch(["x", "y"])
    pi = bivector_matrix(patch, {(0, 1): "x"})
    return {"kind": "poisson", "name": "poisson-xy", "patch": patch, "pi": pi}


def _preset_presymplectic_dxdy():
    patch = Patch(["x", "y"])
    omega = two_form_matrix(patch, {(0, 1): "1"})
    return {"kind": "presymplectic", "name": "presymplectic-dxdy",
            "patch": patch, "omega": omega}


def _preset_nonclosed_zdxdy():
    patch = Patch(["x", "y", "z"])
    omega = two_form_matrix(patch, {(0, 1): "z"})
    return {"kind": "presymplectic", "name": "nonclosed-zdxdy",
            "patch": patch, "omega": omega}


def _preset_foliation_x():
    patch = Patch(["x", "y"])
    alg = tangent_algebroid(patch)
    tm = tangent(patch)
    F = Subbundle(tm, Frame(tm, [tm.basis_section(0)]))
    J = Subbundle(alg.bundle, Frame(alg.bundle, [alg.bundle.basis_section(0)]))
    conn = LinearConnection.flat(alg.bundle)
    return {"kind": "iis", "name": "foliation-x", "patch": patch,
            "iis": IISData(alg, F, J, conn)}


def _preset_iis_curved_negative():
    patch = Patch(["x", "y"])
    alg = tangent_algebroid(patch)
    tm = tangent(patch)
    F = Subbundle(tm, Frame(tm, [tm.basis_section(0), tm.basis_section(1)]))
    J = Subbundle(alg.bundle, Frame(alg.bundle, [alg.bundle.basis_section(0)]))
    y = patch.coordinate(1)
    gamma = [[alg.bundle.zero_section() for _ in range(2)] for _ in range(2)]
    gamma[0][1] = y * alg.bundle.basis_section(1)
    conn = LinearConnection(alg.bundle, gamma)
    return {"kind": "iis", "name": "iis-curved-negative", "patch": patch,
            "iis": IISData(alg, F, J, conn)}


def _preset_aff1_bialgebra():
    data = aff1_bialgebra()
    return {"kind": "bialgebra", "name": "aff1-bialgebra",
            "patch": data.patch, "data": data}


ZOO_PRESETS = {
    "poisson-xy": _preset_poisson_xy,
    "presymplectic-dxdy": _preset_presymplectic_dxdy,
    "nonclosed-zdxdy": _preset_nonclosed_zdxdy,
    "foliation-x": _preset_foliation_x,
    "iis-curved-negative": _preset_iis_curved_negative,
    "aff1-bialgebra": _preset_aff1_bialgebra,
}


def zoo_preset(name):
    if name not in ZOO_PRESETS:
        raise KeyError("unknown preset %r; available: %s"
                       % (name, ", ".join(sorted(ZOO_PRESETS))))
    return ZOO_PRESETS[name]()


def _triple_checks(triple, config):
    """The checks every triple pipeline ends with: its adapted Dorfman
    connection, the LA-Dirac conditions and the Courant algebroid of the
    quotient."""
    results = check_dorfman_axioms(triple.D, config, prefix="adapted_dorfman")
    results += check_la_dirac(triple, config)
    pair = build_courant_C(triple, config, verify=False)
    return results + check_courant_axioms(pair.C, config,
                                          prefix="quotient_courant")


def _pipeline_poisson(instance, config):
    patch, pi = instance["patch"], instance["pi"]
    results = list(check_dirac(standard_courant(patch),
                               dirac_from_poisson(patch, pi), config,
                               prefix="graph_dirac"))
    lb = poisson_bialgebroid(patch, pi)
    results += check_lie_bialgebroid(lb, config)
    if any(r.failed for r in results):
        return results
    triple = poisson_triple(lb)
    results += check_poisson_extras(lb, config, dorfman=triple.D)
    results += _triple_checks(triple, config)
    db, mp = bialgebroid_from_lie_bialgebroid(lb, config, verify=False)
    results += check_manin_pair(mp, config)
    db2 = bialgebroid_from_triple(triple)
    results += bialgebroids_equivalent(db, db2, config, prefix="round_trip")
    return results


def _pipeline_presymplectic(instance, config):
    patch = instance["patch"]
    omega = instance.get("omega")
    alg = instance.get("alg") or tangent_algebroid(patch)
    sigma = instance.get("sigma") or sigma_from_2form(patch, omega)
    results = []
    if omega is not None:
        results += check_dirac(standard_courant(patch),
                               dirac_from_2form(patch, omega), config,
                               prefix="graph_dirac")
    results += check_im2form(alg, sigma, config)
    db, mp = bialgebroid_from_im2form(alg, sigma)
    results += check_manin_pair(mp, config)
    if any(r.failed for r in results):
        return results
    triple = presymplectic_triple(alg, sigma)
    results += _triple_checks(triple, config)
    results += bialgebroids_equivalent(db, flip_astar(bialgebroid_from_triple(triple)),
                                       config, prefix="flip")
    triple2 = triple_from_bialgebroid(db, config)
    results += triple2.extension_checks
    db2 = bialgebroid_from_triple(triple2)
    results += bialgebroids_equivalent(db, db2, config, prefix="round_trip")
    return results


def _pipeline_iis(instance, config):
    iis = instance["iis"]
    iis_results = check_iis(iis, config)
    iis_ok = not any(r.failed for r in iis_results)
    abar = AbarAlgebroid(iis)
    results = iis_results + check_abar(abar, config, iis_results=iis_results)
    db, mp = bialgebroid_from_iis(iis, config, verify=False, abar=abar)
    results += check_algebroid(db.alg_U, config, prefix="u_algebroid")
    results += check_manin_pair(mp, config)
    if not iis_ok:
        return results
    triple = iis_triple(iis)
    results += _triple_checks(triple, config)
    db2 = bialgebroid_from_triple(triple)
    results += bialgebroids_equivalent(db, db2, config, prefix="round_trip")
    return results


def _pipeline_bialgebra(instance, config):
    return check_dirac_bialgebra(instance["data"], config)


_PIPELINES = {
    "poisson": _pipeline_poisson,
    "presymplectic": _pipeline_presymplectic,
    "iis": _pipeline_iis,
    "bialgebra": _pipeline_bialgebra,
}


def run_zoo_pipeline(instance, config=None):
    """All checks the instance's family supports, as a flat result list."""
    config = config or CheckConfig()
    kind = instance.get("kind")
    if kind not in _PIPELINES:
        raise ValueError("unknown instance kind %r" % (kind,))
    return _PIPELINES[kind](instance, config)
