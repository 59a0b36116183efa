"""Dorfman connections of TM + A* on A + T*M, stored as frame tables.

A Dorfman connection Delta is determined by its frame values
Delta_{q_i} b_j; dorfman_eval extends them to arbitrary sections by

    Delta_q (g b)  = g Delta_q b + (rho_Q(q) g) b,
    Delta_{f q} b  = f Delta_q b + <q, b> d_B f,

with rho_Q = pr_TM and d_B f = (0, df), in the package's one Leibniz
kernel, algebroid._leibniz (as is extend_lie_bracket_to_dull's table).
Both laws hold for every table by construction; the differential
compatibility Delta_q (d_B f) = d_B(rho_Q(q) f) is a genuine constraint on
the table and is what check_dorfman_axioms verifies.

Dorfman connections are dual to dull brackets on TM + A*:

    <[q1, q2], tau> = rho_Q(q1) <q2, tau> - <q2, Delta_{q1} tau>,

and on tables the correspondence is a bijection (dual_dull_bracket and
dorfman_from_dull invert each other).  Note that the bracket formula
([X, Y], L_X eta - i_Y d xi) on TM + T*M is not itself a Dorfman connection:
it violates the scaling law above by -(Y f)(X, xi).  The table-built
connection agrees with it only for q in Gamma(TM + 0) and only modulo the
annihilator A + 0, which is exactly the quotient where Bott-type
connections live.

The connection memoises by the algebroid module's two-tier rule, in both
tiers: dorfman_eval's results under (q, b) keys and those of omega_map,
nabla_bas_TMAs and basic_curvature under keys tagged "omega", "bas" and
"curv", so the four share the connection's _memo and its _recent.  All
four are linear in each section argument: a zero argument gives the
shared zero section of the result bundle at once (the algebroid module's
zero rule), and so does d_B of a constant.  They check their arguments
before that and before the lookup (_check_args for the last three), so a
wrong argument raises even when it is zero.  The value tier
holds random sections and frames of a U with non-constant entries, which
the lemma bialgebroid2, basic_curvature and the quotient Jacobi check ask
for again and again.
A table may be edited only before the connection's first evaluation,
which lists its nonzero entries once (algebroid._nonzero_rows).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product

from .algebroid import (AnchoredBundle, DullAlgebroid, _leibniz,
                        _nonzero_rows, _rows, bracket_eval,
                        check_anchor_compat, lie_derivative_ATM,
                        lie_derivative_TMAs, rho_rhot)
from .bundles import Section, _recall, annihilator, canonical_pairing
from .cartan import apply_vf, lie_bracket_vf, tangent
from .reporting import Check, labelled
from .scalars import _dot, random_scalar

__all__ = [
    "DorfmanConnection", "ExtensionResult", "dorfman_eval",
    "check_dorfman_axioms", "dual_dull_bracket", "dorfman_from_dull",
    "omega_map", "nabla_bas_TMAs", "nabla_bas_ATM", "basic_curvature",
    "dorfman_curvature", "extend_lie_bracket_to_dull",
]

def _pr_tm(patch, rank):
    """Anchor matrix of pr_TM on a bundle whose first dim components are
    the TM part."""
    return [[patch.one if i == j else patch.zero for j in range(rank)]
            for i in range(patch.dim)]


class DorfmanConnection:
    """Frame table of a Dorfman connection: table[i][j] = Delta_{q_i} b_j,
    a section of B, with q over the TM + A* frame and b over A + T*M."""

    __slots__ = ("Q", "B", "table", "dim", "rank_A", "_TM", "_dual",
                 "_rows", "_memo", "_recent")

    def __init__(self, Q, B, table):
        if Q.patch != B.patch or Q.rank != B.rank:
            raise ValueError("paired bundles must share patch and rank")
        if Q.rank < Q.patch.dim:
            raise ValueError("bundle rank smaller than patch dimension")
        table = [list(row) for row in table]
        if len(table) != Q.rank or any(len(r) != B.rank for r in table):
            raise ValueError("table must be rank(Q) x rank(B)")
        for row in table:
            for s in row:
                if s.bundle != B:
                    raise ValueError("table values must be sections of B")
        self.Q = Q
        self.B = B
        self.table = table
        self.dim = Q.patch.dim
        self.rank_A = Q.rank - self.dim
        self._TM = tangent(Q.patch)
        self._dual = None
        # the nonzero table rows and the two memo tiers (see the module
        # docstring)
        self._rows = None
        self._memo = {}
        self._recent = {}

    @classmethod
    def flat(cls, Q, B):
        z = [[B.zero_section() for _ in range(B.rank)] for _ in range(Q.rank)]
        return cls(Q, B, z)

    @property
    def patch(self):
        return self.Q.patch

    def anchor_vf(self, q):
        return Section(self._TM, q.components[:self.dim])

    def apply_anchor(self, q, f):
        return apply_vf(self.anchor_vf(q), f)

    def d_B(self, f):
        """d_B f = (0, df) as a section of A + T*M; B's shared zero section
        for a constant f."""
        if f.is_constant():
            return self.B.zero_section()
        patch = self.patch
        return Section(self.B, [patch.zero] * self.rank_A
                       + [f.diff(k) for k in range(patch.dim)])

    def pairing(self, q, t):
        """<(X, alpha), (a, theta)> = theta(X) + alpha(a)."""
        return canonical_pairing(q, t)

    def eval(self, q, b):
        return dorfman_eval(self, q, b)


def _pair_q_frame(i, t, dim, ra):
    """<q_i, t> for the i-th TM + A* frame section and t in A + T*M."""
    if i < dim:
        return t.components[ra + i]
    return t.components[i - dim]


def _pair_b_frame(j, v, dim, ra):
    """<v, b_j> for v in TM + A* and the j-th A + T*M frame section."""
    if j < ra:
        return v.components[dim + j]
    return v.components[j - ra]


def dorfman_eval(D, q, b):
    """Extend the frame table to arbitrary sections by the two laws in the
    module docstring; the expansion is componentwise and deterministic."""
    if q.bundle is not D.Q and q.bundle != D.Q:
        raise ValueError("first argument must be a section of TM + A*")
    if b.bundle is not D.B and b.bundle != D.B:
        raise ValueError("second argument must be a section of A + T*M")
    dim, ra = D.dim, D.rank_A
    return _recall(D, D.B, (q, b), lambda: _leibniz(
        D.B, _rows(D, D.table), q.components, b.components, D.anchor_vf(q),
        weight=lambda i: _pair_q_frame(i, b, dim, ra), D=D.d_B))


def check_dorfman_axioms(D, config=None, prefix="dorfman"):
    """Table consistency and differential compatibility.

    The derivation and scaling laws hold for every table under
    dorfman_eval, so the real content is: frame evaluations reproduce the
    table, and Delta_q d_B f = d_B(rho_Q(q) f).  The latter residual is
    C-infinity-linear in q, so frame q with varying f (all coordinates,
    then random polynomials) is a complete check.
    """
    results = []

    check = Check("%s.table_consistency" % prefix, config)
    for i in range(D.Q.rank):
        qi = D.Q.basis_section(i)
        for j in range(D.B.rank):
            residual = dorfman_eval(D, qi, D.B.basis_section(j)) - D.table[i][j]
            if not residual.is_zero():
                check.witness(residual, q="e%d" % i, b="e%d" % j)
    results.append(check.result())

    check = Check("%s.differential_compat" % prefix, config)
    patch = D.patch
    functions = check.tuples(
        [(patch.coords[k], patch.coordinate(k)) for k in range(patch.dim)],
        ("random#%d", partial(random_scalar, patch)))
    results.append(check.run(
        product(labelled("e", D.Q.basis_sections()), functions),
        lambda qi, f: dorfman_eval(D, qi, D.d_B(f))
        - D.d_B(D.apply_anchor(qi, f)),
        inputs=lambda e: {"q": e[0][0], "f": e[1][1]}))
    return results


# ---------------------------------------------------------------------------
# duality with dull brackets on TM + A*


def dual_dull_bracket(D):
    """The dull bracket on TM + A* dual to D, anchored by pr_TM.

    On frames the defining identity reduces to component reads of the
    table: frame pairings are constant, so the anchor term drops and
    <[q_i, q_j], b_k> = -<q_j, Delta_{q_i} b_k>.
    """
    if D._dual is None:
        patch, dim, ra = D.patch, D.dim, D.rank_A
        n = D.Q.rank
        table = []
        for i in range(n):
            row = []
            for j in range(n):
                comps = [None] * n
                for m in range(dim):
                    comps[m] = -_pair_q_frame(j, D.table[i][ra + m], dim, ra)
                for k in range(ra):
                    comps[dim + k] = -_pair_q_frame(j, D.table[i][k], dim, ra)
                row.append(Section(D.Q, comps))
            table.append(row)
        anchored = AnchoredBundle(D.Q, _pr_tm(patch, n))
        D._dual = DullAlgebroid(anchored, table)
    return D._dual


def dorfman_from_dull(alg, B):
    """Invert dual_dull_bracket: the Dorfman connection on B whose dual
    dull bracket is alg.  alg must live on TM + A* with anchor pr_TM."""
    patch = alg.patch
    dim = patch.dim
    n = alg.rank
    ra = n - dim
    if ra < 0:
        raise ValueError("bundle rank smaller than patch dimension")
    if B.rank != n or B.patch != patch:
        raise ValueError("paired bundle must match rank and patch")
    expected = _pr_tm(patch, n)
    if alg.anchored.anchor != expected:
        raise ValueError("dual bracket must be anchored by pr_TM")
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            comps = [None] * n
            for l in range(ra):
                comps[l] = -_pair_b_frame(j, alg.bracket[i][dim + l], dim, ra)
            for k in range(dim):
                comps[ra + k] = -_pair_b_frame(j, alg.bracket[i][k], dim, ra)
            row.append(Section(B, comps))
        table.append(row)
    return DorfmanConnection(alg.bundle, B, table)


# ---------------------------------------------------------------------------
# the maps Omega, the basic connections and the two curvatures


def _check_args(D, v, sections_of_A, alg=None):
    """Refuse, before any memo lookup, a v outside TM + A* and a section
    of A of the wrong length or, when alg is given, outside alg's bundle."""
    for a in sections_of_A:
        if len(a.components) != D.rank_A:
            raise ValueError("expected a section of A")
        if alg is not None and a.bundle is not alg.bundle \
                and a.bundle != alg.bundle:
            raise ValueError("sections do not live in the algebroid bundle")
    if v.bundle is not D.Q and v.bundle != D.Q:
        raise ValueError("expected a section of TM + A*")


def omega_map(D, v, a):
    """Omega_v a = Delta_v (a, 0) - (0, d<alpha, a>) for v = (X, alpha)."""
    _check_args(D, v, (a,))

    def compute():
        patch, dim = D.patch, D.dim
        b = Section(D.B, list(a.components) + [patch.zero] * dim)
        pair = _dot(patch, v.components[dim:], a.components)
        return dorfman_eval(D, v, b) - D.d_B(pair)
    return _recall(D, D.B, (v, a), compute, tag=("omega", v.bundle))


def nabla_bas_TMAs(D, alg, a, v):
    """Basic connection on TM + A*:
    nabla^bas_a v = (rho, rho^t)(Omega_v a) + L_a v."""
    _check_args(D, v, (a,), alg)

    def compute():
        om = omega_map(D, v, a)
        return rho_rhot(alg, om, target=v.bundle) \
            + lie_derivative_TMAs(alg, a, v)
    return _recall(D, v.bundle, (a, v), compute,
                   tag=("bas", alg, a.bundle, v.bundle))


def nabla_bas_ATM(D, alg, a, t):
    """Basic connection on A + T*M:
    nabla^bas_a t = Omega_{(rho, rho^t) t} a + L_a t."""
    v = rho_rhot(alg, t, target=D.Q)
    return omega_map(D, v, a) + lie_derivative_ATM(alg, a, t)


def basic_curvature(D, alg, a1, a2, v):
    """R^bas(a1, a2) v = -Omega_v [a1, a2] + L_{a1}(Omega_v a2)
    - L_{a2}(Omega_v a1) + Omega_{nabla^bas_{a2} v} a1
    - Omega_{nabla^bas_{a1} v} a2, a section of A + T*M."""
    _check_args(D, v, (a1, a2), alg)

    def compute():
        br = bracket_eval(alg, a1, a2)
        return (-omega_map(D, v, br)
                + lie_derivative_ATM(alg, a1, omega_map(D, v, a2))
                - lie_derivative_ATM(alg, a2, omega_map(D, v, a1))
                + omega_map(D, nabla_bas_TMAs(D, alg, a2, v), a1)
                - omega_map(D, nabla_bas_TMAs(D, alg, a1, v), a2))
    return _recall(D, D.B, (a1, a2, v), compute,
                   tag=("curv", alg, a1.bundle, a2.bundle, v.bundle))


def dorfman_curvature(D, u1, u2, t):
    """R_Delta(u1, u2) t = Delta_{u1} Delta_{u2} t - Delta_{u2} Delta_{u1} t
    - Delta_{[u1, u2]} t, with the bracket the dual dull bracket of D."""
    dual = dual_dull_bracket(D)
    return (dorfman_eval(D, u1, dorfman_eval(D, u2, t))
            - dorfman_eval(D, u2, dorfman_eval(D, u1, t))
            - dorfman_eval(D, bracket_eval(dual, u1, u2), t))


# ---------------------------------------------------------------------------
# extending a Lie algebroid on U < TM + A* to a dull bracket on the whole


@dataclass
class ExtensionResult:
    dull: DullAlgebroid
    dorfman: DorfmanConnection
    checks: list


def extend_lie_bracket_to_dull(U, U_alg, B, config=None):
    """Extend a Lie algebroid structure on a subbundle U of TM + A*,
    anchored by pr_TM restricted to U, to a dull bracket on all of
    TM + A* (and its dual Dorfman connection on B).

    The bracket of two sections of the mixed frame (U-frame, then a
    complement of standard basis sections) is the lifted U-bracket on
    U-pairs and ell([pr_TM ., pr_TM .]) with ell(X) = (X, 0) on every pair
    meeting the complement; standard frame brackets follow by re-expressing
    e_i over the mixed frame and expanding with the Leibniz rules.

    Returns the dull bracket, its dual Dorfman connection, and check
    results for: anchor compatibility of the extension, Delta_u tau staying
    in the annihilator of U, and the quotient connection induced on the
    U-pairing being the U-Lie derivative.
    """
    patch = U.patch
    Q = U.ambient
    dim = patch.dim
    n = Q.rank
    ra = n - dim
    ru = U.rank
    if U_alg.rank != ru:
        raise ValueError("algebroid rank must match the subbundle rank")
    for p in range(ru):
        for i in range(dim):
            if U_alg.anchored.anchor[i][p] != U.frame[p].components[i]:
                raise ValueError(
                    "anchor of the input algebroid must be pr_TM of the frame")

    TM = tangent(patch)

    def pr(s):
        return Section(TM, s.components[:dim])

    def lift_vf(X):
        return Section(Q, list(X.components) + [patch.zero] * ra)

    def lift_u(s):
        return U.frame.combination(s.components)

    adapted = U.adapted_frame()
    mixed = adapted.sections
    g = [[None] * n for _ in range(n)]
    for p in range(n):
        for q in range(n):
            if p < ru and q < ru:
                g[p][q] = lift_u(U_alg.bracket[p][q])
            else:
                g[p][q] = lift_vf(lie_bracket_vf(pr(mixed[p]), pr(mixed[q])))

    coeffs = [adapted.coefficients(Q.basis_section(i).components)
              for i in range(n)]

    X = [pr(Q.basis_section(i)) for i in range(n)]
    rows = _nonzero_rows(g)
    table = [[_leibniz(Q, rows, coeffs[i], coeffs[j], X[i], X[j],
                       frame=mixed)
              for j in range(n)] for i in range(n)]

    dull = DullAlgebroid(AnchoredBundle(Q, _pr_tm(patch, n)), table)
    D = dorfman_from_dull(dull, B)

    checks = [check_anchor_compat(dull, config,
                                  name="extension.anchor_compat")]

    K = annihilator(U, twin=B, side="TM+A*")
    check = Check("extension.preserves_annihilator", config)
    for p in range(ru):
        for m, tau in enumerate(K.frame):
            check.witness_outside(dorfman_eval(D, U.frame[p], tau), K,
                                  u="u%d" % p, tau="k%d" % m)
    checks.append(check.result())

    check = Check("extension.quotient_connection", config)
    for p in range(ru):
        up = U.frame[p]
        Xp = pr(up)
        for q in range(ru):
            uq = U.frame[q]
            for m in range(n):
                bm = B.basis_section(m)
                lhs = D.pairing(uq, dorfman_eval(D, up, bm))
                rhs = apply_vf(Xp, D.pairing(uq, bm)) \
                    - D.pairing(lift_u(U_alg.bracket[p][q]), bm)
                residual = lhs - rhs
                if not residual.is_zero():
                    check.witness(residual, u1="u%d" % p, u2="u%d" % q,
                                  b="e%d" % m)
    checks.append(check.result())

    return ExtensionResult(dull, D, checks)
