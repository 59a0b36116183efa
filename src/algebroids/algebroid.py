"""Anchored bundles, dull and Lie algebroids, and linear connections.

A bracket lives on the frame as structure data [e_i, e_j] and is extended
to arbitrary sections by the Leibniz rules in one private kernel,
_leibniz.  Its callers are bracket_eval, CourantPresentation.bracket,
dorfman_eval and extend_lie_bracket_to_dull; nothing else in the package
expands brackets by hand, which keeps the formula in a single place.

Sparse rule: _leibniz and the dual Lie derivative sum only nonzero terms
into one component list, and rho_transpose delegates to the transpose
kernel bundles._apply_transpose.  Structure tables, anchors and frames
are mostly 0 and +-1, so most products of a dense expansion are products
with 0.  _leibniz forms a coefficient product f_i g_j only when the table
entry [e_i, e_j] has a nonzero component, and the section kernels it adds
with (_dot, _accumulate and _directional in scalars.py) work on the
scalars' representations and form only nonzero products.  Every term of
_leibniz, the product f_i g_j, X1(g_j) and -X2(f_i) included, is formed
and added on representations by those kernels, never through a
ScalarField operator.  Skipping them
cannot change a result: every scalar is canonical, so a sum has one
representation whatever the order of its terms.

Memo rule, in two tiers, looked up and stored by one bundles._recall call
at each of the eight memoised entry points: bracket_eval, dorfman_eval,
omega_map, nabla_bas_TMAs, basic_curvature and the brackets of
CourantPresentation, QuotientCourant and zoo.AbarAlgebroid.  Each refuses
an argument of the wrong bundle with ValueError before the lookup.  Each
is linear over R in every section argument, so when one argument's key
part is all zero constants, _recall returns the shared zero section of
the result bundle (bundles.TrivialBundle.zero_section) before the lookup
and stores nothing; anchor_vf and rho_rhot return it for a zero argument
too.  The constant tier, _memo, keeps results on constant arguments
(frame sections and their constant combinations) for as long as the
structure lives, keyed by their component values (bundles._constant_key).
Their number is bounded by the frame test sets plus the random draws
that happen to be constant, common at max_degree 1.  The value tier,
_recent, keeps the newest bundles._RECENT results on other arguments,
keyed by the values of all components (scalars._value_key): the Jacobi
sums, nabla^bas inside R^bas and the quotient Jacobi check ask for the
same random sections again and again.  Scalars are canonical, so a hit
is the very value a recomputation would build.  An algebroid's anchor
and bracket table are read-only once it has evaluated a bracket, which
lists the table's nonzero entries once (_nonzero_rows).

Axioms are never assumed: check_skew, check_anchor_compat and check_jacobi
produce exact residual witnesses and set the corresponding flags on
success.

Identity-checking protocol: non-tensorial identities are verified on the
test set of reporting.Check.tuples (all frame tuples, then `trials` random
polynomial sections of degree at most `max_degree`); tensorial ones on
frames only (C-infinity-linearity makes the frame check complete).  The
test-set loop is reporting.Check.run, which stops once its check is
settled (reporting module docstring).
induced_algebroid reads the algebroid a bracket induces on a closed
subbundle; Dirac structures and the U of an LA-Dirac triple both use it.
"""

from __future__ import annotations

from functools import partial
from itertools import product

from .bundles import (Section, TrivialBundle, _apply_transpose, _recall,
                      apply_matrix, membership, random_section)
from .cartan import (apply_vf, cotangent, lie_bracket_vf,
                     lie_derivative_1form, tangent)
from .reporting import Check, labelled
from .scalars import _accumulate, _directional

__all__ = [
    "AnchoredBundle", "DullAlgebroid", "LinearConnection", "BasicConnections",
    "bracket_eval", "check_anchor_compat", "check_skew", "check_jacobi",
    "check_algebroid", "induced_algebroid", "lie_derivative_ATM",
    "lie_derivative_TMAs", "rho_rhot", "rho_transpose", "side_Q", "side_B",
    "tangent_algebroid",
]


class AnchoredBundle:
    """A bundle with an anchor into TM; the anchor matrix has shape
    dim x rank, column j holding the coordinates of rho(e_j)."""

    __slots__ = ("bundle", "anchor", "_TM")

    def __init__(self, bundle, anchor):
        patch = bundle.patch
        anchor = [[patch.scalar(v) for v in row] for row in anchor]
        if len(anchor) != patch.dim or any(len(r) != bundle.rank for r in anchor):
            raise ValueError("anchor must be dim x rank")
        self.bundle = bundle
        self.anchor = anchor
        self._TM = tangent(patch)

    @property
    def patch(self):
        return self.bundle.patch

    @property
    def rank(self):
        return self.bundle.rank

    def anchor_vf(self, s):
        """rho(s) as a vector field; TM's shared zero for a zero s."""
        if s.is_zero():
            return self._TM.zero_section()
        return Section(self._TM,
                       apply_matrix(self.anchor, s.components, self.patch))

    def apply_anchor(self, s, f):
        """Directional derivative rho(s)(f)."""
        return apply_vf(self.anchor_vf(s), f)


class DullAlgebroid:
    """Anchored bundle plus a bracket table [e_i, e_j] on the frame.

    The three axiom flags start False and are set only by the checkers.
    A Lie algebroid is a DullAlgebroid with all three flags set.
    """

    def __init__(self, anchored, bracket):
        rank = anchored.rank
        bracket = [list(row) for row in bracket]
        if len(bracket) != rank or any(len(r) != rank for r in bracket):
            raise ValueError("bracket table must be rank x rank")
        for row in bracket:
            for s in row:
                if s.bundle != anchored.bundle:
                    raise ValueError("bracket values must live in the bundle")
        self.anchored = anchored
        self.bracket = bracket
        # the nonzero table rows and the two memo tiers of bracket_eval
        # (see the module docstring)
        self._rows = None
        self._memo = {}
        self._recent = {}
        self.skew_checked = False
        self.anchor_compat_checked = False
        self.jacobi_checked = False

    @property
    def bundle(self):
        return self.anchored.bundle

    @property
    def patch(self):
        return self.anchored.patch

    @property
    def rank(self):
        return self.anchored.rank

    @property
    def is_lie(self):
        return (self.skew_checked and self.anchor_compat_checked
                and self.jacobi_checked)

    def anchor_vf(self, s):
        return self.anchored.anchor_vf(s)


def tangent_algebroid(patch):
    """TM with the identity anchor and vanishing frame brackets."""
    TM = tangent(patch)
    anchor = [[patch.one if i == j else patch.zero for j in range(patch.dim)]
              for i in range(patch.dim)]
    table = [[TM.zero_section() for _ in range(patch.dim)]
             for _ in range(patch.dim)]
    return DullAlgebroid(AnchoredBundle(TM, anchor), table)


def induced_algebroid(sub, bracket, anchor_vf, name):
    """The dull algebroid a bracket induces on a subbundle it closes on: an
    abstract rank(sub) bundle, anchored by anchor_vf on the frame, whose
    table holds the membership coefficients of the frame brackets.

    Returns (algebroid, outside): outside lists the (p, q, value) frame
    pairs whose bracket left the subbundle, in loop order, and the
    algebroid is None unless outside is empty."""
    patch = sub.patch
    rank = sub.rank
    bundle = TrivialBundle(patch, rank, name)
    table = [[None] * rank for _ in range(rank)]
    outside = []
    for p in range(rank):
        for q in range(rank):
            value = bracket(sub.frame[p], sub.frame[q])
            inside, coeffs = membership(value, sub)
            if inside:
                table[p][q] = Section(bundle, coeffs)
            else:
                outside.append((p, q, value))
    if outside:
        return None, outside
    columns = [anchor_vf(s).components for s in sub.frame]
    anchor = [[c[i] for c in columns] for i in range(patch.dim)]
    return DullAlgebroid(AnchoredBundle(bundle, anchor), table), outside


def _nonzero_rows(table):
    """The nonzero entries of each row of a frame table, as {j: components}
    in increasing j."""
    return [{j: s.components for j, s in enumerate(row) if not s.is_zero()}
            for row in table]


def _rows(owner, table):
    """owner's table as _nonzero_rows, listed at its first evaluation and
    kept on owner._rows."""
    if owner._rows is None:
        owner._rows = _nonzero_rows(table)
    return owner._rows


def _leibniz(bundle, rows, f, g, X1, X2=None, weight=None, D=None,
             frame=None):
    """sum f_i g_j T[i][j] + sum X1(g_j) e_j - sum X2(f_i) e_i
    + sum weight(i) D(f_i) for coefficient lists f, g over the output frame
    e (the standard basis of bundle unless given), with the table T given
    by its _nonzero_rows.  X2 is None for a Dorfman connection; weight and
    D come only with a pairing term.

    The terms are summed into one component list, and only nonzero
    coefficients, frame entries and D(f_i) entries are touched: the
    product f_i g_j is formed only when T[i][j] is a nonzero entry, and
    scalars._accumulate forms it and adds it in on the representations,
    as it adds X1(g_j) and subtracts X2(f_i): on the standard basis to
    component j or i directly, otherwise times the frame section."""
    patch = bundle.patch
    out = [patch.zero] * bundle.rank
    fs = [(i, fi) for i, fi in enumerate(f) if fi]
    for i, fi in fs:
        for j, entry in rows[i].items():
            gj = g[j]
            if gj:
                _accumulate(out, fi, entry, gj)
    for X, h, sign in ((X1, g, 1), (X2, f, -1)):
        if X is not None:
            ds = [_directional(X.components, c) for c in h]
            if frame is None:
                _accumulate(out, patch.one, ds, sign=sign)
            else:
                for d, e in zip(ds, frame):
                    _accumulate(out, d, e.components, sign=sign)
    if D is not None:
        for i, fi in fs:
            w = weight(i)
            if w:
                _accumulate(out, w, D(fi).components)
    return Section(bundle, out)


def bracket_eval(alg, q1, q2):
    """Leibniz extension of the frame bracket to arbitrary sections:
    [f e_i, g e_j] = f g [e_i, e_j] + f rho(e_i)(g) e_j - g rho(e_j)(f) e_i,
    summed over components."""
    bundle = alg.bundle
    if (q1.bundle is not bundle and q1.bundle != bundle
            or q2.bundle is not bundle and q2.bundle != bundle):
        raise ValueError("sections do not live in the algebroid bundle")
    return _recall(alg, bundle, (q1, q2), lambda: _leibniz(
        bundle, _rows(alg, alg.bracket), q1.components, q2.components,
        alg.anchor_vf(q1), alg.anchor_vf(q2)))


# ---------------------------------------------------------------------------
# axiom checkers


def check_anchor_compat(alg, config=None, name="algebroid.anchor_compat"):
    """rho[q1, q2] = [rho q1, rho q2] on frames and random sections."""
    check = Check(name, config)
    frame = labelled("e", alg.bundle.basis_sections())
    draw = partial(random_section, alg.bundle)
    res = check.run(
        check.tuples(product(frame, repeat=2),
                     ("random#%d.1", draw), ("random#%d.2", draw)),
        lambda q1, q2: alg.anchor_vf(bracket_eval(alg, q1, q2))
        - lie_bracket_vf(alg.anchor_vf(q1), alg.anchor_vf(q2)))
    if res.passed:
        alg.anchor_compat_checked = True
    return res


def check_skew(alg, config=None, name="algebroid.skew"):
    """[q1, q2] + [q2, q1] = 0 on frames and random sections."""
    check = Check(name, config)
    frame = labelled("e", alg.bundle.basis_sections())
    draw = partial(random_section, alg.bundle)
    res = check.run(
        check.tuples(product(frame, repeat=2),
                     ("random#%d.1", draw), ("random#%d.2", draw)),
        lambda q1, q2: bracket_eval(alg, q1, q2) + bracket_eval(alg, q2, q1))
    if res.passed:
        alg.skew_checked = True
    return res


def check_jacobi(alg, config=None, name="algebroid.jacobi"):
    """[q1,[q2,q3]] = [[q1,q2],q3] + [q2,[q1,q3]] on frame triples and
    random sections."""
    check = Check(name, config)
    frame = labelled("e", alg.bundle.basis_sections())
    draw = partial(random_section, alg.bundle)
    res = check.run(
        check.tuples(product(frame, repeat=3), ("random#%d.0", draw),
                     ("random#%d.1", draw), ("random#%d.2", draw)),
        lambda q1, q2, q3: bracket_eval(alg, q1, bracket_eval(alg, q2, q3))
        - bracket_eval(alg, bracket_eval(alg, q1, q2), q3)
        - bracket_eval(alg, q2, bracket_eval(alg, q1, q3)))
    if res.passed:
        alg.jacobi_checked = True
    return res


def check_algebroid(alg, config=None, prefix="algebroid"):
    """All three Lie-algebroid checks; returns the list of results."""
    return [
        check_anchor_compat(alg, config, name="%s.anchor_compat" % prefix),
        check_skew(alg, config, name="%s.skew" % prefix),
        check_jacobi(alg, config, name="%s.jacobi" % prefix),
    ]


# ---------------------------------------------------------------------------
# side bundles TM+A* and A+T*M and the derivations along sections of A


def side_Q(alg):
    """TM + A*, the side on which dull brackets anchored by pr_TM live."""
    patch = alg.patch
    return TrivialBundle(patch, patch.dim + alg.rank,
                         "TM+%s*" % alg.bundle.name)


def side_B(alg):
    """A + T*M, the side carrying Dorfman connections."""
    patch = alg.patch
    return TrivialBundle(patch, alg.rank + patch.dim,
                         "%s+T*M" % alg.bundle.name)


def lie_derivative_ATM(alg, a, t):
    """L_a (a', theta) = ([a, a'], L_{rho(a)} theta) on A + T*M."""
    ra = alg.rank
    patch = alg.patch
    ap = Section(alg.bundle, t.components[:ra])
    theta = Section(cotangent(patch), t.components[ra:])
    br = bracket_eval(alg, a, ap)
    lth = lie_derivative_1form(alg.anchor_vf(a), theta)
    return Section(t.bundle, list(br.components) + list(lth.components))


def lie_derivative_TMAs(alg, a, v):
    """L_a (X, alpha) = ([rho(a), X], L_a alpha) on TM + A*, where
    <L_a alpha, b> = rho(a)<alpha, b> - <alpha, [a, b]>."""
    patch = alg.patch
    dim = patch.dim
    X = Section(tangent(patch), v.components[:dim])
    alpha = v.components[dim:]
    rho_a = alg.anchor_vf(a)
    first = lie_bracket_vf(rho_a, X)
    return Section(v.bundle, list(first.components)
                   + _lie_derivative_dual(alg, a, rho_a, alpha))


def _lie_derivative_dual(alg, a, rho_a, xi):
    """Components of L_a xi for xi given over the dual frame, with
    rho_a = rho(a): <L_a xi, e_k> = rho(a)<xi, e_k> - <xi, [a, e_k]>."""
    nonzero = [(l, x) for l, x in enumerate(xi) if x]
    out = []
    for k in range(alg.rank):
        br = bracket_eval(alg, a, alg.bundle.basis_section(k)).components
        val = apply_vf(rho_a, xi[k])
        for l, x in nonzero:
            b = br[l]
            if b:
                val = val - x * b
        out.append(val)
    return out


def rho_transpose(alg, theta_comps):
    """rho^t theta as A*-components: (rho^t theta)_j = sum_i rho_ij theta_i."""
    return _apply_transpose(alg.anchored.anchor, theta_comps, alg.patch)


def rho_rhot(alg, t, target=None):
    """(rho, rho^t): A + T*M -> TM + A*, (a, theta) -> (rho(a), rho^t theta);
    the target's shared zero for a zero t."""
    ra = alg.rank
    bundle = target if target is not None else side_Q(alg)
    if len(t.components) < ra or bundle.rank != alg.patch.dim + ra:
        raise ValueError("(rho, rho^t) maps A + T*M to a bundle of rank "
                         "dim + rank(A)")
    if t.is_zero():
        return bundle.zero_section()
    a = Section(alg.bundle, t.components[:ra])
    X = alg.anchor_vf(a)
    alpha = rho_transpose(alg, t.components[ra:])
    return Section(bundle, list(X.components) + alpha)


# ---------------------------------------------------------------------------
# linear connections and their basic connections


class LinearConnection:
    """Christoffel table: gamma[i][j] = nabla_{d/dx_i} e_j as a section."""

    __slots__ = ("bundle", "gamma")

    def __init__(self, bundle, gamma):
        patch = bundle.patch
        gamma = [list(row) for row in gamma]
        if len(gamma) != patch.dim or any(len(r) != bundle.rank for r in gamma):
            raise ValueError("Christoffel table must be dim x rank")
        for row in gamma:
            for s in row:
                if s.bundle != bundle:
                    raise ValueError("Christoffel values must live in the bundle")
        self.bundle = bundle
        self.gamma = gamma

    @classmethod
    def flat(cls, bundle):
        z = [[bundle.zero_section() for _ in range(bundle.rank)]
             for _ in range(bundle.patch.dim)]
        return cls(bundle, z)

    def eval(self, X, s):
        """nabla_X s = sum_i X^i (d_i s + sum_j s^j gamma[i][j])."""
        out = [self.bundle.patch.zero] * self.bundle.rank
        for i, xi in enumerate(X.components):
            if xi:
                _accumulate(out, xi, [c.diff(i) for c in s.components])
                for sj, entry in zip(s.components, self.gamma[i]):
                    if sj and not entry.is_zero():
                        _accumulate(out, xi, entry.components, sj)
        return Section(self.bundle, out)


class BasicConnections:
    """The pair of A-connections induced by a linear connection on A,
    together with their curvature tensor on vector fields."""

    def __init__(self, alg, conn):
        if conn.bundle != alg.bundle:
            raise ValueError("connection must live on the algebroid bundle")
        self.alg = alg
        self.conn = conn

    def on_sections(self, a, ap):
        """nabla^bas_a a' = [a, a'] + nabla_{rho(a')} a."""
        return (bracket_eval(self.alg, a, ap)
                + self.conn.eval(self.alg.anchor_vf(ap), a))

    def on_vector_fields(self, a, X):
        """nabla^bas_a X = [rho(a), X] + rho(nabla_X a)."""
        return (lie_bracket_vf(self.alg.anchor_vf(a), X)
                + self.alg.anchor_vf(self.conn.eval(X, a)))

    def curvature(self, a1, a2, X):
        """R^bas(a1,a2)X = -nabla_X [a1,a2] + [nabla_X a1, a2]
        + [a1, nabla_X a2] - nabla_{nabla^bas_{a1} X} a2
        + nabla_{nabla^bas_{a2} X} a1."""
        alg, conn = self.alg, self.conn
        br = bracket_eval(alg, a1, a2)
        return (-conn.eval(X, br)
                + bracket_eval(alg, conn.eval(X, a1), a2)
                + bracket_eval(alg, a1, conn.eval(X, a2))
                - conn.eval(self.on_vector_fields(a1, X), a2)
                + conn.eval(self.on_vector_fields(a2, X), a1))
