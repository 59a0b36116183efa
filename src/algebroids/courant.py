"""Courant structures on trivialized bundles: axiom certification, Dirac
structures, the classical Dirac constructors, Courant morphisms, and the
Bott connection on the quotient by a Dirac structure.

A presentation carries frame data only: an anchor matrix, a symmetric Gram
table for the pairing, a bracket table, and a matrix presenting the
differential operator D (applied to the gradient of a function).  The
bracket of arbitrary sections is the Leibniz extension

    [c1, g c2] = g [c1, c2] + (rho(c1) g) c2,
    [f c1, c2] = f [c1, c2] - (rho(c2) f) c1 + <c1, c2> D f,

which is forced by the Courant axioms and computed by the package's one
Leibniz kernel, algebroid._leibniz.  check_courant_axioms works for any
object implementing the small carrier protocol used here (frame_sections,
random_element, bracket, pairing, anchor_vf, D_of, is_zero), so quotient
carriers can reuse it.

CourantPresentation.bracket memoises by the algebroid module's two-tier
rule (bundles._recall): results on constant arguments in the constant
tier, whose size the frame bounds, and the newest on non-constant ones in
the value tier, both keyed by the component values of the two sections
and living as long as the presentation.  Its tables are read-only once it
has evaluated a bracket, which lists the nonzero table entries once.
"""

from __future__ import annotations

from functools import partial
from itertools import product

from .algebroid import _leibniz, _rows, induced_algebroid, side_B
from .bundles import (Frame, Section, Subbundle, TrivialBundle,
                      _apply_transpose, _recall,
                      apply_matrix, det, direct_sum, membership, nullspace,
                      random_combination, random_section)
from .cartan import apply_vf, cotangent, lie_bracket_vf, tangent
from .reporting import Check, labelled, named
from .scalars import _dot, random_scalar

__all__ = [
    "CourantPresentation", "standard_courant", "degenerate_courant",
    "check_courant_axioms", "check_dirac", "dirac_algebroid",
    "dirac_from_poisson", "dirac_from_2form", "dirac_from_foliation",
    "check_courant_morphism", "BottDorfman", "bott_dorfman",
]


class CourantPresentation:
    """Frame presentation of a (possibly degenerate) Courant structure on a
    trivialized bundle."""

    def __init__(self, bundle, anchor, gram, table, dmat, degenerate=False):
        patch = bundle.patch
        n = bundle.rank
        anchor = [[patch.scalar(v) for v in row] for row in anchor]
        if len(anchor) != patch.dim or any(len(r) != n for r in anchor):
            raise ValueError("anchor must be dim x rank")
        gram = [[patch.scalar(v) for v in row] for row in gram]
        if len(gram) != n or any(len(r) != n for r in gram):
            raise ValueError("pairing Gram table must be rank x rank")
        for i in range(n):
            for j in range(i + 1, n):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("pairing must be symmetric on frames")
        if not degenerate and det(gram, patch).is_zero():
            raise ValueError("pairing Gram determinant vanishes; construct "
                             "with degenerate=True to allow this")
        table = [list(row) for row in table]
        if len(table) != n or any(len(r) != n for r in table):
            raise ValueError("bracket table must be rank x rank")
        for row in table:
            for s in row:
                if s.bundle != bundle:
                    raise ValueError("bracket values must live in the bundle")
        dmat = [[patch.scalar(v) for v in row] for row in dmat]
        if len(dmat) != n or any(len(r) != patch.dim for r in dmat):
            raise ValueError("differential matrix must be rank x dim")
        self.bundle = bundle
        self.anchor = anchor
        self.gram = gram
        self.table = table
        self.dmat = dmat
        self.degenerate = degenerate
        self.axioms_checked = False
        self._TM = tangent(patch)
        # the nonzero table rows and the two memo tiers of bracket (see the
        # module docstring)
        self._rows = None
        self._memo = {}
        self._recent = {}

    @property
    def patch(self):
        return self.bundle.patch

    @property
    def rank(self):
        return self.bundle.rank

    @property
    def true_rank(self):
        # equals the presentation rank here; quotient carriers override
        return self.bundle.rank

    def frame_sections(self):
        return self.bundle.basis_sections()

    def coordinates(self, c):
        """Coefficients of c over frame_sections()."""
        return list(c.components)

    def zero(self):
        return self.bundle.zero_section()

    def random_element(self, rng, max_degree=2):
        return random_section(self.bundle, rng, max_degree)

    def is_zero(self, c):
        return c.is_zero()

    def anchor_vf(self, c):
        return Section(self._TM,
                       apply_matrix(self.anchor, c.components, self.patch))

    def apply_anchor(self, c, f):
        return apply_vf(self.anchor_vf(c), f)

    def pairing(self, c1, c2):
        patch, g = self.patch, c2.components
        # <e_i, c2> only for the rows where c1 is nonzero
        return _dot(patch, c1.components,
                    [_dot(patch, row, g) if a else patch.zero
                     for a, row in zip(c1.components, self.gram)])

    def D_of(self, f):
        patch = self.patch
        grad = [f.diff(k) for k in range(patch.dim)]
        return Section(self.bundle, apply_matrix(self.dmat, grad, patch))

    def bracket(self, c1, c2):
        """Leibniz extension of the frame table (see module docstring)."""
        bundle = self.bundle
        if (c1.bundle is not bundle and c1.bundle != bundle
                or c2.bundle is not bundle and c2.bundle != bundle):
            raise ValueError("sections do not live in the carrier bundle")
        g = c2.components

        def weight(i):  # <e_i, c2> from the Gram table
            return _dot(self.patch, self.gram[i], g)

        return _recall(self, bundle, (c1, c2), lambda: _leibniz(
            bundle, _rows(self, self.table), c1.components, g,
            self.anchor_vf(c1), self.anchor_vf(c2), weight, self.D_of))


def standard_courant(patch):
    """TM + T*M with anchor pr_TM, pairing theta(Y) + eta(X), and the
    bracket ([X1, X2], L_{X1} theta2 - i_{X2} d theta1); D f = (0, df)."""
    dim = patch.dim
    bundle = direct_sum(tangent(patch), cotangent(patch))
    n = bundle.rank
    anchor = [[patch.one if i == j else patch.zero for j in range(n)]
              for i in range(dim)]
    gram = [[patch.zero] * n for _ in range(n)]
    for i in range(dim):
        gram[i][dim + i] = patch.one
        gram[dim + i][i] = patch.one
    table = [[bundle.zero_section() for _ in range(n)] for _ in range(n)]
    dmat = [[patch.zero] * dim for _ in range(dim)] \
        + [[patch.one if k == l else patch.zero for l in range(dim)]
           for k in range(dim)]
    return CourantPresentation(bundle, anchor, gram, table, dmat)


def degenerate_courant(alg):
    """A + T*M over a Lie algebroid A, with anchor rho o pr_A, bracket
    ([a1, a2], L_{rho(a1)} theta2 - i_{rho(a2)} d theta1), and the pairing
    theta2(rho(a1)) + theta1(rho(a2)), which may be degenerate."""
    patch = alg.patch
    dim = patch.dim
    ra = alg.rank
    bundle = side_B(alg)
    n = bundle.rank
    rho = alg.anchored.anchor
    anchor = [[rho[i][j] if j < ra else patch.zero for j in range(n)]
              for i in range(dim)]
    gram = [[patch.zero] * n for _ in range(n)]
    for j in range(ra):
        for k in range(dim):
            gram[j][ra + k] = rho[k][j]
            gram[ra + k][j] = rho[k][j]
    table = [[bundle.zero_section() for _ in range(n)] for _ in range(n)]
    for i in range(ra):
        for j in range(ra):
            br = alg.bracket[i][j]
            table[i][j] = Section(bundle, list(br.components)
                                  + [patch.zero] * dim)
        # [(e_i, 0), (0, dx_k)] = (0, L_{rho(e_i)} dx_k) = (0, d rho_ki)
        for k in range(dim):
            table[i][ra + k] = Section(
                bundle, [patch.zero] * ra
                + [rho[k][i].diff(l) for l in range(dim)])
    dmat = [[patch.zero] * dim for _ in range(ra)] \
        + [[patch.one if k == l else patch.zero for l in range(dim)]
           for k in range(dim)]
    return CourantPresentation(bundle, anchor, gram, table, dmat,
                               degenerate=True)


# ---------------------------------------------------------------------------
# axiom certification


def check_courant_axioms(C, config=None, prefix="courant"):
    """The five Courant axioms plus the pairing property of D, each as an
    exact residual check on frames and seeded random sections."""
    patch = C.patch
    frames = labelled("e", C.frame_sections())
    pair = [("random#%d.0", C.random_element),
            ("random#%d.1", C.random_element)]
    triple = pair + [("random#%d.2", C.random_element)]
    coords = [(patch.coords[k], patch.coordinate(k)) for k in range(patch.dim)]
    scalar = partial(random_scalar, patch)
    results = []

    check = Check("%s.jacobi" % prefix, config)
    results.append(check.run(
        check.tuples(product(frames, repeat=3), *triple),
        lambda c1, c2, c3: C.bracket(c1, C.bracket(c2, c3))
        - C.bracket(C.bracket(c1, c2), c3)
        - C.bracket(c2, C.bracket(c1, c3)), zero=C.is_zero))

    check = Check("%s.pairing_invariance" % prefix, config)
    results.append(check.run(
        check.tuples(product(frames, repeat=3), *triple),
        lambda c1, c2, c3: C.apply_anchor(c1, C.pairing(c2, c3))
        - C.pairing(C.bracket(c1, c2), c3)
        - C.pairing(c2, C.bracket(c1, c3))))

    check = Check("%s.skew_defect" % prefix, config)
    results.append(check.run(
        check.tuples(product(frames, repeat=2), *pair),
        lambda c1, c2: C.bracket(c1, c2) + C.bracket(c2, c1)
        - C.D_of(C.pairing(c1, c2)), zero=C.is_zero))

    check = Check("%s.anchor_morphism" % prefix, config)
    results.append(check.run(
        check.tuples(product(frames, repeat=2), *pair),
        lambda c1, c2: C.anchor_vf(C.bracket(c1, c2))
        - lie_bracket_vf(C.anchor_vf(c1), C.anchor_vf(c2))))

    check = Check("%s.leibniz" % prefix, config)
    results.append(check.run(
        check.tuples(product(frames, frames, coords),
                     ("random#%d.1", C.random_element),
                     ("random#%d.2", C.random_element),
                     ("random#%d.f", scalar)),
        lambda c1, c2, f: C.bracket(c1, f * c2) - f * C.bracket(c1, c2)
        - C.apply_anchor(c1, f) * c2, zero=C.is_zero,
        inputs=lambda e: dict(e[:2], f=e[2][1])))

    check = Check("%s.differential_pairing" % prefix, config)
    results.append(check.run(
        product(frames, check.tuples(coords, ("random#%d", scalar))),
        lambda c, f: C.pairing(C.D_of(f), c) - C.apply_anchor(c, f),
        inputs=lambda e: {"c": e[0][0], "f": e[1][1]}))

    if all(r.passed for r in results):
        C.axioms_checked = True
    return results


# ---------------------------------------------------------------------------
# Dirac structures


def check_dirac(C, D, config=None, prefix="dirac"):
    """Half rank, isotropy, self-perpendicularity, and bracket closure of a
    subbundle of the carrier.  On degenerate carriers the two rank-based
    checks are skipped with a note."""
    if D.ambient != C.bundle:
        raise ValueError("subbundle does not live in the carrier bundle")
    patch = C.patch
    n = C.rank
    results = []

    check = Check("%s.half_rank" % prefix, config)
    if C.degenerate:
        results.append(check.skipped(
            "degenerate pairing: rank bookkeeping disabled"))
    else:
        if n % 2:
            raise ValueError("carrier rank is odd; no Lagrangian rank exists")
        if D.rank != n // 2:
            check.witness("rank %d != %d" % (D.rank, n // 2))
        results.append(check.result())

    check = Check("%s.isotropic" % prefix, config)
    for i, d1 in enumerate(D.frame):
        for j, d2 in enumerate(D.frame):
            residual = C.pairing(d1, d2)
            if not residual.is_zero():
                check.witness(residual, d1="d%d" % i, d2="d%d" % j)
    results.append(check.result())

    check = Check("%s.self_perp" % prefix, config)
    if C.degenerate:
        results.append(check.skipped(
            "degenerate pairing: perpendicular not defined"))
    else:
        rows = [_apply_transpose(C.gram, d.components, patch)
                for d in D.frame]
        for v in nullspace(rows, patch, ncols=n):
            check.witness_outside(Section(C.bundle, v), D, perp="basis vector")
        results.append(check.result())

    check = Check("%s.closed" % prefix, config)
    draw = partial(random_combination, D)
    results.append(check.run(
        check.tuples(product(labelled("d", D.frame), repeat=2),
                     ("random#%d.1", draw), ("random#%d.2", draw)),
        C.bracket, zero=lambda v: membership(v, D)[0]))
    return results


def dirac_algebroid(C, D):
    """The Lie algebroid structure induced on a bracket-closed isotropic
    subbundle: anchor rho restricted to the frame, bracket table from the
    membership coefficients of the frame brackets."""
    alg, outside = induced_algebroid(D, C.bracket, C.anchor_vf, "D")
    if outside:
        raise ValueError("subbundle is not closed under the bracket")
    return alg


def _pontryagin_bundle(patch):
    return direct_sum(tangent(patch), cotangent(patch))


def dirac_from_poisson(patch, pi):
    """graph(pi-sharp): frame sections (pi^#(dx_i), dx_i) with
    pi^#(dx_i) = sum_j pi[i][j] d/dx_j."""
    dim = patch.dim
    pi = [[patch.scalar(v) for v in row] for row in pi]
    if len(pi) != dim or any(len(r) != dim for r in pi):
        raise ValueError("bivector matrix must be dim x dim")
    for i in range(dim):
        for j in range(dim):
            if pi[i][j] != -pi[j][i]:
                raise ValueError("bivector matrix must be antisymmetric")
    bundle = _pontryagin_bundle(patch)
    sections = []
    for i in range(dim):
        comps = list(pi[i]) + [patch.one if k == i else patch.zero
                               for k in range(dim)]
        sections.append(Section(bundle, comps))
    return Subbundle(bundle, Frame(bundle, sections))


def dirac_from_2form(patch, omega):
    """graph(omega-flat): frame sections (d/dx_i, i_{d/dx_i} omega)."""
    dim = patch.dim
    omega = [[patch.scalar(v) for v in row] for row in omega]
    if len(omega) != dim or any(len(r) != dim for r in omega):
        raise ValueError("two-form matrix must be dim x dim")
    for i in range(dim):
        for j in range(dim):
            if omega[i][j] != -omega[j][i]:
                raise ValueError("two-form matrix must be antisymmetric")
    bundle = _pontryagin_bundle(patch)
    sections = []
    for i in range(dim):
        comps = [patch.one if k == i else patch.zero for k in range(dim)] \
            + list(omega[i])
        sections.append(Section(bundle, comps))
    return Subbundle(bundle, Frame(bundle, sections))


def dirac_from_foliation(F):
    """F + F°: tangent frame sections of F padded with zeros, plus the
    covectors annihilating F."""
    patch = F.patch
    dim = patch.dim
    if F.ambient != tangent(patch):
        raise ValueError("foliation must be a subbundle of TM")
    bundle = _pontryagin_bundle(patch)
    sections = []
    for X in F.frame:
        sections.append(Section(bundle, list(X.components)
                                + [patch.zero] * dim))
    rows = [list(X.components) for X in F.frame]
    for theta in nullspace(rows, patch, ncols=dim):
        sections.append(Section(bundle, [patch.zero] * dim + theta))
    return Subbundle(bundle, Frame(bundle, sections))


# ---------------------------------------------------------------------------
# morphisms


def check_courant_morphism(Phi, C1, C2, config=None, prefix="morphism"):
    """Anchor, pairing, and bracket compatibility of a bundle map given by
    a rank(C2) x rank(C1) matrix (column j = image of the j-th frame)."""
    patch = C1.patch
    if C2.patch != patch:
        raise ValueError("presentations live over different patches")
    Phi = [[patch.scalar(v) for v in row] for row in Phi]
    if len(Phi) != C2.rank or any(len(r) != C1.rank for r in Phi):
        raise ValueError("morphism matrix must be rank(C2) x rank(C1)")

    def apply(c):
        return Section(C2.bundle, apply_matrix(Phi, c.components, patch))

    # every test entry carries its image (c, Phi c), so Phi is applied
    # once per frame section however many pairs hold it
    def draw(rng, max_degree):
        c = C1.random_element(rng, max_degree)
        return c, apply(c)

    frames = [(label, (c, apply(c)))
              for label, c in labelled("e", C1.frame_sections())]
    pair = [("random#%d.0", draw), ("random#%d.1", draw)]
    check = Check("%s.anchor" % prefix, config)
    results = [check.run(
        check.tuples(frames, ("random#%d", draw)),
        lambda c: C2.anchor_vf(c[1]) - C1.anchor_vf(c[0]), inputs=named("c"))]

    # inputs print the section, not its image
    def sections(entries):
        return {label: c for label, (c, _) in entries}

    check = Check("%s.pairing" % prefix, config)
    results.append(check.run(
        check.tuples(product(frames, repeat=2), *pair),
        lambda c1, c2: C2.pairing(c1[1], c2[1]) - C1.pairing(c1[0], c2[0]),
        inputs=sections))

    # zero test owned by the target: quotient carriers compare classes
    check = Check("%s.bracket" % prefix, config)
    results.append(check.run(
        check.tuples(product(frames, repeat=2), *pair),
        lambda c1, c2: apply(C1.bracket(c1[0], c2[0]))
        - C2.bracket(c1[1], c2[1]), zero=C2.is_zero, inputs=sections))
    return results


# ---------------------------------------------------------------------------
# the Bott connection on C/D


class BottDorfman:
    """Quotient connection Delta_d [c] = [bracket(d, c)] on C/D, with
    representatives taken in a fixed complement of D."""

    def __init__(self, C, D):
        if D.ambient != C.bundle:
            raise ValueError("subbundle does not live in the carrier bundle")
        self.C = C
        self.D = D
        self.W = D.adapted_frame().sections[D.rank:]
        self.quotient = TrivialBundle(C.patch, len(self.W),
                                      "%s/D" % C.bundle.name)
        self.table = [[self.eval(d, w) for w in self.W] for d in D.frame]

    def reduce(self, c):
        """Class of c in C/D: the complement coefficients of c."""
        data = self.D.adapted_frame().coefficients(c.components)
        return Section(self.quotient, data[self.D.rank:])

    def eval(self, d, c):
        inside, _ = membership(d, self.D)
        if not inside:
            raise ValueError("first argument must be a section of D")
        return self.reduce(self.C.bracket(d, c))


def bott_dorfman(C, D, config=None, prefix="bott"):
    """Build the quotient connection and certify well-definedness: for d, d'
    over the D-frame and f over the coordinates, bracket(d, f d') stays in
    Gamma(D), so changing a representative changes nothing in C/D."""
    bott = BottDorfman(C, D)
    patch = C.patch
    check = Check("%s.well_defined" % prefix, config)
    functions = check.tuples(
        labelled("c", [patch.one] + [patch.coordinate(k)
                                     for k in range(patch.dim)]),
        ("random#%d", partial(random_scalar, patch)))
    frame = labelled("d", D.frame)
    return bott, [check.run(
        product(frame, frame, functions),
        lambda d1, d2, f: C.bracket(d1, f * d2),
        zero=lambda v: membership(v, D)[0],
        inputs=lambda e: {"d1": e[0][0], "d2": e[1][0], "f": e[2][1]})]
