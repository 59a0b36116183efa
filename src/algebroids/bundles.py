"""Trivialized vector bundles over a coordinate patch.

Sections are component tuples of scalar fields; subbundles are given by
constant-rank frames.  All linear algebra happens over the field of
rational functions, with deterministic lowest-index pivoting so that rank
certificates, annihilator frames and membership witnesses are reproducible.

Every elimination runs one pivot loop, _eliminate, with lowest-index
pivoting: the pivot of a column is its first nonzero entry at or below the
current row, swapped up.  It has two row-update rules, with p the pivot, f
a row's entry in the pivot column and b the pivot row's entry:

* the fraction-free (Bareiss) rule of _bareiss replaces each entry a of a
  lower row by (p*a - f*b) / prev, prev the previous pivot.  By
  Sylvester's identity each entry is then a minor of the row-swapped
  matrix, so the division is exact and integer polynomial entries stay
  polynomials over 1.  It gives pivots, ranks and determinants: Frame's
  certificate, matrix_rank, det and the greedy extension behind
  complement;
* the dividing (Gauss-Jordan) rule of rref scales the pivot row by 1/p
  and takes f times it from every other row.  It gives the reduced matrix
  R and, eliminating [M | I], the transform T: nullspace, Solver and
  zoo's elimination of P.  R and T keep this rule because their entries
  are genuinely rational (a Solver transform holds entries such as
  y/(x^2 + 1)); fraction-free back-substitution would carry the growing
  pivots through every entry and divide once more at the end.

A lower row changes only by a nonzero factor and multiples of the pivot
row, so both rules see the same zeros and pick the same pivots.  No step
that changes nothing is taken: a row whose f is 0 is left alone, unless
the fraction-free rule must scale it by p/prev != 1; no product is formed
with a factor 0 or 1, and nothing is divided by 1.  Each value is then the
full formula's, and scalars are canonical, so the results are too.
Entries need only be exact field values with +, -, *, / and truthiness
(false iff zero).  Two types are in use: ScalarField, and Fraction for the
constant linear systems of zoo.parallel_frame_search.

A frame is certified by the column index set of a maximal minor whose
determinant is a nonzero rational function; everything downstream is valid
on the Zariski-open locus where that minor does not vanish, and the minor
itself is available for reporting (certificate_minor).

Frames and sections are never mutated after construction.  So each bundle
keeps one zero section (TrivialBundle.zero_section) and its frame sections,
shared by every caller, and the zero paths return that zero at once:
_recall for an argument whose memo key part is all zero constants (each
memoised bracket and connection is linear in its section arguments), and
TrivialBundle.wrap for zero components copied from another bundle.
GraphQuotient.is_zero answers True for a zero representative with no
membership test, and Solver.solve a zero right-hand side with the zero
solution.  That is also what
lets each Frame keep one Solver, built on its first membership test: the
Solver eliminates the column matrix once with a tracked rref, keeping the
transform T (T*A = R) and the pivots, and every later right-hand side b is
answered from y = T*b.  This gives the same solution and the same witness
as eliminating the augmented matrix [A | b] afresh.  The row swaps and
eliminations in columns 0..k-1 depend only on those columns, so after them
the augmented column is exactly T*b.  A pivot in column k is then the
lowest row i >= rank with y[i] != 0, and its witness row is T[i] scaled by
1/y[i]; otherwise the solution is y read off at the pivots.  Scalars are
canonical, so equal values print identically and witnesses stay
byte-for-byte the same.

Each subbundle also keeps one adapted frame (Subbundle.adapted_frame): its
own frame sections followed by complement(U), a frame of the whole ambient
bundle built on first use.  Its coefficients() read any section over the
subbundle plus its complement, and solver().T is the inverse of its column
matrix, so "frame, then complement, then eliminate" runs once per subbundle.

The graph quotient (V + E) / graph(-phi|_K), for subbundles V and K of E
and a bundle map phi: K -> V, is written once, as GraphQuotient.  Its
elements are representatives: rank(V) frame coefficients followed by E
components.  A class vanishes iff its E-part e lies in K and v + phi(e) = 0;
its coordinates move the K-part of e into the V slot through phi and keep
the complement coefficients.  A representative is split into its V-part
(a combination of the V frame) and e once per quotient: the split is kept
on the section, which like the frame is never mutated.  The Courant
algebroid of an LA-Dirac triple (phi = (rho, rho^t)) and the quotient
algebroid of an infinitesimal ideal system (phi = rho) are its two
instances.

Sparse rule: apply_matrix, its transpose _apply_transpose,
Frame.combination, canonical_pairing, degenerate_pairing, Section.__add__
and Section.__sub__ add only nonzero terms, through the section kernels
scalars._dot and scalars._accumulate, which sum on the scalars'
representations;
Section.__add__ returns the other operand when one side is all zero, and
Section.__sub__ returns the left operand when the right one is.  Bundle
maps and frames are mostly 0 and +-1, and canonical scalars make the
result independent of which zero terms are left out and of the order of
the rest.

Matrix convention used across the package: a bundle map acts by ordinary
matrix-vector multiplication, so column j holds the components of the image
of the j-th standard basis section.  An anchor rho on A has shape
dim x rank(A) and rho(e_j) = sum_i rho[i][j] d/dx_i.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import (ScalarField, _accumulate, _dot, _value_key,
                      random_scalar)

__all__ = [
    "TrivialBundle", "Section", "Frame", "Subbundle", "GraphQuotient",
    "direct_sum", "canonical_pairing", "degenerate_pairing",
    "annihilator", "membership", "complement", "perp_under_gram",
    "rref", "nullspace", "matrix_rank", "det", "Solver",
    "random_section", "random_combination", "apply_matrix", "FrameError",
]


class FrameError(ValueError):
    """A frame failed its constant-rank certificate."""


class TrivialBundle:
    """A trivialized vector bundle over a patch, identified by rank."""

    # _zero, _basis: the shared zero and frame sections, built on first use
    __slots__ = ("patch", "rank", "name", "_zero", "_basis")

    def __init__(self, patch, rank, name):
        if rank < 0:
            raise ValueError("rank must be non-negative")
        self.patch = patch
        self.rank = rank
        self.name = name

    def zero_section(self):
        """The zero section, one object per bundle: sections are never
        mutated, so every caller can share it, with its memo key part."""
        try:
            return self._zero
        except AttributeError:
            self._zero = Section(self, [self.patch.zero] * self.rank)
            return self._zero

    def wrap(self, components):
        """components as a section of this bundle, the shared zero section
        when every one is zero."""
        if len(components) == self.rank and not any(components):
            return self.zero_section()
        return Section(self, components)

    def basis_sections(self):
        """The frame sections as a new list of sections kept on the bundle,
        like its zero section."""
        try:
            return list(self._basis)
        except AttributeError:
            z, one = self.patch.zero, self.patch.one
            self._basis = tuple(
                Section(self, [one if j == i else z for j in range(self.rank)])
                for i in range(self.rank))
            return list(self._basis)

    def basis_section(self, i):
        try:
            return self._basis[i]
        except AttributeError:
            return self.basis_sections()[i]

    def standard_frame(self):
        return Frame(self, self.basis_sections())

    def section(self, components):
        """Build a section, coercing strings/ints/Fractions to scalars."""
        return Section(self, [self.patch.scalar(c) for c in components])

    def __eq__(self, other):
        # name participates: TM+A* and A+T*M have equal ranks but must not
        # mix, and the name is the only layout marker a trivial bundle has
        if other is self:
            return True
        if isinstance(other, TrivialBundle):
            return (self.patch == other.patch and self.rank == other.rank
                    and self.name == other.name)
        return NotImplemented

    def __hash__(self):
        return hash((self.patch, self.rank, self.name))

    def __repr__(self):
        return "TrivialBundle(%s, rank=%d)" % (self.name, self.rank)


class Section:
    """A section of a trivialized bundle: a tuple of scalar components."""

    # _key: (constant, part), this section's memo key part kept by
    # _recall; _split: (quotient, (v_part, e_part)), the split of this
    # representative kept by GraphQuotient.split.  Both start None, so a
    # fresh section is told by a test, not by a caught AttributeError
    __slots__ = ("bundle", "components", "_key", "_split")

    def __init__(self, bundle, components):
        components = tuple(components)
        if len(components) != bundle.rank:
            raise ValueError("expected %d components, got %d"
                             % (bundle.rank, len(components)))
        self.bundle = bundle
        self.components = components
        self._key = self._split = None

    def _check(self, other):
        if not isinstance(other, Section) or (other.bundle is not self.bundle
                                              and other.bundle != self.bundle):
            raise ValueError("sections of different bundles")

    def __add__(self, other):
        self._check(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        out = list(self.components)
        _accumulate(out, self.bundle.patch.one, other.components)
        return Section(self.bundle, out)

    def __sub__(self, other):
        self._check(other)
        if other.is_zero():
            return self
        out = list(self.components)
        _accumulate(out, self.bundle.patch.one, other.components,
                    sign=-1)
        return Section(self.bundle, out)

    def __neg__(self):
        return Section(self.bundle, [-a for a in self.components])

    def __rmul__(self, f):
        # scalar * section
        if isinstance(f, (int, Fraction)):
            f = self.bundle.patch.scalar(f)
        if not isinstance(f, ScalarField):
            return NotImplemented
        zero = self.bundle.patch.zero
        return Section(self.bundle, [f * a if a else zero
                                     for a in self.components])

    __mul__ = __rmul__

    def is_zero(self):
        for c in self.components:
            if c.rep:
                return False
        return True

    def __eq__(self, other):
        if isinstance(other, Section):
            return (self.bundle == other.bundle
                    and self.components == other.components)
        return NotImplemented

    def __hash__(self):
        return hash((self.bundle, self.components))

    def __getitem__(self, i):
        return self.components[i]

    def __len__(self):
        return len(self.components)

    def __str__(self):
        return "(%s)" % ", ".join(str(c) for c in self.components)

    def __repr__(self):
        return "Section%s" % (self,)


class Frame:
    """An independent list of sections with a maximal-minor certificate.

    rank_certificate is the tuple of component indices of a maximal minor
    whose determinant is a nonzero rational function (found by elimination
    with lowest-index pivoting, so it is deterministic).
    """

    __slots__ = ("bundle", "sections", "rank_certificate", "_solver")

    def __init__(self, bundle, sections):
        sections = tuple(sections)
        for s in sections:
            if s.bundle != bundle:
                raise ValueError("frame section from a different bundle")
        pivots = _bareiss([s.components for s in sections])[0]
        if len(pivots) != len(sections):
            raise FrameError("frame sections are dependent over the function "
                             "field (rank %d < %d)" % (len(pivots), len(sections)))
        self.bundle = bundle
        self.sections = sections
        self.rank_certificate = tuple(pivots)
        self._solver = None

    @property
    def rank(self):
        return len(self.sections)

    def solver(self):
        """Solver over the frame's columns, built on first use and kept
        (a frame is never mutated)."""
        if self._solver is None:
            cols = [[s.components[i] for s in self.sections]
                    for i in range(self.bundle.rank)]
            self._solver = Solver(cols, self.bundle.patch)
        return self._solver

    def coefficients(self, components):
        """Coefficients over the frame of the section with these components;
        RuntimeError if it lies outside the frame's span."""
        status, data = self.solver().solve(components)
        if status != "solution":
            raise RuntimeError("section outside the span of the frame")
        return data

    def combination(self, coeffs):
        """The section sum_p coeffs[p] * sections[p]."""
        out = [self.bundle.patch.zero] * self.bundle.rank
        for c, s in zip(coeffs, self.sections, strict=True):
            if c:
                _accumulate(out, c, s.components)
        return Section(self.bundle, out)

    def certificate_minor(self):
        """Determinant of the certified maximal minor (nonzero by construction)."""
        rows = [[s.components[c] for c in self.rank_certificate]
                for s in self.sections]
        return det(rows, self.bundle.patch)

    def matrix(self):
        return [list(s.components) for s in self.sections]

    def __len__(self):
        return len(self.sections)

    def __iter__(self):
        return iter(self.sections)

    def __getitem__(self, i):
        return self.sections[i]

    def __repr__(self):
        return "Frame(%s, rank=%d)" % (self.bundle.name, self.rank)


class Subbundle:
    """A constant-rank subbundle of a trivialized bundle, given by a frame."""

    __slots__ = ("ambient", "frame", "_adapted")

    def __init__(self, ambient, frame):
        if frame.bundle != ambient:
            raise ValueError("frame does not live in the ambient bundle")
        self.ambient = ambient
        self.frame = frame
        self._adapted = None

    def adapted_frame(self):
        """The frame sections followed by those of complement(self): a frame
        of the ambient bundle, built on first use and kept (a subbundle is
        never mutated)."""
        if self._adapted is None:
            self._adapted = Frame(self.ambient, self.frame.sections
                                  + tuple(_complement_sections(self)))
        return self._adapted

    @property
    def rank(self):
        return self.frame.rank

    @property
    def patch(self):
        return self.ambient.patch

    def __repr__(self):
        return "Subbundle(rank %d of %r)" % (self.rank, self.ambient)


# ---------------------------------------------------------------------------
# exact linear algebra over the function field


def rref(rows, patch, track=False):
    """Reduced row echelon form: the one pivot loop with its dividing rule
    (module docstring).

    Returns (R, T, pivots) where R is the echelon matrix, pivots the list
    of pivot column indices, and T (if track) the transform with T*M = R,
    the right block of [M | I] eliminated by the same row updates.
    Entries are exact field values tested by truthiness (ScalarField or
    Fraction); patch supplies the 1 and 0 of T.
    """
    n = len(rows)
    ncols = len(rows[0]) if n else 0
    eye = ([[patch.one if i == j else patch.zero for j in range(n)]
            for i in range(n)] if track else [[]] * n)
    m = [list(r) + e for r, e in zip(rows, eye)]
    pivots = _eliminate(m, ncols, True)[0]
    if not track:
        return m, None, pivots
    return [r[:ncols] for r in m], [r[ncols:] for r in m], pivots


def _bareiss(rows):
    """Fraction-free forward elimination: the one pivot loop with its
    fraction-free rule (module docstring).  Returns (pivots, sign, last)
    with the pivot columns, the sign of the row permutation and the last
    pivot (1 if there is none), which for a square matrix of full rank is
    sign * det."""
    return _eliminate([list(r) for r in rows], len(rows[0]) if rows else 0,
                      False)


def _eliminate(m, ncols, dividing):
    """The one pivot loop (module docstring), on the rows m in place, with
    the dividing rule or the fraction-free one; returns as _bareiss."""
    nrows = len(m)
    pivots = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        p, start = m[r][c], c + 1
        if dividing:
            if p != 1:
                inv = 1 / p
                m[r][c:] = [b and _times(inv, b) for b in m[r][c:]]
            p, start = 1, c
        tail = m[r][start:]
        for i in range(0 if dividing else r + 1, nrows):
            if i != r and (m[i][c] or p != prev):
                m[i][start:] = _combine(p, m[i][start:], m[i][c], tail, prev)
        pivots.append(c)
        prev = p
        r += 1
    return pivots, sign, prev


def _times(f, a):
    """f * a for nonzero f and a, with no product by 1."""
    return a if f == 1 else f if a == 1 else f * a


def _combine(p, row, f, tail, prev):
    """(p*a - f*b) / prev over a, b in zip(row, tail), taking no step that
    changes nothing: no product with a factor 0 or 1, no difference with 0
    and no division of 0 or by 1."""
    out = []
    for a, b in zip(row, tail):
        if a:
            a = _times(p, a)
        if f and b:
            b = _times(f, b)
            a = a - b if a else -b
        out.append(a / prev if a and prev != 1 else a)
    return out


def matrix_rank(rows, patch):
    return len(_bareiss(rows)[0])


def nullspace(rows, patch, ncols=None):
    """Basis of the right nullspace {v : M v = 0} as component lists; the
    rows may hold any exact field values (see rref)."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if not rows:
        return [[patch.one if i == j else patch.zero for j in range(ncols)]
                for i in range(ncols)]
    R, _, pivots = rref(rows, patch)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [patch.zero] * ncols
        v[free] = patch.one
        for j, c in enumerate(pivots):
            v[c] = -R[j][free]
        basis.append(v)
    return basis


def det(rows, patch):
    """Determinant by fraction-free elimination: the swap sign times the
    last pivot, or 0 when a column has no pivot."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return patch.one
    pivots, sign, last = _bareiss(rows)
    if len(pivots) < n:
        return patch.zero
    return last if sign == 1 else -last


class Solver:
    """A x = b for one fixed A and any number of right-hand sides.

    A is given as a list of rows (shape n x k) and eliminated once, with
    the transform kept; solve(b) then costs one matrix-vector product.
    The answers equal those of eliminating [A | b] each time (see the
    module docstring).
    """

    __slots__ = ("patch", "ncols", "pivots", "T")

    def __init__(self, columns_matrix, patch):
        _, T, pivots = rref(columns_matrix, patch, track=True)
        self.patch = patch
        self.ncols = len(columns_matrix[0]) if columns_matrix else 0
        self.pivots = pivots
        self.T = T

    def solve(self, rhs):
        """("solution", x) with x of length k, or ("witness", w) with w a
        covector of length n satisfying w*A = 0 and w*rhs != 0.  A zero
        rhs has the zero solution at once."""
        patch, T = self.patch, self.T
        if not any(rhs):
            return "solution", [patch.zero] * self.ncols
        rank = len(self.pivots)
        for i in range(rank, len(T)):
            y = _dot(patch, T[i], rhs)
            if not y.is_zero():
                inv = 1 / y
                return "witness", [inv * t for t in T[i]]
        x = [patch.zero] * self.ncols
        for j, c in enumerate(self.pivots):
            x[c] = _dot(patch, T[j], rhs)
        return "solution", x


# ---------------------------------------------------------------------------
# bundle operations


def direct_sum(b1, b2):
    """Concatenate two bundles over the same patch; components are
    (b1-part, b2-part) in declared order."""
    if b1.patch != b2.patch:
        raise ValueError("direct sum needs bundles over the same patch")
    return TrivialBundle(b1.patch, b1.rank + b2.rank,
                         "%s+%s" % (b1.name, b2.name))


def canonical_pairing(u, t):
    """Pairing of TM + A* against A + T*M: <(X, alpha), (a, theta)> =
    theta(X) + alpha(a), in the fixed component layout."""
    patch = u.bundle.patch
    if t.bundle.patch != patch or u.bundle.rank != t.bundle.rank:
        raise ValueError("pairing needs matching bundles")
    dim = patch.dim
    ra = u.bundle.rank - dim
    if ra < 0:
        raise ValueError("bundle rank smaller than patch dimension")
    # (X, alpha) against (theta, a)
    tc = t.components
    return _dot(patch, u.components, tc[ra:] + tc[:ra])


def apply_matrix(m, comps, patch):
    """Matrix-vector product for bundle maps (column j = image of basis j)."""
    return [_dot(patch, row, comps) for row in m]


def _apply_transpose(m, comps, patch):
    """Transposed product: entry j is sum_i m[i][j] * comps[i]."""
    return [_dot(patch, col, comps) for col in zip(*m)]


# entries of the value tier of every bracket and connection memo (see the
# algebroid module docstring); the benchmark rounds ask for a result again
# at most 55 new entries later, and 32 would lose quotient bracket hits
_RECENT = 64


def _constant_key(s):
    """The component values of a section as ints and Fractions, or None
    when one is not constant.

    Constant arguments are the frame sections, their constant
    combinations and the random draws that happen to be constant (common
    at max_degree 1), so the keys a structure stores are bounded by its
    frame test sets plus those draws."""
    values = []
    for c in s.components:
        v = c.as_constant()
        if v is None:
            return None
        values.append(v)
    return tuple(values)


def _recall(owner, bundle, sections, compute, tag=()):
    """compute() once per key in a memo tier of owner (see the algebroid
    module docstring): tag, then one part per section, its _constant_key
    or else its scalars._value_key.  A key of constant parts only goes to
    owner._memo, any other to owner._recent, which drops its oldest entry
    beyond _RECENT.  A section is never mutated, so it keeps its part,
    built on first use, as (constant, part) in its _key slot.

    compute is linear in each section and returns a section of bundle, so
    a section whose part is all zero constants gives bundle's shared zero
    section at once, with no lookup and nothing stored."""
    key, constant = tag, True
    for s in sections:
        if s._key is None:
            part = _constant_key(s)
            c = part is not None
            if not c:
                part = _value_key(s.components)
            s._key = c, part
        else:
            c, part = s._key
        if c and not any(part):
            return bundle.zero_section()
        constant = constant and c
        key += (part,)
    memo = owner._memo if constant else owner._recent
    out = memo.get(key)
    if out is None:
        out = memo[key] = compute()
        if not constant and len(memo) > _RECENT:
            del memo[next(iter(memo))]
    return out


def degenerate_pairing(t1, t2, rho):
    """Symmetric pairing on A + T*M induced by the anchor:
    <(a1, th1), (a2, th2)> = th2(rho(a1)) + th1(rho(a2))."""
    patch = t1.bundle.patch
    if t2.bundle is not t1.bundle and t2.bundle != t1.bundle:
        raise ValueError("pairing needs sections of the same bundle")
    dim = patch.dim
    ra = t1.bundle.rank - dim
    if ra < 0 or len(rho) != dim or any(len(row) != ra for row in rho):
        raise ValueError("anchor shape must be dim x rank(A)")
    rho_a1 = apply_matrix(rho, t1.components[:ra], patch)
    rho_a2 = apply_matrix(rho, t2.components[:ra], patch)
    return _dot(patch, t2.components[ra:] + t1.components[ra:],
                rho_a1 + rho_a2)


def _canonical_gram(patch, rank, side="TM+A*"):
    """Gram matrix of canonical_pairing in the standard bases.

    side names the layout of the row space: "TM+A*" pairs rows of TM + A*
    against columns of A + T*M, "A+T*M" the transpose.  The two differ
    whenever rank(A) != dim.
    """
    dim = patch.dim
    ra = rank - dim
    g = [[patch.zero] * rank for _ in range(rank)]
    if side == "TM+A*":
        for i in range(dim):
            g[i][ra + i] = patch.one
        for j in range(ra):
            g[dim + j][j] = patch.one
    elif side == "A+T*M":
        for j in range(ra):
            g[j][dim + j] = patch.one
        for i in range(dim):
            g[ra + i][i] = patch.one
    else:
        raise ValueError("side must be 'TM+A*' or 'A+T*M'")
    return g


def perp_under_gram(U, gram, twin):
    """Subbundle of `twin` annihilated by U under the bilinear form with the
    given Gram matrix (rows indexed by U's ambient, columns by twin)."""
    patch = U.patch
    rows = []
    for s in U.frame:
        rows.append([
            _dot(patch, s.components, [gram[c][d] for c in range(len(s.components))])
            for d in range(twin.rank)])
    basis = nullspace(rows, patch, ncols=twin.rank)
    sections = [Section(twin, v) for v in basis]
    return Subbundle(twin, Frame(twin, sections))


def annihilator(U, twin=None, side="TM+A*"):
    """Annihilator of U under the canonical pairing, as a subbundle of the
    twin bundle (A + T*M for U inside TM + A*, and conversely for
    side="A+T*M").

    rank(U) + rank(annihilator(U)) equals the ambient rank.
    """
    patch = U.patch
    n = U.ambient.rank
    if twin is None:
        twin = TrivialBundle(patch, n, "dual(%s)" % U.ambient.name)
    elif twin.rank != n or twin.patch != patch:
        raise ValueError("twin bundle must match the ambient rank and patch")
    return perp_under_gram(U, _canonical_gram(patch, n, side), twin)


def membership(s, U):
    """Decide s in span(U-frame) over the function field.

    Returns (True, coefficients) with s = sum c_i u_i, or (False, witness)
    where the witness covector annihilates every frame section but not s.
    """
    if s.bundle is not U.ambient and s.bundle != U.ambient:
        raise ValueError("section and subbundle have different ambient bundles")
    status, data = U.frame.solver().solve(s.components)
    return status == "solution", data


def complement(U):
    """Deterministic complement: the standard basis sections, in index
    order, that increase the rank of the frame and of those kept before."""
    return Frame(U.ambient, _complement_sections(U))


def _complement_sections(U):
    return _independent_extension(U, U.ambient.basis_sections())


def _independent_extension(U, candidates):
    """One elimination of the n x (k+m) matrix whose columns are the k frame
    sections of U and then the m candidate sections: pivot columns are the
    greedy left-to-right independent set, so a candidate is kept exactly
    when it is independent of the frame and of the candidates kept before
    it (the frame's own k columns are independent; a zero or dependent
    candidate is never a pivot)."""
    k = U.frame.rank
    cols = U.frame.sections + tuple(candidates)
    rows = [[s.components[i] for s in cols] for i in range(U.ambient.rank)]
    pivots = _bareiss(rows)[0]
    return [cols[c] for c in pivots if c >= k]


def random_section(bundle, rng, max_degree=2):
    return Section(bundle, [random_scalar(bundle.patch, rng, max_degree)
                            for _ in range(bundle.rank)])


def random_combination(U, rng, max_degree=2):
    """A random section of the subbundle U: the frame sections with random
    polynomial coefficients, drawn in frame order."""
    return U.frame.combination([random_scalar(U.patch, rng, max_degree)
                                for _ in U.frame])


# ---------------------------------------------------------------------------
# the graph quotient


class GraphQuotient:
    """The quotient (V + E) / graph(-phi|_K) of the module docstring, for a
    subbundle V, a subbundle K of E and phi mapping sections of K to
    sections of V's ambient bundle; name labels the representative bundle.

    frame_sections() is an honest frame of the quotient (the V-frame
    classes, then the complement W of K), coordinates() reduces a
    representative over it, and is_zero() tests membership in the graph.
    """

    def __init__(self, V, K, phi, name):
        self.V = V
        self.K = K
        self.E = K.ambient
        self.phi = phi
        self.rV = V.rank
        self.patch = K.patch
        self.bundle = TrivialBundle(K.patch, V.rank + self.E.rank, name)
        self.W = K.adapted_frame().sections[K.rank:]
        self.true_rank = V.rank + len(self.W)
        self._graph = None

    def lift(self, v_coeffs, e=None):
        """Representative section from V-frame coefficients and a section
        (or component list) of E."""
        patch = self.patch
        comps = [patch.scalar(v) for v in v_coeffs]
        if len(comps) != self.rV:
            raise ValueError("expected %d V-frame coefficients" % self.rV)
        if e is None:
            comps += [patch.zero] * self.E.rank
        else:
            e_comps = e.components if isinstance(e, Section) else e
            comps += [patch.scalar(v) for v in e_comps]
        return Section(self.bundle, comps)

    def v_part(self, c):
        """The V-part of a representative, as a section of V's ambient."""
        return self.V.frame.combination(c.components[:self.rV])

    def e_part(self, c):
        return Section(self.E, c.components[self.rV:])

    def split(self, c):
        """(v_part(c), e_part(c)), built once per representative: c and
        the V frame are never mutated, so c keeps them in its _split slot
        with this quotient as owner, and another quotient recomputes."""
        if c._split is not None and c._split[0] is self:
            return c._split[1]
        parts = self.v_part(c), self.e_part(c)
        c._split = self, parts
        return parts

    def _phi_coordinates(self, k):
        inside, coeffs = membership(self.phi(k), self.V)
        if not inside:
            raise ValueError("phi does not map K into V; the quotient "
                             "presentation degenerates")
        return coeffs

    @property
    def graph_frame(self):
        """Frame of the graph: (-phi(k) in V-coefficients, k) over K."""
        if self._graph is None:
            self._graph = Frame(self.bundle, [
                self.lift([-c for c in self._phi_coordinates(k)], k)
                for k in self.K.frame])
        return self._graph

    def frame_sections(self):
        one, zero = self.patch.one, self.patch.zero
        out = [self.lift([one if q == p else zero for q in range(self.rV)])
               for p in range(self.rV)]
        return out + [self.lift([zero] * self.rV, w) for w in self.W]

    def coordinates(self, c):
        """Coefficients of the class of c over frame_sections(): the K-part
        k of the E-part moves into the V slot as phi(k)."""
        data = self.K.adapted_frame().coefficients(c.components[self.rV:])
        coeffs = self._phi_coordinates(
            self.K.frame.combination(data[:self.K.rank]))
        return [c.components[p] + coeffs[p] for p in range(self.rV)] \
            + list(data[self.K.rank:])

    def zero(self):
        return self.bundle.zero_section()

    def random_element(self, rng, max_degree=2):
        return random_section(self.bundle, rng, max_degree)

    def is_zero(self, c):
        """c represents the zero class: its E-part e lies in Gamma(K) and
        its V-part cancels phi(e).  A zero representative does at once."""
        if c.is_zero():
            return True
        v, e = self.split(c)
        inside, _ = membership(e, self.K)
        if not inside:
            return False
        return (v + self.phi(e)).is_zero()
