"""The sparse kernels against the dense formulas they replace.

Every kernel below adds only its nonzero terms.  Each is compared here,
entry by entry and as printed, with the dense formula it used to evaluate
(kept inline as the reference, written with scalar arithmetic only so that
it does not lean on the Section operations under test).  The random data
plant zeros and +-1 among genuinely rational entries, so every skip branch
runs in both directions.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from algebroids.algebroid import (AnchoredBundle, DullAlgebroid, _leibniz,
                                  _nonzero_rows, rho_transpose)
from algebroids.bundles import (Frame, FrameError, Section, TrivialBundle,
                                _apply_transpose, apply_matrix,
                                canonical_pairing, degenerate_pairing)
from algebroids.cartan import (apply_vf, interior_vf_2form, lie_bracket_vf,
                               pair_form_vf, tangent)
from algebroids.courant import CourantPresentation
from algebroids.scalars import Patch, _accumulate, _directional, _dot

PATCH = Patch(["x", "y"])
X, Y = PATCH.coordinate(0), PATCH.coordinate(1)
ZERO, ONE = PATCH.zero, PATCH.one
MONOMIALS = [ONE, X, Y, X * Y, X * X]
DENOMINATORS = [ONE, PATCH.scalar(2), X, Y + 1, X * X + 1]
TM = tangent(PATCH)


@st.composite
def rational(draw):
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(MONOMIALS),
                           max_size=len(MONOMIALS)))
    num = sum((c * m for c, m in zip(coeffs, MONOMIALS) if c), ZERO)
    return num / draw(st.sampled_from(DENOMINATORS))


# planted zeros and units next to rational entries
scalars = st.one_of(st.just(ZERO), st.just(ONE), st.just(-ONE), rational())


def entries(k):
    return st.lists(scalars, min_size=k, max_size=k)


def matrices(rows, cols):
    return st.lists(entries(cols), min_size=rows, max_size=rows)


def sections(bundle):
    return entries(bundle.rank).map(lambda c: Section(bundle, c))


@st.composite
def partly_zero_sections(draw, bundle):
    """A section with at least one component planted as 0."""
    comps = draw(entries(bundle.rank))
    for k in draw(st.sets(st.integers(0, bundle.rank - 1), min_size=1)):
        comps[k] = ZERO
    return Section(bundle, comps)


vector_fields = sections(TM)
ranks = st.integers(1, 3)


def assert_same(got, want):
    got = got.components if isinstance(got, Section) else got
    want = want.components if isinstance(want, Section) else want
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert a == b and str(a) == str(b), \
            "entry %d: %s != %s" % (k, a, b)


# ---------------------------------------------------------------------------
# the dense formulas


def dense_sum(terms):
    total = ZERO
    for t in terms:
        total = total + t
    return total


def dense_apply_vf(X, f):
    return dense_sum(c * f.diff(i) for i, c in enumerate(X.components))


def dense_pair(theta, X):
    return dense_sum(t * x for t, x in zip(theta.components, X.components))


def dense_lie_bracket(X, Y):
    n = PATCH.dim
    return [dense_sum(X.components[j] * Y.components[i].diff(j)
                      - Y.components[j] * X.components[i].diff(j)
                      for j in range(n)) for i in range(n)]


def dense_interior(X, omega):
    n = PATCH.dim
    return [dense_sum(X.components[i] * omega[i][j] for i in range(n))
            for j in range(n)]


def dense_apply_matrix(m, comps):
    return [dense_sum(row[j] * comps[j] for j in range(len(comps)))
            for row in m]


def dense_apply_transpose(m, comps):
    return [dense_sum(m[i][j] * comps[i] for i in range(len(comps)))
            for j in range(len(m[0]))]


def dense_rho_transpose(anchor, rank, theta):
    return [dense_sum(anchor[i][j] * theta[i] for i in range(PATCH.dim))
            for j in range(rank)]


def dense_canonical_pairing(u, t, ra):
    dim = PATCH.dim
    return dense_sum([u.components[i] * t.components[ra + i]
                      for i in range(dim)]
                     + [u.components[dim + j] * t.components[j]
                        for j in range(ra)])


def dense_degenerate_pairing(t1, t2, rho, ra):
    dim = PATCH.dim
    rho_a1 = dense_apply_matrix(rho, t1.components[:ra])
    rho_a2 = dense_apply_matrix(rho, t2.components[:ra])
    return dense_sum(t2.components[ra + k] * rho_a1[k]
                     + t1.components[ra + k] * rho_a2[k] for k in range(dim))


def dense_gram_pairing(c1, c2, gram):
    n = len(gram)
    return dense_sum(c1.components[i] * gram[i][j] * c2.components[j]
                     for i in range(n) for j in range(n))


def dense_combination(coeffs, sections, rank):
    out = [ZERO] * rank
    for c, s in zip(coeffs, sections):
        out = [o + c * v for o, v in zip(out, s.components)]
    return out


def dense_leibniz(rank, table, f, g, X1, X2, weight, D, frame):
    if frame is None:
        basis = [[ONE if k == j else ZERO for k in range(rank)]
                 for j in range(rank)]
    else:
        basis = [s.components for s in frame]
    out = [ZERO] * rank
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out = [o + (fi * gj) * t
                   for o, t in zip(out, table[i][j].components)]
    for j, gj in enumerate(g):
        d = dense_apply_vf(X1, gj)
        out = [o + d * e for o, e in zip(out, basis[j])]
    if X2 is not None:
        for i, fi in enumerate(f):
            d = dense_apply_vf(X2, fi)
            out = [o - d * e for o, e in zip(out, basis[i])]
    if D is not None:
        for i, fi in enumerate(f):
            w = weight(i)
            out = [o + w * v for o, v in zip(out, D(fi).components)]
    return out


# ---------------------------------------------------------------------------
# cartan


@settings(max_examples=60, deadline=None)
@given(vector_fields, scalars)
def test_apply_vf(X, f):
    assert_same([apply_vf(X, f)], [dense_apply_vf(X, f)])


@settings(max_examples=60, deadline=None)
@given(vector_fields, vector_fields)
def test_pair_form_vf(theta, X):
    assert_same([pair_form_vf(theta, X)], [dense_pair(theta, X)])


@settings(max_examples=60, deadline=None)
@given(vector_fields, vector_fields)
def test_lie_bracket_vf(X, Y):
    assert_same(lie_bracket_vf(X, Y), dense_lie_bracket(X, Y))


@settings(max_examples=60, deadline=None)
@given(vector_fields, matrices(PATCH.dim, PATCH.dim))
def test_interior_vf_2form(X, omega):
    assert_same(interior_vf_2form(X, omega), dense_interior(X, omega))


# ---------------------------------------------------------------------------
# bundles


@settings(max_examples=60, deadline=None)
@given(ranks, ranks, st.data())
def test_apply_matrix(rows, cols, data):
    m = data.draw(matrices(rows, cols))
    comps = data.draw(entries(cols))
    assert_same(apply_matrix(m, comps, PATCH), dense_apply_matrix(m, comps))
    # the transpose product of the same rectangular matrix
    row_comps = data.draw(entries(rows))
    got = _apply_transpose(m, row_comps, PATCH)
    assert len(got) == cols
    assert_same(got, dense_apply_transpose(m, row_comps))


@settings(max_examples=60, deadline=None)
@given(ranks, st.data())
def test_frame_combination(rank, data):
    bundle = TrivialBundle(PATCH, rank, "E")
    k = data.draw(st.integers(1, rank))
    members = [data.draw(sections(bundle)) for _ in range(k)]
    try:
        frame = Frame(bundle, members)
    except FrameError:
        assume(False)
    coeffs = data.draw(entries(k))
    assert_same(frame.combination(coeffs),
                dense_combination(coeffs, members, rank))


@settings(max_examples=60, deadline=None)
@given(ranks, st.data())
def test_section_add(rank, data):
    bundle = TrivialBundle(PATCH, rank, "E")
    a, b = data.draw(sections(bundle)), data.draw(sections(bundle))
    want = [p + q for p, q in zip(a.components, b.components)]
    assert_same(a + b, want)
    # the zero short cut returns the other operand, on either side
    zero = bundle.zero_section()
    assert_same(zero + b, b.components)
    assert_same(a + zero, a.components)


@settings(max_examples=60, deadline=None)
@given(ranks, st.data())
def test_section_sub(rank, data):
    bundle = TrivialBundle(PATCH, rank, "E")
    a, b = data.draw(sections(bundle)), data.draw(sections(bundle))
    want = [p - q for p, q in zip(a.components, b.components)]
    assert_same(a - b, want)
    # the zero short cut returns the left operand
    zero = bundle.zero_section()
    assert_same(a - zero, a.components)
    assert_same(zero - b, [-q for q in b.components])


@settings(max_examples=60, deadline=None)
@given(ranks, st.data())
def test_section_sub_of_partly_zero_sections(rank, data):
    bundle = TrivialBundle(PATCH, rank, "E")
    a = data.draw(partly_zero_sections(bundle))
    b = data.draw(partly_zero_sections(bundle))
    got = a - b
    assert_same(got, [p - q for p, q in zip(a.components, b.components)])
    # a zero component of b keeps a's component itself
    for p, q, r in zip(a.components, b.components, got.components):
        if not q:
            assert r is p


@settings(max_examples=60, deadline=None)
@given(ranks, scalars, st.data())
def test_scalar_times_partly_zero_section(rank, f, data):
    bundle = TrivialBundle(PATCH, rank, "E")
    a = data.draw(partly_zero_sections(bundle))
    for got in (f * a, a * f):
        assert_same(got, [f * p for p in a.components])
        # f * 0 is the shared patch.zero
        for p, r in zip(a.components, got.components):
            if not p:
                assert r is ZERO


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.data())
def test_canonical_pairing(ra, data):
    Q = TrivialBundle(PATCH, PATCH.dim + ra, "TM+A*")
    B = TrivialBundle(PATCH, ra + PATCH.dim, "A+T*M")
    u, t = data.draw(sections(Q)), data.draw(sections(B))
    assert_same([canonical_pairing(u, t)], [dense_canonical_pairing(u, t, ra)])


@settings(max_examples=60, deadline=None)
@given(ranks, st.data())
def test_degenerate_pairing(ra, data):
    B = TrivialBundle(PATCH, ra + PATCH.dim, "A+T*M")
    rho = data.draw(matrices(PATCH.dim, ra))
    t1, t2 = data.draw(sections(B)), data.draw(sections(B))
    assert_same([degenerate_pairing(t1, t2, rho)],
                [dense_degenerate_pairing(t1, t2, rho, ra)])


# ---------------------------------------------------------------------------
# courant


@st.composite
def presentations(draw, rank):
    """A degenerate Courant presentation whose symmetric Gram table, anchor,
    bracket table and differential plant 0 and +-1 among rational entries."""
    bundle = TrivialBundle(PATCH, rank, "E")
    upper = draw(matrices(rank, rank))
    gram = [[upper[min(i, j)][max(i, j)] for j in range(rank)]
            for i in range(rank)]
    anchor = draw(matrices(PATCH.dim, rank))
    table = [[draw(sections(bundle)) for _ in range(rank)]
             for _ in range(rank)]
    dmat = draw(matrices(rank, PATCH.dim))
    return CourantPresentation(bundle, anchor, gram, table, dmat,
                               degenerate=True)


@settings(max_examples=60, deadline=None)
@given(ranks, st.data())
def test_courant_pairing(rank, data):
    C = data.draw(presentations(rank))
    c1, c2 = data.draw(sections(C.bundle)), data.draw(sections(C.bundle))
    assert_same([C.pairing(c1, c2)], [dense_gram_pairing(c1, c2, C.gram)])


@settings(max_examples=60, deadline=None)
@given(ranks, st.data())
def test_courant_bracket_weight(rank, data):
    C = data.draw(presentations(rank))
    bundle = C.bundle
    c1, c2 = data.draw(sections(bundle)), data.draw(sections(bundle))
    g = c2.components

    def weight(i):
        return dense_sum(g[j] * C.gram[i][j] for j in range(rank))

    def D(h):
        grad = [h.diff(k) for k in range(PATCH.dim)]
        return Section(bundle, dense_apply_matrix(C.dmat, grad))

    X1 = Section(TM, dense_apply_matrix(C.anchor, c1.components))
    X2 = Section(TM, dense_apply_matrix(C.anchor, g))
    assert_same(C.bracket(c1, c2),
                dense_leibniz(rank, C.table, c1.components, g, X1, X2,
                              weight, D, None))


# ---------------------------------------------------------------------------
# algebroid


@settings(max_examples=60, deadline=None)
@given(ranks, st.data())
def test_rho_transpose(rank, data):
    bundle = TrivialBundle(PATCH, rank, "A")
    anchor = data.draw(matrices(PATCH.dim, rank))
    table = [[bundle.zero_section()] * rank for _ in range(rank)]
    alg = DullAlgebroid(AnchoredBundle(bundle, anchor), table)
    theta = data.draw(entries(PATCH.dim))
    assert_same(rho_transpose(alg, theta),
                dense_rho_transpose(anchor, rank, theta))


@settings(max_examples=80, deadline=None)
@given(ranks, st.booleans(), st.booleans(), st.booleans(), st.data())
def test_leibniz(rank, with_frame, with_x2, with_pairing, data):
    bundle = TrivialBundle(PATCH, rank, "E")
    table = [[data.draw(sections(bundle)) for _ in range(rank)]
             for _ in range(rank)]
    f, g = data.draw(entries(rank)), data.draw(entries(rank))
    X1 = data.draw(vector_fields)
    X2 = data.draw(vector_fields) if with_x2 else None
    frame = ([data.draw(sections(bundle)) for _ in range(rank)]
             if with_frame else None)
    weight = D = None
    if with_pairing:
        weights = data.draw(entries(rank))
        dmat = data.draw(matrices(rank, PATCH.dim))

        def weight(i):
            return weights[i]

        def D(h):
            grad = [h.diff(k) for k in range(PATCH.dim)]
            return Section(bundle, dense_apply_matrix(dmat, grad))

    got = _leibniz(bundle, _nonzero_rows(table), f, g, X1, X2, weight, D,
                   frame)
    assert got.bundle == bundle
    assert_same(got, dense_leibniz(rank, table, f, g, X1, X2, weight, D,
                                   frame))


def test_leibniz_adds_the_anchor_term_over_the_given_frame():
    # over a tilted frame X1(g_j) multiplies frame[j], not e_j
    bundle = TrivialBundle(PATCH, 2, "E")
    zero = bundle.zero_section()
    frame = [Section(bundle, [ONE, Y]), Section(bundle, [X, ONE])]
    X1 = Section(TM, [ONE, ZERO])
    rows = _nonzero_rows([[zero, zero], [zero, zero]])
    got = _leibniz(bundle, rows, [ZERO, ZERO], [ZERO, X * X], X1, frame=frame)
    assert_same(got, [2 * X * X, 2 * X])
    got = _leibniz(bundle, rows, [ZERO, ZERO], [ZERO, X * X], X1)
    assert_same(got, [ZERO, 2 * X])


@settings(max_examples=80, deadline=None)
@given(ranks, st.sampled_from([1, -1]), st.booleans(), st.data())
def test_accumulate(rank, sign, with_c2, data):
    out = data.draw(entries(rank))
    comps = data.draw(entries(rank))
    c = data.draw(scalars)
    c2 = data.draw(scalars) if with_c2 else None
    factor = c if c2 is None else c * c2
    want = [o + sign * factor * v for o, v in zip(out, comps)]
    got = list(out)
    _accumulate(got, c, comps, c2, sign)
    assert_same(got, want)
    # an entry that receives no term is the very object it was
    for o, v, r in zip(out, comps, got):
        if not (factor and v):
            assert r is o


@settings(max_examples=80, deadline=None)
@given(vector_fields, st.sampled_from(MONOMIALS), scalars,
       st.sampled_from(DENOMINATORS[1:]))
def test_directional_on_dicts_and_pairs(X, m, f, den):
    # f + m is polynomial or rational as f is, and (f + m) / den is a
    # pair unless den divides f + m
    for h in (f + m, (f + m) / den):
        assert_same([_directional(X.components, h)], [dense_apply_vf(X, h)])


OTHER = Patch(["u", "v"])
U = OTHER.coordinate(0)
E2 = TrivialBundle(PATCH, 2, "E")


@pytest.mark.parametrize("kernel", [
    lambda: _dot(PATCH, [X, Y], [ONE, U]),
    lambda: _accumulate([X, ZERO], X, [ONE, U]),
    lambda: apply_matrix([[X, ONE]], [Y, U], PATCH),
    lambda: _apply_transpose([[X], [ONE]], [Y, U], PATCH),
    lambda: apply_vf(Section(tangent(OTHER), [U, ONE]), X * Y),
    lambda: _accumulate([X, ZERO], X, [ONE, Y], U),
    lambda: _leibniz(E2, [{1: (ONE, X)}, {}], [X, ZERO], [ZERO, U],
                     TM.zero_section()),
    lambda: Section(E2, [X, ONE]) - Section(E2, [Y, U]),
    lambda: _directional([ONE, U], X * Y),
    lambda: _directional([ONE, U], X / (Y + 1)),
], ids=["_dot", "_accumulate", "apply_matrix", "_apply_transpose",
        "apply_vf", "_accumulate-second-factor", "_leibniz-product",
        "Section.__sub__", "_directional-dict", "_directional-pair"])
def test_kernels_refuse_a_scalar_of_another_patch(kernel):
    with pytest.raises(ValueError, match="different patches"):
        kernel()
