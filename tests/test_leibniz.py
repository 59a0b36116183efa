"""The Leibniz kernel behind every bracket expansion.

bracket_eval, CourantPresentation.bracket, dorfman_eval and the table of
extend_lie_bracket_to_dull all reach one kernel.  Each is compared here,
entry by entry, with the expansion it used to write out for itself; those
expansions are kept below as the reference.
"""

from hypothesis import given, settings, strategies as st

from algebroids.algebroid import (AnchoredBundle, DullAlgebroid, _leibniz,
                                  _nonzero_rows, bracket_eval, side_B, side_Q,
                                  tangent_algebroid)
from algebroids.bundles import (Frame, Section, Solver, Subbundle,
                                TrivialBundle, complement)
from algebroids.cartan import apply_vf, lie_bracket_vf, tangent
from algebroids.courant import CourantPresentation
from algebroids.dorfman import (DorfmanConnection, dorfman_eval,
                                extend_lie_bracket_to_dull)
from algebroids.scalars import Patch, _int_mul

PATCH = Patch(["x", "y"])
X, Y = PATCH.coordinate(0), PATCH.coordinate(1)
MONOMIALS = [PATCH.one, X, Y, X * Y, X * X]
DENOMINATORS = [PATCH.one, PATCH.scalar(2), X, Y + 1, X * X + 1]


# ---------------------------------------------------------------------------
# the expansions as each caller wrote them out before the kernel


def reference_bracket_eval(alg, q1, q2):
    bundle = alg.bundle
    out = bundle.zero_section()
    for i, f in enumerate(q1.components):
        if f.is_zero():
            continue
        for j, g in enumerate(q2.components):
            if g.is_zero():
                continue
            out = out + (f * g) * alg.bracket[i][j]
    X1 = alg.anchor_vf(q1)
    X2 = alg.anchor_vf(q2)
    for j, g in enumerate(q2.components):
        d = apply_vf(X1, g)
        if not d.is_zero():
            out = out + d * bundle.basis_section(j)
    for i, f in enumerate(q1.components):
        d = apply_vf(X2, f)
        if not d.is_zero():
            out = out - d * bundle.basis_section(i)
    return out


def reference_courant_bracket(C, c1, c2):
    bundle = C.bundle
    out = bundle.zero_section()
    for i, f in enumerate(c1.components):
        if f.is_zero():
            continue
        for j, g in enumerate(c2.components):
            if not g.is_zero():
                out = out + (f * g) * C.table[i][j]
    X1 = C.anchor_vf(c1)
    for j, g in enumerate(c2.components):
        d = apply_vf(X1, g)
        if not d.is_zero():
            out = out + d * bundle.basis_section(j)
    X2 = C.anchor_vf(c2)
    for i, f in enumerate(c1.components):
        d = apply_vf(X2, f)
        if not d.is_zero():
            out = out - d * bundle.basis_section(i)
    for i, f in enumerate(c1.components):
        weight = C.patch.zero
        for j, g in enumerate(c2.components):
            if not g.is_zero():
                weight = weight + g * C.gram[i][j]
        if weight.is_zero():
            continue
        out = out + weight * C.D_of(f)
    return out


def reference_dorfman_eval(D, q, b):
    dim, ra = D.dim, D.rank_A
    out = D.B.zero_section()
    for i, f in enumerate(q.components):
        if f.is_zero():
            continue
        for j, g in enumerate(b.components):
            if g.is_zero():
                continue
            out = out + (f * g) * D.table[i][j]
    X = D.anchor_vf(q)
    for j, g in enumerate(b.components):
        d = apply_vf(X, g)
        if not d.is_zero():
            out = out + d * D.B.basis_section(j)
    for i, f in enumerate(q.components):
        pair = b.components[ra + i] if i < dim else b.components[i - dim]
        if f.is_zero() or pair.is_zero():
            continue
        out = out + pair * D.d_B(f)
    return out


def reference_extension_table(U, U_alg):
    """The standard-frame table of extend_lie_bracket_to_dull, from the
    mixed-frame brackets by the Leibniz rules over the mixed frame."""
    patch, Q = U.patch, U.ambient
    dim, n, ru = patch.dim, Q.rank, U.rank
    TM = tangent(patch)

    def pr(s):
        return Section(TM, s.components[:dim])

    def lift_u(s):
        out = Q.zero_section()
        for l in range(ru):
            out = out + s.components[l] * U.frame[l]
        return out

    mixed = list(U.frame.sections) + list(complement(U).sections)
    g = [[lift_u(U_alg.bracket[p][q]) if p < ru and q < ru else
          Section(Q, list(lie_bracket_vf(pr(mixed[p]), pr(mixed[q]))
                          .components) + [patch.zero] * (n - dim))
          for q in range(n)] for p in range(n)]
    solver = Solver([[m.components[r] for m in mixed] for r in range(n)],
                    patch)
    coeffs = [solver.solve(Q.basis_section(i).components)[1]
              for i in range(n)]
    table = []
    for i in range(n):
        Xi = pr(Q.basis_section(i))
        row = []
        for j in range(n):
            Xj = pr(Q.basis_section(j))
            out = Q.zero_section()
            for p in range(n):
                fp = coeffs[i][p]
                if fp.is_zero():
                    continue
                for q in range(n):
                    gq = coeffs[j][q]
                    if not gq.is_zero():
                        out = out + (fp * gq) * g[p][q]
            for q in range(n):
                d = apply_vf(Xi, coeffs[j][q])
                if not d.is_zero():
                    out = out + d * mixed[q]
            for p in range(n):
                d = apply_vf(Xj, coeffs[i][p])
                if not d.is_zero():
                    out = out - d * mixed[p]
            row.append(out)
        table.append(row)
    return table


def assert_same_section(got, want):
    assert got.bundle == want.bundle
    for k, (a, b) in enumerate(zip(got.components, want.components)):
        assert a == b, "component %d: %s != %s" % (k, a, b)


# ---------------------------------------------------------------------------
# random frame data: rational entries on the (x, y) patch, rank <= 3


@st.composite
def rational(draw):
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(MONOMIALS),
                           max_size=len(MONOMIALS)))
    num = sum((c * m for c, m in zip(coeffs, MONOMIALS) if c), PATCH.zero)
    return num / draw(st.sampled_from(DENOMINATORS))


# zeros and ones are frequent, so the kernel's short-circuits are reached
scalars = st.one_of(st.just(PATCH.zero), st.just(PATCH.one), rational())


def entries(k):
    return st.lists(scalars, min_size=k, max_size=k)


@st.composite
def frame_data(draw, min_rank=1):
    """A bundle, a 2 x n and an n x 2 matrix, an n x n table of sections
    and two sections."""
    n = draw(st.integers(min_rank, 3))
    bundle = TrivialBundle(PATCH, n, "E")

    def section():
        return Section(bundle, draw(entries(n)))

    anchor = [draw(entries(n)) for _ in range(PATCH.dim)]
    dmat = [draw(entries(PATCH.dim)) for _ in range(n)]
    table = [[section() for _ in range(n)] for _ in range(n)]
    return bundle, anchor, dmat, table, section(), section()


@settings(max_examples=40, deadline=None)
@given(frame_data())
def test_bracket_eval_matches_expansion(data):
    bundle, anchor, _, table, q1, q2 = data
    alg = DullAlgebroid(AnchoredBundle(bundle, anchor), table)
    assert_same_section(bracket_eval(alg, q1, q2),
                        reference_bracket_eval(alg, q1, q2))


@settings(max_examples=40, deadline=None)
@given(frame_data(), st.data())
def test_courant_bracket_matches_expansion(data, more):
    bundle, anchor, dmat, table, c1, c2 = data
    n = bundle.rank
    upper = {(i, j): more.draw(scalars) for i in range(n) for j in range(i, n)}
    gram = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    C = CourantPresentation(bundle, anchor, gram, table, dmat,
                            degenerate=True)
    assert_same_section(C.bracket(c1, c2),
                        reference_courant_bracket(C, c1, c2))


@settings(max_examples=40, deadline=None)
@given(frame_data(min_rank=PATCH.dim))
def test_dorfman_eval_matches_expansion(data):
    bundle, _, _, table, q, b = data
    n = bundle.rank
    Q, B = TrivialBundle(PATCH, n, "Q"), TrivialBundle(PATCH, n, "B")
    D = DorfmanConnection(Q, B, [[Section(B, s.components) for s in row]
                                 for row in table])
    q, b = Section(Q, q.components), Section(B, b.components)
    assert_same_section(dorfman_eval(D, q, b),
                        reference_dorfman_eval(D, q, b))


def test_extension_table_over_tilted_frame_matches_expansion():
    # u2 = (d/dy, x dx) makes the standard frame rational over the mixed
    # frame, so both anchor terms and the U-bracket term contribute
    alg = tangent_algebroid(PATCH)
    Q, B = side_Q(alg), side_B(alg)
    U = Subbundle(Q, Frame(Q, [Q.section([1, 0, 0, "y"]),
                               Q.section([0, 1, "x", 0])]))
    Ub = TrivialBundle(PATCH, 2, "U")
    u0 = Ub.basis_section(0)
    U_alg = DullAlgebroid(
        AnchoredBundle(Ub, [[1, 0], [0, 1]]),
        [[Ub.zero_section(), Y * u0], [-Y * u0, Ub.zero_section()]])
    got = extend_lie_bracket_to_dull(U, U_alg, B).dull.bracket
    want = reference_extension_table(U, U_alg)
    assert any(not s.is_zero() for row in want for s in row)
    for i in range(Q.rank):
        for j in range(Q.rank):
            assert_same_section(got[i][j], want[i][j])


def test_leibniz_forms_a_product_only_for_a_nonzero_table_entry(monkeypatch):
    # polynomial f and g and zero anchors: the kernel's only products are
    # the f_i g_j, each one multiplication in Z[x] (scalars._int_mul)
    rank = 3
    bundle = TrivialBundle(PATCH, rank, "E")
    zero = bundle.zero_section()
    f = [X + 1, X * Y, Y]
    g = [Y + 2, X, X * X]
    still = tangent(PATCH).zero_section()
    calls = []
    monkeypatch.setattr("algebroids.scalars._int_mul",
                        lambda *args: calls.append(args) or _int_mul(*args))

    table = [[zero] * rank for _ in range(rank)]
    assert _leibniz(bundle, _nonzero_rows(table), f, g, still, still) == zero
    assert calls == []

    table[1][2] = bundle.basis_section(0)
    got = _leibniz(bundle, _nonzero_rows(table), f, g, still, still)
    assert len(calls) == 1
    assert got == Section(bundle, [X * Y * X * X, PATCH.zero, PATCH.zero])
