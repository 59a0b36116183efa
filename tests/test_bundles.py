"""Bundles, frames, pairings, and the exact linear algebra toolkit."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from algebroids import bundles
from algebroids.scalars import Patch, ScalarField, parse_scalar
from algebroids.bundles import (
    Frame, FrameError, Section, Solver, Subbundle, TrivialBundle,
    annihilator, canonical_pairing, complement, degenerate_pairing,
    det, direct_sum, matrix_rank, membership, nullspace, random_section,
    rref,
)


@pytest.fixture
def patch():
    return Patch(["x", "y"])


def make_bundles(patch, ra=2):
    TM = TrivialBundle(patch, patch.dim, "TM")
    TsM = TrivialBundle(patch, patch.dim, "T*M")
    A = TrivialBundle(patch, ra, "A")
    As = TrivialBundle(patch, ra, "A*")
    return TM, TsM, A, As


# ---------------------------------------------------------------------------
# direct sums

def test_direct_sum_ranks(patch):
    TM, TsM, A, _ = make_bundles(patch)
    assert direct_sum(TM, TsM).rank == 4
    assert direct_sum(A, TsM).rank == 4
    zero = TrivialBundle(patch, 0, "0")
    assert direct_sum(TM, zero).rank == TM.rank


def test_direct_sum_patch_mismatch(patch):
    other = Patch(["u", "v"])
    with pytest.raises(ValueError):
        direct_sum(TrivialBundle(patch, 2, "TM"), TrivialBundle(other, 2, "TM"))


# ---------------------------------------------------------------------------
# pairings

def test_canonical_pairing_dual_basis(patch):
    TM, TsM, A, As = make_bundles(patch)
    TMAs = direct_sum(TM, As)
    ATsM = direct_sum(A, TsM)
    u = TMAs.section(["1", "0", "0", "0"])       # (d/dx, 0)
    t = ATsM.section(["0", "0", "1", "0"])       # (0, dx)
    assert canonical_pairing(u, t) == 1
    a_only = ATsM.section(["5", "x", "0", "0"])  # (a, 0)
    assert canonical_pairing(u, a_only).is_zero()


def test_canonical_pairing_mixed(patch):
    TM, TsM, A, As = make_bundles(patch)
    TMAs = direct_sum(TM, As)
    ATsM = direct_sum(A, TsM)
    u = TMAs.section(["0", "x", "1", "0"])   # (x d/dy, alpha = e1*)
    t = ATsM.section(["y", "0", "0", "1"])   # (a = y e1, theta = dy)
    assert canonical_pairing(u, t) == parse_scalar("x + y", patch)


def test_degenerate_pairing(patch):
    TM, TsM, A, As = make_bundles(patch)
    ATsM = direct_sum(A, TsM)
    rho_id = [[patch.one, patch.zero], [patch.zero, patch.one]]
    rho_zero = [[patch.zero] * 2 for _ in range(2)]
    t1 = ATsM.section(["1", "0", "0", "0"])
    t2 = ATsM.section(["0", "0", "1", "0"])
    assert degenerate_pairing(t1, t1, rho_id).is_zero()   # no form parts
    assert degenerate_pairing(t1, t2, rho_id) == 1
    assert degenerate_pairing(t2, t1, rho_id) == 1        # symmetric
    assert degenerate_pairing(t1, t2, rho_zero).is_zero()


def test_degenerate_pairing_symmetric_random(patch):
    TM, TsM, A, As = make_bundles(patch)
    ATsM = direct_sum(A, TsM)
    rng = random.Random("deg-pairing")
    rho = [[parse_scalar(s, patch) for s in row]
           for row in (["x", "y"], ["1", "x*y"])]
    for _ in range(5):
        t1 = random_section(ATsM, rng)
        t2 = random_section(ATsM, rng)
        assert degenerate_pairing(t1, t2, rho) == degenerate_pairing(t2, t1, rho)


# ---------------------------------------------------------------------------
# annihilators

def test_annihilator_block(patch):
    TM, TsM, A, As = make_bundles(patch)
    TMAs = direct_sum(TM, As)
    ATsM = direct_sum(A, TsM)
    U = Subbundle(TMAs, Frame(TMAs, [TMAs.basis_section(0),
                                     TMAs.basis_section(1)]))
    K = annihilator(U, twin=ATsM)
    assert K.rank == 2
    for k in K.frame:
        assert k.components[2].is_zero() and k.components[3].is_zero()


def test_annihilator_full_is_zero(patch):
    TM, TsM, A, As = make_bundles(patch)
    TMAs = direct_sum(TM, As)
    U = Subbundle(TMAs, TMAs.standard_frame())
    assert annihilator(U).rank == 0


def test_annihilator_graph_of_two_form(patch):
    # A = TM, sigma the index-lowering map of dx^dy; the annihilator of
    # U = graph(-sigma^t) is graph(sigma)
    TM, TsM, A, As = make_bundles(patch)
    TMAs = direct_sum(TM, As)
    ATsM = direct_sum(A, TsM)
    u1 = TMAs.section(["1", "0", "0", "1"])
    u2 = TMAs.section(["0", "1", "-1", "0"])
    U = Subbundle(TMAs, Frame(TMAs, [u1, u2]))
    K = annihilator(U, twin=ATsM)
    expected = [ATsM.section(["1", "0", "0", "1"]),
                ATsM.section(["0", "1", "-1", "0"])]
    for s in expected:
        ok, _ = membership(s, K)
        assert ok
    assert K.rank == 2


def test_annihilator_involution_and_rank(patch):
    TM, TsM, A, As = make_bundles(patch)
    TMAs = direct_sum(TM, As)
    ATsM = direct_sum(A, TsM)
    x = patch.coordinate(0)
    u1 = TMAs.section(["1", "x", "0", "0"])
    u2 = TMAs.section(["0", "0", "y", "1"])
    U = Subbundle(TMAs, Frame(TMAs, [u1, u2]))
    K = annihilator(U, twin=ATsM)
    assert U.rank + K.rank == 4
    for u in U.frame:
        for k in K.frame:
            assert canonical_pairing(u, k).is_zero()
    UU = annihilator(K, twin=TMAs, side="A+T*M")
    assert UU.rank == U.rank
    for s in U.frame:
        assert membership(s, UU)[0]
    for s in UU.frame:
        assert membership(s, U)[0]


# ---------------------------------------------------------------------------
# membership and complements

def test_membership_frame_element(patch):
    TM = TrivialBundle(patch, 2, "TM")
    U = Subbundle(TM, Frame(TM, [TM.basis_section(0)]))
    ok, coeffs = membership(TM.basis_section(0), U)
    assert ok and coeffs[0] == 1
    ok, coeffs = membership(TM.zero_section(), U)
    assert ok and coeffs[0].is_zero()


def test_membership_witness(patch):
    TM, TsM, A, As = make_bundles(patch)
    TMAs = direct_sum(TM, As)
    U = Subbundle(TMAs, Frame(TMAs, [TMAs.basis_section(0)]))
    s = TMAs.basis_section(1)
    ok, witness = membership(s, U)
    assert not ok
    # witness annihilates the frame but not s
    for u in U.frame:
        pair = sum((w * c for w, c in zip(witness, u.components)),
                   patch.zero)
        assert pair.is_zero()
    val = sum((w * c for w, c in zip(witness, s.components)), patch.zero)
    assert not val.is_zero()


def test_membership_function_coefficients(patch):
    TM = TrivialBundle(patch, 2, "TM")
    x = patch.coordinate(0)
    u = TM.section(["1", "x"])
    U = Subbundle(TM, Frame(TM, [u]))
    s = x * u
    ok, coeffs = membership(s, U)
    assert ok and coeffs[0] == x


def test_complement_greedy(patch):
    TM = TrivialBundle(patch, 2, "TM")
    U = Subbundle(TM, Frame(TM, [TM.basis_section(0)]))
    W = complement(U)
    assert [s.components for s in W] == [TM.basis_section(1).components]

    U0 = Subbundle(TM, Frame(TM, []))
    assert len(complement(U0)) == 2

    skew = Subbundle(TM, Frame(TM, [TM.section(["1", "x"])]))
    W = complement(skew)
    assert len(W) == 1
    assert W[0].components == TM.basis_section(0).components


def test_complement_full_rank(patch):
    TM, TsM, A, As = make_bundles(patch)
    TMAs = direct_sum(TM, As)
    U = Subbundle(TMAs, Frame(TMAs, [TMAs.section(["1", "0", "x", "y"]),
                                     TMAs.section(["0", "1", "0", "x"])]))
    W = complement(U)
    rows = [list(s.components) for s in U.frame] + [list(s.components) for s in W]
    assert matrix_rank(rows, patch) == 4


def greedy_extension(U, candidates):
    """Reference: append the candidates in order, keeping each one that
    raises the rank of the frame rows and the candidates kept so far."""
    rows = [list(s.components) for s in U.frame]
    kept = []
    for cand in candidates:
        trial = rows + [list(cand.components)]
        if matrix_rank(trial, U.patch) > len(rows):
            rows = trial
            kept.append(cand)
    return kept


@st.composite
def complement_cases(draw):
    n = draw(st.integers(0, 4))
    k = draw(st.integers(0, n))
    bundle = TrivialBundle(SOLVER_PATCH, n, "E")
    sections = [Section(bundle, [draw(entries) for _ in range(n)])
                for _ in range(k)]
    try:
        frame = Frame(bundle, sections)
    except FrameError:
        assume(False)
    return Subbundle(bundle, frame)


@settings(max_examples=100, deadline=None)
@given(complement_cases())
def test_complement_matches_greedy_loop(U):
    got = [s.components for s in complement(U)]
    want = greedy_extension(U, U.ambient.basis_sections())
    assert got == [s.components for s in want]
    assert len(got) == U.ambient.rank - U.rank


@st.composite
def extension_cases(draw):
    """A subbundle and candidates mixing zero sections, repeats, function
    multiples of the frame or of earlier candidates, and fresh sections."""
    U = draw(complement_cases())
    bundle = U.ambient
    pool = list(U.frame)
    candidates = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["zero", "repeat", "multiple", "fresh"]))
        if kind == "zero":
            cand = bundle.zero_section()
        elif kind != "fresh" and pool:
            cand = draw(st.sampled_from(pool))
            if kind == "multiple":
                cand = draw(entries) * cand
        else:
            cand = Section(bundle, [draw(entries) for _ in range(bundle.rank)])
        candidates.append(cand)
        pool.append(cand)
    return U, candidates


@settings(max_examples=100, deadline=None)
@given(extension_cases())
def test_independent_extension_matches_greedy_loop(case):
    U, candidates = case
    got = bundles._independent_extension(U, candidates)
    want = greedy_extension(U, candidates)
    assert [s.components for s in got] == [s.components for s in want]
    rows = [list(s.components) for s in list(U.frame) + candidates]
    assert len(got) == matrix_rank(rows, SOLVER_PATCH) - U.rank


def test_independent_extension_edge_cases(patch):
    TM = TrivialBundle(patch, 3, "TM")
    x = patch.coordinate(0)
    e0, e1, e2 = TM.basis_sections()
    u = TM.section(["1", "x", "0"])
    zero = TM.zero_section()
    empty = Subbundle(TM, Frame(TM, []))
    U = Subbundle(TM, Frame(TM, [u]))
    cases = [
        (empty, [], []),
        (U, [], []),
        (empty, [zero, zero], []),
        # zero, repeated and dependent candidates are never kept
        (empty, [zero, u, u, x * u, e0, e1, e2], [u, e0, e2]),
        (U, [zero, u, x * u, e1, e0, e1, e2], [e1, e2]),
    ]
    for sub, candidates, want in cases:
        got = bundles._independent_extension(sub, candidates)
        assert [s.components for s in got] == [s.components for s in want]
        assert got == greedy_extension(sub, candidates)
    # the kept sections are the candidate objects themselves
    assert bundles._independent_extension(U, [zero, e1])[0] is e1


def test_complement_eliminates_once(patch, monkeypatch):
    # both eliminations count: rref and the fraction-free one
    calls = []
    real_rref, real_bareiss = bundles.rref, bundles._bareiss

    def counting_rref(rows, patch, track=False):
        calls.append(len(rows))
        return real_rref(rows, patch, track)

    def counting_bareiss(rows):
        calls.append(len(rows))
        return real_bareiss(rows)

    TM = TrivialBundle(patch, 4, "TM")
    U = Subbundle(TM, Frame(TM, [TM.section(["0", "1", "x", "0"])]))
    monkeypatch.setattr(bundles, "rref", counting_rref)
    monkeypatch.setattr(bundles, "_bareiss", counting_bareiss)
    W = complement(U)
    # one elimination, plus the certificate of the returned frame
    assert calls == [4, 3]
    assert [s.components for s in W] == [TM.basis_section(i).components
                                         for i in (0, 1, 3)]


# ---------------------------------------------------------------------------
# frames and rank certificates

def test_frame_rejects_dependent_sections(patch):
    TM = TrivialBundle(patch, 2, "TM")
    x = patch.coordinate(0)
    u = TM.section(["1", "x"])
    with pytest.raises(FrameError):
        Frame(TM, [u, x * u])


def test_frame_certificate_minor(patch):
    TM = TrivialBundle(patch, 2, "TM")
    x = patch.coordinate(0)
    fr = Frame(TM, [TM.section(["x", "0"])])
    assert fr.rank_certificate == (0,)
    assert fr.certificate_minor() == x


# ---------------------------------------------------------------------------
# linear algebra toolkit

def test_rref_pivots_lowest_index(patch):
    rows = [[patch.zero, patch.one], [patch.one, patch.zero]]
    R, _, pivots = rref(rows, patch)
    assert pivots == [0, 1]
    assert R[0][0] == 1 and R[1][1] == 1


def test_nullspace_and_rank(patch):
    rng = random.Random("nullspace")
    from algebroids.scalars import random_scalar
    for _ in range(6):
        rows = [[random_scalar(patch, rng, 1) for _ in range(4)]
                for _ in range(3)]
        basis = nullspace(rows, patch)
        assert matrix_rank(rows, patch) + len(basis) == 4
        for v in basis:
            for row in rows:
                dot = sum((a * b for a, b in zip(row, v)), patch.zero)
                assert dot.is_zero()


def test_det_triangular_and_singular(patch):
    x = patch.coordinate(0)
    one, zero = patch.one, patch.zero
    assert det([[x, one], [zero, x]], patch) == x * x
    assert det([[one, one], [one, one]], patch).is_zero()
    # swap changes sign
    assert det([[zero, one], [one, zero]], patch) == -1


# ---------------------------------------------------------------------------
# both eliminations on Fraction entries, against the Fraction-only
# elimination rref replaced in zoo.parallel_frame_search

def fraction_rref(rows, ncols):
    """Reference: reduced row echelon form over Fraction; returns (rows,
    pivots)."""
    m = [list(r) for r in rows]
    pivots = []
    rix = 0
    for col in range(ncols):
        pick = None
        for i in range(rix, len(m)):
            if m[i][col] != 0:
                pick = i
                break
        if pick is None:
            continue
        m[rix], m[pick] = m[pick], m[rix]
        inv = Fraction(1, 1) / m[rix][col]
        m[rix] = [v * inv for v in m[rix]]
        for i in range(len(m)):
            if i != rix and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rix])]
        pivots.append(col)
        rix += 1
        if rix == len(m):
            break
    return m[:rix], pivots


def fraction_nullspace(rows, ncols):
    """Reference: basis of the right nullspace of a Fraction matrix."""
    red, pivots = fraction_rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


fractions = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(3, 4),
                             Fraction(-5, 2)]).map(Fraction)


@st.composite
def fraction_matrices(draw):
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(0, 5))
    rows = [[draw(fractions) for _ in range(ncols)] for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):
        # last row a multiple of the first: rank-deficient
        f = draw(fractions)
        rows[-1] = [f * v for v in rows[0]]
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(fraction_matrices())
def test_rref_and_nullspace_on_fractions_match_fraction_reference(case):
    rows, ncols = case
    patch = SOLVER_PATCH
    R, _, pivots = rref(rows, patch)
    red, want_pivots = fraction_rref(rows, ncols)
    assert pivots == want_pivots
    assert bundles._bareiss(rows)[0] == want_pivots
    assert R[:len(pivots)] == red
    assert all(type(v) is Fraction for row in R for v in row)
    assert not any(v for row in R[len(pivots):] for v in row)
    basis = nullspace(rows, patch, ncols)
    want = fraction_nullspace(rows, ncols)
    assert [[patch.scalar(v) for v in vec] for vec in basis] == \
        [[patch.scalar(v) for v in vec] for vec in want]


@settings(max_examples=100, deadline=None)
@given(fraction_matrices())
def test_constant_scalars_eliminate_like_fractions(case):
    rows, ncols = case
    patch = SOLVER_PATCH
    scalars = [[patch.scalar(v) for v in row] for row in rows]
    R, _, pivots = rref(scalars, patch)
    R_frac, _, frac_pivots = rref(rows, patch)
    assert pivots == frac_pivots
    assert R == [[patch.scalar(v) for v in row] for row in R_frac]
    basis = nullspace(scalars, patch, ncols)
    assert basis == [[patch.scalar(v) for v in vec]
                     for vec in nullspace(rows, patch, ncols)]
    for vec in basis:
        for row in scalars:
            assert not bundles._dot(patch, row, vec)


def test_solve_with_witness_consistency(patch):
    rng = random.Random("solve")
    from algebroids.scalars import random_scalar
    for _ in range(8):
        A = [[random_scalar(patch, rng, 1) for _ in range(2)]
             for _ in range(3)]
        rhs = [random_scalar(patch, rng, 1) for _ in range(3)]
        status, data = Solver(A, patch).solve(rhs)
        if status == "solution":
            for i, row in enumerate(A):
                val = sum((c * xj for c, xj in zip(row, data)), patch.zero)
                assert val == rhs[i]
        else:
            for j in range(2):
                val = sum((w * A[i][j] for i, w in enumerate(data)),
                          patch.zero)
                assert val.is_zero()
            val = sum((w * rhs[i] for i, w in enumerate(data)), patch.zero)
            assert not val.is_zero()


# ---------------------------------------------------------------------------
# Solver: one elimination per column matrix, same answers as the augmented
# elimination it replaced

def augmented_solve(cols, rhs, patch):
    """Reference: eliminate [A | rhs] afresh and read the answer off it."""
    n = len(cols)
    k = len(cols[0]) if n else 0
    aug = [list(row) + [rhs[i]] for i, row in enumerate(cols)]
    R, T, pivots = rref(aug, patch, track=True)
    if k in pivots:
        return "witness", T[pivots.index(k)]
    x = [patch.zero] * k
    for j, c in enumerate(pivots):
        x[c] = R[j][k]
    return "solution", x


def assert_same_as_augmented(cols, rhs, patch):
    status, data = Solver(cols, patch).solve(rhs)
    want_status, want = augmented_solve(cols, rhs, patch)
    assert status == want_status
    assert [str(v) for v in data] == [str(v) for v in want]
    return status


SOLVER_PATCH = Patch(["x", "y"])
ENTRIES = ["0", "0", "0", "1", "-2", "3/4", "x", "x*y - 1", "x^2 + y",
           "1/x", "(x + 1)/(y - 2)", "y/(x^2 + 1)"]
entries = st.sampled_from(ENTRIES).map(
    lambda e: parse_scalar(e, SOLVER_PATCH))


@st.composite
def solver_cases(draw):
    n = draw(st.integers(0, 4))
    k = draw(st.integers(0, 3)) if n else 0
    cols = [[draw(entries) for _ in range(k)] for _ in range(n)]
    if k >= 2 and draw(st.booleans()):
        # last column a multiple of the first: rank-deficient
        f = draw(entries)
        for row in cols:
            row[-1] = f * row[0]
    if draw(st.booleans()):
        # rhs in the column span: the solution branch with real values
        c = [draw(entries) for _ in range(k)]
        rhs = [sum((a * b for a, b in zip(row, c)), SOLVER_PATCH.zero)
               for row in cols]
    else:
        rhs = [draw(entries) for _ in range(n)]
    return cols, rhs


@settings(max_examples=150, deadline=None)
@given(solver_cases())
def test_solver_matches_augmented_elimination(case):
    cols, rhs = case
    assert_same_as_augmented(cols, rhs, SOLVER_PATCH)


def test_solver_edge_cases(patch):
    def p(text):
        return parse_scalar(text, patch)

    zero, one, x = patch.zero, patch.one, patch.coordinate(0)
    # no rows
    assert assert_same_as_augmented([], [], patch) == "solution"
    # no columns: any nonzero rhs is inconsistent
    assert assert_same_as_augmented([[], []], [zero, zero],
                                    patch) == "solution"
    assert assert_same_as_augmented([[], [], []], [zero, p("1/x"), x],
                                    patch) == "witness"
    # rank-deficient, rhs inside and outside the span
    cols = [[x, x * x], [one, x], [p("1/y"), p("x/y")]]
    assert assert_same_as_augmented(cols, [x, one, p("1/y")],
                                    patch) == "solution"
    assert assert_same_as_augmented(cols, [x, zero, p("1/y")],
                                    patch) == "witness"
    # full rank: every rhs has a solution
    assert assert_same_as_augmented([[x, one], [zero, p("y/(x+1)")]],
                                    [p("x^2"), p("1/y")],
                                    patch) == "solution"


def test_frame_eliminates_once(patch, monkeypatch):
    tracked = []
    real_rref = bundles.rref

    def counting_rref(rows, patch, track=False):
        if track:
            tracked.append(len(rows))
        return real_rref(rows, patch, track)

    monkeypatch.setattr(bundles, "rref", counting_rref)
    TM = TrivialBundle(patch, 3, "TM")
    sections = [TM.section(["1", "x", "0"]), TM.section(["0", "y", "1/x"])]
    U = Subbundle(TM, Frame(TM, sections))
    inside = TM.section(["x", "x*x + y", "1/x"])
    outside = TM.basis_section(2)
    assert membership(inside, U)[0]
    assert not membership(outside, U)[0]
    assert len(tracked) == 1
    # an equal frame is a new object and builds its own solver
    V = Subbundle(TM, Frame(TM, sections))
    assert membership(inside, V) == membership(inside, U)
    assert len(tracked) == 2


# ---------------------------------------------------------------------------
# the fraction-free elimination against the dividing eliminations it
# replaced for pivots, ranks and determinants

def dividing_pivots(rows):
    """Reference: the pivot columns of the Gauss-Jordan elimination that
    scales each pivot row by 1 / pivot (rref as Frame and matrix_rank used
    it before)."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [inv * v for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return pivots


def dividing_det(rows, patch):
    """Reference: the product of the pivots of a Gaussian elimination that
    divides by each pivot, with the swap signs (det as it was before)."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign, result = 1, patch.one
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return patch.zero
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        result = result * m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return result if sign == 1 else -result


POLY_ENTRIES = ["0", "0", "0", "1", "-1", "2", "x", "y", "x + 1", "x*y - 2",
                "x^2 - y"]
RATIONAL_ENTRIES = POLY_ENTRIES + ["(x^2 + 1)/y", "1/x", "x/2"]


@st.composite
def pivot_matrices(draw):
    """Matrices over Q(x, y), all polynomial or with genuinely rational
    entries, with pivots of +-1 and non-constant ones, zero rows and
    columns, and a row that depends on two others."""
    pool = draw(st.sampled_from([POLY_ENTRIES, RATIONAL_ENTRIES]))
    entry = st.sampled_from(pool).map(lambda e: parse_scalar(e, SOLVER_PATCH))
    nrows, ncols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    zero = SOLVER_PATCH.zero
    if nrows >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(nrows)))[:3]
        a, b = draw(entry), draw(entry)
        rows[k] = [a * u + b * v for u, v in zip(rows[i], rows[j])]
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [zero] * ncols
    if ncols and draw(st.booleans()):
        c = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[c] = zero
    return rows


def corner_squares(rows):
    """The largest leading and trailing square submatrices."""
    n = min(len(rows), len(rows[0]) if rows else 0)
    lead = [r[:n] for r in rows[:n]]
    trail = [r[len(r) - n:] for r in rows[len(rows) - n:]]
    return lead, trail


@settings(max_examples=200, deadline=None)
@given(pivot_matrices())
def test_fraction_free_elimination_matches_dividing_one(rows):
    patch = SOLVER_PATCH
    pivots = dividing_pivots(rows)
    assert bundles._bareiss(rows)[0] == pivots
    assert matrix_rank(rows, patch) == len(pivots)
    for square in corner_squares(rows):
        assert det(square, patch) == dividing_det(square, patch)
    if not rows:
        return
    E = TrivialBundle(patch, len(rows[0]), "E")
    sections = [Section(E, r) for r in rows]
    if len(pivots) == len(rows):
        assert Frame(E, sections).rank_certificate == tuple(pivots)
    else:
        with pytest.raises(FrameError):
            Frame(E, sections)
    # the longest independent prefix frames U, the rest are candidates
    k = max(j for j in range(len(rows) + 1)
            if len(dividing_pivots(rows[:j])) == j)
    U = Subbundle(E, Frame(E, sections[:k]))
    cols = sections
    matrix = [[s.components[i] for s in cols] for i in range(E.rank)]
    want = [cols[c] for c in dividing_pivots(matrix) if c >= k]
    assert bundles._independent_extension(U, sections[k:]) == want


def test_fraction_free_pivots_and_determinants_stay_in_z_x(monkeypatch):
    patch = Patch(["x", "y"])
    p = lambda e: parse_scalar(e, patch)
    # non-constant pivots, so every step after the first divides exactly by
    # a non-constant previous pivot
    m = [[p("x"), p("y"), p("1")],
         [p("y"), p("x + 1"), p("x*y")],
         [p("1"), p("x^2"), p("y - 2")]]
    # a swap at the first and at the second step
    zero_first = [[p("0"), p("x"), p("1")], [p("0"), p("y"), p("x")],
                  [p("x + 1"), p("1"), p("y")]]
    # a row that only the second elimination step makes zero
    dependent = [m[0], m[1], [a + b for a, b in zip(m[0], m[1])]]
    TM = TrivialBundle(patch, 3, "TM")
    reps = []
    real_init = ScalarField.__init__

    def recording(self, patch, rep):
        reps.append(rep)
        real_init(self, patch, rep)

    monkeypatch.setattr(ScalarField, "__init__", recording)
    got = [det(m, patch), det([m[1], m[0], m[2]], patch),
           det(zero_first, patch), det(dependent, patch),
           matrix_rank(dependent, patch),
           Frame(TM, [Section(TM, r) for r in m]).rank_certificate,
           det([[p("1"), p("x")], [p("-1"), p("y")]], patch)]
    monkeypatch.undo()
    # integer polynomial entries never make a value with a denominator:
    # every value built is a dict, none a (numer, denom) pair
    assert reps and all(type(r) is dict for r in reps)
    want = [dividing_det(m, patch), -dividing_det(m, patch),
            dividing_det(zero_first, patch), patch.zero, 2, (0, 1, 2),
            p("x + y")]
    assert got == want
    assert all(type(v.rep) is dict for v in got[:4])


# values that are not polynomials over 1, so each matrix below has at least
# one genuinely rational entry
NON_POLYNOMIAL = ["(x^2 + 1)/y", "1/x", "y/(x^2 + 1)", "(x + 1)/(y - 2)"]


@st.composite
def rational_matrices(draw):
    """Matrices over Q(x, y) with a planted non-polynomial entry, and
    optionally a column that combines two others with rational
    coefficients, a row that combines two others and a zero row."""
    parse = lambda e: parse_scalar(e, SOLVER_PATCH)
    entry = st.sampled_from(RATIONAL_ENTRIES + NON_POLYNOMIAL).map(parse)
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    rows[draw(st.integers(0, nrows - 1))][draw(st.integers(0, ncols - 1))] \
        = parse(draw(st.sampled_from(NON_POLYNOMIAL)))
    if ncols >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(ncols)))[:3]
        a, b = draw(entry), draw(entry)
        for row in rows:
            row[k] = a * row[i] + b * row[j]
    if nrows >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(nrows)))[:3]
        a, b = draw(entry), draw(entry)
        rows[k] = [a * u + b * v for u, v in zip(rows[i], rows[j])]
    if nrows >= 2 and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [SOLVER_PATCH.zero] * ncols
    return rows


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_nullspace_on_rational_entries(rows):
    patch = SOLVER_PATCH
    ncols = len(rows[0])
    basis = nullspace(rows, patch)
    # rank + nullity = columns, the rank from the fraction-free elimination
    assert matrix_rank(rows, patch) + len(basis) == ncols
    for v in basis:
        assert len(v) == ncols
        for row in rows:
            assert sum((a * b for a, b in zip(row, v)), patch.zero).is_zero()
    # the basis vectors are independent
    assert matrix_rank(basis, patch) == len(basis)


# ---------------------------------------------------------------------------
# the one pivot loop against the two loops it replaced, kept here verbatim
# as oracles: rref's dividing loop with its own bookkeeping of T, and the
# fraction-free loop that took every step through the scalar operators

def two_loop_rref(rows, patch, track=False):
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    T = None
    if track:
        T = [[patch.one if i == j else patch.zero for j in range(nrows)]
             for i in range(nrows)]
    pivots = []
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
            if track:
                T[r], T[piv] = T[piv], T[r]
        inv = 1 / m[r][c]
        m[r] = [inv * v for v in m[r]]
        if track:
            T[r] = [inv * v for v in T[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                if track:
                    T[i] = [a - f * b for a, b in zip(T[i], T[r])]
        pivots.append(c)
        r += 1
    return m, T, pivots


def two_loop_bareiss(rows):
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
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
        p, tail = m[r][c], m[r][c + 1:]
        for i in range(r + 1, nrows):
            f = m[i][c]
            m[i][c + 1:] = [(p * a - f * b) / prev
                            for a, b in zip(m[i][c + 1:], tail)]
        pivots.append(c)
        prev = p
        r += 1
    return pivots, sign, prev


@st.composite
def planted_matrices(draw):
    """Fraction, polynomial or genuinely rational matrices with planted 0
    and +-1 entries, so that pivots are units and non-units, rows meet a
    pivot column at 0, 1 or -1, and consecutive pivots are equal or not."""
    kind = draw(st.sampled_from(["fraction", "polynomial", "rational"]))
    if kind == "fraction":
        entry, unit = fractions, Fraction
    else:
        pool = POLY_ENTRIES if kind == "polynomial" else \
            RATIONAL_ENTRIES + NON_POLYNOMIAL
        entry = st.sampled_from(pool).map(
            lambda e: parse_scalar(e, SOLVER_PATCH))
        unit = SOLVER_PATCH.scalar
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    plant = st.sampled_from([None, 0, 1, -1]).map(
        lambda v: None if v is None else unit(v))
    for i in range(nrows):
        for j in range(ncols):
            v = draw(plant)
            if v is not None:
                rows[i][j] = v
    return rows


@settings(max_examples=300, deadline=None)
@given(planted_matrices())
def test_one_pivot_loop_matches_the_two_loops_it_replaced(rows):
    patch = SOLVER_PATCH
    pivots, sign, last = bundles._bareiss(rows)
    want = two_loop_bareiss(rows)
    assert (pivots, sign, last) == want
    assert type(last) is type(want[2])
    for track in (False, True):
        got, want = rref(rows, patch, track), two_loop_rref(rows, patch, track)
        assert got == want
        assert [[type(v) for v in row] for row in got[0]] == \
            [[type(v) for v in row] for row in want[0]]
