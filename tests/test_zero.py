"""Zero sections take one short path.

Every bracket and connection memoised through bundles._recall is linear
over R in each section argument, so a zero argument gives the zero
section of the result bundle.  _recall returns the bundle's shared zero
section (TrivialBundle.zero_section) as soon as an argument's key part
is all zero constants: compute is never called and neither memo tier is
touched.  The bundle checks stay ahead of that path, so a wrong argument
raises even when it is zero.  These tests pin, at every memoised entry
point of tests/test_memo.py and for every argument slot:

* the short path returns the value the full path computes, as a section
  of the same bundle, with no compute call and both tiers unchanged;
* a zero argument of the wrong bundle (for omega_map's A argument, the
  wrong length) still raises, and so does a wrong argument next to a
  zero one.

The other zero paths return the same values as their full paths:
Solver.solve on a zero right-hand side, GraphQuotient.is_zero on a zero
representative (with no membership test), AnchoredBundle.anchor_vf,
rho_rhot and DorfmanConnection.d_B of a constant.  TrivialBundle.wrap,
which the sites that copy components into another bundle call, gives
that bundle's shared zero for zero components, and each bundle keeps its
frame sections as it keeps its zero.
"""

import pytest

from algebroids import (algebroid, bialgebroid, bundles, courant, dorfman,
                        zoo)
from algebroids.algebroid import rho_rhot
from algebroids.bundles import (Section, Solver, TrivialBundle,
                                apply_matrix)
from algebroids.scalars import _dot, parse_scalar
from test_memo import ENTRIES, PATCH, X, Y, abar, quotient, triple, varied

# the modules that call _recall, each through its own imported name
SITES = (algebroid, bialgebroid, courant, dorfman, zoo)

SLOTS = [(name, slot) for name in sorted(ENTRIES) for slot in (0, 1)]
slots = pytest.mark.parametrize("name, slot", SLOTS,
                                ids=["%s-%d" % s for s in SLOTS])


def spy_on_recall(monkeypatch, computed):
    """_recall as it is, with each compute call recorded in computed."""
    real = bundles._recall

    def spy(owner, bundle, sections, compute, tag=()):
        def counted():
            computed.append(tag)
            return compute()
        return real(owner, bundle, sections, counted, tag)
    for module in SITES:
        monkeypatch.setattr(module, "_recall", spy)


def full_path(monkeypatch):
    """_recall replaced by a plain compute(): no memo and no short path."""
    for module in SITES:
        monkeypatch.setattr(
            module, "_recall",
            lambda owner, bundle, sections, compute, tag=(): compute())


def tiers(owner):
    """Both memo tiers as (key, id(value)) lists, in insertion order."""
    return [[(k, id(v)) for k, v in tier.items()]
            for tier in (owner._memo, owner._recent)]


def others(entry, s, slot):
    """The arguments beside a zero in slot: a non-constant section and a
    frame section of the other slot's bundle."""
    (p,), (q,) = varied(entry, s, 1)
    frame = entry.bundles(s)[1 - slot].basis_section(0)
    return [p, q][1 - slot], frame


@slots
@pytest.mark.parametrize("other", ["varied", "frame", "zero"])
def test_zero_argument_skips_compute_and_both_tiers(name, slot, other,
                                                    monkeypatch):
    entry = ENTRIES[name]
    s = entry.make(1)
    owner = entry.owner(s)
    bundle = entry.bundles(s)
    # warm both tiers, so that an untouched tier is not merely empty
    (p,), (q,) = varied(entry, s, 1)
    entry.call(s, p, q)
    entry.call(s, bundle[0].basis_section(0), bundle[1].basis_section(0))
    varied_other, frame_other = others(entry, s, slot)
    args = [None, None]
    args[slot] = bundle[slot].zero_section()
    args[1 - slot] = {"varied": varied_other, "frame": frame_other,
                      "zero": bundle[1 - slot].zero_section()}[other]
    before = tiers(owner)
    computed = []
    with monkeypatch.context() as m:
        spy_on_recall(m, computed)
        got = entry.call(s, *args)
    assert computed == []
    assert tiers(owner) == before
    assert got is got.bundle.zero_section()
    with monkeypatch.context() as m:
        full_path(m)
        want = entry.call(entry.make(1), *args)
    assert got.bundle == want.bundle
    assert got == want and str(got) == str(want)


@slots
def test_zero_built_anew_takes_the_same_path(name, slot, monkeypatch):
    # a zero section that is not the shared object is keyed as all zero
    # constants too
    entry = ENTRIES[name]
    s = entry.make(1)
    bundle = entry.bundles(s)
    other, _ = others(entry, s, slot)
    args = [other, other]
    args[slot] = Section(bundle[slot], [PATCH.zero] * bundle[slot].rank)
    computed = []
    with monkeypatch.context() as m:
        spy_on_recall(m, computed)
        got = entry.call(s, *args)
    assert computed == [] and got.is_zero()
    assert got is got.bundle.zero_section()


def wrong_zero(entry, slot, bundle):
    """A zero of the wrong bundle for slot: the same rank under another
    name, or one more component where only the length is checked."""
    rank = bundle.rank + 1 if slot in entry.loose else bundle.rank
    return TrivialBundle(PATCH, rank, "other").zero_section()


@slots
def test_zero_argument_of_the_wrong_bundle_still_raises(name, slot):
    entry = ENTRIES[name]
    s = entry.make(1)
    owner = entry.owner(s)
    bundle = entry.bundles(s)
    for other in others(entry, s, slot):
        args = [None, None]
        args[slot] = wrong_zero(entry, slot, bundle[slot])
        args[1 - slot] = other
        before = tiers(owner)
        with pytest.raises(ValueError):
            entry.call(s, *args)
        assert tiers(owner) == before


@slots
def test_wrong_argument_beside_a_zero_still_raises(name, slot):
    entry = ENTRIES[name]
    s = entry.make(1)
    bundle = entry.bundles(s)
    wrong = 1 - slot
    (p,), (q,) = varied(entry, s, 1)
    comps = list([p, q][wrong].components)
    if wrong in entry.loose:
        comps.append(PATCH.zero)
    args = [None, None]
    args[slot] = bundle[slot].zero_section()
    args[wrong] = Section(TrivialBundle(PATCH, len(comps), "other"), comps)
    with pytest.raises(ValueError):
        entry.call(s, *args)


def test_omega_map_checks_the_length_of_a_zero_a():
    T = triple(1)
    v = T.D.Q.basis_section(0)
    for rank in (T.alg.rank - 1, T.alg.rank + 1):
        short = TrivialBundle(PATCH, rank, "A").zero_section()
        with pytest.raises(ValueError):
            dorfman.omega_map(T.D, v, short)
    # the length is all omega_map checks of A: a zero of another bundle of
    # rank(A) is a zero A argument
    other = TrivialBundle(PATCH, T.alg.rank, "other").zero_section()
    assert dorfman.omega_map(T.D, v, other) is T.D.B.zero_section()


def test_zero_section_is_shared_per_bundle():
    E = TrivialBundle(PATCH, 3, "E")
    z = E.zero_section()
    assert z is E.zero_section() and z.is_zero()
    assert z.components == (PATCH.zero,) * 3
    # an equal bundle built separately has its own, equal zero
    F = TrivialBundle(PATCH, 3, "E")
    assert F.zero_section() is not z and F.zero_section() == z
    assert TrivialBundle(PATCH, 0, "point").zero_section().components == ()


# ---------------------------------------------------------------------------
# the other zero paths


def full_solve(solver, rhs):
    """Solver.solve without its zero short path, kept as the oracle."""
    patch, T = solver.patch, solver.T
    rank = len(solver.pivots)
    for i in range(rank, len(T)):
        y = _dot(patch, T[i], rhs)
        if not y.is_zero():
            inv = 1 / y
            return "witness", [inv * t for t in T[i]]
    x = [patch.zero] * solver.ncols
    for j, c in enumerate(solver.pivots):
        x[c] = _dot(patch, T[j], rhs)
    return "solution", x


def p(text):
    return parse_scalar(text, PATCH)


@pytest.mark.parametrize("columns", [
    [],
    [[], []],
    [[X, X * X], [PATCH.one, X], [p("1/y"), p("x/y")]],
    [[X, PATCH.one], [PATCH.zero, p("y/(x+1)")]],
    [[p("(x^2 + 1)/y"), PATCH.zero], [PATCH.zero, PATCH.zero],
     [PATCH.one, Y]],
], ids=["no-rows", "no-columns", "rank-deficient", "full-rank",
        "rational"])
def test_solver_answers_a_zero_rhs_as_the_full_path(columns):
    solver = Solver(columns, PATCH)
    zero = [PATCH.zero] * len(columns)
    status, x = solver.solve(zero)
    want_status, want = full_solve(solver, zero)
    assert status == want_status == "solution"
    assert x == want and len(x) == solver.ncols
    # a nonzero rhs still takes the full path
    if columns:
        rhs = [X] + zero[1:]
        got = solver.solve(rhs)
        assert (got[0], [str(v) for v in got[1]]) == \
            (full_solve(solver, rhs)[0],
             [str(v) for v in full_solve(solver, rhs)[1]])


@pytest.mark.parametrize("make", [quotient, abar],
                         ids=["QuotientCourant", "AbarAlgebroid"])
def test_quotient_zero_test_makes_no_membership_call(make, monkeypatch):
    C = make(1)
    calls = []
    real = bundles.membership

    def counting(s, U):
        calls.append(U)
        return real(s, U)
    monkeypatch.setattr(bundles, "membership", counting)
    anew = Section(C.bundle, [PATCH.zero] * C.bundle.rank)
    assert C.is_zero(C.bundle.zero_section()) and C.is_zero(anew)
    assert calls == []
    # a nonzero representative of the zero class still goes through the
    # graph: membership of its E-part in K
    g = C.graph_frame[0]
    assert not g.is_zero() and C.is_zero(g)
    assert calls
    calls.clear()
    assert not C.is_zero(C.frame_sections()[0]) and calls


def test_anchor_of_a_zero_section_is_the_shared_zero():
    alg = ENTRIES["bracket_eval"].make(1)
    anchored = alg.anchored
    zero = alg.bundle.zero_section()
    got = anchored.anchor_vf(zero)
    want = Section(anchored._TM,
                   apply_matrix(anchored.anchor, zero.components, PATCH))
    assert got == want and got is got.bundle.zero_section()
    assert anchored.anchor_vf(X * alg.bundle.basis_section(1)) == \
        Section(anchored._TM, [X * X, PATCH.zero])


def test_rho_rhot_of_a_zero_section_is_the_target_zero():
    T = triple(1)
    alg, B, Q = T.alg, T.D.B, T.D.Q
    zero = B.zero_section()
    got = rho_rhot(alg, zero, target=Q)
    assert got is Q.zero_section()
    # the full formula on the same zero
    ra = alg.rank
    anchor = alg.anchored.anchor
    X0 = apply_matrix(anchor, zero.components[:ra], PATCH)
    alpha = bundles._apply_transpose(anchor, zero.components[ra:], PATCH)
    assert got == Section(Q, X0 + alpha)
    # the default target is a fresh TM + A*, whose zero is equal
    assert rho_rhot(alg, zero) == Section(algebroid.side_Q(alg),
                                          X0 + alpha)
    # a short section or a target of the wrong rank still raises
    with pytest.raises(ValueError):
        rho_rhot(alg, TrivialBundle(PATCH, ra - 1, "short").zero_section())
    with pytest.raises(ValueError):
        rho_rhot(alg, zero, target=TrivialBundle(PATCH, Q.rank + 1, "big"))


def test_d_b_of_a_constant_is_the_shared_zero():
    D = triple(1).D
    for c in (PATCH.zero, PATCH.one, p("-3/4")):
        got = D.d_B(c)
        assert got is D.B.zero_section()
        assert got == Section(D.B, [PATCH.zero] * D.rank_A
                              + [c.diff(k) for k in range(PATCH.dim)])
    f = X * X * Y
    assert D.d_B(f) == Section(D.B, [PATCH.zero] * D.rank_A
                               + [2 * X * Y, X * X])



def test_wrap_returns_the_shared_zero_for_zero_components():
    E = TrivialBundle(PATCH, 3, "E")
    zeros = (PATCH.zero,) * 3
    assert E.wrap(zeros) is E.zero_section()
    assert E.wrap(list(zeros)) is E.zero_section()
    s = E.wrap([PATCH.zero, X, PATCH.zero])
    assert s == Section(E, [PATCH.zero, X, PATCH.zero]) and s.bundle is E
    # a wrong length raises, zero or not
    for comps in ([PATCH.zero] * 2, [PATCH.zero] * 4, [X]):
        with pytest.raises(ValueError):
            E.wrap(comps)
    assert TrivialBundle(PATCH, 0, "point").wrap(()).components == ()


def test_quotient_bracket_rewraps_zero_parts_as_shared_zeros(monkeypatch):
    # a U-only representative has a zero A + T*M part; its A-part reaches
    # nabla^bas as the shared zero of A, so the memo's short path takes it
    C = quotient(1)
    seen = []
    real = bialgebroid.nabla_bas_TMAs

    def spy(D, alg, a, v):
        seen.append((a, alg.bundle.zero_section()))
        return real(D, alg, a, v)
    monkeypatch.setattr(bialgebroid, "nabla_bas_TMAs", spy)
    u1, u2 = C.frame_sections()[:2]
    assert C.split(u1)[1].is_zero() and C.split(u2)[1].is_zero()
    C.bracket(u1, u2)
    assert len(seen) == 2 and all(a is zero for a, zero in seen)


def test_basis_sections_are_kept_per_bundle():
    E = TrivialBundle(PATCH, 3, "E")
    first = E.basis_sections()
    assert first == [Section(E, [PATCH.one if j == i else PATCH.zero
                                 for j in range(3)]) for i in range(3)]
    # a fresh list of the same kept sections on every call
    again = E.basis_sections()
    assert again is not first
    assert all(a is b for a, b in zip(first, again))
    first.pop()
    assert len(E.basis_sections()) == 3
    # the index reads the same sections, with list semantics
    assert [E.basis_section(i) for i in range(3)] == again
    assert all(E.basis_section(i) is again[i] for i in (0, 1, 2, -1))
    with pytest.raises(IndexError):
        E.basis_section(3)
    with pytest.raises(IndexError):
        TrivialBundle(PATCH, 3, "F").basis_section(3)
    assert TrivialBundle(PATCH, 0, "point").basis_sections() == []
