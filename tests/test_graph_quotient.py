"""The graph quotient (V + E) / graph(-phi|_K) and the adapted frame.

QuotientCourant (phi = (rho, rho^t)) and AbarAlgebroid (phi = rho) both
read their classes through bundles.GraphQuotient.  The two presentations
they had before it are kept below as references, written out in full over
their own complement and elimination, and every split, coordinate vector,
zero test and frame section is compared by its printed entries on random
representatives: free ones, graph elements (zero classes) and ones whose
E-part lies in K but whose V-part is free."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from algebroids import bundles, zoo
from algebroids.algebroid import (LinearConnection, rho_rhot,
                                  tangent_algebroid)
from algebroids.bialgebroid import QuotientCourant
from algebroids.bundles import (Frame, Section, Solver, Subbundle,
                                TrivialBundle, complement, membership,
                                random_combination, rref)
from algebroids.cartan import tangent
from algebroids.scalars import Patch, random_scalar

POOL = ["0", "0", "1", "-2", "1/2", "x", "y", "x*y - 1", "3*x^2", "y^2 + x"]


# ---------------------------------------------------------------------------
# the two presentations before the graph quotient, as references


class RefQuotientCourant:
    def __init__(self, triple):
        self.alg, self.U, self.K = triple.alg, triple.U, triple.K
        self.B = triple.D.B
        self.rU = self.U.rank
        self.W = complement(self.K)
        mixed = list(self.K.frame.sections) + list(self.W.sections)
        self._tau = Solver([[m.components[r] for m in mixed]
                            for r in range(self.B.rank)], triple.patch)

    def split(self, c):
        u = self.U.ambient.zero_section()
        for p in range(self.rU):
            u = u + c.components[p] * self.U.frame[p]
        return u, Section(self.B, c.components[self.rU:])

    def coordinates(self, c):
        status, data = self._tau.solve(c.components[self.rU:])
        assert status == "solution"
        k = self.B.zero_section()
        for m, s in enumerate(self.K.frame):
            k = k + data[m] * s
        image = rho_rhot(self.alg, k, target=self.U.ambient)
        inside, coeffs = membership(image, self.U)
        assert inside
        return [c.components[p] + coeffs[p] for p in range(self.rU)] \
            + list(data[self.K.rank:])

    def is_zero(self, c):
        u, tau = self.split(c)
        inside, _ = membership(tau, self.K)
        if not inside:
            return False
        return (u + rho_rhot(self.alg, tau, target=self.U.ambient)).is_zero()

    def frame_sections(self, bundle):
        patch = bundle.patch
        out = [[patch.one if q == p else patch.zero for q in range(self.rU)]
               + [patch.zero] * self.B.rank for p in range(self.rU)]
        out += [[patch.zero] * self.rU + list(w.components) for w in self.W]
        return [Section(bundle, comps) for comps in out]


class RefAbar:
    def __init__(self, iis):
        self.iis = iis
        patch = iis.alg.patch
        self.rF, self.rA = iis.F_M.rank, iis.alg.rank
        self.W = complement(iis.J)
        basis = [list(s.components) for s in iis.J.frame]
        basis += [list(s.components) for s in self.W]
        bmat = [[basis[b][i] for b in range(self.rA)] for i in range(self.rA)]
        self._basis_inv = rref(bmat, patch, track=True)[1]

    def x_vf(self, c):
        patch = self.iis.alg.patch
        out = Section(tangent(patch), [patch.zero] * patch.dim)
        for p in range(self.rF):
            out = out + c.components[p] * self.iis.F_M.frame[p]
        return out

    def a_part(self, c):
        return Section(self.iis.alg.bundle, list(c.components[self.rF:]))

    def is_zero(self, c):
        a = self.a_part(c)
        inside, _ = membership(a, self.iis.J)
        if not inside:
            return False
        return (self.x_vf(c) + self.iis.alg.anchor_vf(a)).is_zero()

    def coordinates(self, c):
        patch = self.iis.alg.patch
        a = self.a_part(c)
        lam = bundles.apply_matrix(self._basis_inv, a.components, patch)
        jpart = Section(self.iis.alg.bundle, [patch.zero] * self.rA)
        for q in range(self.iis.J.rank):
            jpart = jpart + lam[q] * self.iis.J.frame[q]
        X = self.x_vf(c) + self.iis.alg.anchor_vf(jpart)
        inside, xc = membership(X, self.iis.F_M)
        assert inside
        return list(xc) + list(lam[self.iis.J.rank:])

    def frame_sections(self, bundle):
        patch = bundle.patch
        out = [[patch.one if q == p else patch.zero for q in range(self.rF)]
               + [patch.zero] * self.rA for p in range(self.rF)]
        out += [[patch.zero] * self.rF + list(w.components) for w in self.W]
        return [Section(bundle, comps) for comps in out]


# ---------------------------------------------------------------------------
# the four quotients


def _poisson_triple(entry):
    patch = Patch(["x", "y"])
    pi = zoo.bivector_matrix(patch, {(0, 1): entry})
    return zoo.poisson_triple(zoo.poisson_bialgebroid(patch, pi))


def _courant(entry):
    triple = _poisson_triple(entry)
    return QuotientCourant(triple), RefQuotientCourant(triple)


def _abar(preset):
    iis = zoo.zoo_preset(preset)["iis"]
    return zoo.AbarAlgebroid(iis), RefAbar(iis)


CASES = {
    "poisson-xy": lambda: _courant("x*y"),
    "poisson-rational": lambda: _courant("(x^2 + 1)/y"),
    "foliation-x": lambda: _abar("foliation-x"),
    "iis-curved-negative": lambda: _abar("iis-curved-negative"),
}
_BUILT = {}


def case(name):
    if name not in _BUILT:
        _BUILT[name] = CASES[name]()
    return _BUILT[name]


def _strs(values):
    return [str(v) for v in values]


@st.composite
def representatives(draw, name):
    Q, _ = case(name)
    patch = Q.patch

    def scalar():
        return patch.scalar(draw(st.sampled_from(POOL)))

    mode = draw(st.sampled_from(["free", "graph", "e_in_K"]))
    if mode == "free":
        return Section(Q.bundle, [scalar() for _ in range(Q.bundle.rank)])
    k = Q.K.frame.combination([scalar() for _ in Q.K.frame])
    if mode == "e_in_K":
        return Q.lift([scalar() for _ in range(Q.rV)], k)
    inside, coeffs = membership(Q.phi(k), Q.V)
    assert inside
    return Q.lift([-c for c in coeffs], k)


QUICK = settings(max_examples=20, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("name", sorted(CASES))
@QUICK
@given(data=st.data())
def test_graph_quotient_matches_the_old_presentations(name, data):
    Q, ref = case(name)
    c = data.draw(representatives(name))
    v, e = Q.split(c)
    if isinstance(ref, RefAbar):
        want_v, want_e = ref.x_vf(c), ref.a_part(c)
    else:
        want_v, want_e = ref.split(c)
    assert (_strs(v), _strs(e)) == (_strs(want_v), _strs(want_e))
    assert _strs(Q.coordinates(c)) == _strs(ref.coordinates(c))
    assert Q.is_zero(c) == ref.is_zero(c)
    assert [_strs(s) for s in Q.frame_sections()] == \
        [_strs(s) for s in ref.frame_sections(Q.bundle)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_graph_frame_vanishes_and_coordinates_invert_frames(name):
    Q, _ = case(name)
    assert len(Q.graph_frame) == Q.K.rank
    assert all(Q.is_zero(g) for g in Q.graph_frame)
    n = Q.true_rank
    for m, f in enumerate(Q.frame_sections()):
        assert _strs(Q.coordinates(f)) == ["1" if j == m else "0"
                                           for j in range(n)]


def test_random_combination_draws_in_frame_order():
    Q, _ = case("poisson-rational")
    got = random_combination(Q.K, random.Random(5), 2)
    rng = random.Random(5)
    want = Q.K.ambient.zero_section()
    for s in Q.K.frame:
        want = want + random_scalar(Q.patch, rng, 2) * s
    assert got == want


# ---------------------------------------------------------------------------
# the adapted frame


def test_adapted_frame_is_kept_and_frame_first():
    iis = zoo.zoo_preset("iis-curved-negative")["iis"]
    J = iis.J
    adapted = J.adapted_frame()
    assert J.adapted_frame() is adapted
    assert adapted.sections == J.frame.sections + complement(J).sections
    assert adapted.rank == J.ambient.rank
    assert adapted.rank_certificate == tuple(range(J.ambient.rank))


def test_one_elimination_per_subbundle(monkeypatch):
    # J tilted off the standard basis, so its adapted frame is recognisable
    patch = Patch(["x", "y"])
    alg = tangent_algebroid(patch)
    tm = tangent(patch)
    F = Subbundle(tm, tm.standard_frame())
    J = Subbundle(alg.bundle,
                  Frame(alg.bundle, [alg.bundle.section(["1", "1"])]))
    iis = zoo.IISData(alg, F, J, LinearConnection.flat(alg.bundle))
    # both eliminations count; the fraction-free one never tracks
    eliminated = []
    real_rref, real_bareiss = bundles.rref, bundles._bareiss

    def counting_rref(rows, patch, track=False):
        eliminated.append(([[str(v) for v in row] for row in rows], track))
        return real_rref(rows, patch, track)

    def counting_bareiss(rows):
        eliminated.append(([[str(v) for v in row] for row in rows], False))
        return real_bareiss(rows)

    monkeypatch.setattr(bundles, "rref", counting_rref)
    monkeypatch.setattr(bundles, "_bareiss", counting_bareiss)
    abars = [zoo.AbarAlgebroid(iis), zoo.AbarAlgebroid(iis)]
    assert len(zoo.parallel_frame_search(iis, degree=1)) == 1
    for abar in abars:
        abar.reduced()
    adapted = J.adapted_frame()
    n = J.ambient.rank
    # the greedy complement search over the columns of J's frame and e_i
    search = [[str(J.frame[0].components[i])]
              + ["1" if i == j else "0" for j in range(n)] for i in range(n)]
    columns = [[str(s.components[r]) for s in adapted] for r in range(n)]
    assert eliminated.count((search, False)) == 1
    assert eliminated.count((columns, True)) == 1


def test_frame_coefficients_refuse_sections_outside_the_span():
    patch = Patch(["x", "y"])
    tm = tangent(patch)
    frame = Frame(tm, [tm.section(["1", "x"])])
    inside = tm.section(["y", "x*y"]).components
    assert [str(v) for v in frame.coefficients(inside)] == ["y"]
    with pytest.raises(RuntimeError, match="outside the span"):
        frame.coefficients(tm.basis_section(0).components)


# ---------------------------------------------------------------------------
# the split, kept on each representative


def _counting_combinations(monkeypatch):
    calls = []
    real = Frame.combination

    def counting(self, coeffs):
        calls.append(self)
        return real(self, coeffs)

    monkeypatch.setattr(Frame, "combination", counting)
    return calls


@pytest.mark.parametrize("name", sorted(CASES))
def test_split_is_built_once_per_representative(name, monkeypatch):
    Q, _ = case(name)
    patch = Q.patch
    c = Section(Q.bundle, [patch.scalar(v) for v in
                           (POOL * 2)[3:3 + Q.bundle.rank]])
    want_v, want_e = Q.v_part(c), Q.e_part(c)
    calls = _counting_combinations(monkeypatch)
    parts = Q.split(c)
    assert Q.split(c) is parts and len(calls) == 1
    Q.is_zero(c)
    if isinstance(Q, zoo.AbarAlgebroid):
        # the anchor, the bracket and the Jacobiator parts read the kept
        # split; _bracket, since the bracket memo may already hold (c, c)
        Q.anchor_vf(c)
        Q._bracket(c, c)
        Q.jacobiator_correction(c, c, c)
    assert calls.count(Q.V.frame) == 1
    assert parts == (want_v, want_e)


def test_split_is_kept_per_quotient():
    # equal representative bundles over different V frames of one rank:
    # phi plays no part in a split, V does
    patch = Patch(["x", "y"])
    tm = tangent(patch)
    E = TrivialBundle(patch, 2, "E")
    K = Subbundle(E, Frame(E, [E.section(["1", "0"])]))
    quotients = []
    for v in (["1", "0"], ["1", "x"]):
        V = Subbundle(tm, Frame(tm, [tm.section(v)]))
        quotients.append(bundles.GraphQuotient(
            V, K, lambda k, V=V: k.components[0] * V.frame[0], "V+E"))
    Q1, Q2 = quotients
    assert Q1.bundle == Q2.bundle
    c = Section(Q1.bundle, [patch.scalar(t) for t in ("y", "1", "x")])
    v1, e1 = Q1.split(c)
    v2, e2 = Q2.split(c)
    assert [str(a) for a in v1] == ["y", "0"]
    assert [str(a) for a in v2] == ["y", "x*y"]
    assert e1 == e2 == E.section(["1", "x"])
    assert Q1.split(c) == (v1, e1) and Q2.split(c) == (v2, e2)
