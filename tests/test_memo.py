"""The per-structure bracket and connection memos.

bracket_eval, dorfman_eval, CourantPresentation.bracket,
QuotientCourant.bracket, AbarAlgebroid.bracket, and omega_map,
nabla_bas_TMAs and basic_curvature on a Dorfman connection each look
their results up through bundles._recall, in two tiers on the structure
that owns them.  The
constant tier stores a result when every component of every argument is
constant, keyed by the component values.  These tests pin the three
properties that make that safe and bounded:

* a stored result is the value a fresh structure computes, and equal
  arguments built as different objects share one entry (the key is the
  value, never the object);
* an argument with a non-constant component is never stored there, so
  the number of entries after a suite does not depend on its random
  trials;
* each structure has its own memo, so two structures on the same bundle
  with different tables never see each other's results.

Every other result goes to the value tier, keyed by the values of all
components, which keeps the newest bundles._RECENT entries.  The last
tests pin, at every entry point, its bound, that a hit is the value a
fresh structure computes, that equal sections built separately share an
entry, that a wrong argument still raises when its values match a stored
entry, and that the key parts a section keeps are the ones _recall would
build afresh.
"""

import pytest

from algebroids import bundles, cli, instances
from algebroids.algebroid import (AnchoredBundle, DullAlgebroid,
                                  LinearConnection, bracket_eval,
                                  check_algebroid, side_B, side_Q)
from algebroids.bialgebroid import (LADiracTriple, build_courant_C,
                                    verify_appendix_lemmas)
from algebroids.bundles import (Frame, Section, Subbundle, TrivialBundle,
                                _constant_key)
from algebroids.cartan import tangent
from algebroids.courant import check_courant_axioms, degenerate_courant
from algebroids.dorfman import (DorfmanConnection, basic_curvature,
                                check_dorfman_axioms, dorfman_eval,
                                nabla_bas_TMAs, omega_map)
from algebroids.reporting import Check, CheckConfig
from algebroids.scalars import Patch, _value_key
from algebroids.zoo import AbarAlgebroid, IISData, check_abar

PATCH = Patch(["x", "y"])
X, Y = PATCH.coordinate(0), PATCH.coordinate(1)


def action_algebroid(c):
    """rho(e1) = d/dx, rho(e2) = x d/dx, [e1, e2] = c e1."""
    A = TrivialBundle(PATCH, 2, "A")
    anchor = [[PATCH.one, X], [PATCH.zero, PATCH.zero]]
    e1 = A.basis_section(0)
    table = [[A.zero_section(), c * e1], [-c * e1, A.zero_section()]]
    return DullAlgebroid(AnchoredBundle(A, anchor), table)


def dorfman(c):
    """A Dorfman connection of TM + A* on A + T*M over the action
    algebroid's bundles, with table entries c * x^i * b_j."""
    alg = action_algebroid(1)
    Q, B = side_Q(alg), side_B(alg)
    table = [[(c * X ** i) * B.basis_section((i + j) % B.rank)
              for j in range(B.rank)] for i in range(Q.rank)]
    return DorfmanConnection(Q, B, table)


POISSON = """\
[instance]
name = poisson-memo
kind = poisson

[patch]
coords = x, y

[pi]
0,1 = %s
"""


def quotient(c):
    """The quotient Courant algebroid of the Poisson triple of pi = c x y."""
    data = instances.ingest_text(POISSON % ("%d*x*y" % c))
    return build_courant_C(cli._triple_of(data), verify=False).C


def triple(c):
    """A triple on the action algebroid with the connection dorfman(c) and
    U = TM + 0; the appendix lemmas run on it (and fail, which does not
    matter here)."""
    alg, D = action_algebroid(1), dorfman(c)
    Q = D.Q
    U = Subbundle(Q, Frame(Q, Q.basis_sections()[:PATCH.dim]))
    return LADiracTriple(alg, U, D)


def abar(c):
    """The quotient of the action algebroid action_algebroid(c) by
    J = span(e2) along F_M = TM, with the flat connection."""
    alg = action_algebroid(c)
    tm = tangent(PATCH)
    F = Subbundle(tm, Frame(tm, tm.basis_sections()))
    J = Subbundle(alg.bundle, Frame(alg.bundle,
                                    [alg.bundle.basis_section(1)]))
    return AbarAlgebroid(IISData(alg, F, J,
                                 LinearConnection.flat(alg.bundle)))


def stored(s):
    return len(s._memo)


def recent(s):
    return len(s._recent)


def tagged(tag, tier="_memo"):
    """The number of entries of one kernel in a tier of a triple's
    connection, which dorfman_eval's entries share."""
    return lambda T: sum(1 for key in getattr(T.D, tier) if key[0] == tag)


class Entry:
    """One memoised entry point: a structure factory (c selects the
    table), the call, the bundles of its two arguments, a suite that
    exercises it, the number of entries it has stored in the constant
    and in the value tier, the structure that owns its memo, and the
    argument positions checked only by their length."""

    def __init__(self, make, call, bundles, suite, count=stored,
                 count_recent=recent, owner=lambda s: s, loose=()):
        self.make, self.call, self.bundles, self.suite = \
            make, call, bundles, suite
        self.count, self.count_recent = count, count_recent
        self.owner, self.loose = owner, loose


ENTRIES = {
    "bracket_eval": Entry(
        action_algebroid, bracket_eval,
        lambda a: (a.bundle, a.bundle),
        check_algebroid),
    "dorfman_eval": Entry(
        dorfman, dorfman_eval,
        lambda D: (D.Q, D.B),
        check_dorfman_axioms),
    "CourantPresentation.bracket": Entry(
        lambda c: degenerate_courant(action_algebroid(c)),
        lambda C, c1, c2: C.bracket(c1, c2),
        lambda C: (C.bundle, C.bundle),
        check_courant_axioms),
    "QuotientCourant.bracket": Entry(
        quotient,
        lambda C, c1, c2: C.bracket(c1, c2),
        lambda C: (C.bundle, C.bundle),
        check_courant_axioms),
    "AbarAlgebroid.bracket": Entry(
        abar,
        lambda A, c1, c2: A.bracket(c1, c2),
        lambda A: (A.bundle, A.bundle),
        check_abar),
    "omega_map": Entry(
        triple,
        lambda T, v, a: omega_map(T.D, v, a),
        lambda T: (T.D.Q, T.alg.bundle),
        verify_appendix_lemmas, tagged("omega"),
        tagged("omega", "_recent"), lambda T: T.D, loose=(1,)),
    "nabla_bas_TMAs": Entry(
        triple,
        lambda T, a, v: nabla_bas_TMAs(T.D, T.alg, a, v),
        lambda T: (T.alg.bundle, T.D.Q),
        verify_appendix_lemmas, tagged("bas"),
        tagged("bas", "_recent"), lambda T: T.D),
    # R^bas(a, e_1) v
    "basic_curvature": Entry(
        triple,
        lambda T, a, v: basic_curvature(T.D, T.alg, a,
                                        T.alg.bundle.basis_section(1), v),
        lambda T: (T.alg.bundle, T.D.Q),
        verify_appendix_lemmas, tagged("curv"),
        tagged("curv", "_recent"), lambda T: T.D),
}

params = pytest.mark.parametrize("name", sorted(ENTRIES))


def constant_pairs(entry, s):
    first, second = entry.bundles(s)
    e, b = first.basis_sections(), second.basis_sections()
    pairs = [(p, q) for p in e for q in b]
    half = PATCH.scalar("1/2")
    pairs.append((e[0] + (-2) * e[-1], half * b[0]))
    return pairs


def same(a, b):
    return a == b and str(a) == str(b)


@params
def test_repeated_call_equals_a_fresh_structure(name):
    entry = ENTRIES[name]
    s = entry.make(1)
    pairs = constant_pairs(entry, s)
    first = [entry.call(s, p, q) for p, q in pairs]
    assert entry.count(s) == len(pairs)
    again = [entry.call(s, p, q) for p, q in pairs]
    assert all(a is b for a, b in zip(first, again))
    assert entry.count(s) == len(pairs)
    fresh = entry.make(1)
    for (p, q), got in zip(pairs, again):
        assert same(got, entry.call(fresh, p, q))


@params
def test_equal_arguments_share_one_entry(name):
    # the key is the argument value: an equal section built anew hits
    entry = ENTRIES[name]
    s = entry.make(1)
    first, second = entry.bundles(s)
    p1, q1 = first.basis_section(0), second.basis_section(second.rank - 1)
    p2 = Section(first, list(p1.components))
    q2 = Section(second, list(q1.components))
    assert p1 is not p2 and q1 is not q2
    r1 = entry.call(s, p1, q1)
    r2 = entry.call(s, p2, q2)
    assert r1 is r2
    assert entry.count(s) == 1


@params
def test_non_constant_arguments_are_never_stored(name):
    entry = ENTRIES[name]
    s = entry.make(1)
    first, second = entry.bundles(s)
    p, q = first.basis_section(0), second.basis_section(0)
    xp = X * p
    xq = X * q
    for args in ((xp, q), (p, xq), (xp, xq)):
        got = entry.call(s, *args)
        assert same(got, entry.call(entry.make(1), *args))
    assert entry.count(s) == 0


@params
def test_wrong_bundle_still_raises(name):
    entry = ENTRIES[name]
    s = entry.make(1)
    first, second = entry.bundles(s)
    other = TrivialBundle(PATCH, first.rank + 1, "other")
    with pytest.raises(ValueError):
        entry.call(s, other.basis_section(0), second.basis_section(0))
    assert entry.count(s) == 0


@params
def test_entry_count_does_not_grow_with_trials(name, monkeypatch):
    # every loop runs to its end: a failing suite (the lemmas on triple())
    # otherwise stops each settled check at a tuple whose position in the
    # test set depends on the trials
    monkeypatch.setattr(Check, "settled", property(lambda self: False))
    entry = ENTRIES[name]
    counts = []
    for trials in (0, 3):
        s = entry.make(1)
        entry.suite(s, CheckConfig(seed=0, trials=trials))
        counts.append(entry.count(s))
    assert counts[0] > 0
    assert counts[0] == counts[1]


@params
def test_structures_keep_separate_results(name):
    entry = ENTRIES[name]
    s1, s2 = entry.make(1), entry.make(2)
    assert entry.bundles(s1) == entry.bundles(s2)
    pairs = constant_pairs(entry, s1)
    r1 = [str(entry.call(s1, p, q)) for p, q in pairs]
    r2 = [str(entry.call(s2, p, q)) for p, q in pairs]
    assert r1 != r2
    # each structure reads back its own results
    assert [str(entry.call(s1, p, q)) for p, q in pairs] == r1
    assert [str(entry.call(s2, p, q)) for p, q in pairs] == r2


def varied(entry, s, m):
    """m non-constant sections over each argument bundle, all distinct;
    i and j reach the results through products and derivatives alike."""
    first, second = entry.bundles(s)
    e, b = first.basis_sections(), second.basis_sections()
    return ([Y * (X + i) * e[0] + Y * e[-1] for i in range(m)],
            [X * (Y + j) * b[-1] + X * b[0] for j in range(m)])


@params
def test_value_tier_holds_a_fixed_number_of_entries(name):
    # more distinct non-constant arguments than the tier holds: it never
    # grows past the bound, ends full, and keeps this entry point's newest
    entry = ENTRIES[name]
    s = entry.make(1)
    owner = entry.owner(s)
    ps, qs = varied(entry, s, 9)
    for p in ps:
        for q in qs:
            entry.call(s, p, q)
            assert len(owner._recent) <= bundles._RECENT
    assert len(owner._recent) == bundles._RECENT
    assert entry.count_recent(s) > 0
    assert entry.count(s) == 0


@params
def test_value_tier_hits_equal_a_fresh_structure(name, monkeypatch):
    # every pair of non-constant arguments twice; pairs share one section
    # with others, so a key that missed a section would return another
    # pair's result
    entry = ENTRIES[name]
    s = entry.make(1)
    owner = entry.owner(s)
    ps, qs = varied(entry, s, 3)
    pairs = [(p, q) for p in ps for q in qs]
    got, hits = [], 0
    for p, q in pairs + pairs[::-1]:
        held = list(owner._recent.values())
        out = entry.call(s, p, q)
        hits += any(out is r for r in held)
        got.append(out)
    assert hits > 0
    # a fresh structure with no value tier recomputes every result
    monkeypatch.setattr(bundles, "_RECENT", 0)
    fresh = entry.make(1)
    for (p, q), out in zip(pairs + pairs[::-1], got):
        assert same(out, entry.call(fresh, p, q))


@params
def test_equal_non_constant_sections_share_one_entry(name):
    entry = ENTRIES[name]
    s = entry.make(1)
    (p1,), (q1,) = varied(entry, s, 1)
    p2 = Section(p1.bundle, list(p1.components))
    q2 = Section(q1.bundle, list(q1.components))
    r1 = entry.call(s, p1, q1)
    assert entry.count_recent(s) == 1
    assert entry.call(s, p2, q2) is r1
    assert entry.count_recent(s) == 1


@params
def test_wrong_argument_raises_when_its_values_match_an_entry(name):
    # the value key holds component values only: an argument of another
    # bundle (or, where only its length is checked, another length) with
    # the values of a stored one must still be refused
    entry = ENTRIES[name]
    s = entry.make(1)
    (p,), (q,) = varied(entry, s, 1)
    entry.call(s, p, q)
    for i, arg in enumerate((p, q)):
        comps = list(arg.components)
        if i in entry.loose:
            comps.append(PATCH.zero)
        wrong = Section(TrivialBundle(PATCH, len(comps), "other"), comps)
        args = [p, q]
        args[i] = wrong
        with pytest.raises(ValueError):
            entry.call(s, *args)
    assert entry.count_recent(s) == 1


@params
def test_sections_keep_the_key_parts_recall_builds(name):
    entry = ENTRIES[name]
    s = entry.make(1)
    ps, qs = varied(entry, s, 1)
    first, second = entry.bundles(s)
    for p, q in ((ps[0], qs[0]), (first.basis_section(0), qs[0]),
                 (first.basis_section(0), second.basis_section(0))):
        entry.call(s, p, q)
        for arg in (p, q):
            constant = _constant_key(arg)
            assert arg._key == (
                (True, constant) if constant is not None
                else (False, _value_key(arg.components)))
