"""The per-structure bracket memos.

bracket_eval, dorfman_eval, CourantPresentation.bracket and
QuotientCourant.bracket store a result when every component of both
arguments is constant, keyed by the component values, in a dict on the
structure that owns the bracket.  These tests pin the three properties
that make that safe and bounded:

* a stored result is the value a fresh structure computes, and equal
  arguments built as different objects share one entry (the key is the
  value, never the object);
* an argument with a non-constant component is never stored, so the
  number of entries after a suite does not depend on its random trials;
* each structure has its own memo, so two structures on the same bundle
  with different tables never see each other's results.
"""

import pytest

from algebroids import cli, instances
from algebroids.algebroid import (AnchoredBundle, DullAlgebroid, bracket_eval,
                                  check_algebroid, side_B, side_Q)
from algebroids.bialgebroid import build_courant_C
from algebroids.bundles import Section, TrivialBundle
from algebroids.courant import check_courant_axioms, degenerate_courant
from algebroids.dorfman import (DorfmanConnection, check_dorfman_axioms,
                                dorfman_eval)
from algebroids.reporting import CheckConfig
from algebroids.scalars import Patch

PATCH = Patch(["x", "y"])
X = PATCH.coordinate(0)


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


class Entry:
    """One memoised entry point: a structure factory (c selects the
    table), the call, the bundles of its two arguments and a suite that
    exercises it."""

    def __init__(self, make, call, bundles, suite):
        self.make, self.call, self.bundles, self.suite = \
            make, call, bundles, suite


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
    assert len(s._memo) == len(pairs)
    again = [entry.call(s, p, q) for p, q in pairs]
    assert all(a is b for a, b in zip(first, again))
    assert len(s._memo) == len(pairs)
    fresh = entry.make(1)
    for (p, q), got in zip(pairs, again):
        assert same(got, entry.call(fresh, p, q))


@params
def test_equal_arguments_share_one_entry(name):
    # the key is the argument value: an equal section built anew hits
    entry = ENTRIES[name]
    s = entry.make(1)
    first, second = entry.bundles(s)
    p1, q1 = first.basis_section(0), second.basis_section(first.rank - 1)
    p2 = Section(first, list(p1.components))
    q2 = Section(second, list(q1.components))
    assert p1 is not p2 and q1 is not q2
    r1 = entry.call(s, p1, q1)
    r2 = entry.call(s, p2, q2)
    assert r1 is r2
    assert len(s._memo) == 1


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
    assert len(s._memo) == 0


@params
def test_wrong_bundle_still_raises(name):
    entry = ENTRIES[name]
    s = entry.make(1)
    first, second = entry.bundles(s)
    other = TrivialBundle(PATCH, first.rank + 1, "other")
    with pytest.raises(ValueError):
        entry.call(s, other.basis_section(0), second.basis_section(0))
    assert len(s._memo) == 0


@params
def test_entry_count_does_not_grow_with_trials(name):
    entry = ENTRIES[name]
    counts = []
    for trials in (0, 3):
        s = entry.make(1)
        entry.suite(s, CheckConfig(seed=0, trials=trials))
        counts.append(len(s._memo))
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
