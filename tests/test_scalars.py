"""Scalar field kernel: parsing, canonical forms, calculus, evaluation.

The independent oracle here is direct Fraction arithmetic: expression ASTs
are generated first, rendered to strings for the parser, and evaluated
directly over Q at sample points.  Agreement at enough points certifies the
symbolic result.  The second oracle is sympy, which the package itself
never imports: the canonical FracElement of its fraction field for every
operation, its PolyElement arithmetic and gcd for the integer kernels, and
the printer as it was written on sympy's polynomials.
"""

import contextlib
import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import QQ, ZZ
from sympy.external.pythonmpq import PythonMPQ
from sympy.polys.fields import FracElement, FracField
from sympy.polys.rings import PolyElement, PolyRing

from algebroids import scalars
from algebroids.scalars import (
    Patch, PoleError, ScalarField, ScalarParseError,
    evaluate, parse_scalar, partial_derivative, random_scalar,
)
from algebroids.scalars import (
    _int_add, _int_diff, _int_gcd, _int_mul, _int_quo, _neg, _pair,
)


@pytest.fixture
def patch():
    return Patch(["x", "y"])


# ---------------------------------------------------------------------------
# parsing and canonical forms

def test_parse_zero(patch):
    assert parse_scalar("0", patch).is_zero()


def test_parse_cancellation(patch):
    assert parse_scalar("x^2*y - x^2*y", patch).is_zero()


def test_parse_gcd_reduction(patch):
    f = parse_scalar("(x+y)^2/(x+y)", patch)
    x, y = patch.coordinate(0), patch.coordinate(1)
    assert f == x + y


def test_parse_rational_literals(patch):
    assert parse_scalar("3/4", patch) == Fraction(3, 4)
    assert parse_scalar("-3/4", patch) == Fraction(-3, 4)


def test_minus_binds_whole_factor(patch):
    assert parse_scalar("-3^2", patch) == -9
    assert parse_scalar("(-3)^2", patch) == 9


def test_signed_exponent(patch):
    f = parse_scalar("x^-1", patch)
    assert (f * patch.coordinate(0)) == 1


def test_no_chained_exponent(patch):
    with pytest.raises(ScalarParseError):
        parse_scalar("x^2^3", patch)


def test_syntax_error_position(patch):
    with pytest.raises(ScalarParseError) as err:
        parse_scalar("x + * y", patch)
    assert err.value.pos == 4


def test_unknown_identifier(patch):
    with pytest.raises(ScalarParseError) as err:
        parse_scalar("x + z", patch)
    assert "z" in str(err.value)


def test_division_by_zero_polynomial(patch):
    with pytest.raises(ZeroDivisionError):
        parse_scalar("1/(x - x)", patch)
    with pytest.raises(ZeroDivisionError):
        parse_scalar("(x - x)^-1", patch)


def test_empty_input_is_syntax_error(patch):
    with pytest.raises(ScalarParseError):
        parse_scalar("", patch)


# ---------------------------------------------------------------------------
# calculus

def test_power_rule(patch):
    f = parse_scalar("x^2*y", patch)
    assert partial_derivative(f, 0) == parse_scalar("2*x*y", patch)


def test_quotient_rule(patch):
    f = parse_scalar("1/(1+x)", patch)
    assert partial_derivative(f, 0) == parse_scalar("-1/(1+x)^2", patch)


def test_independent_coordinate(patch):
    assert partial_derivative(parse_scalar("x", patch), 1).is_zero()


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_polynomial(patch):
    assert evaluate(parse_scalar("x^2*y", patch), [2, 3]) == 12


def test_evaluate_rational(patch):
    assert evaluate(parse_scalar("1/(1+x)", patch), [0, 0]) == 1


def test_evaluate_pole(patch):
    with pytest.raises(PoleError):
        evaluate(parse_scalar("1/x", patch), [0, 1])


def test_evaluate_fraction_point(patch):
    f = parse_scalar("x/y", patch)
    assert f.evaluate([Fraction(1, 2), Fraction(3, 4)]) == Fraction(2, 3)


# ---------------------------------------------------------------------------
# hypothesis: ring laws, calculus identities, printer round trip

coeffs = st.integers(min_value=-4, max_value=4)
monoms = st.tuples(st.integers(0, 3), st.integers(0, 3))
poly_dicts = st.dictionaries(monoms, coeffs, max_size=5)


def make_poly(patch, d):
    x, y = patch.coordinate(0), patch.coordinate(1)
    f = patch.zero
    for (a, b), c in d.items():
        f = f + c * x ** a * y ** b
    return f


@settings(max_examples=60, deadline=None)
@given(poly_dicts, poly_dicts, poly_dicts)
def test_ring_laws(d1, d2, d3):
    patch = Patch(["x", "y"])
    f, g, h = (make_poly(patch, d) for d in (d1, d2, d3))
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f


@settings(max_examples=60, deadline=None)
@given(poly_dicts, poly_dicts)
def test_leibniz(d1, d2):
    patch = Patch(["x", "y"])
    f, g = make_poly(patch, d1), make_poly(patch, d2)
    assert (f * g).diff(0) == f * g.diff(0) + g * f.diff(0)


@settings(max_examples=60, deadline=None)
@given(poly_dicts)
def test_mixed_partials(d):
    patch = Patch(["x", "y"])
    f = make_poly(patch, d)
    assert f.diff(0).diff(1) == f.diff(1).diff(0)


@settings(max_examples=60, deadline=None)
@given(poly_dicts)
def test_is_zero_iff_vanishing_on_grid(d):
    # per-variable degree is at most 3, so a 4x4 grid separates zero from
    # nonzero polynomials
    patch = Patch(["x", "y"])
    f = make_poly(patch, d)
    vanishes = all(f.evaluate([a, b]) == 0 for a in range(4) for b in range(4))
    assert f.is_zero() == vanishes


@settings(max_examples=60, deadline=None)
@given(poly_dicts, poly_dicts)
def test_print_parse_round_trip(d1, d2):
    patch = Patch(["x", "y"])
    f, g = make_poly(patch, d1), make_poly(patch, d2)
    assume(not g.is_zero())
    q = f / g
    assert parse_scalar(str(q), patch) == q


# ---------------------------------------------------------------------------
# hypothesis: parser agrees with direct AST evaluation over Q

atoms = st.one_of(
    st.tuples(st.just("num"), st.integers(-9, 9)),
    st.tuples(st.just("var"), st.sampled_from(["x", "y"])),
)

asts = st.recursive(
    atoms,
    lambda sub: st.one_of(
        st.tuples(st.just("+"), sub, sub),
        st.tuples(st.just("-"), sub, sub),
        st.tuples(st.just("*"), sub, sub),
        st.tuples(st.just("/"), sub, sub),
        st.tuples(st.just("neg"), sub),
        st.tuples(st.just("pow"), sub, st.integers(0, 3)),
    ),
    max_leaves=12,
)


def render(node):
    kind = node[0]
    if kind == "num":
        return str(node[1])
    if kind == "var":
        return node[1]
    if kind == "neg":
        return "-(%s)" % render(node[1])
    if kind == "pow":
        return "(%s)^%d" % (render(node[1]), node[2])
    return "(%s) %s (%s)" % (render(node[1]), kind, render(node[2]))


def eval_ast(node, env):
    kind = node[0]
    if kind == "num":
        return Fraction(node[1])
    if kind == "var":
        return env[node[1]]
    if kind == "neg":
        return -eval_ast(node[1], env)
    if kind == "pow":
        return eval_ast(node[1], env) ** node[2]
    a, b = eval_ast(node[1], env), eval_ast(node[2], env)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    return a / b


POINTS = [(Fraction(2), Fraction(3)), (Fraction(5), Fraction(7)),
          (Fraction(1, 2), Fraction(-1, 3)), (Fraction(-4), Fraction(9))]


@settings(max_examples=80, deadline=None)
@given(asts)
def test_parser_against_fraction_oracle(ast):
    patch = Patch(["x", "y"])
    try:
        f = parse_scalar(render(ast), patch)
    except ZeroDivisionError:
        assume(False)
    for px, py in POINTS:
        env = {"x": px, "y": py}
        try:
            expected = eval_ast(ast, env)
        except ZeroDivisionError:
            continue
        assert f.evaluate([px, py]) == expected


# ---------------------------------------------------------------------------
# hypothesis: every operation returns sympy's canonical form
#
# The oracle is FracField.new of sympy_field(patch), which always cancels.
# Operands are built from its results too (from_sympy), so they are
# canonical whatever ScalarField does; results are compared term for term
# on the stored numerator and denominator, which is what the cancel-free
# fast paths and the gcd must get exactly right, and a value must be held
# as a dict exactly when its denominator is 1.

@functools.lru_cache(maxsize=None)
def _field(coords):
    return FracField(list(coords), QQ, order="grlex")


def sympy_field(patch):
    """sympy's fraction field Q(coords) in grlex order: the canonical form
    of a ScalarField is the numerator and denominator of its elements."""
    return _field(patch.coords)


def _qq(v):
    v = Fraction(v)
    return QQ(v.numerator, v.denominator)


def terms(poly):
    """A sympy polynomial with integer coefficients as {exponent: int}."""
    assert all(c.denominator == 1 for c in poly.values())
    return {m: int(c.numerator) for m, c in poly.items()}


def packed(patch, poly):
    """The term dict of the patch's representations: a dict {exponent
    tuple: int} or a sympy polynomial with integer coefficients, keyed by
    the patch's monomial keys.  Every representation a test builds or
    compares goes through here."""
    return {patch._pack(m): c for m, c in terms(poly).items()}


def from_sympy(patch, fe):
    """The ScalarField of a canonical FracElement, built from its parts
    and not by ScalarField arithmetic."""
    if fe.denom == 1:
        return ScalarField(patch, packed(patch, fe.numer))
    return ScalarField(patch, _pair(packed(patch, fe.numer),
                                    packed(patch, fe.denom)))


def assert_same(got, want):
    """got is the canonical FracElement want, in its one representation."""
    assert (got.numer, got.denom) == (terms(want.numer), terms(want.denom))
    assert type(got.rep) is (dict if want.denom == 1 else tuple)
    assert all(type(c) is int and c
               for c in (*got.numer.values(), *got.denom.values()))
    if type(got.rep) is tuple:    # the pair keeps the key of its parts
        n, d, key = got.rep
        assert key == (frozenset(n.items()), frozenset(d.items()))


small_ints = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-4, 4))
fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
frac_dicts = st.dictionaries(monoms, fractions, max_size=4)

scalar_specs = st.one_of(
    st.tuples(st.just("const"), st.one_of(small_ints, fractions)),
    st.tuples(st.just("poly"), poly_dicts),    # integer coefficients
    st.tuples(st.just("poly"), frac_dicts),    # rational coefficients
    st.tuples(st.just("ratfn"), poly_dicts, poly_dicts),
)
operand_specs = st.one_of(
    scalar_specs,
    st.tuples(st.just("int"), small_ints),
    st.tuples(st.just("fraction"), fractions),
)


def build(patch, spec):
    """The operand for an operator, and its canonical FracElement."""
    field = sympy_field(patch)
    ring = field.ring
    kind = spec[0]
    if kind in ("int", "fraction"):
        return spec[1], field.new(ring.ground_new(_qq(spec[1])))
    if kind == "const":
        fe = field.new(ring.ground_new(_qq(spec[1])))
    elif kind == "poly":
        fe = field.new(ring.from_dict({m: _qq(c) for m, c in spec[1].items()}))
    else:
        num = ring.from_dict({m: _qq(c) for m, c in spec[1].items()})
        den = ring.from_dict({m: _qq(c) for m, c in spec[2].items()})
        fe = field.new(num, den or ring.gens[0] + 1)
    return from_sympy(patch, fe), fe


def assert_canonical(patch, got, num, den):
    field = sympy_field(patch)
    assert_same(got, field.new(field.ring(num), field.ring(den)))


@settings(max_examples=200, deadline=None)
@given(scalar_specs, operand_specs)
def test_arithmetic_matches_sympy_canonical_form(spec_f, spec_g):
    patch = Patch(["x", "y"])
    f, F = build(patch, spec_f)
    g, G = build(patch, spec_g)
    sum_num = F.numer * G.denom + G.numer * F.denom
    diff_num = F.numer * G.denom - G.numer * F.denom
    den = F.denom * G.denom
    assert_canonical(patch, f + g, sum_num, den)
    assert_canonical(patch, g + f, sum_num, den)
    assert_canonical(patch, f - g, diff_num, den)
    assert_canonical(patch, g - f, -diff_num, den)   # reflected for int/Fraction g
    assert_canonical(patch, f * g, F.numer * G.numer, den)
    assert_canonical(patch, g * f, F.numer * G.numer, den)
    if G:
        assert_canonical(patch, f / g, F.numer * G.denom, F.denom * G.numer)
    if F:
        assert_canonical(patch, g / f, G.numer * F.denom, G.denom * F.numer)
        assert_canonical(patch, f ** -1, F.denom, F.numer)
    for n in (2, 3):
        assert_canonical(patch, f ** n, F.numer ** n, F.denom ** n)
    assert_canonical(patch, -f, -F.numer, F.denom)


@settings(max_examples=100, deadline=None)
@given(scalar_specs)
def test_diff_matches_sympy_canonical_form(spec):
    patch = Patch(["x", "y"])
    assert_quotient_rule(patch, *build(patch, spec))


def assert_quotient_rule(patch, f, F):
    for i, x in enumerate(sympy_field(patch).ring.gens):
        assert_canonical(patch, f.diff(i),
                         F.numer.diff(x) * F.denom - F.numer * F.denom.diff(x),
                         F.denom ** 2)


# one patch for every example, so later examples hit the diff memo that
# earlier ones filled
SHARED_PATCH = Patch(["x", "y"])


@settings(max_examples=100, deadline=None)
@given(st.lists(scalar_specs, min_size=1, max_size=4))
def test_memoised_diff_matches_quotient_rule(specs):
    for spec in specs + specs:
        assert_quotient_rule(SHARED_PATCH, *build(SHARED_PATCH, spec))


def test_rational_diff_is_memoised_per_value(monkeypatch):
    patch = Patch(["x", "y"])
    calls = _count_calls(monkeypatch, "_quotient_rule")
    f = parse_scalar("(x^2 + 1)/y", patch)
    g = parse_scalar("(1 + x*x)/y", patch)
    assert f == g and f is not g and f.rep is not g.rep
    assert f.diff(0) == g.diff(0) == parse_scalar("2*x/y", patch)
    assert len(calls) == 1
    # d/dx and d/dy of the same value are kept apart
    assert g.diff(1) == parse_scalar("-(x^2 + 1)/y^2", patch)
    assert f.diff(1) == g.diff(1)
    assert len(calls) == 2
    # a constant denominator other than 1 is rational for the memo
    h = parse_scalar("x^2/2", patch)
    assert h.diff(0) == patch.coordinate(0) and h.diff(1) == 0
    assert type(h.diff(0).rep) is dict
    assert len(calls) == 4
    # another patch keeps its own memo
    other = Patch(["x", "y"])
    assert parse_scalar("(x^2 + 1)/y", other).diff(0) == f.diff(0)
    assert len(calls) == 5


def _count_calls(monkeypatch, name):
    """The argument tuples of the calls of scalars.<name> from now on; the
    module looks its helpers up at call time."""
    calls = []
    real = getattr(scalars, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(scalars, name, counting)
    return calls


# the helper that computes a memo miss of each operator
MISS = {"__mul__": "_product", "__add__": "_sum"}


@pytest.mark.parametrize("op, name", [
    (lambda f, g: f * g, "__mul__"), (lambda f, g: f + g, "__add__")])
def test_rational_sum_and_product_are_memoised_per_value(op, name,
                                                          monkeypatch):
    patch, other = Patch(["x", "y"]), Patch(["x", "y"])
    f, g = parse_scalar("(x^2 + 1)/y", patch), parse_scalar("x/(y + 1)", patch)
    f2, g2 = parse_scalar("(1 + x*x)/y", patch), parse_scalar("x/(1 + y)", patch)
    f3, g3 = parse_scalar("(x^2 + 1)/y", other), parse_scalar("x/(y + 1)", other)
    assert (f, g) == (f2, g2) and f.rep is not f2.rep and g.rep is not g2.rep
    calls = _count_calls(monkeypatch, MISS[name])
    first = op(f, g)
    assert len(calls) == 1
    assert op(f2, g2) == first and len(calls) == 1
    # another patch keeps its own memo
    assert op(f3, g3) == first and len(calls) == 2
    assert op(f, g) == first and len(calls) == 2


def test_memo_hit_runs_no_gcd(patch, monkeypatch):
    # the memo key of a polynomial is its frozen terms, so an equal
    # polynomial built apart hits; the product's miss runs the one gcd,
    # and a polynomial plus a pair needs none
    f = parse_scalar("(x^2 + 1)/y", patch)
    p, p2 = parse_scalar("x*y + 3", patch), parse_scalar("3 + y*x", patch)
    assert p.rep is not p2.rep
    gcds = _count_calls(monkeypatch, "_int_gcd")
    first = [f * p, p + f]
    assert len(gcds) == 1 and len(patch._ops) == 2
    assert [f * p2, p2 + f] == first and len(gcds) == 1
    assert len(patch._ops) == 2


@pytest.mark.parametrize("text", ["(x^2 + 1)/y", "1/2", "x/(y + 1)"])
def test_equal_pair_operands_subtract_to_zero_without_a_sum(
        text, patch, monkeypatch):
    # equal values built apart: the difference is 0 before any kernel
    # runs, and it is the canonical 0, equal to patch.zero
    f, f2 = parse_scalar(text, patch), parse_scalar(text, patch)
    assert f.rep is not f2.rep
    calls = _count_calls(monkeypatch, "_sum")
    calls += _count_calls(monkeypatch, "_int_gcd")
    for d in (f - f2, f2 - f, f - f):
        assert d.rep == {} and d == patch.zero and str(d) == "0"
    assert calls == []
    # unequal pairs still take the sum
    assert f - 2 * f2 == -f and len(calls) > 0


def test_polynomial_operands_never_reach_the_memo(patch, monkeypatch):
    calls = _count_calls(monkeypatch, "_product")
    calls += _count_calls(monkeypatch, "_sum")
    calls += _count_calls(monkeypatch, "_int_gcd")
    x, y = patch.coordinate(0), patch.coordinate(1)
    for f, g in [(x, y), (x * x + 1, y - 3), (patch.scalar(5), x)]:
        f * g, f + g
    assert calls == [] and patch._ops == {}


# one patch for every example, so later examples hit the product and sum
# memo that earlier ones filled
MEMO_PATCH = Patch(["x", "y"])


def _unkey(patch, key):
    """The FracElement of a memo key: the frozen terms of a polynomial, or
    the pair of frozen terms of a numerator and a denominator."""
    field = sympy_field(patch)
    num, den = (key, ()) if isinstance(key, frozenset) else key
    ring, unpack = field.ring, patch._unpack
    return field.new(ring.from_dict({unpack(m): QQ(c) for m, c in num}),
                     ring.from_dict({unpack(m): QQ(c) for m, c in den})
                     or field.ring.one)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(scalar_specs, scalar_specs), min_size=1,
                max_size=4))
def test_memoised_sums_and_products_match_sympy(pairs):
    for spec_f, spec_g in pairs + pairs:
        f, F = build(MEMO_PATCH, spec_f)
        g, G = build(MEMO_PATCH, spec_g)
        # FracElement's own operators cancel, so they are the oracle
        for got, want in ((f * g, F * G), (f + g, F + G), (g * f, G * F),
                          (g + f, G + F)):
            assert_same(got, want)
    for (op, a, b), got in MEMO_PATCH._ops.items():
        a, b = _unkey(MEMO_PATCH, a), _unkey(MEMO_PATCH, b)
        assert_same(ScalarField(MEMO_PATCH, got), a * b if op == "*" else a + b)


def test_polynomial_lemma_round_adds_nothing_to_the_memo():
    from algebroids import cli, instances, zoo
    from algebroids.bialgebroid import verify_appendix_lemmas
    from algebroids.reporting import CheckConfig
    triple = cli._triple_of(
        instances.instance_from_preset(zoo.zoo_preset("poisson-xy")))
    memo = triple.alg.patch._ops
    memo.clear()   # the set-up's own eliminations divide by x
    verify_appendix_lemmas(triple, CheckConfig(seed=0, trials=0))
    assert memo == {}


def test_constant_diff_is_the_shared_zero(patch, monkeypatch):
    monkeypatch.setattr(scalars, "_quotient_rule", None)   # never reached
    for value in (0, 3, Fraction(1, 2), Fraction(-7, 3)):
        c = patch.scalar(value)
        assert c.diff(0) is patch.zero and c.diff(1) is patch.zero
    assert parse_scalar("x - x", patch).diff(0) is patch.zero


@settings(max_examples=60, deadline=None)
@given(scalar_specs, st.sampled_from([1, -1]), st.booleans())
def test_unit_operands(spec, u, wrapped):
    patch = Patch(["x", "y"])
    f, F = build(patch, spec)
    unit = patch.scalar(u) if wrapped else u
    assert_canonical(patch, 1 / patch.scalar(u), u, 1)
    assert_canonical(patch, f / unit, F.numer * u, F.denom)
    assert_canonical(patch, f * unit, F.numer * u, F.denom)
    assert_canonical(patch, unit * f, F.numer * u, F.denom)
    assert_canonical(patch, f * 0, 0, 1)
    assert_canonical(patch, f + 0, F.numer, F.denom)
    assert_canonical(patch, 0 - f, -F.numer, F.denom)


def test_constant_denominator_is_not_one(patch):
    # x/2 is stored as x over 2; a fast path that tests for a constant
    # denominator instead of the denominator 1 gets these sums wrong
    x = patch.coordinate(0)
    half = x / 2
    assert (half.numer, half.denom) == (x.numer, {(0, 0): 2})
    assert type(half.rep) is not dict
    for total in (half + half, 2 * half, half * 2, (x + x) / 2):
        assert total == x
        assert (total.numer, total.denom) == (x.numer, x.denom)
        assert type(total.rep) is dict
    assert half - half == 0 and (half * half).denom == {(0, 0): 4}


def test_negative_power_is_canonical(patch):
    # sympy's own FracElement.__pow__ would leave 1 over -x here
    assert parse_scalar("(-x)^-1", patch) == parse_scalar("-1/x", patch)
    assert patch.scalar(-1) ** -1 == -1
    assert patch.scalar(Fraction(-2, 3)) ** -3 == Fraction(-27, 8)


# ---------------------------------------------------------------------------
# hypothesis: pairs with planted common factors against sympy, on 2 and 3
# coordinates
#
# Each operand is a*h / b*h for a planted factor h, so the division that
# builds it must cancel h, and the operations on it meet gcds that are not
# monomials.  The factors cover a negative leading coefficient and contents
# of 2, 3 and 2^70; the constants 1/2 and x/2 are operands too.

PLANTED = {
    2: ("(x^2 + 1)*(x - y)", "x*y", "-(x + y)", "x*(y - x)^2", "2", "3",
        "2^70", "2^70*(x*y - 3)", "1"),
    3: ("(x^2 + 1)*(x - y)", "(x*z + y)*(z - 1)", "-z^2 + x", "x*y*z",
        "3*(y - z)", "2^70", "1"),
}
PLANTED_PATCHES = {n: Patch(["x", "y", "z"][:n]) for n in PLANTED}
big_coeffs_or_small = st.one_of(st.integers(-4, 4), st.sampled_from(
    [2, -3, 6, 2 ** 70, -(2 ** 70) + 1])).filter(bool)


@st.composite
def planted_cases(draw):
    n = draw(st.sampled_from(sorted(PLANTED)))
    monom = st.tuples(*[st.integers(0, 2)] * n)
    polys = st.dictionaries(monom, big_coeffs_or_small, min_size=1,
                            max_size=3)
    factors = st.sampled_from(PLANTED[n])
    return n, [(draw(polys), draw(polys), draw(factors)) for _ in range(2)]


def planted_operand(patch, a, b, h):
    """(a*h) / (b*h) by ScalarField division, and its FracElement."""
    field = sympy_field(patch)
    ring = field.ring
    hp = ring.from_dict(parse_scalar(h, patch).numer)
    num, den = ring.from_dict(a) * hp, ring.from_dict(b) * hp
    got = ScalarField(patch, packed(patch, num)) / \
        ScalarField(patch, packed(patch, den))
    want = field.new(num, den)
    assert_same(got, want)
    return got, want


@settings(max_examples=120, deadline=None)
@given(planted_cases(), st.sampled_from(["pair", "1/2", "x/2", "-x/2"]))
def test_planted_fractions_match_sympy(case, other):
    n, specs = case
    patch = PLANTED_PATCHES[n]
    (f, F), (g, G) = (planted_operand(patch, *spec) for spec in specs)
    if other != "pair":
        g = parse_scalar(other, patch)
        x = sympy_field(patch).gens[0]
        G = {"1/2": x ** 0 / 2, "x/2": x / 2, "-x/2": -x / 2}[other]
        assert_same(g, G)
    for got, want in ((f + g, F + G), (f - g, F - G), (g - f, G - F),
                      (f * g, F * G), (f / g, F / G), (g / f, G / F)):
        assert_same(got, want)
    for k in range(-3, 4):
        assert_same(f ** k, F ** k if k >= 0 else 1 / F ** -k)
    assert_quotient_rule(patch, f, F)
    assert_quotient_rule(patch, g, G)


@settings(max_examples=150, deadline=None)
@given(planted_cases())
def test_int_gcd_matches_sympy(case):
    # the gcd divides both inputs, its cofactors are coprime, its leading
    # coefficient is positive, and it is sympy's ZZ gcd up to sign
    n, specs = case
    patch = PLANTED_PATCHES[n]
    ring = PolyRing(list(patch.coords), ZZ, order="grlex")
    (a, b, h), (c, _, _) = specs
    hp = ring.from_dict(parse_scalar(h, patch).numer)
    for p, q in [(ring.from_dict(a) * hp, ring.from_dict(b) * hp),
                 (ring.from_dict(a) * hp, ring.from_dict(c)),
                 (hp, hp), (hp, -hp * ring.from_dict(a))]:
        g = _int_gcd(packed(patch, p), packed(patch, q), patch)
        want = packed(patch, p.gcd(q))
        assert g in (want, _neg(want))
        assert _lead_coeff(patch._tuples(g)) > 0
        cp = _int_quo(packed(patch, p), g, patch)
        cq = _int_quo(packed(patch, q), g, patch)
        assert cp is not None and cq is not None
        assert ring.from_dict(patch._tuples(cp)).gcd(
            ring.from_dict(patch._tuples(cq))) in (1, -1)


# ---------------------------------------------------------------------------
# hypothesis: the printer against the sympy-based printer it replaced, and
# parse_scalar as its inverse

def sympy_str(fe, coords):
    """The scalar printer as it was written on sympy's FracElement: terms in
    PolyElement.terms() order, coefficients read from PythonMPQ."""
    def poly(p, scale=Fraction(1)):
        parts = []
        for monom, coeff in p.terms():
            c = Fraction(int(coeff.numerator), int(coeff.denominator)) * scale
            vars_part = "*".join(
                name if e == 1 else "%s^%d" % (name, e)
                for name, e in zip(coords, monom) if e)
            mag = abs(c)
            if vars_part:
                body = vars_part if mag == 1 else "%s*%s" % (mag, vars_part)
            else:
                body = str(mag)
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts) if parts else "0"

    if not fe:
        return "0"
    num, den = fe.numer, fe.denom
    if den.is_ground:
        lc = den.LC
        return poly(num, Fraction(int(lc.denominator), int(lc.numerator)))
    return "(%s)/(%s)" % (poly(num), poly(den))


cubic_monoms = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
printable_specs = st.one_of(
    scalar_specs.map(lambda spec: (2, spec)),
    st.tuples(st.just(3), st.tuples(
        st.just("ratfn"), st.dictionaries(cubic_monoms, coeffs, max_size=6),
        st.dictionaries(cubic_monoms, coeffs, max_size=3))),
    st.tuples(st.just(3), st.tuples(
        st.just("poly"), st.dictionaries(cubic_monoms, coeffs, max_size=8))),
)
PRINT_PATCHES = {2: Patch(["x", "y"]), 3: Patch(["x", "y", "z"])}


def printable(case):
    """The patch, ScalarField and canonical FracElement of a case."""
    n, spec = case
    patch = PRINT_PATCHES[n]
    if n == 2:
        return (patch,) + build(patch, spec)
    field = sympy_field(patch)
    ring = field.ring
    num = ring.from_dict({m: QQ(c) for m, c in spec[1].items()})
    den = ring.one
    if spec[0] == "ratfn":
        den = ring.from_dict({m: QQ(c) for m, c in spec[2].items()})
        den = den or ring.gens[2] - 1
    fe = field.new(num, den)
    return patch, from_sympy(patch, fe), fe


@settings(max_examples=200, deadline=None)
@given(printable_specs)
def test_printer_matches_the_sympy_printer(case):
    patch, f, fe = printable(case)
    assert str(f) == sympy_str(fe, patch.coords)


@settings(max_examples=200, deadline=None)
@given(printable_specs)
def test_parse_inverts_print(case):
    patch, f, _ = printable(case)
    back = parse_scalar(str(f), patch)
    assert back == f and type(back.rep) is type(f.rep)


# ---------------------------------------------------------------------------
# hypothesis: the integer-coefficient kernels against sympy's PolyElement
#
# The oracle is sympy's own polynomial arithmetic, which works on PythonMPQ
# coefficients.  Coefficients reach 2^70, past any machine word, and every
# case includes operands equal to 0 and sums that cancel completely.

BIG = 2 ** 70
big_coeffs = st.one_of(st.sampled_from([1, -1, BIG, -BIG]),
                       st.integers(-BIG, BIG)).filter(bool)


@st.composite
def int_poly_pairs(draw):
    n = draw(st.integers(1, 3))
    monom = st.tuples(*[st.integers(0, 3)] * n)
    terms = st.dictionaries(monom, big_coeffs, max_size=5)
    return n, draw(terms), draw(terms)


def assert_same_poly(patch, got, want):
    assert type(got) is dict and got == packed(patch, want)
    assert all(type(c) is int and c for c in got.values())
    field = sympy_field(patch)
    assert str(ScalarField(patch, got)) == sympy_str(field.new(want),
                                                     patch.coords)


@contextlib.contextmanager
def counting_sympy_ops():
    """The list of arithmetic calls of sympy's rational coefficients,
    polynomials and fractions made inside the with block."""
    calls = []
    names = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__neg__", "__pow__", "diff",
             "cofactors")
    with pytest.MonkeyPatch.context() as m:
        for cls in (PythonMPQ, PolyElement, FracElement):
            for name in names:
                if name in vars(cls):
                    def counting(*args, _name=name, _real=getattr(cls, name)):
                        calls.append(_name)
                        return _real(*args)
                    m.setattr(cls, name, counting)
        yield calls


@contextlib.contextmanager
def counting_calls(name):
    """The list of calls of scalars.<name> made inside the with block."""
    with pytest.MonkeyPatch.context() as m:
        yield _count_calls(m, name)


@settings(max_examples=150, deadline=None)
@given(int_poly_pairs())
def test_integer_kernels_match_sympy(case):
    n, d1, d2 = case
    patch = Patch(["x", "y", "z"][:n])
    ring = sympy_field(patch).ring
    p, q = (ring.from_dict({m: QQ(c) for m, c in d.items()}) for d in (d1, d2))
    for a, b in [(p, q), (q, p), (p, p), (p, -p), (p + q, -q),
                 (p, ring.zero), (ring.zero, q)]:
        ta, tb = packed(patch, a), packed(patch, b)
        assert_same_poly(patch, _int_add(ta, tb, 1), a + b)
        assert_same_poly(patch, _int_add(ta, tb, -1), a - b)
        assert_same_poly(patch, _int_mul(ta, tb, patch), a * b)
        assert (ta, tb) == (packed(patch, a), packed(patch, b))  # untouched
    for i, x in enumerate(ring.gens):
        assert_same_poly(patch, _int_diff(packed(patch, p), i, patch),
                         p.diff(x))
    assert_same_poly(patch, _neg(packed(patch, p)), -p)


@settings(max_examples=150, deadline=None)
@given(int_poly_pairs(), st.sampled_from([2, -2, 3, BIG]))
def test_exact_quotient_kernel_matches_sympy(case, c):
    n, d1, d2 = case
    patch = Patch(["x", "y", "z"][:n])
    field = sympy_field(patch)
    ring = field.ring
    p, q = (ring.from_dict({m: QQ(v) for m, v in d.items()}) for d in (d1, d2))
    const = ring(c)
    if q:
        assert _int_quo(packed(patch, p * q), packed(patch, q), patch) == \
            packed(patch, p)
    for a, b in [(p * q, q), (p * q, p), (p * const, const), (p, const),
                 (p, q), (q, p), (p * q + 1, q), (p * q, q * const)]:
        if not b:
            continue
        got = _int_quo(packed(patch, a), packed(patch, b), patch)
        want = field.new(a, b)
        if want.denom == 1:
            assert_same_poly(patch, got, want.numer)
        else:
            assert got is None
        f, g = (ScalarField(patch, packed(patch, t)) for t in (a, b))
        assert_same(f / g, want)
        assert (type(f.rep), type(g.rep)) == (dict, dict)   # untouched


@settings(max_examples=60, deadline=None)
@given(int_poly_pairs())
def test_exact_quotients_make_no_rational_coefficient_ops(case):
    n, d1, d2 = case
    assume(d2)
    patch = Patch(["x", "y", "z"][:n])
    f, g = (ScalarField(patch, packed(patch, d)) for d in (d1, d2))
    prod = f * g
    with counting_sympy_ops() as calls, counting_calls("_int_gcd") as gcds:
        back = prod / g
    assert calls == [] and back.rep == packed(patch, d1)
    assert gcds == []   # an exact quotient in Z[x] needs no gcd


@settings(max_examples=60, deadline=None)
@given(int_poly_pairs())
def test_polynomial_scalars_make_no_rational_coefficient_ops(case):
    n, d1, d2 = case
    patch = Patch(["x", "y", "z"][:n])
    ring = sympy_field(patch).ring
    p, q = (ring.from_dict({m: QQ(c) for m, c in d.items()}) for d in (d1, d2))
    f, g = (ScalarField(patch, packed(patch, d)) for d in (d1, d2))
    with counting_sympy_ops() as calls:
        results = [f + g, f - g, f * g, -f, f - f, f + (-f), f ** 3]
        results += [f.diff(i) for i in range(n)]
    assert calls == []
    wants = [p + q, p - q, p * q, -p, ring.zero, ring.zero, p ** 3]
    wants += [p.diff(x) for x in ring.gens]
    for got, want in zip(results, wants):
        assert got.denom == {(0,) * n: 1}
        assert_same_poly(patch, got.rep, want)


# ---------------------------------------------------------------------------
# monomial keys
#
# A term dict is keyed by one int per monomial: the total degree in the top
# field, then the exponents, each field b bits wide with its top bit clear
# (see the scalars module docstring).  The kernels rely on these properties
# on every dimension up to the 8 coordinates of an iis auxiliary patch, and
# on the bound failing fast.

KEY_PATCHES = {n: Patch(["x%d" % i for i in range(n)]) for n in range(1, 9)}


@st.composite
def exponents(draw, n, degree):
    """An exponent tuple of n entries and total degree `degree`."""
    cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=n - 1,
                                max_size=n - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))


@st.composite
def exponent_pairs(draw, total=True):
    """(patch, a, b) on 1 to 8 coordinates: a and b each of degree at most
    the bound, and their sum too when total is set."""
    patch = KEY_PATCHES[draw(st.integers(1, 8))]
    bound = patch._bound
    da = draw(st.integers(0, bound))
    db = draw(st.integers(0, bound - da if total else bound))
    return (patch, draw(exponents(patch.dim, da)),
            draw(exponents(patch.dim, db)))


@settings(max_examples=200, deadline=None)
@given(exponent_pairs())
def test_key_sum_is_the_monomial_product(case):
    patch, a, b = case
    assert patch._unpack(patch._pack(a)) == a
    assert patch._unpack(patch._pack(b)) == b
    ab = tuple(i + j for i, j in zip(a, b))
    assert patch._pack(a) + patch._pack(b) == patch._pack(ab)
    # x^a divides x^(a + b), and x^a divides x^b exactly when a <= b
    pa, pb, pab = (patch._pack(e) for e in (a, b, ab))
    assert _int_quo({pab: 3}, {pa: -1}, patch) == {pb: -3}
    want = None if any(i > j for i, j in zip(a, b)) else \
        {patch._pack(tuple(j - i for i, j in zip(a, b))): 1}
    assert _int_quo({pb: 2}, {pa: 2}, patch) == want


@settings(max_examples=200, deadline=None)
@given(exponent_pairs(total=False))
def test_key_order_is_grlex(case):
    patch, a, b = case
    ka, kb = patch._pack(a), patch._pack(b)
    assert (ka < kb) == ((sum(a), a) < (sum(b), b))
    assert (ka == kb) == (a == b)


@pytest.mark.parametrize("n", sorted(KEY_PATCHES))
def test_exponent_over_the_bound_fails_at_its_position(n):
    patch = KEY_PATCHES[n]
    bound = patch._bound
    assert bound >= 127
    x = patch.coordinate(0)
    assert parse_scalar("x0^%d" % bound, patch) == x ** bound
    for text in ("x0 + x0^%d" % (bound + 1), "1 / x0^-%d" % (bound + 1),
                 "2^%d" % (bound + 1)):
        with pytest.raises(ScalarParseError) as err:
            parse_scalar(text, patch)
        assert err.value.pos == text.rindex("^") + 1 + ("-" in text)
        assert "bound %d" % bound in str(err.value)


@pytest.mark.parametrize("n", sorted(KEY_PATCHES))
def test_product_over_the_bound_raises_before_it_is_formed(n, monkeypatch):
    patch = KEY_PATCHES[n]
    bound = patch._bound
    x, y = patch.coordinate(0), patch.coordinate(n - 1)
    f, g = x ** bound, y + 1
    assert len((x ** (bound - 1) * g).rep) == 2     # at the bound
    products = _count_calls(monkeypatch, "_int_mul")
    over = "degree %d is over the bound %d" % (bound + 1, bound)
    for power in (lambda: f * g, lambda: g * f, lambda: x ** (bound + 1),
                  lambda: (x / (y + 2)) ** (bound + 1),
                  lambda: random_scalar(patch, random.Random(0), bound + 1)):
        with pytest.raises(ArithmeticError, match=over):
            power()
    # the two products got as far as their degree test, the powers not
    assert len(products) == 2


def test_product_over_the_bound_is_an_error_result():
    from algebroids.reporting import Check
    patch = KEY_PATCHES[3]
    x = patch.coordinate(0)
    result = Check("c").run([("f", x ** 64)], lambda f: f * f)
    assert result.status == "error"
    assert result.note == ("ArithmeticError: degree 128 is over the bound "
                           "127 of Patch(x0, x1, x2)")


# ---------------------------------------------------------------------------
# division by a single term
#
# A divisor of one term divides every term of p on its own, so _int_quo
# takes it in one pass.  The oracles are sympy's canonical fraction and the
# leading-term division loop that _int_quo runs for longer divisors, kept
# here as it stood before the one-pass branch.


def loop_quo(p, q):
    """p / q by repeated division by the leading term of q, None when a
    leading monomial or coefficient does not divide; on exponent tuples."""
    def grlex(term):
        return sum(term[0]), term[0]

    lm, lc = max(q.items(), key=grlex)
    rest = [(m, c) for m, c in q.items() if m != lm]
    left, out = dict(p), {}
    while left:
        m, c = max(left.items(), key=grlex)
        e = tuple(a - b for a, b in zip(m, lm))
        if min(e) < 0 or c % lc:
            return None
        k = out[e] = c // lc
        del left[m]
        for m2, c2 in rest:
            m2 = tuple(a + b for a, b in zip(e, m2))
            s = left.get(m2, 0) - k * c2
            if s:
                left[m2] = s
            else:
                del left[m2]
    return out


@st.composite
def single_term_divisions(draw):
    """(n, p, m, c, plant): p with contents up to 2^70, the divisor c x^m,
    and what to plant in p * c x^m: nothing, a term whose monomial m does
    not divide, or a term whose coefficient c does not divide."""
    n = draw(st.integers(1, 3))
    monom = st.tuples(*[st.integers(0, 3)] * n)
    p = draw(st.dictionaries(monom, big_coeffs, max_size=5))
    m = draw(monom)
    c = draw(st.sampled_from([1, -1, 2, -2, 3, -6, BIG, -BIG]))
    plant = draw(st.sampled_from(["exact", "monomial", "coefficient"]))
    return n, p, m, c, plant


def assert_single_term_quotient(patch, a, q, want_exact):
    got = _int_quo(packed(patch, a), packed(patch, q), patch)
    loop = loop_quo(a, q)
    assert got == (None if loop is None else packed(patch, loop))
    field = sympy_field(patch)
    ring = field.ring
    fe = field.new(ring.from_dict({k: QQ(v) for k, v in a.items()}),
                   ring.from_dict({k: QQ(v) for k, v in q.items()}))
    if fe.denom == 1:
        assert_same_poly(patch, got, fe.numer)
    else:
        assert got is None
    assert (got is not None) == want_exact


@settings(max_examples=200, deadline=None)
@given(single_term_divisions())
def test_single_term_divisor_matches_sympy_and_the_division_loop(case):
    n, p, m, c, plant = case
    patch = Patch(["x", "y", "z"][:n])
    q = {m: c}
    a = patch._tuples(_int_mul(packed(patch, p), packed(patch, q), patch))
    if plant == "monomial":
        # one exponent below m's in a variable where m is positive
        assume(any(m))
        i = next(k for k, e in enumerate(m) if e)
        a = _int_add(a, {m[:i] + (m[i] - 1,) + m[i + 1:]: c}, 1)
    elif plant == "coefficient":
        # the term at x^m becomes c * k + 1, which c does not divide
        assume(abs(c) > 1)
        a = _int_add(a, {m: 1}, 1)
    assert_single_term_quotient(patch, a, q, plant == "exact")


@pytest.mark.parametrize("a, q, want", [
    ({(2, 1): 3}, {(1, 1): 1}, {(1, 0): 3}),
    ({(2, 1): -4, (1, 2): 6}, {(1, 0): -2}, {(1, 1): 2, (0, 2): -3}),
    ({(2, 0): 1}, {(0, 1): 1}, None),                  # y does not divide
    ({(1, 0): 3}, {(1, 0): 2}, None),                  # 2 does not divide 3
    ({(1, 0): 4, (0, 0): 3}, {(0, 0): 2}, None),       # nor the constant 3
    ({(1, 1): 5, (0, 0): -7}, {(0, 0): 1}, {(1, 1): 5, (0, 0): -7}),
    ({(1, 1): 5, (0, 0): -7}, {(0, 0): -1}, {(1, 1): -5, (0, 0): 7}),
    ({(1, 0): BIG}, {(0, 0): BIG}, {(1, 0): 1}),
    ({(3, 0): 2 * BIG, (1, 1): -BIG}, {(1, 0): -BIG},
     {(2, 0): -2, (0, 1): 1}),
    ({(1, 0): BIG + 1}, {(0, 0): BIG}, None),
], ids=["monomial", "negative-divisor", "monomial-fails",
        "coefficient-fails", "constant-fails", "one", "minus-one",
        "content-2^70", "negative-content-2^70", "content-2^70-fails"])
def test_planted_single_term_divisions(a, q, want):
    patch = Patch(["x", "y"])
    assert _int_quo(packed(patch, a), packed(patch, q), patch) == \
        (None if want is None else packed(patch, want))
    assert_single_term_quotient(patch, a, q, want is not None)


def test_polynomial_values_run_no_gcd():
    patch = Patch(["x", "y"])
    f = parse_scalar("x^2*y - 3*x + 2", patch)
    g = random_scalar(patch, random.Random(1), max_degree=3)
    with counting_calls("_int_gcd") as gcds:
        for h in (f + g, f - g, f * g, f ** 4, -f, f.diff(0), f / -1,
                  0 / f, f * 1, g - g):
            str(h), hash(h), h == f, h.is_constant(), h.evaluate([1, 2])
            assert type(h.rep) is dict
        assert gcds == []
        half = f / 2       # a genuinely rational value is a pair
    assert len(gcds) == 1
    assert half.rep == _pair(f.rep, packed(patch, {(0, 0): 2}))


# ---------------------------------------------------------------------------
# trial division before the remainder sequence
#
# p = q * r for a primitive q: the primitive part of q divides that of p,
# so _int_gcd must settle on it by trial division, with its sign set, and
# never start a subresultant sequence.  A factor shared by both inputs but
# equal to neither still goes through the sequence.


@st.composite
def planted_divisors(draw):
    """(n, q, r): q primitive with two to four terms on n = 2 or 3
    coordinates and a leading coefficient of either sign, r a cofactor with
    coefficients up to 2^70 in size."""
    n = draw(st.sampled_from([2, 3]))
    monom = st.tuples(*[st.integers(0, 2)] * n)
    q = draw(st.dictionaries(monom, st.integers(-6, 6).filter(bool),
                             min_size=2, max_size=4))
    unit = draw(st.sampled_from([1, -1])) * (1 if _lead_coeff(q) > 0 else -1)
    c = math.gcd(*q.values())
    q = {m: unit * v // c for m, v in q.items()}
    r = draw(st.dictionaries(monom, big_coeffs, min_size=1, max_size=3))
    return n, q, r


def _lead_coeff(p):
    return max(p.items(), key=lambda t: (sum(t[0]), t[0]))[1]


@settings(max_examples=150, deadline=None)
@given(planted_divisors(), st.sampled_from([1, -3, BIG]))
def test_planted_divisor_is_the_gcd_without_a_remainder_sequence(case, k):
    n, q, r = case
    patch = PLANTED_PATCHES[n]
    ring = PolyRing(list(patch.coords), ZZ, order="grlex")
    Q = ring.from_dict(q)
    P = Q * ring.from_dict(r)
    with counting_calls("_last_subresultant") as sequences:
        for a, b in [(P, Q), (Q, P), (P, Q * k), (Q * k, P)]:
            g = _int_gcd(packed(patch, a), packed(patch, b), patch)
            want = packed(patch, a.gcd(b))
            assert g in (want, _neg(want))
            assert _lead_coeff(patch._tuples(g)) > 0
    assert sequences == []


@pytest.mark.parametrize("n, h, a, b", [
    (2, "(x^2 + 1)*(x - y)", "x + y + 1", "x*y - 3"),
    (2, "-(x*y + 2)", "2^70*(x^2 - y)", "3*(y^2 + x)"),
    (3, "(x*z + y)*(z - 1)", "x - z^2", "-(y*z + 2^70)"),
])
def test_proper_common_factor_runs_the_remainder_sequence(n, h, a, b):
    patch = PLANTED_PATCHES[n]
    ring = PolyRing(list(patch.coords), ZZ, order="grlex")
    H, A, B = (ring.from_dict(parse_scalar(t, patch).numer)
               for t in (h, a, b))
    for p, q in [(H * A, H * B), (H * B, H * A)]:
        with counting_calls("_last_subresultant") as sequences:
            g = _int_gcd(packed(patch, p), packed(patch, q), patch)
        want = packed(patch, p.gcd(q))
        assert g in (want, _neg(want))
        assert _lead_coeff(patch._tuples(g)) > 0
        assert sequences


def test_remainder_sequence_passes_the_bound_of_values_in_a_wide_layout():
    # inputs of degree 16 and 10 on three coordinates, where values stop at
    # degree 127, whose pseudo-remainders reach degree 140: the content
    # split and the sequence run in 2b-bit fields, and the gcd packs back
    patch = PLANTED_PATCHES[3]
    ring = PolyRing(list(patch.coords), ZZ, order="grlex")
    H, A, B = (ring.from_dict(parse_scalar(t, patch).numer) for t in (
        "x + y*z + 2", "x^12*y + z^2 + 3",
        "(y^5*z^4 + y^2 + 1)*x^2 + x*z + y"))
    for p, q in [(H * A, H * B), (H * B, H * A)]:
        with counting_calls("_int_mul") as products:
            g = _int_gcd(packed(patch, p), packed(patch, q), patch)
        assert max((max(a) + max(b)) >> layout._top
                   for a, b, layout in products if a and b) > patch._bound
        want = packed(patch, p.gcd(q))
        assert g in (want, _neg(want))
        assert _lead_coeff(patch._tuples(g)) > 0


# ---------------------------------------------------------------------------
# misc

def test_random_scalar_deterministic():
    patch = Patch(["x", "y"])
    a = random_scalar(patch, random.Random("seed:check"), max_degree=2)
    b = random_scalar(patch, random.Random("seed:check"), max_degree=2)
    assert a == b


def listing_random_scalar(patch, rng, max_degree=2):
    """random_scalar as it was before its monomials were kept on the
    patch: the sorted monomial list is rebuilt on every draw."""
    exps = itertools.product(range(max_degree + 1), repeat=patch.dim)
    d = {}
    for monom in sorted(e for e in exps if sum(e) <= max_degree):
        c = rng.choice((0, 0, 1, -1, 2, -2))
        if c:
            d[monom] = c
    return ScalarField(patch, packed(patch, d)) if d else patch.zero


@pytest.mark.parametrize("coords", [["x"], ["x", "y"], ["x", "y", "z"]])
def test_random_scalar_draws_like_the_listing_oracle(coords):
    # the same values from the same rng states, and the rng left in the
    # same state, over interleaved degrees (the kept lists are per degree)
    patch = Patch(coords)
    rng, oracle = random.Random(coords[-1]), random.Random(coords[-1])
    for max_degree in [2, 1, 0, 3, 2, 1, 2, 0, 3] * 5:
        got = random_scalar(patch, rng, max_degree)
        want = listing_random_scalar(patch, oracle, max_degree)
        assert got == want and str(got) == str(want)
        assert rng.getstate() == oracle.getstate()
    assert sorted(patch._draws) == [0, 1, 2, 3]
    # another patch of the same dimension draws the same
    twin = Patch(coords)
    assert random_scalar(twin, random.Random(7), 2) == \
        listing_random_scalar(twin, random.Random(7), 2)


def test_patch_validation():
    with pytest.raises(ValueError):
        Patch(["x", "x"])
    with pytest.raises(ValueError):
        Patch([])
    with pytest.raises(ValueError):
        Patch(["2bad"])


def test_cross_patch_rejected():
    p1, p2 = Patch(["x", "y"]), Patch(["u", "v"])
    with pytest.raises(ValueError):
        p1.coordinate(0) + p2.coordinate(0)


def test_constant_hash_agrees_with_equality(patch):
    for value in (3, -7, Fraction(3, 4), Fraction(-5, 2), 0):
        c = patch.scalar(value)
        assert c == value
        assert hash(c) == hash(value)
        assert {value: "a"}[c] == "a"
        assert len({c, value}) == 1
    assert patch.zero == 0 and hash(patch.zero) == hash(0)
    assert hash(parse_scalar("6/8", patch)) == hash(Fraction(3, 4))
    x = patch.coordinate(0)
    assert hash(x) == hash(parse_scalar("x", patch))
    assert (x - x) == 0 and hash(x - x) == hash(0)
