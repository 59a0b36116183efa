"""Exact scalar arithmetic over a coordinate patch.

Every certification in this package bottoms out here: a geometric identity
holds iff some rational function in the patch coordinates is the zero
function, and zero-testing rational functions over Q is decidable.  So the
coefficient "field of functions" is the field Q(x_1, ..., x_n) of rational
functions.  Every stored value is in sympy's canonical form: numerator and
denominator with integer coefficients and no common factor (content
included), graded-lex monomial order, positive leading coefficient in the
denominator.  Equality and is_zero() are therefore tests on the stored
polynomials.  No floating point anywhere.

Multivariate polynomial arithmetic and the gcd cancellation that restores
the canonical form are delegated to sympy's sparse polynomial fields; this
module owns the patch bookkeeping, the expression grammar, the printer, and
a fast path that skips the cancellation where it cannot change anything:

* A canonical value whose denominator is the polynomial 1 has integer
  coefficients, so +, -, * and d/dx of two such values are again integer
  polynomials over 1: already reduced, with a positive leading coefficient
  in the denominator.  They are built without a gcd.
* Those four, and negation (a canonical numerator has integer
  coefficients whatever the denominator), run on Python ints rather than
  on sympy's PythonMPQ coefficients.  Each kernel reads every term's
  c.numerator, accumulates in a plain dict keyed by exponent tuple
  (ring.monomial_mul for products), drops the zero sums and wraps each
  surviving int once as a QQ element.  Integer sums and products are
  exact, and an integer over 1 is already in lowest terms, so no gcd is
  needed; PythonMPQ's own + and * spend one or two gcds per coefficient
  operation to learn that.  The wrapper is PythonMPQ._new (bound once at import as
  _mpq), the unchecked constructor that skips the gcd and the sign fix;
  that is safe because the denominator is the positive 1, so the pair
  (n, 1) is exactly what the checked constructor would store, with the
  same hash.  The terms come out in the order sympy's own operator would
  give them, so the results are the same PolyElements, equal and hashed
  alike, and print the same.
* This relies on sympy's pure-Python ground types, where QQ.dtype is
  PythonMPQ.  They are the only ones available: gmpy2 and python-flint
  are not installed, and there is no second path.
* The test is "denominator == 1", not "denominator is constant": x/2 is
  stored as x over 2, and x/2 + x/2 must cancel the 2.
* Adding 0, multiplying by 0 or +-1 and dividing by +-1 give the other
  operand, its negation, or 0, which are canonical already.
* Everything else (a genuinely rational operand, a constant denominator
  other than 1, any other division) takes sympy's general path, which
  cancels: the sum or product of two reduced fractions need not be
  reduced.

Partial derivatives are taken once per distinct value, because the
kernels differentiate the same components again for every vector field:

* A constant (numerator and denominator both ground, 0 and 1/2 included)
  has derivative 0 and returns the shared patch.zero without building
  anything.  Most diff calls are on constants, most of those on 0.
* A polynomial over 1 keeps the cancel-free path above; it is cheap, so
  it is not memoised.
* Any other value is differentiated by sympy's FracElement.diff, which
  cancels with a gcd, and the result is memoised in a dict on the Patch
  keyed by (fe, coord).  The key is the value, not the object: equal
  rational scalars are rebuilt as new objects all the time, so a slot on
  each object would miss where the value key hits.  Only rational values
  are kept, which are few and costly; keeping the many cheap polynomial
  ones would only cost memory.  The memo lives exactly as long as its
  patch, and no ScalarField is ever mutated, so sharing a result is safe.

Sums and products that take sympy's cancelling path are memoised the same
way, because the kernels form the same few rational products again and
again (a quotient Courant round forms about 1,500 such products from fewer
than 200 distinct operand pairs):

* The memo is one dict on the Patch, next to the diff memo, keyed by
  ("+", f, g) or ("*", f, g) with f and g the operand FracElements.  The
  operator is part of the key, so a sum and a product of the same pair
  never share an entry, and the operands are values, not objects, for the
  reason given above.
* Only operands that miss every fast path reach it: at least one is not a
  polynomial over 1, and neither is 0 (nor, for a product, +-1).  Sums and
  products of polynomials over 1 never touch it, so polynomial data pay
  nothing and leave it empty.  Differences and quotients are not memoised.
* The memo lives exactly as long as its patch.  Sharing a result is safe
  for the same reason as above: nothing mutates a FracElement or a
  ScalarField, and canonical values are unique, so a memoised result is
  the value sympy would rebuild.

Grammar accepted by parse_scalar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' integer)?
    base   := integer | identifier | '(' expr ')' | '-' factor | '+' factor

'^' does not chain (x^2^3 is a syntax error) and '-' binds a whole factor,
so -3^2 parses as -(3^2).  Rational literals like 3/4 come out of the
ordinary division rule.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

from sympy import QQ
from sympy.polys.fields import FracField

# PythonMPQ's unchecked constructor: no gcd, no sign normalisation
_mpq = QQ.dtype._new

__all__ = [
    "Patch",
    "ScalarField",
    "ScalarParseError",
    "PoleError",
    "parse_scalar",
    "partial_derivative",
    "evaluate",
    "random_scalar",
]


class ScalarParseError(ValueError):
    """Syntax or identifier error, annotated with the offending position."""

    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


class PoleError(ZeroDivisionError):
    """Evaluation hit a zero of the denominator."""


_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


class Patch:
    """An ordered coordinate chart.

    Scalars, bundles and sections all point back at the patch that owns
    their coordinate ring.  Patches with the same coordinate names are
    interchangeable (equality is structural).
    """

    __slots__ = ("coords", "field", "_gens", "_axes", "_one", "_mone",
                 "zero", "one", "_diffs", "_ops")

    def __init__(self, coords):
        coords = tuple(coords)
        if not coords:
            raise ValueError("a patch needs at least one coordinate")
        if len(set(coords)) != len(coords):
            raise ValueError("coordinate names must be distinct")
        for name in coords:
            if not _IDENT.match(name):
                raise ValueError("bad coordinate name %r" % (name,))
        self.coords = coords
        self.field = FracField(list(coords), QQ, order="grlex")
        ring = self.field.ring
        # _axes[i] is coordinate i as a non-negative int, with the list
        # semantics of field.gens[i] (negative i counts from the end, an
        # out-of-range i raises IndexError), for the exponent slicing of
        # _int_diff
        self._axes = tuple(range(len(coords)))
        # ring.one builds a new polynomial on every read, so the fast path
        # keeps one.  Every fast-path result shares it as its denominator;
        # that is safe because nothing mutates a denominator in place.
        self._one = ring.one
        self._mone = -self._one
        self._gens = tuple(ScalarField(self, g) for g in self.field.gens)
        # the kernels read zero and one as the start of every sum and in
        # every basis section; one shared object each is safe because no
        # ScalarField is ever mutated
        self.zero = ScalarField(self, self.field.zero)
        self.one = ScalarField(self, self.field.one)
        # ScalarField.diff of rational values, keyed by (fe, coord)
        self._diffs = {}
        # cancelling sums and products, keyed by ("+" or "*", fe, fe)
        self._ops = {}

    @property
    def dim(self):
        return len(self.coords)

    def coordinate(self, i):
        """The i-th coordinate function as a ScalarField."""
        return self._gens[i]

    def scalar(self, value):
        """Coerce an int, Fraction, str or ScalarField to a ScalarField."""
        if isinstance(value, ScalarField):
            if value.patch != self:
                raise ValueError("scalar belongs to a different patch")
            return value
        if isinstance(value, str):
            return parse_scalar(value, self)
        if isinstance(value, (int, Fraction)):
            return ScalarField(self, self._ground(value))
        raise TypeError("cannot coerce %r to a scalar" % (value,))

    def _ground(self, value):
        """The canonical constant FracElement of an int or Fraction.

        A Fraction is already reduced with a positive denominator, so its
        numerator and denominator are the canonical pair and no gcd is
        needed.
        """
        ring = self.field.ring
        if isinstance(value, int):
            return self.field.raw_new(ring.ground_new(value), self._one)
        return self.field.raw_new(ring.ground_new(value.numerator),
                                  ring.ground_new(value.denominator))

    def __eq__(self, other):
        if isinstance(other, Patch):
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return "Patch(%s)" % ", ".join(self.coords)


class ScalarField:
    """A rational function of the patch coordinates in canonical form.

    Wraps a sympy FracElement.  Every operation returns the canonical form
    (see the module docstring), so equality and is_zero() are tests on the
    stored numerator and denominator.  Polynomial operands (denominator 1)
    take integer-coefficient kernels and 0/+-1 operands a short cut, both
    without sympy's gcd cancellation; the others go through sympy, which
    cancels, and a sum or product of such operands is computed once per
    patch.
    """

    __slots__ = ("patch", "fe")

    def __init__(self, patch, fe):
        self.patch = patch
        self.fe = fe

    # -- arithmetic ---------------------------------------------------

    def _operand(self, other):
        if isinstance(other, ScalarField):
            if other.patch is not self.patch and other.patch != self.patch:
                raise ValueError("scalars from different patches")
            return other.fe
        if isinstance(other, (int, Fraction)):
            return self.patch._ground(other)
        return None

    def __add__(self, other):
        fe = self._operand(other)
        if fe is None:
            return NotImplemented
        patch = self.patch
        return ScalarField(patch, _add(self.fe, fe, patch._one, patch._ops))

    __radd__ = __add__

    def __sub__(self, other):
        fe = self._operand(other)
        if fe is None:
            return NotImplemented
        return ScalarField(self.patch, _sub(self.fe, fe, self.patch._one))

    def __rsub__(self, other):
        fe = self._operand(other)
        if fe is None:
            return NotImplemented
        return ScalarField(self.patch, _sub(fe, self.fe, self.patch._one))

    def __mul__(self, other):
        fe = self._operand(other)
        if fe is None:
            return NotImplemented
        patch = self.patch
        return ScalarField(patch, _mul(self.fe, fe, patch._one, patch._mone,
                                       patch._ops))

    __rmul__ = __mul__

    def __truediv__(self, other):
        fe = self._operand(other)
        if fe is None:
            return NotImplemented
        if not fe:
            raise ZeroDivisionError("division by the zero polynomial")
        patch = self.patch
        return ScalarField(patch, _div(self.fe, fe, patch._one, patch._mone))

    def __rtruediv__(self, other):
        fe = self._operand(other)
        if fe is None:
            return NotImplemented
        if not self.fe:
            raise ZeroDivisionError("division by the zero polynomial")
        patch = self.patch
        return ScalarField(patch, _div(fe, self.fe, patch._one, patch._mone))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return self.patch.one  # 0^0 = 1, as for Fraction
        if n < 0 and not self.fe:
            raise ZeroDivisionError("division by the zero polynomial")
        return ScalarField(self.patch, _power(self.fe, n))

    def __neg__(self):
        return ScalarField(self.patch, _neg(self.fe))

    def __pos__(self):
        return self

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not self.fe.numer

    def __bool__(self):
        return bool(self.fe.numer)

    def is_constant(self):
        """Numerator and denominator both ground (0 and 1/2 included): the
        one constant test behind diff, cartan.apply_vf and the bracket
        memos (bundles._constant_key)."""
        fe = self.fe
        return fe.numer.is_ground and fe.denom.is_ground

    def __eq__(self, other):
        if isinstance(other, ScalarField):
            if other.patch is not self.patch and other.patch != self.patch:
                return False
            g = other.fe
        elif isinstance(other, (int, Fraction)):
            g = self.patch._ground(other)
        else:
            return NotImplemented
        # both sides are canonical, so equal values have equal polynomials
        f = self.fe
        return dict.__eq__(f.numer, g.numer) and dict.__eq__(f.denom, g.denom)

    def __hash__(self):
        # equal values must hash equally, and a constant equals its int or
        # Fraction (patch.scalar(3) == 3), so a constant hashes as one
        if self.is_constant():
            n, d = self.fe.numer.LC, self.fe.denom.LC
            return hash(Fraction(n.numerator * d.denominator,
                                 n.denominator * d.numerator))
        return hash((self.patch.coords, self.fe))

    # -- calculus -----------------------------------------------------

    def diff(self, coord):
        """Exact partial derivative with respect to coordinate index."""
        patch, fe = self.patch, self.fe
        if self.is_constant():
            return patch.zero
        one = patch._one
        if dict.__eq__(fe.denom, one):
            return ScalarField(
                patch, fe.raw_new(_int_diff(fe.numer, patch._axes[coord]), one))
        key = (fe, coord)
        d = patch._diffs.get(key)
        if d is None:
            d = patch._diffs[key] = ScalarField(
                patch, fe.diff(patch.field.gens[coord]))
        return d

    def evaluate(self, point):
        """Exact value at a point of rationals; raises PoleError on poles."""
        if len(point) != self.patch.dim:
            raise ValueError("point dimension %d, patch dimension %d"
                             % (len(point), self.patch.dim))
        vals = [Fraction(p) for p in point]
        den = _eval_poly(self.fe.denom, vals)
        if den == 0:
            raise PoleError("pole at (%s)" % ", ".join(str(v) for v in vals))
        return _eval_poly(self.fe.numer, vals) / den

    # -- printing -----------------------------------------------------

    def __str__(self):
        return _print_scalar(self)

    def __repr__(self):
        return "ScalarField(%s)" % (self,)


# ---------------------------------------------------------------------------
# arithmetic on canonical FracElements
#
# The arguments are canonical; "one" and "mone" are the patch's shared
# polynomials 1 and -1, and "memo" is the patch's dict of cancelling sums
# and products (see the module docstring).  Denominators are compared
# with dict.__eq__, which is what PolyElement.__eq__ does after its ring
# checks.


def _add(f, g, one, memo):
    if not g.numer:
        return f
    if not f.numer:
        return g
    if dict.__eq__(f.denom, one) and dict.__eq__(g.denom, one):
        return f.raw_new(_int_add(f.numer, g.numer, 1), one)
    key = ("+", f, g)
    h = memo.get(key)
    if h is None:
        h = memo[key] = f + g
    return h


def _sub(f, g, one):
    if not g.numer:
        return f
    if not f.numer:
        return _neg(g)
    if dict.__eq__(f.denom, one) and dict.__eq__(g.denom, one):
        return f.raw_new(_int_add(f.numer, g.numer, -1), one)
    return f - g


def _mul(f, g, one, mone, memo):
    fn, gn = f.numer, g.numer
    if not fn:
        return f
    if not gn:
        return g
    g_poly = dict.__eq__(g.denom, one)
    if g_poly:
        if dict.__eq__(gn, one):
            return f
        if dict.__eq__(gn, mone):
            return _neg(f)
    if dict.__eq__(f.denom, one):
        if dict.__eq__(fn, one):
            return g
        if dict.__eq__(fn, mone):
            return _neg(g)
        if g_poly:
            return f.raw_new(_int_mul(fn, gn), one)
    key = ("*", f, g)
    h = memo.get(key)
    if h is None:
        h = memo[key] = f * g
    return h


def _div(f, g, one, mone):
    if dict.__eq__(g.denom, one):
        if dict.__eq__(g.numer, one):
            return f
        if dict.__eq__(g.numer, mone):
            return _neg(f)
    return f / g


# ---------------------------------------------------------------------------
# integer-coefficient kernels (see the module docstring); every polynomial
# they take is a canonical numerator, so its coefficients are integers


def _int_add(p, q, sign):
    """p + sign * q for sign = 1 or -1."""
    acc = {m: c.numerator for m, c in p.items()}
    get = acc.get
    for m, c in q.items():
        acc[m] = get(m, 0) + sign * c.numerator
    return p.new({m: _mpq(c, 1) for m, c in acc.items() if c})


def _int_mul(p, q):
    monomial_mul = p.ring.monomial_mul
    qs = [(m, c.numerator) for m, c in q.items()]
    acc = {}
    get = acc.get
    for m1, c1 in p.items():
        a = c1.numerator
        for m2, b in qs:
            m = monomial_mul(m1, m2)
            acc[m] = get(m, 0) + a * b
    return p.new({m: _mpq(c, 1) for m, c in acc.items() if c})


def _int_diff(p, i):
    """d/dx_i of p; the exponents stay natural numbers, so no term cancels."""
    out = {}
    for m, c in p.items():
        e = m[i]
        if e:
            out[m[:i] + (e - 1,) + m[i + 1:]] = _mpq(c.numerator * e, 1)
    return p.new(out)


def _neg(f):
    """-f: the numerator's ints negated, the denominator shared."""
    return f.raw_new(f.numer.new({m: _mpq(-c.numerator, 1)
                                  for m, c in f.numer.items()}), f.denom)


def _power(f, n):
    # sympy's FracElement.__pow__ swaps numerator and denominator for n < 0
    # without a sign fix, so (-x)^-1 would come out as 1 over -x.
    p = f ** n
    if p.denom.LC < 0:
        p = p.raw_new(-p.numer, -p.denom)
    return p


# ---------------------------------------------------------------------------
# parsing


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
        elif ch in "+-*/^()":
            toks.append((ch, ch, i))
            i += 1
        else:
            raise ScalarParseError("unexpected character %r" % ch, i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text, patch):
        self.toks = _tokenize(text)
        self.k = 0
        self.patch = patch
        self.field = patch.field

    def peek(self):
        return self.toks[self.k]

    def advance(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def parse(self):
        fe = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ScalarParseError("unexpected %r" % val, pos)
        return fe

    def expr(self):
        fe = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            fe = fe + rhs if op == "+" else fe - rhs
        return fe

    def term(self):
        fe = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            rhs = self.factor()
            if op == "*":
                fe = fe * rhs
            else:
                if not rhs:
                    raise ZeroDivisionError(
                        "division by the zero polynomial (at position %d)" % pos)
                fe = fe / rhs
        return fe

    def factor(self):
        fe = self.base()
        if self.peek()[0] == "^":
            _, _, pos = self.advance()
            n = self.exponent()
            if n == 0:
                return self.field.one  # 0^0 = 1, as for Fraction
            if n < 0 and not fe:
                raise ZeroDivisionError(
                    "division by the zero polynomial (at position %d)" % pos)
            fe = _power(fe, n)
        return fe

    def base(self):
        kind, val, pos = self.advance()
        if kind == "int":
            return self.field.ground_new(QQ(int(val)))
        if kind == "name":
            try:
                i = self.patch.coords.index(val)
            except ValueError:
                raise ScalarParseError("unknown identifier %r" % val, pos) from None
            return self.field.gens[i]
        if kind == "(":
            fe = self.expr()
            k2, _, p2 = self.advance()
            if k2 != ")":
                raise ScalarParseError("expected ')'", p2)
            return fe
        if kind == "-":
            return -self.factor()
        if kind == "+":
            return self.factor()
        what = repr(val) if val else "end of input"
        raise ScalarParseError("unexpected %s" % what, pos)

    def exponent(self):
        kind, val, pos = self.advance()
        sign = 1
        if kind in ("+", "-"):
            sign = -1 if kind == "-" else 1
            kind, val, pos = self.advance()
        if kind != "int":
            raise ScalarParseError("expected an integer exponent", pos)
        return sign * int(val)


def parse_scalar(text, patch):
    """Parse an expression string over the patch coordinates.

    Returns the canonical ScalarField.  Raises ScalarParseError on syntax
    errors and unknown identifiers, ZeroDivisionError on division by a
    polynomial that reduces to zero.
    """
    return ScalarField(patch, _Parser(text, patch).parse())


# ---------------------------------------------------------------------------
# printing


def _coeff_fraction(c):
    return Fraction(int(c.numerator), int(c.denominator))


def _print_poly(poly, coords, scale=Fraction(1)):
    parts = []
    for monom, coeff in poly.terms():
        c = _coeff_fraction(coeff) * scale
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


def _print_scalar(f):
    fe = f.fe
    if not fe:
        return "0"
    coords = f.patch.coords
    num, den = fe.numer, fe.denom
    if den.is_ground:
        # fold the constant denominator into the coefficients
        return _print_poly(num, coords, Fraction(1) / _coeff_fraction(den.LC))
    return "(%s)/(%s)" % (_print_poly(num, coords), _print_poly(den, coords))


# ---------------------------------------------------------------------------
# spec'd operation aliases and helpers


def partial_derivative(f, coord):
    return f.diff(coord)


def evaluate(f, point):
    return f.evaluate(point)


def _eval_poly(poly, vals):
    total = Fraction(0)
    for monom, coeff in poly.terms():
        term = _coeff_fraction(coeff)
        for v, e in zip(vals, monom):
            if e:
                term *= v ** e
        total += term
    return total


def _monomials(dim, max_degree):
    exps = itertools.product(range(max_degree + 1), repeat=dim)
    return sorted(e for e in exps if sum(e) <= max_degree)


_COEFF_POOL = (0, 0, 1, -1, 2, -2)


def random_scalar(patch, rng, max_degree=2):
    """Random polynomial with small integer coefficients, degree bounded.

    Deterministic given the rng state; used for randomized identity checks
    (identities are polynomial in the inputs, so polynomial samples are as
    discriminating as rational ones and keep intermediate expressions small).
    """
    ring = patch.field.ring
    d = {}
    for monom in _monomials(patch.dim, max_degree):
        c = rng.choice(_COEFF_POOL)
        if c:
            d[monom] = QQ(c)
    if not d:
        return patch.zero
    # integer coefficients over 1: canonical already, no gcd needed
    return ScalarField(patch, patch.field.raw_new(ring.from_dict(d), patch._one))
