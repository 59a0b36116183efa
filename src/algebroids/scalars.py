"""Exact scalar arithmetic over a coordinate patch.

Every certification in this package bottoms out here: a geometric identity
holds iff some rational function in the patch coordinates is the zero
function, and zero-testing rational functions over Q is decidable.  So the
coefficient "field of functions" is the field Q(x_1, ..., x_n) of rational
functions.  Every value is stored in one canonical form: numerator and
denominator with integer coefficients and no common factor (content
included), positive leading coefficient (graded-lex order) in the
denominator.  Equality and is_zero() are therefore tests on the stored
terms.  No floating point anywhere, and no computer algebra system: the
package runs on Python ints alone.

A value has exactly one of two representations, both built from term dicts
{monomial key: nonzero int}:

* A polynomial over 1 (denominator the polynomial 1) is a plain term dict;
  0 is the empty dict.  On the presets almost every value is one.  +, -, *
  and d/dx of two such values are again integer polynomials over 1,
  already reduced, so the kernels _int_add, _int_mul and _int_diff build
  them with no gcd; negation (_neg) and powers n >= 0 (repeated _int_mul)
  likewise.  A quotient of two of them is tried by _int_quo, exact division
  in Z[x], which succeeds exactly when the quotient is a polynomial over 1;
  a divisor of one term divides each term in a single pass.
* Every other value, 1/2 and x/2 included, is a pair: a tuple (numer,
  denom, key) of term dicts in the canonical form above, whose denominator
  is never 1, and their hashable key, built once (_pair).  The test is
  "denominator == 1", not "denominator is constant": x/2 is stored as x
  over 2, and x/2 + x/2 must cancel the 2.

The key of x^e on n coordinates is one int, a packed exponent vector
(Monagan and Pearce, "Sparse polynomial multiplication and division in
Maple 14", 2010): the degree |e| in the top field, then e_0, ..., e_{n-1},
in fields of b = max(8, 30 // (n + 1)) bits (one 30-bit digit for n <= 2).
Int order is sympy's grlex order, a product of monomials is a sum of keys,
a constant's key is 0, and x^e divides x^f iff f - e sets no field's top
bit.  That guard bit stays clear, so each degree is at most the bound
2^(b-1) - 1 (127 for n >= 3): a parsed exponent above it is a
ScalarParseError, and a product or power past it raises ArithmeticError
before it is formed.  The bound limits values, not the gcd: once trial
division fails, _prs_gcd repacks both primitive parts into a layout of
2b-bit fields, built once per patch, runs the content split and the
remainder sequence there, whose pseudo-remainders pass the bound, and
packs the gcd back, which fits because it divides both.  The layouts are
held on the Patch; ScalarField.numer and denom return views keyed by
exponent tuples.

An operation with a pair operand (or a division, unless the quotient is a
polynomial over 1, or a negative power) forms its numerator and denominator
on the same kernels and cancels them once, in _reduce, by their gcd in
Z[x].  _int_gcd takes the integer content (math.gcd) and the monomial
factor (least exponents) first; that alone settles the common case, a
monomial denominator such as y^k.  Next it divides the primitive part of
lower total degree (fewer terms on a tie) into the other by _int_quo: if
that is exact, the divisor is the gcd up to sign, because it divides both
and every common divisor divides it.  On the quotient Courant round of
(x^2 + 1)/y every gcd that gets this far ends here, as
gcd(x^4 y + 2 x^2 y + y, x^2 y^2 + y^2) = x^2 y + y does.  Otherwise it
takes the recursive gcd over Z[rest][x_v] (Geddes, Czapor and Labahn,
Algorithms for Computer Algebra, 1992, ch. 7): the gcd of the contents in
Z[rest], by _int_gcd again, times the primitive part of the last
subresultant remainder in x_v, the variable of least degree.  (A
primitive remainder sequence in the last variable takes the content of
every remainder, a recursive gcd each; on three coordinates with 2^70
contents its intermediate contents reached degree 64 in a gcd that now
takes milliseconds.)  Both cofactors come from exact _int_quo, which
also checks the gcd: a gcd that does not divide raises ArithmeticError.
A result whose denominator is 1 is the numerator's dict, so equal values
never differ in representation.  Inverting a pair swaps its parts and
needs no gcd, and neither does adding a polynomial over 1 to a pair:
n/d + p = (n + p*d)/d is coprime already.

Adding 0, multiplying by 0 or +-1 and dividing by +-1 give the other
operand, its negation, or 0, which are canonical already; 0 divided by
anything is 0.  _mul tests for +-1 inline on the representation: a dict
of one term at the key 0, with coefficient 1 or -1.

Partial derivatives are taken once per distinct value, because the
kernels differentiate the same components again for every vector field.
ScalarField.diff and the directional-derivative kernel _directional test
a value for a constant once, on its representation, and then take each
partial by one helper on representations, _partial:

* A constant (the empty dict, a dict whose one key is 0, or a pair of
  such dicts such as 1/2) has derivative 0 and returns the shared
  patch.zero without building anything.  Most diff calls are on
  constants, most of those on 0.
* A polynomial over 1 is differentiated by _int_diff; it is cheap, so it
  is not memoised.
* A pair n/d is differentiated by the quotient rule, (n'd - nd')/d^2,
  cancelled by _reduce, and its representation is memoised in a dict on
  the Patch keyed by (key, coord), for the key the pair keeps.  A zero
  derivative is the shared patch.zero.  The key is the value, not the
  object: equal rational scalars are rebuilt as new objects all the time,
  so a slot on each object would miss where the value key hits.
  Only pairs are kept, which are few and costly; keeping the many cheap
  polynomial ones would only cost memory.  The memo lives exactly as long
  as its patch, and no value is ever mutated, so sharing a result is safe.

Sums and products with a pair operand are memoised the same way, because
the kernels form the same few rational products again and again (a
quotient Courant round forms about 1,500 such products from fewer than 200
distinct operand pairs):

* The memo is one dict on the Patch, next to the diff memo, keyed by
  ("+", f, g) or ("*", f, g) with f and g the hashable forms (_key) of the
  operands: a dict's frozen items, or the key a pair keeps.  The
  operator is part of the key, so a sum and a product of the same pair
  never share an entry, and the operands are values, not objects, for the
  reason given above.
* Only operands that miss every fast path reach it: at least one is a
  pair, and neither is 0 (nor, for a product, +-1).  Sums and products of
  polynomials over 1 never touch it, so polynomial data pay nothing and
  leave it empty.  Differences and quotients are not memoised, but a
  difference of two equal pairs (most pair differences) is 0 at once.
* Sharing a result is safe for the same reason as above: nothing mutates
  a stored dict, pair or ScalarField, and canonical values are unique, so
  a memoised result is the value a miss would rebuild.

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
import math
import re
from fractions import Fraction

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


def _field_bits(n):
    """b, the width of each exponent field of a patch on n coordinates; its
    degree bound is 2^(b-1) - 1 (module docstring)."""
    return max(8, 30 // (n + 1))


class _Layout:
    """The monomial keys of n coordinates in fields of b bits (module
    docstring): degree field at bit _top, x_i's at _shifts[i]; _units[i] is
    x_i's key, _limit the least key over _bound.  _wide is the layout of
    2b-bit fields that the remainder sequence runs in; a wide layout is
    its own."""

    __slots__ = ("_top", "_shifts", "_units", "_mask", "_bound", "_limit",
                 "_guards", "_wide")

    def __init__(self, n, b, wide=None):
        self._top = b * n
        self._shifts = tuple(b * (n - 1 - i) for i in range(n))
        self._units = tuple((1 << s) + (1 << self._top) for s in self._shifts)
        self._mask, self._bound = (1 << b) - 1, (1 << b - 1) - 1
        self._limit = (self._bound + 1) << self._top
        self._guards = sum(1 << b * k + b - 1 for k in range(n + 1))
        self._wide = wide or self

    def _pack(self, e):
        """The key of the exponent tuple e, checked against the bound."""
        if sum(e) > self._bound:
            raise _over(self, sum(e))
        return sum(k * u for k, u in zip(e, self._units))

    def _unpack(self, m):
        """The exponent tuple of the monomial key m."""
        return tuple(m >> s & self._mask for s in self._shifts)


class Patch(_Layout):
    """An ordered coordinate chart.

    Scalars, bundles and sections all point back at the patch that owns
    their coordinate ring.  Patches with the same coordinate names are
    interchangeable (equality is structural).
    """

    __slots__ = ("coords", "_gens", "_axes", "zero", "one", "_diffs", "_ops",
                 "_draws")

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
        n = len(coords)
        # _axes[i] is coordinate i as a non-negative int, with list
        # semantics (negative i counts from the end, an out-of-range i
        # raises IndexError), for the diff memo's keys
        self._axes = tuple(range(n))
        b = _field_bits(n)
        super().__init__(n, b, _Layout(n, 2 * b))
        self._gens = tuple(ScalarField(self, {u: 1}) for u in self._units)
        # the kernels read zero and one as the start of every sum and in
        # every basis section; one shared object each is safe because no
        # ScalarField is ever mutated
        self.zero = ScalarField(self, {})
        self.one = ScalarField(self, {0: 1})
        # the partial derivatives of pairs (_partial), keyed by (key, coord)
        self._diffs = {}
        # sums and products with a pair operand, keyed by ("+" or "*",
        # key, key)
        self._ops = {}
        # the monomials random_scalar draws over, keyed by max_degree
        self._draws = {}

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
        """The representation of an int or a Fraction; a Fraction other
        than an integer is a pair of constants, already in lowest terms
        with a positive denominator."""
        if isinstance(value, Fraction):
            if value.denominator != 1:
                return _pair({0: value.numerator}, {0: value.denominator})
            value = value.numerator
        return {0: int(value)} if value else {}

    def _tuples(self, p):
        """The term dict p keyed by exponent tuples."""
        return {self._unpack(m): c for m, c in p.items()}

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

    `rep` is a term dict {monomial key: int} for a polynomial over 1 and
    a pair (numer, denom, key) of term dicts otherwise (see the module
    docstring).  Every operation returns the canonical form, so equality
    and is_zero() are tests on the stored terms.  Polynomial operands take
    the integer-coefficient kernels and 0/+-1 operands a short cut, both
    without a gcd; the others are cancelled by one gcd in Z[x], and a sum
    or product of such operands is computed once per patch.
    """

    __slots__ = ("patch", "rep")

    def __init__(self, patch, rep):
        self.patch = patch
        self.rep = rep

    # -- arithmetic ---------------------------------------------------

    def _operand(self, other):
        if isinstance(other, ScalarField):
            if other.patch is not self.patch and other.patch != self.patch:
                raise ValueError("scalars from different patches")
            return other.rep
        if isinstance(other, (int, Fraction)):
            return self.patch._ground(other)
        return None

    def __add__(self, other):
        g = self._operand(other)
        if g is None:
            return NotImplemented
        return ScalarField(self.patch, _add(self.patch, self.rep, g))

    __radd__ = __add__

    def __sub__(self, other):
        g = self._operand(other)
        if g is None:
            return NotImplemented
        return ScalarField(self.patch, _sub(self.patch, self.rep, g))

    def __rsub__(self, other):
        g = self._operand(other)
        if g is None:
            return NotImplemented
        return ScalarField(self.patch, _sub(self.patch, g, self.rep))

    def __mul__(self, other):
        g = self._operand(other)
        if g is None:
            return NotImplemented
        return ScalarField(self.patch, _mul(self.patch, self.rep, g))

    __rmul__ = __mul__

    def __truediv__(self, other):
        g = self._operand(other)
        if g is None:
            return NotImplemented
        if not g:
            raise ZeroDivisionError("division by the zero polynomial")
        return ScalarField(self.patch, _div(self.patch, self.rep, g))

    def __rtruediv__(self, other):
        g = self._operand(other)
        if g is None:
            return NotImplemented
        if not self.rep:
            raise ZeroDivisionError("division by the zero polynomial")
        return ScalarField(self.patch, _div(self.patch, g, self.rep))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return self.patch.one  # 0^0 = 1, as for Fraction
        if n < 0 and not self.rep:
            raise ZeroDivisionError("division by the zero polynomial")
        return ScalarField(self.patch, _power(self.patch, self.rep, n))

    def __neg__(self):
        return ScalarField(self.patch, _negate(self.rep))

    def __pos__(self):
        return self

    # -- predicates and parts -----------------------------------------

    def is_zero(self):
        return not self.rep

    def __bool__(self):
        return bool(self.rep)

    def is_constant(self):
        """Numerator and denominator both ground (0 and 1/2 included), as
        as_constant tests."""
        return self.as_constant() is not None

    def as_constant(self):
        """The value of a constant as an int, or as a Fraction when it is
        not an integer; None when the value is not constant.  O(1): a dict
        is constant iff it is empty or its one key is the zero exponent.
        The constant tier of every bracket and connection memo keys on it
        (bundles._constant_key)."""
        return _constant(self.rep)

    @property
    def numer(self):
        """The canonical numerator as a new term dict {exponent tuple: int},
        unpacked from the stored monomial keys."""
        r = self.rep
        return self.patch._tuples(r if type(r) is dict else r[0])

    @property
    def denom(self):
        """The canonical denominator as a term dict, like numer."""
        r = self.rep
        return self.patch._tuples({0: 1} if type(r) is dict else r[1])

    @property
    def fe(self):
        """The value itself, read as a fraction through numer and denom;
        perfbench's tracer reads values as f.fe.numer and f.fe.denom."""
        return self

    def __eq__(self, other):
        if isinstance(other, ScalarField):
            if other.patch is not self.patch and other.patch != self.patch:
                return False
            g = other.rep
        elif isinstance(other, (int, Fraction)):
            return self.as_constant() == other
        else:
            return NotImplemented
        # both sides are canonical, so equal values have equal terms (and
        # a dict never equals a pair)
        return self.rep == g

    def __hash__(self):
        # equal values must hash equally, and a constant equals its int or
        # Fraction (patch.scalar(3) == 3), so a constant hashes as one
        c = self.as_constant()
        if c is not None:
            return hash(c)
        return hash((self.patch.coords, _key(self.rep)))

    # -- calculus -----------------------------------------------------

    def diff(self, coord):
        """Exact partial derivative with respect to coordinate index."""
        patch, r = self.patch, self.rep
        if _constant(r) is not None:
            return patch.zero
        d = _partial(patch, r, patch._axes[coord])
        return ScalarField(patch, d) if d else patch.zero

    def evaluate(self, point):
        """Exact value at a point of rationals; raises PoleError on poles."""
        if len(point) != self.patch.dim:
            raise ValueError("point dimension %d, patch dimension %d"
                             % (len(point), self.patch.dim))
        vals = [Fraction(p) for p in point]
        den = _eval_poly(self.denom, vals)
        if den == 0:
            raise PoleError("pole at (%s)" % ", ".join(str(v) for v in vals))
        return _eval_poly(self.numer, vals) / den

    # -- printing -----------------------------------------------------

    def __str__(self):
        return _print_scalar(self)

    def __repr__(self):
        return "ScalarField(%s)" % (self,)


# ---------------------------------------------------------------------------
# arithmetic on canonical representations
#
# The arguments are canonical representations (dicts or pairs) of one
# patch; the patch supplies the monomial-key layout and the memo of sums
# and products (see the module docstring).


def _key(r):
    """The hashable form of a representation, for the memos and hashes."""
    return frozenset(r.items()) if type(r) is dict else r[2]


def _pair(n, d):
    """n / d as a pair (n, d, key) that keeps its _key from the start."""
    return n, d, (frozenset(n.items()), frozenset(d.items()))


def _value_key(components):
    """The hashable values of a component list: a section's part of a
    value-tier memo key (bundles._recall)."""
    return tuple(_key(c.rep) for c in components)


def _constant(r):
    """as_constant on a representation; the key of a constant is 0."""
    if type(r) is dict:
        if not r:
            return 0
        return r.get(0) if len(r) == 1 else None
    n, d = r[0], r[1]
    if len(n) == 1 and len(d) == 1 and 0 in n and 0 in d:
        return Fraction(n[0], d[0])
    return None


def _unit(r):
    """1 or -1 when r is that constant, else None."""
    if type(r) is dict and len(r) == 1:
        c = r.get(0)
        if c == 1 or c == -1:
            return c
    return None


def _negate(r):
    return _neg(r) if type(r) is dict else _pair(_neg(r[0]), r[1])


def _parts(r):
    """(numerator, denominator) of a representation; the denominator of a
    dict is None, which _times reads as 1."""
    return (r, None) if type(r) is dict else r[:2]


def _times(p, q, patch):
    """p * q for term dicts p and q, either of which may be None for 1."""
    if p is None:
        return q
    if q is None:
        return p
    return _int_mul(p, q, patch)


def _signed(n, d):
    """The representation of n / d for coprime term dicts: the sign of the
    denominator's leading coefficient moved into the numerator, and the
    numerator alone when the denominator is 1."""
    if _lc(d) < 0:
        n, d = _neg(n), _neg(d)
    return n if _is_one(d) else _pair(n, d)


def _reduce(patch, n, d):
    """The representation of n / d for term dicts n and d != 0, cancelled
    by their gcd."""
    if not n:
        return n
    g = _int_gcd(n, d, patch)
    if not _is_one(g):
        n, d = _exact_quo(n, g, patch), _exact_quo(d, g, patch)
    return _signed(n, d)


def _memoised(patch, op, f, g):
    """f + g or f * g with a pair operand, once per patch."""
    memo = patch._ops
    key = (op, _key(f), _key(g))
    h = memo.get(key)
    if h is None:
        h = memo[key] = (_sum(patch, f, g, 1) if op == "+"
                         else _product(patch, f, g))
    return h


def _sum(patch, f, g, sign):
    """f + sign * g for sign = 1 or -1, f or g a pair."""
    (fn, fd), (gn, gd) = _parts(f), _parts(g)
    if fd is None or gd is None:
        # n/d + p = (n + p*d)/d needs no gcd: a factor of d and of n + p*d
        # would divide n, and d is already signed and other than 1
        return _pair(_int_add(_times(fn, gd, patch), _times(gn, fd, patch),
                              sign), fd or gd)
    if fd == gd:
        return _reduce(patch, _int_add(fn, gn, sign), fd)
    return _reduce(patch, _int_add(_int_mul(fn, gd, patch),
                                   _int_mul(gn, fd, patch), sign),
                   _int_mul(fd, gd, patch))


def _product(patch, f, g):
    """f * g, f or g a pair."""
    (fn, fd), (gn, gd) = _parts(f), _parts(g)
    return _reduce(patch, _int_mul(fn, gn, patch), _times(fd, gd, patch))


def _add(patch, f, g):
    if not g:
        return f
    if not f:
        return g
    if type(f) is dict and type(g) is dict:
        return _int_add(f, g, 1)
    return _memoised(patch, "+", f, g)


def _sub(patch, f, g):
    if not g:
        return f
    if not f:
        return _negate(g)
    if type(f) is dict and type(g) is dict:
        return _int_add(f, g, -1)
    if f == g:
        return {}
    return _sum(patch, f, g, -1)


def _mul(patch, f, g):
    if not f:
        return f
    if not g:
        return g
    # +-1 is a dict of one term at the key 0; a pair has three parts
    if len(g) == 1:
        u = g.get(0)
        if u == 1 or u == -1:
            return f if u == 1 else _negate(f)
    if len(f) == 1:
        u = f.get(0)
        if u == 1 or u == -1:
            return g if u == 1 else _negate(g)
    if type(f) is dict and type(g) is dict:
        return _int_mul(f, g, patch)
    return _memoised(patch, "*", f, g)


def _div(patch, f, g):
    u = _unit(g)
    if u is not None:
        return f if u == 1 else _negate(f)
    if not f:
        return f
    if type(f) is dict and type(g) is dict:
        q = _int_quo(f, g, patch)
        if q is not None:
            return q
    (fn, fd), (gn, gd) = _parts(f), _parts(g)
    return _reduce(patch, _times(fn, gd, patch), _times(fd, gn, patch))


def _power(patch, f, n):
    """f^n for n != 0 (f nonzero when n < 0)."""
    if n < 0:
        # 1/(p/q) = q/p is coprime already; only the sign moves
        num, den = _parts(f)
        f, n = _signed(patch.one.rep if den is None else den, num), -n
    if type(f) is dict:
        return _int_pow(f, n, patch)
    # coprime parts stay coprime, and the denominator keeps a positive
    # leading coefficient and stays other than 1
    return _pair(_int_pow(f[0], n, patch), _int_pow(f[1], n, patch))


def _partial(patch, r, i):
    """d/dx_i of a representation r that is not constant: _int_diff of a
    dict, and the quotient rule of a pair, once per patch by (key, i)."""
    if type(r) is dict:
        return _int_diff(r, i, patch)
    key = (r[2], i)
    d = patch._diffs.get(key)
    if d is None:
        d = patch._diffs[key] = _quotient_rule(patch, r, i)
    return d


def _quotient_rule(patch, r, i):
    """d/dx_i of a pair n/d: (n'd - nd')/d^2, cancelled."""
    n, d = r[0], r[1]
    dn, dd = _int_diff(n, i, patch), _int_diff(d, i, patch)
    if not dd:
        return _reduce(patch, dn, d)
    return _reduce(patch, _int_add(_int_mul(dn, d, patch),
                                   _int_mul(n, dd, patch), -1),
                   _int_mul(d, d, patch))


# ---------------------------------------------------------------------------
# section kernels: sums of products of ScalarFields, formed on their
# representations by _mul, _add and _sub (called as module globals, like
# the operators) and wrapped in one ScalarField per output entry.  Only
# nonzero products are formed; an operand of another patch raises, as the
# operators do.


def _dot(patch, xs, ys):
    """sum x * y over the pairs where both are nonzero."""
    total = None
    for a, b in zip(xs, ys):
        if a.rep and b.rep:
            if (a.patch is not patch or b.patch is not patch) \
                    and not a.patch == patch == b.patch:
                raise ValueError("scalars from different patches")
            t = _mul(patch, a.rep, b.rep)
            total = t if total is None else _add(patch, total, t)
    return ScalarField(patch, total) if total else patch.zero


def _directional(xs, f):
    """X(f) = sum_i xs[i] * df/dx_i for the components xs of a vector
    field, over the nonzero xs[i]; 0 at once for a constant f, and each
    df/dx_i taken by _partial on the representation."""
    patch, r = f.patch, f.rep
    if _constant(r) is not None:
        return patch.zero
    total = None
    for i, a in enumerate(xs):
        if a.rep:
            d = _partial(patch, r, i)
            if d:
                if a.patch is not patch and a.patch != patch:
                    raise ValueError("scalars from different patches")
                t = _mul(patch, a.rep, d)
                total = t if total is None else _add(patch, total, t)
    return ScalarField(patch, total) if total else patch.zero


def _accumulate(out, c, comps, c2=None, sign=1):
    """out += sign * c * c2 * comps in place, touching only the nonzero
    comps; c2 None stands for 1.  The product c * c2 is formed once, a
    zero factor adds nothing and a factor +-1 multiplies nothing, so each
    nonzero comp costs at most one _mul and one _add, or _sub for sign -1
    (none where out is 0)."""
    patch, cr = c.patch, c.rep
    if c2 is not None:
        if c2.patch is not patch and c2.patch != patch:
            raise ValueError("scalars from different patches")
        cr = _mul(patch, cr, c2.rep)
    if not cr:
        return
    u = _unit(cr)
    if u is not None:
        cr, sign = None, sign * u
    for k, v in enumerate(comps):
        if v.rep:
            o = out[k]
            if (v.patch is not patch or o.patch is not patch) \
                    and not v.patch == patch == o.patch:
                raise ValueError("scalars from different patches")
            t = v.rep if cr is None else _mul(patch, cr, v.rep)
            if o.rep:
                t = (_add if sign > 0 else _sub)(patch, o.rep, t)
            elif sign < 0:
                t = _negate(t)
            out[k] = ScalarField(patch, t) if t else patch.zero


# ---------------------------------------------------------------------------
# integer-coefficient kernels on term dicts {monomial key: nonzero int};
# they never mutate an argument


def _over(patch, degree):
    return ArithmeticError("degree %d is over the bound %d of %r"
                           % (degree, patch._bound, patch))


def _int_add(p, q, sign):
    """p + sign * q for sign = 1 or -1."""
    acc = dict(p)
    get = acc.get
    for m, c in q.items():
        s = get(m, 0) + sign * c
        if s:
            acc[m] = s
        else:
            del acc[m]
    return acc


def _int_mul(p, q, patch):
    """p * q, checked against the bound before any product."""
    if p and q and max(p) + max(q) >= patch._limit:
        raise _over(patch, max(p) + max(q) >> patch._top)
    qs = list(q.items())
    acc = {}
    get = acc.get
    for m1, a in p.items():
        for m2, b in qs:
            m = m1 + m2
            acc[m] = get(m, 0) + a * b
    return {m: c for m, c in acc.items() if c}


def _int_pow(p, n, patch):
    """p^n for n >= 1, checked against the bound before any product."""
    if p and max(p) * n >= patch._limit:
        raise _over(patch, (max(p) >> patch._top) * n)
    result = p
    for _ in range(n - 1):
        result = _int_mul(result, p, patch)
    return result


def _int_quo(p, q, patch):
    """p / q when the quotient is a polynomial with integer coefficients,
    else None.  Divides by the leading term of q in grlex order, the
    largest key: if p = s*q with s in Z[x], the leading term of what is
    left is always the leading term of q times a term of s, so a monomial
    or a coefficient that does not divide proves that there is no such s.
    x^e divides x^f exactly when f - e sets no guard bit.  A single-term q
    divides each term of p in one pass, with the same test."""
    guards = patch._guards
    if len(q) == 1:
        (lm, lc), = q.items()
        out = {}
        for m, c in p.items():
            e = m - lm
            if e & guards or c % lc:
                return None
            out[e] = c // lc
        return out
    lm, lc = max(q.items())     # keys are distinct: the largest key
    rest = [(m, c) for m, c in q.items() if m != lm]
    left = dict(p)
    out = {}
    while left:
        m = max(left)
        c = left.pop(m)
        e = m - lm
        if e & guards or c % lc:
            return None
        k = out[e] = c // lc
        for m2, c2 in rest:
            m2 += e
            s = left.get(m2, 0) - k * c2
            if s:
                left[m2] = s
            else:
                del left[m2]
    return out


def _exact_quo(p, q, patch):
    """p / q where q is a gcd of p and more: _int_quo, which returns None
    exactly when q does not divide p, so a wrong gcd cannot pass."""
    out = _int_quo(p, q, patch)
    if out is None:
        raise ArithmeticError("gcd does not divide its argument")
    return out


def _int_diff(p, i, patch):
    """d/dx_i of p; the exponents stay natural numbers, so no term cancels."""
    s, u, mask = patch._shifts[i], patch._units[i], patch._mask
    out = {}
    for m, c in p.items():
        e = m >> s & mask
        if e:
            out[m - u] = c * e
    return out


def _neg(p):
    return {m: -c for m, c in p.items()}


def _lc(p):
    """The leading coefficient of a nonzero term dict in grlex order."""
    return p[max(p)]


def _is_one(p):
    return len(p) == 1 and p.get(0) == 1


# ---------------------------------------------------------------------------
# gcd in Z[x] on term dicts


def _int_gcd(p, q, patch):
    """The gcd in Z[x] of two nonzero term dicts, with a positive leading
    coefficient in grlex order.

    The integer content (math.gcd of every coefficient) and the monomial
    factor (the least exponent of each variable) come first.  When p or q
    is a single term, they are the whole gcd; this settles a monomial
    denominator such as y^k.  Otherwise the gcd of what is left, the two
    primitive parts without a monomial factor, is _prs_gcd's: trial
    division of one by the other first (a divisor that divides is the gcd
    up to sign), then the subresultant remainder sequence."""
    c = math.gcd(*p.values(), *q.values())
    e = patch._pack(_exponents(patch, (p, q), min))
    if len(p) > 1 and len(q) > 1:
        h = _prs_gcd(_primitive(p, patch), _primitive(q, patch), patch)
        if not _is_one(h):
            return {m + e: c * v for m, v in h.items()}
    return {e: c}


def _exponents(patch, polys, least_or_most):
    """min or max of each variable's exponent over the terms of polys."""
    mask = patch._mask
    return [least_or_most(m >> s & mask for p in polys for m in p)
            for s in patch._shifts]


def _primitive(p, patch):
    """p divided by its integer content and its monomial factor."""
    c = math.gcd(*p.values())
    e = patch._pack(_exponents(patch, (p,), min))
    return {m - e: v // c for m, v in p.items()}


def _prs_gcd(p, q, patch):
    """The gcd, with a positive leading coefficient, of two term dicts of
    content 1 without a monomial factor.

    Trial division comes first: the operand of lower total degree, or of
    fewer terms on a tie, is divided into the other by _int_quo.  If it
    divides, it is the gcd up to the units +-1 of Z[x] (it divides both,
    and every common divisor divides it), and only its sign is set.
    Otherwise _content_gcd runs on both, repacked into the patch's wide
    layout: its pseudo-remainders multiply by powers of a leading
    coefficient and pass the degree bound of values, but the gcd divides
    both inputs, so it packs back."""
    top = patch._top
    lo, hi = sorted((p, q), key=lambda t: (max(t) >> top, len(t)))
    if _int_quo(hi, lo, patch) is not None:
        return lo if _lc(lo) > 0 else _neg(lo)
    wide = patch._wide
    return _repack(_content_gcd(_repack(p, patch, wide),
                                _repack(q, patch, wide), wide), wide, patch)


def _repack(p, layout, other):
    """The term dict p keyed in layout, keyed in the other layout."""
    if other is layout:
        return p
    return {other._pack(layout._unpack(m)): c for m, c in p.items()}


def _content_gcd(p, q, patch):
    """_prs_gcd past its trial division, in a wide layout.  p and q are
    read as polynomials in one variable x_v, with coefficients in Z[rest].
    The gcd is the gcd of their contents in x_v, taken recursively by
    _int_gcd in one variable fewer (with the same trial first), times the
    primitive part of the last nonzero remainder of the subresultant
    pseudo-remainder sequence of their primitive parts
    (_last_subresultant).  x_v is the variable whose lower degree in p and
    q is least, ties going to the lower higher degree: when it occurs in
    only one of them, the gcd is free of it and the contents settle it
    with no remainder sequence."""
    dp, dq = _exponents(patch, (p,), max), _exponents(patch, (q,), max)
    v = min((i for i in range(len(dp)) if dp[i] or dq[i]),
            key=lambda i: (min(dp[i], dq[i]), max(dp[i], dq[i])))
    cp, a = _split_content(p, v, patch)
    cq, b = _split_content(q, v, patch)
    g = _int_gcd(cp, cq, patch)
    if not (dp[v] and dq[v]):
        return g
    if dp[v] < dq[v]:
        a, b = b, a
    r = _last_subresultant(a, b, v, patch)
    if not _lead(r, v, patch)[0]:
        return g    # the primitive parts are coprime
    h = _int_mul(g, _split_content(r, v, patch)[1], patch)
    return h if _lc(h) > 0 else _neg(h)


def _last_subresultant(a, b, v, patch):
    """The last nonzero polynomial of the subresultant remainder sequence
    of a and b in x_v (deg a >= deg b >= 1), or its first remainder free of
    x_v.  Each pseudo-remainder is divided exactly by a known factor of its
    content, so the coefficients grow only linearly along the sequence and
    no content is taken before the end (Brown and Traub's subresultant PRS,
    as in Geddes, Czapor and Labahn, section 7.3)."""
    da, (db, lc) = _lead(a, v, patch)[0], _lead(b, v, patch)
    d = da - db
    r = _prem(a, b, v, patch)
    if d % 2 == 0:
        r = _neg(r)                          # times (-1)^(d + 1)
    c = _neg(_int_pow(lc, d, patch) if d else {0: 1})
    while r:
        k = _lead(r, v, patch)[0]
        if not k:
            return r
        a, b, d, db = b, r, db - k, k
        beta = _neg(_int_mul(lc, _int_pow(c, d, patch), patch))
        r = _exact_quo(_prem(a, b, v, patch), beta, patch)
        lc = _lead(b, v, patch)[1]
        if d > 1:
            c = _exact_quo(_int_pow(_neg(lc), d, patch),
                           _int_pow(c, d - 1, patch), patch)
        else:
            c = _neg(lc)
    return b


def _lead(p, v, patch):
    """(degree, leading coefficient) of a nonzero term dict in x_v; the
    coefficient is a term dict whose exponents of x_v are 0."""
    s, u, mask = patch._shifts[v], patch._units[v], patch._mask
    d = max(m >> s & mask for m in p)
    return d, {m - d * u: c for m, c in p.items() if m >> s & mask == d}


def _split_content(p, v, patch):
    """(c, p / c) for c the content of p in x_v: the gcd, with a positive
    leading coefficient, of its coefficients in Z[rest]."""
    s, u, mask = patch._shifts[v], patch._units[v], patch._mask
    coeffs = {}
    for m, c in p.items():
        k = m >> s & mask
        coeffs.setdefault(k, {})[m - k * u] = c
    first, *others = coeffs.values()
    c = first if _lc(first) > 0 else _neg(first)
    for k in others:
        if _is_one(c):
            break
        c = _int_gcd(c, k, patch)
    if _is_one(c):
        return c, p
    return c, _exact_quo(p, c, patch)


def _prem(a, b, v, patch):
    """The pseudo-remainder of a by b in x_v: l^(deg a - deg b + 1) * a
    modulo b, for l the leading coefficient of b in x_v."""
    db, lb = _lead(b, v, patch)
    r, n = a, _lead(a, v, patch)[0] - db + 1
    while r:
        dr, lr = _lead(r, v, patch)
        if dr < db:
            break
        t = {m + (dr - db) * patch._units[v]: c for m, c in lr.items()}
        r = _int_add(_int_mul(r, lb, patch), _int_mul(t, b, patch), -1)
        n -= 1
    return _int_mul(r, _int_pow(lb, n, patch), patch) if n else r


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
    """Recursive descent over ScalarField arithmetic, so a polynomial
    expression never leaves the integer kernels."""

    def __init__(self, text, patch):
        self.toks = _tokenize(text)
        self.k = 0
        self.patch = patch

    def peek(self):
        return self.toks[self.k]

    def advance(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def parse(self):
        f = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ScalarParseError("unexpected %r" % val, pos)
        return f

    def expr(self):
        f = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            f = f + rhs if op == "+" else f - rhs
        return f

    def term(self):
        f = self.factor()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.advance()
            rhs = self.factor()
            if op == "*":
                f = f * rhs
            else:
                if not rhs:
                    raise ZeroDivisionError(
                        "division by the zero polynomial (at position %d)" % pos)
                f = f / rhs
        return f

    def factor(self):
        f = self.base()
        if self.peek()[0] == "^":
            _, _, pos = self.advance()
            n = self.exponent()
            if n < 0 and not f:
                raise ZeroDivisionError(
                    "division by the zero polynomial (at position %d)" % pos)
            f = f ** n
        return f

    def base(self):
        kind, val, pos = self.advance()
        if kind == "int":
            return self.patch.scalar(int(val))
        if kind == "name":
            try:
                i = self.patch.coords.index(val)
            except ValueError:
                raise ScalarParseError("unknown identifier %r" % val, pos) from None
            return self.patch.coordinate(i)
        if kind == "(":
            f = self.expr()
            k2, _, p2 = self.advance()
            if k2 != ")":
                raise ScalarParseError("expected ')'", p2)
            return f
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
        if int(val) > self.patch._bound:
            raise ScalarParseError("exponent over the degree bound %d"
                                   % self.patch._bound, pos)
        return sign * int(val)


def parse_scalar(text, patch):
    """Parse an expression string over the patch coordinates.

    Returns the canonical ScalarField.  Raises ScalarParseError on syntax
    errors and unknown identifiers, ZeroDivisionError on division by a
    polynomial that reduces to zero.
    """
    return _Parser(text, patch).parse()


# ---------------------------------------------------------------------------
# printing


def _print_poly(terms, patch, scale=1):
    parts = []
    for monom in sorted(terms, reverse=True):     # sympy's grlex order
        c = terms[monom] * scale
        vars_part = "*".join(
            name if e == 1 else "%s^%d" % (name, e)
            for name, e in zip(patch.coords, patch._unpack(monom)) if e)
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
    r, patch = f.rep, f.patch
    if type(r) is dict:
        return _print_poly(r, patch)
    num, den = r[0], r[1]
    if len(den) == 1 and 0 in den:
        # fold the constant denominator into the coefficients
        return _print_poly(num, patch, Fraction(1, den[0]))
    return "(%s)/(%s)" % (_print_poly(num, patch), _print_poly(den, patch))


# ---------------------------------------------------------------------------
# spec'd operation aliases and helpers


def partial_derivative(f, coord):
    return f.diff(coord)


def evaluate(f, point):
    return f.evaluate(point)


def _eval_poly(terms, vals):
    total = Fraction(0)
    for monom, coeff in terms.items():
        term = coeff
        for v, e in zip(vals, monom):
            if e:
                term *= v ** e
        total += term
    return total


def _monomials(patch, max_degree):
    """The sorted exponent tuples of degree at most max_degree on the
    patch; a degree over its bound raises before any is listed."""
    if max_degree > patch._bound:
        raise _over(patch, max_degree)
    exps = itertools.product(range(max_degree + 1), repeat=patch.dim)
    return sorted(e for e in exps if sum(e) <= max_degree)


_COEFF_POOL = (0, 0, 1, -1, 2, -2)


def random_scalar(patch, rng, max_degree=2):
    """Random polynomial with small integer coefficients, degree bounded.

    Deterministic given the rng state; used for randomized identity checks
    (identities are polynomial in the inputs, so polynomial samples are as
    discriminating as rational ones and keep intermediate expressions small).
    The monomials, in sorted order, are listed once per patch and
    max_degree and kept on the patch.
    """
    monomials = patch._draws.get(max_degree)
    if monomials is None:
        monomials = patch._draws[max_degree] = tuple(
            map(patch._pack, _monomials(patch, max_degree)))
    d = {}
    for monom in monomials:
        c = rng.choice(_COEFF_POOL)
        if c:
            d[monom] = c
    # integer coefficients over 1: canonical already
    return ScalarField(patch, d) if d else patch.zero
