"""Exterior and Lie calculus on the patch.

Vector fields and 1-forms are sections of TM and T*M; 2-forms are stored as
full antisymmetric matrices.  The Lie derivative on 1-forms is defined by
Cartan's formula L_X theta = i_X d theta + d(theta(X)), which keeps
everything inside exact polynomial calculus.

Sparse rule: every sum here adds only its nonzero terms.  A zero
coefficient is skipped before anything is differentiated, and a zero
derivative or matrix entry is skipped before it is multiplied.  Most
vector-field components, anchor entries and derivatives in this package
are 0, so this leaves out most of the arithmetic.  For the same reason
apply_vf returns 0 for a constant scalar before it scans the vector field:
the kernels apply anchors to frame coefficients, and most are constants.
The sums themselves are formed by the section kernels of scalars.py
(_directional behind apply_vf and lie_bracket_vf, _accumulate for the
bracket's difference, _dot behind the pairings and the interior product),
on the scalars' representations.
None of this can change a result, because every scalar is stored in
canonical form: a sum has one representation whatever the order of its
terms, and a skipped term is 0.
"""

from __future__ import annotations

from .bundles import Section, TrivialBundle, _apply_transpose
from .scalars import _accumulate, _directional, _dot

__all__ = [
    "tangent", "cotangent",
    "lie_bracket_vf", "d_function", "d_oneform",
    "interior_vf_2form", "lie_derivative_1form",
    "apply_vf", "pair_form_vf", "two_form_matrix",
]


def tangent(patch):
    return TrivialBundle(patch, patch.dim, "TM")


def cotangent(patch):
    return TrivialBundle(patch, patch.dim, "T*M")


def apply_vf(X, f):
    """Directional derivative X(f) of a scalar along a vector field; 0
    at once for a constant f, without scanning X."""
    return _directional(X.components, f)


def pair_form_vf(theta, X):
    """theta(X) for a 1-form and a vector field."""
    return _dot(theta.bundle.patch, theta.components, X.components)


def lie_bracket_vf(X, Y):
    """[X, Y]^i = X(Y^i) - Y(X^i) = sum_j (X^j d_j Y^i - Y^j d_j X^i)."""
    patch = X.bundle.patch
    if Y.bundle.patch != patch:
        raise ValueError("vector fields over different patches")
    xs, ys = X.components, Y.components
    out = [_directional(xs, yi) for yi in ys]
    _accumulate(out, patch.one, [_directional(ys, xi) for xi in xs], sign=-1)
    return Section(tangent(patch), out)


def d_function(f):
    """Exterior derivative of a scalar, as a 1-form."""
    patch = f.patch
    return Section(cotangent(patch), [f.diff(i) for i in range(patch.dim)])


def d_oneform(theta):
    """Exterior derivative of a 1-form, as an antisymmetric matrix
    (d theta)_{ij} = d_i theta_j - d_j theta_i, formed once for i < j."""
    patch, th = theta.bundle.patch, theta.components
    return two_form_matrix(patch, {(i, j): th[j].diff(i) - th[i].diff(j)
                                   for j in range(patch.dim)
                                   for i in range(j)})


def interior_vf_2form(X, omega):
    """(i_X omega)_j = sum_i X^i omega_{ij}."""
    patch = X.bundle.patch
    return Section(cotangent(patch),
                   _apply_transpose(omega, X.components, patch))


def lie_derivative_1form(X, theta):
    """L_X theta = i_X d theta + d(theta(X))."""
    return interior_vf_2form(X, d_oneform(theta)) + d_function(pair_form_vf(theta, X))


def two_form_matrix(patch, entries):
    """Build an antisymmetric matrix from {(i, j): scalar} with i < j."""
    n = patch.dim
    m = [[patch.zero] * n for _ in range(n)]
    for (i, j), v in entries.items():
        v = patch.scalar(v)
        m[i][j] = v
        m[j][i] = -v
    return m
