"""Dull/Lie algebroid brackets, checkers, derivations, basic connections."""

import random

import pytest

from algebroids.scalars import Patch, parse_scalar
from algebroids.bundles import Section, TrivialBundle, random_section
from algebroids.cartan import lie_bracket_vf, tangent
from algebroids.algebroid import (
    AnchoredBundle, BasicConnections, DullAlgebroid, LinearConnection,
    bracket_eval, check_algebroid,
    check_anchor_compat, check_jacobi, check_skew,
    lie_derivative_ATM, lie_derivative_TMAs, rho_rhot,
    side_B, side_Q, tangent_algebroid,
)
from algebroids.reporting import CheckConfig


@pytest.fixture
def patch():
    return Patch(["x", "y"])


def make_algebroid(patch, rank, anchor, entries, name="A"):
    """anchor: dim rows of rank expression strings; entries: {(i,j): comps}."""
    A = TrivialBundle(patch, rank, name)
    anchored = AnchoredBundle(A, anchor)
    table = [[A.zero_section() for _ in range(rank)] for _ in range(rank)]
    for (i, j), comps in entries.items():
        table[i][j] = A.section(comps)
    return DullAlgebroid(anchored, table)


def aff1_action_algebroid(patch):
    """rho(e1) = d/dx, rho(e2) = x d/dx, [e1,e2] = e1 (skew-completed)."""
    return make_algebroid(
        patch, 2, [["1", "x"], ["0", "0"]],
        {(0, 1): ["1", "0"], (1, 0): ["-1", "0"]})


# ---------------------------------------------------------------------------
# bracket evaluation

def test_bracket_matches_vf_bracket(patch):
    alg = tangent_algebroid(patch)
    TM = alg.bundle
    q1 = TM.section(["0", "x"])
    q2 = TM.basis_section(0)
    assert bracket_eval(alg, q1, q2) == TM.section(["0", "-1"])

    rng = random.Random("tangent-oracle")
    for _ in range(20):
        X = random_section(TM, rng)
        Y = random_section(TM, rng)
        got = bracket_eval(alg, X, Y)
        want = lie_bracket_vf(X, Y)
        assert got.components == tuple(want.components)


def test_bracket_diagonal_zero_for_skew_data(patch):
    alg = aff1_action_algebroid(patch)
    for i in range(2):
        e = alg.bundle.basis_section(i)
        assert bracket_eval(alg, e, e).is_zero()


def test_abelian_bracket_kills_functions(patch):
    alg = make_algebroid(patch, 2, [["0", "0"], ["0", "0"]], {})
    rng = random.Random("abelian")
    f = parse_scalar("x^2 + y", patch)
    g = parse_scalar("x*y", patch)
    q1 = random_section(alg.bundle, rng)
    q2 = random_section(alg.bundle, rng)
    assert bracket_eval(alg, f * q1, g * q2).is_zero()


# ---------------------------------------------------------------------------
# checkers

def test_tangent_algebroid_passes_all(patch):
    alg = tangent_algebroid(patch)
    results = check_algebroid(alg, CheckConfig(seed=0, trials=4))
    assert all(r.passed for r in results)
    assert alg.is_lie


def test_aff1_action_algebroid_passes(patch):
    alg = aff1_action_algebroid(patch)
    results = check_algebroid(alg, CheckConfig(seed=0, trials=4))
    assert all(r.passed for r in results), [r.name for r in results if not r.passed]


def test_aff1_lie_algebra_over_interval():
    # constant structure functions [e1,e2] = e2, zero anchor
    line = Patch(["t"])
    alg = make_algebroid(line, 2, [["0", "0"]],
                         {(0, 1): ["0", "1"], (1, 0): ["0", "-1"]})
    results = check_algebroid(alg, CheckConfig(seed=0, trials=4))
    assert all(r.passed for r in results)


def test_anchor_compat_failure_witness(patch):
    # tangent data with [e1, e2] forced to e1: rho of it is d/dx, but
    # [rho e1, rho e2] = 0
    alg = make_algebroid(patch, 2, [["1", "0"], ["0", "1"]],
                         {(0, 1): ["1", "0"]})
    res = check_anchor_compat(alg, CheckConfig(trials=2))
    assert res.status == "fail"
    assert res.witnesses
    assert res.witnesses[0].residual == "(1, 0)"


def test_jacobi_failure_witness(patch):
    alg = make_algebroid(patch, 2, [["0", "0"], ["0", "0"]],
                         {(0, 1): ["y", "0"]})
    res = check_jacobi(alg, CheckConfig(trials=2))
    assert res.status == "fail" and res.witnesses
    assert not alg.jacobi_checked


def test_skew_failure(patch):
    alg = make_algebroid(patch, 2, [["0", "0"], ["0", "0"]],
                         {(0, 1): ["y", "0"]})
    res = check_skew(alg, CheckConfig(trials=2))
    assert res.status == "fail"


# ---------------------------------------------------------------------------
# derivations on the side bundles

def test_lie_derivative_vanishes_for_trivial_a(patch):
    alg = make_algebroid(patch, 2, [["0", "0"], ["0", "0"]], {})
    B = side_B(alg)
    Q = side_Q(alg)
    a = alg.bundle.basis_section(0)
    rng = random.Random("ldr-zero")
    assert lie_derivative_ATM(alg, a, random_section(B, rng)).is_zero()
    assert lie_derivative_TMAs(alg, a, random_section(Q, rng)).is_zero()


def test_lie_derivative_constant_data(patch):
    alg = tangent_algebroid(patch)
    B = side_B(alg)
    a = alg.bundle.basis_section(0)              # d/dx
    t = B.section(["0", "1", "0", "1"])          # (d/dy, dy)
    assert lie_derivative_ATM(alg, a, t).is_zero()


def test_lie_derivative_pair_example(patch):
    alg = tangent_algebroid(patch)
    Q = side_Q(alg)
    a = alg.bundle.section(["0", "x"])           # x d/dy
    v = Q.section(["1", "0", "0", "0"])          # (d/dx, 0)
    got = lie_derivative_TMAs(alg, a, v)
    assert got == Q.section(["0", "-1", "0", "0"])


@pytest.mark.parametrize("variant", ["ATM", "TMAs"])
def test_lie_derivative_leibniz(patch, variant):
    alg = aff1_action_algebroid(patch)
    carrier = side_B(alg) if variant == "ATM" else side_Q(alg)
    op = lie_derivative_ATM if variant == "ATM" else lie_derivative_TMAs
    rng = random.Random("ldr-leibniz-" + variant)
    for _ in range(4):
        a = random_section(alg.bundle, rng)
        t = random_section(carrier, rng)
        f = parse_scalar("x*y + 1", patch)
        lhs = op(alg, a, f * t)
        rhs = f * op(alg, a, t) + alg.anchored.apply_anchor(a, f) * t
        assert (lhs - rhs).is_zero()


def test_rho_rhot(patch):
    alg = tangent_algebroid(patch)
    B, Q = side_B(alg), side_Q(alg)
    t = B.section(["1", "0", "0", "1"])          # (d/dx, dy)
    v = rho_rhot(alg, t)
    assert v.bundle == Q
    assert v == Q.section(["1", "0", "0", "1"])  # identity anchor

    alg0 = make_algebroid(patch, 2, [["0", "0"], ["0", "0"]], {})
    t0 = side_B(alg0).section(["x", "y", "1", "x"])
    assert rho_rhot(alg0, t0).is_zero()


# ---------------------------------------------------------------------------
# basic connections

def random_connection(bundle, rng, max_degree=1):
    gamma = [[random_section(bundle, rng, max_degree)
              for _ in range(bundle.rank)]
             for _ in range(bundle.patch.dim)]
    return LinearConnection(bundle, gamma)


def test_basic_connection_flat_tangent(patch):
    alg = tangent_algebroid(patch)
    conn = LinearConnection.flat(alg.bundle)
    bas = BasicConnections(alg, conn)
    a = alg.bundle.section(["0", "x"])
    ap = alg.bundle.basis_section(0)
    # [a, a'] + nabla_{rho a'} a with the flat connection
    want = bracket_eval(alg, a, ap) + Section(
        alg.bundle, [c.diff(0) for c in a.components])
    assert bas.on_sections(a, ap) == want


def test_basic_connection_zero_case(patch):
    alg = make_algebroid(patch, 2, [["0", "0"], ["0", "0"]], {})
    conn = LinearConnection.flat(alg.bundle)
    bas = BasicConnections(alg, conn)
    a = alg.bundle.basis_section(0)
    X = tangent(patch).section(["y", "x"])
    assert bas.on_vector_fields(a, X).is_zero()


def test_anchor_intertwines_basic_connections(patch):
    alg = aff1_action_algebroid(patch)
    rng = random.Random("bas-intertwine")
    conn = random_connection(alg.bundle, rng)
    bas = BasicConnections(alg, conn)
    for _ in range(4):
        a = random_section(alg.bundle, rng)
        ap = random_section(alg.bundle, rng)
        lhs = alg.anchor_vf(bas.on_sections(a, ap))
        rhs = bas.on_vector_fields(a, alg.anchor_vf(ap))
        assert (lhs - rhs).is_zero()


def test_basic_curvature_antisymmetry_and_tensoriality(patch):
    alg = aff1_action_algebroid(patch)
    rng = random.Random("bas-curv")
    conn = random_connection(alg.bundle, rng)
    bas = BasicConnections(alg, conn)
    a1 = random_section(alg.bundle, rng)
    a2 = random_section(alg.bundle, rng)
    X = random_section(tangent(patch), rng)
    f = parse_scalar("x^2 - y", patch)
    assert bas.curvature(a1, a1, X).is_zero()
    assert (bas.curvature(a1, a2, X) + bas.curvature(a2, a1, X)).is_zero()
    lhs = bas.curvature(f * a1, a2, X)
    assert (lhs - f * bas.curvature(a1, a2, X)).is_zero()
    lhs = bas.curvature(a1, a2, f * X)
    assert (lhs - f * bas.curvature(a1, a2, X)).is_zero()
