"""Scalar-op and coefficient-op budgets of fixed rounds.

The kernels add only nonzero terms.  A refactor that quietly brings back
dense arithmetic (multiplying and adding every zero entry of a table,
anchor or Gram matrix) keeps every verdict and report the same, so only a
count shows it.  These tests count the calls of scalars._add, _sub, _mul
and _div in two deterministic rounds (no random trials).  The ScalarField
operators call them, and so do the section kernels of scalars.py (_dot,
_accumulate and _directional, behind apply_matrix, apply_vf, the
pairings and the Leibniz kernel), which work on representations and
never reach an operator.  Each count is held below 1.1 times the count
the kernels make with the bracket memos, the memos of Omega, nabla^bas
and R^bas on the Dorfman connection, the zero skips in Section.__sub__
and __rmul__, a Leibniz product formed only against a nonzero table
entry, a value tier at every memo site, each quotient representative
split once, and zero sections on one short path (a zero argument of a
memo site, a zero right-hand side of a solve and a zero representative
of a quotient zero test return at once), and the Leibniz kernel, section
differences and vector-field brackets summed by _accumulate, which adds
no term where the output entry is 0 and multiplies by no factor +-1, and
cartan.d_oneform, which forms each entry of d theta once for i < j and
negates it for j > i, and the one pivot loop of bundles, which takes no
elimination step that changes nothing: 502 and 2,872.  Before that loop
the two rounds made 502 and 3,096, before d_oneform's change 670 and
3,096, before that kernel 721 and 3,610, before the zero short paths 912
and 3,666, and before the split was kept on the representative, the
quotient round made 4,374.

Two more rounds run `check all` on the failing presets iis-curved-negative
and nonclosed-zdxdy.  Every loop over a test set stops once its check is
settled (MAX_WITNESSES witnesses and a truncation note), the iis pipeline
builds one quotient algebroid and runs check_iis once, a Courant
morphism check applies Phi once per test section, and no elimination
step multiplies by 0 or 1, divides by 1 or rescales a row by p/prev = 1:
604 and 383 ops, under ceilings of 664 and 421.  When the fraction-free
loop took every step through the operators they made 1,272 and 1,520
(ceilings 1,399 and 1,672), so a return of those steps fails here; 1,272
and 1,556 before d_oneform's change, 1,384 and 1,575 before _accumulate
took the Leibniz, difference and bracket sums, 1,400 and 1,575 before
the zero short paths, under ceilings of 1,418 and 1,575, where every loop
run to its end made 1,680 and 1,819.

Earlier figures counted the binary ScalarField operators instead, which
the kernels no longer call.  On that counter the dense kernels made
145,010 and 388,158 operations, the sparse kernels without the memos and
skips 18,348 and 54,334, the sums that started from patch.zero 3,346 and
12,230, the kernels before Omega, nabla^bas and R^bas were memoised 2,321
and 8,054, and the kernels before the Leibniz skip 1,613 and 6,158.  Those
last kernels made 1,613 and 6,062 calls on the present counter, and the
kernels with the value tier on nabla^bas alone 1,174 and 5,328.

Polynomials over 1 are dicts of Python ints, added, multiplied and
differentiated without sympy, and every other value is a pair of them
cancelled by an integer gcd, so neither a polynomial round nor the
quotient round on (x^2 + 1)/y makes any sympy arithmetic (no PythonMPQ
coefficient, PolyElement or FracElement operation); two tests count it.
Every gcd of the quotient round is settled by trial division of one
primitive part by the other, so it runs no subresultant remainder
sequence; before that trial it ran 61.
"""

from functools import partial

import pytest
from sympy.external.pythonmpq import PythonMPQ
from sympy.polys.fields import FracElement
from sympy.polys.rings import PolyElement

from algebroids import cli, instances, scalars, zoo
from algebroids.bialgebroid import build_courant_C, verify_appendix_lemmas
from algebroids.courant import check_courant_axioms
from algebroids.reporting import CheckConfig

# the arithmetic on representations that both the ScalarField operators
# and the section kernels of scalars.py call, as module globals
REP_OPS = ("_add", "_sub", "_mul", "_div")

RATIONAL_POISSON = """\
[instance]
name = poisson-rational
kind = poisson

[patch]
coords = x, y

[pi]
0,1 = (x^2 + 1)/y
"""


def count_ops(monkeypatch, round_, targets=((scalars, REP_OPS),)):
    """Calls of the (class or module, attribute names) targets made by
    round_()."""
    count = [0]

    def counting(op):
        def wrapper(*args):
            count[0] += 1
            return op(*args)
        return wrapper

    with monkeypatch.context() as m:
        for owner, names in targets:
            for name in names:
                m.setattr(owner, name, counting(getattr(owner, name)))
        round_()
    return count[0]


def lemma_round(trials=0):
    triple = cli._triple_of(
        instances.instance_from_preset(zoo.zoo_preset("poisson-xy")))
    return lambda: verify_appendix_lemmas(triple,
                                          CheckConfig(seed=0, trials=trials))


def quotient_round():
    triple = cli._triple_of(instances.ingest_text(RATIONAL_POISSON))
    config = CheckConfig(seed=0, trials=0)

    def round_():
        mp = build_courant_C(triple, config, verify=False)
        check_courant_axioms(mp.C, config)
    return round_


def check_all_round(preset):
    data = instances.instance_from_preset(zoo.zoo_preset(preset))
    return lambda: cli.run(data, "all", trials=0)


@pytest.mark.parametrize("round_, count", [
    (lemma_round, 502), (quotient_round, 2_872),
    (partial(check_all_round, "iis-curved-negative"), 604),
    (partial(check_all_round, "nonclosed-zdxdy"), 383)],
    ids=["lemmas-poisson-xy", "quotient-rational",
         "all-iis-curved-negative", "all-nonclosed-zdxdy"])
def test_scalar_op_budget(monkeypatch, round_, count):
    ops = count_ops(monkeypatch, round_())
    assert ops <= 1.1 * count, \
        "%d representation-level scalar ops, budget %d" % (ops, 1.1 * count)


def sympy_ops(monkeypatch, round_):
    """Arithmetic calls of sympy's rational coefficients, polynomials and
    fractions made by round_()."""
    names = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__",
             "__pow__", "diff", "cofactors")
    targets = [(cls, [n for n in names if n in vars(cls)])
               for cls in (PythonMPQ, PolyElement, FracElement)]
    return count_ops(monkeypatch, round_, targets)


def test_polynomial_round_makes_no_rational_coefficient_ops(monkeypatch):
    # one random trial, so the round multiplies genuine polynomials; with
    # sympy's PolyElement arithmetic it made 84,709 PythonMPQ ops
    ops = sympy_ops(monkeypatch, lemma_round(trials=1))
    assert ops == 0, "%d sympy ops in a polynomial round" % ops


def test_quotient_round_makes_no_sympy_ops(monkeypatch):
    # when genuine fractions were sympy FracElements, this round made
    # 7,757 such ops, 985 of them on FracElement itself
    ops = sympy_ops(monkeypatch, quotient_round())
    assert ops == 0, "%d sympy ops in the quotient round" % ops


def test_quotient_round_runs_no_remainder_sequence(monkeypatch):
    # each gcd of the round has one primitive part dividing the other;
    # without the trial division the round ran 61 remainder sequences
    runs = count_ops(monkeypatch, quotient_round(),
                     ((scalars, ("_last_subresultant",)),))
    assert runs == 0, "%d subresultant remainder sequences" % runs
