"""Scalar-op budgets of two fixed rounds.

The kernels add only nonzero terms.  A refactor that quietly brings back
dense arithmetic (multiplying and adding every zero entry of a table,
anchor or Gram matrix) keeps every verdict and report the same, so only a
count shows it.  These tests count the binary ScalarField operations of
two deterministic rounds (no random trials) and hold each below 1.1 times
the count the kernels make with the bracket memos and the zero skips in
Section.__sub__, the pairings and omega_map.  In these rounds the dense
kernels made 145,010 and 388,158 operations, and the sparse kernels
without those 18,348 and 54,334.
"""

import pytest

from algebroids import cli, instances, zoo
from algebroids.bialgebroid import build_courant_C, verify_appendix_lemmas
from algebroids.courant import check_courant_axioms
from algebroids.reporting import CheckConfig
from algebroids.scalars import ScalarField

BINARY = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
          "__rmul__", "__truediv__", "__rtruediv__")

RATIONAL_POISSON = """\
[instance]
name = poisson-rational
kind = poisson

[patch]
coords = x, y

[pi]
0,1 = (x^2 + 1)/y
"""


def count_ops(monkeypatch, round_):
    count = [0]

    def counting(op):
        def wrapper(a, b):
            count[0] += 1
            return op(a, b)
        return wrapper

    with monkeypatch.context() as m:
        for name in BINARY:
            m.setattr(ScalarField, name, counting(getattr(ScalarField, name)))
        round_()
    return count[0]


def lemma_round():
    triple = cli._triple_of(
        instances.instance_from_preset(zoo.zoo_preset("poisson-xy")))
    return lambda: verify_appendix_lemmas(triple,
                                          CheckConfig(seed=0, trials=0))


def quotient_round():
    triple = cli._triple_of(instances.ingest_text(RATIONAL_POISSON))
    config = CheckConfig(seed=0, trials=0)

    def round_():
        mp = build_courant_C(triple, config, verify=False)
        check_courant_axioms(mp.C, config)
    return round_


@pytest.mark.parametrize("round_, count", [
    (lemma_round, 3_346), (quotient_round, 12_230)],
    ids=["lemmas-poisson-xy", "quotient-rational"])
def test_scalar_op_budget(monkeypatch, round_, count):
    ops = count_ops(monkeypatch, round_())
    assert ops <= 1.1 * count, \
        "%d binary scalar ops, budget %d" % (ops, 1.1 * count)
