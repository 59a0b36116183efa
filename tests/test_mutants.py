"""A mutation score for the checks (DeMillo, Lipton and Sayward, "Hints on
test data selection", 1978).

A mutant perturbs the data, not the code: it adds a small polynomial to
one entry of a structure and runs `check all`.  It is killed when a check
fails with a witness.  A mutant that is still the structure it claims to
be is equivalent; it must pass every check, with no error, and is listed
here with its reason.  A survivor that is not listed fails the test, and
the list is never shrunk to hide one.

The first slice perturbs the linear Poisson bivector of so(3)* on x, y, z:
0,1 = z, 0,2 = -y, 1,2 = x, each entry plus 1, x, y, z, x*y, x^2 or y*z.
A bivector on three coordinates is Poisson iff its vector field
v = (pi_12, -pi_02, pi_01) has v . curl v = 0.  For so(3)*, v = (x, y, z)
has curl 0; a bump on the entry of v_k keeps curl 0 exactly when it
depends on x_k alone, and every other bump here gives v . curl v != 0.
sympy, the tests' oracle, recomputes both.
"""

import hashlib

import pytest
import sympy

from algebroids import cli, instances

SO3 = {"0,1": "z", "0,2": "-y", "1,2": "x"}
BUMPS = ("1", "x", "y", "z", "x*y", "x^2", "y*z")
MUTANTS = [(entry, bump) for entry in SO3 for bump in BUMPS]

# (entry, bump) -> why the mutant is still Poisson
EQUIVALENT = {
    ("0,1", "1"): "v_2 = z + 1 depends on z alone: curl v = 0",
    ("0,1", "z"): "v_2 = 2 z depends on z alone: curl v = 0",
    ("0,2", "1"): "v_1 = y - 1 depends on y alone: curl v = 0",
    ("0,2", "y"): "v_1 = 0 depends on y alone: curl v = 0",
    ("1,2", "1"): "v_0 = x + 1 depends on x alone: curl v = 0",
    ("1,2", "x"): "v_0 = 2 x depends on x alone: curl v = 0",
    ("1,2", "x^2"): "v_0 = x + x^2 depends on x alone: curl v = 0",
}

# the pseudo-remainders of this mutant's gcds pass the degree bound 127 of
# values on three coordinates: (sha256 of the JSON, sha256 of the text) of
# `check all` at seed 0, trials 1, rendered with timing=False, taken at
# a0da0e9, the last commit before that bound
GOLDEN = {
    ("1,2", "x^2"): (
        "1063a631e54375c3687f5f08a011abb0d0237bd45e4f9a6530561a41f2b4191a",
        "19b6da653cf659181b5afb4c98ce498ee15edac2252168004b072ac9d7cbce25"),
}


def mutant_text(entry, bump):
    pi = dict(SO3)
    pi[entry] = "%s + %s" % (SO3[entry], bump)
    return ("[instance]\nname = so3-mutant\nkind = poisson\n\n"
            "[patch]\ncoords = x, y, z\n\n[pi]\n"
            + "".join("%s = %s\n" % kv for kv in pi.items()))


def poisson_defect(entry, bump):
    """(curl v, v . curl v) of the mutant, in sympy."""
    x, y, z = sympy.symbols("x y z")
    pi = {k: sympy.sympify(v.replace("^", "**"), locals=dict(x=x, y=y, z=z))
          for k, v in SO3.items()}
    pi[entry] += sympy.sympify(bump.replace("^", "**"),
                               locals=dict(x=x, y=y, z=z))
    v = sympy.Matrix([pi["1,2"], -pi["0,2"], pi["0,1"]])
    curl = sympy.Matrix([v[2].diff(y) - v[1].diff(z),
                         v[0].diff(z) - v[2].diff(x),
                         v[1].diff(x) - v[0].diff(y)])
    return curl, sympy.expand(v.dot(curl))


def test_equivalent_mutants_are_exactly_the_curl_free_ones():
    for mutant in MUTANTS:
        curl, defect = poisson_defect(*mutant)
        assert (curl == sympy.zeros(3, 1)) == (mutant in EQUIVALENT), mutant
        assert (defect == 0) == (mutant in EQUIVALENT), mutant


@pytest.mark.parametrize("entry, bump", MUTANTS,
                         ids=["%s+%s" % m for m in MUTANTS])
def test_mutant_is_killed_or_equivalent(entry, bump):
    report = cli.run(instances.ingest_text(mutant_text(entry, bump)), "all",
                     seed=0, trials=1)
    statuses = [r.status for r in report.results]
    assert "error" not in statuses, [
        (r.name, r.note) for r in report.results if r.status == "error"]
    if (entry, bump) in EQUIVALENT:
        assert report.all_passed
    else:
        assert any(r.status == "fail" and r.witnesses
                   for r in report.results)
    if (entry, bump) in GOLDEN:
        got = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (
            report.to_json(timing=False), report.to_text(timing=False)))
        assert got == GOLDEN[(entry, bump)]
