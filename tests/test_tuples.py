"""The one test-set generator, Check.tuples, against the four per-module
builders it replaced.  The references below are those builders as they
were, kept inline: every label, value and draw order must match them, on
repeated calls and at several trial counts."""

from functools import partial
from itertools import product

import pytest

from algebroids.algebroid import side_B, tangent_algebroid
from algebroids.bundles import random_section
from algebroids.courant import standard_courant
from algebroids.reporting import Check, CheckConfig, labelled
from algebroids.scalars import Patch

PATCH = Patch(["x", "y"])


def ref_elements(C, check, count):
    frames = C.frame_sections()
    labelled_ = [("e%d" % i, s) for i, s in enumerate(frames)]
    if count == 2:
        tuples = [(a, b) for a in labelled_ for b in labelled_]
    else:
        tuples = [(a, b, c) for a in labelled_ for b in labelled_
                  for c in labelled_]
    rng = check.rng()
    for t in range(check.config.trials):
        tuples.append(tuple(
            ("random#%d.%d" % (t, s),
             C.random_element(rng, check.config.max_degree))
            for s in range(count)))
    return tuples


def ref_section_pairs(alg, check):
    frame = [alg.bundle.basis_section(i) for i in range(alg.rank)]
    for i, qi in enumerate(frame):
        for j, qj in enumerate(frame):
            yield "e%d" % i, qi, "e%d" % j, qj
    rng = check.rng()
    for t in range(check.config.trials):
        q1 = random_section(alg.bundle, rng, check.config.max_degree)
        q2 = random_section(alg.bundle, rng, check.config.max_degree)
        yield "random#%d.1" % t, q1, "random#%d.2" % t, q2


def ref_b_elements_single(B, check):
    out = [("e%d" % i, B.basis_section(i)) for i in range(B.rank)]
    rng = check.rng()
    for t in range(check.config.trials):
        out.append(("random#%d" % t,
                    random_section(B, rng, check.config.max_degree)))
    return out


def _printed(entries):
    # labels and printed values, in order; a tuple entry is flattened
    out = []
    for e in entries:
        pairs = e if isinstance(e[0], tuple) else (e,)
        out.append(tuple((label, str(v)) for label, v in pairs))
    return out


def _twice(make):
    # two calls on one check: each must start a fresh stream
    return [make() for _ in range(2)]


@pytest.mark.parametrize("trials", [0, 1, 3])
@pytest.mark.parametrize("count", [2, 3])
def test_courant_tuples_match_elements(trials, count):
    C = standard_courant(PATCH)
    check = Check("courant.demo", CheckConfig(seed=5, trials=trials))
    slots = [("random#%%d.%d" % s, C.random_element) for s in range(count)]
    for got in _twice(lambda: check.tuples(
            product(labelled("e", C.frame_sections()), repeat=count),
            *slots)):
        want = ref_elements(C, check, count)
        assert len(got) == 4 ** count + trials
        assert _printed(got) == _printed(want)


@pytest.mark.parametrize("trials", [0, 1, 3])
def test_algebroid_tuples_match_section_pairs(trials):
    alg = tangent_algebroid(PATCH)
    check = Check("algebroid.demo", CheckConfig(seed=2, trials=trials,
                                                max_degree=1))
    draw = partial(random_section, alg.bundle)
    for got in _twice(lambda: check.tuples(
            product(labelled("e", alg.bundle.basis_sections()), repeat=2),
            ("random#%d.1", draw), ("random#%d.2", draw))):
        want = [((l1, q1), (l2, q2))
                for l1, q1, l2, q2 in ref_section_pairs(alg, check)]
        assert len(got) == 4 + trials
        assert _printed(got) == _printed(want)


@pytest.mark.parametrize("trials", [0, 1, 3])
def test_single_slot_matches_b_elements(trials):
    B = side_B(tangent_algebroid(PATCH))
    check = Check("lemmas.demo", CheckConfig(seed=0, trials=trials))
    for got in _twice(lambda: check.tuples(
            labelled("e", B.basis_sections()),
            ("random#%d", partial(random_section, B)))):
        want = ref_b_elements_single(B, check)
        assert len(got) == B.rank + trials
        assert _printed(got) == _printed(want)


def test_streams_follow_the_check_name_and_seed():
    def draws(name, seed):
        check = Check(name, CheckConfig(seed=seed, trials=2))
        return _printed(check.tuples(
            [], ("random#%d", partial(random_section, side_B(
                tangent_algebroid(PATCH))))))
    assert draws("a", 0) == draws("a", 0)
    assert draws("a", 0) != draws("b", 0)
    assert draws("a", 0) != draws("a", 1)
