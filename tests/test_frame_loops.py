"""The frame loops of the tensorial checks, run through Check.run.

Most conditions of the LA-Dirac triple, the Manin pair, the Dirac
structure, the Dorfman extension, the ideal system and the Dirac
bialgebra are tensorial, so each is tested exactly on frame tuples.  On
the presets most of them pass, so their witnesses would go unseen.  Each
scenario here plants a failure: it wraps a kernel that the check's
residual or zero test calls, so every frame tuple fails and, where there
are more than MAX_WITNESSES tuples, the truncation note is reached.  The
timing-free results are pinned by sha256.  The pins were recorded on the
same plants with the checks still written out as nested loops, so they
fix the tuple order, the labels, the input keys and their order, the
residuals and the notes.

A plant that raises inside a check's residual gives that check an
"error" result; the rest of the suite still runs, and the CLI exits 1.
"""

import hashlib
import json

import pytest

from algebroids import bialgebroid, cli, courant, dorfman, reporting, zoo
from algebroids.bundles import Section
from algebroids.courant import CourantPresentation
from algebroids.reporting import MAX_WITNESSES, CheckConfig
from algebroids.scalars import Patch

CONFIG = CheckConfig(seed=0, trials=0)
TRUNCATED = "further witnesses truncated"
MEMBERSHIP_USERS = (reporting, bialgebroid, courant, dorfman, zoo)


def bumped(real):
    """real, with 1 added to a scalar result and the first basis section of
    its bundle to a section result."""
    def wrapper(*args, **kwargs):
        r = real(*args, **kwargs)
        return r + (r.bundle.basis_section(0) if isinstance(r, Section)
                    else 1)
    return wrapper


def outside(monkeypatch):
    """Every membership test fails."""
    for module in MEMBERSHIP_USERS:
        monkeypatch.setattr(module, "membership", lambda v, sub: (False, None),
                            raising=False)


def unit_vectors(monkeypatch, module):
    """module's nullspace returns the unit vectors of its column count."""
    def units(rows, patch, ncols):
        return [[patch.one if i == j else patch.zero for i in range(ncols)]
                for j in range(ncols)]
    monkeypatch.setattr(module, "nullspace", units)


def so3():
    """The linear Poisson structure of so(3)* on x, y, z."""
    patch = Patch(["x", "y", "z"])
    return patch, zoo.bivector_matrix(
        patch, {(0, 1): "z", (0, 2): "-y", (1, 2): "x"})


def so3_triple():
    return zoo.poisson_triple(zoo.poisson_bialgebroid(*so3()))


def flat_iis():
    """F_M = TM on x, y, z, J spanned by e0, the flat connection."""
    patch = Patch(["x", "y", "z"])
    alg = zoo.tangent_algebroid(patch)
    tm = zoo.tangent(patch)
    F = zoo.Subbundle(tm, zoo.Frame(tm, tm.basis_sections()))
    J = zoo.Subbundle(alg.bundle, zoo.Frame(alg.bundle,
                                            [alg.bundle.basis_section(0)]))
    return zoo.IISData(alg, F, J, zoo.LinearConnection.flat(alg.bundle))


def abelian_bialgebra():
    """g and p abelian of dimension 3, iota the identity."""
    patch = zoo.point_patch()
    zero = [[[0] * 3] * 3] * 3
    return zoo.DiracBialgebraData(
        zoo.lie_algebra_algebroid(patch, "g", zero),
        zoo.lie_algebra_algebroid(patch, "p", zero),
        [[int(i == r) for r in range(3)] for i in range(3)])


def la_dirac(mp):
    outside(mp)
    return bialgebroid.check_la_dirac(so3_triple(), CONFIG)


def phi_skew(mp):
    triple = so3_triple()
    mp.setattr(bialgebroid, "canonical_pairing",
               bumped(bialgebroid.canonical_pairing))
    return bialgebroid.verify_phi_skew(
        triple, triple.alg.bundle.basis_section(0), CONFIG)


def manin_pairing(mp):
    pair = bialgebroid.build_courant_C(so3_triple(), CONFIG, verify=False)
    mp.setattr(bialgebroid.QuotientCourant, "pairing",
               bumped(bialgebroid.QuotientCourant.pairing))
    return bialgebroid.check_manin_pair(pair, CONFIG)


def manin_perp(mp):
    pair = bialgebroid.build_courant_C(so3_triple(), CONFIG, verify=False)
    unit_vectors(mp, bialgebroid)
    return bialgebroid.check_manin_pair(pair, CONFIG)


def equivalence(mp):
    db = bialgebroid.bialgebroid_from_triple(so3_triple())
    mp.setattr(bialgebroid, "bracket_eval", bumped(bialgebroid.bracket_eval))
    return bialgebroid.bialgebroids_equivalent(db, db, CONFIG)


def dirac_of_so3():
    patch, pi = so3()
    return courant.standard_courant(patch), courant.dirac_from_poisson(patch,
                                                                       pi)


def dirac_pairing(mp):
    C, D = dirac_of_so3()
    mp.setattr(CourantPresentation, "pairing",
               bumped(CourantPresentation.pairing))
    return courant.check_dirac(C, D, CONFIG)


def dirac_perp(mp):
    C, D = dirac_of_so3()
    unit_vectors(mp, courant)
    return courant.check_dirac(C, D, CONFIG)


def dorfman_table(mp):
    D = so3_triple().D
    mp.setattr(dorfman, "dorfman_eval", bumped(dorfman.dorfman_eval))
    return dorfman.check_dorfman_axioms(D, CONFIG)


def extension_outside(mp):
    db = bialgebroid.bialgebroid_from_triple(so3_triple())
    outside(mp)
    return bialgebroid.triple_from_bialgebroid(db, CONFIG).extension_checks


def extension_connection(mp):
    db = bialgebroid.bialgebroid_from_triple(so3_triple())
    mp.setattr(dorfman, "apply_vf", bumped(dorfman.apply_vf))
    return bialgebroid.triple_from_bialgebroid(db, CONFIG).extension_checks


def poisson_anomaly(mp):
    lb = zoo.poisson_bialgebroid(*so3())
    real = zoo.anchor_anomaly
    mp.setattr(zoo, "anchor_anomaly",
               lambda lb: [[v + 1 for v in row] for row in real(lb)])
    return zoo.check_poisson_extras(lb, CONFIG)


def iis_outside(mp):
    iis = flat_iis()
    outside(mp)
    return zoo.check_iis(iis, CONFIG)


def bialgebra_dot(mp):
    mp.setattr(zoo, "_dot", bumped(zoo._dot))
    return zoo.check_dirac_bialgebra(abelian_bialgebra(), CONFIG)


def bialgebra_bracket(mp):
    mp.setattr(CourantPresentation, "bracket",
               bumped(CourantPresentation.bracket))
    return zoo.check_dirac_bialgebra(abelian_bialgebra(), CONFIG)


def bialgebra_pairing(mp):
    mp.setattr(CourantPresentation, "pairing",
               bumped(CourantPresentation.pairing))
    return zoo.check_dirac_bialgebra(abelian_bialgebra(), CONFIG)


# scenario -> (the converted checks it fails, sha256 of the timing-free
# JSON of every result the call returns); recorded with the checks still
# written out as nested loops
PINS = {
    la_dirac: (
        ("la_dirac.rho_rhot_into_U", "la_dirac.basic_preserves_U",
         "la_dirac.basic_curvature_into_K", "la_dirac.delta_preserves_K"),
        "943db8e88b966351d8ca4035b2411e56559b842981f4405232e96e3b9a497246"),
    phi_skew: (("phi_skew",),
        "d0fcda2fe34460e50eaec1949173c6438cb7a9b2653d522ac4284ae03505d9e5"),
    manin_pairing: (("manin.isotropic",),
        "506d104b0d8c7a4ec8f49f5d29ab28fc6f741c99ed67045b1390533354b10577"),
    manin_perp: (("manin.self_perp",),
        "e2c2b74b196d98f0ef7a854bd5d044eedbcb1897e67da17244ad8883f1a94d19"),
    equivalence: (("equivalence.bracket",),
        "0fa583943662ac757ef647904aa83ef808c0e7437527d16a794cb2037d542d1c"),
    dirac_pairing: (("dirac.isotropic",),
        "4802a1140216c73cfd8e1facf3b6b67c0c71ba3a0430cc64976e5d51314812e8"),
    dirac_perp: (("dirac.self_perp",),
        "5bb6af2ead465ce85049233d866501ab8b39517132c2e95ed39d97cdfdad7e5e"),
    dorfman_table: (("dorfman.table_consistency",),
        "beb32ea0b71310dc4b0353bd98378026d28d36ee5eabb2695363a8b642022b0a"),
    extension_outside: (("extension.preserves_annihilator",),
        "629eee440db5eef040b6f449e205a8c4f4e6ba39666ec0b76066f9aba845ef0b"),
    extension_connection: (("extension.quotient_connection",),
        "60cb3afc577fda976535a5fe2912a95b1510200824feebaf1dedc6f2f406ff55"),
    poisson_anomaly: (("poisson.anchor_anomaly",),
        "8c9dae6ce310bc352482a4960ca99758389fef94cb81316ffe6a33b4a0edf521"),
    iis_outside: (
        ("iis.alt.flat", "iis.alt.basic_vector", "iis.alt.basic_section",
         "iis.alt.basic_curvature", "iis.def.ideal",
         "iis.def.bracket_parallel", "iis.def.anchor_parallel"),
        "8c356310d862114a6ac6bec4ec40968653658cf816fdfbd647cd4deb375530a6"),
    bialgebra_dot: (("bialgebra.cocycle",),
        "d9ebc30836687eeb7c4b9387f1f0c4d19d2c14db7123c2d77abe0062d49668e3"),
    bialgebra_bracket: (("bialgebra.phi_morphism",),
        "6d5b91031a7e31442cbdf4b512086d7e865b781e37c265b94f90b5e02b0b56b6"),
    bialgebra_pairing: (("bialgebra.phi_isotropic",
                         "bialgebra.pairing_compat"),
        "98140e4f97880b40622033eb45f7b47a467226508d7b699e77cb562d100e80ea"),
}


def planted(scenario, monkeypatch):
    """The timing-free result dicts of scenario, run under its plant."""
    with monkeypatch.context() as mp:
        results = scenario(mp)
    return [r.to_dict(timing=False) for r in results]


def digest(dicts):
    return hashlib.sha256(json.dumps(dicts).encode()).hexdigest()


@pytest.mark.parametrize("scenario", PINS, ids=lambda f: f.__name__)
def test_planted_failures_keep_their_witnesses(scenario, monkeypatch):
    targets, sha = PINS[scenario]
    dicts = planted(scenario, monkeypatch)
    by_name = {d["name"]: d for d in dicts}
    for name in targets:
        got = by_name[name]
        assert got["status"] == "fail" and got["witnesses"], name
        if len(got["witnesses"]) == MAX_WITNESSES:
            assert got["note"].endswith(TRUNCATED), name
    assert digest(dicts) == sha


@pytest.mark.parametrize("exc", [ValueError, ZeroDivisionError],
                         ids=lambda e: e.__name__)
def test_exception_in_a_frame_loop_is_an_error_result(exc, monkeypatch,
                                                      capsys):
    # a ValueError once ended the run with the exit code 2 of ill-formed
    # input, and any other type with a traceback
    def planted(*args):
        raise exc("planted")

    monkeypatch.setattr(bialgebroid, "basic_curvature", planted)
    assert cli.main(["check", "la-dirac", "poisson-xy", "--trials", "0"]) == 1
    checks = {c["name"]: c
              for c in json.loads(capsys.readouterr().out)["checks"]}
    bad = checks["la_dirac.basic_curvature_into_K"]
    assert (bad["status"], bad["note"], bad["witnesses"]) == \
        ("error", "%s: planted" % exc.__name__, [])
    # the checks after it still run
    for name in ("la_dirac.delta_preserves_K", "la_dirac.quotient_flat"):
        assert checks[name]["status"] == "pass"
    assert [c["status"] for c in checks.values()].count("error") == 1
