"""A check stops once its report is settled, and the IIS pipeline builds
its quotient once.

Check.settled turns True when MAX_WITNESSES witnesses are held and one
more failure has set the truncation note; every loop over a test set
then stops.  Nothing after that point can change a byte of the report,
so the reports with the stop must equal the reports with every loop run
to its end.  The stop must also save work: a planted algebroid that fails
Jacobi on many frame triples makes fewer bracket evaluations with it.

The iis pipeline runs check_iis once and builds one AbarAlgebroid, whose
reduced algebroid is built once and shared by check_abar and
bialgebroid_from_iis; the iis suite runs check_iis once too.
"""

import pytest

from algebroids import algebroid, cli, zoo
from algebroids.algebroid import AnchoredBundle, DullAlgebroid, check_jacobi
from algebroids.bundles import TrivialBundle
from algebroids.reporting import MAX_WITNESSES, Check, CheckConfig
from algebroids.scalars import Patch

TRUNCATED = "further witnesses truncated"


def never_settled(monkeypatch):
    monkeypatch.setattr(Check, "settled", property(lambda self: False))


@pytest.mark.parametrize("trials", [0, 2])
@pytest.mark.parametrize("preset", ["nonclosed-zdxdy", "iis-curved-negative"])
def test_stop_changes_no_report_byte(monkeypatch, preset, trials):
    stopped = cli.run(preset, "all", trials=trials).to_dict(timing=False)
    assert any(TRUNCATED in c.get("note", "") for c in stopped["checks"])
    never_settled(monkeypatch)
    full = cli.run(preset, "all", trials=trials).to_dict(timing=False)
    assert stopped == full


def non_jacobi():
    """Zero anchor and [e0, e1] = e0, [e1, e2] = e1, [e2, e0] = e2: the
    Jacobiator is nonzero on many frame triples."""
    patch = Patch(["x", "y"])
    A = TrivialBundle(patch, 3, "A")
    e, z = A.basis_sections(), A.zero_section()
    table = [[z, e[0], -e[2]], [-e[0], z, e[1]], [e[2], -e[1], z]]
    anchor = [[patch.zero] * 3 for _ in range(patch.dim)]
    return DullAlgebroid(AnchoredBundle(A, anchor), table)


def jacobi_calls(monkeypatch):
    """(result dict, bracket_eval calls) of check_jacobi on non_jacobi()."""
    calls = [0]
    real = algebroid.bracket_eval

    def counting(*args):
        calls[0] += 1
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(algebroid, "bracket_eval", counting)
        result = check_jacobi(non_jacobi(), CheckConfig(seed=0, trials=2))
    return result.to_dict(timing=False), calls[0]


def test_jacobi_stops_once_settled(monkeypatch):
    stopped, stopped_calls = jacobi_calls(monkeypatch)
    assert len(stopped["witnesses"]) == MAX_WITNESSES
    assert stopped["note"] == TRUNCATED
    never_settled(monkeypatch)
    full, full_calls = jacobi_calls(monkeypatch)
    assert stopped == full
    assert stopped_calls < full_calls


def test_settled_only_after_the_truncating_failure():
    check = Check("c")
    for i in range(MAX_WITNESSES):
        check.witness(i)
        assert not check.settled
    check.witness(MAX_WITNESSES)
    assert check.settled
    assert check.result().note == TRUNCATED


def test_iis_pipeline_builds_one_quotient(monkeypatch):
    instance = zoo.zoo_preset("iis-curved-negative")
    iis = instance["iis"]
    quotients, iis_runs = [], [0]
    real_init, real_check_iis = zoo.AbarAlgebroid.__init__, zoo.check_iis

    def recording_init(self, data):
        real_init(self, data)
        quotients.append(self)

    def counting_check_iis(*args, **kwargs):
        iis_runs[0] += 1
        return real_check_iis(*args, **kwargs)

    monkeypatch.setattr(zoo.AbarAlgebroid, "__init__", recording_init)
    monkeypatch.setattr(zoo, "check_iis", counting_check_iis)
    results = zoo.run_zoo_pipeline(instance, CheckConfig(seed=0, trials=0))
    jacobi = next(r for r in results if r.name == "abar.jacobi")
    assert jacobi.status == "fail"
    assert jacobi.note.startswith("ideal system conditions failing: iis.")
    assert iis_runs[0] == 1
    # the other quotient is check_abar's perturbed extension
    ours = [q for q in quotients if q.iis is iis]
    assert len(ours) == 1
    red = ours[0]._reduced
    assert red is not None and ours[0].reduced() is red


def test_check_abar_reads_the_given_iis_results():
    iis = zoo.zoo_preset("iis-curved-negative")["iis"]
    config = CheckConfig(seed=0, trials=0)
    own = zoo.check_abar(zoo.AbarAlgebroid(iis), config)
    given = zoo.check_abar(zoo.AbarAlgebroid(iis), config,
                           iis_results=zoo.check_iis(iis, config))
    assert [r.to_dict(timing=False) for r in own] == \
        [r.to_dict(timing=False) for r in given]


def test_iis_suite_runs_check_iis_once(monkeypatch):
    # the suite hands its own check_iis results to check_abar, whose
    # failing Jacobi check names them; the cli and zoo names are one
    # function
    runs = [0]
    real = zoo.check_iis

    def counting(*args, **kwargs):
        runs[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(zoo, "check_iis", counting)
    monkeypatch.setattr(cli, "check_iis", counting)
    report = cli.run("iis-curved-negative", "iis", trials=0)
    jacobi = next(r for r in report.results if r.name == "abar.jacobi")
    assert jacobi.note.startswith("ideal system conditions failing: iis.")
    assert runs[0] == 1


def test_bialgebroid_from_iis_refuses_another_quotient():
    iis = zoo.zoo_preset("iis-curved-negative")["iis"]
    other = zoo.zoo_preset("foliation-x")["iis"]
    with pytest.raises(ValueError):
        zoo.bialgebroid_from_iis(iis, verify=False,
                                 abar=zoo.AbarAlgebroid(other))
