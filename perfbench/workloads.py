"""The three workloads: how each builds its inputs and runs one round.

A round is one user-visible verdict: the lemma suite on a triple, the
quotient Courant checks on a rational instance, or three `algebroids check
all` commands.  It returns the rendered JSON reports (and, on zoo-cli, the
exit codes); `verdicts()` turns them into the timing-free check dicts.

Package functions are looked up on their modules at call time, so a
`Tracer` installed between rounds sees every call.
"""

from __future__ import annotations

import json
import os

from expected import ZOO_EXIT

QUOTIENT_RATIONAL = """\
[instance]
name = poisson-rational
kind = poisson

[patch]
coords = x, y

[pi]
0,1 = (x^2 + 1)/y
"""


def _render(suite, instance, config, results):
    from algebroids import reporting
    report = reporting.Report(suite, instance=instance, config=config)
    report.add(results)
    return report.to_json()


class Lemmas:
    """verify_appendix_lemmas on the poisson-xy triple."""

    name = "lemmas"
    trials = 1

    def setup(self, workdir):
        from algebroids import cli, instances, zoo
        data = instances.instance_from_preset(zoo.zoo_preset("poisson-xy"))
        return cli._triple_of(data)

    def run(self, triple, config):
        from algebroids import bialgebroid
        results = bialgebroid.verify_appendix_lemmas(triple, config)
        return [("poisson-xy",
                 _render("lemmas", "poisson-xy", config, results))], []


class QuotientRational:
    """build_courant_C + check_courant_axioms on the quotient carrier of
    the Poisson instance with pi = (x^2 + 1)/y."""

    name = "quotient-rational"
    trials = 0

    def setup(self, workdir):
        from algebroids import cli, instances
        return cli._triple_of(instances.ingest_text(QUOTIENT_RATIONAL))

    def run(self, triple, config):
        from algebroids import bialgebroid, courant
        mp = bialgebroid.build_courant_C(triple, config, verify=False)
        results = courant.check_courant_axioms(mp.C, config)
        return [("poisson-rational",
                 _render("courant", "poisson-rational", config, results))], []


class ZooCli:
    """`algebroids check all <file>` on three emitted preset files."""

    name = "zoo-cli"
    trials = 1

    def setup(self, workdir):
        from algebroids import instances, zoo
        paths = {}
        for preset in ZOO_EXIT:
            paths[preset] = os.path.join(workdir, preset + ".inst")
            with open(paths[preset], "w") as fh:
                fh.write(instances.emit_instance(zoo.zoo_preset(preset)))
        return paths

    def run(self, paths, config):
        from algebroids import cli
        outs, exits = [], []
        for preset, path in paths.items():
            out = path[:-len(".inst")] + ".json"
            code = cli.main(["check", "all", path,
                             "--seed", str(config.seed),
                             "--trials", str(config.trials),
                             "--max-degree", str(config.max_degree),
                             "--out", out])
            exits.append((preset, code))
            outs.append((preset, out))
        reports = []
        for preset, out in outs:
            with open(out) as fh:
                reports.append((preset, fh.read()))
            os.remove(out)
        return reports, exits


WORKLOADS = {w.name: w for w in (Lemmas(), QuotientRational(), ZooCli())}


def canonical(d):
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def verdicts(reports):
    """[(key, timing-free dict, time_s)] for every check and report header.

    A key is "<instance>/<check name>", or "<instance>/#report" for the
    report's own fields (suite, seed, trials, all_passed, ...)."""
    out = []
    for instance, text in reports:
        doc = json.loads(text)
        checks = doc.pop("checks")
        out.append(("%s/#report" % instance, doc, 0.0))
        for check in checks:
            time_s = check.pop("time_s")
            out.append(("%s/%s" % (instance, check["name"]), check, time_s))
    return out
