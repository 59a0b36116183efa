"""Command line front end.

    algebroids check <suite> <instance> [flags]
    algebroids zoo <preset> [--emit FILE] [flags]
    algebroids lemmas <instance> [flags]
    algebroids build-manin <instance> --out FILE [flags]

<instance> is an instance file path or the name of a zoo preset.  The
suites are courant, dirac, la-dirac, manin, lemmas, bialgebroid, iis,
im2form, bialgebra and all; each one runs on whatever declarations in
the file can feed it (a [triple] section, or a kind that derives one,
and so on).  `zoo` without --emit runs the preset's full pipeline;
with --emit it writes the preset as an instance file and does nothing
else.  `build-manin` constructs the Courant algebroid of an LA-Dirac
triple and serializes its frames, pairing and bracket table to a file
whose [courant.C] section can be re-checked with `check courant`.

Exit codes: 0 every check passed (skips allowed), 1 at least one check
failed or errored, 2 ill-formed input.  Reports are deterministic for a fixed
(instance, suite, seed, trials, max degree) up to the timing fields.

The argument parser is built once per process, on the first `main` call,
and reused by every later one: `parse_args` returns a new Namespace each
time and keeps no state in the parser.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .reporting import CheckConfig, Report
from .algebroid import tangent_algebroid
from .courant import (check_courant_axioms, check_dirac, dirac_from_2form,
                      dirac_from_poisson, standard_courant)
from .bialgebroid import (bialgebroid_from_triple, bialgebroids_equivalent,
                          build_courant_C, check_la_dirac, check_manin_pair,
                          triple_from_bialgebroid, verify_appendix_lemmas)
from .zoo import (AbarAlgebroid, ZOO_PRESETS, bialgebroid_from_im2form,
                  bialgebroid_from_iis, bialgebroid_from_lie_bialgebroid,
                  check_abar, check_dirac_bialgebra, check_iis,
                  check_im2form, courant_double, iis_triple,
                  poisson_bialgebroid, poisson_triple, presymplectic_triple,
                  run_zoo_pipeline, sigma_from_2form, zoo_preset)
from .instances import (InstanceError, emit_courant, emit_instance, ingest,
                        instance_from_preset)

__all__ = ["SUITES", "run", "main"]

SUITES = ("courant", "dirac", "la-dirac", "manin", "lemmas", "bialgebroid",
          "iis", "im2form", "bialgebra", "all")


# ---- deriving suite inputs from an instance ---------------------------


# (the instance fields an input derives from, in priority order; the
# message when an instance sets none of them)
_SIGMA = (("sigma", "omega"), "this suite needs a [sigma] or [omega] section")
_TRIPLE = (("triple", "iis", "pi") + _SIGMA[0],
           "this suite needs a [triple] section, or [iis], [pi], [sigma] or "
           "[omega] data to derive one from")
_BIALGEBROID = (("bialgebroid",) + _TRIPLE[0],
                "the bialgebroid suite needs a [bialgebroid] section, or "
                "[iis], [pi], [sigma] or [omega] data")

# The one table of what each suite derives its input from; courant runs on
# any instance, and dirac on the candidates of _dirac_candidates.
_NEEDS = {
    "la-dirac": _TRIPLE, "manin": _TRIPLE, "lemmas": _TRIPLE,
    "bialgebroid": _BIALGEBROID,
    "iis": (("iis",), "the iis suite needs an [iis] section"),
    "im2form": _SIGMA,
    "bialgebra": (("bialgebra",),
                  "the bialgebra suite needs a [bialgebra] section"),
}


def _source(data, needs):
    """The first field in needs that data sets; InstanceError with the
    message of needs when it sets none."""
    fields, message = needs
    for f in fields:
        if getattr(data, f) is not None:
            return f
    raise InstanceError(message)


def _sigma_of(data):
    if _source(data, _SIGMA) == "sigma":
        return data.sigma
    return (tangent_algebroid(data.patch),
            sigma_from_2form(data.patch, data.omega))


def _triple_of(data):
    """An LA-Dirac triple: explicit [triple], or derived from the
    structured data in priority order iis, pi, sigma/omega."""
    source = _source(data, _TRIPLE)
    if source == "triple":
        return data.triple
    if source == "iis":
        return iis_triple(data.iis)
    if source == "pi":
        return poisson_triple(poisson_bialgebroid(data.patch, data.pi))
    return presymplectic_triple(*_sigma_of(data))


def _bialgebroid_of(data):
    source = _source(data, _BIALGEBROID)
    if source == "bialgebroid":
        return data.bialgebroid
    if source == "triple":
        return bialgebroid_from_triple(data.triple)
    if source == "iis":
        return bialgebroid_from_iis(data.iis, verify=False)[0]
    if source == "pi":
        lb = poisson_bialgebroid(data.patch, data.pi)
        return bialgebroid_from_lie_bialgebroid(lb, verify=False)[0]
    return bialgebroid_from_im2form(*_sigma_of(data))[0]


def _suite_courant(data, config):
    if data.courants:
        results = []
        lone = len(data.courants) == 1
        for name in sorted(data.courants):
            prefix = "courant" if lone else "courant.%s" % name
            results += check_courant_axioms(data.courants[name], config,
                                            prefix=prefix)
        return results
    if data.pi is not None:
        C = courant_double(poisson_bialgebroid(data.patch, data.pi))
    else:
        C = standard_courant(data.patch)
    return check_courant_axioms(C, config)


def _dirac_candidates(data):
    out = [(name, sub) for name, sub in sorted(data.subbundles.items())
           if sub.ambient.name == "TM+T*M"]
    if data.pi is not None:
        out.append(("pi", dirac_from_poisson(data.patch, data.pi)))
    if data.omega is not None:
        out.append(("omega", dirac_from_2form(data.patch, data.omega)))
    return out


def _suite_dirac(data, config):
    candidates = _dirac_candidates(data)
    if not candidates:
        raise InstanceError("the dirac suite needs a [subbundle] of "
                            "TM+T*M, or [pi] or [omega] data")
    C = standard_courant(data.patch)
    results = []
    for label, sub in candidates:
        prefix = "dirac" if len(candidates) == 1 else "dirac.%s" % label
        results += check_dirac(C, sub, config, prefix=prefix)
    return results


def _suite_la_dirac(data, config):
    return check_la_dirac(_triple_of(data), config)


def _suite_manin(data, config):
    triple = _triple_of(data)
    try:
        mp = build_courant_C(triple, config, verify=False)
    except (ValueError, RuntimeError) as e:
        raise InstanceError("cannot build the Manin pair: %s" % e) from None
    return check_manin_pair(mp, config)


def _suite_lemmas(data, config):
    return verify_appendix_lemmas(_triple_of(data), config)


def _suite_bialgebroid(data, config):
    db = _bialgebroid_of(data)
    triple = triple_from_bialgebroid(db, config)
    results = list(triple.extension_checks)
    results += check_la_dirac(triple, config, prefix="bialgebroid.la_dirac")
    results += bialgebroids_equivalent(db, bialgebroid_from_triple(triple),
                                       config,
                                       prefix="bialgebroid.round_trip")
    return results


def _suite_iis(data, config):
    _source(data, _NEEDS["iis"])
    results = check_iis(data.iis, config)
    return results + check_abar(AbarAlgebroid(data.iis), config,
                                iis_results=results)


def _suite_im2form(data, config):
    alg, sigma = _sigma_of(data)
    return check_im2form(alg, sigma, config)


def _suite_bialgebra(data, config):
    _source(data, _NEEDS["bialgebra"])
    return check_dirac_bialgebra(data.bialgebra, config)


_SUITE_FNS = {
    "courant": _suite_courant,
    "dirac": _suite_dirac,
    "la-dirac": _suite_la_dirac,
    "manin": _suite_manin,
    "lemmas": _suite_lemmas,
    "bialgebroid": _suite_bialgebroid,
    "iis": _suite_iis,
    "im2form": _suite_im2form,
    "bialgebra": _suite_bialgebra,
}


def _runnable(data, suite):
    if suite == "dirac":
        return bool(_dirac_candidates(data))
    return suite not in _NEEDS or any(
        getattr(data, f) is not None for f in _NEEDS[suite][0])


def _suite_all(data, config):
    if data.requested:
        bad = [s for s in data.requested if s not in _SUITE_FNS]
        if bad:
            raise InstanceError("unknown suite %r in the checks list; "
                                "suites: %s" % (bad[0],
                                                ", ".join(SUITES[:-1])))
        chosen = [s for s in SUITES if s in data.requested]
    elif data.kind:
        return run_zoo_pipeline(data.to_zoo_dict(), config)
    else:
        chosen = [s for s in SUITES[:-1] if _runnable(data, s)]
    results = []
    for suite in chosen:
        results += _SUITE_FNS[suite](data, config)
    return results


def run(instance, suite, seed=0, trials=8, max_degree=2):
    """Run one suite over an instance (an InstanceData, a zoo preset
    dict, or a preset name) and return the Report."""
    if isinstance(instance, str):
        instance = instance_from_preset(zoo_preset(instance))
    elif isinstance(instance, dict):
        instance = instance_from_preset(instance)
    if suite not in SUITES:
        raise InstanceError("unknown suite %r; suites: %s"
                            % (suite, ", ".join(SUITES)))
    config = CheckConfig(seed=seed, trials=trials, max_degree=max_degree)
    report = Report(suite, instance=instance.name or None, config=config)
    if suite == "all":
        report.add(_suite_all(instance, config))
    else:
        report.add(_SUITE_FNS[suite](instance, config))
    return report


# ---- argument handling -------------------------------------------------


def _resolve(arg):
    if os.path.exists(arg):
        return ingest(arg)
    if arg in ZOO_PRESETS:
        return instance_from_preset(zoo_preset(arg))
    raise InstanceError("no such file or zoo preset: %r (presets: %s)"
                        % (arg, ", ".join(sorted(ZOO_PRESETS))))


def _count(text):
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            "expected a non-negative integer, got %r" % text)
    return int(text)


def _add_flags(p, with_out=True):
    p.add_argument("--trials", type=_count, default=8,
                   help="random trials per identity check (default 8)")
    p.add_argument("--max-degree", type=_count, default=2, dest="max_degree",
                   help="degree bound for random polynomial data")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the per-check random streams")
    if with_out:
        p.add_argument("--out", default=None, metavar="FILE",
                       help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="report format (default json)")


@functools.cache
def _build_parser():
    """The parser of every verb, built on the first call and shared by all
    later ones.  Sharing it is safe: parse_args keeps no state in the
    parser, and argparse makes a new formatter for each usage or help
    message."""
    parser = argparse.ArgumentParser(
        prog="algebroids",
        description="exact checks for Courant algebroids, Dirac "
                    "structures and Dorfman connections")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="run one check suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("instance", help="instance file or zoo preset name")
    _add_flags(p)

    p = sub.add_parser("zoo", help="run a preset pipeline or export it")
    p.add_argument("preset")
    p.add_argument("--emit", default=None, metavar="FILE",
                   help="write the preset as an instance file and exit")
    _add_flags(p)

    p = sub.add_parser("lemmas", help="run the lemma suite on a triple")
    p.add_argument("instance")
    _add_flags(p)

    p = sub.add_parser("build-manin",
                       help="build the Courant algebroid of an LA-Dirac "
                            "triple and serialize it")
    p.add_argument("instance")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--name", default="C",
                   help="section name for the serialized algebroid")
    _add_flags(p, with_out=False)
    return parser


def _write_report(report, args):
    if args.format == "json":
        rendered = report.to_json()
    else:
        rendered = report.to_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return 0 if report.all_passed else 1


def _dispatch(args):
    if args.verb == "zoo":
        if args.emit:
            text = emit_instance(zoo_preset(args.preset))
            with open(args.emit, "w") as fh:
                fh.write(text)
            print("wrote %s" % args.emit)
            return 0
        data = instance_from_preset(zoo_preset(args.preset))
        report = run(data, "all", seed=args.seed, trials=args.trials,
                     max_degree=args.max_degree)
        return _write_report(report, args)
    if args.verb in ("check", "lemmas"):
        suite = args.suite if args.verb == "check" else "lemmas"
        data = _resolve(args.instance)
        report = run(data, suite, seed=args.seed, trials=args.trials,
                     max_degree=args.max_degree)
        return _write_report(report, args)
    # build-manin
    data = _resolve(args.instance)
    triple = _triple_of(data)
    config = CheckConfig(seed=args.seed, trials=args.trials,
                         max_degree=args.max_degree)
    try:
        mp = build_courant_C(triple, config, verify=True)
    except (ValueError, RuntimeError) as e:
        raise InstanceError(str(e)) from None
    text = emit_courant(args.name, mp.C, instance_name=data.name)
    with open(args.out, "w") as fh:
        fh.write(text)
    print("wrote %s" % args.out)
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except InstanceError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except (KeyError, ValueError, OSError) as e:
        msg = e.args[0] if e.args else e
        print("error: %s" % msg, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
