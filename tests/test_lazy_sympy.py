"""No run of the package loads sympy.

Polynomial values are dicts of Python ints, every other value a pair of
them cancelled by an integer gcd, and the parser and printer work on both.
So importing the package, building and emitting the presets, running
`algebroids zoo`, the lemma suite on the poisson-xy triple, the quotient
Courant checks on the rational instance (x^2 + 1)/y and `check all` on
every preset at trials 0 and 8 load no sympy.  Each case runs in a fresh
interpreter, because the test process itself has sympy loaded (the other
tests use it as an oracle)."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from algebroids import instances, zoo

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the presets the zoo-cli benchmark emits in its set-up
EMITTED = ("nonclosed-zdxdy", "iis-curved-negative", "aff1-bialgebra")


def _run(script):
    """Run script in a fresh interpreter; return its stdout lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_polynomial_presets_and_zoo_run_load_no_sympy():
    out = _run("""
        import contextlib, io, sys
        loaded = lambda: "sympy" in sys.modules
        import algebroids
        from algebroids import cli, instances, zoo
        print("import", loaded())
        for name in %r:
            text = instances.emit_instance(zoo.zoo_preset(name))
            instances.ingest_text(text)
        print("emit", loaded())
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["zoo", "aff1-bialgebra"])
        print("zoo", code, loaded())
    """ % (EMITTED,))
    assert out == ["import", "False", "emit", "False", "zoo", "0", "False"]


def test_poisson_triple_and_its_lemma_suite_load_no_sympy():
    # the frame of the graph of rho_* is certified by fraction-free
    # elimination, whose divisions are exact in Z[x]
    out = _run("""
        import sys
        loaded = lambda: "sympy" in sys.modules
        from algebroids import bialgebroid, cli, instances, reporting, zoo
        data = instances.instance_from_preset(zoo.zoo_preset("poisson-xy"))
        triple = cli._triple_of(data)
        print("triple", loaded())
        bialgebroid.verify_appendix_lemmas(
            triple, reporting.CheckConfig(seed=0, trials=0))
        print("lemmas", loaded())
        report = cli.run("poisson-xy", "lemmas", trials=0)
        print("run", report.all_passed, loaded())
    """)
    assert out == ["triple", "False", "lemmas", "False",
                   "run", "True", "False"]


def test_rational_instance_and_every_preset_load_no_sympy():
    # the quotient-rational round divides by (x^2 + 1)/y, and poisson-xy
    # and nonclosed-zdxdy divide by non-constant pivots in rref
    out = _run("""
        import sys
        loaded = lambda: "sympy" in sys.modules
        from algebroids import bialgebroid, cli, courant, instances, reporting
        data = instances.ingest_text(
            "[patch]\\ncoords = x, y\\n\\n[pi]\\n0,1 = (x^2 + 1)/y\\n")
        print("ingest", loaded(), str(data.pi[0][1]).replace(" ", ""))
        config = reporting.CheckConfig(seed=0, trials=0)
        mp = bialgebroid.build_courant_C(cli._triple_of(data), config,
                                         verify=False)
        results = courant.check_courant_axioms(mp.C, config)
        print("quotient", all(r.status == "pass" for r in results), loaded())
        for name in %r:
            for trials in (0, 8):
                report = cli.run(name, "all", trials=trials)
                print(name, trials, report.all_passed, loaded())
    """ % (sorted(zoo.ZOO_PRESETS),))
    assert out[:6] == ["ingest", "False", "(x^2+1)/(y)",
                       "quotient", "True", "False"]
    failing = {"iis-curved-negative", "nonclosed-zdxdy"}
    assert out[6:] == [
        word for name in sorted(zoo.ZOO_PRESETS) for trials in ("0", "8")
        for word in (name, trials, str(name not in failing), "False")]


@pytest.mark.parametrize("name", sorted(zoo.ZOO_PRESETS))
def test_emitted_file_is_a_fixed_point_of_ingest(name):
    # emit -> ingest -> emit gives the same bytes, so the printer and the
    # parser invert each other on every value a preset file holds
    text = instances.emit_instance(zoo.zoo_preset(name))
    back = instances.ingest_text(text)
    assert instances.emit_instance(back.to_zoo_dict()) == text
