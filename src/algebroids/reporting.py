"""Check results, witnesses, and report assembly.

Every verifier in the package reports through this module: a check either
passes, fails with printed residual witnesses, is skipped because an
earlier check it depends on failed, or errors on ill-formed input.  The
per-check random stream is derived from (seed, check name), so checks can
run in any order, or concurrently, without changing their verdicts, and a
report is reproducible byte for byte apart from timings.

Every non-tensorial identity is tested on one kind of test set, built by
Check.tuples and nowhere else: first the fixed frame tuples, then
`trials` tuples drawn slot by slot from a fresh copy of the check's
stream.  Frame entries are labelled by a tag and an index (e0, u1, q2,
...; see labelled); drawn entries by trial and slot, "random#<t>.<slot>"
with slot 0/1/2, 1/2 or a letter, "random#<t>" for a single slot, or
"random<t>" in the zoo checks.  Function slots print the function itself.

A membership verdict is the zero test of Check.run, or, in a loop written
out by hand, Check.witness_outside: it witnesses a value that is not a
section of a subbundle and returns the membership coefficients of one
that is.

Every test set goes through one loop, Check.run: it evaluates the
residual on each tuple, zero-tests it and witnesses the ones that fail.
The frame tuples of a tensorial check are built from labelled lists with
itertools (product, combinations for i < j, combinations_with_replacement
for j >= i), and a membership test is passed as the zero test.  Written
out by hand are only the two test-set loops that feed two checks at once
and the few frame loops that fit no single residual with one zero test
(tests/test_hygiene.py names each).  An exception raised in Check.run,
or in either of the two test-set loops, does not end the suite: each
check the loop feeds records status "error" with the note
"<ExceptionType>: <message>" (Check.error), and the checks after it
still run.  So does a --max-degree over the patch's degree bound, which
random_scalar rejects before it lists a monomial, while Check.tuples
draws: the check's result is that error.

Settled rule: a check keeps at most MAX_WITNESSES witnesses, and the next
failure only sets the "further witnesses truncated" note.  From then on
its status, witnesses and note are fixed, so Check.settled is True and
Check.run stops there; the two hand-written loops that feed two checks
at once stop once both are settled.  Test sets are still drawn in full
up front, so no random stream moves.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from .bundles import membership

__all__ = ["CheckConfig", "Witness", "CheckResult", "Check", "Report",
           "labelled", "named"]

MAX_WITNESSES = 5


def labelled(tag, values):
    """Frame entries labelled by tag and index: [(tag0, v0), (tag1, v1)]."""
    return [("%s%d" % (tag, i), v) for i, v in enumerate(values)]


def named(*keys):
    """Witness inputs for Check.run under fixed keys, each printing the
    label of its entry: named("u", "tau") gives {"u": l0, "tau": l1}."""
    return lambda entries: {k: label for k, (label, _) in zip(keys, entries)}


@dataclass(frozen=True)
class CheckConfig:
    """Trial count, degree bound and seed for randomized identity checks."""

    seed: int = 0
    trials: int = 8
    max_degree: int = 2

    def __post_init__(self):
        for name in ("trials", "max_degree"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 0:
                raise ValueError("%s must be a non-negative integer, got %r"
                                 % (name, value))

    def rng_for(self, check_name):
        # string seeding hashes with sha512, so this is platform-stable
        return random.Random("%d:%s" % (self.seed, check_name))


@dataclass
class Witness:
    inputs: dict
    residual: str

    def to_dict(self):
        return {"inputs": dict(self.inputs), "residual": self.residual}


@dataclass
class CheckResult:
    name: str
    status: str                       # pass | fail | skipped | error
    witnesses: list = field(default_factory=list)
    note: str = ""
    seed: int = 0
    trials: int = 0
    max_degree: int = 0
    time_s: float = 0.0

    @property
    def passed(self):
        return self.status == "pass"

    @property
    def failed(self):
        return self.status in ("fail", "error")

    def to_dict(self, timing=True):
        d = {
            "name": self.name,
            "status": self.status,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "seed": self.seed,
            "trials": self.trials,
            "max_degree": self.max_degree,
        }
        if self.note:
            d["note"] = self.note
        if timing:
            d["time_s"] = round(self.time_s, 6)
        return d


class Check:
    """Accumulator for one named check.

    Usage: c = Check("courant.axiom_2", config); then
    c.run(c.tuples(...), residual) on a test set, or
    c.run(product(labelled("u", frame), repeat=2), residual, zero=...,
    inputs=named("u1", "u2")) on frame tuples.  The loops that run by hand
    record witnesses with c.witness(residual, c1=..., c2=...) and finish
    with c.result().  Once c.settled is True no further witness can change
    the result, and the loop over the test set stops (see the module
    docstring).
    """

    def __init__(self, name, config=None):
        self.name = name
        self.config = config or CheckConfig()
        self.witnesses = []
        self.note = ""
        self._t0 = time.perf_counter()
        self._truncated = False
        self._failure = None    # the exception that ended the draws

    def rng(self):
        return self.config.rng_for(self.name)

    def tuples(self, fixed, *slots):
        """The test set: the fixed labelled tuples, then for each trial t
        one tuple drawn slot by slot from a fresh rng(), where a slot
        (label, draw) contributes (label % t, draw(rng, max_degree)).
        With a single slot, entries are bare (label, value) pairs.  A
        degree over the patch's bound ends the draws, and result() is then
        the "error" result naming it."""
        out = list(fixed)
        rng = self.rng()
        try:
            for t in range(self.config.trials):
                drawn = tuple((label % t, draw(rng, self.config.max_degree))
                              for label, draw in slots)
                out.append(drawn if len(slots) > 1 else drawn[0])
        except ArithmeticError as exc:
            self._failure = exc
        return out

    def run(self, items, residual, zero=None, inputs=dict):
        """The one loop over a test set.  Each item is a (label, value)
        entry or a tuple of them; residual(*values) is witnessed with
        inputs(entries) unless zero(residual) holds (default: its
        is_zero()), and the loop stops once settled.  Returns result(),
        or an "error" result naming an exception raised on the way."""
        try:
            for item in items:
                entries = (item,) if isinstance(item[0], str) else item
                r = residual(*(value for _, value in entries))
                if not (r.is_zero() if zero is None else zero(r)):
                    self.witness(r, **inputs(entries))
                    if self.settled:
                        break
        except Exception as exc:
            return self.error(exc)
        return self.result()

    def error(self, exc):
        """The "error" result of a loop that exc ended."""
        return self.result("error", "%s: %s" % (type(exc).__name__, exc))

    def witness(self, residual, **inputs):
        if len(self.witnesses) >= MAX_WITNESSES:
            self._truncated = True
            return
        printed = {k: str(v) for k, v in inputs.items()}
        self.witnesses.append(Witness(printed, str(residual)))

    def witness_outside(self, value, sub, **inputs):
        """Witness value unless it is a section of the subbundle sub;
        returns its coefficients over the frame of sub, or None."""
        inside, data = membership(value, sub)
        if inside:
            return data
        self.witness(value, **inputs)
        return None

    @property
    def settled(self):
        """MAX_WITNESSES witnesses are held and a further failure set the
        truncation note: the result can no longer change."""
        return self._truncated

    def result(self, status=None, note=None):
        if status is None:
            if self._failure is not None:
                return self.error(self._failure)
            status = "fail" if self.witnesses else "pass"
        n = note if note is not None else self.note
        if self._truncated:
            n = (n + "; " if n else "") + "further witnesses truncated"
        return CheckResult(
            name=self.name, status=status, witnesses=self.witnesses,
            note=n, seed=self.config.seed, trials=self.config.trials,
            max_degree=self.config.max_degree,
            time_s=time.perf_counter() - self._t0)

    def skipped(self, why):
        return self.result(status="skipped", note=why)


class Report:
    """An order-stable collection of check results for one suite run."""

    SCHEMA = 1

    def __init__(self, suite, instance=None, config=None):
        self.suite = suite
        self.instance = instance
        self.config = config or CheckConfig()
        self.results = []

    def add(self, *results):
        for r in results:
            if isinstance(r, (list, tuple)):
                self.results.extend(r)
            else:
                self.results.append(r)

    def sorted_results(self):
        return sorted(self.results, key=lambda r: r.name)

    @property
    def all_passed(self):
        """The one pass rule, behind the JSON field, the text result line
        and the CLI exit code: no result has status fail or error.  Skips
        do not count against it."""
        return not any(r.failed for r in self.results)

    def to_dict(self, timing=True):
        return {
            "schema": self.SCHEMA,
            "suite": self.suite,
            "instance": self.instance,
            "seed": self.config.seed,
            "trials": self.config.trials,
            "max_degree": self.config.max_degree,
            "all_passed": self.all_passed,
            "checks": [r.to_dict(timing=timing) for r in self.sorted_results()],
        }

    def to_json(self, timing=True):
        return json.dumps(self.to_dict(timing=timing), indent=2) + "\n"

    def to_text(self, timing=True):
        lines = ["suite: %s" % self.suite]
        if self.instance:
            lines.append("instance: %s" % self.instance)
        lines.append("seed=%d trials=%d max_degree=%d"
                     % (self.config.seed, self.config.trials,
                        self.config.max_degree))
        for r in self.sorted_results():
            stamp = ("  [%6.3fs]" % r.time_s) if timing else ""
            lines.append("%-8s %s%s" % (r.status.upper(), r.name, stamp))
            if r.note:
                lines.append("         note: %s" % r.note)
            for w in r.witnesses:
                ins = ", ".join("%s=%s" % kv for kv in sorted(w.inputs.items()))
                lines.append("         witness: %s" % ins)
                lines.append("           residual: %s" % w.residual)
        lines.append("result: %s" % ("PASS" if self.all_passed else "FAIL"))
        return "\n".join(lines) + "\n"
