#!/usr/bin/env python3
"""Benchmark of the algebroids package: time to a certified verdict.

    python3 perfbench/run.py --workload lemmas --seed 3 --seconds 35 --trace 0
    python3 perfbench/run.py --workload zoo-cli --seed 3 --seconds 35 --trace 1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-reference --workload lemmas --out FILE

Run from the repository root (any directory works; paths are resolved
from this file).  The package is imported from ../src only.

--trace 0 repeats rounds of the workload while the next one is expected
to end within --seconds (at least MIN_ROUNDS), round k at config seed
(seed + k) mod RECORDED_SEEDS, and prints the end-to-end metrics, with
times rescaled by the calibration loop.  --trace 1 runs three rounds at config
seed seed mod RECORDED_SEEDS (traced, untraced, traced), checks that the
traced rounds reproduce the untraced report byte for byte and repeat
every count exactly, and prints the per-layer metrics of the last one.
Every round's timing-free check dicts are compared with the hand-written
verdict table (expected.py) and the seed-commit byte reference
(reference.json).  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from expected import ZOO_EXIT, expected_status
from workloads import WORKLOADS, canonical, verdicts

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
TRACE_DIR = os.path.join(HERE, "traces")

RECORDED_SEEDS = 8      # reference.json holds config seeds 0..7
MIN_ROUNDS = 2
SETUP_SAMPLES = 5
MAX_DEGREE = 2
SMOKE_TRIALS = 0
# median of calibrate() on the baseline machine (see baseline.json)
CALIBRATION_REF_S = 0.35

clock = time.perf_counter


def import_package():
    """Import algebroids from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "algebroids", "__init__.py")):
        sys.stderr.write("error: no algebroids package under %s\n" % SRC)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import algebroids
    if not os.path.abspath(algebroids.__file__).startswith(SRC + os.sep):
        sys.stderr.write("error: algebroids imported from %s, not %s\n"
                         % (algebroids.__file__, SRC))
        sys.exit(2)
    return algebroids


def digest(d):
    return hashlib.sha256(canonical(d).encode()).hexdigest()[:32]


def ref_key(workload, trials, seed):
    return "%s/trials=%d/seed=%d" % (workload, trials, seed)


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


# ---- rounds -------------------------------------------------------------


class Round:
    """One timed call of a workload and its checked verdicts."""

    def __init__(self, wl, trials, seed, workdir, tracer=None):
        from algebroids.reporting import CheckConfig
        self.trials, self.seed = trials, seed
        config = CheckConfig(seed=seed, trials=trials, max_degree=MAX_DEGREE)
        inputs = wl.setup(workdir)
        if tracer is not None:
            tracer.install()
        t0 = clock()
        self.error = None
        reports, self.exits = [], []
        try:
            reports, self.exits = wl.run(inputs, config)
        except Exception as e:  # a crash is a failed verdict, not a result
            self.error = "%s: %s" % (type(e).__name__, e)
        finally:
            self.verdict_s = clock() - t0
            if tracer is not None:
                tracer.uninstall()
        self.verdicts = verdicts(reports)

    def timing_free(self):
        return [(key, canonical(d)) for key, d, _ in self.verdicts] \
            + [(preset, str(code)) for preset, code in self.exits]

    def check(self, reference, wl_name):
        """(attempted, failed, problems) against the verdict table, the
        byte reference and the expected exit codes."""
        ref = reference.get(ref_key(wl_name, self.trials, self.seed))
        problems = []
        if ref is None:
            problems.append("no reference for %s"
                            % ref_key(wl_name, self.trials, self.seed))
            ref = {}
        if self.error:
            problems.append("round raised %s" % self.error)
        attempted = failed = 0
        for key, d, _ in self.verdicts:
            attempted += 1
            why = None
            if not key.endswith("/#report") \
                    and d["status"] != expected_status(key):
                why = "status %s, expected %s" % (d["status"],
                                                  expected_status(key))
            elif key not in ref or digest(d) != ref[key][2]:
                why = "timing-free dict differs from the reference"
            if why:
                failed += 1
                problems.append("%s: %s" % (key, why))
        seen = {key for key, _, _ in self.verdicts}
        for key in ref:
            if key not in seen:
                attempted += 1
                failed += 1
                problems.append("%s: missing" % key)
        for preset, code in self.exits:
            attempted += 1
            if code != ZOO_EXIT[preset]:
                failed += 1
                problems.append("%s: exit %d, expected %d"
                                % (preset, code, ZOO_EXIT[preset]))
        return attempted, failed, problems


# ---- set-up time ----------------------------------------------------------


def setup_probe(workload):
    """Child side: import the package and build the inputs once."""
    t0 = clock()
    import_package()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        WORKLOADS[workload].setup(workdir)
        elapsed = clock() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def calibrate():
    """Seconds for a fixed piece of sympy rational-function arithmetic that
    does not touch algebroids: the machine's speed at this moment."""
    from sympy import QQ
    from sympy.polys.fields import field
    K, x, y = field("x,y", QQ)
    f = (x**2 + 1) / y
    g = x * y - 3
    gc.disable()    # a collection of the caller's heap is not machine speed
    try:
        t0 = clock()
        acc = K.zero
        for i in range(150):
            acc = acc + f * g - (g + i) / (f + 1)
            if i % 20 == 0:
                acc = K.zero
        return clock() - t0
    finally:
        gc.enable()


class Rescaler:
    """Rescale wall times to reference seconds: the time a span would take
    on a machine where calibrate() takes CALIBRATION_REF_S.

    On a shared machine the speed of the same code drifts by 20-30% over
    minutes; a calibration before and after each timed span follows that
    drift, so the rescaled time keeps only the program's own changes."""

    def __init__(self):
        self.last = calibrate()

    def __call__(self, wall_s):
        """Rescale a span that ended just now; calibrates again."""
        before, self.last = self.last, calibrate()
        return wall_s * CALIBRATION_REF_S / ((before + self.last) / 2)


def measure_setup(workload, samples, rescale):
    """Median set-up time over fresh interpreter processes, rescaled."""
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return statistics.median(times) * rescale(1.0)


# ---- the two kinds of run ------------------------------------------------


def end_to_end(wl, seed, seconds, trials, workdir, reference,
               min_rounds=MIN_ROUNDS, setup_samples=SETUP_SAMPLES):
    rescale = Rescaler()
    setup_s = measure_setup(wl.name, setup_samples, rescale)
    attempted = failed = 0
    problems, walls, times, steps = [], [], [], []
    rss_kb = None
    start = clock()
    # stop before a round that would likely end after `seconds`
    while len(times) < min_rounds or \
            clock() - start + statistics.mean(steps) <= seconds:
        step_start = clock()
        config_seed = (seed + len(times)) % RECORDED_SEEDS
        r = Round(wl, trials, config_seed, workdir)
        walls.append(r.verdict_s)
        times.append(rescale(r.verdict_s))
        a, f, p = r.check(reference, wl.name)
        attempted, failed = attempted + a, failed + f
        problems += p
        steps.append(clock() - step_start)
        if len(times) == min_rounds:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print("%s: %d rounds from config seed %d; wall s %s; rescaled s %s"
          % (wl.name, len(times), seed % RECORDED_SEEDS,
             ["%.3f" % t for t in walls], ["%.3f" % t for t in times]))
    metrics = {
        "verdict_s": (statistics.median(times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "check_pass_share": (1.0 - failed / attempted, "ratio"),
    }
    return attempted, failed, problems, metrics


def traced(wl, seed, trials, workdir, reference):
    from tracing import Tracer
    config_seed = seed % RECORDED_SEEDS
    first, last = Tracer(), Tracer()
    rescale = Rescaler()
    rounds, scaled = [], []
    for tracer in (first, None, last):
        rounds.append(Round(wl, trials, config_seed, workdir, tracer))
        scaled.append(rescale(rounds[-1].verdict_s))
    attempted = failed = 0
    problems = []
    for r in rounds:
        a, f, p = r.check(reference, wl.name)
        attempted, failed = attempted + a, failed + f
        problems += p
    untraced = rounds[1]
    for r in (rounds[0], rounds[2]):
        if r.timing_free() != untraced.timing_free():
            problems.append("traced report differs from the untraced one")
    m1, metrics = first.metrics(), last.metrics()
    for name, (value, unit) in metrics.items():
        if unit != "s" and m1[name][0] != value:
            problems.append("%s differs across traced rounds: %r, %r"
                            % (name, m1[name][0], value))
    metrics["trace.overhead_ratio"] = (scaled[2] / scaled[1], "ratio")
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, "%s-seed%d.json.gz" % (wl.name, seed))
    last.write(path, [{"key": k, "time_s": t}
                      for k, _, t in rounds[2].verdicts],
               {"workload": wl.name, "seed": seed, "config_seed": config_seed,
                "trials": trials, "max_degree": MAX_DEGREE,
                "verdict_s": rounds[2].verdict_s,
                "untraced_verdict_s": untraced.verdict_s})
    print("%s: traced %.3f s, untraced %.3f s, %d spans written to %s"
          % (wl.name, rounds[2].verdict_s, untraced.verdict_s,
             len(last.spans), os.path.relpath(path, ROOT)))
    return attempted, failed, problems, metrics


def measure(workload, seed, seconds, trace, trials=None, **kw):
    """Run one workload and return the result object the benchmark prints."""
    wl = WORKLOADS[workload]
    trials = wl.trials if trials is None else trials
    reference = load_reference()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        if trace:
            out = traced(wl, seed, trials, workdir, reference)
        else:
            out = end_to_end(wl, seed, seconds, trials, workdir, reference,
                             **kw)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, problems, metrics = out
    for p in problems[:20]:
        sys.stderr.write("mismatch: %s\n" % p)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


# ---- smoke test and reference recording ------------------------------------


def smoke():
    """Each workload once at SMOKE_TRIALS, untraced and traced: every
    metric of BENCHMARK.json is present with its unit and nothing fails."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bad = []
    for name in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res = measure(name, 0, 0, trace, trials=SMOKE_TRIALS,
                          min_rounds=1, setup_samples=1)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[group]}
            if got != want:
                bad.append("%s trace=%d: metrics %s, expected %s"
                           % (name, trace, got, want))
            if not res["correct"] or res["failed"]:
                bad.append("%s trace=%d: %d of %d verdicts failed"
                           % (name, trace, res["failed"], res["attempted"]))
            print("smoke %s trace=%d: ok=%s" % (name, trace,
                                                res["correct"]))
    for b in bad:
        sys.stderr.write("smoke: %s\n" % b)
    return 1 if bad else 0


def record_reference(workload, out_path):
    """Replace the byte reference of one workload in out_path: every
    recorded seed at the benchmark's trial count, and seed 0 at the smoke
    trial count.  Run this only at the commit the reference is meant to
    describe."""
    wl = WORKLOADS[workload]
    jobs = [(wl.trials, s) for s in range(RECORDED_SEEDS)]
    if wl.trials != SMOKE_TRIALS:
        jobs.append((SMOKE_TRIALS, 0))
    entries = {}
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        for trials, seed in jobs:
            r = Round(wl, trials, seed, workdir)
            for key, d, _ in r.verdicts:
                if not key.endswith("/#report") \
                        and d["status"] != expected_status(key):
                    raise RuntimeError("%s at seed %d: status %s, table says "
                                       "%s" % (key, seed, d["status"],
                                               expected_status(key)))
            for preset, code in r.exits:
                if code != ZOO_EXIT[preset]:
                    raise RuntimeError("%s: exit %d" % (preset, code))
            entries[ref_key(workload, trials, seed)] = {
                key: [d.get("status", ""), len(d.get("witnesses", ())),
                      digest(d)] for key, d, _ in r.verdicts}
            print("recorded %s in %.1f s" % (ref_key(workload, trials, seed),
                                             r.verdict_s), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    merged = {}
    if os.path.exists(out_path):
        with open(out_path) as fh:
            merged = {k: v for k, v in json.load(fh).items()
                      if not k.startswith(workload + "/")}
    merged.update(entries)
    with open(out_path, "w") as fh:
        write_reference(merged, fh)


def write_reference(entries, fh):
    """JSON with one check per line, so a diff shows which check moved."""
    blocks = []
    for rk in sorted(entries):
        lines = ["  %s: %s" % (json.dumps(k), json.dumps(v))
                 for k, v in sorted(entries[rk].items())]
        blocks.append(" %s: {\n%s\n }" % (json.dumps(rk), ",\n".join(lines)))
    fh.write("{\n%s\n}\n" % ",\n".join(blocks))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record-reference", action="store_true")
    p.add_argument("--out", help="output file of --record-reference")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    import_package()
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    if args.record_reference:
        record_reference(args.workload, args.out or REFERENCE)
        return 0
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
