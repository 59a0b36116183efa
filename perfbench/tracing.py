"""Per-layer tracing of the algebroids package, installed from outside it.

`Tracer.install()` replaces each public function of the traced modules,
in its defining module and in every `algebroids.*` module that bound the
same object with `from .x import f`, plus a few named methods.  The
`scalars` layer (about 2e5 calls per lemma round) is kept as counters with
accumulated self time; every other call becomes a span with a parent id,
held in memory until `write()`.  `uninstall()` puts the originals back.

A span's self time is its duration minus the time of the spans and scalar
calls made directly inside it, so code the tracer does not wrap (private
helpers, `Section` arithmetic, sympy) counts toward the nearest wrapped
caller.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from array import array
from collections import Counter

LAYERS = ("scalars", "bundles", "cartan", "algebroid", "dorfman", "courant",
          "bialgebroid", "zoo", "reporting", "instances", "cli")

# (module, class, method, span name); the scalars dunders are added apart
METHOD_SPANS = (
    ("courant", "CourantPresentation", "bracket", "courant.bracket"),
    ("bialgebroid", "QuotientCourant", "bracket", "bialgebroid.quotient_bracket"),
    ("bialgebroid", "QuotientCourant", "is_zero", "bialgebroid.quotient_is_zero"),
    ("reporting", "Check", "witness", "reporting.witness"),
    ("reporting", "Report", "to_json", "reporting.to_json"),
    ("reporting", "Report", "to_text", "reporting.to_text"),
)

BINARY_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__")
UNARY_OPS = ("__pow__", "__neg__")
RENDER_SPANS = ("reporting.to_json", "reporting.to_text")
INGEST_SPANS = ("instances.ingest", "instances.ingest_text")

clock = time.perf_counter

GENERAL, POLYNOMIAL, UNIT = 0, 1, 2

# slots of Tracer._st, the scalar counters
(TIME, DEPTH, OPS, BINARY, POLY, UNITS, DIFFS, DIFF_REPEATS, MAX_TERMS,
 PRINTS, PRINT_S) = range(11)


def _kind(x):
    """GENERAL, POLYNOMIAL (constant denominator) or UNIT (0 or +-1) for a
    ScalarField, an int or a Fraction.  Kept cheap: it runs on every op."""
    fe = getattr(x, "fe", None)
    if fe is None:
        return UNIT if x in (0, 1, -1) else POLYNOMIAL
    num = fe.numer
    if not num:
        return UNIT
    den = fe.denom
    if len(den) != 1:
        return GENERAL
    (dm, dc), = den.items()
    if any(dm):
        return GENERAL
    if len(num) == 1:
        (nm, nc), = num.items()
        if not any(nm) and (nc == dc or nc == -dc):
            return UNIT
    return POLYNOMIAL


def _matrix_key(rows):
    return tuple(tuple(getattr(v, "fe", v) for v in row) for row in rows)


class Tracer:
    """Spans and counters for one traced round.  Create a fresh one per
    round: the repeat sets and counters start empty."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        # spans as flat rows of (id, parent id, name id, t0, t1); an array
        # holds no objects the garbage collector would have to walk
        self._spans = array("d")
        self._stack = [[0, -1, 0.0, 0.0]]   # id, name id, t0, child time
        self._next_id = 1
        self.calls = Counter()       # span name -> calls
        self.self_s = Counter()      # span name -> self time
        self.count = Counter()       # linear-algebra counters
        self._st = [0] * 11
        self._st[TIME] = self._st[PRINT_S] = 0.0
        self._diff_seen = set()
        self._rref_seen = set()
        self._frames_seen = set()
        self._restore = []

    # -- installation ---------------------------------------------------

    def install(self):
        import algebroids
        mods = {name: importlib.import_module("algebroids." + name)
                for name in LAYERS}
        binders = [algebroids] + list(mods.values())
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                if layer == "scalars":
                    wrapped = self._nesting(fn)
                else:
                    wrapped = self._span(fn, "%s.%s" % (layer, attr))
                for binder in binders:
                    for bound_name, value in list(vars(binder).items()):
                        if value is fn:
                            self._set(binder, bound_name, wrapped)
        scalar_cls = mods["scalars"].ScalarField
        for op in BINARY_OPS:
            self._set(scalar_cls, op, self._binary(getattr(scalar_cls, op)))
        for op in UNARY_OPS:
            self._set(scalar_cls, op, self._unary(getattr(scalar_cls, op)))
        self._set(scalar_cls, "diff", self._diff(scalar_cls.diff))
        self._set(scalar_cls, "__str__",
                  self._nesting(scalar_cls.__str__, PRINTS))
        for layer, cls_name, method, span in METHOD_SPANS:
            cls = getattr(mods[layer], cls_name)
            self._set(cls, method, self._span(getattr(cls, method), span))
        return self

    def uninstall(self):
        for owner, name, old in reversed(self._restore):
            setattr(owner, name, old)
        self._restore = []

    def _set(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- spans ----------------------------------------------------------

    def _span(self, fn, name):
        nid = self._name_id(name)
        on_exit = {"bundles.rref": self._on_rref,
                   "bundles.membership": self._on_membership}.get(name)
        stack, spans, calls, self_s = (self._stack, self._spans, self.calls,
                                       self.self_s)

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0]
            rec = [sid, nid, clock(), 0.0]
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - rec[2]
                stack[-1][3] += dur
                self_s[name] += dur - rec[3]
                calls[name] += 1
                spans.extend((sid, parent, nid, rec[2], t1))
                if on_exit is not None:
                    on_exit(args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _on_rref(self, args):
        rows = args[0]
        self.count["rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)
        key = _matrix_key(rows)
        if key in self._rref_seen:
            self.count["rref.repeats"] += 1
        else:
            self._rref_seen.add(key)

    def _on_membership(self, args):
        key = _matrix_key(s.components for s in args[1].frame)
        if key not in self._frames_seen:
            self.count["membership.misses"] += 1
            self._frames_seen.add(key)

    # -- scalar counters -------------------------------------------------
    #
    # Ops are leaves: they call no wrapped function, so they only test
    # the nesting depth.  The module-level scalar functions (random_scalar,
    # parse_scalar, ...) and printing may call ops, so they raise the depth
    # and their time is charged once, at the outermost scalar call.

    def _charge(self, dt):
        self._st[TIME] += dt
        self._stack[-1][3] += dt

    def _nesting(self, fn, counter=None):
        st, charge = self._st, self._charge

        def wrapper(*args, **kwargs):
            st[DEPTH] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st[DEPTH] -= 1
                if not st[DEPTH]:
                    charge(dt)
                if counter is not None:
                    st[counter] += 1
                    st[PRINT_S] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def _unary(self, fn):
        st, charge = self._st, self._charge

        def wrapper(*args):
            t0 = clock()
            res = fn(*args)
            dt = clock() - t0
            if res is NotImplemented:
                return res
            if not st[DEPTH]:
                charge(dt)
            st[OPS] += 1
            fe = res.fe
            n = max(len(fe.numer), len(fe.denom))
            if n > st[MAX_TERMS]:
                st[MAX_TERMS] = n
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def _binary(self, fn):
        st, charge = self._st, self._charge

        def wrapper(a, b):
            t0 = clock()
            res = fn(a, b)
            dt = clock() - t0
            if res is NotImplemented:
                return res
            if not st[DEPTH]:
                charge(dt)
            st[OPS] += 1
            st[BINARY] += 1
            ka = _kind(a)
            kb = _kind(b)
            if ka and kb:
                st[POLY] += 1
            if ka == UNIT or kb == UNIT:
                st[UNITS] += 1
            fe = res.fe
            n = max(len(fe.numer), len(fe.denom))
            if n > st[MAX_TERMS]:
                st[MAX_TERMS] = n
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def _diff(self, fn):
        st, charge, seen = self._st, self._charge, self._diff_seen

        def wrapper(f, coord):
            t0 = clock()
            res = fn(f, coord)
            dt = clock() - t0
            if not st[DEPTH]:
                charge(dt)
            st[DIFFS] += 1
            key = (f.fe, coord)
            if key in seen:
                st[DIFF_REPEATS] += 1
            else:
                seen.add(key)
            fe = res.fe
            n = max(len(fe.numer), len(fe.denom))
            if n > st[MAX_TERMS]:
                st[MAX_TERMS] = n
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results --------------------------------------------------------

    @property
    def spans(self):
        """[(id, parent id, name id, t0, t1)] in the order spans ended."""
        a = self._spans
        return [(int(a[i]), int(a[i + 1]), int(a[i + 2]), a[i + 3], a[i + 4])
                for i in range(0, len(a), 5)]

    def _inclusive(self, names, outer_only=False):
        """Summed duration of the named spans; with outer_only, leave out
        those whose parent is one of them too."""
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        if not ids:
            return 0.0
        spans = self.spans
        name_of = {s[0]: s[2] for s in spans} if outer_only else {}
        return sum(s[4] - s[3] for s in spans if s[2] in ids
                   and not (outer_only and name_of.get(s[1]) in ids))

    def layer_self_s(self, layer):
        if layer == "scalars":
            return self._st[TIME]
        return sum(t for name, t in self.self_s.items()
                   if name.split(".", 1)[0] == layer)

    def metrics(self):
        """Per-layer metrics of this round, by name: (value, unit)."""
        st, c, calls = self._st, self.count, self.calls

        def share(num, den):
            return num / den if den else 0.0

        out = {
            "scalars.ops": (st[OPS], "count"),
            "scalars.self_s": (st[TIME], "s"),
            "scalars.poly_share": (share(st[POLY], st[BINARY]), "ratio"),
            "scalars.unit_share": (share(st[UNITS], st[BINARY]), "ratio"),
            "scalars.diff.calls": (st[DIFFS], "count"),
            "scalars.diff.repeat_share": (share(st[DIFF_REPEATS], st[DIFFS]),
                                          "ratio"),
            "scalars.max_terms": (st[MAX_TERMS], "count"),
            "scalars.print.calls": (st[PRINTS], "count"),
            "scalars.print_s": (st[PRINT_S], "s"),
            "bundles.rref.calls": (calls["bundles.rref"], "count"),
            "bundles.rref.cells": (c["rref.cells"], "count"),
            "bundles.rref.repeat_share": (
                share(c["rref.repeats"], calls["bundles.rref"]), "ratio"),
            "bundles.membership.calls": (calls["bundles.membership"], "count"),
            "bundles.membership.miss_share": (
                share(c["membership.misses"], calls["bundles.membership"]),
                "ratio"),
            "cartan.calls": (sum(n for name, n in calls.items()
                                 if name.startswith("cartan.")), "count"),
            "algebroid.bracket_eval.calls": (calls["algebroid.bracket_eval"],
                                             "count"),
            "dorfman.dorfman_eval.calls": (calls["dorfman.dorfman_eval"],
                                           "count"),
            "courant.bracket.calls": (calls["courant.bracket"], "count"),
            "bialgebroid.quotient_bracket.calls": (
                calls["bialgebroid.quotient_bracket"], "count"),
            "bialgebroid.quotient_is_zero.calls": (
                calls["bialgebroid.quotient_is_zero"], "count"),
            "reporting.witnesses": (calls["reporting.witness"], "count"),
            "reporting.render_s": (self._inclusive(RENDER_SPANS), "s"),
            "instances.ingest_s": (self._inclusive(INGEST_SPANS, True), "s"),
        }
        for layer in ("bundles", "cartan", "algebroid", "dorfman", "courant",
                      "bialgebroid", "zoo", "cli"):
            out["%s.self_s" % layer] = (self.layer_self_s(layer), "s")
        return out

    def write(self, path, checks, header):
        """Write spans, counters and each check's time_s as gzipped JSON."""
        doc = dict(header)
        doc.update({
            "names": self.names,
            "spans": self.spans,
            "span_fields": ["id", "parent", "name", "t0", "t1"],
            "counters": dict(self.count),
            "scalar_counters": dict(zip(
                ("self_s", "depth", "ops", "binary", "poly", "unit", "diffs",
                 "diff_repeats", "max_terms", "prints", "print_s"),
                self._st)),
            "checks": checks,
        })
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)
