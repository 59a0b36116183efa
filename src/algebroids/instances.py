"""Instance files: the sectioned key-value format the CLI ingests.

A file describes one coordinate patch and whatever structures the check
suites should run on.  Sections are INI-like; '#' starts a comment and
declaration order does not matter (references are resolved after the
whole file is read).  All expressions use the scalar grammar from
`algebroids.scalars` (integers, coordinates, + - * / ^, parentheses).

    [patch]
    coords = x, y              # dim is optional and must match if given

    [bundle.A]
    rank = 2

    [anchor.A]                 # makes A an algebroid; dim rows, rank entries
    0 = 1, 0
    1 = 0, x

    [bracket.A]                # sparse over i < j, completed by skew symmetry
    0,1 = 0, x

    [subbundle.F]
    ambient = TM               # TM, T*M, TM+T*M, TM+A*, A+T*M or a bundle name
    0 = 1, 0                   # frame rows, numbered 0..r-1

    [connection.nabla]
    bundle = A
    0,1 = 0, y                 # nabla_{d/dx_0} e_1, sparse, zero by default

    [dorfman.D]
    algebroid = A              # table rows over TM+A*, columns over A+T*M
    0,0 = 0, 0, 0, 0

    [courant.C]                # explicit bracket presentation
    rank = 4
    degenerate = false
    anchor.0 = ...             # dim rows of rank entries
    gram.0 = ...               # rank rows of rank entries
    dmat.0 = ...               # rank rows of dim entries
    0,1 = ...                  # sparse bracket table, any index pair

    [pi]                       # bivector coefficients, i < j
    0,1 = x

    [omega]                    # 2-form coefficients, i < j
    0,1 = z

    [sigma]                    # bundle map A -> T*M, dim rows of rank entries
    algebroid = TM
    0 = 0, -1
    1 = 1, 0

    [iis]
    algebroid = TM
    foliation = F
    ideal = J
    connection = nabla

    [triple]
    algebroid = A
    u = U                      # subbundle of TM+A*
    dorfman = D
    k = K                      # optional subbundle of A+T*M

    [bialgebroid]
    algebroid = A
    u_algebroid = B
    iota.0 = 1, 0              # dim+rank(A) rows of rank(B) entries

    [bialgebra]
    g = g
    p = p
    iota.0 = 1                 # rank(g) rows of rank(p) entries

    [instance]
    name = poisson-xy
    kind = poisson             # poisson | presymplectic | iis | bialgebra
    checks = courant, dirac    # optional; restricts `check all`

Errors carry the source line, and for expression syntax errors the
column, of the offending text.
"""

from __future__ import annotations

import re

from .scalars import Patch, ScalarParseError, parse_scalar
from .bundles import (Frame, FrameError, Section, Subbundle, TrivialBundle,
                      det, direct_sum)
from .cartan import cotangent, tangent
from .algebroid import (AnchoredBundle, DullAlgebroid, LinearConnection,
                        side_B, side_Q, tangent_algebroid)
from .dorfman import DorfmanConnection
from .courant import CourantPresentation
from .bialgebroid import DiracBialgebroid, LADiracTriple
from .zoo import DiracBialgebraData, IISData

__all__ = ["InstanceError", "InstanceData", "ingest", "ingest_text",
           "instance_from_preset", "emit_instance", "emit_courant",
           "same_object_graph"]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_PAIR_RE = re.compile(r"^(\d+)\s*,\s*(\d+)$")
_SIDE_Q_RE = re.compile(r"^TM\+([A-Za-z_][A-Za-z0-9_]*)\*$")
_SIDE_B_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\+T\*M$")

KINDS = ("poisson", "presymplectic", "iis", "bialgebra")


class InstanceError(ValueError):
    """Ill-formed instance file, annotated with the source location."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = "line %d, column %d: %s" % (line, column, message)
        elif line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class InstanceData:
    """Resolved object graph of one instance file."""

    def __init__(self, patch):
        self.patch = patch
        self.name = ""
        self.kind = ""
        self.requested = ()
        self.bundles = {}
        self.algebroids = {}
        self.connections = {}
        self.subbundles = {}
        self.dorfmans = {}
        self.courants = {}
        self.pi = None
        self.omega = None
        self.sigma = None          # (algebroid, dim x rank matrix)
        self.iis = None
        self.triple = None
        self.bialgebroid = None
        self.bialgebra = None

    def to_zoo_dict(self):
        """The pipeline input dict for this instance's declared kind."""
        if self.kind not in KINDS:
            raise InstanceError("no pipeline for kind %r; declare kind = %s "
                                "in the [instance] section"
                                % (self.kind, " | ".join(KINDS)))
        out = {"kind": self.kind, "name": self.name, "patch": self.patch}
        if self.kind == "poisson":
            if self.pi is None:
                raise InstanceError("kind poisson needs a [pi] section")
            out["pi"] = self.pi
        elif self.kind == "presymplectic":
            if self.omega is None and self.sigma is None:
                raise InstanceError("kind presymplectic needs an [omega] "
                                    "or [sigma] section")
            if self.omega is not None:
                out["omega"] = self.omega
            if self.sigma is not None:
                out["alg"], out["sigma"] = self.sigma
        elif self.kind == "iis":
            if self.iis is None:
                raise InstanceError("kind iis needs an [iis] section")
            out["iis"] = self.iis
        else:
            if self.bialgebra is None:
                raise InstanceError("kind bialgebra needs a [bialgebra] "
                                    "section")
            out["data"] = self.bialgebra
        return out


def _raw_sections(text):
    """First pass: [(section name, line, [(key, value, line, vcol)])]."""
    sections = []
    seen = set()
    entries = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise InstanceError("unterminated section header", ln)
            name = stripped[1:-1].strip()
            parts = name.split(".")
            if not name or len(parts) > 2 or not all(_NAME_RE.match(p)
                                                     for p in parts):
                raise InstanceError("bad section name %r" % name, ln)
            if name in seen:
                raise InstanceError("duplicate section [%s]" % name, ln)
            seen.add(name)
            entries = []
            sections.append((name, ln, entries))
            continue
        if entries is None:
            raise InstanceError("assignment before any section header", ln)
        if "=" not in line:
            raise InstanceError("expected 'key = value'", ln)
        key, _, value = line.partition("=")
        eq = line.index("=")
        lead = len(value) - len(value.lstrip())
        vcol = eq + 2 + lead
        key = key.strip()
        value = value.strip()
        if not key:
            raise InstanceError("missing key before '='", ln)
        if any(k == key for k, _, _, _ in entries):
            raise InstanceError("duplicate key %r in this section" % key, ln)
        entries.append((key, value, ln, vcol))
    return sections


_POSITION_RE = re.compile(r" \(at position (\d+)\)$")


class _Builder:
    """Second pass: resolve sections into an InstanceData."""

    def __init__(self, sections):
        self.sections = sections
        self.data = None
        self._tangent_alg = None
        self._anchors = {}
        self._brackets = {}
        self._deferred = {}

    # ---- scalar and row helpers -------------------------------------

    def scalar(self, text, line, col):
        try:
            return parse_scalar(text, self.data.patch)
        except ScalarParseError as e:
            msg = _POSITION_RE.sub("", str(e))
            raise InstanceError(msg, line, col + e.pos) from None
        except ZeroDivisionError as e:
            raise InstanceError(_POSITION_RE.sub("", str(e)), line,
                                col) from None

    def row(self, value, line, vcol, expected, what):
        parts = value.split(",")
        if len(parts) != expected:
            raise InstanceError("%s has %d entries, expected %d"
                                % (what, len(parts), expected), line)
        out = []
        off = 0
        for part in parts:
            lead = len(part) - len(part.lstrip())
            body = part.strip()
            if not body:
                raise InstanceError("%s has an empty entry" % what, line)
            out.append(self.scalar(body, line, vcol + off + lead))
            off += len(part) + 1
        return out

    def int_key(self, key, bound, line, what):
        if not key.isdigit():
            raise InstanceError("%s keys are row numbers; got %r"
                                % (what, key), line)
        i = int(key)
        if i >= bound:
            raise InstanceError("%s row %d out of range (0..%d)"
                                % (what, i, bound - 1), line)
        return i

    def pair_key(self, key, bi, bj, line, what):
        m = _PAIR_RE.match(key)
        if not m:
            raise InstanceError("%s keys look like 'i,j'; got %r"
                                % (what, key), line)
        i, j = int(m.group(1)), int(m.group(2))
        if i >= bi or j >= bj:
            raise InstanceError("%s entry %d,%d out of range (%dx%d)"
                                % (what, i, j, bi, bj), line)
        return i, j

    def dense_rows(self, entries, nrows, width, what):
        rows = [None] * nrows
        for key, value, ln, vcol in entries:
            i = self.int_key(key, nrows, ln, what)
            rows[i] = self.row(value, ln, vcol, width, "%s row %d"
                               % (what, i))
        missing = [str(i) for i, r in enumerate(rows) if r is None]
        if missing:
            raise InstanceError("%s is missing rows %s"
                                % (what, ", ".join(missing)),
                                entries[0][2] if entries else None)
        return rows

    # ---- reference resolution ---------------------------------------

    def tangent_algebroid(self):
        if self._tangent_alg is None:
            self._tangent_alg = tangent_algebroid(self.data.patch)
        return self._tangent_alg

    def algebroid_ref(self, name, line, what):
        if name == "TM":
            return self.tangent_algebroid()
        if name in self.data.algebroids:
            return self.data.algebroids[name]
        if name in self.data.bundles:
            raise InstanceError("%s references bundle %r, which has no "
                                "[anchor.%s] section and so is not an "
                                "algebroid" % (what, name, name), line)
        raise InstanceError("%s references undeclared algebroid %r"
                            % (what, name), line)

    def bundle_ref(self, name, line, what):
        patch = self.data.patch
        if name in self.data.bundles:
            return self.data.bundles[name]
        if name == "TM":
            return tangent(patch)
        if name == "T*M":
            return cotangent(patch)
        if name == "TM+T*M":
            return direct_sum(tangent(patch), cotangent(patch))
        m = _SIDE_Q_RE.match(name)
        if m:
            return side_Q(self.algebroid_ref(m.group(1), line, what))
        m = _SIDE_B_RE.match(name)
        if m:
            return side_B(self.algebroid_ref(m.group(1), line, what))
        raise InstanceError("%s references undeclared bundle %r"
                            % (what, name), line)

    def subbundle_ref(self, name, line, what):
        if name not in self.data.subbundles:
            raise InstanceError("%s references undeclared subbundle %r"
                                % (what, name), line)
        return self.data.subbundles[name]

    def connection_ref(self, name, line, what):
        if name not in self.data.connections:
            raise InstanceError("%s references undeclared connection %r"
                                % (what, name), line)
        return self.data.connections[name]

    def fields(self, name, entries, line, required, optional=()):
        """Key-value section with a fixed vocabulary."""
        allowed = set(required) | set(optional)
        got = {}
        for key, value, ln, vcol in entries:
            if key not in allowed:
                raise InstanceError("[%s] does not take a %r key; expected "
                                    "%s" % (name, key,
                                            ", ".join(sorted(allowed))), ln)
            got[key] = (value, ln, vcol)
        for key in required:
            if key not in got:
                raise InstanceError("[%s] is missing the %r key"
                                    % (name, key), line)
        return got

    # ---- section handlers -------------------------------------------

    def build(self):
        by_head = {}
        for name, line, entries in self.sections:
            head = name.split(".", 1)[0]
            by_head.setdefault(head, []).append((name, line, entries))

        patches = by_head.pop("patch", [])
        if not patches:
            raise InstanceError("an instance file needs a [patch] section")
        pname, pline, pentries = patches[0]
        self.data = InstanceData(self._patch(pname, pentries, pline))

        known = ["bundle", "anchor", "bracket", "connection", "subbundle",
                 "dorfman", "courant", "pi", "omega", "sigma", "iis",
                 "triple", "bialgebroid", "bialgebra", "instance"]
        for head in by_head:
            if head not in known:
                line = by_head[head][0][1]
                raise InstanceError("unknown section kind %r" % head, line)

        for head in known:
            handler = getattr(self, "_" + head)
            for name, line, entries in by_head.get(head, []):
                tail = name.split(".", 1)[1] if "." in name else None
                if head in ("pi", "omega", "sigma", "iis", "triple",
                            "bialgebroid", "bialgebra", "instance"):
                    if tail is not None:
                        raise InstanceError("[%s] does not take a name"
                                            % head, line)
                    handler(name, entries, line)
                else:
                    if tail is None or not _NAME_RE.match(tail):
                        raise InstanceError("[%s.NAME] needs a simple "
                                            "identifier name" % head, line)
                    if head == "bundle" and tail in ("TM",):
                        raise InstanceError("bundle name %r is built in"
                                            % tail, line)
                    handler(tail, entries, line)
        self._finish_algebroids()
        # second round for sections that reference algebroids
        for head in ("connection", "subbundle", "dorfman", "courant",
                     "sigma", "iis", "triple", "bialgebroid", "bialgebra"):
            for item in self._deferred.get(head, []):
                getattr(self, "_build_" + head)(*item)
        return self.data

    def _patch(self, name, entries, line):
        got = self.fields("patch", entries, line, ["coords"], ["dim"])
        value, ln, vcol = got["coords"]
        names = [p.strip() for p in value.split(",")]
        try:
            patch = Patch(names)
        except ValueError as e:
            raise InstanceError(str(e), ln, vcol) from None
        if "dim" in got:
            dvalue, dln, _ = got["dim"]
            if not dvalue.isdigit() or int(dvalue) != patch.dim:
                raise InstanceError("dim = %s does not match %d coordinates"
                                    % (dvalue, patch.dim), dln)
        return patch

    def _bundle(self, name, entries, line):
        got = self.fields("bundle.%s" % name, entries, line, ["rank"])
        value, ln, _ = got["rank"]
        if not value.isdigit() or int(value) < 1:
            raise InstanceError("[bundle.%s] rank must be a positive "
                                "integer" % name, ln)
        self.data.bundles[name] = TrivialBundle(self.data.patch,
                                                int(value), name)

    def _anchor(self, name, entries, line):
        self._anchors[name] = (entries, line)

    def _bracket(self, name, entries, line):
        self._brackets[name] = (entries, line)

    def _finish_algebroids(self):
        data = self.data
        for name in self._brackets:
            if name not in self._anchors:
                raise InstanceError("[bracket.%s] needs an [anchor.%s] "
                                    "section (use zero rows for a trivial "
                                    "anchor)" % (name, name),
                                    self._brackets[name][1])
        for name, (entries, line) in self._anchors.items():
            if name not in data.bundles:
                raise InstanceError("[anchor.%s] references undeclared "
                                    "bundle %r" % (name, name), line)
            bundle = data.bundles[name]
            anchor = self.dense_rows(entries, data.patch.dim, bundle.rank,
                                     "anchor.%s" % name)
            table = [[bundle.zero_section() for _ in range(bundle.rank)]
                     for _ in range(bundle.rank)]
            bentries, _ = self._brackets.get(name, ([], line))
            for key, value, ln, vcol in bentries:
                i, j = self.pair_key(key, bundle.rank, bundle.rank, ln,
                                     "bracket.%s" % name)
                if i >= j:
                    raise InstanceError("bracket entries use i < j; the "
                                        "table is completed by skew "
                                        "symmetry", ln)
                sec = Section(bundle, self.row(
                    value, ln, vcol, bundle.rank,
                    "bracket.%s entry %d,%d" % (name, i, j)))
                table[i][j] = sec
                table[j][i] = -sec
            data.algebroids[name] = DullAlgebroid(
                AnchoredBundle(bundle, anchor), table)

    def _defer(self, head, *item):
        self._deferred.setdefault(head, []).append(item)

    def _connection(self, name, entries, line):
        self._defer("connection", name, entries, line)

    def _subbundle(self, name, entries, line):
        self._defer("subbundle", name, entries, line)

    def _dorfman(self, name, entries, line):
        self._defer("dorfman", name, entries, line)

    def _courant(self, name, entries, line):
        self._defer("courant", name, entries, line)

    def _sigma(self, name, entries, line):
        self._defer("sigma", name, entries, line)

    def _iis(self, name, entries, line):
        self._defer("iis", name, entries, line)

    def _triple(self, name, entries, line):
        self._defer("triple", name, entries, line)

    def _bialgebroid(self, name, entries, line):
        self._defer("bialgebroid", name, entries, line)

    def _bialgebra(self, name, entries, line):
        self._defer("bialgebra", name, entries, line)

    def _build_connection(self, name, entries, line):
        what = "connection.%s" % name
        rows = []
        bundle = None
        for key, value, ln, vcol in entries:
            if key == "bundle":
                bundle = self.bundle_ref(value, ln, "[%s]" % what)
            else:
                rows.append((key, value, ln, vcol))
        if bundle is None:
            raise InstanceError("[%s] is missing the 'bundle' key"
                                % what, line)
        dim = self.data.patch.dim
        gamma = [[bundle.zero_section() for _ in range(bundle.rank)]
                 for _ in range(dim)]
        for key, value, ln, vcol in rows:
            i, j = self.pair_key(key, dim, bundle.rank, ln, what)
            gamma[i][j] = Section(bundle, self.row(
                value, ln, vcol, bundle.rank,
                "%s entry %d,%d" % (what, i, j)))
        self.data.connections[name] = LinearConnection(bundle, gamma)

    def _build_subbundle(self, name, entries, line):
        what = "subbundle.%s" % name
        ambient = None
        rows = []
        for key, value, ln, vcol in entries:
            if key == "ambient":
                ambient = self.bundle_ref(value, ln, "[%s]" % what)
            else:
                rows.append((key, value, ln, vcol))
        if ambient is None:
            raise InstanceError("[%s] is missing the 'ambient' key"
                                % what, line)
        if not rows:
            raise InstanceError("[%s] declares no frame rows" % what, line)
        dense = self.dense_rows(rows, len(rows), ambient.rank, what)
        sections = [Section(ambient, r) for r in dense]
        try:
            frame = Frame(ambient, sections)
        except FrameError as e:
            raise InstanceError("[%s] frame rows are dependent: %s"
                                % (what, e), line) from None
        self.data.subbundles[name] = Subbundle(ambient, frame)

    def _build_dorfman(self, name, entries, line):
        what = "dorfman.%s" % name
        alg = None
        rows = []
        for key, value, ln, vcol in entries:
            if key == "algebroid":
                alg = self.algebroid_ref(value, ln, "[%s]" % what)
            else:
                rows.append((key, value, ln, vcol))
        if alg is None:
            raise InstanceError("[%s] is missing the 'algebroid' key"
                                % what, line)
        Q, B = side_Q(alg), side_B(alg)
        table = [[B.zero_section() for _ in range(B.rank)]
                 for _ in range(Q.rank)]
        for key, value, ln, vcol in rows:
            i, j = self.pair_key(key, Q.rank, B.rank, ln, what)
            table[i][j] = Section(B, self.row(
                value, ln, vcol, B.rank, "%s entry %d,%d" % (what, i, j)))
        self.data.dorfmans[name] = DorfmanConnection(Q, B, table)

    def _build_courant(self, name, entries, line):
        what = "courant.%s" % name
        dim = self.data.patch.dim
        rank = None
        degenerate = False
        anchors, grams, dmats, pairs = [], [], [], []
        for key, value, ln, vcol in entries:
            if key == "rank":
                if not value.isdigit() or int(value) < 1:
                    raise InstanceError("[%s] rank must be a positive "
                                        "integer" % what, ln)
                rank = int(value)
            elif key == "degenerate":
                if value not in ("true", "false"):
                    raise InstanceError("[%s] degenerate is true or false"
                                        % what, ln)
                degenerate = value == "true"
            elif key.startswith("anchor."):
                anchors.append((key[7:], value, ln, vcol))
            elif key.startswith("gram."):
                grams.append((key[5:], value, ln, vcol))
            elif key.startswith("dmat."):
                dmats.append((key[5:], value, ln, vcol))
            elif key.startswith("frame."):
                pass  # informational rows written by build-manin
            else:
                pairs.append((key, value, ln, vcol))
        if rank is None:
            raise InstanceError("[%s] is missing the 'rank' key"
                                % what, line)
        patch = self.data.patch
        zero = patch.zero
        if anchors:
            anchor = self.dense_rows(anchors, dim, rank,
                                     "%s anchor" % what)
        else:
            anchor = [[zero] * rank for _ in range(dim)]
        if not grams:
            raise InstanceError("[%s] needs gram.0 .. gram.%d rows"
                                % (what, rank - 1), line)
        gram = self.dense_rows(grams, rank, rank, "%s gram" % what)
        if dmats:
            dmat = self.dense_rows(dmats, rank, dim, "%s dmat" % what)
        else:
            dmat = [[zero] * dim for _ in range(rank)]
        bundle = TrivialBundle(patch, rank, name)
        table = [[bundle.zero_section() for _ in range(rank)]
                 for _ in range(rank)]
        for key, value, ln, vcol in pairs:
            i, j = self.pair_key(key, rank, rank, ln, what)
            table[i][j] = Section(bundle, self.row(
                value, ln, vcol, rank, "%s entry %d,%d" % (what, i, j)))
        try:
            C = CourantPresentation(bundle, anchor, gram, table, dmat,
                                    degenerate=degenerate)
        except ValueError as e:
            raise InstanceError("[%s]: %s" % (what, e), line) from None
        self.data.courants[name] = C

    def _two_form(self, head, entries, line):
        dim = self.data.patch.dim
        values = {}
        for key, value, ln, vcol in entries:
            i, j = self.pair_key(key, dim, dim, ln, head)
            if i >= j:
                raise InstanceError("[%s] coefficients use i < j" % head, ln)
            values[(i, j)] = self.scalar(value, ln, vcol)
        from .cartan import two_form_matrix
        return two_form_matrix(self.data.patch, values)

    def _pi(self, name, entries, line):
        self.data.pi = self._two_form("pi", entries, line)

    def _omega(self, name, entries, line):
        self.data.omega = self._two_form("omega", entries, line)

    def _build_sigma(self, name, entries, line):
        alg = self.tangent_algebroid()
        rows = []
        for key, value, ln, vcol in entries:
            if key == "algebroid":
                alg = self.algebroid_ref(value, ln, "[sigma]")
            else:
                rows.append((key, value, ln, vcol))
        matrix = self.dense_rows(rows, self.data.patch.dim, alg.rank,
                                 "sigma")
        self.data.sigma = (alg, matrix)

    def _build_iis(self, name, entries, line):
        got = self.fields("iis", entries, line,
                          ["algebroid", "foliation", "ideal", "connection"])
        alg = self.algebroid_ref(got["algebroid"][0], got["algebroid"][1],
                                 "[iis]")
        F = self.subbundle_ref(got["foliation"][0], got["foliation"][1],
                               "[iis]")
        J = self.subbundle_ref(got["ideal"][0], got["ideal"][1], "[iis]")
        conn = self.connection_ref(got["connection"][0],
                                   got["connection"][1], "[iis]")
        try:
            self.data.iis = IISData(alg, F, J, conn)
        except ValueError as e:
            raise InstanceError("[iis]: %s" % e, line) from None

    def _build_triple(self, name, entries, line):
        got = self.fields("triple", entries, line,
                          ["algebroid", "u", "dorfman"], ["k"])
        alg = self.algebroid_ref(got["algebroid"][0], got["algebroid"][1],
                                 "[triple]")
        U = self.subbundle_ref(got["u"][0], got["u"][1], "[triple]")
        dname = got["dorfman"][0]
        if dname not in self.data.dorfmans:
            raise InstanceError("[triple] references undeclared dorfman "
                                "table %r" % dname, got["dorfman"][1])
        D = self.data.dorfmans[dname]
        K = None
        if "k" in got:
            K = self.subbundle_ref(got["k"][0], got["k"][1], "[triple]")
        try:
            self.data.triple = LADiracTriple(alg, U, D, K)
        except ValueError as e:
            raise InstanceError("[triple]: %s" % e, line) from None

    def _build_bialgebroid(self, name, entries, line):
        alg = alg_U = None
        rows = []
        for key, value, ln, vcol in entries:
            if key == "algebroid":
                alg = self.algebroid_ref(value, ln, "[bialgebroid]")
            elif key == "u_algebroid":
                alg_U = self.algebroid_ref(value, ln, "[bialgebroid]")
            elif key.startswith("iota."):
                rows.append((key[5:], value, ln, vcol))
            else:
                raise InstanceError("[bialgebroid] does not take a %r key"
                                    % key, ln)
        if alg is None or alg_U is None:
            raise InstanceError("[bialgebroid] needs 'algebroid' and "
                                "'u_algebroid' keys", line)
        iota = self.dense_rows(rows, self.data.patch.dim + alg.rank,
                               alg_U.rank, "bialgebroid iota")
        try:
            self.data.bialgebroid = DiracBialgebroid(alg, alg_U, iota)
        except ValueError as e:
            raise InstanceError("[bialgebroid]: %s" % e, line) from None

    def _build_bialgebra(self, name, entries, line):
        g = p = None
        rows = []
        for key, value, ln, vcol in entries:
            if key == "g":
                g = self.algebroid_ref(value, ln, "[bialgebra]")
            elif key == "p":
                p = self.algebroid_ref(value, ln, "[bialgebra]")
            elif key.startswith("iota."):
                rows.append((key[5:], value, ln, vcol))
            else:
                raise InstanceError("[bialgebra] does not take a %r key"
                                    % key, ln)
        if g is None or p is None:
            raise InstanceError("[bialgebra] needs 'g' and 'p' keys", line)
        iota = self.dense_rows(rows, g.rank, p.rank, "bialgebra iota")
        try:
            self.data.bialgebra = DiracBialgebraData(g, p, iota)
        except ValueError as e:
            raise InstanceError("[bialgebra]: %s" % e, line) from None

    def _instance(self, name, entries, line):
        got = self.fields("instance", entries, line, [],
                          ["name", "kind", "checks"])
        if "name" in got:
            self.data.name = got["name"][0]
        if "kind" in got:
            kind, ln, _ = got["kind"]
            if kind not in KINDS:
                raise InstanceError("kind must be one of %s"
                                    % ", ".join(KINDS), ln)
            self.data.kind = kind
        if "checks" in got:
            self.data.requested = tuple(
                p.strip() for p in got["checks"][0].split(",") if p.strip())


def ingest_text(text):
    """Parse and resolve instance-file text into an InstanceData."""
    return _Builder(_raw_sections(text)).build()


def ingest(path):
    """Parse and resolve the instance file at path."""
    with open(path, "r") as fh:
        text = fh.read()
    return ingest_text(text)


def instance_from_preset(preset):
    """Normalize a zoo preset dict into an InstanceData."""
    data = InstanceData(preset["patch"])
    data.name = preset.get("name", "")
    data.kind = preset["kind"]
    if data.kind == "poisson":
        data.pi = preset["pi"]
    elif data.kind == "presymplectic":
        data.omega = preset.get("omega")
        if preset.get("sigma") is not None:
            alg = preset.get("alg") or tangent_algebroid(data.patch)
            data.sigma = (alg, preset["sigma"])
    elif data.kind == "iis":
        data.iis = preset["iis"]
    elif data.kind == "bialgebra":
        data.bialgebra = preset["data"]
    else:
        raise InstanceError("unknown instance kind %r" % (data.kind,))
    return data


# ---- emission --------------------------------------------------------


def _fmt_row(values):
    return ", ".join(str(v) for v in values)


def _emit_two_form(out, head, matrix):
    out.append("[%s]" % head)
    dim = len(matrix)
    for i in range(dim):
        for j in range(i + 1, dim):
            if not matrix[i][j].is_zero():
                out.append("%d,%d = %s" % (i, j, matrix[i][j]))
    out.append("")


def _is_tangent_algebroid(alg):
    patch = alg.patch
    if alg.bundle != tangent(patch):
        return False
    one, zero = patch.one, patch.zero
    rho = alg.anchored.anchor
    for i in range(patch.dim):
        for j in range(patch.dim):
            if rho[i][j] != (one if i == j else zero):
                return False
    return all(alg.bracket[i][j].is_zero()
               for i in range(patch.dim) for j in range(patch.dim))


def _emit_algebroid(out, name, alg):
    out.append("[bundle.%s]" % name)
    out.append("rank = %d" % alg.rank)
    out.append("")
    out.append("[anchor.%s]" % name)
    for k, row in enumerate(alg.anchored.anchor):
        out.append("%d = %s" % (k, _fmt_row(row)))
    out.append("")
    out.append("[bracket.%s]" % name)
    for i in range(alg.rank):
        for j in range(i + 1, alg.rank):
            if not alg.bracket[i][j].is_zero():
                out.append("%d,%d = %s"
                           % (i, j, _fmt_row(alg.bracket[i][j].components)))
    out.append("")


def _algebroid_name(out, alg, fallback):
    """Emit declarations for alg unless it is the tangent algebroid."""
    if _is_tangent_algebroid(alg):
        return "TM"
    name = alg.bundle.name if _NAME_RE.match(alg.bundle.name) else fallback
    _emit_algebroid(out, name, alg)
    return name


def emit_instance(inst):
    """Instance-file text for a zoo preset dict (or an InstanceData)."""
    if isinstance(inst, InstanceData):
        inst = inst.to_zoo_dict()
    patch = inst["patch"]
    out = ["[instance]"]
    if inst.get("name"):
        out.append("name = %s" % inst["name"])
    out.append("kind = %s" % inst["kind"])
    out.append("")
    out.append("[patch]")
    out.append("coords = %s" % ", ".join(patch.coords))
    out.append("")
    kind = inst["kind"]
    if kind == "poisson":
        _emit_two_form(out, "pi", inst["pi"])
    elif kind == "presymplectic":
        if inst.get("omega") is not None:
            _emit_two_form(out, "omega", inst["omega"])
        if inst.get("sigma") is not None:
            alg = inst.get("alg") or tangent_algebroid(patch)
            name = _algebroid_name(out, alg, "A")
            out.append("[sigma]")
            out.append("algebroid = %s" % name)
            for k, row in enumerate(inst["sigma"]):
                out.append("%d = %s" % (k, _fmt_row(row)))
            out.append("")
    elif kind == "iis":
        iis = inst["iis"]
        name = _algebroid_name(out, iis.alg, "A")
        out.append("[subbundle.F]")
        out.append("ambient = TM")
        for r, sec in enumerate(iis.F_M.frame):
            out.append("%d = %s" % (r, _fmt_row(sec.components)))
        out.append("")
        out.append("[subbundle.J]")
        out.append("ambient = %s" % name)
        for r, sec in enumerate(iis.J.frame):
            out.append("%d = %s" % (r, _fmt_row(sec.components)))
        out.append("")
        out.append("[connection.nabla]")
        out.append("bundle = %s" % name)
        for i in range(patch.dim):
            for j in range(iis.alg.rank):
                if not iis.conn.gamma[i][j].is_zero():
                    out.append("%d,%d = %s"
                               % (i, j,
                                  _fmt_row(iis.conn.gamma[i][j].components)))
        out.append("")
        out.append("[iis]")
        out.append("algebroid = %s" % name)
        out.append("foliation = F")
        out.append("ideal = J")
        out.append("connection = nabla")
        out.append("")
    elif kind == "bialgebra":
        data = inst["data"]
        gname = _algebroid_name(out, data.alg_g, "g")
        pname = _algebroid_name(out, data.alg_p, "p")
        out.append("[bialgebra]")
        out.append("g = %s" % gname)
        out.append("p = %s" % pname)
        for i, row in enumerate(data.iota):
            out.append("iota.%d = %s" % (i, _fmt_row(row)))
        out.append("")
    else:
        raise InstanceError("unknown instance kind %r" % (kind,))
    return "\n".join(out)


def emit_courant(name, C, instance_name=""):
    """Serialize a Courant carrier over its honest frame: frame rows,
    pairing gram matrix, anchor, dmat, and the bracket table, as an
    instance file whose [courant.NAME] section re-ingests to an
    equivalent presentation."""
    patch = C.patch
    frames = C.frame_sections()
    rank = len(frames)
    gram = [[C.pairing(frames[i], frames[j]) for j in range(rank)]
            for i in range(rank)]
    anchor = [[C.anchor_vf(frames[j]).components[k] for j in range(rank)]
              for k in range(patch.dim)]
    dmat_cols = [C.coordinates(C.D_of(patch.coordinate(k)))
                 for k in range(patch.dim)]
    out = []
    if instance_name:
        out += ["[instance]", "name = %s" % instance_name, ""]
    out.append("[patch]")
    out.append("coords = %s" % ", ".join(patch.coords))
    out.append("")
    out.append("[courant.%s]" % name)
    out.append("rank = %d" % rank)
    degenerate = det(gram, patch).is_zero()
    out.append("degenerate = %s" % ("true" if degenerate else "false"))
    for p, sec in enumerate(frames):
        out.append("frame.%d = %s" % (p, _fmt_row(sec.components)))
    for k in range(patch.dim):
        out.append("anchor.%d = %s" % (k, _fmt_row(anchor[k])))
    for i in range(rank):
        out.append("gram.%d = %s" % (i, _fmt_row(gram[i])))
    for l in range(rank):
        out.append("dmat.%d = %s" % (l, _fmt_row(
            dmat_cols[k][l] for k in range(patch.dim))))
    for i in range(rank):
        for j in range(rank):
            coords = C.coordinates(C.bracket(frames[i], frames[j]))
            if any(not c.is_zero() for c in coords):
                out.append("%d,%d = %s" % (i, j, _fmt_row(coords)))
    out.append("")
    return "\n".join(out)


# ---- structural equality ---------------------------------------------


def _matrices_equal(m1, m2):
    if len(m1) != len(m2):
        return False
    for r1, r2 in zip(m1, m2):
        if len(r1) != len(r2) or any(a != b for a, b in zip(r1, r2)):
            return False
    return True


def _algebroids_equal(a1, a2):
    return (a1.bundle == a2.bundle
            and _matrices_equal(a1.anchored.anchor, a2.anchored.anchor)
            and all(a1.bracket[i][j] == a2.bracket[i][j]
                    for i in range(a1.rank) for j in range(a1.rank)))


def _subbundles_equal(s1, s2):
    return (s1.ambient == s2.ambient and s1.rank == s2.rank
            and all(f1 == f2 for f1, f2 in zip(s1.frame, s2.frame)))


def same_object_graph(a, b):
    """Structural equality of two instances (zoo dicts or InstanceData);
    returns (bool, reason)."""
    da = a if isinstance(a, dict) else a.to_zoo_dict()
    db = b if isinstance(b, dict) else b.to_zoo_dict()
    if da["kind"] != db["kind"]:
        return False, "kinds differ: %r vs %r" % (da["kind"], db["kind"])
    if da.get("name", "") != db.get("name", ""):
        return False, "names differ"
    if da["patch"] != db["patch"]:
        return False, "patches differ"
    kind = da["kind"]
    if kind == "poisson":
        if not _matrices_equal(da["pi"], db["pi"]):
            return False, "pi matrices differ"
    elif kind == "presymplectic":
        oa, ob = da.get("omega"), db.get("omega")
        if (oa is None) != (ob is None):
            return False, "one instance has omega, the other does not"
        if oa is not None and not _matrices_equal(oa, ob):
            return False, "omega matrices differ"
        sa, sb = da.get("sigma"), db.get("sigma")
        if (sa is None) != (sb is None):
            return False, "one instance has sigma, the other does not"
        if sa is not None:
            if not _matrices_equal(sa, sb):
                return False, "sigma matrices differ"
            patch = da["patch"]
            aa = da.get("alg") or tangent_algebroid(patch)
            ab = db.get("alg") or tangent_algebroid(patch)
            if not _algebroids_equal(aa, ab):
                return False, "sigma algebroids differ"
    elif kind == "iis":
        ia, ib = da["iis"], db["iis"]
        if not _algebroids_equal(ia.alg, ib.alg):
            return False, "iis algebroids differ"
        if not _subbundles_equal(ia.F_M, ib.F_M):
            return False, "foliations differ"
        if not _subbundles_equal(ia.J, ib.J):
            return False, "ideals differ"
        if ia.conn.bundle != ib.conn.bundle or not all(
                ia.conn.gamma[i][j] == ib.conn.gamma[i][j]
                for i in range(ia.alg.patch.dim)
                for j in range(ia.alg.rank)):
            return False, "connections differ"
    elif kind == "bialgebra":
        xa, xb = da["data"], db["data"]
        if not _algebroids_equal(xa.alg_g, xb.alg_g):
            return False, "g structures differ"
        if not _algebroids_equal(xa.alg_p, xb.alg_p):
            return False, "p structures differ"
        if not _matrices_equal(xa.iota, xb.iota):
            return False, "iota matrices differ"
    else:
        return False, "unknown kind %r" % (kind,)
    return True, ""
