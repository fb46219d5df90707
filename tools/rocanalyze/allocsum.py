"""Interprocedural allocation/ownership dataflow: the R8-R10 substrate.

Built on callgraph.Program (shared with lockset.py), this module computes
the HOT CLOSURE: every method reachable from a ROC_HOT-annotated root
(client marshal/ship, Comm::sendv delivery, server probe/buffer/write),
each with a witness chain of call frames.  cxxmodel records per-method
allocation sites (new, make_shared/make_unique, container growth,
std::string / std::vector temporaries, caller-charged materialisations)
and by-value copy-discipline parameters; the rules are set intersections
over the closure:

  r8-hotpath-alloc   a direct allocation site in a hot-reachable method.
  r9-copy-discipline a by-value pass of a ref-counted / gather /
                     type-erased type that is never moved (a borrow
                     suffices), or an owned-bytes materialisation
                     (to_vector, copy_of, pool-less gather) on a hot path.
  r10-cold-escape    a hot-reachable method calling a curated cold root
                     (stdio, trace-file writers, flight dumps, log
                     emission) -- R6's blocking roots were
                     about locks; these are about cost.

Sanctioned-channel accounting: bodies in src/util/buffer.{h,cpp} are the
pool/gather implementation and are never charged -- the pool recycles its
backing stores, so steady-state traffic through acquire/seal/gather is
allocation-free, and the one unavoidable control block per seal is the
channel's documented cost.  The copying ESCAPE HATCHES that same file
exports (to_vector, copy_of, adopt, gather without a pool) are charged at
the call site by cxxmodel._classify_alloc_call.  Outside the channel, a
`ROC_ALLOC_EXEMPT("why: ...")` bracket exempts the rest of its block from
R8 (cxxmodel.collect_alloc_exempts) -- the same marker and extent the
runtime interposer (src/check/alloc_hook.*) leaves uncharged.

Hot closure boundaries (not descended into, deterministically):
  * ROC_COLD-annotated functions and declarations -- the explicit
    "allowed cold branch" marker R8's contract names;
  * the sanctioned channel entry points (acquire/seal) and every method
    defined wholly inside the channel/instrumentation files;
  * curated cold roots (reported by R10 instead).
"""

from __future__ import annotations

from callgraph import build_program
from cxxmodel import _cls_key

MAX_CHAIN = 6

# Files implementing the sanctioned pool/gather channel (see module doc).
CHANNEL_FILES = ("src/util/buffer.h", "src/util/buffer.cpp")
# The interposer and annotation plumbing themselves, plus observability
# (the trace ring with its Chrome export and flight dump, lock-discipline
# tracking) and the deterministic sim substrate:
# instrumentation and device models are accounted outside the product hot
# path.
INSTRUMENTATION_FILES = ("src/check/alloc_hook.h", "src/check/alloc_hook.cpp",
                         "src/util/hot.h", "src/util/check_hooks.h",
                         "src/util/mutex.h",
                         "src/telemetry/trace.h", "src/telemetry/trace.cpp",
                         "src/telemetry/flight.h",
                         "src/sim/sim_fs.h", "src/sim/sim_fs.cpp",
                         "src/sim/simulation.h", "src/sim/simulation.cpp")
# Pool entry points: calls to these are the sanctioned way to obtain a hot
# buffer; the closure treats them as leaves.
CHANNEL_METHODS = frozenset({"acquire", "seal"})

# Curated cold roots (R10): operations whose cost/latency profile has no
# business on a hot path even when they do not allocate.
COLD_FREE = frozenset({
    "printf", "fprintf", "vfprintf", "snprintf", "vsnprintf", "sprintf",
    "fopen", "fputs", "fputc", "puts", "fwrite", "fflush", "perror",
    "getenv", "system", "strerror",
})
COLD_METHODS = frozenset({
    "write_chrome_trace",          # telemetry trace-file writer
    "dump_now", "dump_to_fd",      # flight dumps (telemetry/trace.cpp)
})


def cold_root_info(call):
    """Description when `call` is a curated cold root, '' otherwise."""
    cal, rc = call.callee, call.recv_class
    if cal in COLD_FREE and (not call.recv or rc in ("std", "<global>")):
        return "stdio `" + cal + "`"
    if cal in COLD_METHODS:
        return "formatting/trace sink `" + cal + "`"
    if cal == "log_line":
        return "roc::log emit"
    return ""


def _label(key):
    cls, name = key
    return name if cls.startswith("<file>:") else cls + "::" + name


def _excluded_file(rel):
    return rel in CHANNEL_FILES or rel in INSTRUMENTATION_FILES


class Analysis:
    """Whole-program hot-closure results."""

    def __init__(self, models, prog=None):
        self.models = models
        self.prog = prog if prog is not None else build_program(models)
        self.roots = []  # sorted method keys carrying / named by ROC_HOT
        # key -> (root label, witness chain); chain[0] is the root label.
        self.hot = {}
        self._find_roots()
        self._close()

    # -- roots ---------------------------------------------------------------

    def _find_roots(self):
        roots = set()
        for key, defs in self.prog.iter_methods():
            for ci, m, fm in defs:
                if m.hot:
                    roots.add(key)
        # Class-level ROC_HOT declarations: out-of-line definitions resolve
        # by (class, name); virtuals (Comm::sendv) additionally seed every
        # override via the name union, so the closure covers whichever
        # implementation dispatch picks.
        for fm in self.models:
            for ci in fm.classes:
                for name in ci.hot_decls:
                    key = (_cls_key(ci), name)
                    if key in self.prog.methods:
                        roots.add(key)
                    for k in self.prog.by_name.get(name, ()):
                        roots.add(k)
        self.roots = sorted(roots)

    def _is_cold(self, key):
        for ci, m, fm in self.prog.methods.get(key, ()):
            if m.cold or m.name in ci.cold_decls:
                return True
        return False

    def _is_channel(self, key):
        defs = self.prog.methods.get(key, ())
        return bool(defs) and all(_excluded_file(fm.rel)
                                  for _ci, _m, fm in defs)

    # -- hot closure ---------------------------------------------------------

    def _close(self):
        prog = self.prog
        queue = []
        for key in self.roots:
            if self._is_cold(key) or self._is_channel(key):
                continue
            label = _label(key)
            self.hot[key] = (label, (label,))
            queue.append(key)
        qi = 0
        while qi < len(queue):
            key = queue[qi]
            qi += 1
            root_label, chain = self.hot[key]
            label = _label(key)
            for ci, m, fm in prog.methods.get(key, ()):
                for c in sorted(m.calls, key=lambda c: (c.line, c.callee)):
                    if cold_root_info(c):
                        continue  # R10's business; never descended
                    if c.callee in CHANNEL_METHODS:
                        continue
                    for ck in prog.resolve_call(c, key):
                        if ck == key or ck in self.hot:
                            continue
                        if self._is_cold(ck) or self._is_channel(ck):
                            continue
                        frame = (label + " -> " + _label(ck) + " at "
                                 + fm.rel + ":" + str(c.line))
                        self.hot[ck] = (root_label,
                                        (chain + (frame,))[:MAX_CHAIN])
                        queue.append(ck)

    # -- queries -------------------------------------------------------------

    def direct_allocs(self, key):
        """[(ci, m, fm, Alloc)] for a key, channel/instrumentation bodies
        excluded."""
        out = []
        for ci, m, fm in self.prog.methods.get(key, ()):
            if _excluded_file(fm.rel):
                continue
            for a in m.allocs:
                out.append((ci, m, fm, a))
        return out


def analyze(models, prog=None):
    return Analysis(models, prog)


# -- rule drivers (invoked from rules.py) -------------------------------------

# Allocation kinds R8 charges; "materialize" belongs to R9's
# owned-bytes-from-a-view clause.
R8_KINDS = frozenset({"new", "make", "temp", "growth"})


def rule_r8(analysis, finding_cls):
    for key in sorted(analysis.hot):
        root_label, chain = analysis.hot[key]
        seen = set()
        for ci, m, fm, a in analysis.direct_allocs(key):
            if a.kind not in R8_KINDS:
                continue
            sym = f"{m.name}:{a.kind}:{a.what}"
            if sym in seen:
                continue
            seen.add(sym)
            via = "" if len(chain) == 1 else \
                " via " + " ; ".join(chain[1:])
            yield finding_cls(
                "r8-hotpath-alloc", fm.rel, a.line, ci.name, sym,
                f"{_label(key)} allocates on the hot path ({a.kind}: "
                f"{a.what}), reachable from ROC_HOT root {root_label}"
                f"{via}; per-block heap traffic is exactly the overhead "
                f"the zero-copy pipeline removed -- route bytes through "
                f"BufferPool acquire/seal, reuse a caller-owned "
                f"chain/string capacity, or move the work behind a "
                f"ROC_COLD branch")


def rule_r9(analysis, finding_cls):
    for key, defs in analysis.prog.iter_methods():
        label = _label(key)
        for ci, m, fm in defs:
            if _excluded_file(fm.rel):
                continue
            for pname, pcls in m.byvalue_params:
                if pname in m.moved:
                    continue  # sink idiom: by-value + move is the point
                yield finding_cls(
                    "r9-copy-discipline", fm.rel, m.line, ci.name,
                    f"{m.name}:byvalue:{pname}",
                    f"{label} takes `{pcls} {pname}` by value but never "
                    f"moves it: the copy pays "
                    f"{'a refcount bump' if pcls == 'SharedBuffer' else 'a heap-backed clone'}"
                    f" where a `const {pcls}&` borrow suffices -- take a "
                    f"reference, or std::move the parameter into its "
                    f"final home")
            if key not in analysis.hot:
                continue
            seen = set()
            for a in m.allocs:
                if a.kind != "materialize":
                    continue
                sym = f"{m.name}:materialize:{a.what}"
                if sym in seen:
                    continue
                seen.add(sym)
                root_label, _chain = analysis.hot[key]
                yield finding_cls(
                    "r9-copy-discipline", fm.rel, a.line, ci.name, sym,
                    f"{label} materialises owned bytes ({a.what}) on a "
                    f"hot path (root {root_label}); views and pooled "
                    f"buffers exist so this copy never happens -- keep "
                    f"the ConstBuffer borrow, or gather through a "
                    f"BufferPool")


def rule_r10(analysis, finding_cls):
    for key in sorted(analysis.hot):
        root_label, chain = analysis.hot[key]
        via = "" if len(chain) == 1 else " via " + " ; ".join(chain[1:])
        for ci, m, fm in analysis.prog.methods.get(key, ()):
            if _excluded_file(fm.rel):
                continue
            seen = set()
            for c in sorted(m.calls, key=lambda c: (c.line, c.callee)):
                desc = cold_root_info(c)
                if not desc:
                    continue
                sym = f"{m.name}:cold:{c.callee}"
                if sym in seen:
                    continue
                seen.add(sym)
                yield finding_cls(
                    "r10-cold-escape", fm.rel, c.line, ci.name, sym,
                    f"{_label(key)} is hot (root {root_label}{via}) but "
                    f"calls cold root {desc}; formatting and file-backed "
                    f"sinks stall the fast path for every block -- "
                    f"buffer the event and drain it from a cold/"
                    f"background context")
            if m.log_lines and f"{m.name}:cold:log" not in seen:
                yield finding_cls(
                    "r10-cold-escape", fm.rel, m.log_lines[0], ci.name,
                    f"{m.name}:cold:log",
                    f"{_label(key)} is hot (root {root_label}{via}) but "
                    f"emits a ROC_LOG-family message; log formatting "
                    f"allocates and serialises on the sink mutex -- log "
                    f"from the cold setup/teardown edges instead, or "
                    f"count into a metric")
