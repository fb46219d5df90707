"""Interprocedural lock-set analysis: the R5 and R6 rule substrate.

Built on callgraph.Program, this module computes, per method, an
over-approximate summary by fixpoint over the call graph:

  acq(M)    every lock node M may acquire, directly or via callees, each
            with a witness chain of call frames;
  block(M)  whether M may reach a curated blocking operation (vfs file
            I/O, Comm send/recv/sendv, CondVar::wait, Gate waits,
            Thread/Worker join, raw syscalls), with the chain.

From the summaries it derives the whole-program static lock acquisition
graph: an edge A -> B for every point where B may be acquired while A is
held (directly, or anywhere inside a callee).  The two rules:

  r5-lock-cycle          a cycle in the static graph: two code paths
                         disagree about lock order.  Includes cycles no
                         runtime seed sweep ever scheduled.
  r6-blocking-under-lock a path from a lock-held region to a blocking
                         operation.  CondVar::wait(m) / Gate::wait()
                         RELEASE the lock they wait on, so only
                         additionally-held locks count.

The static graph resolves lock operands through named objects and
references only: a lock reached through a call expression
(`MutexLock l(buffer_list().mu)`) is not a graph node, so an inversion
through one is invisible here.  TSan's deadlock detector on the ctest
suite covers that gap (DESIGN.md §11).
"""

from __future__ import annotations

import re

from callgraph import build_program
from cxxmodel import cap_leaf

# Curated blocking roots ------------------------------------------------------

# Free-function / raw libc blocking calls.
BLOCKING_FREE = frozenset({
    "fwrite", "fread", "fopen", "fclose", "fflush", "fsync", "fdatasync",
    "pwrite", "pread", "pwritev", "preadv", "writev", "readv", "fseek",
    "usleep", "nanosleep", "sleep", "fprintf", "vfprintf", "fputs", "fputc",
    "puts",
})
# Additionally blocking when written with an explicit `::` qualifier
# (raw syscall spelling used around the flight recorder).
BLOCKING_GLOBAL = BLOCKING_FREE | frozenset({
    "write", "read", "open", "close", "poll", "select",
})
# vfs file I/O methods (on *File / *FileSystem receivers).
VFS_BLOCKING_METHODS = frozenset({
    "write", "read", "writev", "readv", "sync", "flush", "truncate",
    "open", "close", "remove", "mkdir", "total_bytes",
})
COMM_BLOCKING_METHODS = frozenset({"send", "recv", "sendv", "probe"})

MAX_CHAIN = 6


def root_info(call):
    """(description, released leaf names) when `call` is a curated blocking
    root; ('', ()) otherwise.  `released` lists lock leafs the operation
    atomically releases while blocked (condvar/gate wait semantics)."""
    cal, rc = call.callee, call.recv_class
    if not call.recv:
        return (("raw I/O `" + cal + "`", ())
                if cal in BLOCKING_FREE else ("", ()))
    if rc == "std":
        return (("raw I/O `std::" + cal + "`", ())
                if cal in BLOCKING_FREE
                or cal in ("sleep_for", "sleep_until") else ("", ()))
    if rc == "<global>":
        return (("raw syscall `::" + cal + "`", ())
                if cal in BLOCKING_GLOBAL else ("", ()))
    leaf = cap_leaf(call.recv).lower()
    if cal == "wait":
        if rc == "CondVar" or (rc == "" and ("cv" in leaf or "cond" in leaf)):
            first = call.args.split(",")[0].strip()
            return ("CondVar::" + cal,
                    (cap_leaf(first),) if first else ())
        if rc == "Gate" or (rc == "" and "gate" in leaf):
            return "Gate::wait", (cap_leaf(call.recv),)
        if rc == "":
            return "`" + cal + "` (wait)", ()
        return "", ()
    if cal == "join":
        # Only thread-ish receivers: `vc.join(other)` (vector clocks) and
        # `path.join(sep)` helpers are not blocking.
        if rc in ("Thread", "Worker", "thread", "jthread") or \
                (rc == "" and re.search(r"thread|worker", leaf)):
            return "Thread::join", ()
        return "", ()
    if cal in COMM_BLOCKING_METHODS and "Comm" in rc:
        return rc + "::" + cal + " (comm)", ()
    if cal == "sendv" and rc == "":
        return "Comm::sendv (comm)", ()
    if cal in VFS_BLOCKING_METHODS and ("File" in rc or "FileSystem" in rc):
        return "vfs " + rc + "::" + cal, ()
    return "", ()


class EdgeInfo:
    __slots__ = ("file", "line", "chain")

    def __init__(self, file, line, chain):
        self.file = file
        self.line = line
        self.chain = chain


class Analysis:
    """Whole-program lock-set analysis results."""

    def __init__(self, models):
        self.prog = build_program(models)
        # key -> {"acq": {node: chain}, "block": None | (desc, chain)}
        self.summaries = {}
        # (from_node, to_node) -> EdgeInfo (first, deterministic witness)
        self.edges = {}
        self._summarize()
        self._build_edges()

    # -- summaries -----------------------------------------------------------

    def _summarize(self):
        prog = self.prog
        for key, _defs in prog.iter_methods():
            self.summaries[key] = {"acq": {}, "block": None}
        changed = True
        rounds = 0
        while changed and rounds < 30:
            changed = False
            rounds += 1
            for key, defs in prog.iter_methods():
                s = self.summaries[key]
                for ci, m, fm in defs:
                    label = self._label(key)
                    for a in m.acquires:
                        ref = prog.qualify(a.ref, key[0])
                        if not prog.tracked(ref):
                            continue
                        node = prog.lock_node(ref)
                        frame = (label + " acquires " + node + " at "
                                 + fm.rel + ":" + str(a.line))
                        if node not in s["acq"]:
                            s["acq"][node] = (frame,)
                            changed = True
                    for c in m.calls:
                        frame = (label + " -> " + c.callee + " at "
                                 + fm.rel + ":" + str(c.line))
                        desc, _rel = root_info(c)
                        if desc and s["block"] is None:
                            s["block"] = (desc, (frame,))
                            changed = True
                        for ck in prog.resolve_call(c, key):
                            cs = self.summaries.get(ck)
                            if cs is None or ck == key:
                                continue
                            for node, chain in cs["acq"].items():
                                if node not in s["acq"]:
                                    s["acq"][node] = \
                                        ((frame,) + chain)[:MAX_CHAIN]
                                    changed = True
                            if s["block"] is None and cs["block"]:
                                bd, bchain = cs["block"]
                                s["block"] = (bd,
                                              ((frame,) + bchain)[:MAX_CHAIN])
                                changed = True

    @staticmethod
    def _label(key):
        cls, name = key
        return name if cls.startswith("<file>:") else cls + "::" + name

    # -- static lock-order graph --------------------------------------------

    def _add_edge(self, frm, to, file, line, chain):
        if frm == to:
            return  # recursive re-acquisition: the runtime skips these too
        self.edges.setdefault((frm, to), EdgeInfo(file, line, chain))

    def _build_edges(self):
        prog = self.prog
        for key, defs in prog.iter_methods():
            label = self._label(key)
            for ci, m, fm in defs:
                for a in m.acquires:
                    ref = prog.qualify(a.ref, key[0])
                    if not a.held or not prog.tracked(ref):
                        continue
                    node = prog.lock_node(ref)
                    for h in a.held:
                        hr = prog.qualify(h, key[0])
                        if not prog.tracked(hr):
                            continue
                        hn = prog.lock_node(hr)
                        self._add_edge(
                            hn, node, fm.rel, a.line,
                            (label + " acquires " + node +
                             " while holding " + hn + " at " + fm.rel +
                             ":" + str(a.line),))
                for c in m.calls:
                    held = [prog.qualify(h, key[0]) for h in c.held]
                    held = [h for h in held if prog.tracked(h)]
                    if not held:
                        continue
                    frame = (label + " -> " + c.callee + " at " + fm.rel +
                             ":" + str(c.line))
                    for ck in prog.resolve_call(c, key):
                        cs = self.summaries.get(ck)
                        if cs is None:
                            continue
                        for node, chain in cs["acq"].items():
                            for hr in held:
                                hn = prog.lock_node(hr)
                                self._add_edge(
                                    hn, node, fm.rel, c.line,
                                    ((frame,) + chain)[:MAX_CHAIN])

    # -- R5: static deadlock cycles -----------------------------------------

    def cycles(self):
        """Deterministic list of (cycle nodes, [edge keys]) for every
        distinct simple cycle found by closing each edge with a shortest
        return path."""
        adj = {}
        for (frm, to) in self.edges:
            adj.setdefault(frm, set()).add(to)
        seen = set()
        found = []
        for (frm, to) in sorted(self.edges):
            # Shortest path to -> ... -> frm (BFS) closes the cycle.
            if frm == to:
                continue
            prev = {to: None}
            queue = [to]
            while queue:
                cur = queue.pop(0)
                if cur == frm:
                    break
                for nxt in sorted(adj.get(cur, ())):
                    if nxt not in prev:
                        prev[nxt] = cur
                        queue.append(nxt)
            if frm not in prev:
                continue
            back = []
            cur = frm
            while cur is not None:
                back.append(cur)
                cur = prev[cur]
            back.reverse()            # [to, ..., frm]
            cycle = [frm] + back[:-1]  # frm -> to -> ... -> (pre-frm)
            # Canonical rotation for dedup.
            i = cycle.index(min(cycle))
            canon = tuple(cycle[i:] + cycle[:i])
            if canon in seen:
                continue
            seen.add(canon)
            edge_keys = [(cycle[j], cycle[(j + 1) % len(cycle)])
                         for j in range(len(cycle))]
            found.append((canon, edge_keys))
        return found


def analyze(models):
    return Analysis(models)


# -- rule drivers (invoked from rules.py) -------------------------------------

def rule_r5(analysis, finding_cls):
    for canon, edge_keys in analysis.cycles():
        # Anchor at the lexicographically first edge of the cycle that
        # exists in the graph (deterministic, line-drift tolerant).
        keyed = sorted(k for k in edge_keys if k in analysis.edges)
        if not keyed:
            continue
        anchor = analysis.edges[keyed[0]]
        detail = []
        for k in edge_keys:
            e = analysis.edges.get(k)
            if e is None:
                continue
            detail.append(f"{k[0]} -> {k[1]} via " + " ; ".join(e.chain))
        cyc = " -> ".join(canon + (canon[0],))
        yield finding_cls(
            "r5-lock-cycle", anchor.file, anchor.line, "",
            "cycle:" + ">".join(canon),
            f"static lock-order cycle {cyc}: two code paths acquire these "
            f"locks in conflicting orders (deadlock under the right "
            f"schedule, even if no runtime sweep exercised it); "
            + " | ".join(detail))


def _r6_candidates(analysis):
    """Per-method R6 candidates.  Returns ({key: [cand]}, reporter keys);
    a candidate is (kind, c, ck, payload) with kind 'direct'|'transitive'."""
    prog = analysis.prog
    cands = {}
    for key, defs in prog.iter_methods():
        out = []
        for ci, m, fm in defs:
            if m.no_analysis:
                continue
            seen = set()
            for c in m.calls:
                if not c.held:
                    continue
                desc, released = root_info(c)
                if desc:
                    rem = [h for h in c.held
                           if cap_leaf(h.leaf) not in released]
                    if rem and (m.name, c.callee) not in seen:
                        seen.add((m.name, c.callee))
                        out.append(("direct", c, None,
                                    (ci, m, fm, desc, rem)))
                    continue
                for ck in prog.resolve_call(c, key):
                    cs = analysis.summaries.get(ck)
                    if not cs or not cs["block"]:
                        continue
                    if (m.name, c.callee) not in seen:
                        seen.add((m.name, c.callee))
                        out.append(("transitive", c, ck,
                                    (ci, m, fm) + cs["block"]))
                    break
        if out:
            cands[key] = out
    return cands


def rule_r6(analysis, finding_cls):
    prog = analysis.prog
    cands = _r6_candidates(analysis)
    reporters = set(cands)
    for key in sorted(cands):
        label = Analysis._label(key)

        def names(refs):
            return ", ".join(sorted(
                {prog.lock_node(prog.qualify(h, key[0])) for h in refs}))

        for kind, c, ck, payload in cands[key]:
            if kind == "direct":
                ci, m, fm, desc, rem = payload
                yield finding_cls(
                    "r6-blocking-under-lock", fm.rel, c.line, ci.name,
                    f"{m.name}:{c.callee}",
                    f"{label} reaches blocking operation {desc} while "
                    f"holding {names(rem)}; blocking under a lock "
                    f"serializes every contender (and can deadlock "
                    f"against the I/O it waits on) -- release the lock "
                    f"first, or snapshot under the lock and block "
                    f"outside it")
            else:
                # The resolved callee reports its own lock-held blocking
                # path: the deepest lock-holding frame carries the finding,
                # callers of it do not repeat it.
                if ck in reporters:
                    continue
                ci, m, fm, bdesc, bchain = payload
                chain = " ; ".join(
                    (label + " -> " + c.callee + " at " + fm.rel + ":"
                     + str(c.line),) + bchain)
                yield finding_cls(
                    "r6-blocking-under-lock", fm.rel, c.line, ci.name,
                    f"{m.name}:{c.callee}",
                    f"{label} holds {names(c.held)} across a call chain "
                    f"that reaches blocking operation {bdesc}: "
                    f"{chain} -- release the lock before the call, or "
                    f"hand the work to a queue drained outside the "
                    f"lock")
