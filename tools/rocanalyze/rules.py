"""rocanalyze rules R1-R4 over the engine-independent model.

Rule ids (each finding carries one):

  r1-stored-view    A borrowing view type (ConstBuffer, WireBlockView,
                    std::string_view) is a non-static data member of a class
                    with no owning member (SharedBuffer / BufferChain /
                    container) that could back it.  Stored borrows whose
                    owner lives elsewhere dangle the moment the owner moves.
  r1-return-view    A function returns a view constructed from a
                    function-local owner (the classic dangling return).
  r2-unannotated    A field is written while a roc::Mutex / comm::Gate is
                    held in at least one method but carries no
                    ROC_GUARDED_BY -- the gap Clang's -Wthread-safety
                    cannot see (absent annotations analyze as clean).
  r2-unlocked-access A ROC_GUARDED_BY field is accessed in a method that
                    neither holds the capability nor declares
                    ROC_REQUIRES on it.
  r3-missing-hook   A field registered as a checker shared cell
                    (ROC_CHECK_SHARED_READ/WRITE somewhere) is accessed in
                    a method containing no hook for it -- the dynamic
                    checker is blind to that access.
  r3-unregistered-sibling  A field guarded by the same capability as a
                    registered shared cell is itself never registered
                    (annotation drift: the class opted into checker
                    coverage but this field escaped).
  r4-memcpy-struct  memcpy serialization of a non-trivially-copyable or
                    padded struct outside util/serialize.h.
  r4-cast-serialize reinterpret_cast of raw bytes to a non-trivially-
                    copyable or padded struct outside util/serialize.h.

Interprocedural rules (call graph + lock-set dataflow, see lockset.py):

  r5-lock-cycle     A cycle in the whole-program static lock acquisition
                    graph -- a potential deadlock, including orders no
                    runtime seed sweep ever scheduled.
  r6-blocking-under-lock  A path from a lock-held region to a curated
                    blocking operation (vfs I/O, Comm send/recv/sendv,
                    CondVar::wait, Gate waits, Thread::join, raw
                    syscalls), with the full call chain.

Allocation / copy-discipline rules (hot closure over the same call graph,
see allocsum.py):

  r8-hotpath-alloc  A heap allocation site (new, make_shared/unique,
                    container growth, allocating temporaries) in a method
                    reachable from a ROC_HOT root, outside the sanctioned
                    BufferPool channel, with the witness chain.
  r9-copy-discipline  A by-value pass of SharedBuffer / BufferChain /
                    std::function that is never moved (a borrow
                    suffices), or an owned-bytes materialisation
                    (to_vector, copy_of, pool-less gather) on a hot path.
  r10-cold-escape   A hot-reachable method calling a curated cold root
                    (stdio, trace-file writers, flight dumps, log
                    emission) -- cost roots, complementing R6's blocking
                    roots.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from cxxmodel import caps_match

ALL_RULES = (
    "r1-stored-view", "r1-return-view",
    "r2-unannotated", "r2-unlocked-access",
    "r3-missing-hook", "r3-unregistered-sibling",
    "r4-memcpy-struct", "r4-cast-serialize",
    "r5-lock-cycle",
    "r6-blocking-under-lock",
    "r8-hotpath-alloc",
    "r9-copy-discipline",
    "r10-cold-escape",
)

INTERPROC_RULES = ("r5-lock-cycle", "r6-blocking-under-lock")

ALLOC_RULES = ("r8-hotpath-alloc", "r9-copy-discipline", "r10-cold-escape")

# The one sanctioned home of byte-level struct (de)serialization.
SERIALIZE_ALLOWLIST = ("src/util/serialize.h",)

# Constructors may touch anything: the object is not yet shared.  The
# checker instrumentation itself is exempt from hook-coverage.
HOOK_FILE_ALLOWLIST = ("src/util/check_hooks.h",)


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    cls: str
    symbol: str
    message: str

    @property
    def fingerprint(self):
        # Line numbers are deliberately excluded so the baseline survives
        # unrelated edits above the finding.
        key = "|".join((self.rule, self.file, self.cls, self.symbol))
        return hashlib.sha1(key.encode()).hexdigest()[:16]

    def to_json(self):
        return {"fingerprint": self.fingerprint, "rule": self.rule,
                "file": self.file, "line": self.line, "class": self.cls,
                "symbol": self.symbol, "message": self.message}

    def __str__(self):
        return (f"{self.file}:{self.line}: [{self.rule}] {self.message} "
                f"({self.fingerprint})")


def run_rules(models, structs, rules=ALL_RULES):
    findings = []
    for fm in models:
        if "r1-stored-view" in rules or "r1-return-view" in rules:
            findings.extend(rule_r1(fm))
        if "r2-unannotated" in rules or "r2-unlocked-access" in rules:
            findings.extend(rule_r2(fm))
        if "r3-missing-hook" in rules or "r3-unregistered-sibling" in rules:
            findings.extend(rule_r3(fm))
        if "r4-memcpy-struct" in rules or "r4-cast-serialize" in rules:
            findings.extend(rule_r4(fm, structs))
    analysis = None
    if any(r in rules for r in INTERPROC_RULES):
        import lockset  # deferred: keeps R1-R4-only runs import-light
        analysis = lockset.analyze(models)
        if "r5-lock-cycle" in rules:
            findings.extend(lockset.rule_r5(analysis, Finding))
        if "r6-blocking-under-lock" in rules:
            findings.extend(lockset.rule_r6(analysis, Finding))
    if any(r in rules for r in ALLOC_RULES):
        import allocsum  # deferred, same reason as lockset
        alloc_analysis = allocsum.analyze(
            models, analysis.prog if analysis is not None else None)
        if "r8-hotpath-alloc" in rules:
            findings.extend(allocsum.rule_r8(alloc_analysis, Finding))
        if "r9-copy-discipline" in rules:
            findings.extend(allocsum.rule_r9(alloc_analysis, Finding))
        if "r10-cold-escape" in rules:
            findings.extend(allocsum.rule_r10(alloc_analysis, Finding))
    findings = [f for f in findings if f.rule in rules]
    # Drop inline-suppressed findings, and duplicates (a class split across
    # header and .cpp is modeled in both files).
    by_file = {fm.rel: fm for fm in models}
    kept, seen = [], set()
    for f in findings:
        if f.fingerprint in seen:
            continue
        fm = by_file.get(f.file)
        if fm and fm.allowed(f.line, f.rule):
            continue
        seen.add(f.fingerprint)
        kept.append(f)
    kept.sort(key=lambda f: (f.file, f.line, f.rule))
    return kept


# --- R1: buffer lifetimes ---------------------------------------------------

def rule_r1(fm):
    for ci in fm.classes:
        # A container of views (`std::vector<ConstBuffer>`) owns no bytes.
        owners = [f for f in ci.fields.values()
                  if f.is_owner and not f.is_view]
        for f in ci.fields.values():
            if not f.is_view or f.is_static:
                continue
            # Report the field where it is declared, not in every file the
            # class is (partially) modeled in.
            if f.decl_file and f.decl_file != fm.rel:
                continue
            # Pointer-to-view or view& members are somebody else's storage.
            if "*" in f.type_str or "&" in f.type_str:
                continue
            if owners:
                continue  # owner stored alongside: the sanctioned pattern
            yield Finding(
                "r1-stored-view", fm.rel, f.line, ci.name, f.name,
                f"{ci.name}::{f.name} stores borrowing view type "
                f"`{f.type_str}` with no owning member (SharedBuffer / "
                f"BufferChain / container) alongside it; the borrow "
                f"dangles when the real owner dies -- keep the owner as a "
                f"member, or take the view as a call argument instead")
        for m in ci.methods:
            for rv in m.return_views:
                yield Finding(
                    "r1-return-view", fm.rel, rv.line, ci.name,
                    f"{m.name}:{rv.local}",
                    f"{ci.name}::{m.name} returns a view constructed from "
                    f"function-local owner `{rv.local}`; the storage dies "
                    f"at return -- return the owner (SharedBuffer) or copy")


# --- R2: guard completeness -------------------------------------------------

def rule_r2(fm):
    for ci in fm.classes:
        caps = {f.name for f in ci.fields.values() if f.is_mutex}
        caps |= {f.guarded_by for f in ci.fields.values() if f.guarded_by}
        if not caps:
            continue
        guarded = {n: f for n, f in ci.fields.items() if f.guarded_by}

        # r2-unlocked-access: guarded field touched without the capability.
        for m in ci.methods:
            if m.is_ctor or m.no_analysis:
                continue
            for a in m.accesses:
                f = guarded.get(a.field)
                if not f:
                    continue
                if any(caps_match(h, f.guarded_by) for h in a.held):
                    continue
                if any(caps_match(r, f.guarded_by) for r in m.requires):
                    continue
                yield Finding(
                    "r2-unlocked-access", fm.rel, a.line, ci.name,
                    f"{m.name}:{a.field}",
                    f"{ci.name}::{a.field} is ROC_GUARDED_BY"
                    f"({f.guarded_by}) but {m.name}() "
                    f"{'writes' if a.write else 'reads'} it without "
                    f"holding the capability (and without ROC_REQUIRES)")
                break  # one finding per (method, field) is enough

        # r2-unannotated: written under a lock somewhere, never annotated.
        reported = set()
        for m in ci.methods:
            if m.is_ctor or m.no_analysis:
                continue
            for a in m.accesses:
                if not a.write or not a.held:
                    continue
                f = ci.fields.get(a.field)
                if (f is None or f.guarded_by or f.is_mutex or f.is_static
                        or f.is_const or a.field in reported):
                    continue
                # Only flag fields the lock plausibly protects: the held
                # capability must be a member (or the guard of a sibling),
                # not some foreign object's lock.
                held_members = [h for h in a.held
                                if any(caps_match(h, c) for c in caps)]
                if not held_members:
                    continue
                reported.add(a.field)
                # Anchor at the locked write (the declaration may live in
                # another file).
                yield Finding(
                    "r2-unannotated", fm.rel, a.line, ci.name, a.field,
                    f"{ci.name}::{a.field} is written in {m.name}() while "
                    f"`{held_members[0]}` is held but carries no "
                    f"ROC_GUARDED_BY; absent annotations silently opt out "
                    f"of Clang thread-safety analysis -- annotate it (or "
                    f"justify why it is not shared)")


# --- R3: checker hook coverage ----------------------------------------------

def rule_r3(fm):
    if fm.rel in HOOK_FILE_ALLOWLIST:
        return
    for ci in fm.classes:
        registered = {}  # field name -> has write hook anywhere
        for m in ci.methods:
            for h in m.hooks:
                if h.cell in ci.fields:
                    registered[h.cell] = registered.get(h.cell, False) \
                        or h.write
        if not registered:
            continue

        # r3-missing-hook: access to a registered cell in a method without
        # a hook for that cell.
        for m in ci.methods:
            if m.is_ctor or m.is_dtor:
                continue
            hooked_here = {h.cell for h in m.hooks}
            flagged = set()
            for a in m.accesses:
                if a.field not in registered or a.field in hooked_here \
                        or a.field in flagged:
                    continue
                flagged.add(a.field)
                yield Finding(
                    "r3-missing-hook", fm.rel, a.line, ci.name,
                    f"{m.name}:{a.field}",
                    f"{ci.name}::{m.name} accesses checker-registered "
                    f"shared cell `{a.field}` without a "
                    f"ROC_CHECK_SHARED_"
                    f"{'WRITE' if a.write else 'READ'} hook; the race "
                    f"detector cannot see this access")

        # r3-unregistered-sibling: guarded like a registered cell, never
        # registered itself.
        reg_guards = {ci.fields[n].guarded_by for n in registered
                      if ci.fields[n].guarded_by}
        if not reg_guards:
            continue
        for f in ci.fields.values():
            if (f.name in registered or not f.guarded_by or f.is_static
                    or f.is_mutex):
                continue
            if not any(caps_match(f.guarded_by, g) for g in reg_guards):
                continue
            # Anchor at the declaration, in its declaring file, so an
            # inline ROCANALYZE-ALLOW next to the field is honored.
            yield Finding(
                "r3-unregistered-sibling", f.decl_file or fm.rel, f.line,
                ci.name, f.name,
                f"{ci.name}::{f.name} shares capability "
                f"`{f.guarded_by}` with checker-registered shared cells "
                f"but is never registered itself "
                f"(ROC_CHECK_SHARED_READ/WRITE); the checker's coverage "
                f"of this class silently excludes it")


# --- R4: wire-format hygiene ------------------------------------------------

def rule_r4(fm, structs):
    if fm.rel in SERIALIZE_ALLOWLIST:
        return
    for site in fm.sites:
        layout = structs.get(site.type_name)
        if layout is None:
            continue
        hazards = []
        if not layout.trivially_copyable:
            hazards.append("not trivially copyable")
        if layout.padded:
            hazards.append("contains padding bytes")
        if not hazards:
            continue
        if site.kind == "memcpy":
            yield Finding(
                "r4-memcpy-struct", fm.rel, site.line, "",
                f"memcpy:{site.type_name}",
                f"memcpy of struct {site.type_name} "
                f"({', '.join(hazards)}): byte-copying it is not a stable "
                f"wire format -- marshal through util/serialize.h "
                f"(ByteWriter/ByteReader) instead")
        elif site.byte_source:
            yield Finding(
                "r4-cast-serialize", fm.rel, site.line, "",
                f"cast:{site.type_name}",
                f"reinterpret_cast of raw bytes to struct "
                f"{site.type_name} ({', '.join(hazards)}): in-place "
                f"reinterpretation is undefined for this layout -- parse "
                f"through util/serialize.h instead")
