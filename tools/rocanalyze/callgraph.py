"""Whole-program call graph over the lexical IR (R5, R6, R8-R10 substrate).

Program indexes every method definition the engine produced, keyed by
(class key, method leaf name), and resolves each cxxmodel.Call to a set of
candidate definitions:

  1. receiver class known        -> that class's method (when defined);
  2. receiver unknown / implicit -> the caller's own class, then file-scope
                                    free functions of that name;
  3. otherwise                   -> the name-union of every class defining
                                    the method (virtual dispatch over
                                    Comm/Gate/File implementations lands
                                    here), capped so wildly common names
                                    (`get`, `size`, ...) do not glue the
                                    graph into one blob.

Over-approximation is deliberate: an unresolvable call may fan out, never
silently vanish, unless its name is hopelessly generic.

Lock identity: LockRef (owning class + field leaf) resolves to the runtime
lock name harvested from the declaration initializer / set_name() site when
available, else `Class::leaf`, so R5 findings name locks the way the
runtime (roc::Mutex names, TSan reports) does.
"""

from __future__ import annotations

from cxxmodel import LockRef, _cls_key

# Method names too generic for name-union resolution: following them would
# connect unrelated classes through accessor noise.  (They still resolve
# when the receiver class is known or the name is unique program-wide.)
COMMON_METHOD_NAMES = frozenset({
    "get", "set", "size", "empty", "begin", "end", "clear", "reset",
    "push_back", "emplace_back", "pop_back", "pop_front", "push_front",
    "front", "back", "insert", "erase", "find", "count", "data", "c_str",
    "str", "append", "substr", "length", "load", "store", "exchange",
    "fetch_add", "fetch_sub", "compare_exchange_weak",
    "compare_exchange_strong", "value", "has_value", "swap", "at", "resize",
    "reserve", "release", "emplace", "assign", "contains", "name", "add",
    "join", "push", "pop", "top", "notify_all", "notify_one",
})

# Receiver classes the analysis treats as opaque leaves: std:: internals
# whose methods never reach first-party locks.  Without this, a
# `cv_.notify_all()` on a std::condition_variable name-unions into
# comm::Gate implementations and glues unrelated subsystems together.
OPAQUE_RECV_CLASSES = frozenset({
    "std", "condition_variable", "condition_variable_any", "mutex",
    "recursive_mutex", "timed_mutex", "shared_mutex", "thread", "jthread",
    "atomic", "string", "vector", "deque", "map", "unordered_map", "set",
    "unordered_set", "list", "array", "queue", "stack", "optional",
    "ostringstream", "istringstream", "stringstream", "ofstream",
    "ifstream", "fstream", "FILE", "error_code", "exception",
})

# Name-union fan-out cap: beyond this many candidate classes the call is
# treated as unresolvable (accessor-grade name).
MAX_FANOUT = 8


class Program:
    """Merged view of every model: method index, class field index, and
    call resolution."""

    def __init__(self, models):
        self.models = models
        # (cls_key, method name) -> [(ClassInfo, Method, FileModel)]
        self.methods = {}
        # method name -> sorted list of keys defining it
        self.by_name = {}
        # cls_key -> {field name -> Field} (merged across files)
        self.class_fields = {}
        for fm in models:
            for ci in fm.classes:
                ck = _cls_key(ci)
                fields = self.class_fields.setdefault(ck, {})
                for n, f in ci.fields.items():
                    fields.setdefault(n, f)
                for m in ci.methods:
                    key = (ck, m.name)
                    self.methods.setdefault(key, []).append((ci, m, fm))
        names = {}
        for (ck, name) in self.methods:
            names.setdefault(name, set()).add((ck, name))
        self.by_name = {n: sorted(ks) for n, ks in names.items()}

    # -- lock nodes ----------------------------------------------------------

    def qualify(self, ref, owner_key):
        """Attributes an unqualified LockRef to the owning class of the
        method it appears in, when that class declares the field."""
        if ref.cls or not owner_key:
            return ref
        if ref.leaf in self.class_fields.get(owner_key, {}):
            return LockRef(owner_key, ref.leaf)
        return ref

    def field_for(self, ref):
        """Field a LockRef resolves to, using the unique-lockable-leaf
        fallback for unqualified refs."""
        f = self.class_fields.get(ref.cls, {}).get(ref.leaf)
        if f is None and not ref.cls:
            cands = []
            for ck, fields in self.class_fields.items():
                f2 = fields.get(ref.leaf)
                if f2 is not None and (f2.is_mutex or "Gate" in f2.type_str):
                    cands.append((ck, f2))
            if len(cands) == 1:
                return cands[0][1]
        return f

    def tracked(self, ref):
        """True when a LockRef names a first-party lock (roc::Mutex /
        comm::Gate field) the runtime checker would also see.  Filters
        wrapper internals (`this`, raw std::mutex members) out of the
        static lock-order graph."""
        if not ref.leaf or ref.leaf == "this":
            return False
        f = self.field_for(ref)
        return f is not None and (f.is_mutex or "Gate" in f.type_str)

    def lock_node(self, ref):
        """Graph node name for a LockRef: the runtime lock name when the
        declaration (or a set_name site) carries one, else Class::leaf."""
        f = self.class_fields.get(ref.cls, {}).get(ref.leaf)
        if f is None and not ref.cls:
            # Unqualified leaf: unique lockable field of that name anywhere?
            cands = []
            for ck, fields in self.class_fields.items():
                f2 = fields.get(ref.leaf)
                if f2 is not None and (f2.is_mutex or "Gate" in f2.type_str):
                    cands.append((ck, f2))
            if len(cands) == 1:
                return cands[0][1].runtime_name or \
                    f"{cands[0][0]}::{ref.leaf}"
        if f is not None and f.runtime_name:
            return f.runtime_name
        if ref.cls:
            return f"{ref.cls}::{ref.leaf}"
        return ref.leaf

    # -- call resolution -----------------------------------------------------

    def resolve_call(self, call, caller_key):
        """Candidate method keys a Call may reach (possibly empty)."""
        if call.recv_class in OPAQUE_RECV_CLASSES:
            return []
        if call.recv_class and call.recv_class != "<global>":
            k = (call.recv_class, call.callee)
            if k in self.methods:
                return [k]
            # A known-but-abstract receiver (Gate, Comm, File): fall through
            # to the name-union so virtual calls reach the implementations.
        if not call.recv:
            k = (caller_key[0], call.callee)
            if k in self.methods:
                return [k]
            frees = [key for key in self.by_name.get(call.callee, ())
                     if key[0].startswith("<file>:")]
            if frees:
                return frees
        keys = self.by_name.get(call.callee, ())
        if not keys:
            return []
        if len(keys) == 1:
            return list(keys)
        if call.callee in COMMON_METHOD_NAMES or len(keys) > MAX_FANOUT:
            return []
        return [k for k in keys if k != caller_key]

    def iter_methods(self):
        """Deterministic (key, [(ci, m, fm)]) iteration."""
        for key in sorted(self.methods):
            yield key, self.methods[key]


def build_program(models):
    return Program(models)
