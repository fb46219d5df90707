"""Intermediate representation for rocanalyze, plus the lexical engine
that builds it without a compiler.

The engine produces this model:

    FileModel
      classes: [ClassInfo]          # classes/structs + a file-scope pseudo
      sites:   [RawSite]            # memcpy / reinterpret_cast occurrences
      allows:  {line: {rule, ...}}  # ROCANALYZE-ALLOW(rule): suppressions,
                                    # plus ROC_ALLOC_EXEMPT("why: ...")
                                    # blocks as r8-hotpath-alloc
    StructLayout                    # per-struct triviality / padding facts

and the rules in rules.py run over the model alone.

The lexical engine is deliberately conservative: it understands the
repository's actual idiom (Google style, `roc::MutexLock lock(mu_)`,
`comm::GateLock lock(*gate_)`, explicit `gate_->lock()/unlock()` pairs,
`ROC_GUARDED_BY(cap)` on the declaration) rather than arbitrary C++.  Where
it cannot decide, it stays silent.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field as dc_field

# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

# Borrowing view types (R1): storing one only makes sense next to its owner.
VIEW_TYPES = ("ConstBuffer", "WireBlockView", "std::string_view",
              "string_view")
# Owning types that can back a stored view within the same object.
OWNER_TYPES = ("SharedBuffer", "BufferChain", "std::shared_ptr",
               "std::unique_ptr", "std::vector", "std::string", "std::deque",
               "std::array", "std::map", "std::optional")
# Capability (lockable) member types for R2.
MUTEX_TYPES = ("Mutex", "Gate")

# Types whose by-value pass is a copy-discipline question (R9): ref-counted
# buffers copy a reference (cheap but ownership-laden), gather lists and
# type-erased callables copy their backing storage (a real allocation).
COPY_DISCIPLINE_TYPES = ("SharedBuffer", "BufferChain", "function")

ALLOW_MARKER = "ROCANALYZE-ALLOW"
ALLOW_RE = re.compile(r"ROCANALYZE-ALLOW\(\s*([\w,\s-]+?)\s*\)\s*:\s*\S")
# The runtime allocation-exemption bracket (src/util/hot.h) doubles as the
# R8 exemption for the rest of its block, when it says why.
ALLOC_EXEMPT_RE = re.compile(r'\bROC_ALLOC_EXEMPT\(\s*"why:\s*[^"\s]')


@dataclass
class Access:
    field: str
    line: int
    write: bool
    held: frozenset  # normalized capability exprs held at this point


@dataclass
class Hook:
    cell: str  # member the hook's first argument names ("" when unknown)
    write: bool
    line: int


@dataclass
class ReturnView:
    line: int
    local: str  # the function-local owner the returned view borrows from


@dataclass(frozen=True, order=True)
class LockRef:
    """Static identity of a lockable object: the owning class (or
    `<file>:rel` pseudo-class for namespace-level mutexes) plus the member
    leaf name.  Resolved to a graph node name (the runtime lock name when
    harvestable, else `Class::leaf`) by callgraph.Program."""
    cls: str
    leaf: str


@dataclass
class Call:
    """One call site inside a method body (interprocedural rule input)."""
    callee: str      # leaf name of the invoked function/method
    recv: str        # normalized receiver expression ("" = this / free)
    recv_class: str  # best-effort receiver class ("" = unknown)
    line: int
    held: tuple      # (LockRef, ...) capabilities held at the call
    args: str = ""   # argument text (stripped), for wait()/sink analysis


@dataclass
class Acquire:
    """One lock acquisition (RAII or explicit .lock()) inside a method."""
    ref: LockRef
    line: int
    held: tuple      # (LockRef, ...) held just before this acquisition


@dataclass
class Alloc:
    """One heap-allocation site inside a method body (R8-R10 input)."""
    kind: str  # "new" | "make" | "temp" | "growth" | "materialize"
    what: str  # stable human description (part of the fingerprint symbol)
    line: int


@dataclass
class Method:
    name: str
    line: int
    is_ctor: bool = False
    is_dtor: bool = False
    no_analysis: bool = False  # ROC_NO_THREAD_SAFETY_ANALYSIS
    requires: tuple = ()       # ROC_REQUIRES(...) capability args
    hot: bool = False          # ROC_HOT on the definition header
    cold: bool = False         # ROC_COLD on the definition header
    accesses: list = dc_field(default_factory=list)  # [Access]
    hooks: list = dc_field(default_factory=list)     # [Hook]
    return_views: list = dc_field(default_factory=list)  # [ReturnView]
    calls: list = dc_field(default_factory=list)     # [Call]
    acquires: list = dc_field(default_factory=list)  # [Acquire]
    allocs: list = dc_field(default_factory=list)    # [Alloc]
    byvalue_params: list = dc_field(default_factory=list)  # [(name, cls)]
    moved: set = dc_field(default_factory=set)  # names passed to std::move
    log_lines: list = dc_field(default_factory=list)  # ROC_LOG* sites


@dataclass
class Field:
    name: str
    type_str: str
    line: int
    guarded_by: str = ""  # normalized ROC_GUARDED_BY arg ("" = none)
    decl_file: str = ""   # repo-relative file declaring the field
    is_static: bool = False
    is_const: bool = False
    is_mutex: bool = False
    is_view: bool = False
    is_owner: bool = False
    runtime_name: str = ""  # the checker-visible lock name, harvested from
    #                         the declaration initializer (`Mutex m{"x"}`)
    #                         or a `set_name("x")` call site


@dataclass
class ClassInfo:
    name: str
    file: str  # repo-relative path
    line: int
    fields: dict = dc_field(default_factory=dict)   # name -> Field
    methods: list = dc_field(default_factory=list)  # [Method]
    hot_decls: set = dc_field(default_factory=set)   # ROC_HOT declarations
    cold_decls: set = dc_field(default_factory=set)  # ROC_COLD declarations

    def field_named(self, name):
        return self.fields.get(name)


@dataclass
class RawSite:
    """One memcpy / reinterpret_cast occurrence (R4 input)."""
    file: str
    line: int
    kind: str        # "memcpy" | "reinterpret_cast"
    type_name: str   # struct type involved ("" if undetermined)
    byte_source: bool  # cast source looks like raw bytes
    text: str


@dataclass
class StructLayout:
    """Triviality/padding facts about one struct (R4 input)."""
    name: str
    file: str
    line: int
    trivially_copyable: bool  # False when it owns resources / has vtable
    padded: bool              # True when layout provably contains padding
    layout_known: bool        # False when a member size was unrecognized


@dataclass
class FileModel:
    path: str  # absolute
    rel: str   # repo-relative
    classes: list = dc_field(default_factory=list)
    sites: list = dc_field(default_factory=list)
    allows: dict = dc_field(default_factory=dict)  # line -> set(rule ids)
    set_names: dict = dc_field(default_factory=dict)  # recv leaf ->
    #                       runtime name from `x->set_name("...")` sites

    def allowed(self, line, rule):
        """True when `line` (or the two lines above it) carries an
        ROCANALYZE-ALLOW marker naming `rule` (or `all`)."""
        for ln in (line, line - 1, line - 2):
            rules = self.allows.get(ln)
            if rules and (rule in rules or "all" in rules):
                return True
        return False


# ---------------------------------------------------------------------------
# Lexical scanning helpers
# ---------------------------------------------------------------------------

def strip_comments_and_strings(text):
    """Blanks comment and string/char contents, preserving newlines and
    length (same contract as tools/lint.py)."""
    out = list(text)
    i, n = 0, len(text)
    NORMAL, LINE_C, BLOCK_C, STRING, CHAR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state, out[i], out[i + 1] = LINE_C, " ", " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state, out[i], out[i + 1] = BLOCK_C, " ", " "
                i += 2
                continue
            if c == '"':
                state = STRING
                i += 1
                continue
            if c == "'":
                state = CHAR
                i += 1
                continue
        elif state == LINE_C:
            if c == "\n":
                state = NORMAL
            else:
                out[i] = " "
        elif state == BLOCK_C:
            if c == "*" and nxt == "/":
                state, out[i], out[i + 1] = NORMAL, " ", " "
                i += 2
                continue
            if c != "\n":
                out[i] = " "
        else:
            quote = '"' if state == STRING else "'"
            if c == "\\":
                out[i] = " "
                if i + 1 < n and text[i + 1] != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == quote:
                state = NORMAL
            elif c != "\n":
                out[i] = " "
        i += 1
    return "".join(out)


def normalize_cap(expr):
    """Canonical form of a capability expression: `*gate_` -> `gate_`,
    `&mu_` -> `mu_`, whitespace and `this->` removed."""
    e = expr.strip().lstrip("*&").replace(" ", "")
    if e.startswith("this->"):
        e = e[len("this->"):]
    return e


def cap_leaf(expr):
    """Final path component of a capability expression:
    `data_->mutex` -> `mutex`, `s.mutex` -> `mutex`, `gate_` -> `gate_`."""
    e = normalize_cap(expr)
    for sep in ("->", "."):
        if sep in e:
            e = e.rsplit(sep, 1)[1]
    return e


def caps_match(held_expr, guard_expr):
    """Heuristic equivalence of a held capability and a GUARDED_BY arg.
    Exact normalized match, or matching leaf names (handles the guard being
    declared inside a struct the method reaches via a pointer)."""
    a, b = normalize_cap(held_expr), normalize_cap(guard_expr)
    return a == b or cap_leaf(a) == cap_leaf(b)


def collect_allows(text):
    allows = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        m = ALLOW_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
            allows[lineno] = rules
    return allows


# Longest call expression an ALLOW marker is stretched across; beyond this
# the marker is probably stale, and suppressing 100 lines from one comment
# would hide real findings.
_ALLOW_SPAN_CAP = 40


def extend_allow_spans(allows, stripped):
    """Makes ROCANALYZE-ALLOW cover multi-line call expressions.

    `allowed()` scans the finding line and the two lines above it, so a
    marker suppresses a finding attributed to the line a call OPENS on.
    But several extractors (call args, growth sites inside wrapped
    argument lists) attribute to interior or closing lines of a wrapped
    expression, where the window misses the marker.  Fix at parse time:
    for each marker, balance every paren group opening within the window
    the marker can already reach (its own line and the two below) and
    union the marker's rules into every line that group spans."""
    if not allows:
        return
    lines = stripped.split("\n")
    starts = [0]
    for ln in lines:
        starts.append(starts[-1] + len(ln) + 1)
    for marker in list(allows):
        rules = allows[marker]
        for cand in (marker, marker + 1, marker + 2):
            if cand < 1 or cand > len(lines):
                continue
            text = lines[cand - 1]
            for i, ch in enumerate(text):
                if ch != "(":
                    continue
                off = starts[cand - 1] + i
                depth, end_off = 0, -1
                for j in range(off, min(len(stripped), off + 4000)):
                    if stripped[j] == "(":
                        depth += 1
                    elif stripped[j] == ")":
                        depth -= 1
                        if depth == 0:
                            end_off = j
                            break
                if end_off < 0:
                    continue
                end_line = line_of(stripped, end_off)
                if end_line > cand and end_line - cand <= _ALLOW_SPAN_CAP:
                    for covered in range(cand + 1, end_line + 1):
                        allows.setdefault(covered, set()).update(rules)


def collect_alloc_exempts(allows, text, stripped):
    """Makes `ROC_ALLOC_EXEMPT("why: ...")` an r8-hotpath-alloc allow on
    every line from the bracket to the end of its enclosing block -- the
    same extent the RAII bracket exempts at runtime.  A bracket without a
    `why:` reason exempts nothing statically."""
    for m in ALLOC_EXEMPT_RE.finditer(text):
        if stripped[m.start()] != "R":
            continue  # mentioned in a comment, not code
        end = _enclosing_scope_end(stripped, m.start())
        for ln in range(line_of(text, m.start()), line_of(stripped, end) + 1):
            allows.setdefault(ln, set()).add("r8-hotpath-alloc")


SMART_PTR_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:unique_ptr|shared_ptr)\s*<\s*"
    r"(?:[\w]+\s*::\s*)*(\w+)")


def class_of_type(type_str):
    """Best-effort class leaf of a declared type: `const Store*` -> Store,
    `std::unique_ptr<comm::Gate>` -> Gate, `roc::Mutex` -> Mutex."""
    m = SMART_PTR_RE.search(type_str)
    if m:
        return m.group(1)
    t = re.sub(r"\bconst\b|\bmutable\b|\bstruct\b|\bclass\b|[&*]", " ",
               type_str)
    t = t.split("<")[0]
    ids = re.findall(r"\w+", t)
    return ids[-1] if ids else ""


def _cls_key(ci):
    """Program-wide key for a ClassInfo: the class name, or a per-file key
    for the `<file>` pseudo-class (namespace-level state is file-local)."""
    return ci.name if ci.name != "<file>" else "<file>:" + ci.file


SET_NAME_RE = re.compile(r"(\w+)\s*(?:->|\.)\s*set_name\s*\(\s*\"([^\"]+)\"")
RUNTIME_NAME_RE_TMPL = r"%s\s*[{(=]\s*[^\"\n]*\"([^\"]+)\""


def harvest_runtime_name(f, orig_lines):
    """Reads the lock name out of the declaration initializer in the
    ORIGINAL text (`Mutex mu_{"memfile"};`) -- the stripped text the parser
    works on has string contents blanked."""
    if not (f.is_mutex or "Gate" in f.type_str):
        return
    # Access labels glue to the first declaration of a section, and
    # declarations wrap, so the reported line can sit a line or two before
    # the initializer -- scan a short window.
    pat = re.compile(RUNTIME_NAME_RE_TMPL % re.escape(f.name))
    for ln in range(max(1, f.line), min(len(orig_lines), f.line + 3) + 1):
        m = pat.search(orig_lines[ln - 1])
        if m:
            f.runtime_name = m.group(1)
            return


# ---------------------------------------------------------------------------
# Scope tree
# ---------------------------------------------------------------------------

class Scope:
    __slots__ = ("kind", "name", "header", "start", "end", "children",
                 "parent")

    def __init__(self, kind, name, header, start):
        self.kind = kind      # class | function | namespace | other
        self.name = name
        self.header = header  # text between previous delimiter and '{'
        self.start = start    # offset of '{'
        self.end = -1         # offset of matching '}'
        self.children = []
        self.parent = None


CLASS_HEAD_RE = re.compile(
    r"\b(class|struct)\s+(?:ROC_\w+\s*(?:\([^)]*\)\s*)?)*"
    r"((?:\w+\s*::\s*)*\w+)\s*"
    r"(?:final\s*)?(?::[^{;]*)?$")
ENUM_HEAD_RE = re.compile(r"\benum\b")


def build_scope_tree(stripped):
    """Parses `stripped` into a tree of brace scopes classified as
    class / function / namespace / other."""
    root = Scope("root", "", "", -1)
    stack = [root]
    # Offset just after the previous `{`, `}` or `;` -- the current scope
    # header starts there.
    header_start = 0
    i, n = 0, len(stripped)
    while i < n:
        c = stripped[i]
        if c == "{":
            header = stripped[header_start:i].strip()
            kind, name = classify_scope(header)
            sc = Scope(kind, name, header, i)
            sc.parent = stack[-1]
            stack[-1].children.append(sc)
            stack.append(sc)
            header_start = i + 1
        elif c == "}":
            if len(stack) > 1:
                stack[-1].end = i
                stack.pop()
            header_start = i + 1
        elif c == ";":
            header_start = i + 1
        i += 1
    # Unterminated scopes (parse slack): close at EOF.
    for sc in stack[1:]:
        sc.end = n
    return root


def classify_scope(header):
    # Strip template prefixes and export macros that precede the keyword.
    h = re.sub(r"\btemplate\s*<[^<>]*(?:<[^<>]*>[^<>]*)*>", " ", header)
    h = " ".join(h.split())
    if ENUM_HEAD_RE.search(h):
        return "other", ""
    m = CLASS_HEAD_RE.search(h)
    if m:
        # `struct MemFileSystem::Store` declares Store, not MemFileSystem.
        return "class", re.sub(r"\s", "", m.group(2)).split("::")[-1]
    # .search, not .match: the header of the first scope in a file carries
    # the preceding preprocessor lines (`#include ... namespace roc`).
    m = re.search(r"(?:^|\s)namespace(\s+\w+)?\s*$", h)
    if m:
        return "namespace", (m.group(1) or "").strip()
    if h.startswith("extern "):
        return "namespace", ""
    # A function/method header mentions a parameter list.  Initializer
    # lists (`= {`, `{...}` aggregates) and control flow are "other".
    if re.search(r"\)\s*(const|noexcept|override|final|mutable|->\s*[\w:<>,&*\s]+"
                 r"|ROC_\w+\s*(\([^)]*\))?|\s)*$", h) and "(" in h:
        head = h.split("(")[0]
        if re.search(r"\b(if|for|while|switch|catch|return)\s*$", head):
            return "other", ""
        if h.rstrip().endswith("="):
            return "other", ""
        nm = function_name(h)
        if nm:
            return "function", nm
    return "other", ""


FN_NAME_RE = re.compile(
    r"(~?\w+|operator\s*(?:\(\)|\[\]|[^\s(]{1,3}))\s*\($")


def function_name(header):
    """Name of the function a scope header declares, qualified when
    out-of-line (`Class::name`)."""
    depth = 0
    # Find the opening paren of the parameter list (the last top-level one
    # preceded by an identifier).
    for m in re.finditer(r"[()]", header):
        pass
    # Simpler: first '(' whose preceding token is an identifier or
    # qualified id.
    for m in re.finditer(r"\(", header):
        before = header[:m.start()].rstrip()
        qm = re.search(r"((?:\w+\s*::\s*)*~?\w+)$", before)
        if qm and qm.group(1) not in ("if", "for", "while", "switch",
                                      "catch", "return", "sizeof"):
            return qm.group(1).replace(" ", "")
        depth += 1
    return ""


# ---------------------------------------------------------------------------
# Field / method extraction
# ---------------------------------------------------------------------------

GUARDED_RE = re.compile(r"ROC_(?:PT_)?GUARDED_BY\(([^)]*)\)")
REQUIRES_RE = re.compile(r"ROC_REQUIRES\(([^)]*)\)")
NO_TSA_RE = re.compile(r"ROC_NO_THREAD_SAFETY_ANALYSIS")

FIELD_SKIP_RE = re.compile(
    r"^\s*(using|typedef|friend|public|private|protected|template|enum|"
    r"static_assert|virtual)\b")

HOOK_RE = re.compile(
    r"ROC_CHECK_SHARED_(READ|WRITE)\s*\(\s*([^,]+),")

LOCK_RAII_RE = re.compile(
    r"\b(?:roc\s*::\s*)?MutexLock\s+\w+\s*[({]([^;)}]*)[)}]|"
    r"\b(?:comm\s*::\s*)?GateLock\s+\w+\s*[({]([^;)}]*)[)}]")
LOCK_CALL_RE = re.compile(r"([\w.>\[\]()_-]+?)\s*(->|\.)\s*lock\s*\(")
UNLOCK_CALL_RE = re.compile(r"([\w.>\[\]()_-]+?)\s*(->|\.)\s*unlock\s*\(")

CPP_KEYWORDS = frozenset({
    "if", "for", "while", "switch", "return", "sizeof", "catch", "new",
    "delete", "throw", "else", "do", "case", "default", "break", "continue",
    "goto", "static_assert", "alignof", "decltype", "static_cast",
    "dynamic_cast", "const_cast", "reinterpret_cast", "assert", "defined",
    "noexcept", "typeid", "using", "template", "operator", "co_await",
    "co_return", "co_yield", "alignas", "void", "int", "bool", "auto"})

MEMBER_CALL_RE = re.compile(
    r"([\w\]\[()._>-]*[\w)\]])\s*(->|\.)\s*(\w+)\s*\(")
FREE_CALL_RE = re.compile(r"(?<![\w.>:])([A-Za-z_]\w*)\s*\(")
GLOBAL_CALL_RE = re.compile(r"(?<![\w>)])::\s*(\w+)\s*\(")
# `ns::fn(...)` / `Class::fn(...)`: neither MEMBER_CALL_RE (no -> or .)
# nor FREE_CALL_RE (lookbehind rejects ':') sees these.
QUALIFIED_CALL_RE = re.compile(
    r"(?<![\w:])((?:\w+\s*::\s*)+)(\w+)\s*\(")
LOG_MACRO_RE = re.compile(r"\bROC_(?:LOG|DEBUG|INFO|WARN|ERROR|FATAL)\b")

# --- Allocation-site extraction (R8-R10 inputs) ----------------------------

HOT_ANNOT_RE = re.compile(r"\bROC_HOT\b")
COLD_ANNOT_RE = re.compile(r"\bROC_COLD\b")
# `new T` / `new (std::nothrow) T`; `operator new` definitions and
# placement-new-through-call `new (` are filtered at the use site.
NEW_EXPR_RE = re.compile(
    r"\bnew\b\s*(?:\(\s*std\s*::\s*nothrow\s*\)\s*)?((?:\w+\s*::\s*)*\w+)?")
MAKE_FN_RE = re.compile(r"\bmake_(?:shared|unique)\b")
# Local declarations of allocating temporaries.  BufferChain is absent on
# purpose: an empty chain does not allocate, and its growth rides the
# sanctioned append channel.  ByteWriter is here because its first put
# allocates the backing vector unless pool-seeded.
ALLOC_TEMP_DECL_RE = re.compile(
    r"\b(std\s*::\s*(?:string|vector|deque|list|map|set|unordered_map|"
    r"unordered_set|function|[oi]?stringstream)|ByteWriter)\b"
    r"(\s*<[^;{}]*>)?\s+(\w+)\s*[=({;]")
STR_CONCAT_RE = re.compile(r'"\s*\+(?!\+)|(?<!\+)\+\s*"')
MOVED_NAME_RE = re.compile(r"\bstd\s*::\s*move\s*\(\s*([\w.>_-]+)\s*\)")
# Member calls that grow a standard container in place.
GROWTH_METHODS = frozenset({
    "push_back", "emplace_back", "emplace", "push_front", "emplace_front",
    "insert", "resize", "reserve", "assign", "append"})
# Receiver classes whose growth calls are the sanctioned pool/gather
# channel, not caller-side allocation (buffer.h owns their accounting).
GROWTH_EXEMPT_RECV = frozenset({"BufferChain", "BufferPool", "ByteWriter"})
STD_CONTAINER_CLASSES = frozenset({
    "vector", "deque", "list", "string", "basic_string", "map", "set",
    "unordered_map", "unordered_set", "multimap", "multiset"})

LOCAL_DECL_RE = re.compile(
    r"(?:^|[;{}(]\s*)(?:const\s+)?"
    r"((?:\w+\s*::\s*)*[A-Za-z_]\w*(?:\s*<[^<>;]*>)?)"
    r"\s*[*&]?\s+(\w+)\s*(?=[=;({])")
AUTO_DECL_RE = re.compile(r"\bauto\s*[*&]?\s*[*&]?\s+(\w+)\s*=\s*([^;]{1,120})")
RANGE_FOR_RE = re.compile(
    r"for\s*\(\s*(?:const\s+)?([\w:<>,\s]*?[\w>]|auto)\s*[*&]{0,2}\s*"
    r"(\w+)\s*:\s*([^);{]+)")
HOOK_CALL_RE = re.compile(r"\bROC_CHECKHOOK_\s*\(")
# Lambda introducer followed by its body brace.  The capture-list bracket
# must not be a subscript: aggregate inits (`= {`) and array decls never
# match because only lambda syntax puts `{` (after optional params /
# specifiers / trailing return) directly after `]`.
LAMBDA_INTRO_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\)\s*)?(?:mutable\b\s*)?"
    r"(?:noexcept\b\s*(?:\([^()]*\)\s*)?)?(?:->\s*[^{;]+?)?\s*\{")


def lambda_spans(body):
    """(open_brace, close_brace) offsets of every lambda body in `body`.

    Lambda bodies get a fresh capability context (like Clang TSA, which
    analyzes them as separate functions): a lambda handed to roc::Thread
    or Env::spawn_worker runs later on another thread, so locks held at
    the construction site are NOT held inside it.  The trade-off -- an
    immediately-invoked or synchronous-callback lambda under-approximates
    -- is the same one -Wthread-safety makes."""
    spans = []
    for lm in LAMBDA_INTRO_RE.finditer(body):
        o = lm.end() - 1
        depth = 0
        for i in range(o, len(body)):
            c = body[i]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    spans.append((o, i))
                    break
    return spans


def blank_hook_calls(body):
    """Returns `body` with the arguments of every ROC_CHECKHOOK_(...) span
    blanked (length-preserving).  The hooks are conditional checker
    instrumentation, not product control flow; following them would glue
    every hooked operation to the checker Session internals."""
    if "ROC_CHECKHOOK_" not in body:
        return body
    chars = list(body)
    for hm in HOOK_CALL_RE.finditer(body):
        depth, i = 0, hm.end() - 1
        while i < len(chars):
            if chars[i] == "(":
                depth += 1
            elif chars[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        for j in range(hm.end(), min(i, len(chars))):
            if not chars[j].isspace():
                chars[j] = " "
    return "".join(chars)

WRITE_AFTER_RE = re.compile(
    r"^\s*(=[^=]|\+=|-=|\*=|/=|\|=|&=|\^=|>>=|<<=|\+\+|--|"
    r"\.\s*(push_back|push_front|pop_back|pop_front|emplace|emplace_back|"
    r"insert|erase|clear|resize|reserve|reset|assign|swap|append)\b|"
    r"->\s*(push_back|push_front|pop_back|pop_front|emplace|emplace_back|"
    r"insert|erase|clear|resize|reserve|reset|assign|swap|append)\b)")
WRITE_BEFORE_RE = re.compile(r"(\+\+|--|std\s*::\s*move\s*\(\s*)$")


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def parse_field_decl(stmt, line):
    """Parses one class-level declaration statement into a Field, or None
    when the statement is not a data member."""
    s = stmt.strip()
    # Access labels are not ';'-terminated, so the first declaration of a
    # section arrives glued to its label -- peel them off.
    s = re.sub(r"^((public|private|protected)\s*:\s*)+", "", s)
    if not s or FIELD_SKIP_RE.match(s):
        return None
    is_static = bool(re.match(r"^\s*static\b", s))
    if re.search(r"\boperator\b", s):
        return None
    guard = ""
    gm = GUARDED_RE.search(s)
    if gm:
        guard = normalize_cap(gm.group(1))
        s = GUARDED_RE.sub(" ", s)
    # Drop initializers.
    s = re.sub(r"=.*$", "", s, flags=re.S)
    s = re.sub(r"\{.*$", "", s, flags=re.S).strip()
    # Method declarations / pure virtuals carry a parameter list right
    # after the name; fields never do.  (Function-pointer members are rare
    # enough here to ignore.)
    if s.endswith(")") or re.search(r"\w\s*\(", s):
        return None
    # Array suffix.
    s = re.sub(r"\[[^\]]*\]\s*$", "", s).strip()
    m = re.match(r"^(?P<type>.+?)\s+(?P<name>\w+)$", s, flags=re.S)
    if not m:
        return None
    type_str = " ".join(m.group("type").split())
    name = m.group("name")
    if type_str in ("return", "delete", "new", "goto", "else", "const"):
        return None
    bare = type_str.replace("const", "").replace("mutable", "").strip()
    f = Field(name=name, type_str=type_str, line=line, guarded_by=guard,
              is_static=is_static)
    f.is_const = (type_str.startswith("const ")
                  or " const" in type_str and "*" not in type_str
                  ) and "mutable" not in type_str
    f.is_view = _names_type(bare, VIEW_TYPES)
    f.is_owner = _names_type(bare, OWNER_TYPES)
    f.is_mutex = (_names_type(bare, MUTEX_TYPES)
                  and "Lock" not in bare and "unique_ptr" not in bare)
    return f


def _names_type(type_str, names):
    # A name matches whole: bare, qualified, as a template argument, or as
    # a template itself (`std::shared_ptr<T>`).
    for t in names:
        if re.search(r"(^|[\s<:,(])" + re.escape(t) + r"($|[\s<>&*,)])",
                     type_str):
            return True
    return False


class ParsedFile:
    """Phase-1 output: structure harvested, method bodies not yet
    analyzed (that needs the cross-file field merge first)."""

    __slots__ = ("fm", "tree", "stripped", "pseudo", "class_of")

    def __init__(self, fm, tree, stripped, pseudo, class_of):
        self.fm = fm
        self.tree = tree
        self.stripped = stripped
        self.pseudo = pseudo
        self.class_of = class_of  # id(scope) -> ClassInfo


class LexicalEngine:
    """Builds FileModels + StructLayouts from source text alone.

    Two phases: (1) harvest classes and fields from every file, (2) merge
    fields of same-named classes across files, then analyze method bodies.
    The merge is what lets an out-of-line `Rochdf::write_job` in rochdf.cpp
    be checked against the guards declared in rochdf.h."""

    name = "lexical"

    def __init__(self, root, rel_paths):
        self.root = root
        self.rel_paths = rel_paths

    def build(self):
        parsed = []
        for rel in self.rel_paths:
            path = os.path.join(self.root, rel)
            try:
                with open(path, encoding="utf-8", errors="replace") as fh:
                    text = fh.read()
            except OSError:
                continue
            parsed.append(parse_structure(path, rel, text))
        global_fields = merge_class_fields(parsed)
        for pf in parsed:
            analyze_functions(pf, global_fields)
        models = [pf.fm for pf in parsed]
        apply_set_names(models)
        structs = build_struct_index(models, self.root)
        return models, structs


def merge_class_fields(parsed):
    """name -> merged {field name -> Field} across all files (the first
    harvested declaration of a field wins)."""
    global_fields = {}
    for pf in parsed:
        for ci in pf.fm.classes:
            if ci.name == "<file>":
                continue
            d = global_fields.setdefault(ci.name, {})
            for n, f in ci.fields.items():
                d.setdefault(n, f)
    return global_fields


def apply_set_names(models):
    """Attaches runtime names harvested from `x->set_name("...")` call
    sites to the matching lockable fields.  Field objects are shared across
    the merged per-class views, so one assignment is visible everywhere."""
    for fm in models:
        for leaf, rt in fm.set_names.items():
            for ci in fm.classes:
                f = ci.fields.get(leaf)
                if f is not None and not f.runtime_name \
                        and (f.is_mutex or "Gate" in f.type_str):
                    f.runtime_name = rt


def parse_file(path, rel, text):
    """Single-file convenience wrapper (no cross-file merge)."""
    pf = parse_structure(path, rel, text)
    analyze_functions(pf, merge_class_fields([pf]))
    apply_set_names([pf.fm])
    return pf.fm


def parse_structure(path, rel, text):
    stripped = strip_comments_and_strings(text)
    fm = FileModel(path=path, rel=rel)
    fm.allows = collect_allows(text)
    extend_allow_spans(fm.allows, stripped)
    collect_alloc_exempts(fm.allows, text, stripped)
    tree = build_scope_tree(stripped)
    # Original lines: runtime lock names live in string literals, which the
    # stripped text blanks.
    orig_lines = text.splitlines()
    for sm in SET_NAME_RE.finditer(text):
        fm.set_names.setdefault(sm.group(1), sm.group(2))

    # File-scope pseudo-class: namespace-level variables + free functions
    # (the log.cpp `g_mutex`/`g_sink` pattern).
    pseudo = ClassInfo(name="<file>", file=rel, line=1)
    class_of = {}

    def walk(scope):
        for child in scope.children:
            if child.kind == "class":
                ci = ClassInfo(name=child.name, file=rel,
                               line=line_of(stripped, child.start))
                fm.classes.append(ci)
                class_of[id(child)] = ci
                harvest_class(ci, child, stripped, rel, orig_lines)
                walk(child)
            elif child.kind == "function":
                pass  # phase 2; local classes inside bodies are ignored
            else:
                if child.kind == "namespace" and scope.kind in ("root",
                                                                "namespace"):
                    harvest_namespace_vars(pseudo, child, stripped, rel,
                                           orig_lines)
                walk(child)

    walk(tree)
    harvest_namespace_vars(pseudo, tree, stripped, rel, orig_lines)
    collect_sites(fm, stripped)
    return ParsedFile(fm, tree, stripped, pseudo, class_of)


def analyze_functions(pf, global_fields):
    fm, stripped, pseudo = pf.fm, pf.stripped, pf.pseudo

    # Complete every class with fields its other-file declaration carries
    # (own declarations win).
    for ci in fm.classes:
        merged = dict(global_fields.get(ci.name, ()))
        merged.update(ci.fields)
        ci.fields = merged

    def walk(scope, cls_stack):
        for child in scope.children:
            if child.kind == "class":
                ci = pf.class_of[id(child)]
                walk(child, cls_stack + [ci])
            elif child.kind == "function":
                owner = owner_class(child, cls_stack, fm, pseudo,
                                    global_fields)
                harvest_method(owner, child, stripped, global_fields)
                # Do not recurse: harvest_method consumes nested scopes.
            else:
                walk(child, cls_stack)

    walk(pf.tree, [])
    if pseudo.fields or pseudo.methods:
        fm.classes.append(pseudo)


def owner_class(fn_scope, cls_stack, fm, pseudo, global_fields):
    """Which ClassInfo an encountered function scope belongs to."""
    if cls_stack:
        return cls_stack[-1]
    if "::" in fn_scope.name:
        cls_name = fn_scope.name.rsplit("::", 2)[-2]
        for ci in fm.classes:
            if ci.name == cls_name:
                return ci
        # Out-of-line method of a class declared elsewhere: materialize a
        # local ClassInfo carrying the merged field view.
        ci = ClassInfo(name=cls_name, file=fm.rel, line=1)
        ci.fields = dict(global_fields.get(cls_name, ()))
        fm.classes.append(ci)
        return ci
    return pseudo


def class_level_statements(scope, stripped):
    """Statements at a class scope's own depth (nested scopes elided),
    as (text, line) pairs."""
    out = []
    pos = scope.start + 1
    buf = []
    buf_start = pos
    children = sorted(scope.children, key=lambda s: s.start)
    ci = 0
    i = pos
    while i < scope.end:
        if ci < len(children) and i == children[ci].start:
            if children[ci].kind == "other" and "".join(buf).strip():
                # Brace initializer (`Mutex mu_{"name"}`): the braces are
                # part of the pending declaration, not a nested scope.
                i = children[ci].end + 1
                ci += 1
                continue
            buf = []  # the pending header text belongs to the child scope
            i = children[ci].end + 1
            buf_start = i
            ci += 1
            continue
        c = stripped[i]
        if c == ";":
            stmt = "".join(buf)
            if stmt.strip():
                out.append((stmt, line_of(stripped, buf_start)))
            buf = []
            buf_start = i + 1
        elif buf or not c.isspace():
            # Leading whitespace stays out of the buffer so buf_start (the
            # statement's reported line) lands on its first token.
            if not buf:
                buf_start = i
            buf.append(c)
        i += 1
    return out


def _annotated_decl_name(stmt):
    """Method name of a class-level declaration statement carrying a
    ROC_HOT / ROC_COLD annotation (pure virtuals, out-of-line decls)."""
    s = GUARDED_RE.sub(" ", stmt)
    for mm in re.finditer(r"(~?\w+)\s*\(", s):
        nm = mm.group(1)
        if nm in CPP_KEYWORDS or re.fullmatch(r"[A-Z][A-Z0-9_]*", nm):
            continue
        return nm
    return ""


def harvest_class(ci, scope, stripped, rel, orig_lines=()):
    for stmt, line in class_level_statements(scope, stripped):
        if HOT_ANNOT_RE.search(stmt):
            nm = _annotated_decl_name(stmt)
            if nm:
                ci.hot_decls.add(nm)
        if COLD_ANNOT_RE.search(stmt):
            nm = _annotated_decl_name(stmt)
            if nm:
                ci.cold_decls.add(nm)
        f = parse_field_decl(stmt, line)
        if f and f.name not in ci.fields:
            f.decl_file = rel
            harvest_runtime_name(f, orig_lines)
            ci.fields[f.name] = f
    # Inline methods are child function scopes; analyze_functions
    # dispatches them via harvest_method with this class on the stack.


def harvest_namespace_vars(pseudo, scope, stripped, rel, orig_lines=()):
    for stmt, line in class_level_statements(scope, stripped):
        f = parse_field_decl(stmt, line)
        # Only track namespace-level state relevant to locking: mutexes and
        # explicitly guarded variables (keeps globals noise out).
        if f and (f.is_mutex or f.guarded_by) and f.name not in pseudo.fields:
            f.decl_file = rel
            harvest_runtime_name(f, orig_lines)
            pseudo.fields[f.name] = f


def _balanced(text, open_paren):
    """Text inside the paren group opening at `open_paren`."""
    depth = 0
    for i in range(open_paren, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:i]
    return text[open_paren + 1:]


def _split_top(args):
    """Splits an argument/parameter list on top-level commas."""
    out, depth, buf = [], 0, []
    for c in args:
        if c in "(<[{":
            depth += 1
        elif c in ")>]}":
            depth -= 1
        if c == "," and depth == 0:
            out.append("".join(buf))
            buf = []
        else:
            buf.append(c)
    if "".join(buf).strip():
        out.append("".join(buf))
    return out


def parse_param_types(header):
    """name -> class leaf for each parameter in a function scope header."""
    for pm in re.finditer(r"\(", header):
        before = header[:pm.start()].rstrip()
        qm = re.search(r"((?:\w+\s*::\s*)*~?\w+)$", before)
        if not qm or qm.group(1) in ("if", "for", "while", "switch",
                                     "catch", "return", "sizeof"):
            continue
        out = {}
        for part in _split_top(_balanced(header, pm.start())):
            dm = re.match(r"^(.*?[\w>])\s*([*&\s][*&\s]*)(\w+)\s*(=.*)?$",
                          part.strip(), re.S)
            if dm:
                out[dm.group(3)] = class_of_type(
                    dm.group(1) + dm.group(2).replace(" ", ""))
        return out
    return {}


def parse_byvalue_params(header):
    """[(name, class leaf)] for parameters passed by value whose class is
    a copy-discipline type (R9 input)."""
    for pm in re.finditer(r"\(", header):
        before = header[:pm.start()].rstrip()
        qm = re.search(r"((?:\w+\s*::\s*)*~?\w+)$", before)
        if not qm or qm.group(1) in ("if", "for", "while", "switch",
                                     "catch", "return", "sizeof"):
            continue
        out = []
        for part in _split_top(_balanced(header, pm.start())):
            dm = re.match(r"^(.*?[\w>])\s*([*&\s][*&\s]*)(\w+)\s*(=.*)?$",
                          part.strip(), re.S)
            if not dm:
                continue
            sep = dm.group(2)
            if "*" in sep or "&" in sep:
                continue  # pointer / reference: a borrow already
            cls = class_of_type(dm.group(1))
            if cls in COPY_DISCIPLINE_TYPES:
                out.append((dm.group(3), cls))
        return out
    return []


def _classify_alloc_call(c):
    """(kind, what) when a recorded Call is itself an allocation the
    caller pays for, else None.  Caller-side attribution is what keeps the
    sanctioned buffer.h channel honest: bodies in buffer.{h,cpp} are not
    charged, so the copying escape hatches (to_vector, copy_of, adopt,
    pool-less gather) must be charged where they are invoked."""
    if c.callee in GROWTH_METHODS:
        if not c.recv or c.recv_class in GROWTH_EXEMPT_RECV:
            return None
        if c.recv_class and c.recv_class not in STD_CONTAINER_CLASSES:
            return None
        return ("growth", c.callee + " on " + cap_leaf(c.recv))
    if c.callee == "to_vector":
        return ("materialize",
                "to_vector on " + (cap_leaf(c.recv) or "buffer"))
    if c.callee == "copy_of":
        return ("materialize", "SharedBuffer::copy_of")
    if c.callee == "adopt":
        return ("make", "SharedBuffer::adopt")
    if c.callee == "gather":
        if "pool" in (c.recv + " " + c.args).lower():
            return None  # gathers into a BufferPool: sanctioned channel
        return ("materialize", "gather without pool")
    if c.callee == "to_string":
        return ("temp", "to_string")
    if c.callee == "substr":
        return ("temp", "substr")
    if c.callee == "str" and c.recv:
        return ("temp", "stream str()")
    return None


def harvest_method(ci, scope, stripped, cross_fields=None):
    name = scope.name.rsplit("::", 1)[-1]
    m = Method(name=name, line=line_of(stripped, scope.start))
    m.is_ctor = (name == ci.name)
    m.is_dtor = (name == "~" + ci.name)
    m.no_analysis = bool(NO_TSA_RE.search(scope.header))
    m.hot = bool(HOT_ANNOT_RE.search(scope.header))
    m.cold = bool(COLD_ANNOT_RE.search(scope.header))
    reqs = []
    for rm in REQUIRES_RE.finditer(scope.header):
        reqs.extend(normalize_cap(a) for a in rm.group(1).split(","))
    m.requires = tuple(reqs)
    analyze_body(ci, m, scope, stripped, cross_fields or {})
    ci.methods.append(m)


def analyze_body(ci, m, scope, stripped, cross_fields=None):
    """Single pass over the method body tracking held capabilities and
    recording member accesses / checker hooks / returned views."""
    body = stripped[scope.start:scope.end + 1]
    base = scope.start
    field_names = set(ci.fields)

    # Lock events: (offset, kind, cap, scope_end_for_raii)
    events = []
    for lm in LOCK_RAII_RE.finditer(body):
        cap = normalize_cap(lm.group(1) or lm.group(2) or "")
        if cap:
            end = _enclosing_scope_end(body, lm.start())
            events.append((lm.start(), "raii", cap, end))
    for lm in LOCK_CALL_RE.finditer(body):
        events.append((lm.start(), "lock", normalize_cap(lm.group(1)), None))
    for lm in UNLOCK_CALL_RE.finditer(body):
        events.append((lm.start(), "unlock", normalize_cap(lm.group(1)),
                       None))
    events.sort(key=lambda e: e[0])

    # Each lambda body is a fresh capability context (see lambda_spans):
    # events outside the innermost lambda enclosing an offset do not apply
    # there, and vice versa.
    lam_spans = lambda_spans(body)

    def lam_of(off):
        best = -1
        for idx, (s, e) in enumerate(lam_spans):
            if s < off <= e and (best < 0 or s > lam_spans[best][0]):
                best = idx
        return best

    def held_at(off):
        ctx = lam_of(off)
        held = set(m.requires) if ctx < 0 else set()
        for eoff, kind, cap, send in events:
            if eoff >= off:
                break
            if lam_of(eoff) != ctx:
                continue
            if kind == "raii":
                if send is None or off < send:
                    held.add(cap)
            elif kind == "lock":
                held.add(cap)
            elif kind == "unlock":
                held.discard(cap)
        return frozenset(held)

    # Hooks.
    for hm in HOOK_RE.finditer(body):
        arg = hm.group(2).strip()
        cell = cap_leaf(arg.lstrip("&"))
        cell = re.sub(r"\(\)$", "", cell.split("(")[0]) or cell
        m.hooks.append(Hook(cell=cell, write=(hm.group(1) == "WRITE"),
                            line=line_of(stripped, base + hm.start())))

    # Member accesses.
    for fname in field_names:
        f = ci.fields[fname]
        if f.is_static:
            continue
        for am in re.finditer(r"(?<![\w.>])(?:this\s*->\s*)?\b" +
                              re.escape(fname) + r"\b", body):
            before = body[max(0, am.start() - 24):am.start()]
            if before.rstrip().endswith(("::", ".", "->")) \
                    and not before.rstrip().endswith("this->"):
                continue
            after = body[am.end():am.end() + 40]
            if re.match(r"\s*\(", after) and not f.is_mutex:
                # A call through a same-named method, or a constructor arg
                # list -- not a data access we can classify.
                pass
            write = bool(WRITE_AFTER_RE.match(after)) or \
                bool(WRITE_BEFORE_RE.search(before))
            m.accesses.append(Access(field=fname,
                                     line=line_of(stripped, base + am.start()),
                                     write=write,
                                     held=held_at(am.start())))

    # Returned views of locals (R1).
    local_owners = set()
    for dm in re.finditer(
            r"\b(SharedBuffer|BufferChain|std::vector\s*<[^>]*>|std::string)"
            r"\s+(\w+)\s*[=({;]", body):
        local_owners.add(dm.group(2))
    view_alt = "|".join(re.escape(v) for v in VIEW_TYPES)
    for rm in re.finditer(r"\breturn\s+(?:" + view_alt + r")\s*[({]"
                          r"([^;]*)[)}]\s*;", body):
        args = rm.group(1)
        for lo in local_owners:
            if re.search(r"\b" + re.escape(lo) + r"\b", args):
                m.return_views.append(
                    ReturnView(line=line_of(stripped, base + rm.start()),
                               local=lo))
                break

    # --- Interprocedural inputs (R5, R6, R8-R10) ---------------------------

    # Local/parameter class tracking, so `s->mutex` resolves to Store::mutex
    # rather than colliding with every other field spelled `mutex`.
    cross_fields = cross_fields or {}
    param_types = parse_param_types(scope.header)
    local_types = dict(param_types)
    local_type_strs = {}
    for dm in LOCAL_DECL_RE.finditer(body):
        t, nm = dm.group(1), dm.group(2)
        if t in CPP_KEYWORDS or nm in local_types:
            continue
        local_types[nm] = class_of_type(t)
        local_type_strs[nm] = t

    def expr_class(expr):
        e = normalize_cap(expr.strip().rstrip(";"))
        e = re.sub(r"(?:->|\.)get\(\)$", "", e)
        e = e.strip("()*& ")
        if e in local_types:
            return local_types[e]
        f = ci.fields.get(e)
        if f is not None:
            return class_of_type(f.type_str)
        return ""

    def type_str_of(expr):
        """Declared type string of a simple expression (`x`, `a.b`)."""
        e = normalize_cap(expr.strip())
        leaf = cap_leaf(e)
        if e == leaf:
            if leaf in local_type_strs:
                return local_type_strs[leaf]
            f = ci.fields.get(leaf)
            return f.type_str if f else ""
        prefix = re.sub(r"(?:->|\.)$", "", e[: len(e) - len(leaf)])
        owner = expr_class(prefix)
        f = cross_fields.get(owner, {}).get(leaf)
        if f is None and owner == ci.name:
            f = ci.fields.get(leaf)
        return f.type_str if f else ""

    def elem_class(expr):
        """Element class of a container-typed expression (first template
        argument, smart pointers unwrapped)."""
        ts = type_str_of(expr)
        tm = re.search(r"<(.+)>", ts)
        if not tm:
            return ""
        parts = _split_top(tm.group(1))
        return class_of_type(parts[-1]) if parts else ""

    for am2 in AUTO_DECL_RE.finditer(body):
        nm, rhs = am2.group(1), am2.group(2)
        ty = expr_class(rhs)
        if ty and nm not in local_types:
            local_types[nm] = ty
    for rf in RANGE_FOR_RE.finditer(body):
        ty, nm, cont = rf.group(1).strip(), rf.group(2), rf.group(3)
        if nm in local_types:
            continue
        if ty and ty != "auto" and ty not in CPP_KEYWORDS:
            local_types[nm] = class_of_type(ty)
            continue
        ec = elem_class(cont)
        if ec:
            local_types[nm] = ec

    def lock_ref(expr):
        norm = normalize_cap(expr)
        leaf = cap_leaf(norm)
        if norm != leaf:
            prefix = re.sub(r"(?:->|\.)$", "",
                            norm[: len(norm) - len(leaf)])
            return LockRef(expr_class(prefix), leaf)
        if leaf in ci.fields:
            return LockRef(_cls_key(ci), leaf)
        return LockRef("", leaf)

    def refs_of(held):
        return tuple(sorted(lock_ref(h) for h in held))

    for eoff, kind, cap, _send in events:
        if kind in ("raii", "lock"):
            m.acquires.append(Acquire(ref=lock_ref(cap),
                                      line=line_of(stripped, base + eoff),
                                      held=refs_of(held_at(eoff))))

    def add_call(off, callee, recv, recv_class=None):
        recv_n = normalize_cap(recv) if recv and recv != "::" else recv
        if recv_class is None:
            recv_class = expr_class(recv_n) if recv_n and recv_n != "::" \
                else ""
        paren = body.find("(", off)
        args = _call_args(body, paren) if 0 <= paren <= off + 80 else ""
        m.calls.append(Call(callee=callee, recv=recv_n or "",
                            recv_class=recv_class,
                            line=line_of(stripped, base + off),
                            held=refs_of(held_at(off)),
                            args=" ".join(args.split())[:200]))

    call_body = blank_hook_calls(body)
    for cm in MEMBER_CALL_RE.finditer(call_body):
        callee = cm.group(3)
        if callee in ("lock", "unlock"):
            continue  # modeled as lock events above
        add_call(cm.start(3), callee, cm.group(1))
    for cm in FREE_CALL_RE.finditer(call_body):
        callee = cm.group(1)
        if callee in CPP_KEYWORDS or callee in local_types:
            continue
        if re.fullmatch(r"[A-Z][A-Z0-9_]*", callee):
            continue  # macro invocation
        add_call(cm.start(), callee, "")
    for cm in GLOBAL_CALL_RE.finditer(call_body):
        add_call(cm.start(1), cm.group(1), "::", recv_class="<global>")
    for cm in QUALIFIED_CALL_RE.finditer(call_body):
        qual, callee = cm.group(1), cm.group(2)
        segs = re.findall(r"\w+", qual)
        if callee in CPP_KEYWORDS \
                or re.fullmatch(r"[A-Z][A-Z0-9_]*", callee):
            continue
        if "std" in segs:
            # `std::fwrite` / `std::this_thread::sleep_for`: opaque to the
            # call graph, but root_info classifies the blocking ones.
            if len(segs) == 1 or segs[-1] == "this_thread":
                add_call(cm.start(2), callee, qual.replace(" ", ""),
                         recv_class="std")
            continue
        add_call(cm.start(2), callee, qual.replace(" ", ""),
                 recv_class=segs[-1])
    # Log statements expand to a locked+buffered emit in util/log.cpp; model
    # them as a call so R6 sees logging under a lock.  Only lock-held uses
    # enter the call graph (keeps the lock model small); every occurrence is
    # recorded for R10, where hot-path logging is a cost root regardless of
    # what is held.
    for cm in LOG_MACRO_RE.finditer(call_body):
        m.log_lines.append(line_of(stripped, base + cm.start()))
        if held_at(cm.start()):
            add_call(cm.start(), "log_line", "")

    # --- Allocation sites (R8-R10) -----------------------------------------

    def add_alloc(kind, what, off):
        m.allocs.append(Alloc(kind=kind, what=what,
                              line=line_of(stripped, base + off)))

    for nm_ in NEW_EXPR_RE.finditer(call_body):
        if nm_.group(1) is None:
            continue  # placement new / `operator new(` — not a heap expr
        before = call_body[max(0, nm_.start() - 10):nm_.start()]
        if before.rstrip().endswith("operator"):
            continue  # the interposer's own definitions
        add_alloc("new", "new " + nm_.group(1).rsplit("::", 1)[-1],
                  nm_.start())
    for mm_ in MAKE_FN_RE.finditer(call_body):
        add_alloc("make", call_body[mm_.start():mm_.end()], mm_.start())
    for dm_ in ALLOC_TEMP_DECL_RE.finditer(call_body):
        ty = dm_.group(1).replace(" ", "").rsplit("::", 1)[-1]
        add_alloc("temp", ty + " local " + dm_.group(3), dm_.start())
    for sc_ in STR_CONCAT_RE.finditer(call_body):
        add_alloc("temp", "string concatenation", sc_.start())
    for c in m.calls:
        cls_ = _classify_alloc_call(c)
        if cls_:
            m.allocs.append(Alloc(kind=cls_[0], what=cls_[1], line=c.line))

    m.byvalue_params = parse_byvalue_params(scope.header)
    # Moves in the header catch the ctor-init-list sink idiom
    # (`Foo(SharedBuffer b) : b_(std::move(b)) {}`).
    for mv_ in MOVED_NAME_RE.finditer(scope.header + body):
        m.moved.add(mv_.group(1))
        m.moved.add(cap_leaf(mv_.group(1)))


def _enclosing_scope_end(body, off):
    """Offset of the `}` closing the innermost scope containing `off`."""
    depth = 0
    i = off
    while i < len(body):
        if body[i] == "{":
            depth += 1
        elif body[i] == "}":
            if depth == 0:
                return i
            depth -= 1
        i += 1
    return len(body)


# ---------------------------------------------------------------------------
# R4 inputs: struct layouts and raw byte sites
# ---------------------------------------------------------------------------

SIZEOF_TYPES = {
    "bool": (1, 1), "char": (1, 1), "signed char": (1, 1),
    "unsigned char": (1, 1), "int8_t": (1, 1), "uint8_t": (1, 1),
    "short": (2, 2), "unsigned short": (2, 2), "int16_t": (2, 2),
    "uint16_t": (2, 2), "int": (4, 4), "unsigned": (4, 4),
    "unsigned int": (4, 4), "int32_t": (4, 4), "uint32_t": (4, 4),
    "float": (4, 4), "long": (8, 8), "unsigned long": (8, 8),
    "int64_t": (8, 8), "uint64_t": (8, 8), "size_t": (8, 8),
    "double": (8, 8), "long long": (8, 8), "unsigned long long": (8, 8),
    "long double": (16, 16), "std::size_t": (8, 8), "std::uint8_t": (1, 1),
    "std::uint16_t": (2, 2), "std::uint32_t": (4, 4),
    "std::uint64_t": (8, 8), "std::int8_t": (1, 1), "std::int16_t": (2, 2),
    "std::int32_t": (4, 4), "std::int64_t": (8, 8), "uintptr_t": (8, 8),
    "intptr_t": (8, 8), "ptrdiff_t": (8, 8), "wchar_t": (4, 4),
}
NONTRIVIAL_MEMBER_RE = re.compile(
    r"\bstd\s*::\s*(string|vector|map|set|deque|list|unordered_\w+|function|"
    r"shared_ptr|unique_ptr|weak_ptr|optional|variant|any)\b|"
    r"\bSharedBuffer\b|\bBufferChain\b|\bMeshBlock\b|\bField\b")


def build_struct_index(models, root):
    """Second lexical pass over every model file collecting struct layout
    facts for R4.  Independent of the class model above so that plain
    aggregate structs (no methods) are still seen."""
    index = {}
    for fm in models:
        try:
            with open(fm.path, encoding="utf-8", errors="replace") as fh:
                text = fh.read()
        except OSError:
            continue
        stripped = strip_comments_and_strings(text)
        tree = build_scope_tree(stripped)

        def walk(scope):
            for child in scope.children:
                if child.kind == "class" and child.name:
                    layout = compute_layout(child, stripped, fm.rel)
                    # First definition wins; redefinitions across TUs of the
                    # same name are assumed identical (one repo, one ODR).
                    index.setdefault(child.name, layout)
                walk(child)

        walk(tree)
    return index


def compute_layout(scope, stripped, rel):
    has_virtual = bool(re.search(r"\bvirtual\b",
                                 stripped[scope.start:scope.end]))
    has_base = ":" in re.sub(r"::", "", scope.header.split("{")[0]) \
        and not scope.header.rstrip().endswith("final")
    nontrivial = has_virtual
    layout_known = not (has_virtual or has_base)
    offset = 0
    max_align = 1
    padding = 0
    for stmt, _line in class_level_statements(scope, stripped):
        f = parse_field_decl(stmt, 0)
        if not f or f.is_static:
            continue
        t = f.type_str.replace("const ", "").replace("mutable ", "").strip()
        if NONTRIVIAL_MEMBER_RE.search(t):
            nontrivial = True
            layout_known = False
            continue
        if "*" in t or "&" in t:
            size, align = 8, 8
        elif t in SIZEOF_TYPES:
            size, align = SIZEOF_TYPES[t]
        else:
            layout_known = False
            continue
        if offset % align:
            padding += align - (offset % align)
            offset += align - (offset % align)
        offset += size
        max_align = max(max_align, align)
    if layout_known and offset % max_align:
        padding += max_align - (offset % max_align)
    return StructLayout(name=scope.name, file=rel,
                        line=line_of(stripped, scope.start),
                        trivially_copyable=not nontrivial,
                        padded=bool(layout_known and padding),
                        layout_known=layout_known)


MEMCPY_RE = re.compile(r"\b(?:std\s*::\s*)?memcpy\s*\(")
SIZEOF_ARG_RE = re.compile(r"\bsizeof\s*\(\s*([\w:]+)\s*\)")
REINTERPRET_RE = re.compile(
    r"\breinterpret_cast\s*<\s*(?:const\s+)?([\w:]+)\s*\*?\s*>\s*\(")
BYTE_SOURCE_RE = re.compile(
    r"\.data\s*\(|->data\s*\(|\bbytes\b|\bbuf\b|\bbuffer\b|\bpayload\b|"
    r"\bwire\b|\braw\b|unsigned char|uint8_t|\bptr\b")


def collect_sites(fm, stripped):
    for mm in MEMCPY_RE.finditer(stripped):
        args = _call_args(stripped, mm.end() - 1)
        tn = ""
        sm = SIZEOF_ARG_RE.search(args)
        if sm:
            tn = sm.group(1).rsplit("::", 1)[-1]
        fm.sites.append(RawSite(file=fm.rel,
                                line=line_of(stripped, mm.start()),
                                kind="memcpy", type_name=tn,
                                byte_source=True,
                                text=" ".join(args.split())[:120]))
    for cm in REINTERPRET_RE.finditer(stripped):
        args = _call_args(stripped, cm.end() - 1)
        tn = cm.group(1).rsplit("::", 1)[-1]
        fm.sites.append(RawSite(file=fm.rel,
                                line=line_of(stripped, cm.start()),
                                kind="reinterpret_cast", type_name=tn,
                                byte_source=bool(BYTE_SOURCE_RE.search(args)),
                                text=" ".join(args.split())[:120]))


def _call_args(stripped, open_paren):
    depth = 0
    i = open_paren
    while i < len(stripped):
        if stripped[i] == "(":
            depth += 1
        elif stripped[i] == ")":
            depth -= 1
            if depth == 0:
                return stripped[open_paren + 1:i]
        i += 1
    return stripped[open_paren + 1:open_paren + 200]
