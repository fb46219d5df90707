#!/usr/bin/env python3
"""Self-tests for tools/rocanalyze.

Each rule family is exercised against its planted-violation fixture in
tools/rocanalyze/fixtures/ (every expected rule id must fire, and nothing
else), the real tree must analyze clean, and the baseline and suppression
mechanics are covered.  Run directly or via ctest
(`rocanalyze_selftest`).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
DRIVER = os.path.join(HERE, "rocanalyze.py")
FIXTURES = os.path.join(HERE, "fixtures")

EXPECTED = {
    "r1_dangling_view.cpp": {"r1-stored-view", "r1-return-view"},
    "r2_unannotated_guard.cpp": {"r2-unannotated", "r2-unlocked-access"},
    "r3_hookless_shared.cpp": {"r3-missing-hook", "r3-unregistered-sibling"},
    "r4_padded_memcpy.cpp": {"r4-memcpy-struct", "r4-cast-serialize"},
    "r5_lock_cycle.cpp": {"r5-lock-cycle"},
    "r6_blocking_chain.cpp": {"r6-blocking-under-lock"},
    "r8_hotpath_alloc.cpp": {"r8-hotpath-alloc"},
    "r9_copy_discipline.cpp": {"r9-copy-discipline"},
    "r10_cold_escape.cpp": {"r10-cold-escape"},
}


def run_driver(*args):
    proc = subprocess.run(
        [sys.executable, DRIVER, *args],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def analyze(paths, *extra):
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tf:
        out = tf.name
    try:
        rc, stdout, stderr = run_driver(
            "--root", ROOT, "--no-baseline", "-q",
            "--out", out, "--paths", *paths, *extra)
        with open(out, encoding="utf-8") as fh:
            findings = json.load(fh)["findings"]
    finally:
        os.unlink(out)
    return rc, findings, stdout, stderr


class TestFixtures(unittest.TestCase):
    """Every planted violation is caught, with the right rule id, and the
    fixtures contain no accidental extra violations."""

    def test_each_fixture_yields_exactly_its_rules(self):
        for name, want in EXPECTED.items():
            with self.subTest(fixture=name):
                rc, findings, _, _ = analyze(
                    [os.path.join(FIXTURES, name)])
                self.assertEqual(rc, 1, f"{name} should fail the run")
                self.assertEqual({f["rule"] for f in findings}, want)

    def test_findings_carry_location_and_fingerprint(self):
        _, findings, _, _ = analyze(
            [os.path.join(FIXTURES, "r4_padded_memcpy.cpp")])
        for f in findings:
            self.assertTrue(f["file"].endswith("r4_padded_memcpy.cpp"))
            self.assertGreater(f["line"], 0)
            self.assertRegex(f["fingerprint"], r"^[0-9a-f]{16}$")

    def test_templated_owner_backs_a_stored_view(self):
        # `std::shared_ptr<T>` is an owner like a bare `SharedBuffer`; a
        # container of views still owns no bytes.
        src = (
            "#include <memory>\n"
            "#include <vector>\n"
            "struct ConstBuffer { const char* data; unsigned long size; };\n"
            "struct Meta { int id; };\n"
            "class Item {\n"
            " private:\n"
            "  std::shared_ptr<const Meta> meta_;\n"
            "  ConstBuffer view_;\n"
            "};\n"
            "class Gather {\n"
            " private:\n"
            "  std::vector<ConstBuffer> segments_;\n"
            "};\n")
        with tempfile.TemporaryDirectory(prefix="rocanalyze_test_") as d:
            path = os.path.join(d, "owners.cpp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(src)
            _, findings, _, _ = analyze([path])
        self.assertEqual(
            [(f["rule"], f["class"], f["symbol"]) for f in findings],
            [("r1-stored-view", "Gather", "segments_")])

    def test_rule_selection(self):
        rc, findings, _, _ = analyze(
            [os.path.join(FIXTURES, "r2_unannotated_guard.cpp")],
            "--rules", "r2-unlocked-access")
        self.assertEqual({f["rule"] for f in findings},
                         {"r2-unlocked-access"})
        self.assertEqual(rc, 1)


class TestSuppression(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp(prefix="rocanalyze_test_")
        self.addCleanup(shutil.rmtree, self.dir, ignore_errors=True)

    def read_fixture(self, name):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            return fh.read()

    def test_inline_allow_silences_named_rule_only(self):
        src = self.read_fixture("r4_padded_memcpy.cpp")
        src = src.replace(
            "  std::memcpy(",
            "  // ROCANALYZE-ALLOW(r4-memcpy-struct): fixture self-test\n"
            "  std::memcpy(")
        path = os.path.join(self.dir, "allowed.cpp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(src)
        rc, findings, _, _ = analyze([path])
        self.assertEqual({f["rule"] for f in findings},
                         {"r4-cast-serialize"})
        self.assertEqual(rc, 1)

    def test_inline_allow_silences_interproc_rules(self):
        # The interprocedural findings anchor at deterministic lines (R5:
        # the cycle's anchor acquisition, R6: the lock-held call site), so
        # the same inline-allow machinery applies.
        cases = [
            ("r5_lock_cycle.cpp", "r5-lock-cycle",
             "    roc::MutexLock src(mu_source_);  // <- r5-lock-cycle"),
            ("r6_blocking_chain.cpp", "r6-blocking-under-lock",
             "    append_record(rec, n);"),
            ("r10_cold_escape.cpp", "r10-cold-escape",
             "    fwrite(seg.data(), 1, seg.size(), journal_);"),
        ]
        for name, rule, anchor in cases:
            with self.subTest(rule=rule):
                src = self.read_fixture(name)
                self.assertIn(anchor, src)
                src = src.replace(
                    anchor,
                    f"    // ROCANALYZE-ALLOW({rule}): why: self-test\n"
                    + anchor)
                path = os.path.join(self.dir, f"allowed_{name}")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(src)
                rc, findings, _, _ = analyze([path])
                self.assertEqual(findings, [], f"{rule} not suppressed")
                self.assertEqual(rc, 0)

    # A charged allocation buried in the argument list of a multi-line
    # call: the ALLOW marker sits above the call, the `new` anchors on the
    # last argument line -- more than two lines below the marker, so only
    # the paren-span extension (cxxmodel.extend_allow_spans) covers it.
    MULTILINE_HOT = """
class Frame {
 public:
  Frame();
};
class Pump {
 public:
  ROC_HOT void pump() {
    stage(
        1,
        2,
        new Frame());
  }
  void stage(int a, int b, Frame* f);
};
"""

    def test_allow_extends_over_multiline_call_arguments(self):
        plain = os.path.join(self.dir, "multiline.cpp")
        with open(plain, "w", encoding="utf-8") as fh:
            fh.write(self.MULTILINE_HOT)
        rc, findings, _, _ = analyze([plain])
        self.assertEqual({f["rule"] for f in findings}, {"r8-hotpath-alloc"})
        lines = self.MULTILINE_HOT.splitlines()
        call_line = lines.index("    stage(") + 1
        # The finding anchors outside the plain marker window (marker line
        # plus two below); suppression must ride the paren span.
        self.assertGreater(findings[0]["line"], call_line + 2)
        src = self.MULTILINE_HOT.replace(
            "    stage(",
            "    // ROCANALYZE-ALLOW(r8-hotpath-alloc): why: self-test\n"
            "    stage(")
        allowed = os.path.join(self.dir, "multiline_allowed.cpp")
        with open(allowed, "w", encoding="utf-8") as fh:
            fh.write(src)
        rc, findings, _, _ = analyze([allowed])
        self.assertEqual(findings, [])
        self.assertEqual(rc, 0)

    def test_alloc_exempt_bracket_silences_r8_for_its_block(self):
        # ROC_ALLOC_EXEMPT("why: ...") is the runtime interposer's exempt
        # bracket; R8 reads the same marker, exempting the rest of the
        # enclosing block.  Without a why: it exempts nothing.
        src = self.read_fixture("r8_hotpath_alloc.cpp")
        anchor = "    std::vector<int> sizes;  // <- r8-hotpath-alloc (temp)"
        self.assertIn(anchor, src)
        for marker, want in (
                ('ROC_ALLOC_EXEMPT("why: self-test");', ["stage_header"]),
                ("ROC_ALLOC_EXEMPT();", ["encode_payload", "encode_payload",
                                         "stage_header"])):
            with self.subTest(marker=marker):
                path = os.path.join(self.dir, "exempt.cpp")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(src.replace(anchor, f"    {marker}\n" + anchor))
                _, findings, _, _ = analyze([path])
                self.assertEqual(
                    sorted(f["symbol"].split(":")[0] for f in findings), want)

    def test_r9_byvalue_move_sink_is_clean(self):
        # std::move-ing the by-value parameter into its final home is the
        # sanctioned sink idiom: only the hot-path materialise remains.
        src = self.read_fixture("r9_copy_discipline.cpp")
        src = src.replace("last_ = keep;", "last_ = std::move(keep);")
        path = os.path.join(self.dir, "moved.cpp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(src)
        _, findings, _, _ = analyze([path])
        self.assertEqual([f["symbol"] for f in findings],
                         ["forward:materialize:to_vector on slice"])

    def test_fingerprints_survive_line_drift(self):
        src = self.read_fixture("r1_dangling_view.cpp")
        a = os.path.join(self.dir, "fixture.cpp")
        with open(a, "w", encoding="utf-8") as fh:
            fh.write(src)
        _, before, _, _ = analyze([a])
        with open(a, "w", encoding="utf-8") as fh:
            fh.write("\n\n// shifted by a header comment\n\n" + src)
        _, after, _, _ = analyze([a])
        self.assertEqual({f["fingerprint"] for f in before},
                         {f["fingerprint"] for f in after})
        self.assertNotEqual([f["line"] for f in before],
                            [f["line"] for f in after])

    def test_r8_fingerprints_survive_line_drift(self):
        # Interprocedural findings carry witness chains with file:line
        # frames; the fingerprint must not absorb those drifting lines.
        src = self.read_fixture("r8_hotpath_alloc.cpp")
        a = os.path.join(self.dir, "r8drift.cpp")
        with open(a, "w", encoding="utf-8") as fh:
            fh.write(src)
        _, before, _, _ = analyze([a])
        with open(a, "w", encoding="utf-8") as fh:
            fh.write("\n\n// shifted by a header comment\n\n" + src)
        _, after, _, _ = analyze([a])
        self.assertEqual({f["fingerprint"] for f in before},
                         {f["fingerprint"] for f in after})
        self.assertNotEqual([f["line"] for f in before],
                            [f["line"] for f in after])


class TestAllocClosure(unittest.TestCase):
    """Hot-closure construction details R8 rests on (allocsum.py), driven
    in-process: root discovery through class-level ROC_HOT declarations
    (a pure virtual seeds every override via the name union), ROC_COLD
    cutoffs, and witness-chain propagation to the allocation site."""

    SRC_ENGINE = """
class Engine {
 public:
  ROC_HOT virtual void submit(int sqe) = 0;
};
class UringEngine : public Engine {
 public:
  void submit(int sqe) { ring_ = new int; }
 private:
  int* ring_ = nullptr;
};
"""
    SRC_SPINE = """
class Spine {
 public:
  ROC_HOT void pump() {
    step_a();
    report();
  }
  void step_a() { step_b(); }
  void step_b() { scratch_ = new char; }
  ROC_COLD void report() { summary_ = new char; }
 private:
  char* scratch_ = nullptr;
  char* summary_ = nullptr;
};
"""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, HERE)
        import allocsum
        import cxxmodel
        cls.dir = tempfile.mkdtemp(prefix="rocanalyze_alloc_")
        for name, src in (("engine.cpp", cls.SRC_ENGINE),
                          ("spine.cpp", cls.SRC_SPINE)):
            with open(os.path.join(cls.dir, name), "w",
                      encoding="utf-8") as fh:
                fh.write(src)
        models, _ = cxxmodel.LexicalEngine(
            cls.dir, ["engine.cpp", "spine.cpp"]).build()
        cls.analysis = allocsum.analyze(models)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)
        sys.path.remove(HERE)

    def test_hot_decl_on_pure_virtual_seeds_overrides(self):
        # Mirrors the ROC_HOT virtual Comm::sendv in src/comm/comm.h: the
        # annotation lives on the interface, the allocation in an override.
        self.assertIn(("UringEngine", "submit"), self.analysis.hot)

    def test_cold_annotation_cuts_the_closure(self):
        self.assertIn(("Spine", "step_b"), self.analysis.hot)
        self.assertNotIn(("Spine", "report"), self.analysis.hot)

    def test_witness_chain_records_the_call_path(self):
        root, chain = self.analysis.hot[("Spine", "step_b")]
        self.assertEqual(root, "Spine::pump")
        self.assertEqual(chain[0], "Spine::pump")
        self.assertIn("Spine::pump -> Spine::step_a", chain[1])
        self.assertIn("Spine::step_a -> Spine::step_b", chain[2])


class TestCallGraph(unittest.TestCase):
    """Program construction and the call-resolution ladder (callgraph.py),
    driven in-process over a synthetic two-file tree."""

    SRC_A = """
namespace roc {
class Mutex { public: void lock(); void unlock(); };
class MutexLock { public: explicit MutexLock(Mutex& m); };
}
class Ring {
 public:
  void push_frame(int x) { seal(); }
  void seal() {}
};
class Pool {
 public:
  void push_frame(int x) {}
};
void drain_all() {}
"""
    SRC_B = """
class Consumer {
 public:
  void pump() {
    ring_->push_frame(1);     // receiver class known
    helper();                 // implicit this
    drain_all();              // free function (other file)
    cv_.notify_all();         // opaque std receiver
  }
  void helper() {}
 private:
  Ring* ring_ = nullptr;
  std::condition_variable cv_;
};
"""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, HERE)
        import callgraph
        import cxxmodel
        cls.dir = tempfile.mkdtemp(prefix="rocanalyze_cg_")
        for name, src in (("a.cpp", cls.SRC_A), ("b.cpp", cls.SRC_B)):
            with open(os.path.join(cls.dir, name), "w",
                      encoding="utf-8") as fh:
                fh.write(src)
        models, _ = cxxmodel.LexicalEngine(
            cls.dir, ["a.cpp", "b.cpp"]).build()
        cls.prog = callgraph.build_program(models)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)
        sys.path.remove(HERE)

    def calls_of(self, cls_name, method):
        for (ck, name), defs in self.prog.methods.items():
            if ck == cls_name and name == method:
                return {c.callee: c for _, m, _ in defs for c in m.calls}
        self.fail(f"{cls_name}::{method} not modeled")

    def test_known_receiver_resolves_to_that_class(self):
        calls = self.calls_of("Consumer", "pump")
        self.assertEqual(
            self.prog.resolve_call(calls["push_frame"],
                                   ("Consumer", "pump")),
            [("Ring", "push_frame")])

    def test_implicit_receiver_resolves_to_own_class(self):
        calls = self.calls_of("Consumer", "pump")
        self.assertEqual(
            self.prog.resolve_call(calls["helper"], ("Consumer", "pump")),
            [("Consumer", "helper")])

    def test_free_function_resolves_across_files(self):
        calls = self.calls_of("Consumer", "pump")
        self.assertEqual(
            self.prog.resolve_call(calls["drain_all"], ("Consumer", "pump")),
            [("<file>:a.cpp", "drain_all")])

    def test_opaque_std_receiver_is_a_leaf(self):
        calls = self.calls_of("Consumer", "pump")
        self.assertEqual(
            self.prog.resolve_call(calls["notify_all"], ("Consumer", "pump")),
            [])

    def test_common_name_does_not_fan_out_unreceivered(self):
        # push_frame is defined by Ring AND Pool; with no receiver class it
        # may fan out (it is not in COMMON_METHOD_NAMES), but a genuinely
        # common accessor name must not.
        import callgraph
        from cxxmodel import Call
        unknown = Call(callee="push_frame", recv="x", recv_class="",
                       line=1, held=())
        self.assertEqual(
            sorted(self.prog.resolve_call(unknown, ("Consumer", "pump"))),
            [("Pool", "push_frame"), ("Ring", "push_frame")])
        common = Call(callee="size", recv="x", recv_class="",
                      line=1, held=())
        self.assertIn("size", callgraph.COMMON_METHOD_NAMES)
        self.assertEqual(
            self.prog.resolve_call(common, ("Consumer", "pump")), [])


class TestLockSetDataflow(unittest.TestCase):
    """Held-set propagation details R6 correctness rests on: scope joins,
    lambda contexts, and wait-release semantics."""

    def setUp(self):
        self.dir = tempfile.mkdtemp(prefix="rocanalyze_ls_")
        self.addCleanup(shutil.rmtree, self.dir, ignore_errors=True)

    def findings_for(self, src, rules="r6-blocking-under-lock"):
        path = os.path.join(self.dir, "case.cpp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(src)
        _, findings, _, _ = analyze([path], "--rules", rules)
        return findings

    STUB = """
namespace roc {
class Mutex { public: void lock(); void unlock(); };
class MutexLock { public: explicit MutexLock(Mutex& m); };
class Thread { public: void join(); };
}
"""

    def test_scope_exit_releases_raii_lock(self):
        # The blocking op INSIDE the scoped block is flagged; the identical
        # op after the closing brace sees an empty lock set.
        src = self.STUB + """
class Sink {
 public:
  void inside() {
    {
      roc::MutexLock lock(mu_);
      fflush(out_);
    }
  }
  void after() {
    {
      roc::MutexLock lock(mu_);
    }
    fflush(out_);
  }
 private:
  roc::Mutex mu_;
  FILE* out_ = nullptr;
};
"""
        findings = self.findings_for(src)
        self.assertEqual([f["symbol"] for f in findings],
                         ["inside:fflush"])

    def test_explicit_unlock_clears_the_capability(self):
        src = self.STUB + """
class Sink {
 public:
  void pump() {
    mu_.lock();
    mu_.unlock();
    fflush(out_);
  }
 private:
  roc::Mutex mu_;
  FILE* out_ = nullptr;
};
"""
        self.assertEqual(self.findings_for(src), [])

    def test_lambda_body_has_fresh_lock_context(self):
        # A lambda handed to a thread runs later, elsewhere: the lock held
        # at the construction site is NOT held inside the body (and a
        # blocking call after the inner scoped lock is clean too).
        src = self.STUB + """
class Poller {
 public:
  void start() {
    roc::MutexLock lock(mu_);
    worker_ = roc::Thread([this] {
      {
        roc::MutexLock inner(mu_);
      }
      fflush(out_);
    });
  }
 private:
  roc::Mutex mu_;
  roc::Thread worker_;
  FILE* out_ = nullptr;
};
"""
        self.assertEqual(self.findings_for(src), [])

    def test_deepest_lock_holding_frame_reports_once(self):
        # Both outer() and inner() hold a lock on the path to the blocking
        # op; only the deepest lock-holding frame (inner) reports.
        src = self.STUB + """
class Nested {
 public:
  void outer() {
    roc::MutexLock lock(mu_a_);
    inner();
  }
  void inner() {
    roc::MutexLock lock(mu_b_);
    fflush(out_);
  }
 private:
  roc::Mutex mu_a_;
  roc::Mutex mu_b_;
  FILE* out_ = nullptr;
};
"""
        findings = self.findings_for(src)
        self.assertEqual([f["symbol"] for f in findings],
                         ["inner:fflush"])

    def test_r5_reports_both_acquisition_paths(self):
        _, findings, _, _ = analyze(
            [os.path.join(FIXTURES, "r5_lock_cycle.cpp")],
            "--rules", "r5-lock-cycle")
        self.assertEqual(len(findings), 1)
        msg = findings[0]["message"]
        self.assertIn("transfer_forward", msg)
        self.assertIn("transfer_reverse", msg)

    def test_r6_finding_carries_the_full_call_chain(self):
        _, findings, _, _ = analyze(
            [os.path.join(FIXTURES, "r6_blocking_chain.cpp")])
        self.assertEqual(len(findings), 1)
        msg = findings[0]["message"]
        for frame in ("commit", "append_record", "flush_bytes", "fwrite"):
            self.assertIn(frame, msg)


class TestBaselineFlow(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp(prefix="rocanalyze_test_")
        self.addCleanup(shutil.rmtree, self.dir, ignore_errors=True)
        self.baseline = os.path.join(self.dir, "baseline.json")
        self.fixture = os.path.join(FIXTURES, "r3_hookless_shared.cpp")

    def drive(self, *extra):
        return run_driver("--root", ROOT,
                          "--baseline", self.baseline,
                          "--paths", self.fixture, *extra)

    def test_update_then_rerun_is_clean_and_strict_wants_justification(self):
        rc, _, _ = self.drive("--update-baseline")
        self.assertEqual(rc, 0)
        rc, _, _ = self.drive()
        self.assertEqual(rc, 0, "baselined findings must not fail the run")
        rc, out, _ = self.drive("--strict")
        self.assertEqual(rc, 1, "--strict rejects unjustified entries")
        self.assertIn("justification", out)
        with open(self.baseline, encoding="utf-8") as fh:
            data = json.load(fh)
        for e in data["findings"]:
            e["justification"] = "why: accepted for the self-test"
        with open(self.baseline, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        rc, _, _ = self.drive("--strict")
        self.assertEqual(rc, 0)

    def test_strict_flags_stale_entries(self):
        self.drive("--update-baseline")
        rc, out, _ = run_driver(
            "--root", ROOT,
            "--baseline", self.baseline, "--strict",
            "--paths", os.path.join(FIXTURES, "r1_dangling_view.cpp"))
        self.assertEqual(rc, 1)
        self.assertIn("stale", out)


class TestTree(unittest.TestCase):
    def test_real_tree_is_clean_in_strict_mode(self):
        rc, out, err = run_driver("--root", ROOT, "--strict")
        self.assertEqual(rc, 0, f"tree not clean:\n{out}\n{err}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
