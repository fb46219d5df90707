#!/usr/bin/env python3
"""Unit tests for tools/lint.py.

Each rule is exercised both ways: a seeded violation must be reported, and
the corresponding clean construct must not be.  Run directly
(`python3 tools/lint_test.py`) or via ctest (`lint_selftest`).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lint  # noqa: E402


class LintTestCase(unittest.TestCase):
    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="lint_test_")
        self.addCleanup(shutil.rmtree, self.root, ignore_errors=True)

    def write(self, rel, content):
        path = os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        return path

    def run_rules(self, rules):
        return lint.run_lint(self.root, rules)

    def rules_hit(self, violations):
        return {v.rule for v in violations}


class TestRawSync(LintTestCase):
    def test_flags_raw_mutex_and_condition_variable(self):
        self.write("src/a.cpp", """
            #include <mutex>
            std::mutex m;
            std::condition_variable cv;
            std::lock_guard<std::mutex> lock(m);
        """)
        v = self.run_rules(["raw-sync"])
        self.assertEqual(self.rules_hit(v), {"raw-sync"})
        self.assertGreaterEqual(len(v), 3)

    def test_wrapper_implementation_is_allowlisted(self):
        self.write("src/util/mutex.h", "std::mutex m_;\n")
        self.assertEqual(self.run_rules(["raw-sync"]), [])

    def test_ignores_comments_and_strings(self):
        self.write("src/b.cpp", """
            // in the style of std::condition_variable
            /* std::mutex in a block comment */
            const char* s = "std::mutex";
            roc::Mutex ok;
        """)
        self.assertEqual(self.run_rules(["raw-sync"]), [])

    def test_explicit_allow_marker(self):
        self.write("src/c.cpp",
                   "std::mutex m;  // LINT-ALLOW(raw-sync): interop shim\n")
        self.assertEqual(self.run_rules(["raw-sync"]), [])


class TestRawThread(LintTestCase):
    def test_flags_raw_thread_and_detach(self):
        self.write("src/a.cpp", """
            #include <thread>
            std::thread t([] {});
            std::thread u;
            t.detach();
        """)
        v = self.run_rules(["raw-thread"])
        self.assertEqual(self.rules_hit(v), {"raw-thread"})
        self.assertEqual(len(v), 3)

    def test_wrapper_and_platform_shim_are_allowlisted(self):
        self.write("src/util/thread.cpp", "std::thread t_;\nt_.detach();\n")
        self.write("src/sim/platform.cpp", "std::thread t([] {});\n")
        self.assertEqual(self.run_rules(["raw-thread"]), [])

    def test_scoped_uses_stay_legal(self):
        self.write("src/b.cpp", """
            std::thread::id tid = std::this_thread::get_id();
            unsigned n = std::thread::hardware_concurrency();
            roc::Thread ok([] {});
        """)
        self.assertEqual(self.run_rules(["raw-thread"]), [])

    def test_ignores_comments_and_strings(self):
        self.write("src/c.cpp", """
            // backed by std::thread, which we then t.detach()
            const char* s = "std::thread";
            roc::Thread ok([] {});
        """)
        self.assertEqual(self.run_rules(["raw-thread"]), [])

    def test_explicit_allow_marker(self):
        self.write(
            "src/d.cpp",
            "std::thread t([] {});  // LINT-ALLOW(raw-thread): interop\n")
        self.assertEqual(self.run_rules(["raw-thread"]), [])


class TestRawClock(LintTestCase):
    def test_flags_raw_clock_reads(self):
        self.write("src/a.cpp", """
            auto t0 = std::chrono::steady_clock::now();
            auto t1 = std::chrono::system_clock::now();
            auto t2 = std::chrono::high_resolution_clock::now();
        """)
        v = self.run_rules(["raw-clock"])
        self.assertEqual(self.rules_hit(v), {"raw-clock"})
        self.assertEqual(len(v), 3)

    def test_stopwatch_and_telemetry_are_allowlisted(self):
        self.write("src/util/stopwatch.h",
                   "auto t = std::chrono::steady_clock::now();\n")
        self.write("src/telemetry/clock.cpp",
                   "auto t = std::chrono::steady_clock::now();\n")
        self.assertEqual(self.run_rules(["raw-clock"]), [])

    def test_ignores_comments_and_strings(self):
        self.write("src/b.cpp", """
            // std::chrono::steady_clock::now() is banned here
            const char* s = "std::chrono::steady_clock::now()";
            double t = roc::telemetry::now();
        """)
        self.assertEqual(self.run_rules(["raw-clock"]), [])

    def test_explicit_allow_marker(self):
        self.write(
            "src/c.cpp",
            "auto t = std::chrono::steady_clock::now();"
            "  // LINT-ALLOW(raw-clock): boot timing\n")
        self.assertEqual(self.run_rules(["raw-clock"]), [])

    def test_duration_use_without_now_is_clean(self):
        self.write("src/d.cpp", """
            std::chrono::steady_clock::time_point deadline;
            std::chrono::milliseconds pause(5);
        """)
        self.assertEqual(self.run_rules(["raw-clock"]), [])


class TestCatchAll(LintTestCase):
    def test_flags_swallowing_catch_all(self):
        self.write("src/a.cpp", """
            void f() {
              try { g(); } catch (...) { cleanup(); }
            }
        """)
        v = self.run_rules(["catch-all"])
        self.assertEqual(self.rules_hit(v), {"catch-all"})

    def test_rethrow_is_clean(self):
        self.write("src/a.cpp", """
            void f() {
              try { g(); } catch (...) { cleanup(); throw; }
            }
        """)
        self.assertEqual(self.run_rules(["catch-all"]), [])

    def test_current_exception_capture_is_clean(self):
        self.write("src/a.cpp", """
            void f() {
              try { g(); } catch (...) { err = std::current_exception(); }
            }
        """)
        self.assertEqual(self.run_rules(["catch-all"]), [])

    def test_allow_marker_is_clean(self):
        self.write("src/a.cpp", """
            ~Handle() {
              try { g(); } catch (...) {  // LINT-ALLOW(catch-all): dtor
              }
            }
        """)
        self.assertEqual(self.run_rules(["catch-all"]), [])

    def test_typed_catch_is_not_flagged(self):
        self.write("src/a.cpp", """
            void f() {
              try { g(); } catch (const std::exception& e) { log(e); }
            }
        """)
        self.assertEqual(self.run_rules(["catch-all"]), [])


class TestPragmaOnce(LintTestCase):
    def test_flags_missing_pragma_once(self):
        self.write("src/a.h", "#ifndef A_H\n#define A_H\n#endif\n")
        v = self.run_rules(["pragma-once"])
        self.assertEqual(self.rules_hit(v), {"pragma-once"})

    def test_pragma_once_after_comment_is_clean(self):
        self.write("src/a.h", "// \\file a.h\n/// docs\n#pragma once\nint x;\n")
        self.assertEqual(self.run_rules(["pragma-once"]), [])

    def test_sources_are_not_headers(self):
        self.write("src/a.cpp", "int x;\n")
        self.assertEqual(self.run_rules(["pragma-once"]), [])


class TestRawIo(LintTestCase):
    def test_flags_raw_write_family(self):
        self.write("src/rocpanda/leak.cpp", """
            ::write(fd, buf, n);
            ::pwrite(fd, buf, n, off);
            ::pwritev2(fd, iov, 2, off, 0);
        """)
        v = self.run_rules(["raw-io"])
        self.assertEqual(self.rules_hit(v), {"raw-io"})
        self.assertEqual(len(v), 3)

    def test_vfs_implementation_is_allowlisted(self):
        self.write("src/vfs/async.cpp", "::pwrite(fd_, p, n, off);\n")
        self.write("src/vfs/vfs.cpp", "::writev(fd_, iov, cnt);\n")
        self.assertEqual(self.run_rules(["raw-io"]), [])

    def test_methods_and_reads_stay_legal(self):
        self.write("src/b.cpp", """
            file.write(buf, n);
            target->pwrite(buf, n, off);
            ::pread(fd, buf, n, off);
            ::read(fd, buf, n);
        """)
        self.assertEqual(self.run_rules(["raw-io"]), [])

    def test_ignores_comments_and_strings(self):
        self.write("src/c.cpp", """
            // falls back to ::pwrite(fd, ...) on EINVAL
            const char* s = "::write(fd, buf, n)";
        """)
        self.assertEqual(self.run_rules(["raw-io"]), [])

    def test_explicit_allow_marker(self):
        self.write(
            "tests/d.cpp",
            "::pwrite(fd, p, n, off);  // LINT-ALLOW(raw-io): ring fixture\n")
        self.assertEqual(self.run_rules(["raw-io"]), [])


class TestMetricName(LintTestCase):
    def test_flags_bad_names_at_every_emit_site(self):
        self.write("src/a.cpp", """
            void f() {
              ROC_TRACE_SPAN("Client", "ship");
              ROC_TRACE_SPAN_D("client", "Ship.Background", detail);
              ROC_TRACE_INSTANT("server", "spill-over");
              ROC_TRACE_INSTANT_D("server..log", "error", line);
              ROC_TRACE_SPAN("rochdf", "Writer");
            }
        """)
        v = self.run_rules(["metric-name"])
        self.assertEqual(self.rules_hit(v), {"metric-name"})
        self.assertEqual(len(v), 5)

    def test_lowercase_dotted_literals_are_clean(self):
        self.write("src/a.cpp", """
            void f() {
              ROC_TRACE_SPAN("client", "ship.background");
              ROC_TRACE_SPAN_D("server", "snapshot.background", item.base);
              ROC_TRACE_INSTANT("server", "spill");
              ROC_TRACE_INSTANT_D("log", "error", line);
              ROC_TRACE_SPAN("rochdf", "snapshot.background");
            }
        """)
        self.assertEqual(self.run_rules(["metric-name"]), [])

    def test_flags_computed_names(self):
        self.write("src/a.cpp",
                   'ROC_TRACE_INSTANT("rochdf", prefix + ".writer");\n')
        v = self.run_rules(["metric-name"])
        self.assertEqual(len(v), 1)
        self.assertIn("not a single string literal", v[0].message)

    def test_allow_marker_on_same_or_previous_line(self):
        self.write("src/a.cpp", """
            ROC_TRACE_SPAN("server", name);  // LINT-ALLOW(metric-name): dyn
            // LINT-ALLOW(metric-name): assembled from a checked id
            ROC_TRACE_INSTANT("rochdf", prefix + ".writer");
        """)
        self.assertEqual(self.run_rules(["metric-name"]), [])

    def test_multiline_call_is_parsed(self):
        self.write("src/a.cpp", """
            ROC_TRACE_SPAN_D(
                "server",
                "Snapshot.Background", detail);
        """)
        self.assertEqual(len(self.run_rules(["metric-name"])), 1)

    def test_macro_definition_header_is_allowlisted(self):
        self.write("src/telemetry/trace.h", """
            #pragma once
            #define ROC_TRACE_SPAN(category, name) ((void)0)
        """)
        self.assertEqual(self.run_rules(["metric-name"]), [])

    def test_ignores_comments_and_strings(self):
        self.write("src/b.cpp", """
            // e.g. ROC_TRACE_SPAN("Bad", "Name") would be rejected
            const char* s = "ROC_TRACE_INSTANT(Ugly, Name)";
        """)
        self.assertEqual(self.run_rules(["metric-name"]), [])


class TestAnalyzerAllow(LintTestCase):
    def test_flags_suppression_without_why(self):
        self.write("src/a.cpp", """
            // ROCANALYZE-ALLOW(r6-blocking-under-lock): logger contract
            std::fprintf(stderr, "x");
        """)
        v = self.run_rules(["analyzer-allow"])
        self.assertEqual(self.rules_hit(v), {"analyzer-allow"})
        self.assertEqual(len(v), 1)
        self.assertIn("why:", v[0].message)

    def test_flags_malformed_marker(self):
        self.write("src/a.cpp", """
            // ROCANALYZE-ALLOW r6-blocking-under-lock: forgot the parens
            std::fprintf(stderr, "x");
        """)
        v = self.run_rules(["analyzer-allow"])
        self.assertEqual(len(v), 1)
        self.assertIn("malformed", v[0].message)

    def test_justified_suppression_is_clean(self):
        self.write("src/a.cpp", """
            // ROCANALYZE-ALLOW(r6-blocking-under-lock): why: serialized
            // stderr emission is the logger's contract.
            std::fprintf(stderr, "x");
            // ROCANALYZE-ALLOW(all): why: fixture exercises every rule.
            int y;
        """)
        self.assertEqual(self.run_rules(["analyzer-allow"]), [])

    def test_files_without_markers_are_clean(self):
        self.write("src/a.cpp", "int x;\n")
        self.assertEqual(self.run_rules(["analyzer-allow"]), [])


class TestBuildArtifacts(LintTestCase):
    def git(self, *args):
        subprocess.run(
            ["git", "-C", self.root, "-c", "user.email=l@l", "-c",
             "user.name=lint"] + list(args),
            check=True, capture_output=True)

    def test_flags_tracked_build_tree(self):
        self.git("init", "-q")
        self.write("build/CMakeCache.txt", "x\n")
        self.write("build/foo.o", "x\n")
        self.write("src/ok.cpp", "int x;\n")
        self.git("add", "-f", ".")
        v = self.run_rules(["build-artifacts"])
        self.assertEqual(self.rules_hit(v), {"build-artifacts"})
        flagged = {x.path for x in v}
        self.assertIn("build/CMakeCache.txt", flagged)
        self.assertIn("build/foo.o", flagged)
        self.assertNotIn("src/ok.cpp", flagged)

    def test_clean_tree_passes(self):
        self.git("init", "-q")
        self.write("src/ok.cpp", "int x;\n")
        self.git("add", ".")
        self.assertEqual(self.run_rules(["build-artifacts"]), [])


class TestStripper(unittest.TestCase):
    def test_preserves_line_structure(self):
        text = 'int a; // std::mutex\n"std::mutex" /* x\ny */ int b;\n'
        stripped = lint.strip_comments_and_strings(text)
        self.assertEqual(stripped.count("\n"), text.count("\n"))
        self.assertNotIn("std::mutex", stripped)
        self.assertIn("int b;", stripped)

    def test_escaped_quote_in_string(self):
        stripped = lint.strip_comments_and_strings(
            '"a\\"std::mutex"; std::mutex m;')
        self.assertEqual(stripped.count("std::mutex"), 1)


class TestRepoIsClean(unittest.TestCase):
    """The real repository must lint clean (the `lint` ctest)."""

    def test_repo_clean(self):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        violations = lint.run_lint(repo, lint.ALL_RULES)
        self.assertEqual([str(v) for v in violations], [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
