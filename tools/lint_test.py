#!/usr/bin/env python3
"""Unit tests for tools/lint.py: the lock-order auditor (cycle detection
on synthetic trees, annotation + nested-scope edges, scope retirement),
the raw-mutex, wait-while-locked and metric-lookup rules with their
NOLINT escapes, and compile_commands.json auto-discovery. Runs as ctest
`tools_lint_test`."""

import os
import sys
import tempfile
import textwrap
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint  # noqa: E402


def write_tree(root, files):
    for rel, content in files.items():
        path = os.path.join(root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(textwrap.dedent(content))


def lint_src(files, lock_order_only=False):
    with tempfile.TemporaryDirectory() as tmp:
        write_tree(tmp, files)
        errors, _, nlocks, nedges = lint.lint_tree(
            tmp, lock_order_only=lock_order_only)
        return errors, nlocks, nedges


class LockOrderAuditTest(unittest.TestCase):
    def test_inter_file_cycle_detected(self):
        # Store::Put takes a_mu_ then b_mu_; Store::Get (in another file)
        # takes b_mu_ then a_mu_: the classic A->B->A deadlock candidate.
        errors, _, nedges = lint_src({
            "src/store/put.cc": """
                namespace mqa {
                void Store::Put() {
                  MutexLock l1(&a_mu_);
                  MutexLock l2(&b_mu_);
                }
                }  // namespace mqa
            """,
            "src/store/get.cc": """
                namespace mqa {
                void Store::Get() {
                  MutexLock l1(&b_mu_);
                  MutexLock l2(&a_mu_);
                }
                }  // namespace mqa
            """,
        }, lock_order_only=True)
        self.assertEqual(nedges, 2)
        self.assertEqual(len(errors), 1)
        self.assertIn("[lock-order]", errors[0])
        self.assertIn("Store::a_mu_", errors[0])
        self.assertIn("Store::b_mu_", errors[0])

    def test_consistent_order_passes(self):
        errors, _, nedges = lint_src({
            "src/store/put.cc": """
                namespace mqa {
                void Store::Put() {
                  MutexLock l1(&a_mu_);
                  MutexLock l2(&b_mu_);
                }
                void Store::Get() {
                  MutexLock l1(&a_mu_);
                  MutexLock l2(&b_mu_);
                }
                }  // namespace mqa
            """,
        }, lock_order_only=True)
        self.assertEqual(nedges, 1)
        self.assertEqual(errors, [])

    def test_annotation_conflicts_with_nesting(self):
        # Header declares a_mu_ before b_mu_; a source nests the other way.
        errors, _, _ = lint_src({
            "src/store/store.h": """
                #ifndef MQA_STORE_STORE_H_
                #define MQA_STORE_STORE_H_
                namespace mqa {
                class Store {
                 private:
                  Mutex a_mu_ MQA_ACQUIRED_BEFORE(b_mu_);
                  Mutex b_mu_;
                };
                }  // namespace mqa
                #endif  // MQA_STORE_STORE_H_
            """,
            "src/store/store.cc": """
                namespace mqa {
                void Store::Swap() {
                  MutexLock l1(&b_mu_);
                  MutexLock l2(&a_mu_);
                }
                }  // namespace mqa
            """,
        }, lock_order_only=True)
        self.assertEqual(len(errors), 1)
        self.assertIn("lock-order cycle", errors[0])

    def test_acquired_after_direction(self):
        # ACQUIRED_AFTER reverses the edge: b after a == a before b, which
        # is consistent with nesting a -> b.
        errors, _, nedges = lint_src({
            "src/store/store.h": """
                #ifndef MQA_STORE_STORE_H_
                #define MQA_STORE_STORE_H_
                namespace mqa {
                class Store {
                 private:
                  Mutex a_mu_;
                  Mutex b_mu_ MQA_ACQUIRED_AFTER(a_mu_);
                };
                }  // namespace mqa
                #endif  // MQA_STORE_STORE_H_
            """,
            "src/store/store.cc": """
                namespace mqa {
                void Store::Both() {
                  MutexLock l1(&a_mu_);
                  MutexLock l2(&b_mu_);
                }
                }  // namespace mqa
            """,
        }, lock_order_only=True)
        self.assertEqual(nedges, 1)
        self.assertEqual(errors, [])

    def test_scope_exit_releases_lock(self):
        # The first lock's scope closes before the second opens: no edge.
        errors, nlocks, nedges = lint_src({
            "src/store/store.cc": """
                namespace mqa {
                void Store::Sequential() {
                  {
                    MutexLock l1(&a_mu_);
                  }
                  MutexLock l2(&b_mu_);
                }
                void Store::Reversed() {
                  {
                    MutexLock l1(&b_mu_);
                  }
                  MutexLock l2(&a_mu_);
                }
                }  // namespace mqa
            """,
        }, lock_order_only=True)
        self.assertEqual(nlocks, 2)
        self.assertEqual(nedges, 0)
        self.assertEqual(errors, [])

    def test_nolint_lock_order_suppresses_edges(self):
        errors, _, _ = lint_src({
            "src/store/store.cc": """
                namespace mqa {
                void Store::Put() {
                  MutexLock l1(&a_mu_);
                  MutexLock l2(&b_mu_);
                }
                void Store::Get() {
                  MutexLock l1(&b_mu_);
                  // NOLINT(mqa-lock-order): order proven safe by trylock
                  MutexLock l2(&a_mu_);
                }
                }  // namespace mqa
            """,
        }, lock_order_only=True)
        self.assertEqual(errors, [])

    def test_reader_and_writer_locks_participate(self):
        errors, _, _ = lint_src({
            "src/store/store.cc": """
                namespace mqa {
                void Store::A() {
                  ReaderLock l1(&map_mu_);
                  MutexLock l2(&log_mu_);
                }
                void Store::B() {
                  MutexLock l1(&log_mu_);
                  WriterLock l2(&map_mu_);
                }
                }  // namespace mqa
            """,
        }, lock_order_only=True)
        self.assertEqual(len(errors), 1)
        self.assertIn("Store::map_mu_", errors[0])
        self.assertIn("Store::log_mu_", errors[0])


class ServingLockHierarchyTest(unittest.TestCase):
    """Models the serving front end's lock hierarchy (see DESIGN.md
    "Serving"): Server::mu_ (session map) is released before a turn runs,
    and the worker then holds ServerSession::mu for the whole turn.
    Retrieval is re-entrant and takes no serving lock; what a turn still
    takes inside the session lock is StatusMonitor::mu_, each time the
    coordinator emits a stage event (StatusMonitor::Emit, at least twice
    per turn). The auditor must accept that order and still catch the
    monitor reaching back into a session lock while it holds its own
    (say, a subscriber run under mu_ that reads a session): the reversal
    that would deadlock an emitting turn against that subscriber."""

    SERVER_H = """
        #ifndef MQA_SERVER_SERVER_H_
        #define MQA_SERVER_SERVER_H_
        namespace mqa {
        class Server {
         private:
          Mutex mu_;
        };
        class ServerSession {
         private:
          Mutex mu MQA_ACQUIRED_BEFORE(StatusMonitor::mu_);
        };
        class StatusMonitor {
         private:
          Mutex mu_;
        };
        }  // namespace mqa
        #endif  // MQA_SERVER_SERVER_H_
    """

    def test_turn_nesting_is_clean(self):
        errors, _, nedges = lint_src({
            "src/server/server.h": self.SERVER_H,
            "src/server/server.cc": """
                namespace mqa {
                void Server::RunTurn() {
                  MutexLock turn(&ServerSession::mu);
                  MutexLock emit(&StatusMonitor::mu_);
                }
                void Server::FindSession() {
                  MutexLock map(&Server::mu_);
                }
                }  // namespace mqa
            """,
        }, lock_order_only=True)
        self.assertGreaterEqual(nedges, 1)
        self.assertEqual(errors, [])

    def test_monitor_reaching_into_session_is_a_cycle(self):
        errors, _, _ = lint_src({
            "src/server/server.h": self.SERVER_H,
            "src/server/server.cc": """
                namespace mqa {
                void Server::RunTurn() {
                  MutexLock turn(&ServerSession::mu);
                  MutexLock emit(&StatusMonitor::mu_);
                }
                void StatusMonitor::Emit() {
                  MutexLock emit(&StatusMonitor::mu_);
                  MutexLock turn(&ServerSession::mu);
                }
                }  // namespace mqa
            """,
        }, lock_order_only=True)
        self.assertEqual(len(errors), 1)
        self.assertIn("[lock-order]", errors[0])
        self.assertIn("StatusMonitor::mu_", errors[0])
        self.assertIn("ServerSession::mu", errors[0])


class ShardLockHierarchyTest(unittest.TestCase):
    """Models the sharded fan-out's lock discipline (see DESIGN.md
    "Sharded retrieval, hedging & quorum"): the per-query FanoutState
    mutex is a leaf — a shard task takes it only after all retrieval work
    (including the shard's CircuitBreaker mutex) is done. The auditor must
    accept breaker-then-completion nesting in separate scopes and catch a
    shard task holding the completion mutex while recording into the
    breaker (the reversal that would deadlock the fan-out wait against a
    breaker transition callback)."""

    SHARD_H = """
        #ifndef MQA_SHARD_SHARDED_RETRIEVAL_H_
        #define MQA_SHARD_SHARDED_RETRIEVAL_H_
        namespace mqa {
        class CircuitBreaker {
         private:
          Mutex mu_;
        };
        class FanoutState {
         private:
          Mutex mu;
        };
        }  // namespace mqa
        #endif  // MQA_SHARD_SHARDED_RETRIEVAL_H_
    """

    def test_leaf_completion_mutex_is_clean(self):
        errors, _, nedges = lint_src({
            "src/shard/sharded_retrieval.h": self.SHARD_H,
            "src/shard/sharded_retrieval.cc": """
                namespace mqa {
                void ShardedRetrieval::RunShardAttempt() {
                  {
                    MutexLock record(&CircuitBreaker::mu_);
                  }
                  MutexLock done(&FanoutState::mu);
                }
                void ShardedRetrieval::Retrieve() {
                  MutexLock wait(&FanoutState::mu);
                }
                }  // namespace mqa
            """,
        }, lock_order_only=True)
        self.assertEqual(errors, [])

    def test_breaker_under_completion_mutex_is_a_cycle(self):
        errors, _, _ = lint_src({
            "src/shard/sharded_retrieval.h": self.SHARD_H,
            "src/shard/sharded_retrieval.cc": """
                namespace mqa {
                void ShardedRetrieval::GoodOrder() {
                  MutexLock record(&CircuitBreaker::mu_);
                  MutexLock done(&FanoutState::mu);
                }
                void ShardedRetrieval::BadShardTask() {
                  MutexLock done(&FanoutState::mu);
                  MutexLock record(&CircuitBreaker::mu_);
                }
                }  // namespace mqa
            """,
        }, lock_order_only=True)
        self.assertEqual(len(errors), 1)
        self.assertIn("[lock-order]", errors[0])
        self.assertIn("FanoutState::mu", errors[0])
        self.assertIn("CircuitBreaker::mu_", errors[0])


class RawMutexRuleTest(unittest.TestCase):
    def test_flags_std_mutex_outside_sync_h(self):
        errors, _, _ = lint_src({
            "src/util/cache.cc": """
                namespace mqa {
                std::mutex mu;
                }  // namespace mqa
            """,
        })
        self.assertTrue(any("[raw-mutex]" in e for e in errors))

    def test_sync_header_is_exempt(self):
        errors, _, _ = lint_src({
            "src/common/sync.h": """
                #ifndef MQA_COMMON_SYNC_H_
                #define MQA_COMMON_SYNC_H_
                namespace mqa {
                class Mutex {
                  std::mutex mu_;
                };
                }  // namespace mqa
                #endif  // MQA_COMMON_SYNC_H_
            """,
        })
        self.assertEqual([e for e in errors if "[raw-mutex]" in e], [])

    def test_nolint_escape(self):
        errors, _, _ = lint_src({
            "src/util/cache.cc": """
                namespace mqa {
                // NOLINT(mqa-raw-mutex): interop with external API
                std::unique_lock<std::mutex> lk(ext);
                }  // namespace mqa
            """,
        })
        self.assertEqual([e for e in errors if "[raw-mutex]" in e], [])

    def test_flags_condition_variable_and_lock_guard(self):
        errors, _, _ = lint_src({
            "src/util/cache.cc": """
                namespace mqa {
                std::condition_variable cv;
                std::lock_guard<std::mutex> lk(mu);
                }  // namespace mqa
            """,
        })
        self.assertEqual(
            len([e for e in errors if "[raw-mutex]" in e]), 2)


class WaitWhileLockedRuleTest(unittest.TestCase):
    def test_sleep_under_lock_flagged(self):
        errors, _, _ = lint_src({
            "src/util/poll.cc": """
                namespace mqa {
                void Poller::Run() {
                  MutexLock lock(&mu_);
                  clock_->SleepForMillis(5);
                }
                }  // namespace mqa
            """,
        })
        hits = [e for e in errors if "[wait-while-locked]" in e]
        self.assertEqual(len(hits), 1)
        self.assertIn("Poller::mu_", hits[0])

    def test_sleep_after_scope_close_ok(self):
        errors, _, _ = lint_src({
            "src/util/poll.cc": """
                namespace mqa {
                void Poller::Run() {
                  {
                    MutexLock lock(&mu_);
                  }
                  clock_->SleepForMillis(5);
                }
                }  // namespace mqa
            """,
        })
        self.assertEqual(
            [e for e in errors if "[wait-while-locked]" in e], [])

    def test_sleep_in_next_function_ok(self):
        # The lock must not leak past the end of the function body.
        errors, _, _ = lint_src({
            "src/util/poll.cc": """
                namespace mqa {
                void Poller::Hold() {
                  MutexLock lock(&mu_);
                }
                void Poller::Nap() {
                  clock_->SleepForMillis(5);
                }
                }  // namespace mqa
            """,
        })
        self.assertEqual(
            [e for e in errors if "[wait-while-locked]" in e], [])

    def test_parallel_for_under_lock_flagged(self):
        errors, _, _ = lint_src({
            "src/util/poll.cc": """
                namespace mqa {
                void Poller::Run() {
                  MutexLock lock(&mu_);
                  pool_->ParallelFor(0, n, fn);
                }
                }  // namespace mqa
            """,
        })
        self.assertEqual(
            len([e for e in errors if "[wait-while-locked]" in e]), 1)

    def test_nolint_escape(self):
        errors, _, _ = lint_src({
            "src/util/poll.cc": """
                namespace mqa {
                void Poller::Run() {
                  MutexLock lock(&mu_);
                  // NOLINT(mqa-wait-while-locked): mock clock, no real wait
                  clock_->SleepForMillis(5);
                }
                }  // namespace mqa
            """,
        })
        self.assertEqual(
            [e for e in errors if "[wait-while-locked]" in e], [])


class DurableWriteRuleTest(unittest.TestCase):
    def test_flags_ofstream_outside_durability_layer(self):
        errors, _, _ = lint_src({
            "src/core/persistence.cc": """
                namespace mqa {
                void Save() {
                  std::ofstream out("snapshot-3/kb.bin");
                }
                }  // namespace mqa
            """,
        })
        hits = [e for e in errors if "[durable-write]" in e]
        self.assertEqual(len(hits), 1)
        self.assertIn("WriteFileAtomic", hits[0])

    def test_flags_write_capable_fstream(self):
        errors, _, _ = lint_src({
            "src/core/persistence.cc": """
                namespace mqa {
                std::fstream io("wal.log", std::ios::in | std::ios::out);
                }  // namespace mqa
            """,
        })
        self.assertEqual(
            len([e for e in errors if "[durable-write]" in e]), 1)

    def test_read_only_ifstream_is_fine(self):
        errors, _, _ = lint_src({
            "src/core/persistence.cc": """
                namespace mqa {
                std::ifstream in("snapshot-3/kb.bin");
                }  // namespace mqa
            """,
        })
        self.assertEqual(
            [e for e in errors if "[durable-write]" in e], [])

    def test_durability_layer_is_exempt(self):
        errors, _, _ = lint_src({
            "src/storage/durable_file.cc": """
                namespace mqa {
                std::ofstream out(tmp_path);
                }  // namespace mqa
            """,
            "src/storage/wal.cc": """
                namespace mqa {
                std::ofstream log(path, std::ios::app);
                }  // namespace mqa
            """,
        })
        self.assertEqual(
            [e for e in errors if "[durable-write]" in e], [])

    def test_nolint_escape(self):
        errors, _, _ = lint_src({
            "src/core/debug_dump.cc": """
                namespace mqa {
                // NOLINT(mqa-durable-write): debug dump, not recovery state
                std::ofstream out("/tmp/dump.txt");
                }  // namespace mqa
            """,
        })
        self.assertEqual(
            [e for e in errors if "[durable-write]" in e], [])


class RawIntrinsicsRuleTest(unittest.TestCase):
    def test_flags_immintrin_outside_simd_layer(self):
        errors, _, _ = lint_src({
            "src/graph/search.cc": """
                #include <immintrin.h>
                namespace mqa {
                }  // namespace mqa
            """,
        })
        flagged = [e for e in errors if "[raw-intrinsics]" in e]
        self.assertEqual(len(flagged), 1)
        self.assertIn("src/graph/search.cc:2", flagged[0].replace(os.sep, "/"))

    def test_flags_other_isa_headers(self):
        errors, _, _ = lint_src({
            "src/vector/distance.cc": """
                #include <emmintrin.h>
                #include <arm_neon.h>
                namespace mqa {
                }  // namespace mqa
            """,
        })
        self.assertEqual(
            len([e for e in errors if "[raw-intrinsics]" in e]), 2)

    def test_simd_layer_is_exempt(self):
        errors, _, _ = lint_src({
            "src/vector/simd/kernels_avx2.cc": """
                #include <immintrin.h>
                namespace mqa {
                }  // namespace mqa
            """,
        })
        self.assertEqual(
            [e for e in errors if "[raw-intrinsics]" in e], [])

    def test_nolint_escape(self):
        errors, _, _ = lint_src({
            "src/core/cpuinfo.cc": """
                namespace mqa {
                // NOLINT(mqa-raw-intrinsics): startup CPUID probe only
                #include <immintrin.h>
                }  // namespace mqa
            """,
        })
        self.assertEqual(
            [e for e in errors if "[raw-intrinsics]" in e], [])


class MetricLookupRuleTest(unittest.TestCase):
    @staticmethod
    def flagged(errors):
        return [e.replace(os.sep, "/") for e in errors
                if "[metric-lookup]" in e]

    def test_flags_lookup_dereferenced_on_the_same_line(self):
        errors, _, _ = lint_src({
            "src/llm/rewriter.cc": """
                namespace mqa {
                void Rewrite() {
                  Registry().GetCounter("rewriter/calls")->Increment();
                  Registry().GetHistogram("x/ms", Bounds())->Record(1);
                }
                }  // namespace mqa
            """,
        })
        flagged = self.flagged(errors)
        self.assertEqual(len(flagged), 2)
        self.assertIn("src/llm/rewriter.cc:4", flagged[0])
        self.assertIn("src/llm/rewriter.cc:5", flagged[1])

    def test_flags_dereference_on_the_next_line(self):
        errors, _, _ = lint_src({
            "src/server/server.cc": """
                namespace mqa {
                void Start() {
                  MetricsRegistry::Global()
                      .GetGauge("server/simd_level")
                      ->Set(2.0);
                }
                }  // namespace mqa
            """,
        })
        flagged = self.flagged(errors)
        self.assertEqual(len(flagged), 1)
        self.assertIn("src/server/server.cc:5", flagged[0])

    def test_resolved_once_is_fine(self):
        errors, _, _ = lint_src({
            "src/graph/search.cc": """
                namespace mqa {
                Server::Server()
                    : failed_(Registry().GetCounter("server/failed")) {
                  fw->hedges_ = metrics.GetCounter("shard/hedges");
                }
                void Search() {
                  static Counter* const searches =
                      MetricsRegistry::Global().GetCounter("graph/searches");
                  searches->Increment();
                  Gauge* const level = registry.GetGauge("server/level");
                  level->Set(1.0);
                }
                }  // namespace mqa
            """,
        })
        self.assertEqual(self.flagged(errors), [])

    def test_nolint_escape(self):
        errors, _, _ = lint_src({
            "src/server/server.cc": """
                namespace mqa {
                void Start() {
                  // NOLINT(mqa-metric-lookup): once per server
                  MetricsRegistry::Global().GetGauge("server/up")->Set(1.0);
                  MetricsRegistry::Global()
                      .GetGauge("server/level")  // NOLINT(mqa-metric-lookup)
                      ->Set(2.0);
                }
                }  // namespace mqa
            """,
        })
        self.assertEqual(self.flagged(errors), [])


class CompileCommandsDiscoveryTest(unittest.TestCase):
    def test_picks_newest_build_dir(self):
        with tempfile.TemporaryDirectory() as tmp:
            old = os.path.join(tmp, "build-release")
            new = os.path.join(tmp, "build-tsa")
            for d in (old, new):
                os.makedirs(d)
                with open(os.path.join(d, "compile_commands.json"),
                          "w") as f:
                    f.write("[]")
            past = time.time() - 1000
            os.utime(os.path.join(old, "compile_commands.json"),
                     (past, past))
            build_dir, db = lint.find_compile_commands(tmp, None)
            self.assertEqual(build_dir, new)
            self.assertTrue(db.endswith("compile_commands.json"))

    def test_explicit_build_dir_wins(self):
        with tempfile.TemporaryDirectory() as tmp:
            chosen = os.path.join(tmp, "out")
            os.makedirs(chosen)
            with open(os.path.join(chosen, "compile_commands.json"),
                      "w") as f:
                f.write("[]")
            build_dir, db = lint.find_compile_commands(tmp, chosen)
            self.assertEqual(build_dir, chosen)
            self.assertIsNotNone(db)

    def test_no_database_found(self):
        with tempfile.TemporaryDirectory() as tmp:
            build_dir, db = lint.find_compile_commands(tmp, None)
            self.assertIsNone(build_dir)
            self.assertIsNone(db)


class RepoSelfCheckTest(unittest.TestCase):
    def test_repo_src_is_clean(self):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        if not os.path.isdir(os.path.join(repo, "src")):
            self.skipTest("not running inside the repo")
        errors, nfiles, nlocks, _ = lint.lint_tree(repo)
        self.assertEqual(errors, [])
        self.assertGreater(nfiles, 50)
        # The migration left every acquisition visible to the auditor.
        self.assertGreater(nlocks, 5)


if __name__ == "__main__":
    unittest.main()
