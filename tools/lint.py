#!/usr/bin/env python3
"""Repo-specific lint for the MQA codebase.

Enforced rules (over src/):
  guard       include guards must be named MQA_<PATH>_H_ (e.g.
              src/graph/hnsw.h -> MQA_GRAPH_HNSW_H_) and closed with a
              matching `#endif  // MQA_..._H_` comment.
  naked-new   no naked `new`: every allocation must be owned on the same
              (or the immediately preceding) line by unique_ptr/shared_ptr/
              make_unique/make_shared, or carry a NOLINT marker.
  endl        no std::endl (an unconditional flush) anywhere in src/ —
              stream '\n' instead.
  assert      no raw assert() / <cassert> outside common/check.h; use
              MQA_CHECK / MQA_DCHECK, which survive NDEBUG and carry context.
  sleep       no direct std::this_thread::sleep_for / sleep_until in src/
              outside common/clock.cc: waiting code must go through the
              mqa::Clock interface so retry backoff, breaker cool-downs and
              injected fault latency stay mockable (tests never sleep).
              Escape hatch: NOLINT(mqa-sleep) with a reason.
  raw-mutex   no un-annotated std:: synchronization primitives (mutex,
              shared_mutex, condition_variable, lock_guard, unique_lock,
              scoped_lock, ...) outside common/sync.h: all locking goes
              through mqa::Mutex/SharedMutex/CondVar + MutexLock/
              ReaderLock/WriterLock so Clang Thread Safety Analysis sees
              every acquisition. Escape hatch: NOLINT(mqa-raw-mutex).
  durable-write
              no write-capable std:: file stream (std::ofstream /
              std::fstream) in src/ outside the durability layer
              (storage/durable_file.cc, storage/wal.cc): snapshot and WAL
              artifacts must be written through WriteFileAtomic (temp +
              fsync + rename) or the WalWriter so a crash can never leave
              a half-written file where recovery expects a good one.
              Read-only std::ifstream is fine. Escape hatch:
              NOLINT(mqa-durable-write) with a reason.
  raw-intrinsics
              no raw SIMD intrinsics header (<immintrin.h> and friends)
              outside src/vector/simd/: ISA-specific code lives behind the
              runtime-dispatched kernel table (vector/simd/simd.h) so every
              call site stays portable and every tier stays testable. Use
              the dispatch table (ActiveKernels/KernelsFor) or PrefetchRead
              instead. Escape hatch: NOLINT(mqa-raw-intrinsics) with a
              reason.
  wait-while-locked
              no blocking call (Clock::SleepForMicros/SleepForMillis,
              ThreadPool::ParallelFor, FaultInjector latency injection)
              while a MutexLock/ReaderLock/WriterLock is lexically alive:
              a sleep under a lock serializes every other thread behind
              one slow caller. CondVar::Wait is exempt (it releases the
              mutex while blocked). Escape hatch:
              NOLINT(mqa-wait-while-locked) with a reason.
  metric-lookup
              no per-event metric lookup: a Get{Counter,Gauge,Histogram}
              call with a string-literal name whose result is dereferenced
              with `->` in the same expression (on the same line or the
              next one) probes the registry's map under its lock on every
              event. Resolve the metric once, into a `static Counter*
              const` or a member, and use the pointer. Escape hatch:
              NOLINT(mqa-metric-lookup) with a reason.

Lock-order audit (over src/, runs with the rules above):
  Builds the process-wide lock graph from two sources —
    1. MQA_ACQUIRED_BEFORE / MQA_ACQUIRED_AFTER annotations on mutex
       members, and
    2. lexically nested MutexLock/ReaderLock/WriterLock scopes (taking B
       while holding A adds the edge A -> B)
  — then fails on any cycle: a cycle is a static deadlock candidate that
  ThreadSanitizer only reports if a test happens to interleave it.
  Locks are named <EnclosingClass>::<member> (file stem when no class
  context is visible), so the graph spans files. A lock acquisition
  marked NOLINT(mqa-lock-order) contributes no edges.

Also drives clang-tidy (--clang-tidy auto|on|off) when a binary and a
compile_commands.json are available (auto-discovered as the newest
build*/compile_commands.json when --build-dir is not given), and
clang-format checking (--format-check-only) over src/ tests/ bench/
examples/.

Exit code 0 = clean, 1 = violations found, 2 = usage/environment error.
"""

import argparse
import glob as globlib
import os
import re
import shutil
import subprocess
import sys

SRC_EXTS = (".h", ".cc")
FORMAT_DIRS = ("src", "tests", "bench", "examples")
FORMAT_EXTS = (".h", ".cc", ".cpp")

NOLINT_RE = re.compile(r"NOLINT")
NEW_RE = re.compile(r"\bnew\s+[A-Za-z_:<]")
OWNED_RE = re.compile(r"unique_ptr|shared_ptr|make_unique|make_shared")
ASSERT_RE = re.compile(r"(^|[^_\w.])assert\s*\(")
SLEEP_RE = re.compile(r"\bsleep_(for|until)\s*\(")
GUARD_IF_RE = re.compile(r"^#ifndef\s+(\S+)")
GUARD_DEF_RE = re.compile(r"^#define\s+(\S+)")

# durable-write: write-capable file streams banned outside the durability
# layer; snapshots and WAL frames must go through WriteFileAtomic/WalWriter.
DURABLE_WRITE_RE = re.compile(r"\bstd::(ofstream|fstream)\b")
DURABLE_LAYER = (
    os.path.join("storage", "durable_file.cc"),
    os.path.join("storage", "wal.cc"),
)

# raw-intrinsics: ISA-specific intrinsics headers banned outside the
# dispatch layer in src/vector/simd/.
RAW_INTRINSICS_RE = re.compile(
    r"#include\s*<(immintrin|x86intrin|xmmintrin|emmintrin|pmmintrin"
    r"|tmmintrin|smmintrin|nmmintrin|wmmintrin|avxintrin|avx2intrin"
    r"|avx512fintrin|arm_neon|arm_sve)\.h>")
SIMD_LAYER_PREFIX = os.path.join("src", "vector", "simd") + os.sep

# raw-mutex: std synchronization vocabulary banned outside common/sync.h.
RAW_MUTEX_RE = re.compile(
    r"\bstd::(recursive_mutex|shared_mutex|timed_mutex|recursive_timed_mutex"
    r"|mutex|condition_variable_any|condition_variable|lock_guard"
    r"|unique_lock|shared_lock|scoped_lock)\b")

# Acquisition of an annotated RAII lock:  MutexLock lock(&expr);
LOCK_DECL_RE = re.compile(
    r"\b(MutexLock|ReaderLock|WriterLock)\s+\w+\s*[({]\s*&?(.+?)\s*[)}]\s*;")

# Blocking calls that must not run under a lock. CondVar::Wait is exempt:
# it releases the mutex for the duration of the block.
BLOCKING_RE = re.compile(
    r"\bSleepFor(Micros|Millis)\s*\(|\bParallelFor\s*\("
    r"|\bFaultInjector::Global\(\)\.Check\s*\(")

# metric-lookup: a literal-named registry lookup dereferenced in the same
# expression. Literals are already blanked to "" by
# strip_comments_and_strings.
METRIC_LOOKUP = (r'\bGet(?:Counter|Gauge|Histogram)\s*\('
                 r'\s*""\s*(?:,[^;]*)?\)\s*')
METRIC_LOOKUP_DEREF_RE = re.compile(METRIC_LOOKUP + r"->")
METRIC_LOOKUP_AT_END_RE = re.compile(METRIC_LOOKUP + r"$")

# MQA_ACQUIRED_BEFORE/AFTER on a mutex member declaration:
#   Mutex mu_ MQA_ACQUIRED_BEFORE(cache_mu_);
ACQ_ORDER_RE = re.compile(
    r"\b(\w+)\s+MQA_ACQUIRED_(BEFORE|AFTER)\s*\(([^)]*)\)")

# Class/struct definition opening a scope (not a forward declaration).
CLASS_RE = re.compile(
    r"^\s*(?:template\s*<[^>]*>\s*)?(?:class|struct)\s+"
    r"(?:\[\[\w+\]\]\s+)?(?:MQA_\w+(?:\((?:[^()]|\([^)]*\))*\))?\s+)?"
    r"(\w+)\b(?!\s*;)")

# Out-of-line member definition start:  ReturnType Class::Method(...)
METHOD_DEF_RE = re.compile(r"^[^=;(]*\b(\w+)::(~?\w+)\s*\(")


def repo_files(root, subdir, exts):
    out = []
    for dirpath, _, filenames in os.walk(os.path.join(root, subdir)):
        for name in sorted(filenames):
            if name.endswith(exts):
                out.append(os.path.join(dirpath, name))
    return sorted(out)


def expected_guard(root, path):
    rel = os.path.relpath(path, os.path.join(root, "src"))
    token = re.sub(r"[^A-Za-z0-9]", "_", rel).upper()
    return "MQA_%s_" % token


def strip_comments_and_strings(line):
    """Removes string/char literals and // comments so lint patterns do not
    fire on prose. (Block comments are handled per-line well enough for this
    codebase's style.)"""
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    line = re.sub(r"'(\\.|[^'\\])*'", "''", line)
    line = re.sub(r"//.*$", "", line)
    line = re.sub(r"/\*.*?\*/", "", line)
    return line


def is_sync_header(rel):
    return rel.endswith(os.path.join("common", "sync.h"))


class LockGraph:
    """The inter-file lock-order graph: nodes are qualified lock names,
    edges mean 'acquired while holding' / 'declared acquired-before'."""

    def __init__(self):
        self.edges = {}  # node -> {succ: "file:line (origin)"}

    def add_node(self, n):
        self.edges.setdefault(n, {})

    def add_edge(self, a, b, where):
        if a == b:
            return
        self.edges.setdefault(a, {}).setdefault(b, where)
        self.edges.setdefault(b, {})

    def find_cycle(self):
        """Returns a list of (node, next_node, where) forming a cycle, or
        None. Deterministic: nodes and successors visited in sorted order."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n: WHITE for n in self.edges}
        stack = []

        def dfs(u):
            color[u] = GRAY
            stack.append(u)
            for v in sorted(self.edges[u]):
                if color[v] == GRAY:
                    i = stack.index(v)
                    cyc = stack[i:] + [v]
                    return [(cyc[k], cyc[k + 1],
                             self.edges[cyc[k]][cyc[k + 1]])
                            for k in range(len(cyc) - 1)]
                if color[v] == WHITE:
                    found = dfs(v)
                    if found:
                        return found
            stack.pop()
            color[u] = BLACK
            return None

        for n in sorted(self.edges):
            if color[n] == WHITE:
                found = dfs(n)
                if found:
                    return found
        return None


class FileScanner:
    """Single pass over one file: brace-depth tracking, class/method scope
    resolution, active-lock tracking. Feeds both the per-file lint rules
    (wait-while-locked) and the global lock graph.

    This is a lexical heuristic, not a parser: it resolves the enclosing
    class from `class X {` scopes (headers) and `Ret X::Method(` definition
    lines (sources), tracks RAII lock lifetimes by brace depth, and accepts
    that exotic formatting may escape it. The TSA pass (preset `tsa`)
    provides the precise per-function complement; this audit adds the
    cross-function lock-*order* view TSA does not have."""

    def __init__(self, rel, graph, errors):
        self.rel = rel
        self.stem = os.path.splitext(os.path.basename(rel))[0]
        self.graph = graph
        self.errors = errors
        self.depth = 0
        self.class_stack = []    # (name, depth before its body opened)
        self.method_owner = None   # class qualifier of the current method
        self.method_depth = None   # depth at the definition line
        self.method_opened = False  # has the method body '{' been seen
        self.active_locks = []   # (scope_depth, node, lineno)

    def scope_class(self):
        if self.method_owner:
            return self.method_owner
        if self.class_stack:
            return self.class_stack[-1][0]
        return self.stem

    def qualify(self, expr):
        expr = expr.strip().lstrip("&").strip()
        if expr.startswith("this->"):
            expr = expr[len("this->"):]
        if re.fullmatch(r"\w+", expr):
            return "%s::%s" % (self.scope_class(), expr)
        # Non-member expression (free-function result, another object's
        # lock): keep it verbatim, qualified by file stem, so unrelated
        # call sites never falsely merge.
        return "%s:%s" % (self.stem, expr)

    def feed(self, code, lineno, has_nolint):
        # Preprocessor lines (the macro definitions in sync.h especially)
        # are not code and carry no scope or lock semantics.
        if code.lstrip().startswith("#"):
            return
        entry_depth = self.depth
        end_depth = max(0, entry_depth + code.count("{") - code.count("}"))

        # Method-definition start: only considered when not already inside
        # a method and not inside a class body (inline class methods take
        # their name from class_stack instead).
        if (self.method_owner is None and not self.class_stack
                and not code.rstrip().endswith(";")):
            m = METHOD_DEF_RE.match(code)
            if m:
                self.method_owner = m.group(1)
                self.method_depth = entry_depth
                self.method_opened = False

        # ACQUIRED_BEFORE/AFTER annotation edges.
        if not has_nolint:
            for am in ACQ_ORDER_RE.finditer(code):
                member, kind, args = am.group(1), am.group(2), am.group(3)
                src = self.qualify(member)
                where = "%s:%d (MQA_ACQUIRED_%s)" % (self.rel, lineno, kind)
                for arg in args.split(","):
                    arg = arg.strip()
                    if not arg:
                        continue
                    dst = self.qualify(arg)
                    if kind == "BEFORE":
                        self.graph.add_edge(src, dst, where)
                    else:
                        self.graph.add_edge(dst, src, where)

        # Blocking call while a lock is lexically held?
        if self.active_locks and BLOCKING_RE.search(code) and not has_nolint:
            _, node, lock_line = self.active_locks[-1]
            self.errors.append(
                "%s:%d: [wait-while-locked] blocking call while holding %s "
                "(acquired line %d); release the lock around the wait or "
                "mark NOLINT(mqa-wait-while-locked) with a reason"
                % (self.rel, lineno, node, lock_line))

        # New lock acquisitions on this line. A lock lives while
        # depth >= its scope depth (the depth where its statement ends).
        for lm in LOCK_DECL_RE.finditer(code):
            node = self.qualify(lm.group(2))
            self.graph.add_node(node)
            if not has_nolint:
                for _, held, _ in self.active_locks:
                    self.graph.add_edge(
                        held, node,
                        "%s:%d (nested scope)" % (self.rel, lineno))
            self.active_locks.append((end_depth, node, lineno))

        # Apply this line's braces, then retire scopes that closed.
        self.depth = end_depth
        self.active_locks = [l for l in self.active_locks
                             if l[0] <= self.depth]
        while self.class_stack and self.depth <= self.class_stack[-1][1]:
            self.class_stack.pop()
        if self.method_owner is not None:
            if not self.method_opened and self.depth > self.method_depth:
                self.method_opened = True
            elif self.method_opened and self.depth <= self.method_depth:
                self.method_owner = None
                self.method_depth = None
                self.method_opened = False
                self.active_locks = []

        # Class scopes push *after* pops so `class X {` lands on the stack
        # with the pre-line depth.
        cm = CLASS_RE.match(code)
        if cm and "{" in code:
            self.class_stack.append((cm.group(1), entry_depth))


def lint_file(root, path, errors, graph):
    rel = os.path.relpath(path, root)
    with open(path, encoding="utf-8") as f:
        raw_lines = f.read().splitlines()

    scanner = FileScanner(rel, graph, errors)
    in_block_comment = False
    prev_code = ""
    for i, raw in enumerate(raw_lines, start=1):
        line = raw
        if in_block_comment:
            if "*/" in line:
                line = line.split("*/", 1)[1]
                in_block_comment = False
            else:
                prev_code = ""
                continue
        code = strip_comments_and_strings(line)
        if "/*" in code and "*/" not in code:
            code = code.split("/*", 1)[0]
            in_block_comment = True

        stripped = code.strip()
        if not stripped:
            prev_code = ""
            continue

        has_nolint = bool(NOLINT_RE.search(raw) or (
            i > 1 and NOLINT_RE.search(raw_lines[i - 2])))

        scanner.feed(code, i, has_nolint)

        if NEW_RE.search(code):
            owned = (OWNED_RE.search(code) or OWNED_RE.search(prev_code))
            if not owned and not has_nolint:
                errors.append(
                    "%s:%d: [naked-new] naked `new`; wrap in "
                    "make_unique/unique_ptr or mark NOLINT with a reason"
                    % (rel, i))

        if "std::endl" in code and not has_nolint:
            errors.append(
                "%s:%d: [endl] std::endl flushes on every use; stream "
                "'\\n' instead" % (rel, i))

        if ASSERT_RE.search(code) and not has_nolint:
            if not rel.endswith(os.path.join("common", "check.h")):
                errors.append(
                    "%s:%d: [assert] raw assert(); use MQA_CHECK / "
                    "MQA_DCHECK from common/check.h" % (rel, i))
        if re.search(r"#include\s*<cassert>", code):
            errors.append(
                "%s:%d: [assert] <cassert> include; use common/check.h"
                % (rel, i))

        if SLEEP_RE.search(code) and not has_nolint:
            if not rel.endswith(os.path.join("common", "clock.cc")):
                errors.append(
                    "%s:%d: [sleep] direct sleep_for/sleep_until; go "
                    "through mqa::Clock (common/clock.h) so the wait is "
                    "mockable in tests" % (rel, i))

        if DURABLE_WRITE_RE.search(code) and not has_nolint:
            if not rel.endswith(DURABLE_LAYER):
                errors.append(
                    "%s:%d: [durable-write] write-capable std:: file "
                    "stream; write through WriteFileAtomic "
                    "(storage/durable_file.h) or the WalWriter so a crash "
                    "cannot leave a torn artifact, or mark "
                    "NOLINT(mqa-durable-write) with a reason" % (rel, i))

        if RAW_INTRINSICS_RE.search(code) and not has_nolint:
            if not rel.startswith(SIMD_LAYER_PREFIX):
                errors.append(
                    "%s:%d: [raw-intrinsics] ISA intrinsics header outside "
                    "src/vector/simd/; call through the dispatched kernel "
                    "table (vector/simd/simd.h) so call sites stay portable, "
                    "or mark NOLINT(mqa-raw-intrinsics) with a reason"
                    % (rel, i))

        if not has_nolint:
            if METRIC_LOOKUP_DEREF_RE.search(code):
                lookup_line = i
            elif (stripped.startswith("->")
                  and METRIC_LOOKUP_AT_END_RE.search(prev_code)):
                lookup_line = i - 1
            else:
                lookup_line = None
            if lookup_line is not None:
                errors.append(
                    "%s:%d: [metric-lookup] metric looked up by name on "
                    "every event; resolve it once into a `static Counter* "
                    "const` or a member, or mark "
                    "NOLINT(mqa-metric-lookup) with a reason"
                    % (rel, lookup_line))

        if (RAW_MUTEX_RE.search(code) and not has_nolint
                and not is_sync_header(rel)):
            errors.append(
                "%s:%d: [raw-mutex] raw std:: synchronization primitive; "
                "use mqa::Mutex/SharedMutex/CondVar + MutexLock/ReaderLock/"
                "WriterLock from common/sync.h so thread-safety analysis "
                "sees the acquisition" % (rel, i))

        prev_code = code

    if path.endswith(".h"):
        guard = expected_guard(root, path)
        ifndef = define = None
        for raw in raw_lines:
            if ifndef is None:
                m = GUARD_IF_RE.match(raw)
                if m:
                    ifndef = m.group(1)
                    continue
            elif define is None:
                m = GUARD_DEF_RE.match(raw)
                if m:
                    define = m.group(1)
                break
        if ifndef != guard or define != guard:
            errors.append(
                "%s:1: [guard] include guard must be %s (found %s)"
                % (rel, guard, ifndef or "<none>"))
        else:
            endif_ok = any(
                re.match(r"^#endif\s*//\s*%s\s*$" % re.escape(guard), raw)
                for raw in raw_lines)
            if not endif_ok:
                errors.append(
                    "%s: [guard] closing `#endif  // %s` comment missing"
                    % (rel, guard))


def audit_lock_order(graph, errors):
    """Appends an error describing the first lock-order cycle, if any."""
    cycle = graph.find_cycle()
    if cycle is None:
        return
    lines = ["lock-order cycle: " +
             " -> ".join([edge[0] for edge in cycle] + [cycle[0][0]])]
    for a, b, where in cycle:
        lines.append("    %s -> %s   at %s" % (a, b, where))
    errors.append("[lock-order] " + "\n".join(lines))


def find_compile_commands(root, build_dir):
    """Resolves the compile database: an explicit --build-dir wins;
    otherwise the newest build*/compile_commands.json under the root (all
    CMake presets export one)."""
    if build_dir:
        db = os.path.join(build_dir, "compile_commands.json")
        return (build_dir, db if os.path.exists(db) else None)
    candidates = globlib.glob(os.path.join(root, "build*",
                                           "compile_commands.json"))
    if not candidates:
        return (None, None)
    best = max(candidates, key=os.path.getmtime)
    return (os.path.dirname(best), best)


def run_clang_tidy(root, build_dir, mode):
    if mode == "off":
        return 0
    tidy = shutil.which("clang-tidy")
    build_dir, compile_db = find_compile_commands(root, build_dir)
    if tidy is None or compile_db is None:
        msg = ("clang-tidy skipped (%s)" %
               ("binary not found" if tidy is None
                else "no compile_commands.json found in build*/"))
        if mode == "on":
            print("lint.py: ERROR: %s" % msg, file=sys.stderr)
            return 2
        print("lint.py: %s" % msg)
        return 0
    sources = repo_files(root, "src", (".cc",))
    print("lint.py: running clang-tidy over %d files (db: %s)..."
          % (len(sources), os.path.relpath(compile_db, root)))
    rc = subprocess.call([tidy, "-p", build_dir, "--quiet"] + sources)
    return 1 if rc != 0 else 0


def run_format_check(root):
    clang_format = shutil.which("clang-format")
    if clang_format is None:
        print("lint.py: clang-format not found; format check skipped")
        return 0
    files = []
    for d in FORMAT_DIRS:
        files.extend(repo_files(root, d, FORMAT_EXTS))
    print("lint.py: checking format of %d files..." % len(files))
    rc = subprocess.call([clang_format, "--dry-run", "-Werror"] + files)
    return 1 if rc != 0 else 0


def lint_tree(root, lock_order_only=False):
    """Runs the rule lint + lock-order audit over <root>/src. Returns
    (errors, files_checked, lock_count, edge_count). Importable so the
    test suite can point it at synthetic trees."""
    errors = []
    graph = LockGraph()
    files = repo_files(root, "src", SRC_EXTS)
    for path in files:
        lint_file(root, path, errors, graph)
    if lock_order_only:
        errors = []
    audit_lock_order(graph, errors)
    num_edges = sum(len(s) for s in graph.edges.values())
    return errors, len(files), len(graph.edges), num_edges


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (contains src/)")
    parser.add_argument("--build-dir", default=None,
                        help="build dir with compile_commands.json "
                             "(default: newest build*/ under --root)")
    parser.add_argument("--clang-tidy", choices=["auto", "on", "off"],
                        default="auto")
    parser.add_argument("--format-check-only", action="store_true",
                        help="only run the clang-format check and exit")
    parser.add_argument("--lock-order-only", action="store_true",
                        help="only run the lock-order audit and exit")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "src")):
        print("lint.py: no src/ under --root %s" % root, file=sys.stderr)
        return 2

    if args.format_check_only:
        return run_format_check(root)

    errors, nfiles, nlocks, nedges = lint_tree(
        root, lock_order_only=args.lock_order_only)
    for e in errors:
        print(e, file=sys.stderr)
    print("lint.py: %d files checked, %d violation(s); lock graph: "
          "%d lock(s), %d ordering edge(s)"
          % (nfiles, len(errors), nlocks, nedges))

    if args.lock_order_only:
        return 1 if errors else 0

    tidy_rc = run_clang_tidy(root, args.build_dir, args.clang_tidy)
    return 1 if errors else tidy_rc


if __name__ == "__main__":
    sys.exit(main())
