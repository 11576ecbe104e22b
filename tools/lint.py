#!/usr/bin/env python3
"""Repository lint: rules the compiler and clang-tidy do not enforce.

Run from the repository root (the CMake `lint` target does):

    python3 tools/lint.py [paths...]

With no arguments, lints every .h/.cc file under src/ and tests/.

Rules
-----
void-cast
    `(void)` applied to a call expression. With [[nodiscard]] Status/Result
    this silently swallows errors; use ORPHEUS_IGNORE_ERROR(...) to discard
    a fallible call on purpose. `(void)name;` on a plain identifier (unused
    structured bindings or parameters) stays allowed.

include-guard
    Header guards must be ORPHEUS_<PATH>_H_ derived from the path under
    src/ (e.g. src/core/validate.h -> ORPHEUS_CORE_VALIDATE_H_).

bare-thread
    std::thread / std::jthread outside src/common/thread_pool.*. All
    parallelism goes through the shared pool (ThreadPool / ParallelFor) so
    thread counts and shutdown stay centrally controlled.

nondeterminism
    rand() / srand() / std::random_device / time(NULL) inside src/. Core
    algorithms must be reproducible: take a uint64 seed and use
    common/random.h (Xorshift).

raw-env
    getenv() / atoi() outside src/common/env.cc. Raw getenv+atoi silently
    maps garbage ("8abc", "") to a number; go through ParseEnvInt /
    ParseEnvBool (common/env.h), which validate and warn once.

raw-clock
    std::chrono::steady_clock outside src/common/. Timing goes through
    Timer (common/timer.h) or TraceSpan (common/metrics.h) so every
    measurement lands in the metrics registry and stays mockable.

raw-stderr
    std::cerr / fprintf(stderr, ...) inside src/ outside common/log.cc.
    Diagnostics go through the structured logger (LOG_INFO/WARN/ERROR in
    common/log.h) so level filtering, ORPHEUS_LOG_FILE redirection, and
    JSON-lines mode apply uniformly. Benches and tests keep direct stderr
    for progress output.

raw-sync
    std::mutex / std::shared_mutex / std::lock_guard / std::unique_lock /
    std::condition_variable (and friends) inside src/ outside
    common/sync.{h,cc}. All locking goes through the annotated wrappers
    (Mutex, MutexLock, CondVar in common/sync.h) so Clang thread-safety
    analysis and the ORPHEUS_DEADLOCK_DEBUG lock-order detector see every
    acquisition.

raw-file-write
    std::ofstream / std::fstream / fopen() inside src/ outside the durable
    storage layer (src/storage/), common/file_util.cc, and common/log.cc.
    Ad-hoc stream writes silently ignore short writes and full disks and
    leave half-written files on a crash; use WriteFileAtomic / FileWriter
    (common/file_util.h), which check errors and go through the failpoint
    sites the crash tests exercise. Reads (std::ifstream) stay allowed.

ridset-decompress
    GetIntArray() / AsIntArray() inside src/ outside the RidSet
    infrastructure and the sanctioned plain-view sites. These calls
    materialize a compressed rlist/vlist cell into a plain vector; on the
    checkout hot path that silently undoes the membership-index
    compression. Probe in place instead (Contains/ContainsHint,
    IntersectToRows, JoinRidSet) or, for a genuine plain-view path, add the
    file to the allowlist with a comment saying why.

env-knob
    A ParseEnv*/RawEnv/getenv read inside src/ (outside common/env.*) of an
    environment variable not in ENV_KNOBS, or with a name that is not a
    string literal. Every knob doubles a test matrix, so adding one has to
    be a deliberate edit of the inventory below.

Exit status: 0 when clean, 1 when any violation is found.
"""

import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_DIRS = ("src", "tests", "bench")

# (void) followed by something that ends in a call. Bare identifiers
# ((void)name;) do not match because of the trailing '('.
VOID_CAST_CALL = re.compile(
    r"\(\s*void\s*\)\s*[A-Za-z_][A-Za-z0-9_]*"
    r"(?:(?:::|\.|->)[A-Za-z_][A-Za-z0-9_]*|<[^;()]*>)*\s*\(")

# std::thread::id etc. is fine anywhere; only thread construction is banned.
BARE_THREAD = re.compile(r"\bstd::j?thread\b(?!\s*::)")
THREAD_ALLOWED = ("src/common/thread_pool.h", "src/common/thread_pool.cc")

NONDETERMINISM = re.compile(
    r"(?<![A-Za-z0-9_:])(?:s?rand\s*\(|std::random_device"
    r"|time\s*\(\s*(?:NULL|nullptr|0)\s*\))")
NONDETERMINISM_ALLOWED = ("src/common/random.h",)

# getenv / atoi anywhere except the env shim. `std::getenv` and plain
# `getenv` both match; `ParseEnvInt` etc. do not (lookbehind).
RAW_ENV = re.compile(r"(?<![A-Za-z0-9_])(?:std::)?(?:getenv|atoi)\s*\(")
RAW_ENV_ALLOWED = ("src/common/env.cc",)

RAW_CLOCK = re.compile(r"\bsteady_clock\b")
RAW_CLOCK_ALLOWED_PREFIX = "src/common/"

# Direct stderr writes in src/; `stderr` only matters as a stream argument
# (fprintf/fputs/fputc), so match the stream uses rather than the token.
RAW_STDERR = re.compile(
    r"\bstd::cerr\b|\bf(?:printf|puts|putc|write|flush)\s*\([^)]*\bstderr\b")
# sync.cc: the deadlock detector's abort path must not re-enter the logger
# (whose own mutex may be involved in the reported cycle).
RAW_STDERR_ALLOWED = ("src/common/log.cc", "src/common/sync.cc")

# Raw standard-library synchronization primitives outside the annotated
# wrapper layer. Everything locks through common/sync.h (Mutex, SharedMutex,
# MutexLock, CondVar) so the Clang thread-safety job and the runtime
# lock-order detector observe every acquisition.
RAW_SYNC = re.compile(
    r"\bstd::(?:mutex|shared_mutex|timed_mutex|recursive_mutex"
    r"|recursive_timed_mutex|shared_timed_mutex|lock_guard|unique_lock"
    r"|shared_lock|scoped_lock|condition_variable|condition_variable_any)\b")
RAW_SYNC_ALLOWED = ("src/common/sync.h", "src/common/sync.cc")

# File *writes* must go through common/file_util.h (atomic replace + fsync +
# failpoints) or the storage layer built on it. std::ifstream (reads) is fine.
RAW_FILE_WRITE = re.compile(
    r"\bstd::o?fstream\b"
    r"|(?<![A-Za-z0-9_])(?:std::)?fopen\s*\(")
RAW_FILE_WRITE_ALLOWED = ("src/common/file_util.cc", "src/common/log.cc")
RAW_FILE_WRITE_ALLOWED_PREFIX = "src/storage/"

# Decompression of versioning array cells. Allowed only where the plain
# view is the point: the RidSet/Value/Column plumbing itself, the codec's
# raw fallback, the validator (which checks the materialized view against
# the compressed one), and the joins over rid lists that stay plain by
# content (short or unsorted lists; split-by-vlist's per-row vlists).
RIDSET_DECOMPRESS = re.compile(r"\b(?:GetIntArray|AsIntArray)\s*\(")
RIDSET_DECOMPRESS_ALLOWED = (
    "src/minidb/column.h", "src/minidb/column.cc", "src/minidb/value.h",
    "src/minidb/value.cc", "src/minidb/table.cc", "src/storage/format.cc",
    "src/core/validate.cc", "src/core/partition_store.cc",
    "src/core/data_models.cc",
)

# The complete inventory of environment variables src/ may read.
ENV_KNOBS = frozenset((
    "ORPHEUS_METRICS", "ORPHEUS_TRACE", "ORPHEUS_TRACE_BUFFER",
    "ORPHEUS_SLOW_OP_MS", "ORPHEUS_LOG", "ORPHEUS_LOG_FILE",
    "ORPHEUS_LOG_FORMAT", "ORPHEUS_VALIDATE", "ORPHEUS_THREADS",
    "ORPHEUS_FAILPOINTS", "ORPHEUS_FAILPOINT_SEED", "ORPHEUS_DEADLOCK_DEBUG",
))
ENV_READ = re.compile(
    r"(?<![A-Za-z0-9_])(?:ParseEnv[A-Za-z]*|RawEnv|(?:std::)?getenv)"
    r"\s*\(\s*(\"[^\"]*\")?")
ENV_READ_ALLOWED = ("src/common/env.h", "src/common/env.cc")


def strip_comments_and_strings(text, keep_strings=False):
    """Blank out comments and (unless keep_strings) string/char literals,
    preserving line breaks."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i = min(i + 2, n)
        elif c in "\"'":
            start = i
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":  # unterminated; bail out of the literal
                    break
                i += 1
            i += 1
            if keep_strings:
                out.append(text[start:i])
        else:
            out.append(c)
            i += 1
    return "".join(out)


def expected_guard(rel):
    """src/core/validate.h -> ORPHEUS_CORE_VALIDATE_H_"""
    inner = rel[len("src/"):] if rel.startswith("src/") else rel
    return "ORPHEUS_" + re.sub(r"[^A-Za-z0-9]", "_", inner).upper() + "_"


def lint_file(rel, violations):
    path = os.path.join(REPO_ROOT, rel)
    with open(path, encoding="utf-8") as f:
        raw = f.read()
    code = strip_comments_and_strings(raw)
    lines = code.splitlines()

    for lineno, line in enumerate(lines, 1):
        if VOID_CAST_CALL.search(line):
            violations.append(
                (rel, lineno, "void-cast",
                 "raw (void) cast of a call; use ORPHEUS_IGNORE_ERROR(...)"))
        if rel not in THREAD_ALLOWED and BARE_THREAD.search(line):
            violations.append(
                (rel, lineno, "bare-thread",
                 "std::thread outside common/thread_pool; use ThreadPool "
                 "or ParallelFor"))
        if (rel.startswith("src/") and rel not in NONDETERMINISM_ALLOWED
                and NONDETERMINISM.search(line)):
            violations.append(
                (rel, lineno, "nondeterminism",
                 "banned nondeterminism source; seed a common/random.h "
                 "Xorshift instead"))
        if rel not in RAW_ENV_ALLOWED and RAW_ENV.search(line):
            violations.append(
                (rel, lineno, "raw-env",
                 "raw getenv/atoi; use ParseEnvInt / ParseEnvBool from "
                 "common/env.h"))
        if (not rel.startswith(RAW_CLOCK_ALLOWED_PREFIX)
                and RAW_CLOCK.search(line)):
            violations.append(
                (rel, lineno, "raw-clock",
                 "direct steady_clock use; go through Timer "
                 "(common/timer.h) or TraceSpan (common/metrics.h)"))
        if (rel.startswith("src/") and rel not in RAW_STDERR_ALLOWED
                and RAW_STDERR.search(line)):
            violations.append(
                (rel, lineno, "raw-stderr",
                 "direct stderr write; use LOG_INFO/WARN/ERROR "
                 "(common/log.h)"))
        if (rel.startswith("src/") and rel not in RAW_SYNC_ALLOWED
                and RAW_SYNC.search(line)):
            violations.append(
                (rel, lineno, "raw-sync",
                 "raw std:: sync primitive; use Mutex / MutexLock / CondVar "
                 "from common/sync.h"))
        if (rel.startswith("src/") and rel not in RAW_FILE_WRITE_ALLOWED
                and not rel.startswith(RAW_FILE_WRITE_ALLOWED_PREFIX)
                and RAW_FILE_WRITE.search(line)):
            violations.append(
                (rel, lineno, "raw-file-write",
                 "raw ofstream/fopen write; use WriteFileAtomic or "
                 "FileWriter (common/file_util.h)"))
        if (rel.startswith("src/") and rel not in RIDSET_DECOMPRESS_ALLOWED
                and RIDSET_DECOMPRESS.search(line)):
            violations.append(
                (rel, lineno, "ridset-decompress",
                 "GetIntArray/AsIntArray decompresses a versioning cell; "
                 "probe the RidSet in place (ContainsHint, IntersectToRows, "
                 "JoinRidSet) or extend the allowlist"))

    if rel.startswith("src/") and rel not in ENV_READ_ALLOWED:
        with_strings = strip_comments_and_strings(raw, keep_strings=True)
        for m in ENV_READ.finditer(with_strings):
            lineno = with_strings[:m.start()].count("\n") + 1
            name = m.group(1)[1:-1] if m.group(1) else None
            if name is None:
                violations.append(
                    (rel, lineno, "env-knob",
                     "environment read with a non-literal name; spell the "
                     "variable out so the knob inventory can check it"))
            elif name not in ENV_KNOBS:
                violations.append(
                    (rel, lineno, "env-knob",
                     "%s is not in the ENV_KNOBS inventory (tools/lint.py); "
                     "add a knob only on purpose" % name))

    if rel.startswith("src/") and rel.endswith(".h"):
        guard = expected_guard(rel)
        m = re.search(r"^#ifndef\s+(\S+)", code, re.MULTILINE)
        if m is None:
            violations.append((rel, 1, "include-guard",
                               "missing include guard %s" % guard))
        elif m.group(1) != guard:
            lineno = code[:m.start()].count("\n") + 1
            violations.append(
                (rel, lineno, "include-guard",
                 "guard %s should be %s" % (m.group(1), guard)))


def collect_files(argv):
    if argv:
        rels = []
        for a in argv:
            rels.append(os.path.relpath(os.path.abspath(a), REPO_ROOT))
        return rels
    rels = []
    for d in DEFAULT_DIRS:
        for root, _, names in os.walk(os.path.join(REPO_ROOT, d)):
            for name in sorted(names):
                if name.endswith((".h", ".cc")):
                    rels.append(
                        os.path.relpath(os.path.join(root, name), REPO_ROOT))
    return sorted(rels)


def main(argv):
    violations = []
    files = collect_files(argv)
    for rel in files:
        lint_file(rel.replace(os.sep, "/"), violations)
    for rel, lineno, rule, msg in violations:
        print("%s:%d: [%s] %s" % (rel, lineno, rule, msg))
    if violations:
        print("lint: %d violation(s) in %d file(s) checked"
              % (len(violations), len(files)))
        return 1
    print("lint: %d file(s) clean" % len(files))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
