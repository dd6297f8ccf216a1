#!/usr/bin/env python3
"""End-to-end disclosure benchmark: build, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <warm_wire|novel_wire|embedded_churn> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest      # tests of the benchmark helpers

The first call configures and builds this package (which builds libfdc
from ../src with the library's own CMakeLists.txt) into
.bench_build/perfbench; later calls rebuild incrementally. Build output goes
to stderr. The benchmark's own output goes to stdout; its last line is one
JSON object with the keys correct, attempted, failed and metrics.

Run metadata (git sha when the tree is a git checkout, a digest of the
library sources, build type, compiler and flags, nproc, SIMD ISA, seed,
ladder, latency limit) is printed on the "run metadata:" line. Any FDC_*
environment override makes the run refuse to start.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no fdc sources next to perfbench/ (expected ../CMakeLists.txt and ../src)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", BUILD, "-j", jobs]
    if subprocess.call(step, stdout=sys.stderr, stderr=sys.stderr) != 0:
        fail("build failed")


def source_digest():
    """sha256 over the library and benchmark sources, in path order."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".h", ".cc", ".py", ".txt")):
                    paths.append(os.path.join(base, name))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main(argv):
    overrides = sorted(k for k in os.environ if k.startswith("FDC_"))
    if overrides:
        fail("refusing to run with FDC_* overrides set: " + ", ".join(overrides))
    if argv == ["--selftest"]:
        build()
        binary = os.path.join(BUILD, "perfbench_selftest")
        if not os.path.isfile(binary):
            fail("perfbench_selftest was not built (GTest not found)")
        return subprocess.call([binary])
    build()
    command = [os.path.join(BUILD, "perfbench")] + argv + [
        "--meta", "git_sha=" + git_sha(),
        "--meta", "source_digest=" + source_digest(),
    ]
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
