#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload mt_stream|mlp_serve|mt_beam \
        --seed N --seconds S --trace 0|1

Configures and builds e2ebench/ (which compiles the repository's src/
libraries) into .bench_build/e2ebench under the current directory, then
runs the benchmark binary with the same arguments. The binary's last
stdout line is the result JSON; everything it writes goes under
.bench_build/. A failed build exits nonzero without printing a result.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(os.getcwd(), ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "e2ebench")
OUT_DIR = os.path.join(BUILD_ROOT, "e2ebench-out")
BUILD_JOBS = "2"  # small: the machine is shared


def log(msg):
    print(f"e2ebench/run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"repository sources not found under {ROOT}/src")
        return None
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            log("configure failed")
            return None
    bld = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "e2ebench", "-j",
         BUILD_JOBS],
        stdout=sys.stderr, stderr=sys.stderr)
    if bld.returncode != 0:
        log("build failed")
        return None
    return os.path.join(BUILD_DIR, "e2ebench")


def source_identity():
    """(git SHA or 'unknown', sha256 over the program's source files)."""
    sha = "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def main(argv):
    binary = build()
    if binary is None:
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    sha, src_digest = source_identity()
    env = dict(os.environ, E2EBENCH_OUT_DIR=OUT_DIR, E2EBENCH_GIT_SHA=sha,
               E2EBENCH_SRC_DIGEST=src_digest)
    proc = subprocess.run([binary] + argv, env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
