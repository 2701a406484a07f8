#!/usr/bin/env python3
"""End-to-end serving benchmark for `mnc_tool serve --listen`.

Builds the library, the server and the benchmark binaries from source
(Release) into .bench_build/, then runs one workload:

    python3 perfbench/run.py --workload estimate-hot --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced replay. The last stdout line is the JSON result; the line before it
describes the host. Run from the repository root.
"""

import argparse
import hashlib
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH_DIR = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("estimate-hot", "estimate-cold", "exec-mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(targets):
    """Configures (once) and builds; returns False with the log on stderr."""
    out = build_dir()
    log = []
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4", "--target", *targets])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                               text=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out", file=sys.stderr)
            return False
        log.append(r.stdout)
        if r.returncode != 0:
            sys.stderr.write("".join(log)[-4000:])
            return False
    cache = (out / "CMakeCache.txt").read_text()
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache:
        print("perfbench: refusing a non-Release build in " + str(out), file=sys.stderr)
        return False
    return True


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if r.returncode == 0 and r.stdout.strip():
            return "git:" + r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test input sizes")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="self-test: corrupt one reference reply")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: run from the repository root (src/ not found)", file=sys.stderr)
        return 2
    binary = "perfbench_trace" if args.trace else "perfbench"
    if not build(["mnc_tool", binary]):
        return 2

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    cmd = [str(build_dir() / binary),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mnc-tool", str(build_dir() / "mnc" / "examples" / "mnc_tool"),
           "--work-dir", str(work), "--source-id", source_id()]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    # Own process group, so a timeout also stops the server it spawned.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
