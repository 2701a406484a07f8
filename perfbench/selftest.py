#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (about a minute after the build).

    python3 perfbench/selftest.py

For every workload it runs a few seconds untraced and traced and checks that
each run is correct and prints exactly the metric names and units that
BENCHMARK.json declares, and that only exec-mixed writes, each write a
fingerprint the server has not seen. Then it checks that a corrupted
reference reply is caught as a failure, and that the benchmark refuses to
run without the repository's sources. Run from the repository root.
"""

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path.cwd()
RUN = ROOT / "perfbench" / "run.py"


def run(args, cwd=ROOT):
    """Returns the exit code, the result line, the `subruns` list (untraced
    runs) and stderr."""
    r = subprocess.run([sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
                       text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    result, subruns = None, None
    try:
        result = json.loads(lines[-1]) if lines else None
        if len(lines) >= 2 and lines[-2].startswith('{"subruns"'):
            subruns = json.loads(lines[-2])["subruns"]
    except json.JSONDecodeError:
        pass
    return r.returncode, result, subruns, r.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, result, subruns, err = run(["--workload", name, "--seed", "7",
                                              "--seconds", "2", "--trace", str(trace),
                                              "--tiny"])
            label = f"{name} trace={trace}"
            check(code == 0 and result is not None and result["correct"],
                  f"{label}: correct run" + ("" if code == 0 else f" (exit {code}: {err[-300:]})"))
            if result is None:
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected[trace], f"{label}: metric names and units match BENCHMARK.json")
            check(result["attempted"] >= 1 and result["failed"] == 0, f"{label}: counts")
            if trace == 0:
                # exec-mixed writes only fingerprints the server has not seen.
                writes_ok = subruns is not None and all(
                    s["writes_reused"] == 0 and (s["writes"] > 0) == (name == "exec-mixed")
                    for s in subruns)
                check(writes_ok, f"{label}: every write is a new fingerprint")
        code, result, _, _ = run(["--workload", name, "--seed", "7", "--seconds", "2",
                               "--trace", "0", "--tiny", "--corrupt-reference"])
        check(code != 0 and result is not None and not result["correct"] and result["failed"] > 0,
              f"{name}: corrupted reference is caught")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    code, result, _, _ = run(["--workload", "estimate-hot", "--seed", "1", "--seconds", "1"],
                             cwd=bare)
    check(code != 0 and result is None, "refuses to run without the repository sources")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: " + ("passed" if not failures else f"{len(failures)} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
