#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload single_kernel --seed 1 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

A run builds the photon library, photon_sim and the perfbench program
from the sources in this checkout (CMake, Release) into the build
directory ($CARGO_TARGET_DIR, default .bench_build), then runs one
workload. The last line of standard output is its JSON result.
--smoke runs every workload of BENCHMARK.json briefly, untraced and
traced, and checks that each prints every listed metric with its unit
and passes its correctness checks. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build; returns the binary directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("library sources (src/) not found next to", BENCH.name)
        sys.exit(1)
    out = (ROOT / build_dir()).resolve() / "cmake"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench", "photon_sim"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed:", " ".join(cmd))
            sys.exit(1)
    return out


def commit_id():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    # Not a git checkout: identify the code by the hash of its sources.
    h = hashlib.sha256()
    for top in ("src", "tools", BENCH.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def run_workload(binaries, workload, seed, seconds, trace, capture=False):
    run_dir = os.path.relpath(
        (ROOT / build_dir()).resolve() / "run", ROOT)
    cmd = [str(binaries / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--photon-sim",
           str(binaries / "photon_sim"), "--run-dir", run_dir,
           "--commit", commit_id()]
    # Own process group, so a timeout also stops the photond daemon the
    # program may have spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(workload, "timed out after", RUN_TIMEOUT_S, "s")
        proc.kill()
        out, _ = proc.communicate()
        proc.returncode = 1
    try:
        # A program that died early may leave its daemon behind.
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.returncode, out.decode() if capture else ""


def smoke(binaries):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            rc, out = run_workload(binaries, w["name"], 1, 1, trace,
                                   capture=True)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                log("smoke:", w["name"], "trace", trace, "printed no result")
                ok = False
                continue
            problems = []
            if rc != 0 or not result.get("correct") or result.get("failed"):
                problems.append("correctness checks failed")
            metrics = result.get("metrics", {})
            for m in listed:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append("missing " + m["name"])
                elif got.get("unit") != m["unit"]:
                    problems.append(f"{m['name']} unit {got.get('unit')} "
                                    f"!= {m['unit']}")
            extra = set(metrics) - {m["name"] for m in listed}
            if extra:
                problems.append("unlisted metrics " + ", ".join(sorted(extra)))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {w['name']} trace={trace}: {status}", flush=True)
            ok &= not problems
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    binaries = build()
    if args.smoke:
        sys.exit(smoke(binaries))
    rc, _ = run_workload(binaries, args.workload, args.seed, args.seconds,
                         args.trace)
    sys.exit(rc)


if __name__ == "__main__":
    main()
