#!/usr/bin/env python3
"""Runs one SDVM benchmark workload and prints its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run it from the root of the repository. It builds perfbench/ (the SDVM
libraries from src/ plus the sdvm_perfbench binary) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
then runs the workload once. The binary's human summary goes to standard
output, followed by one record line (every metric's median and quartiles
plus provenance: git sha and dirty flag, nproc, build type, compiler,
seed), and finally the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metric names are checked against BENCHMARK.json (end_to_end with
--trace 0, per_layer with --trace 1). Records are appended to
.bench_records/full.jsonl, or .bench_records/smoke.jsonl with --smoke, so
smoke runs never mix with measured ones. Exits non-zero, printing no result
line, when the sources are missing, the build fails, or the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tcp_primes", "sim_table1_enc", "sim_membership", "threads_finegrain")
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, capture=False, env=None):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("SDVM sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", HERE, "-B", build_dir,
                       "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], BUILD_TIMEOUT_S,
                      env=env)
        if code != 0:
            fail("cmake configure failed")
    code, _ = run(["cmake", "--build", build_dir, "-j", "4"], BUILD_TIMEOUT_S,
                  env=env)
    if code != 0:
        fail("build failed")
    return build_dir


def compiler(build_dir):
    """Compiler id and version as CMake detected them."""
    files = os.path.join(build_dir, "CMakeFiles")
    for entry in sorted(os.listdir(files)):
        path = os.path.join(files, entry, "CMakeCXXCompiler.cmake")
        if os.path.isfile(path):
            found = {}
            with open(path) as f:
                for line in f:
                    for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                        if line.startswith("set(%s " % key):
                            found[key] = line.split('"')[1]
            return "%s %s" % (found.get("CMAKE_CXX_COMPILER_ID", "?"),
                              found.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    return "unknown"


def git_provenance():
    """(sha, dirty) of the checkout, or (None, None) outside a git tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                text=True, capture_output=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return sha or None, bool(status.strip())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true",
                    help="record into .bench_records/smoke.jsonl")
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    section = "per_layer" if args.trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[section]}

    build_dir = build()
    binary = os.path.join(build_dir, "sdvm_perfbench")
    code, out = run([binary, "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", repr(args.seconds), "--trace", args.trace],
                    RUN_TIMEOUT_S, capture=True)
    if code != 0:
        fail("sdvm_perfbench exited with %d" % code)
    lines = out.rstrip("\n").split("\n")
    if len(lines) < 2:
        fail("sdvm_perfbench printed no result")
    try:
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])["record"]
    except (ValueError, KeyError) as e:
        fail("unreadable sdvm_perfbench output: %s" % e)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        fail("metrics differ from BENCHMARK.json %s: missing %s, extra %s, unit %s"
             % (section, missing, extra, wrong))

    sha, dirty = git_provenance()
    record["provenance"] = {
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "build_type": BUILD_TYPE,
        "compiler": compiler(build_dir),
        "seed": args.seed,
        "smoke": args.smoke,
    }
    record["correct"] = result["correct"]
    record["attempted"] = result["attempted"]
    record["failed"] = result["failed"]
    records = os.path.join(ROOT, ".bench_records")
    os.makedirs(records, exist_ok=True)
    with open(os.path.join(records, "smoke.jsonl" if args.smoke else "full.jsonl"),
              "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    for line in lines[:-2]:
        print(line)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
