#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

Run from the repository root:

    python3 perfbench/run.py --workload syn-flood --seed 1 --seconds 20 --trace 0

builds perfbench/snicbench.exe with dune, runs it, checks its outputs and
prints, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones.  The exit code is
0 only when every check passed.

Other modes (see perfbench/README.md):

    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record 1 2 3
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join("_build", "default", "perfbench", "snicbench.exe")
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ["attest-churn", "syn-flood", "fabric-bulk", "oracle-snic"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Build the benchmark from source; dune's shared cache stays off so
    nothing is read or written outside the checkout."""
    needed = ["dune-project", "lib", os.path.join("perfbench", "dune")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        die("not a checkout of the repository (missing %s)" % ", ".join(missing))
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/snicbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("dune is not installed")
    except subprocess.TimeoutExpired:
        die("build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def run_exe(args, echo=True):
    """Run snicbench, echo its report, and return the parsed RESULT line."""
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("snicbench did not finish within %d s" % RUN_TIMEOUT_S)
    result = None
    for line in out.splitlines(keepends=True):
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        elif echo:
            sys.stdout.write(line)
    if proc.returncode != 0 or result is None:
        die("snicbench failed (exit code %s)" % proc.returncode)
    return result


def load_json(path):
    with open(path) as f:
        return json.load(f)


def metric_names(kind):
    return [m["name"] for m in load_json(os.path.join(ROOT, "BENCHMARK.json"))[kind]]


def check(res, trace):
    """Every failed check, as text; empty when the run is correct."""
    problems = list(res["errors"])
    if res["attempted"] < 1:
        problems.append("no unit attempted")
    names = metric_names("per_layer" if trace else "end_to_end")
    if sorted(res["metrics"]) != sorted(names):
        problems.append("metric names differ from BENCHMARK.json")
    if trace and res["identity"] != res["identity_untraced"]:
        problems.append("the traced world's identity values differ from the untraced world's")
    expected = load_json(EXPECTED)
    wl = res["workload"]
    if res["window"] == expected["window"].get(wl):
        want = expected["seeds"].get(wl, {}).get(str(res["seed"]))
        if want is not None and want != res["identity"]:
            for k in sorted(set(want) | set(res["identity"])):
                if want.get(k) != res["identity"].get(k):
                    problems.append("identity %s: got %r, recorded %r" % (k, res["identity"].get(k), want.get(k)))
    return problems


def benchmark(a):
    build()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
    res = run_exe(args)
    problems = check(res, a.trace == 1)
    for p in problems:
        print("CHECK FAILED: " + p)
    print(json.dumps({
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    sys.exit(0 if not problems else 1)


def record(seeds):
    """Record the identity values of the default windows for [seeds]."""
    build()
    expected = load_json(EXPECTED) if os.path.exists(EXPECTED) else {"window": {}, "seeds": {}}
    for wl in WORKLOADS:
        for seed in seeds:
            res = run_exe(["--workload", wl, "--seed", str(seed), "--setups", "1", "--units", "1", "--trace", "0"],
                          echo=False)
            if res["errors"]:
                die("%s seed %d: %s" % (wl, seed, "; ".join(res["errors"])))
            expected["window"][wl] = res["window"]
            expected["seeds"].setdefault(wl, {})[str(seed)] = res["identity"]
            print("%s seed %d: %s" % (wl, seed, json.dumps(res["identity"])))
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


# Small sizes for the self-test, in units (a multiple of each burst).
SMALL = {"attest-churn": 3, "syn-flood": 1024, "fabric-bulk": 256, "oracle-snic": 2048}


def self_test():
    """Each workload at a small size: two untraced runs must agree exactly
    on the identity values and minor words per unit, a traced run must
    reproduce them, and the metric names must be BENCHMARK.json's."""
    build()
    bad = []
    for wl in WORKLOADS:
        n = str(SMALL[wl])
        base = ["--workload", wl, "--seed", "3", "--units", n, "--window", n, "--setups", "1"]
        runs = [run_exe(base + ["--trace", "0"], echo=False) for _ in range(2)]
        traced = run_exe(base + ["--trace", "1"], echo=False)
        a, b = runs
        words = [r["metrics"]["alloc_words_per_unit"]["value"] for r in runs]
        checks = [
            ("no errors", not (a["errors"] or b["errors"] or traced["errors"])),
            ("identity repeats", a["identity"] == b["identity"]),
            ("alloc_words_per_unit repeats", words[0] == words[1]),
            ("traced identity equals untraced", traced["identity"] == a["identity"]
             and traced["identity_untraced"] == a["identity"]),
            ("end-to-end names match BENCHMARK.json", sorted(a["metrics"]) == sorted(metric_names("end_to_end"))),
            ("per-layer names match BENCHMARK.json", sorted(traced["metrics"]) == sorted(metric_names("per_layer"))),
        ]
        for name, ok in checks:
            print("%-13s %-40s %s" % (wl, name, "ok" if ok else "FAILED"))
            if not ok:
                bad.append("%s: %s" % (wl, name))
    if bad:
        die("self-test failed: " + "; ".join(bad), code=1)
    print("self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", type=int, nargs="+", metavar="SEED")
    a = ap.parse_args()
    os.chdir(ROOT)
    if a.self_test:
        self_test()
    elif a.record:
        record(a.record)
    elif a.workload:
        benchmark(a)
    else:
        ap.error("give --workload, --self-test or --record")


if __name__ == "__main__":
    main()
