"""pmfrec benchmark: one command, three workloads, checked outputs.

    python3 pmfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a pmfrec checkout. The command generates the
workload's inputs from --seed into .pmfbench_work/<name>/, starts one timed
single-threaded Python process (workload.py) on them, checks every output
against the benchmark's own computations (check.py), and prints one JSON
object as its last line: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1. See pmfbench/README.md.
"""

import os

# Fixed before numpy loads, here and in the timed process: one BLAS thread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
            "PMFREC_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("noiseless_recovery", "wide_pipeline", "bulk_predict")
CHILD_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"pmfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join("src", "pmfrec", "cli.py")):
        return fail("run from the root of a pmfrec checkout (src/pmfrec/cli.py not found)")
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    sys.path.insert(0, HERE)
    import check
    import gen

    work = os.path.join(".pmfbench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    truth = gen.MAKERS[args.workload](args.seed, work)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
           "--work", work, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with open(os.path.join(work, "stdout.log"), "wb") as log:
        env["PMFBENCH_T0"] = repr(time.monotonic())
        child = subprocess.Popen(cmd, env=env, stdout=log)
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S - (time.monotonic() - started))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            return fail("the timed process overran its time limit and was stopped")
    if code != 0:
        return fail(f"the timed process exited with code {code}")
    with open(os.path.join(work, "result.json")) as fh:
        result = json.load(fh)

    try:
        problems, failed_rows = check.CHECKS[args.workload](work, truth)
    except (OSError, ValueError, KeyError) as exc:
        problems, failed_rows = [f"outputs missing or unreadable: {exc!r}"], 0
    # Every round reproduces the same predictions, so each round has the
    # same rows with a zero-probability note.
    failed = result["failed"] + failed_rows * result["rounds"]
    if not result["identical"]:
        problems.append("a later round did not reproduce the first round's outputs")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    print("stages (fastest of the untraced rounds): " + json.dumps(result["stages"]))
    values = result["layers"] if args.trace else result
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
