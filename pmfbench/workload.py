"""The timed process of the pmfrec benchmark: one workload, one process.

Started by run.py with PYTHONPATH=src and the BLAS thread count fixed to 1.
PMFBENCH_T0 holds the monotonic time just before the process was spawned,
so `setup_s` covers interpreter start-up plus the imports of pmfrec and
pmfrec.cli, which every pmfrec command pays.

The process repeats whole rounds of its workload on the same inputs: one,
then another while it still fits into --seconds. Each operation of a
round (a fit, a CLI stage) is timed on its own, and its time is the fastest
of its repetitions; on a shared machine interference only ever adds time.
It writes the outputs of the last round plus result.json into --work.
With --trace 1 it alternates untraced and traced rounds and then times the
fixed-budget sweep and the per-call factorization functions.
"""

import os
import time

_T0 = float(os.environ["PMFBENCH_T0"])
import pmfrec  # noqa: E402
import pmfrec.cli  # noqa: E402

SETUP_S = time.monotonic() - _T0

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from pmfrec import factorization, serialize  # noqa: E402
from pmfrec.marginals import MarginalEntry  # noqa: E402
from spans import SpanRecorder  # noqa: E402

SWEEP_BUDGET = {"noiseless_recovery": 100, "wide_pipeline": 10}
CALL_REPEATS = {"noiseless_recovery": 20, "wide_pipeline": 3}


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def fit_config(spec: dict, job: dict, **overrides) -> pmfrec.FitConfig:
    kwargs = dict(spec["config"], rank=spec["rank"], seed=job["fit_seed"])
    kwargs.update(overrides)
    return pmfrec.FitConfig(**kwargs)


class Recovery:
    """Matched-rank fits of exact order-3 and order-4 marginals, in-process."""

    def __init__(self, work: str):
        self.work = work
        with open(os.path.join(work, "spec.json")) as fh:
            self.spec = json.load(fh)
        arrays = np.load(os.path.join(work, "marginals.npz"))
        size = self.spec["alphabet"]
        self.sets = []
        for job in self.spec["jobs"]:
            order, trial = job["order"], job["trial"]
            entries = {
                tuple(key): MarginalEntry(
                    pmfrec.DenseTensor(shape=(size,) * order,
                                       data=arrays[f"o{order}_t{trial}_{k}"]),
                    support=1)
                for k, key in enumerate(job["keys"])
            }
            self.sets.append(pmfrec.MarginalSet(
                order=order, alphabet_sizes=(size,) * self.spec["n_vars"], entries=entries))
        self.first = None
        self.ops_per_round = len(self.sets)

    def round(self) -> dict:
        ops, fits, failed = {}, [], 0
        for job, ms in zip(self.spec["jobs"], self.sets):
            t = perf_counter()
            try:
                bundle, report = factorization.fit(ms, fit_config(self.spec, job))
            except Exception as exc:  # a failed fit is counted, not fatal
                failed += 1
                fits.append({"error": repr(exc)})
            else:
                fits.append({"bundle": bundle, "min_cost": float(min(report.cost_trace)),
                             "sweeps": report.sweeps_run, "starts": report.starts_run,
                             "termination": report.termination_reason})
            ops[f"order{job['order']}_trial{job['trial']}"] = perf_counter() - t
        return {"ops": ops, "failed": failed, "identical": self._keep(fits)}

    def stages(self, fastest: dict) -> dict:
        return {f"recovery_order{o}_s": sum(v for k, v in fastest.items()
                                            if k.startswith(f"order{o}_"))
                for o in (3, 4)}

    def _keep(self, fits) -> bool:
        """Save the first round's fits; later rounds must reproduce them bit for bit."""
        if self.first is None:
            self.first = fits
            arrays, meta = {}, []
            for i, fit in enumerate(fits):
                meta.append({k: v for k, v in fit.items() if k != "bundle"})
                if "bundle" in fit:
                    arrays[f"lam_{i}"] = fit["bundle"].loadings
                    arrays[f"factors_{i}"] = np.stack(fit["bundle"].factors)
            np.savez(os.path.join(self.work, "fits.npz"), **arrays)
            with open(os.path.join(self.work, "fits.json"), "w") as fh:
                json.dump(meta, fh)
            return True
        for a, b in zip(self.first, fits):
            if ("bundle" in a) != ("bundle" in b):
                return False
            if "bundle" in a and not (
                np.array_equal(a["bundle"].loadings, b["bundle"].loadings)
                and all(np.array_equal(x, y) for x, y in
                        zip(a["bundle"].factors, b["bundle"].factors))):
                return False
        return True

    def sweep_timing(self, budget: int) -> dict:
        out = {}
        for order in (3, 4):
            i = next(i for i, j in enumerate(self.spec["jobs"]) if j["order"] == order)
            out[order] = timed_sweeps(self.sets[i], fit_config(
                self.spec, self.spec["jobs"][i], max_outer_sweeps=budget, cost_floor=0.0,
                outer_tol=1e-300, restarts=0), budget)
        return out

    def call_inputs(self):
        i = next(i for i, j in enumerate(self.spec["jobs"]) if j["order"] == 3)
        return self.sets[i], self.first[i]["bundle"], fit_config(self.spec, self.spec["jobs"][i])


class CliWorkload:
    """Rounds of `pmfrec` commands run through pmfrec.cli.main."""

    def __init__(self, work: str, name: str):
        self.work = work
        self.name = name
        with open(os.path.join(work, "spec.json")) as fh:
            self.spec = json.load(fh)
        p = lambda f: os.path.join(work, f)  # noqa: E731
        t = str(self.spec["target"])
        if name == "wide_pipeline":
            self.commands = {
                "marginals_s": ["marginals", "--input", p("train.csv"),
                                "--output", p("marginals.json"),
                                "--order", str(self.spec["order"])],
                "fit_s": ["fit", "--input", p("marginals.json"), "--output", p("model.json"),
                          "--rank", str(self.spec["rank"]),
                          "--max-sweeps", str(self.spec["max_sweeps"]),
                          "--tol", "1e-300", "--seed", str(self.spec["seed"])],
                "predict_s": ["predict", "--model", p("model.json"),
                              "--input", p("heldout.csv"), "--output", p("pred.csv"),
                              "--target", t, "--mode", "map"],
            }
            self.outputs = [p("marginals.json"), p("model.json"),
                            p("model.json.report.json"), p("pred.csv")]
            self.ops_per_round = len(self.commands) + self.spec["rows"]
        else:
            self.commands = {
                "predict_s": ["predict", "--model", p("model.json"),
                              "--input", p("rows.csv"), "--output", p("pred.csv"),
                              "--target", t, "--mode", "expect", "--round", "half-up"],
            }
            self.outputs = [p("pred.csv")]
            self.ops_per_round = self.spec["rows"]
        self.first_digest = None

    def round(self) -> dict:
        ops, failed = {}, 0
        for stage, argv in self.commands.items():
            t = perf_counter()
            code = pmfrec.cli.main(argv)
            ops[stage] = perf_counter() - t
            if code != 0:
                failed += self.spec["rows"] if self.name == "bulk_predict" else 1
        # A rerun on the same inputs must reproduce every artifact byte for byte.
        d = digest(self.outputs) if failed == 0 else None
        if self.first_digest is None:
            self.first_digest = d
        return {"ops": ops, "failed": failed,
                "identical": d is not None and d == self.first_digest}

    def stages(self, fastest: dict) -> dict:
        if self.name == "wide_pipeline":
            return dict(fastest, pipeline_s=sum(fastest.values()))
        return dict(fastest, predict_rows_per_s=self.spec["rows"] / fastest["predict_s"])

    def sweep_timing(self, budget: int) -> dict:
        ms = serialize.load_marginal_set(os.path.join(self.work, "marginals.json"))
        config = pmfrec.FitConfig(rank=self.spec["rank"], max_outer_sweeps=budget,
                                  outer_tol=1e-300, cost_floor=0.0, restarts=0,
                                  seed=self.spec["seed"])
        return {3: timed_sweeps(ms, config, budget)}

    def call_inputs(self):
        ms = serialize.load_marginal_set(os.path.join(self.work, "marginals.json"))
        bundle = serialize.load_bundle(os.path.join(self.work, "model.json"))
        return ms, bundle, pmfrec.FitConfig(rank=self.spec["rank"], seed=self.spec["seed"])


def fastest(rounds: list[dict]) -> dict:
    """Per operation, its fastest time over the rounds."""
    return {op: min(r["ops"][op] for r in rounds) for op in rounds[0]["ops"]}


def timed_sweeps(ms, config, budget: int) -> float:
    """Milliseconds per sweep of a fit that must run exactly `budget` sweeps."""
    t = perf_counter()
    _, report = pmfrec.fit(ms, config)
    dt = perf_counter() - t
    if report.sweeps_run != budget:
        raise RuntimeError(f"fixed-budget fit ran {report.sweeps_run} sweeps, not {budget}")
    return dt / budget * 1e3


def median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = perf_counter()
        fn()
        times.append(perf_counter() - t)
    return statistics.median(times) * 1e3


def factorization_timings(wl, workload: str) -> dict:
    """Fixed-budget sweep time and per-call times of the public block updates.

    Each public update_factor/update_loadings/coupled_cost call prepares the
    tuple unfoldings again, so these times include that preparation.
    """
    out = dict.fromkeys(("factorization.sweep_ms.order3", "factorization.sweep_ms.order4",
                         "factorization.update_factor_ms",
                         "factorization.update_loadings_ms",
                         "factorization.coupled_cost_ms"), 0.0)
    if workload not in SWEEP_BUDGET:
        return out  # bulk_predict runs no factorization
    for order, ms_per_sweep in wl.sweep_timing(SWEEP_BUDGET[workload]).items():
        out[f"factorization.sweep_ms.order{order}"] = ms_per_sweep
    ms, bundle, config = wl.call_inputs()
    n = CALL_REPEATS[workload]
    out["factorization.update_factor_ms"] = median_ms(
        lambda: pmfrec.update_factor(ms, bundle, 1, config), n)
    out["factorization.update_loadings_ms"] = median_ms(
        lambda: pmfrec.update_loadings(ms, bundle, config), n)
    out["factorization.coupled_cost_ms"] = median_ms(
        lambda: pmfrec.coupled_cost(ms, bundle, config), n)
    return out


def install_wrappers(rec: SpanRecorder) -> None:
    """Time every call the CLI and the workloads make into each layer."""
    cli = pmfrec.cli
    rec.install(cli, "main", lambda args: f"cli.main:{args[0][0]}")
    rec.install(cli, "load_csv", "marginals.load_csv",
                lambda a, out: {"cells": int(out.codes.size)})
    rec.install(cli, "estimate_marginals", "marginals.estimate_marginals",
                lambda a, out: {"tuples": len(out.entries)})
    for name in ("save_marginal_set", "save_bundle"):
        rec.install(serialize, name, f"serialize.{name}")
    rec.install(serialize, "dump_json", "serialize.dump_json",
                lambda a, out: {"bytes": os.path.getsize(a[1])})
    for name in ("load_marginal_set", "load_bundle"):
        rec.install(serialize, name, f"serialize.{name}")
    fit_counts = lambda a, out: {"sweeps": out[1].sweeps_run,  # noqa: E731
                                 "starts": out[1].starts_run}
    rec.install(cli, "fit", "factorization.fit", fit_counts)
    rec.install(factorization, "fit", "factorization.fit", fit_counts)
    rec.install(cli, "coupled_cost", "factorization.coupled_cost")
    rec.install(cli, "map_predict", "model.map_predict")
    rec.install(cli, "conditional_expectation", "model.conditional_expectation")


def layer_metrics(totals: dict) -> dict:
    """Per-layer metrics of one traced round from its span totals."""
    def agg(*names, key="self_s"):
        return sum(totals.get(n, {}).get(key, 0) for n in names)

    rows = agg("model.map_predict", "model.conditional_expectation", key="calls")
    posterior_s = agg("model.map_predict", "model.conditional_expectation")
    return {
        "marginals.load_csv_s": agg("marginals.load_csv"),
        "marginals.cells_parsed": agg("marginals.load_csv", key="cells"),
        "marginals.estimate_s": agg("marginals.estimate_marginals"),
        "marginals.tuples": agg("marginals.estimate_marginals", key="tuples"),
        "serialize.save_s": agg("serialize.save_marginal_set", "serialize.save_bundle",
                                "serialize.dump_json"),
        "serialize.load_s": agg("serialize.load_marginal_set", "serialize.load_bundle"),
        "serialize.bytes_written": agg("serialize.dump_json", key="bytes"),
        "factorization.fit_s": agg("factorization.fit", "factorization.coupled_cost"),
        "factorization.sweeps": agg("factorization.fit", key="sweeps"),
        "factorization.starts": agg("factorization.fit", key="starts"),
        "model.posterior_rows": rows,
        "model.posterior_us_per_row": posterior_s / rows * 1e6 if rows else 0.0,
        "cli.marginals_self_s": agg("cli.main:marginals"),
        "cli.fit_self_s": agg("cli.main:fit"),
        "cli.predict_self_s": agg("cli.main:predict"),
        "trace.spans": agg(*totals, key="calls"),
    }


def measure(wl, seconds: float, rec: SpanRecorder | None):
    """Untraced rounds, and with a recorder traced rounds alternating with them.

    Runs one round, then another while it still fits into `seconds` at the
    mean pace so far. A traced run makes at least an untraced, a traced and
    another untraced round, so the first round's warm-up never falls on the
    traced side.
    """
    plain, traced, layers = [], [], []
    start = time.monotonic()
    while True:
        if rec is not None and len(traced) < len(plain):
            mark = rec.mark()
            install_wrappers(rec)
            try:
                traced.append(wl.round())
            finally:
                rec.uninstall()
            layers.append(layer_metrics(rec.totals(mark)))
        else:
            plain.append(wl.round())
        step = time.monotonic() - start
        done = len(plain) + len(traced)
        if (rec is None or len(plain) >= 2) and step + step / done > seconds:
            return plain, traced, layers


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if args.workload == "noiseless_recovery":
        wl = Recovery(args.work)
    else:
        wl = CliWorkload(args.work, args.workload)
    rec = SpanRecorder() if args.trace else None
    plain, traced, layers = measure(wl, args.seconds, rec)

    best = fastest(plain)
    result = {
        "setup_s": SETUP_S,
        "round_s": sum(best.values()),
        "stages": wl.stages(best),
        "rounds": len(plain) + len(traced),
        "ops_by_round": [r["ops"] for r in plain],
        "attempted": wl.ops_per_round * (len(plain) + len(traced)),
        "failed": sum(r["failed"] for r in plain + traced),
        "identical": all(r["identical"] for r in plain + traced),
    }
    if rec is None:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        result["layers"] = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        result["layers"]["trace.overhead_s"] = sum(fastest(traced).values()) - result["round_s"]
        result["layers"].update(factorization_timings(wl, args.workload))
        rec.dump(os.path.join(args.work, "trace.json"))
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
