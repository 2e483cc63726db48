"""Command-line surface for the recovery pipeline.

Subcommands: marginals, fit, bounds, predict, synth, eval. Every command is
deterministic given --seed and writes artifacts through the fixed-precision
JSON serializers, so reruns are byte-identical. Exit codes: 0 success,
1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import harness, serialize
from .errors import DataError, NumericalError, PmfrecError
from .factorization import FitConfig, coupled_cost, fit
from .identifiability import build_report
from .marginals import MISSING, estimate_marginals, load_csv
# map_predict and conditional_expectation stay importable from this module:
# the traced pmfbench run wraps cli.map_predict and cli.conditional_expectation.
from .model import JointPmfModel, conditional_expectation, map_predict, posterior_batch  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(PmfrecError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="pmfrec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("marginals", help="estimate marginal PMFs from a CSV dataset")
    m.add_argument("--input", required=True, help="CSV of 1-based integer codes")
    m.add_argument("--output", required=True, help="marginal-set JSON to write")
    m.add_argument("--order", type=int, default=3, choices=(2, 3, 4))
    m.add_argument("--missing-token", default="?")
    m.add_argument("--delimiter", default=",")
    m.add_argument("--header", action="store_true", help="skip a header row")
    m.add_argument("--alphabet-sizes", default=None,
                   help="comma-separated sizes; default inferred per column")
    m.add_argument("--round", dest="rounding", default=None,
                   choices=("half-up", "ceiling"),
                   help="map real-valued cells onto integer codes")

    f = sub.add_parser("fit", help="factor a marginal set into a joint-PMF model")
    f.add_argument("--input", required=True, help="marginal-set JSON")
    f.add_argument("--output", required=True, help="model JSON to write")
    f.add_argument("--report", default=None, help="fit-report JSON (default <output>.report.json)")
    f.add_argument("--rank", type=int, required=True)
    f.add_argument("--max-sweeps", type=int, default=500)
    f.add_argument("--admm-iters", type=int, default=10)
    f.add_argument("--tol", type=float, default=1e-9)
    f.add_argument("--cost-floor", type=float, default=0.0)
    f.add_argument("--seed", type=int, default=0)

    b = sub.add_parser("bounds", help="identifiability rank bounds for (N, I)")
    b.add_argument("--n-vars", type=int, required=True)
    b.add_argument("--alphabet", type=int, required=True)
    b.add_argument("--output", default=None, help="optional JSON report path")
    b.add_argument("--format", choices=("table", "json"), default="table")

    pr = sub.add_parser("predict", help="predict a target column for each CSV row")
    pr.add_argument("--model", required=True, help="model JSON")
    pr.add_argument("--input", required=True, help="CSV of test rows")
    pr.add_argument("--output", required=True, help="predictions CSV to write")
    pr.add_argument("--target", type=int, required=True, help="1-based target column")
    pr.add_argument("--mode", choices=("map", "expect"), default="map")
    pr.add_argument("--missing-token", default="?")
    pr.add_argument("--delimiter", default=",")
    pr.add_argument("--header", action="store_true")
    pr.add_argument("--round", dest="rounding", default=None, choices=("half-up", "ceiling"))

    s = sub.add_parser("synth", help="generate a random model and sampled dataset")
    s.add_argument("--n-vars", type=int, required=True)
    s.add_argument("--alphabet", type=int, required=True)
    s.add_argument("--rank", type=int, required=True)
    s.add_argument("--samples", type=int, required=True)
    s.add_argument("--hide-fraction", type=float, default=0.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--output-dir", required=True)

    e = sub.add_parser("eval", help="score models, predictions, or run an experiment")
    e.add_argument("--truth-model", default=None)
    e.add_argument("--est-model", default=None)
    e.add_argument("--predictions", default=None, help="predictions CSV from `predict`")
    e.add_argument("--truth", default=None, help="CSV with the true target values")
    e.add_argument("--target", type=int, default=None)
    e.add_argument("--task", choices=("classification", "regression"), default="classification")
    e.add_argument("--experiment", default=None, help="experiment-spec JSON")
    e.add_argument("--output", default=None, help="JSON report path")
    e.add_argument("--csv", default=None, help="CSV summary path (experiment mode)")
    e.add_argument("--missing-token", default="?")
    e.add_argument("--delimiter", default=",")
    e.add_argument("--header", action="store_true")
    return p


def _parse_sizes(raw: str | None):
    if raw is None:
        return None
    try:
        return [int(x) for x in raw.split(",")]
    except ValueError:
        raise UsageError(f"--alphabet-sizes must be comma-separated integers, got {raw!r}")


def cmd_marginals(args) -> int:
    data = load_csv(
        args.input,
        missing_token=args.missing_token,
        alphabet_sizes=_parse_sizes(args.alphabet_sizes),
        delimiter=args.delimiter,
        has_header=args.header,
        rounding=args.rounding,
    )
    if args.order > data.n_vars:
        raise UsageError(
            f"--order {args.order} exceeds the {data.n_vars} columns in {args.input}"
        )
    ms = estimate_marginals(data, args.order)
    serialize.save_marginal_set(args.output, ms)
    supports = []
    for key in sorted(ms.entries):
        support = ms.entries[key].support
        supports.append(support)
        print(f"tuple {key}: support {support}")
    print(
        f"wrote {len(ms.entries)} order-{args.order} marginals for "
        f"{data.n_records} records to {args.output} "
        f"(support min {min(supports)}, max {max(supports)})"
    )
    return EXIT_OK


def cmd_fit(args) -> int:
    if args.rank < 1:
        raise UsageError("--rank must be a positive integer")
    ms = serialize.load_marginal_set(args.input)
    config = FitConfig(
        rank=args.rank,
        max_outer_sweeps=args.max_sweeps,
        admm_inner_iters=args.admm_iters,
        outer_tol=args.tol,
        cost_floor=args.cost_floor,
        seed=args.seed,
    )
    bundle, report = fit(ms, config)
    serialize.save_bundle(args.output, bundle)
    report_path = args.report or f"{args.output}.report.json"
    serialize.dump_json(
        {
            "version": serialize.SCHEMA_VERSION,
            "cost_trace": report.cost_trace,
            "sweeps_run": report.sweeps_run,
            "termination_reason": report.termination_reason,
            "best_sweep": report.best_sweep,
            "final_cost": report.cost_trace[-1],
            "best_cost": coupled_cost(ms, bundle, config),
            "block_residuals": {
                name: vars(block) for name, block in report.block_residuals.items()
            },
        },
        report_path,
    )
    print(
        f"fit rank {args.rank}: cost {report.cost_trace[-1]:.6e} after "
        f"{report.sweeps_run} sweeps ({report.termination_reason}); "
        f"model -> {args.output}, report -> {report_path}"
    )
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.n_vars < 3:
        raise UsageError("--n-vars must be at least 3")
    if args.alphabet < 2:
        raise UsageError("--alphabet must be at least 2")
    reports = [build_report(args.n_vars, args.alphabet, 3)]
    reports.append(build_report(args.n_vars, args.alphabet, 4))
    doc = {
        "n_vars": args.n_vars,
        "alphabet": args.alphabet,
        "orders": [
            {
                "marginal_order": rep.marginal_order,
                "combined_bound": rep.combined_bound,
                "rules": [vars(rule) for rule in rep.rules],
            }
            for rep in reports
        ],
    }
    if args.output:
        serialize.dump_json(doc, args.output)
    if args.format == "json":
        import json

        print(json.dumps(serialize.jsonify(doc), indent=2, sort_keys=True))
    else:
        print(f"rank bounds for N={args.n_vars}, I={args.alphabet}")
        for rep in reports:
            name = {3: "triples", 4: "quadruples"}[rep.marginal_order]
            print(f"  {name}: F <= {rep.combined_bound}")
            for rule in rep.rules:
                extra = f" partition {rule.partition}" if rule.partition else ""
                note = f" [{rule.note}]" if rule.note else ""
                print(f"    {rule.name}: {rule.bound}{extra}{note}")
    return EXIT_OK


def cmd_predict(args) -> int:
    bundle = serialize.load_bundle(args.model)
    model = JointPmfModel(bundle)
    if not 1 <= args.target <= model.n_vars:
        raise UsageError(
            f"--target {args.target} out of range for a {model.n_vars}-variable model"
        )
    # Alphabet sizes come from the model; the CSV only has to stay inside them.
    raw = load_csv(
        args.input,
        missing_token=args.missing_token,
        delimiter=args.delimiter,
        has_header=args.header,
        rounding=args.rounding,
        alphabet_sizes=model.alphabet_sizes,
    )
    if raw.n_vars != model.n_vars:
        raise DataError(
            f"test file has {raw.n_vars} columns but the model has {model.n_vars} variables"
        )
    post, live = posterior_batch(model, raw.codes, args.target)
    if args.mode == "map":
        values = (post.argmax(axis=1) + 1).tolist()
    else:
        expect = post @ np.arange(1.0, post.shape[1] + 1)
        values = [f"{value:.12g}" for value in expect.tolist()]
    with open(args.output, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "prediction", "note"])
        writer.writerows(
            [i, value, ""] if ok else [i, "", "zero-probability evidence"]
            for i, (value, ok) in enumerate(zip(values, live.tolist()), start=1)
        )
    print(f"wrote {raw.n_records} predictions to {args.output}")
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.n_vars < 1 or args.alphabet < 1 or args.rank < 1:
        raise UsageError("--n-vars, --alphabet and --rank must be positive")
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    if not 0.0 <= args.hide_fraction < 1.0:
        raise UsageError("--hide-fraction must lie in [0, 1)")
    os.makedirs(args.output_dir, exist_ok=True)
    model = harness.random_model(args.n_vars, args.alphabet, args.rank, args.seed)
    data, labels = harness.sample_labeled(model, args.samples, args.seed + 1)
    if args.hide_fraction > 0:
        data = harness.hide_entries(data, args.hide_fraction, args.seed + 2)
    model_path = os.path.join(args.output_dir, "model.json")
    data_path = os.path.join(args.output_dir, "data.csv")
    labels_path = os.path.join(args.output_dir, "labels.csv")
    serialize.save_bundle(model_path, model.bundle)
    with open(data_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in data.codes:
            writer.writerow(["?" if c == MISSING else int(c) for c in row])
    with open(labels_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for h in labels:
            writer.writerow([int(h)])
    print(f"wrote {model_path}, {data_path}, {labels_path}")
    return EXIT_OK


def _read_predictions(path):
    values, notes = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            values.append(row["prediction"])
            notes.append(row["note"])
    return values, notes


def _eval_models(args) -> dict:
    truth = serialize.load_bundle(args.truth_model)
    est = serialize.load_bundle(args.est_model)
    if truth.alphabet_sizes != est.alphabet_sizes:
        raise DataError(
            f"alphabet sizes differ: truth {truth.alphabet_sizes} vs est {est.alphabet_sizes}"
        )
    doc = {"mre_ten": harness.mre_ten_models(truth, est)}
    if truth.rank == est.rank:
        doc["mre_fact"] = harness.mre_fact(truth, est)
    return doc


def _eval_predictions(args) -> dict:
    if args.target is None:
        raise UsageError("--target is required with --predictions")
    values, notes = _read_predictions(args.predictions)
    truth_data = load_csv(
        args.truth,
        missing_token=args.missing_token,
        delimiter=args.delimiter,
        has_header=args.header,
    )
    if args.target > truth_data.n_vars:
        raise UsageError(f"--target {args.target} exceeds {truth_data.n_vars} columns")
    if len(values) != truth_data.n_records:
        raise DataError(
            f"{len(values)} predictions for {truth_data.n_records} truth rows"
        )
    pred, true = [], []
    skipped = 0
    for i, (value, note, row) in enumerate(zip(values, notes, truth_data.codes), start=1):
        if note or value == "":
            skipped += 1
            continue
        if row[args.target - 1] == MISSING:
            raise DataError(f"truth row {i} has a missing value in target column {args.target}")
        pred.append(float(value))
        true.append(float(row[args.target - 1]))
    if not pred:
        raise DataError("no scorable predictions (all rows had diagnostics)")
    report = harness.eval_metrics(pred, true, task=args.task)
    doc = {"task": report.task, "rmse": report.rmse, "mae": report.mae, "skipped": skipped}
    if report.misclassification is not None:
        doc["misclassification"] = report.misclassification
    return doc


def _eval_experiment(args) -> dict:
    spec = harness.ExperimentSpec.from_dict(serialize.load_json(args.experiment))
    rows = harness.run_experiment(spec)
    summary = harness.summarize_rows(rows)
    if args.csv:
        fields = sorted({k for s in summary for k in s})
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for s in summary:
                writer.writerow({k: s.get(k, "") for k in fields})
    return {"spec": vars(spec).copy(), "rows": rows, "summary": summary}


def cmd_eval(args) -> int:
    modes = [
        args.experiment is not None,
        args.truth_model is not None or args.est_model is not None,
        args.predictions is not None,
    ]
    if sum(modes) != 1:
        raise UsageError(
            "eval needs exactly one of: --experiment, --truth-model/--est-model, "
            "--predictions/--truth"
        )
    if args.experiment is not None:
        doc = _eval_experiment(args)
    elif args.predictions is not None:
        if args.truth is None:
            raise UsageError("--truth is required with --predictions")
        doc = _eval_predictions(args)
    else:
        if args.truth_model is None or args.est_model is None:
            raise UsageError("model comparison needs both --truth-model and --est-model")
        doc = _eval_models(args)
    if args.output:
        serialize.dump_json(doc, args.output)
    for key, value in doc.items():
        if key in ("rows", "spec"):
            continue
        if isinstance(value, float):
            print(f"{key}: {value:.6e}")
        elif key != "summary":
            print(f"{key}: {value}")
    if "summary" in doc:
        for cell in doc["summary"]:
            print(cell)
    return EXIT_OK


_COMMANDS = {
    "marginals": cmd_marginals,
    "fit": cmd_fit,
    "bounds": cmd_bounds,
    "predict": cmd_predict,
    "synth": cmd_synth,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValueError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
