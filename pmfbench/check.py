"""Output checks of the pmfrec benchmark, from the benchmark's own arithmetic.

Each `check_<workload>(work, truth)` reads what the timed process
wrote, recomputes the expected values from the generator's ground truth with
plain numpy (scipy only for the optimal assignment), and returns a list of
failed checks plus the number of prediction rows that carry a
zero-probability note (failed operations, not check failures).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from collections import Counter

import numpy as np
from scipy.optimize import linear_sum_assignment

from gen import dense_joint

# Acceptance thresholds of the noiseless-recovery criterion (medians per order).
MAX_FACTOR_ERROR = 1e-5
MAX_TENSOR_ERROR = 1e-6
# The cost of one bundle computed two ways (pmfrec's and ours) agrees to
# this relative tolerance; costs near the 1e-22 floor differ in rounding.
COST_RTOL = 1e-6
# The 60-sweep fit must close at least 1 - LOGLIK_SHORTFALL of the ground
# truth's held-out log-likelihood gain over the rank-1 independence model.
# Calibrated on seeds 0-20: the gain is 0.76-1.01 nats per row and the
# median shortfall is 0.5% and the largest 8.6% (seed 6).
LOGLIK_SHORTFALL = 0.2
SIMPLEX_TOL = 1e-9


def simplex_problems(label: str, lam, factors, tol: float = SIMPLEX_TOL) -> list[str]:
    out = []
    if lam.min() < -tol or abs(lam.sum() - 1.0) > tol:
        out.append(f"{label}: loadings leave the simplex")
    for n, A in enumerate(factors, start=1):
        if A.min() < -tol or np.abs(A.sum(axis=0) - 1.0).max() > tol:
            out.append(f"{label}: factor {n} has a column off the simplex")
    return out


def factor_error(true_factors, est_factors) -> float:
    """Mean relative factor error after the optimal component matching."""
    cost = sum(((At[:, :, None] - Ae[:, None, :]) ** 2).sum(axis=0)
               for At, Ae in zip(true_factors, est_factors))
    rows, perm = linear_sum_assignment(cost)
    return float(np.mean([np.linalg.norm(At - Ae[:, perm]) / np.linalg.norm(At)
                          for At, Ae in zip(true_factors, est_factors)]))


def tuple_cost(keys, data, lam, factors) -> float:
    """Half squared direct residual, summed over tuples (flat data, F order)."""
    total = 0.0
    for key, x in zip(keys, data):
        r = x - dense_joint(lam, [factors[v - 1] for v in key]).ravel(order="F")
        total += 0.5 * float(r @ r)
    return total


def costs_agree(a: float, b: float) -> bool:
    return abs(a - b) <= COST_RTOL * max(abs(a), abs(b))


def log_factors(factors):
    with np.errstate(divide="ignore"):
        return [np.log(A) for A in factors]


def evidence_logs(codes, lam, logA, skip=None) -> np.ndarray:
    """(rows x F) log of lam_f * prod over observed cells of A_n[x_n, f]."""
    out = np.tile(np.log(lam), (codes.shape[0], 1))
    for n, LA in enumerate(logA):
        if n == skip:
            continue
        col = codes[:, n].astype(np.int64)
        obs = col != 0
        out[obs] += LA[col[obs] - 1]
    return out


def logsumexp(a, axis):
    peak = np.max(a, axis=axis, keepdims=True)
    safe = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        return np.squeeze(safe, axis) + np.log(np.exp(a - safe).sum(axis=axis))


def read_predictions(path, rows: int, problems: list[str]):
    """Prediction strings and notes, checking one row per input row, in order."""
    values, notes = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["row", "prediction", "note"]:
            problems.append("predictions file lacks its header")
        for i, rec in enumerate(reader, start=1):
            if len(rec) != 3 or rec[0] != str(i):
                problems.append(f"prediction line {i} is malformed: {rec!r}")
                break
            values.append(rec[1])
            notes.append(rec[2])
    if len(values) != rows:
        problems.append(f"{len(values)} predictions for {rows} rows")
    return values, notes


def check_noiseless_recovery(work, truth):
    spec, arrays = truth["spec"], truth["arrays"]
    with open(os.path.join(work, "fits.json")) as fh:
        meta = json.load(fh)
    fits = np.load(os.path.join(work, "fits.npz"))
    problems = []
    errors = {order: ([], []) for order in (3, 4)}
    for i, job in enumerate(spec["jobs"]):
        if "error" in meta[i]:
            continue  # counted as a failed operation by the timed process
        label = f"order-{job['order']} trial {job['trial']}"
        lam, factors = fits[f"lam_{i}"], list(fits[f"factors_{i}"])
        problems += simplex_problems(label, lam, factors)
        true_lam, true_factors = truth["truths"][job["trial"]]
        joint = dense_joint(true_lam, true_factors)
        errors[job["order"]][0].append(factor_error(true_factors, factors))
        errors[job["order"]][1].append(float(
            np.linalg.norm(joint - dense_joint(lam, factors)) / np.linalg.norm(joint)))
        data = [arrays[f"o{job['order']}_t{job['trial']}_{k}"] for k in range(len(job["keys"]))]
        cost = tuple_cost(job["keys"], data, lam, factors)
        if not costs_agree(cost, meta[i]["min_cost"]):
            problems.append(f"{label}: direct-residual cost {cost:.6e} but the "
                            f"report's minimum is {meta[i]['min_cost']:.6e}")
    for order, (fact, ten) in errors.items():
        if not fact or np.median(fact) > MAX_FACTOR_ERROR or np.median(ten) > MAX_TENSOR_ERROR:
            problems.append(f"order {order}: median factor error "
                            f"{np.median(fact) if fact else math.nan:.2e}, tensor error "
                            f"{np.median(ten) if ten else math.nan:.2e} miss the thresholds")
    return problems, 0


def load_model(path):
    with open(path) as fh:
        doc = json.load(fh)
    return (np.asarray(doc["lambda"], dtype=np.float64),
            [np.asarray(cols, dtype=np.float64).T for cols in doc["factors"]])


def check_wide_pipeline(work, truth):
    spec, train, heldout = truth["spec"], truth["train"], truth["heldout"]
    n_vars = train.shape[1]
    problems = []

    with open(os.path.join(work, "marginals.json")) as fh:
        doc = json.load(fh)
    entries = {tuple(e["variables"]): e for e in doc["marginals"]}
    keys = list(itertools.combinations(range(1, n_vars + 1), spec["order"]))
    if sorted(entries) != keys:
        problems.append("the marginal set does not hold exactly the order-3 tuples")
        return problems, 0
    observed = train != 0
    for key in keys:
        e = entries[key]
        support = int(np.logical_and.reduce([observed[:, v - 1] for v in key]).sum())
        data = np.asarray(e["data"])
        if e["support"] != support:
            problems.append(f"tuple {key}: support {e['support']}, complete cases {support}")
        if data.min() < 0 or abs(data.sum() - 1.0) > SIMPLEX_TOL:
            problems.append(f"tuple {key}: tensor is not a PMF")

    # Exact integer counts of a seeded sample of tuples, counted in plain Python.
    rng = truth["sample_rng"]
    sample = {(1, 2, 3), (n_vars - 2, n_vars - 1, n_vars)}
    while len(sample) < 6:
        sample.add(keys[int(rng.integers(len(keys)))])
    rows = train.tolist()
    size = truth["factors"][0].shape[0]
    for key in sorted(sample):
        i, j, k = (v - 1 for v in key)
        counts = Counter((r[i], r[j], r[k]) for r in rows if r[i] and r[j] and r[k])
        expect = np.zeros(size ** 3)
        for (a, b, c), n in counts.items():
            expect[(a - 1) + size * (b - 1) + size * size * (c - 1)] = n
        scaled = np.asarray(entries[key]["data"]) * entries[key]["support"]
        if np.abs(scaled - expect).max() > 1e-6:
            problems.append(f"tuple {key}: counts differ from a plain count")

    lam, factors = load_model(os.path.join(work, "model.json"))
    problems += simplex_problems("fitted model", lam, factors)
    with open(os.path.join(work, "model.json.report.json")) as fh:
        report = json.load(fh)
    cost = tuple_cost(keys, [np.asarray(entries[k]["data"]) for k in keys], lam, factors)
    if not costs_agree(cost, report["best_cost"]):
        problems.append(f"direct-residual cost {cost:.9e} but report best_cost "
                        f"{report['best_cost']:.9e}")

    # Held-out mean log-likelihood against the truth and the rank-1 model.
    def mean_loglik(lam_, factors_):
        return float(np.mean(logsumexp(evidence_logs(heldout, lam_, log_factors(factors_)), 1)))

    marg = []
    for n in range(n_vars):
        col = train[:, n]
        marg.append(np.bincount(col[col != 0], minlength=size + 1)[1:, None]
                    / np.count_nonzero(col))
    ll_fit = mean_loglik(lam, factors)
    ll_truth = mean_loglik(truth["lam"], truth["factors"])
    ll_rank1 = mean_loglik(np.ones(1), marg)
    if not ll_fit - ll_rank1 >= (1 - LOGLIK_SHORTFALL) * (ll_truth - ll_rank1):
        problems.append(f"held-out log-likelihood {ll_fit:.5f}: truth {ll_truth:.5f}, "
                        f"rank-1 {ll_rank1:.5f}")

    # Every MAP prediction is an argmax of our log-space posterior.
    t = spec["target"] - 1
    logA = log_factors(factors)
    base = evidence_logs(heldout, lam, logA, skip=t)
    logpost = logsumexp(base[:, None, :] + logA[t][None, :, :], 2)  # rows x I
    best = logpost.max(axis=1)
    values, notes = read_predictions(os.path.join(work, "pred.csv"), len(heldout), problems)
    failed_rows = 0
    for i, (value, note) in enumerate(zip(values, notes)):
        if note:
            failed_rows += 1
            if np.isfinite(best[i]):
                problems.append(f"row {i + 1}: zero-probability note on possible evidence")
        elif not (value.isdigit() and 1 <= int(value) <= size
                  and logpost[i, int(value) - 1] >= best[i] - 1e-9):
            problems.append(f"row {i + 1}: MAP prediction {value!r} is not an argmax")
    return problems[:20], failed_rows


def check_bulk_predict(work, truth):
    spec, codes = truth["spec"], truth["codes"]
    lam, factors = truth["lam"], truth["factors"]
    problems = []
    t = spec["target"] - 1
    base = evidence_logs(codes, lam, log_factors(factors), skip=t)
    weights = np.exp(base - base.max(axis=1, keepdims=True))
    post = weights @ factors[t].T
    post /= post.sum(axis=1, keepdims=True)
    expect = post @ np.arange(1, post.shape[1] + 1)
    values, notes = read_predictions(os.path.join(work, "pred.csv"), len(codes), problems)
    noted = np.array([bool(n) for n in notes])
    got = np.array([float(v) if v else math.nan for v in values])
    if len(got) == len(expect):
        bad = np.flatnonzero(~noted & ~(np.abs(got - expect) <= 1e-9))
        if bad.size:
            problems.append(f"{bad.size} conditional expectations differ from the "
                            f"benchmark's posterior, first at row {bad[0] + 1}")
    return problems, int(noted.sum())


CHECKS = {
    "noiseless_recovery": check_noiseless_recovery,
    "wide_pipeline": check_wide_pipeline,
    "bulk_predict": check_bulk_predict,
}
