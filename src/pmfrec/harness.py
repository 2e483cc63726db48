"""Synthetic data generation, reference estimators, and evaluation metrics.

Ground-truth models are drawn with uniform(0,1) entries and normalized
columns; datasets are sampled ancestrally (component first, then each cell
independently from its conditional). Per-trial seeds are derived from the
master seed through `numpy.random.SeedSequence.spawn`, so Monte-Carlo runs
are reproducible regardless of scheduling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import CapacityError, DataError, ZeroEvidenceError
from .factorization import FitConfig, fit, random_bundle
from .marginals import MISSING, DiscreteDataset, MarginalEntry, MarginalSet, estimate_marginals
from .model import JointPmfModel, posterior_batch
from .tensor_ops import (
    DEFAULT_ELEMENT_BUDGET,
    DenseTensor,
    FactorBundle,
    check_capacity,
    synthesize_array,
)


def random_model(N: int, I: int, F: int, seed: int) -> JointPmfModel:
    """Seeded ground-truth model: iid uniform entries, columns normalized."""
    if N < 1 or I < 1 or F < 1:
        raise ValueError("N, I and F must be positive")
    rng = np.random.default_rng(seed)
    return JointPmfModel(random_bundle([I] * N, F, rng))


def sample_labeled(
    model: JointPmfModel, M: int, seed: int
) -> tuple[DiscreteDataset, np.ndarray]:
    """Ancestral sample of M records plus the hidden component labels (1-based)."""
    if M < 1:
        raise ValueError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    lam = model.bundle.loadings
    h = rng.choice(model.rank, size=M, p=lam / lam.sum())
    codes = np.empty((M, model.n_vars), dtype=np.int64)
    for n, A in enumerate(model.bundle.factors):
        cum = np.cumsum(A, axis=0)[:, h]  # I x M column CDFs
        u = rng.random(M)
        codes[:, n] = (u[None, :] > cum).sum(axis=0) + 1
        np.clip(codes[:, n], 1, A.shape[0], out=codes[:, n])
    data = DiscreteDataset(codes=codes, alphabet_sizes=model.alphabet_sizes)
    return data, h + 1


def sample_dataset(model: JointPmfModel, M: int, seed: int) -> DiscreteDataset:
    """Ancestral sample of M fully observed records."""
    data, _ = sample_labeled(model, M, seed)
    return data


def hide_entries(data: DiscreteDataset, fraction: float, seed: int) -> DiscreteDataset:
    """Set exactly round(fraction * M * N) uniformly chosen cells to missing."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError("hide fraction must be in [0, 1)")
    if fraction == 0.0:
        return data
    rng = np.random.default_rng(seed)
    total = data.n_records * data.n_vars
    count = round(fraction * total)
    chosen = rng.choice(total, size=count, replace=False)
    codes = np.array(data.codes)
    codes.reshape(-1)[chosen] = MISSING
    return DiscreteDataset(codes=codes, alphabet_sizes=data.alphabet_sizes)


def _as_bundle(x) -> FactorBundle:
    return x.bundle if isinstance(x, JointPmfModel) else x


def match_components(truth, est) -> np.ndarray:
    """Column permutation aligning `est` components to `truth` by minimum
    total squared column distance across all factors (optimal assignment)."""
    tb, eb = _as_bundle(truth), _as_bundle(est)
    if tb.rank != eb.rank or tb.alphabet_sizes != eb.alphabet_sizes:
        raise ValueError("models must share rank and alphabet sizes")
    F = tb.rank
    cost = np.zeros((F, F))
    for At, Ae in zip(tb.factors, eb.factors):
        # cost[p, q] += ||At[:, p] - Ae[:, q]||^2
        cost += (
            (At * At).sum(axis=0)[:, None]
            + (Ae * Ae).sum(axis=0)[None, :]
            - 2.0 * At.T @ Ae
        )
    _, perm = linear_sum_assignment(cost)
    return perm


def mre_fact(truth, est) -> float:
    """Mean relative factor error after fixing the component permutation."""
    tb, eb = _as_bundle(truth), _as_bundle(est)
    perm = match_components(tb, eb)
    total = 0.0
    for At, Ae in zip(tb.factors, eb.factors):
        total += float(np.linalg.norm(At - Ae[:, perm])) / float(np.linalg.norm(At))
    return total / tb.n_vars


def mre_ten(truth_tensor: DenseTensor, est_tensor: DenseTensor) -> float:
    """Relative Frobenius error between two tensors of equal shape."""
    if truth_tensor.shape != est_tensor.shape:
        raise ValueError("tensor shapes differ")
    denom = float(np.linalg.norm(truth_tensor.data))
    if denom == 0.0:
        raise ValueError("truth tensor is identically zero")
    return float(np.linalg.norm(truth_tensor.data - est_tensor.data)) / denom


def mre_ten_models(truth, est, element_budget: int = DEFAULT_ELEMENT_BUDGET) -> float:
    """Relative error between the dense joints of two models."""
    from .tensor_ops import synthesize

    return mre_ten(
        synthesize(_as_bundle(truth), element_budget),
        synthesize(_as_bundle(est), element_budget),
    )


def oracle_mle(
    data: DiscreteDataset, labels: np.ndarray, rank: int
) -> JointPmfModel:
    """Frequency-count estimate given ground-truth component labels.

    Components never observed get zero loading (and a uniform conditional to
    keep the simplex invariants); missing cells are simply left out of the
    conditional counts.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (data.n_records,):
        raise ValueError("one label per record required")
    if labels.min() < 1 or labels.max() > rank:
        raise ValueError(f"labels must lie in 1..{rank}")
    M = data.n_records
    lam = np.bincount(labels - 1, minlength=rank).astype(np.float64) / M
    factors = []
    for n, size in enumerate(data.alphabet_sizes):
        col = data.codes[:, n]
        obs = col != MISSING
        counts = np.zeros((size, rank))
        np.add.at(counts, (col[obs] - 1, labels[obs] - 1), 1.0)
        denom = counts.sum(axis=0)
        A = np.full((size, rank), 1.0 / size)
        pos = denom > 0
        A[:, pos] = counts[:, pos] / denom[pos]
        factors.append(A)
    return JointPmfModel(FactorBundle(lam, tuple(factors)))


def empirical_joint(
    data: DiscreteDataset, element_budget: int = DEFAULT_ELEMENT_BUDGET
) -> DenseTensor:
    """Joint frequency PMF over the fully observed records."""
    dims = data.alphabet_sizes
    total = check_capacity(dims, element_budget)
    mask = data.observed_mask.all(axis=1)
    n_full = int(mask.sum())
    if n_full == 0:
        raise DataError("no fully observed records; empirical joint is undefined")
    obs = data.codes[mask] - 1
    lin = np.ravel_multi_index(obs.T, dims, order="F")
    counts = np.bincount(lin, minlength=total).astype(np.float64)
    return DenseTensor(shape=dims, data=counts / n_full, normalized=True)


@dataclass(frozen=True)
class MetricReport:
    task: str
    rmse: float
    mae: float
    misclassification: float | None


def eval_metrics(
    predictions: Sequence[float], truth: Sequence[float], task: str = "classification"
) -> MetricReport:
    """RMSE, MAE and (for classification) the 0/1 error of the predictions."""
    if task not in ("classification", "regression"):
        raise ValueError(f"unknown task {task!r}")
    pred = np.asarray(predictions, dtype=np.float64)
    true = np.asarray(truth, dtype=np.float64)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ValueError("predictions and truth must be 1-D of equal length")
    if pred.size == 0:
        raise ValueError("nothing to evaluate")
    err = pred - true
    rmse = float(np.sqrt(np.mean(err * err)))
    mae = float(np.mean(np.abs(err)))
    mis = float(np.mean(pred != true)) if task == "classification" else None
    return MetricReport(task=task, rmse=rmse, mae=mae, misclassification=mis)


def exact_marginals(model: JointPmfModel, order: int) -> MarginalSet:
    """Noiseless marginal set synthesized directly from the model sub-bundles."""
    sizes = model.alphabet_sizes
    entries = {}
    for combo in itertools.combinations(range(1, model.n_vars + 1), order):
        facs = [model.bundle.factors[v - 1] for v in combo]
        arr = synthesize_array(model.bundle.loadings, facs)
        entries[combo] = MarginalEntry(
            tensor=DenseTensor.from_array(arr), support=1
        )
    return MarginalSet(order=order, alphabet_sizes=sizes, entries=entries)


def split_dataset(
    data: DiscreteDataset,
    fractions: tuple[float, float, float] = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> tuple[DiscreteDataset, DiscreteDataset, DiscreteDataset]:
    """Shuffled train/validation/test split by row."""
    if abs(sum(fractions) - 1.0) > 1e-9 or any(f < 0 for f in fractions):
        raise ValueError("fractions must be nonnegative and sum to 1")
    rng = np.random.default_rng(seed)
    M = data.n_records
    order = rng.permutation(M)
    n_train = int(round(fractions[0] * M))
    n_val = int(round(fractions[1] * M))
    parts = (order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :])
    out = []
    for idx in parts:
        if idx.size == 0:
            raise ValueError("a split fraction produced an empty part")
        out.append(
            DiscreteDataset(codes=data.codes[idx], alphabet_sizes=data.alphabet_sizes)
        )
    return tuple(out)


def trial_seeds(master_seed: int, trials: int) -> list[int]:
    """Fixed splitting rule for per-trial seeds."""
    seqs = np.random.SeedSequence(master_seed).spawn(trials)
    return [int(s.generate_state(1)[0]) for s in seqs]


@dataclass
class ExperimentSpec:
    """One Monte-Carlo experiment over synthetic ground truth.

    Each grid cell draws its own truth of rank `rank_true` (or of the cell's
    fit rank when `rank_true` is None, the matched-rank setting used for the
    noiseless recovery tables).
    """

    n_vars: int = 5
    alphabet: int = 10
    rank_true: int | None = None
    sample_size: int = 10_000
    hide_fraction: float = 0.0
    rank_grid: tuple[int, ...] = (5, 10, 15)
    orders: tuple[int, ...] = (2, 3, 4)
    trials: int = 10
    seed: int = 0
    noiseless: bool = False
    include_oracle: bool = False
    max_outer_sweeps: int = 500
    admm_inner_iters: int = 10
    outer_tol: float = 1e-9
    cost_floor: float = 1e-22
    restarts: int = 0
    restart_floor: float = 1e-20

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise DataError(f"unknown experiment fields: {sorted(unknown)}")
        doc = dict(doc)
        for key in ("rank_grid", "orders"):
            if key in doc:
                doc[key] = tuple(doc[key])
        return cls(**doc)

    def fit_config(self, rank: int, seed: int) -> FitConfig:
        return FitConfig(
            rank=rank,
            max_outer_sweeps=self.max_outer_sweeps,
            admm_inner_iters=self.admm_inner_iters,
            outer_tol=self.outer_tol,
            cost_floor=self.cost_floor,
            seed=seed,
            restarts=self.restarts,
            restart_floor=self.restart_floor,
        )


def run_recovery_trial(
    spec: ExperimentSpec, order: int, rank_fit: int, trial_seed: int
) -> dict:
    """One table cell of one trial: build truth, observe marginals, fit, score."""
    rank_true = spec.rank_true if spec.rank_true is not None else rank_fit
    truth = random_model(spec.n_vars, spec.alphabet, rank_true, trial_seed)
    labels = None
    if spec.noiseless:
        ms = exact_marginals(truth, order)
    else:
        data, labels = sample_labeled(truth, spec.sample_size, trial_seed + 1)
        if spec.hide_fraction > 0:
            data = hide_entries(data, spec.hide_fraction, trial_seed + 2)
        ms = estimate_marginals(data, order)
    est, report = fit(ms, spec.fit_config(rank_fit, trial_seed + 3))
    row = {
        "order": order,
        "rank_fit": rank_fit,
        "rank_true": rank_true,
        "seed": trial_seed,
        "final_cost": report.cost_trace[-1],
        "sweeps": report.sweeps_run,
        "termination": report.termination_reason,
        "mre_ten": mre_ten_models(truth, est),
    }
    if rank_fit == rank_true:
        row["mre_fact"] = mre_fact(truth, est)
    if spec.include_oracle and labels is not None:
        oracle = oracle_mle(data, labels, rank_true)
        row["oracle_mre_ten"] = mre_ten_models(truth, oracle)
    return row


def run_experiment(spec: ExperimentSpec) -> list[dict]:
    """All (order, rank) cells over the Monte-Carlo trials; one dict per fit."""
    seeds = trial_seeds(spec.seed, spec.trials)
    rows = []
    for order in spec.orders:
        for rank_fit in spec.rank_grid:
            for t, s in enumerate(seeds):
                row = run_recovery_trial(spec, order, rank_fit, s)
                row["trial"] = t
                rows.append(row)
    return rows


def summarize_rows(rows: list[dict], keys: tuple[str, ...] = ("order", "rank_fit")) -> list[dict]:
    """Mean/std/median of the error metrics per (order, rank) cell."""
    cells: dict[tuple, list[dict]] = {}
    for row in rows:
        cells.setdefault(tuple(row[k] for k in keys), []).append(row)
    out = []
    for cell_key in sorted(cells):
        group = cells[cell_key]
        summary = dict(zip(keys, cell_key))
        summary["trials"] = len(group)
        for metric in ("mre_fact", "mre_ten", "oracle_mre_ten"):
            vals = [g[metric] for g in group if metric in g]
            if vals:
                arr = np.asarray(vals)
                summary[f"{metric}_mean"] = float(arr.mean())
                summary[f"{metric}_std"] = float(arr.std())
                summary[f"{metric}_median"] = float(np.median(arr))
        out.append(summary)
    return out


def map_accuracy(
    model: JointPmfModel, test: DiscreteDataset, target: int
) -> float:
    """Fraction of test rows whose target is predicted exactly by MAP.

    Raises DataError when a row's target cell is missing and
    ZeroEvidenceError when a row's evidence has probability zero.
    """
    missing = np.flatnonzero(test.codes[:, target - 1] == MISSING)
    if missing.size:
        raise DataError(
            f"test row {int(missing[0]) + 1} has a missing value in target column {target}"
        )
    post, live = posterior_batch(model, test.codes, target)
    if not live.all():
        row = int(np.flatnonzero(~live)[0]) + 1
        raise ZeroEvidenceError(f"test row {row} has zero-probability evidence")
    hits = np.count_nonzero(post.argmax(axis=1) + 1 == test.codes[:, target - 1])
    return hits / test.n_records


def select_rank(
    train: DiscreteDataset,
    val: DiscreteDataset,
    target: int,
    rank_grid: Sequence[int],
    order: int = 3,
    seed: int = 0,
    **fit_kwargs,
) -> tuple[int, JointPmfModel, dict[int, float]]:
    """Grid sweep choosing the rank with the lowest validation error."""
    ms = estimate_marginals(train, order)
    scores: dict[int, float] = {}
    best_rank, best_model, best_err = None, None, np.inf
    for rank in rank_grid:
        config = FitConfig(rank=rank, seed=seed, **fit_kwargs)
        bundle, _ = fit(ms, config)
        model = JointPmfModel(bundle)
        err = 1.0 - map_accuracy(model, val, target)
        scores[rank] = err
        if err < best_err:
            best_rank, best_model, best_err = rank, model, err
    return best_rank, best_model, scores
