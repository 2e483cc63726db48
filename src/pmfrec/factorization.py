"""Coupled simplex-constrained CP factorization of a set of marginal PMFs.

The objective is the weighted half squared Frobenius mismatch, summed over
stored tuples, between each empirical marginal and the sub-model synthesis
sharing one loading vector and one factor per variable. Blocks (one factor
at a time, then the loadings) are cycled Gauss-Seidel style; each block is a
simplex-constrained least-squares problem solved with scaled ADMM. Gram
matrices are assembled through the Khatri-Rao identity
(A kr B)^T (A kr B) = (A^T A) * (B^T B) and the data terms through
matricized-tensor-times-Khatri-Rao products, with the tuple unfoldings
precomputed once per fit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NumericalError
from .marginals import MarginalSet
from .tensor_ops import DenseTensor, FactorBundle, unfold

# momentum schedule: growth on accepted extrapolation, cap, decay on rejection
_MOM = (1.25, 0.9995, 0.7)


@dataclass
class FitConfig:
    """Solver knobs.

    `rho_policy` is "trace" (rho = trace(G)/F, refreshed per block per sweep)
    or a fixed positive float. `extrapolation` turns on cost-guarded momentum
    across sweeps (an extrapolated point is kept only when it lowers the
    cost, so accepted iterates stay feasible and monotone). `restarts` allows
    that many fresh random initializations when a run converges above
    `restart_floor`; the best-cost solution over all starts is returned.
    """

    rank: int
    max_outer_sweeps: int = 500
    admm_inner_iters: int = 10
    rho_policy: float | str = "trace"
    outer_tol: float = 1e-8
    cost_floor: float = 0.0
    seed: int = 0
    per_tuple_weights: Mapping[tuple[int, ...], float] | None = None
    extrapolation: bool = True
    revive_dead_components: bool = True
    restarts: int = 0
    restart_floor: float = 0.0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.max_outer_sweeps < 1 or self.admm_inner_iters < 1:
            raise ValueError("iteration budgets must be at least 1")
        if self.outer_tol <= 0:
            raise ValueError("outer_tol must be positive")
        if self.restarts < 0:
            raise ValueError("restarts must be nonnegative")
        if isinstance(self.rho_policy, str):
            if self.rho_policy != "trace":
                raise ValueError(f"unknown rho policy {self.rho_policy!r}")
        elif self.rho_policy <= 0:
            raise NumericalError("fixed rho must be positive")

    def weight(self, key: tuple[int, ...]) -> float:
        if self.per_tuple_weights is None:
            return 1.0
        return float(self.per_tuple_weights.get(tuple(key), 1.0))


@dataclass
class BlockReport:
    """Diagnostics from one ADMM block update."""

    rho: float
    primal_residual: float
    dual_residual: float
    normal_eq_residual: float  # max over inner iterations, relative to 1 + ||V||


@dataclass
class UpdateResult:
    values: np.ndarray  # the updated factor (I_n x F) or loadings (F,)
    dual: np.ndarray
    report: BlockReport


@dataclass
class FitReport:
    """What a fit did.

    `sweeps_run` is the total over all `starts_run` starts. `cost_trace`,
    `best_sweep`, `termination_reason` and `block_residuals` belong to the
    winning start alone.
    """

    cost_trace: list[float] = field(default_factory=list)
    sweeps_run: int = 0
    termination_reason: str = ""
    best_sweep: int = 0
    starts_run: int = 1
    block_residuals: dict[str, BlockReport] = field(default_factory=dict)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = 1} by sort and threshold.

    The threshold index is the largest one passing the positivity test, which
    makes the output deterministic at ties.
    """
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    cond = u + (1.0 - css) / ks > 0.0
    k = int(np.nonzero(cond)[0][-1])
    theta = (css[k] - 1.0) / (k + 1)
    return np.maximum(v - theta, 0.0)


def project_columns_to_simplex(M: np.ndarray) -> np.ndarray:
    """Column-wise simplex projection of a matrix (vectorized)."""
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    u = np.sort(M, axis=0)[::-1, :]
    css = np.cumsum(u, axis=0)
    ks = np.arange(1, n + 1)[:, None]
    cond = u + (1.0 - css) / ks > 0.0
    k = n - 1 - np.argmax(cond[::-1, :], axis=0)  # largest passing index per column
    theta = (np.take_along_axis(css, k[None, :], axis=0)[0] - 1.0) / (k + 1)
    return np.maximum(M - theta[None, :], 0.0)


def random_bundle(
    alphabet_sizes: Sequence[int], rank: int, rng: np.random.Generator
) -> FactorBundle:
    """IID uniform(0,1) entries with every column and the loadings normalized
    to sum 1; the standard feasible random initialization."""
    factors = []
    for size in alphabet_sizes:
        A = rng.uniform(size=(int(size), rank))
        factors.append(A / A.sum(axis=0, keepdims=True))
    lam = rng.uniform(size=rank)
    return FactorBundle(lam / lam.sum(), tuple(factors))


def _kr(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Khatri-Rao with the first matrix's row index fastest."""
    out = mats[0]
    for M in mats[1:]:
        out = (M[:, None, :] * out[None, :, :]).reshape(-1, out.shape[1])
    return out


@dataclass
class _TupleData:
    """Per-tuple constants reused across sweeps."""

    key: tuple[int, ...]
    weight: float
    x: np.ndarray  # flat tensor data
    unfoldings: dict[int, np.ndarray]  # position (1-based within key) -> matrix


def _prepare(ms: MarginalSet, config: FitConfig) -> list[_TupleData]:
    tuples = []
    for key, entry in ms.active():
        w = config.weight(key)
        if w == 0.0:
            continue
        unf = {pos: unfold(entry.tensor, pos) for pos in range(1, len(key) + 1)}
        tuples.append(
            _TupleData(key=key, weight=w, x=entry.tensor.data, unfoldings=unf)
        )
    return tuples


def _cost_from_tuples(tuples: list[_TupleData], lam, factors) -> float:
    total = 0.0
    for td in tuples:
        Q = _kr([factors[v - 1] for v in td.key])
        r = td.x - Q @ lam
        total += td.weight * 0.5 * float(r @ r)
    return total


def coupled_cost(ms: MarginalSet, bundle: FactorBundle, config: FitConfig | None = None) -> float:
    """Weighted half squared Frobenius mismatch summed over active tuples."""
    cfg = config if config is not None else FitConfig(rank=bundle.rank)
    tuples = _prepare(ms, cfg)
    if not tuples:
        warnings.warn("marginal set has no contributing tuples; cost is 0")
        return 0.0
    return _cost_from_tuples(tuples, bundle.loadings, list(bundle.factors))


def _resolve_rho(config: FitConfig, G: np.ndarray) -> float:
    if isinstance(config.rho_policy, str):
        rho = float(np.trace(G)) / G.shape[0]
        return rho if rho > 0.0 else 1.0
    return float(config.rho_policy)


def _admm_matrix(
    G: np.ndarray,
    V: np.ndarray,
    A0: np.ndarray,
    U0: np.ndarray,
    rho: float,
    iters: int,
) -> tuple[np.ndarray, np.ndarray, BlockReport]:
    """Scaled ADMM on one block: solve against (G + rho I), project columns
    onto the simplex, update the multipliers. A0 is I x F, V is F x I."""
    Gr = G + rho * np.eye(G.shape[0])
    cho = cho_factor(Gr, lower=True)
    A = A0
    U = U0
    vscale = 1.0 + float(np.linalg.norm(V))
    worst_normal = 0.0
    Ahat_T = A0
    A_prev = A0
    for _ in range(iters):
        rhs = V + rho * (A + U).T
        Ahat = cho_solve(cho, rhs)
        resid = np.linalg.norm(Gr @ Ahat - rhs)
        worst_normal = max(worst_normal, float(resid) / vscale)
        Ahat_T = Ahat.T
        A_new = project_columns_to_simplex(Ahat_T - U)
        U = U + A_new - Ahat_T
        A_prev, A = A, A_new
    report = BlockReport(
        rho=rho,
        primal_residual=float(np.linalg.norm(A - Ahat_T)),
        dual_residual=rho * float(np.linalg.norm(A - A_prev)),
        normal_eq_residual=worst_normal,
    )
    return A, U, report


def _factor_system(
    tuples: list[_TupleData],
    factors: Sequence[np.ndarray],
    lam: np.ndarray,
    var: int,
    rank: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix and MTTKRP data term for the block of `var`."""
    grams = {}
    gram_sum = np.zeros((rank, rank))
    V_sum = np.zeros((rank, factors[var - 1].shape[0]))
    for td in tuples:
        if var not in td.key:
            continue
        others = [v for v in td.key if v != var]
        gram = np.full((rank, rank), td.weight)
        for v in others:
            if v not in grams:
                A = factors[v - 1]
                grams[v] = A.T @ A
            gram = gram * grams[v]
        gram_sum += gram
        pos = td.key.index(var) + 1
        Q = _kr([factors[v - 1] for v in others])
        V_sum += td.weight * (Q.T @ td.unfoldings[pos])
    G = np.outer(lam, lam) * gram_sum
    V = lam[:, None] * V_sum
    return G, V


def _loadings_system(
    tuples: list[_TupleData], factors: Sequence[np.ndarray], rank: int
) -> tuple[np.ndarray, np.ndarray]:
    grams = {}
    G = np.zeros((rank, rank))
    V = np.zeros(rank)
    for td in tuples:
        gram = np.full((rank, rank), td.weight)
        for v in td.key:
            if v not in grams:
                A = factors[v - 1]
                grams[v] = A.T @ A
            gram = gram * grams[v]
        G += gram
        Q = _kr([factors[v - 1] for v in td.key])
        V += td.weight * (Q.T @ td.x)
    return G, V


def update_factor(
    ms: MarginalSet,
    bundle: FactorBundle,
    var: int,
    config: FitConfig,
    dual: np.ndarray | None = None,
) -> UpdateResult:
    """One ADMM block update of the factor of `var`, all other blocks fixed.

    Passing the previous `dual` warm-starts the ADMM multipliers, which is
    how the outer sweeps recover accuracy with few inner iterations.
    """
    if not 1 <= var <= bundle.n_vars:
        raise ValueError(f"variable {var} out of range")
    if config.rank != bundle.rank:
        raise ValueError(f"config rank {config.rank} does not match bundle rank {bundle.rank}")
    tuples = _prepare(ms, config)
    return _update_factor_fast(
        tuples, [np.array(A) for A in bundle.factors], bundle.loadings, var, config, dual
    )


def _update_factor_fast(
    tuples: list[_TupleData],
    factors: Sequence[np.ndarray],
    lam: np.ndarray,
    var: int,
    config: FitConfig,
    dual: np.ndarray | None,
) -> UpdateResult:
    G, V = _factor_system(tuples, factors, lam, var, config.rank)
    rho = _resolve_rho(config, G)
    A0 = np.array(factors[var - 1])
    U0 = np.zeros_like(A0) if dual is None else np.asarray(dual)
    A, U, report = _admm_matrix(G, V, A0, U0, rho, config.admm_inner_iters)
    return UpdateResult(values=A, dual=U, report=report)


def update_loadings(
    ms: MarginalSet,
    bundle: FactorBundle,
    config: FitConfig,
    dual: np.ndarray | None = None,
) -> UpdateResult:
    """One ADMM block update of the loading vector, factors fixed."""
    if config.rank != bundle.rank:
        raise ValueError(f"config rank {config.rank} does not match bundle rank {bundle.rank}")
    tuples = _prepare(ms, config)
    return _update_loadings_fast(
        tuples, [np.array(A) for A in bundle.factors], bundle.loadings, config, dual
    )


def _update_loadings_fast(
    tuples: list[_TupleData],
    factors: Sequence[np.ndarray],
    lam0: np.ndarray,
    config: FitConfig,
    dual: np.ndarray | None,
) -> UpdateResult:
    rank = config.rank
    G, V = _loadings_system(tuples, factors, rank)
    rho = _resolve_rho(config, G)
    Gr = G + rho * np.eye(rank)
    cho = cho_factor(Gr, lower=True)
    lam = np.array(lam0)
    u = np.zeros_like(lam) if dual is None else np.asarray(dual)
    vscale = 1.0 + float(np.linalg.norm(V))
    worst_normal = 0.0
    lam_hat = lam
    lam_prev = lam
    for _ in range(config.admm_inner_iters):
        rhs = V + rho * (lam + u)
        lam_hat = cho_solve(cho, rhs)
        resid = np.linalg.norm(Gr @ lam_hat - rhs)
        worst_normal = max(worst_normal, float(resid) / vscale)
        lam_new = project_simplex(lam_hat - u)
        u = u + lam_new - lam_hat
        lam_prev, lam = lam, lam_new
    report = BlockReport(
        rho=rho,
        primal_residual=float(np.linalg.norm(lam - lam_hat)),
        dual_residual=rho * float(np.linalg.norm(lam - lam_prev)),
        normal_eq_residual=worst_normal,
    )
    return UpdateResult(values=lam, dual=u, report=report)


def _spurious_components(lam: np.ndarray, factors: Sequence[np.ndarray]) -> list[int]:
    """Indices worth reseeding: zero loadings, plus the lighter member of any
    component pair that is near-collinear in every factor (the pair's mass is
    merged into the heavier member).

    Collinearity uses centered cosines: simplex columns all live in the
    positive orthant, so raw cosines have a high baseline, while centered
    cosines of independent random columns concentrate near zero.
    """
    reseed = set(np.nonzero(lam < 1e-12)[0].tolist())
    rank = lam.size
    if rank > 1:
        mincos = np.full((rank, rank), np.inf)
        for A in factors:
            C = A - A.mean(axis=0, keepdims=True)
            norms = np.linalg.norm(C, axis=0)
            norms[norms == 0.0] = 1.0
            Cn = C / norms
            mincos = np.minimum(mincos, Cn.T @ Cn)
        for p in range(rank):
            for q in range(p + 1, rank):
                if mincos[p, q] > 0.95 and p not in reseed and q not in reseed:
                    keep, drop = (p, q) if lam[p] >= lam[q] else (q, p)
                    lam[keep] += lam[drop]
                    lam[drop] = 0.0
                    reseed.add(drop)
    return sorted(reseed)


def _fit_once(
    tuples: list[_TupleData],
    config: FitConfig,
    start: FactorBundle,
    n_vars: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[np.ndarray], FitReport]:
    factors = [np.array(A) for A in start.factors]
    lam = np.array(start.loadings)
    duals: dict[int | str, np.ndarray | None] = {v: None for v in range(1, n_vars + 1)}
    duals["loadings"] = None

    report = FitReport()
    cost = _cost_from_tuples(tuples, lam, factors)
    if not np.isfinite(cost):
        raise NumericalError(f"initial cost is not finite ({cost}); check the marginals")
    report.cost_trace.append(cost)
    best_cost = cost
    best = (lam.copy(), [A.copy() for A in factors])
    report.termination_reason = "sweep_budget"

    prev_lam = lam.copy()
    prev_factors = [A.copy() for A in factors]
    beta = 0.3  # momentum weight, adapted by acceptance
    revive_countdown = 0
    revive_budget = 10 if config.revive_dead_components else 0

    for sweep in range(1, config.max_outer_sweeps + 1):
        for v in range(1, n_vars + 1):
            res = _update_factor_fast(tuples, factors, lam, v, config, duals[v])
            factors[v - 1] = res.values
            duals[v] = res.dual
            report.block_residuals[f"A{v}"] = res.report
        res = _update_loadings_fast(tuples, factors, lam, config, duals["loadings"])
        lam = res.values
        duals["loadings"] = res.dual
        report.block_residuals["loadings"] = res.report

        prev = cost
        cost = _cost_from_tuples(tuples, lam, factors)
        if not np.isfinite(cost):
            raise NumericalError(f"cost became non-finite at sweep {sweep}")

        if config.extrapolation:
            ex_lam = project_simplex(lam + beta * (lam - prev_lam))
            ex_factors = [
                project_columns_to_simplex(A + beta * (A - P))
                for A, P in zip(factors, prev_factors)
            ]
            ex_cost = _cost_from_tuples(tuples, ex_lam, ex_factors)
            prev_lam = lam.copy()
            prev_factors = [A.copy() for A in factors]
            if np.isfinite(ex_cost) and ex_cost < cost:
                lam, factors, cost = ex_lam, ex_factors, ex_cost
                beta = min(beta * _MOM[0], _MOM[1])
            else:
                beta = max(beta * _MOM[2], 1e-3)

        report.cost_trace.append(cost)
        report.sweeps_run = sweep
        if cost < best_cost:
            best_cost = cost
            best = (lam.copy(), [A.copy() for A in factors])
            report.best_sweep = sweep
        if cost <= config.cost_floor:
            report.termination_reason = "cost_floor"
            break

        # Two spurious patterns stall the sweeps at positive cost: a zero
        # loading (a KKT-stable dead component whose mass the others absorbed)
        # and a pair of components that duplicate each other in every factor
        # while some true component goes unmodeled. Reseeding the redundant
        # columns (a bounded number of times) gives descent a way back in; if
        # they keep dying, the deflated fit stands.
        revive_countdown -= 1
        revived = False
        if revive_budget > 0 and revive_countdown <= 0 and cost > config.cost_floor:
            revive_countdown = 10  # cadence of the spurious-structure scan
            reseed = _spurious_components(lam, factors)
            if reseed:
                for f in reseed:
                    for A in factors:
                        col = rng.uniform(size=A.shape[0])
                        A[:, f] = col / col.sum()
                lam[reseed] = 1.0 / (2.0 * lam.size)
                lam = lam / lam.sum()
                duals = {k: None for k in duals}
                prev_lam = lam.copy()
                prev_factors = [A.copy() for A in factors]
                beta = 0.3
                cost = _cost_from_tuples(tuples, lam, factors)
                revived = True
                revive_budget -= 1
                revive_countdown = 40
        if revived:
            continue

        rel_change = abs(prev - cost) / max(prev, 1e-300)
        if rel_change < config.outer_tol:
            report.termination_reason = "converged"
            break

    best_lam, best_factors = best
    return best_lam, best_factors, report


def fit(
    ms: MarginalSet,
    config: FitConfig,
    init: FactorBundle | None = None,
) -> tuple[FactorBundle, FitReport]:
    """Block-cyclic coupled factorization of `ms` at the configured rank.

    Sweeps update every factor in variable order and then the loadings,
    warm-starting each block's ADMM multipliers across sweeps, until the
    relative cost change drops below `outer_tol`, the cost reaches
    `cost_floor`, or the sweep budget runs out. Returns the best-cost
    iterate seen (terminal ADMM jitter can make the last one worse) and a
    report with the cost trace and per-block residuals. With `restarts` in
    the config, additional random starts run whenever a start converges
    above `restart_floor`, and the best-cost solution wins.
    """
    if ms.order not in (2, 3, 4):
        raise ValueError(f"marginal order {ms.order} unsupported (need 2, 3 or 4)")
    rng = np.random.default_rng(config.seed)
    if init is not None:
        if init.alphabet_sizes != ms.alphabet_sizes:
            raise ValueError("initial bundle alphabet sizes disagree with the marginals")
        if init.rank != config.rank:
            raise ValueError("initial bundle rank disagrees with the config")
        start = init
    else:
        start = random_bundle(ms.alphabet_sizes, config.rank, rng)

    tuples = _prepare(ms, config)
    if not tuples:
        warnings.warn("marginal set has no contributing tuples; returning the start point")
        return start, FitReport(cost_trace=[0.0], termination_reason="no_data")

    best_lam, best_factors, best_report = _fit_once(tuples, config, start, ms.n_vars, rng)
    starts, sweeps = 1, best_report.sweeps_run
    while (
        starts <= config.restarts
        and min(best_report.cost_trace) > config.restart_floor
    ):
        start = random_bundle(ms.alphabet_sizes, config.rank, rng)
        lam, factors, report = _fit_once(tuples, config, start, ms.n_vars, rng)
        starts += 1
        sweeps += report.sweeps_run
        if min(report.cost_trace) < min(best_report.cost_trace):
            best_lam, best_factors, best_report = lam, factors, report
    best_report.starts_run = starts
    best_report.sweeps_run = sweeps
    return FactorBundle(best_lam, tuple(best_factors)), best_report
