"""Coupled simplex-constrained CP factorization of a set of marginal PMFs.

The objective is the weighted half squared Frobenius mismatch, summed over
stored tuples, between each empirical marginal and the sub-model synthesis
sharing one loading vector and one factor per variable. Blocks (one factor
at a time, then the loadings) are cycled Gauss-Seidel style; each block is a
simplex-constrained least-squares problem solved with scaled ADMM.

The tuples are unfolded once per fit and stacked: for each variable, the
tuples holding it are grouped by the alphabet sizes of their other
variables, and each group keeps its mode-v unfoldings as one
(T_g * J) x I_v array. A block update gathers the group's other factors by
index, builds their Khatri-Rao products at once with the batched
`khatri_rao_stack`, and takes the data term as one GEMM of the weighted
Khatri-Rao rows with the stacked unfoldings. Gram matrices come from the
identity (A kr B)^T (A kr B) = (A^T A) * (B^T B) over cached factor Grams.
The cost is the direct residual X_(1) - KR (A_1 diag lam)^T of each tuple
over its first variable, as one GEMM per group; the Khatri-Rao products
built for the loadings block serve the cost that follows it. Every group is
processed in row blocks sized from the element budget.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NumericalError
from .marginals import MarginalSet
from .tensor_ops import DEFAULT_ELEMENT_BUDGET, FactorBundle, khatri_rao_stack, unfold

# momentum schedule: growth on accepted extrapolation, cap, decay on rejection
_MOM = (1.25, 0.9995, 0.7)


@dataclass
class FitConfig:
    """Solver knobs.

    A fit runs at most `max_outer_sweeps` sweeps of `admm_inner_iters` ADMM
    iterations per block, and stops early when the relative cost change drops
    below `outer_tol` or the cost reaches `cost_floor`. `seed` draws the
    random starts and reseeded columns. `per_tuple_weights` scales the cost
    term of each listed tuple (default 1; weight 0 drops the tuple).
    `restarts` allows that many fresh random initializations when a run
    converges above `restart_floor`; the best-cost solution over all starts
    is returned.
    """

    rank: int
    max_outer_sweeps: int = 500
    admm_inner_iters: int = 10
    outer_tol: float = 1e-8
    cost_floor: float = 0.0
    seed: int = 0
    per_tuple_weights: Mapping[tuple[int, ...], float] | None = None
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
        for key, w in (self.per_tuple_weights or {}).items():
            if not (np.isfinite(w) and w >= 0.0):
                raise ValueError(f"per_tuple_weights[{tuple(key)}] = {w} must be finite and nonnegative")

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


def project_columns_to_simplex(M: np.ndarray) -> np.ndarray:
    """Euclidean projection of each column onto {x >= 0, sum(x) = 1} by sort
    and threshold.

    The threshold index is the largest one passing the positivity test, which
    makes the output deterministic at ties.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    u = np.sort(M, axis=0)[::-1]
    css = np.cumsum(u, axis=0)
    cond = u + (1.0 - css) / np.arange(1, n + 1)[:, None] > 0.0
    k = n - 1 - np.argmax(cond[::-1], axis=0)  # largest passing index per column
    theta = (css[k, np.arange(M.shape[1])] - 1.0) / (k + 1)
    return np.maximum(M - theta, 0.0)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Simplex projection of one vector: the one-column case of
    `project_columns_to_simplex`."""
    v = np.asarray(v, dtype=np.float64).reshape(-1, 1)
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    return project_columns_to_simplex(v)[:, 0]


def _project_row(M: np.ndarray) -> np.ndarray:
    """Simplex projection of the single row of a 1 x F block (the loadings)."""
    return project_columns_to_simplex(M.T).T


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


@dataclass
class _Group:
    """Tuples holding variable `var` whose other variables have the alphabet
    sizes `sizes` (in key order), stacked for batched products."""

    var: int  # 0-based
    sizes: tuple[int, ...]
    others: np.ndarray  # (T_g, d-1) 0-based indices of the other variables
    weights: np.ndarray  # (T_g,)
    data: np.ndarray  # (T_g * J, I_var) mode-var unfoldings, J = prod(sizes)
    block: int  # tuples per row block

    def blocks(self):
        """Other-variable indices, weights and unfolding rows of each row
        block of tuples."""
        J = math.prod(self.sizes)
        for start in range(0, len(self.weights), self.block):
            stop = start + self.block
            yield self.others[start:stop], self.weights[start:stop], self.data[start * J:stop * J]


@dataclass
class _Stacks:
    """The contributing tuples of a fit, stacked twice over one set of
    unfoldings: `by_var[v]` holds every tuple containing variable v (the
    factor blocks), and `first` holds every tuple once, under its first
    variable (the loadings and the cost), as leading slices of those groups."""

    alphabet_sizes: tuple[int, ...]
    by_var: list[list[_Group]]
    first: list[_Group]


def _prepare(
    ms: MarginalSet, config: FitConfig, element_budget: int = DEFAULT_ELEMENT_BUDGET
) -> _Stacks:
    active = [(key, entry.tensor) for key, entry in ms.active() if config.weight(key) != 0.0]
    by_var, first = [], []
    for v in range(1, ms.n_vars + 1):
        members: dict[tuple[int, ...], list] = {}
        # a stable sort puts the tuples whose first variable is v at the head
        # of their group
        for key, tensor in sorted(
            ((k, t) for k, t in active if v in k), key=lambda kt: kt[0][0] != v
        ):
            pos = key.index(v)
            sizes = tensor.shape[:pos] + tensor.shape[pos + 1:]
            members.setdefault(sizes, []).append((key, tensor, pos))
        groups = []
        for sizes, items in members.items():
            J, size = math.prod(sizes), ms.alphabet_sizes[v - 1]
            data = np.empty((len(items) * J, size))
            for n, (_, tensor, pos) in enumerate(items):
                data[n * J:(n + 1) * J] = unfold(tensor, pos + 1)
            others = [[u - 1 for u in key if u != v] for key, _, _ in items]
            group = _Group(
                var=v - 1,
                sizes=sizes,
                others=np.array(others, dtype=np.intp).reshape(len(items), len(sizes)),
                weights=np.array([config.weight(key) for key, _, _ in items]),
                data=data,
                block=max(1, element_budget // (J * max(config.rank, size))),
            )
            groups.append(group)
            lead = sum(key[0] == v for key, _, _ in items)
            if lead:
                first.append(_Group(group.var, sizes, group.others[:lead],
                                    group.weights[:lead], data[:lead * J], group.block))
        by_var.append(groups)
    return _Stacks(alphabet_sizes=ms.alphabet_sizes, by_var=by_var, first=first)


def _table(factors: Sequence[np.ndarray]) -> np.ndarray:
    """The factors as one zero-padded (N, max I_n, F) array, so that a
    group's factors are gathered by index."""
    table = np.zeros((len(factors), max(A.shape[0] for A in factors), factors[0].shape[1]))
    for n, A in enumerate(factors):
        table[n, :A.shape[0]] = A
    return table


def _grams(table: np.ndarray) -> np.ndarray:
    """The (N, F, F) factor Grams A_n^T A_n."""
    return np.matmul(table.transpose(0, 2, 1), table)


def _kr(table: np.ndarray, others: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """The (T_b, J, F) Khatri-Rao products of the other factors of a row block."""
    mats = [table[others[:, k], :size] for k, size in enumerate(sizes)]
    if not mats:  # an order-1 tuple: the empty product
        return np.ones((len(others), 1, table.shape[2]))
    return khatri_rao_stack(mats)


def _weighted_gram(weights: np.ndarray, grams: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Sum over a row block of each tuple's weight times the Hadamard product
    of its other factors' Grams, which is the Gram of their Khatri-Rao
    product."""
    hadamard = np.prod(grams[others], axis=1)
    return (weights @ hadamard.reshape(len(weights), -1)).reshape(hadamard.shape[1:])


def _cost(stacks: _Stacks, table: np.ndarray, lam: np.ndarray, krs=None) -> float:
    """Weighted half squared residual, each tuple's residual taken directly as
    X_(1) - KR (A_1 diag lam)^T over its first variable. `krs` may hold the
    row blocks' Khatri-Rao products from `_loadings_system`."""
    total = 0.0
    krs = iter(krs) if krs is not None else None
    for group in stacks.first:
        size = group.data.shape[1]
        model = (table[group.var, :size] * lam).T
        for others, weights, X in group.blocks():
            K = next(krs) if krs is not None else _kr(table, others, group.sizes)
            R = (X - K.reshape(-1, K.shape[2]) @ model).reshape(len(weights), -1)
            total += 0.5 * float(weights @ np.einsum("tk,tk->t", R, R))
    return total


def coupled_cost(ms: MarginalSet, bundle: FactorBundle, config: FitConfig | None = None) -> float:
    """Weighted half squared Frobenius mismatch summed over active tuples."""
    cfg = config if config is not None else FitConfig(rank=bundle.rank)
    stacks = _prepare(ms, cfg)
    if not stacks.first:
        warnings.warn("marginal set has no contributing tuples; cost is 0")
        return 0.0
    return _cost(stacks, _table(bundle.factors), bundle.loadings)


def _admm(
    G: np.ndarray,
    V: np.ndarray,
    A0: np.ndarray,
    U0: np.ndarray,
    rho: float,
    iters: int,
    project: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, BlockReport]:
    """Scaled ADMM on one block: solve against (G + rho I), map the result
    onto the block's feasible set with `project`, update the multipliers.
    A0 and U0 are m x F, V is F x m."""
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
        A_new = project(Ahat_T - U)
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
    stacks: _Stacks, table: np.ndarray, grams: np.ndarray, lam: np.ndarray, var: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix and MTTKRP data term for the block of the 0-based `var`:
    per row block, one GEMM of the weighted Khatri-Rao rows with the stacked
    unfoldings."""
    rank = table.shape[2]
    gram_sum = np.zeros((rank, rank))
    V_sum = np.zeros((rank, stacks.alphabet_sizes[var]))
    for group in stacks.by_var[var]:
        for others, weights, X in group.blocks():
            K = _kr(table, others, group.sizes)
            K *= weights[:, None, None]
            V_sum += K.reshape(-1, rank).T @ X
            gram_sum += _weighted_gram(weights, grams, others)
    return np.outer(lam, lam) * gram_sum, lam[:, None] * V_sum


def _loadings_system(
    stacks: _Stacks, table: np.ndarray, grams: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Gram matrix and data term (F x 1) for the loadings block, plus the
    row blocks' Khatri-Rao products for the cost at the updated loadings.

    The data term of a tuple is Q^T x = sum_j KR[j] * (X_(1) A_1)[j], with A_1
    the factor of its first variable."""
    rank = table.shape[2]
    G = np.zeros((rank, rank))
    V = np.zeros(rank)
    krs = []
    for group in stacks.first:
        A = table[group.var, :group.data.shape[1]]
        for others, weights, X in group.blocks():
            K = _kr(table, others, group.sizes)
            krs.append(K)
            V += weights @ (K * (X @ A).reshape(K.shape)).sum(axis=1)
            G += grams[group.var] * _weighted_gram(weights, grams, others)
    return G, V[:, None], krs


def _solve_block(
    G: np.ndarray,
    V: np.ndarray,
    A0: np.ndarray,
    dual: np.ndarray | None,
    config: FitConfig,
    project: Callable[[np.ndarray], np.ndarray],
) -> UpdateResult:
    """ADMM update of one block (m x F, the loadings as 1 x F) from its
    system G, V, warm-started from `dual` when given."""
    rho = float(np.trace(G)) / config.rank
    U0 = np.zeros_like(A0) if dual is None else np.asarray(dual).reshape(A0.shape)
    A, U, report = _admm(
        G, V, A0, U0, rho if rho > 0.0 else 1.0, config.admm_inner_iters, project
    )
    return UpdateResult(values=A, dual=U, report=report)


def _block_inputs(
    ms: MarginalSet, bundle: FactorBundle, config: FitConfig
) -> tuple[_Stacks, np.ndarray, np.ndarray]:
    if config.rank != bundle.rank:
        raise ValueError(f"config rank {config.rank} does not match bundle rank {bundle.rank}")
    table = _table(bundle.factors)
    return _prepare(ms, config), table, _grams(table)


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
    stacks, table, grams = _block_inputs(ms, bundle, config)
    G, V = _factor_system(stacks, table, grams, bundle.loadings, var - 1)
    return _solve_block(G, V, bundle.factors[var - 1], dual, config, project_columns_to_simplex)


def update_loadings(
    ms: MarginalSet,
    bundle: FactorBundle,
    config: FitConfig,
    dual: np.ndarray | None = None,
) -> UpdateResult:
    """One ADMM block update of the loading vector, factors fixed."""
    G, V, _ = _loadings_system(*_block_inputs(ms, bundle, config))
    res = _solve_block(G, V, bundle.loadings[None, :], dual, config, _project_row)
    return UpdateResult(values=res.values[0], dual=res.dual[0], report=res.report)


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
    stacks: _Stacks,
    config: FitConfig,
    start: FactorBundle,
    rng: np.random.Generator,
) -> tuple[np.ndarray, list[np.ndarray], FitReport]:
    factors = [np.array(A) for A in start.factors]
    lam = np.array(start.loadings)
    n_vars = len(factors)
    duals: dict[int | str, np.ndarray | None] = {v: None for v in range(n_vars)}
    duals["loadings"] = None
    # the padded factor table and its Grams follow `factors`; a block update
    # rewrites one slot of each
    table = _table(factors)
    grams = _grams(table)

    report = FitReport()
    cost = _cost(stacks, table, lam)
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
    revive_budget = 10

    for sweep in range(1, config.max_outer_sweeps + 1):
        for v in range(n_vars):
            G, V = _factor_system(stacks, table, grams, lam, v)
            res = _solve_block(G, V, factors[v], duals[v], config, project_columns_to_simplex)
            factors[v] = res.values
            table[v, :res.values.shape[0]] = res.values
            grams[v] = res.values.T @ res.values
            duals[v] = res.dual
            report.block_residuals[f"A{v + 1}"] = res.report
        G, V, krs = _loadings_system(stacks, table, grams)
        res = _solve_block(G, V, lam[None, :], duals["loadings"], config, _project_row)
        lam = res.values[0]
        duals["loadings"] = res.dual
        report.block_residuals["loadings"] = res.report

        prev = cost
        cost = _cost(stacks, table, lam, krs)  # only the loadings moved
        if not np.isfinite(cost):
            raise NumericalError(f"cost became non-finite at sweep {sweep}")

        # cost-guarded momentum: an extrapolated point is kept only when it
        # lowers the cost, so accepted iterates stay feasible and monotone
        ex_lam = project_simplex(lam + beta * (lam - prev_lam))
        ex_factors = [
            project_columns_to_simplex(A + beta * (A - P))
            for A, P in zip(factors, prev_factors)
        ]
        ex_table = _table(ex_factors)
        ex_cost = _cost(stacks, ex_table, ex_lam)
        prev_lam = lam.copy()
        prev_factors = [A.copy() for A in factors]
        if np.isfinite(ex_cost) and ex_cost < cost:
            lam, factors, cost = ex_lam, ex_factors, ex_cost
            table, grams = ex_table, _grams(ex_table)
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
                table = _table(factors)
                grams = _grams(table)
                cost = _cost(stacks, table, lam)
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

    stacks = _prepare(ms, config)
    if not stacks.first:
        warnings.warn("marginal set has no contributing tuples; returning the start point")
        return start, FitReport(cost_trace=[0.0], termination_reason="no_data")

    best_lam, best_factors, best_report = _fit_once(stacks, config, start, rng)
    starts, sweeps = 1, best_report.sweeps_run
    while (
        starts <= config.restarts
        and min(best_report.cost_trace) > config.restart_floor
    ):
        start = random_bundle(ms.alphabet_sizes, config.rank, rng)
        lam, factors, report = _fit_once(stacks, config, start, rng)
        starts += 1
        sweeps += report.sweeps_run
        if min(report.cost_trace) < min(best_report.cost_trace):
            best_lam, best_factors, best_report = lam, factors, report
    best_report.starts_run = starts
    best_report.sweeps_run = sweeps
    return FactorBundle(best_lam, tuple(best_factors)), best_report
