"""The recovered joint-PMF model: lazy evaluation, conditioning, prediction.

A model is a factor bundle read as a latent-class (naive Bayes) model: the
loadings are the prior over a hidden component and each factor column is the
conditional PMF of one variable given that component. Every query below runs
in O(N * F) per evaluation; the dense joint is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ZeroEvidenceError
from .marginals import MISSING
from .tensor_ops import DenseTensor, FactorBundle

# Rows per block of `posterior_batch` are sized from this element budget, so
# its intermediate arrays stay the same size whatever the row count.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class JointPmfModel:
    """Latent-class reading of a factor bundle."""

    bundle: FactorBundle

    def __post_init__(self):
        if self.bundle.n_vars < 1:
            raise ValueError("model needs at least one variable")

    @property
    def n_vars(self) -> int:
        return self.bundle.n_vars

    @property
    def rank(self) -> int:
        return self.bundle.rank

    @property
    def alphabet_sizes(self) -> tuple[int, ...]:
        return self.bundle.alphabet_sizes


def _check_assignment(model: JointPmfModel, var: int, code: int) -> None:
    sizes = model.alphabet_sizes
    if not 1 <= var <= model.n_vars:
        raise ValueError(f"variable {var} out of range 1..{model.n_vars}")
    if not 1 <= code <= sizes[var - 1]:
        raise ValueError(
            f"code {code} out of alphabet 1..{sizes[var - 1]} for variable {var}"
        )


def joint_prob(model: JointPmfModel, assignment: Sequence[int]) -> float:
    """Probability of a full assignment (1-based codes), evaluated lazily."""
    if len(assignment) != model.n_vars:
        raise ValueError(
            f"assignment has {len(assignment)} entries for {model.n_vars} variables"
        )
    acc = model.bundle.loadings.copy()
    for var, code in enumerate(assignment, start=1):
        _check_assignment(model, var, int(code))
        acc = acc * model.bundle.factors[var - 1][int(code) - 1, :]
    return float(acc.sum())


def posterior_batch(
    model: JointPmfModel, codes, target: int
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior PMFs of the target for every row of an (R, N) code array.

    `codes` follows the `DiscreteDataset` layout (MISSING = 0 for an
    unobserved cell); the target column is ignored. Returns the (R, I_target)
    posterior and a boolean mask of the rows whose evidence has positive
    probability; rows outside the mask hold NaN. Rows are scored in log space
    (log lambda plus one log-factor row per observed cell, shifted by the
    row maximum), so long products never underflow, and each row's result is
    bit-identical whatever R and its block.
    """
    if not 1 <= target <= model.n_vars:
        raise ValueError(f"target {target} out of range 1..{model.n_vars}")
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] != model.n_vars:
        raise ValueError(
            f"codes must have shape (R, {model.n_vars}), got {codes.shape}"
        )
    if not np.issubdtype(codes.dtype, np.integer):
        raise ValueError(f"codes must be integers, got dtype {codes.dtype}")
    evidence = [n for n in range(model.n_vars) if n != target - 1]
    for n in evidence:
        size = model.alphabet_sizes[n]
        bad = np.flatnonzero((codes[:, n] < MISSING) | (codes[:, n] > size))
        if bad.size:
            raise ValueError(
                f"code {codes[bad[0], n]} in row {bad[0] + 1} out of alphabet "
                f"1..{size} for variable {n + 1}"
            )
    factors = model.bundle.factors
    target_factor = factors[target - 1]
    n_cats, rank = target_factor.shape
    with np.errstate(divide="ignore"):
        log_lam = np.log(model.bundle.loadings)
        tables = [(n, np.vstack([np.zeros((1, rank)), np.log(factors[n])])) for n in evidence]
    post = np.empty((codes.shape[0], n_cats))
    live = np.empty(codes.shape[0], dtype=bool)
    step = max(1, _BLOCK_ELEMENTS // (rank + n_cats))
    for lo in range(0, codes.shape[0], step):
        rows = slice(lo, lo + step)
        block = codes[rows]
        acc = np.repeat(log_lam[None, :], block.shape[0], axis=0)
        for n, table in tables:
            acc += table[block[:, n]]
        peak = acc.max(axis=1, keepdims=True)
        ok = np.isfinite(peak[:, 0])  # -inf: no component explains the evidence
        np.subtract(acc, peak, out=acc, where=ok[:, None])
        weights = np.exp(acc, out=acc)
        # One column at a time, so each entry is summed in component order
        # whatever the block size (a BLAS product may reorder by shape).
        unnorm = weights[:, :1] * target_factor[:, 0]
        for f in range(1, rank):
            unnorm += weights[:, f:f + 1] * target_factor[:, f]
        total = unnorm.sum(axis=1, keepdims=True)
        live[rows] = ok & (total[:, 0] > 0.0) & np.isfinite(total[:, 0])
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(unnorm, total, out=post[rows])
    post[~live] = np.nan
    return post, live


def posterior_over(
    model: JointPmfModel, target: int, evidence: Mapping[int, int]
) -> np.ndarray:
    """Posterior PMF of the target variable given the evidence cells.

    Variables absent from the evidence are marginalized implicitly. Raises
    ZeroEvidenceError when the evidence has probability zero under the model
    rather than returning NaNs. A one-row view of `posterior_batch`.
    """
    evidence = {int(v): int(c) for v, c in evidence.items()}
    if target in evidence:
        raise ValueError(f"target variable {target} appears in the evidence")
    row = np.zeros((1, model.n_vars), dtype=np.int64)
    for var, code in evidence.items():
        _check_assignment(model, var, code)
        row[0, var - 1] = code
    post, live = posterior_batch(model, row, target)
    if not live[0]:
        raise ZeroEvidenceError(
            f"evidence {evidence} has zero probability under the model"
        )
    return post[0]


def map_predict(model: JointPmfModel, target: int, evidence: Mapping[int, int]) -> int:
    """Most probable category of the target; ties go to the smallest code."""
    post = posterior_over(model, target, evidence)
    return int(np.argmax(post)) + 1


def conditional_expectation(
    model: JointPmfModel, target: int, evidence: Mapping[int, int]
) -> float:
    """Expected category code of the target under its posterior."""
    post = posterior_over(model, target, evidence)
    codes = np.arange(1, post.size + 1, dtype=np.float64)
    return float(codes @ post)


def _trivial_decompose(arr: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Slab construction of an exact nonnegative CP model of `arr` (order >= 3).

    Mode 1 holds the (normalized) fibers, modes 2..K-1 hold stacked identity
    blocks, and the last mode is built on the recursion over frontal slabs.
    Column count is prod of the non-first dimensions.
    """
    shape = arr.shape
    if len(shape) == 3:
        I1, I2, I3 = shape
        cols = arr.reshape(I1, I2 * I3, order="F")
        lam = cols.sum(axis=0)
        A1 = np.full((I1, I2 * I3), 1.0 / I1)
        pos = lam > 0
        A1[:, pos] = cols[:, pos] / lam[pos]
        A2 = np.tile(np.eye(I2), (1, I3))
        A3 = np.repeat(np.eye(I3), I2, axis=1)
        return lam, [A1, A2, A3]
    last = shape[-1]
    lams = []
    sub_factors: list[list[np.ndarray]] = []
    for i in range(last):
        lam_i, facs_i = _trivial_decompose(arr[..., i])
        lams.append(lam_i)
        sub_factors.append(facs_i)
    lam = np.concatenate(lams)
    block = lams[0].size
    factors = [
        np.hstack([sub_factors[i][m] for i in range(last)])
        for m in range(len(shape) - 1)
    ]
    factors.append(np.repeat(np.eye(last), block, axis=1))
    return lam, factors


def construct_trivial_cpd(t: DenseTensor, tol: float = 1e-8) -> FactorBundle:
    """Exact factor bundle for any PMF tensor of order >= 3.

    The construction stacks tensor fibers into one factor and identity
    blocks into the rest, so it always succeeds; the column count is
    min over k of prod_{n != k} I_n (the mode ordering is chosen to attain
    the minimum), which is an upper bound on the nonnegative rank, not the
    rank itself. Zero-mass fibers become uniform columns with zero loading.
    """
    if t.order < 3:
        raise ValueError(f"construction needs an order >= 3 tensor, got order {t.order}")
    arr = t.array
    if float(arr.min()) < -tol:
        raise ValueError("input tensor has negative entries")
    if abs(t.total() - 1.0) > tol:
        raise ValueError(f"input tensor sums to {t.total()}, not 1")
    # Putting the largest dimension first minimizes the column count.
    fiber_mode = int(np.argmax(t.shape))
    perm = [fiber_mode] + [m for m in range(t.order) if m != fiber_mode]
    lam, permuted_factors = _trivial_decompose(np.transpose(arr, perm))
    factors: list[np.ndarray] = [None] * t.order  # type: ignore[list-item]
    for slot, mode in enumerate(perm):
        factors[mode] = permuted_factors[slot]
    return FactorBundle(lam, tuple(factors))
