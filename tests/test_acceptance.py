"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The recovery and trend criteria are Monte-Carlo medians over frozen
seeds; the noiseless recovery block takes several minutes.
"""

import itertools

import numpy as np
import pytest

from pmfrec import (
    DenseTensor,
    FitConfig,
    JointPmfModel,
    conditional_expectation,
    construct_trivial_cpd,
    coupled_cost,
    exact_marginals,
    fit,
    map_predict,
    posterior_over,
    project_simplex,
    random_model,
    sample_dataset,
    synthesize,
    update_factor,
    update_loadings,
)
from pmfrec.errors import ZeroEvidenceError
from pmfrec.harness import ExperimentSpec, map_accuracy, run_experiment, summarize_rows
from pmfrec.identifiability import theorem3_bound, triples_bound
from pmfrec.marginals import estimate_marginals
from pmfrec.tensor_ops import FactorBundle

from conftest import dense_posterior_oracle, simplex_qp_oracle


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


class TestCriterion1Bounds:
    def test_bound_tables_exact(self):
        quad_i3 = {N: theorem3_bound(N, 3)[0] for N in (6, 10, 20, 40, 80)}
        quad_n6 = {I: theorem3_bound(6, I)[0] for I in (6, 10, 20, 40, 80)}
        tri_n6 = {I: triples_bound(6, I) for I in (6, 10, 20, 40, 80)}
        ok = (
            quad_i3 == {6: 10, 10: 36, 20: 179, 40: 729, 80: 2916}
            and quad_n6 == {6: 45, 10: 131, 20: 544, 40: 2220, 80: 8966}
            and tri_n6 == {6: 24, 10: 40, 20: 105, 40: 410, 80: 1620}
            and triples_bound(6, 3) == 4
        )
        report(1, ok, f"quadruples(I=3)={quad_i3}, quadruples(N=6)={quad_n6}, "
                      f"triples(N=6)={tri_n6}, triples(6,3)={triples_bound(6, 3)}")


@pytest.mark.slow
class TestCriterion2NoiselessRecovery:
    """Exact marginals of a random rank-F model, matched-rank fits, 20 trials:
    medians must recover for orders 3 and 4 and stall for order 2."""

    def test_noiseless_recovery_and_pairs_stall(self):
        spec = ExperimentSpec(
            n_vars=5, alphabet=10, rank_true=None, rank_grid=(5, 10, 15),
            orders=(3, 4), trials=20, seed=2024, noiseless=True,
            max_outer_sweeps=1200, admm_inner_iters=10, outer_tol=1e-15,
            cost_floor=1e-22, restarts=2, restart_floor=1e-20,
        )
        summary = summarize_rows(run_experiment(spec))
        ok = True
        details = []
        for cell in summary:
            fact, ten = cell["mre_fact_median"], cell["mre_ten_median"]
            ok = ok and fact <= 1e-5 and ten <= 1e-6
            details.append(
                f"order{cell['order']}/F{cell['rank_fit']}: fact={fact:.2e} ten={ten:.2e}"
            )

        pairs_spec = ExperimentSpec(
            n_vars=5, alphabet=10, rank_true=None, rank_grid=(5, 10, 15),
            orders=(2,), trials=20, seed=2024, noiseless=True,
            max_outer_sweeps=400, admm_inner_iters=10, outer_tol=1e-12,
            cost_floor=1e-22, restarts=0,
        )
        for cell in summarize_rows(run_experiment(pairs_spec)):
            fact = cell["mre_fact_median"]
            ok = ok and fact >= 0.05
            details.append(f"order2/F{cell['rank_fit']}: fact={fact:.2e} (>=0.05)")
        report(2, ok, "; ".join(details))


SAMPLED_SIZES = (10**3, 10**4, 10**5)


def _trend_medians(hide_fraction: float) -> tuple[list[float], list[float]]:
    med, oracle_med = [], []
    for M in SAMPLED_SIZES:
        spec = ExperimentSpec(
            n_vars=5, alphabet=10, rank_true=None, rank_grid=(5,),
            orders=(3,), trials=10, seed=777, noiseless=False,
            sample_size=M, hide_fraction=hide_fraction, include_oracle=True,
            max_outer_sweeps=500, admm_inner_iters=10, outer_tol=1e-10,
            cost_floor=0.0, restarts=0,
        )
        cell = summarize_rows(run_experiment(spec))[0]
        med.append(cell["mre_ten_median"])
        oracle_med.append(cell["oracle_mre_ten_median"])
    return med, oracle_med


@pytest.fixture(scope="module")
def sampled_trends():
    return {hide: _trend_medians(hide) for hide in (0.0, 0.2)}


class TestCriterion3SampledTrend:
    def test_median_error_decreases_and_tracks_oracle(self, sampled_trends):
        med, oracle = sampled_trends[0.0]
        decreasing = med[0] > med[1] > med[2]
        ratio = med[2] / oracle[2]
        ok = decreasing and ratio <= 2.0
        report(3, ok, f"medians over M {SAMPLED_SIZES}: "
                      f"{[f'{m:.3e}' for m in med]}, oracle ratio at 1e5 = {ratio:.2f}")


class TestCriterion4MissingData:
    def test_trend_survives_hiding_with_bounded_degradation(self, sampled_trends):
        med_full, _ = sampled_trends[0.0]
        med_hidden, _ = sampled_trends[0.2]
        decreasing = med_hidden[0] > med_hidden[1] > med_hidden[2]
        degradation = med_hidden[2] / med_full[2]
        ok = decreasing and degradation <= 1.5
        report(4, ok, f"hidden medians {[f'{m:.3e}' for m in med_hidden]}, "
                      f"degradation at 1e5 = {degradation:.2f} (<= 1.5)")


class TestCriterion5OracleEquivalence:
    def test_inference_matches_dense_enumeration(self):
        rng = np.random.default_rng(555)
        checked = 0
        worst = 0.0
        while checked < 200:
            N = int(rng.integers(3, 6))
            I = int(rng.integers(2, 5))
            F = int(rng.integers(1, 7))
            model = random_model(N, I, F, seed=int(rng.integers(10**9)))
            n_ev = int(rng.integers(0, N))
            ev_vars = rng.choice(np.arange(1, N + 1), size=n_ev, replace=False)
            target = int(rng.choice([v for v in range(1, N + 1) if v not in ev_vars]))
            evidence = {int(v): int(rng.integers(1, I + 1)) for v in ev_vars}
            try:
                post = posterior_over(model, target, evidence)
            except ZeroEvidenceError:
                continue
            oracle = dense_posterior_oracle(model, target, evidence)
            worst = max(worst, float(np.abs(post - oracle).max()))
            assert map_predict(model, target, evidence) == int(np.argmax(oracle)) + 1
            expect = float(np.arange(1, I + 1) @ oracle)
            worst = max(
                worst, abs(conditional_expectation(model, target, evidence) - expect)
            )
            checked += 1
        ok = worst <= 1e-10
        report(5, ok, f"200 (model, evidence) instances, worst deviation {worst:.2e}")


class TestCriterion6TrivialConstruction:
    def test_fifty_random_tensors(self):
        rng = np.random.default_rng(666)
        worst = 0.0
        for trial in range(50):
            order = int(rng.integers(3, 5))
            shape = tuple(int(rng.integers(2, 5)) for _ in range(order))
            arr = rng.random(shape)
            arr /= arr.sum()
            bundle = construct_trivial_cpd(DenseTensor.from_array(arr))
            expected_rank = min(
                int(np.prod([s for i, s in enumerate(shape) if i != k]))
                for k in range(order)
            )
            assert bundle.rank == expected_rank, (shape, bundle.rank, expected_rank)
            err = float(np.abs(synthesize(bundle).array - arr).max())
            worst = max(worst, err)
        ok = worst <= 1e-12
        report(6, ok, f"50 tensors, exact column counts, worst resynthesis {worst:.2e}")


class TestCriterion7SolverProperties:
    def test_projection_normal_equations_and_monotone_cost(self):
        # simplex projection vs exhaustive QP oracle
        worst_proj = 0.0
        grid = np.linspace(-1.0, 2.0, 5)
        for n in (1, 2, 3, 4):
            for combo in itertools.product(grid, repeat=n):
                v = np.array(combo)
                worst_proj = max(
                    worst_proj,
                    float(np.abs(project_simplex(v) - simplex_qp_oracle(v)).max()),
                )

        # ADMM block updates satisfy their normal equations
        worst_ne = 0.0
        for seed in (0, 1, 2):
            model = random_model(4, 5, 3, seed=seed)
            ms = exact_marginals(model, 3)
            start_rng = np.random.default_rng(100 + seed)
            from pmfrec.factorization import random_bundle

            start = random_bundle([5] * 4, 3, start_rng)
            config = FitConfig(rank=3)
            for v in range(1, 5):
                res = update_factor(ms, start, v, config)
                worst_ne = max(worst_ne, res.report.normal_eq_residual)
            res = update_loadings(ms, start, config)
            worst_ne = max(worst_ne, res.report.normal_eq_residual)

        # final cost never exceeds the initial cost on seeded fixtures
        monotone = True
        for seed in range(6):
            model = random_model(4, 4, 3, seed=seed)
            ms = exact_marginals(model, 3)
            est, rep = fit(ms, FitConfig(rank=3, max_outer_sweeps=80, seed=seed))
            monotone = monotone and rep.cost_trace[-1] <= rep.cost_trace[0] + 1e-15
            monotone = monotone and (
                coupled_cost(ms, est) <= rep.cost_trace[0] + 1e-15
            )

        ok = worst_proj <= 1e-12 and worst_ne <= 1e-10 and monotone
        report(7, ok, f"projection worst {worst_proj:.2e}, normal equations worst "
                      f"{worst_ne:.2e}, cost monotone {monotone}")


def _sharp_model(N, I, F, seed, conc=0.25):
    """Synthetic truth with strong latent separation so that the target is
    genuinely predictable; calibrated once against the Bayes-optimal
    classifier before freezing (uniform-random conditionals give the Bayes
    rule itself under 6 points over the majority class, so they cannot
    witness this criterion for any estimator)."""
    rng = np.random.default_rng(seed)
    factors = tuple(rng.dirichlet(np.full(I, conc), size=F).T for _ in range(N))
    lam = rng.dirichlet(np.full(F, 5.0))
    return JointPmfModel(FactorBundle(lam, factors))


class TestCriterion8SyntheticClassification:
    def test_map_beats_majority_by_ten_points(self):
        truth = _sharp_model(6, 4, 4, seed=17)
        train = sample_dataset(truth, 10_000, seed=17 * 11 + 1)
        test = sample_dataset(truth, 2_000, seed=17 * 11 + 2)
        target = 6
        counts = np.bincount(train.codes[:, target - 1], minlength=5)[1:]
        majority_code = int(np.argmax(counts)) + 1
        majority_acc = float((test.codes[:, target - 1] == majority_code).mean())
        bayes_acc = map_accuracy(truth, test, target)

        ms = estimate_marginals(train, 3)
        est, _ = fit(ms, FitConfig(rank=4, max_outer_sweeps=400, outer_tol=1e-10, seed=5))
        fitted_acc = map_accuracy(JointPmfModel(est), test, target)

        margin = fitted_acc - majority_acc
        ok = margin >= 0.10 and fitted_acc >= bayes_acc - 0.02
        report(8, ok, f"majority {majority_acc:.3f}, Bayes {bayes_acc:.3f}, "
                      f"fitted MAP {fitted_acc:.3f}, margin {margin:+.3f} (>= +0.10)")
