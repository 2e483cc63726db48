import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmfrec import (
    FitConfig,
    coupled_cost,
    exact_marginals,
    fit,
    mre_fact,
    project_simplex,
    random_model,
    update_factor,
    update_loadings,
)
from pmfrec import factorization
from pmfrec.factorization import project_columns_to_simplex, random_bundle
from pmfrec.marginals import MarginalEntry, MarginalSet
from pmfrec.tensor_ops import DenseTensor, FactorBundle, synthesize

from conftest import loop_mttkrp, loop_synthesize, simplex_qp_oracle


class TestProjectSimplex:
    def test_already_feasible(self):
        np.testing.assert_allclose(project_simplex([0.5, 0.5]), [0.5, 0.5])

    def test_vertex(self):
        np.testing.assert_allclose(project_simplex([2.0, 0.0]), [1.0, 0.0], atol=1e-15)

    def test_symmetric_shift(self):
        np.testing.assert_allclose(project_simplex([0.4, 0.4]), [0.5, 0.5], atol=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([]))

    def test_matches_qp_oracle_on_grid(self):
        # every vector of length <= 4 over a coarse grid
        grid = np.linspace(-1.0, 2.0, 7)
        for n in (1, 2, 3, 4):
            for combo in itertools.product(grid, repeat=n):
                v = np.array(combo)
                np.testing.assert_allclose(
                    project_simplex(v), simplex_qp_oracle(v), atol=1e-12
                )

    @given(st.integers(0, 10**6), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_output_feasible_and_idempotent(self, seed, n):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=n) * 3
        x = project_simplex(v)
        assert x.min() >= 0
        assert x.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(project_simplex(x), x, atol=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_columnwise_matches_vector_version(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(5, 7)) * 2
        out = project_columns_to_simplex(M)
        for f in range(7):
            np.testing.assert_allclose(out[:, f], simplex_qp_oracle(M[:, f]), atol=1e-12)


def _single_tuple_set(tensor, key, sizes, support=1):
    return MarginalSet(
        order=len(key),
        alphabet_sizes=sizes,
        entries={key: MarginalEntry(tensor=tensor, support=support)},
    )


class TestCoupledCost:
    def test_zero_at_generating_bundle(self):
        model = random_model(4, 3, 2, seed=0)
        ms = exact_marginals(model, 3)
        assert coupled_cost(ms, model.bundle) == pytest.approx(0.0, abs=1e-25)

    def test_single_tuple_elementwise(self):
        rng = np.random.default_rng(1)
        bundle = random_bundle([2, 2, 2], 2, rng)
        truth = synthesize(bundle)
        off = FactorBundle(np.array([1.0, 0.0]), bundle.factors)
        ms = _single_tuple_set(truth, (1, 2, 3), (2, 2, 2))
        approx = synthesize(off)
        expect = 0.5 * float(((truth.array - approx.array) ** 2).sum())
        assert coupled_cost(ms, off) == pytest.approx(expect, rel=1e-12)

    def test_empty_set_warns_and_returns_zero(self):
        rng = np.random.default_rng(2)
        bundle = random_bundle([2, 2], 2, rng)
        ms = MarginalSet(order=2, alphabet_sizes=(2, 2), entries={})
        with pytest.warns(UserWarning):
            assert coupled_cost(ms, bundle) == 0.0

    def test_per_tuple_weights(self):
        model = random_model(3, 2, 2, seed=3)
        ms = exact_marginals(model, 2)
        rng = np.random.default_rng(4)
        other = random_bundle([2, 2, 2], 2, rng)
        full = coupled_cost(ms, other)
        config = FitConfig(rank=2, per_tuple_weights={(1, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0})
        with pytest.warns(UserWarning):
            assert coupled_cost(ms, other, config) == 0.0
        config_half = FitConfig(rank=2, per_tuple_weights={(1, 2): 0.5})
        assert coupled_cost(ms, other, config_half) < full


class TestUpdateFactor:
    def test_recovers_factor_with_others_at_truth(self):
        model = random_model(3, 4, 2, seed=5)
        ms = exact_marginals(model, 3)
        uniform = np.full((4, 2), 0.25)
        start = FactorBundle(
            model.bundle.loadings,
            (uniform, model.bundle.factors[1], model.bundle.factors[2]),
        )
        config = FitConfig(rank=2, admm_inner_iters=50)
        res = update_factor(ms, start, 1, config)
        np.testing.assert_allclose(res.values, model.bundle.factors[0], atol=1e-6)

    def test_rank_one_returns_conditional_marginal(self):
        from pmfrec import marginalize_tensor

        model = random_model(3, 3, 1, seed=6)
        ms = exact_marginals(model, 3)
        rng = np.random.default_rng(7)
        start = FactorBundle(
            np.array([1.0]),
            (
                np.full((3, 1), 1 / 3),
                model.bundle.factors[1],
                model.bundle.factors[2],
            ),
        )
        config = FitConfig(rank=1, admm_inner_iters=80)
        res = update_factor(ms, start, 1, config)
        marg = marginalize_tensor(ms.entries[(1, 2, 3)].tensor, {1})
        np.testing.assert_allclose(res.values.ravel(), marg.array, atol=1e-6)

    def test_zero_weight_tuples_fixed_point(self):
        model = random_model(3, 3, 2, seed=8)
        ms = exact_marginals(model, 3)
        config = FitConfig(rank=2, per_tuple_weights={(1, 2, 3): 0.0})
        res = update_factor(ms, model.bundle, 1, config)
        np.testing.assert_allclose(res.values, model.bundle.factors[0], atol=1e-12)

    def test_normal_equation_residuals_tiny(self):
        model = random_model(4, 5, 3, seed=9)
        ms = exact_marginals(model, 3)
        rng = np.random.default_rng(10)
        start = random_bundle([5] * 4, 3, rng)
        config = FitConfig(rank=3)
        for v in range(1, 5):
            res = update_factor(ms, start, v, config)
            assert res.report.normal_eq_residual <= 1e-10

    def test_feasible_output(self):
        model = random_model(4, 4, 3, seed=11)
        ms = exact_marginals(model, 3)
        rng = np.random.default_rng(12)
        start = random_bundle([4] * 4, 3, rng)
        res = update_factor(ms, start, 2, FitConfig(rank=3))
        assert res.values.min() >= 0
        np.testing.assert_allclose(res.values.sum(axis=0), 1.0, atol=1e-12)


class TestUpdateLoadings:
    def test_recovers_loadings_with_factors_at_truth(self):
        model = random_model(3, 4, 3, seed=13)
        ms = exact_marginals(model, 3)
        start = FactorBundle(np.full(3, 1 / 3), model.bundle.factors)
        config = FitConfig(rank=3, admm_inner_iters=80)
        res = update_loadings(ms, start, config)
        np.testing.assert_allclose(res.values, model.bundle.loadings, atol=1e-6)

    def test_rank_one_always_unit(self):
        model = random_model(3, 3, 1, seed=14)
        ms = exact_marginals(model, 3)
        res = update_loadings(ms, model.bundle, FitConfig(rank=1))
        np.testing.assert_allclose(res.values, [1.0], atol=1e-12)

    def test_degenerate_duplicate_components_feasible_min(self):
        # two identical rank-1 components: any simplex split of the true mass
        # is optimal, so check the cost, not the iterate
        rng = np.random.default_rng(15)
        cols = [rng.dirichlet(np.ones(3)) for _ in range(3)]
        dup_factors = tuple(np.column_stack([c, c]) for c in cols)
        truth = FactorBundle(np.array([0.3, 0.7]), dup_factors)
        t = synthesize(truth)
        ms = _single_tuple_set(t, (1, 2, 3), (3, 3, 3))
        start = FactorBundle(np.array([0.5, 0.5]), dup_factors)
        res = update_loadings(ms, start, FitConfig(rank=2, admm_inner_iters=50))
        est = FactorBundle(res.values, dup_factors)
        assert res.values.min() >= 0
        assert res.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert coupled_cost(ms, est) == pytest.approx(0.0, abs=1e-12)


class TestFit:
    def test_exact_recovery_small(self):
        model = random_model(4, 5, 3, seed=16)
        ms = exact_marginals(model, 3)
        config = FitConfig(
            rank=3, max_outer_sweeps=800, outer_tol=1e-15, cost_floor=1e-24,
            seed=0, restarts=3, restart_floor=1e-20,
        )
        est, report = fit(ms, config)
        assert mre_fact(model, est) <= 1e-6
        est.validate(tol=1e-9)

    def test_cost_nonincreasing_and_best_returned(self):
        for seed in (0, 1, 2):
            model = random_model(4, 4, 3, seed=seed)
            ms = exact_marginals(model, 3)
            config = FitConfig(rank=3, max_outer_sweeps=60, seed=seed)
            est, report = fit(ms, config)
            assert report.cost_trace[-1] <= report.cost_trace[0] + 1e-15
            assert coupled_cost(ms, est, config) == pytest.approx(
                min(report.cost_trace), abs=1e-18
            )

    def test_global_minimizer_is_fixed_point(self):
        model = random_model(4, 4, 2, seed=17)
        ms = exact_marginals(model, 3)
        config = FitConfig(rank=2, max_outer_sweeps=1)
        est, report = fit(ms, config, init=model.bundle)
        assert report.cost_trace[-1] <= 1e-10

    def test_pairs_supported(self):
        model = random_model(4, 3, 2, seed=18)
        ms = exact_marginals(model, 2)
        config = FitConfig(rank=2, max_outer_sweeps=100, seed=3)
        est, report = fit(ms, config)
        assert report.cost_trace[-1] < report.cost_trace[0]
        est.validate(tol=1e-9)

    def test_quadruples_supported(self):
        model = random_model(5, 3, 2, seed=19)
        ms = exact_marginals(model, 4)
        config = FitConfig(
            rank=2, max_outer_sweeps=400, outer_tol=1e-15, cost_floor=1e-24, seed=4
        )
        est, report = fit(ms, config)
        assert min(report.cost_trace) <= 1e-16

    def test_sweeps_run_totals_every_start(self, monkeypatch):
        # rank 1 cannot fit a rank-3 model, so every start ends above the
        # restart floor and both restarts run
        model = random_model(4, 3, 3, seed=23)
        ms = exact_marginals(model, 3)
        per_start = []
        fit_once = factorization._fit_once

        def spy(*args):
            out = fit_once(*args)
            per_start.append(out[2].sweeps_run)
            return out

        monkeypatch.setattr(factorization, "_fit_once", spy)
        config = FitConfig(rank=1, max_outer_sweeps=30, restarts=2, seed=6)
        _, report = fit(ms, config)
        assert report.starts_run == len(per_start) == 3
        assert report.sweeps_run == sum(per_start)
        assert len(report.cost_trace) - 1 in per_start

    def test_single_start_reports_its_own_sweeps(self):
        model = random_model(4, 3, 2, seed=24)
        ms = exact_marginals(model, 3)
        _, report = fit(ms, FitConfig(rank=2, max_outer_sweeps=50, seed=7))
        assert report.starts_run == 1
        assert report.sweeps_run == len(report.cost_trace) - 1

    def test_invalid_order_rejected(self):
        model = random_model(5, 3, 2, seed=20)
        ms = exact_marginals(model, 1)
        with pytest.raises(ValueError):
            fit(ms, FitConfig(rank=2))

    def test_init_shape_mismatch(self):
        model = random_model(4, 3, 2, seed=21)
        ms = exact_marginals(model, 3)
        rng = np.random.default_rng(0)
        wrong = random_bundle([4, 4, 4, 4], 2, rng)
        with pytest.raises(ValueError):
            fit(ms, FitConfig(rank=2), init=wrong)

    def test_nan_marginal_rejected_at_construction(self):
        with pytest.raises(ValueError, match="finite"):
            DenseTensor(shape=(2, 2, 2), data=np.full(8, np.nan))

    def test_simplex_constraints_exact_on_output(self):
        model = random_model(4, 4, 3, seed=22)
        ms = exact_marginals(model, 3)
        est, _ = fit(ms, FitConfig(rank=3, max_outer_sweeps=40, seed=5))
        for A in est.factors:
            np.testing.assert_allclose(A.sum(axis=0), 1.0, atol=1e-12)
            assert A.min() >= 0
        assert est.loadings.sum() == pytest.approx(1.0, abs=1e-12)
        assert est.loadings.min() >= 0


def _random_weighted_set(seed, order, n_vars, rank):
    """A marginal set with random nonnegative (unnormalized) tensors over
    alphabets of sizes 1-3, per-tuple weights that include 0 and non-unit
    values, and a random bundle to evaluate the kernels at."""
    rng = np.random.default_rng(seed)
    sizes = tuple(int(s) for s in rng.integers(1, 4, size=n_vars))
    entries, weights = {}, {}
    for key in itertools.combinations(range(1, n_vars + 1), order):
        shape = tuple(sizes[v - 1] for v in key)
        entries[key] = MarginalEntry(DenseTensor.from_array(rng.random(shape)), support=1)
        weights[key] = float(rng.choice([0.0, 0.5, 1.0, 2.5]))
    ms = MarginalSet(order=order, alphabet_sizes=sizes, entries=entries)
    return ms, FitConfig(rank=rank, per_tuple_weights=weights), random_bundle(sizes, rank, rng)


def _with_unit_axis(factors, pos, rank):
    """`factors` with a 1 x F matrix of ones inserted at 0-based `pos`."""
    return list(factors[:pos]) + [np.ones((1, rank))] + list(factors[pos:])


def _kr_gram_oracle(factors, pos, rank):
    """Gram of the Khatri-Rao product of `factors` by loops: column g is the
    MTTKRP, along a unit axis at `pos`, of the rank-1 tensor of component g."""
    padded = _with_unit_axis(factors, pos, rank)
    gram = np.zeros((rank, rank))
    for g in range(rank):
        unit = np.zeros(rank)
        unit[g] = 1.0
        gram[:, g] = loop_mttkrp(loop_synthesize(unit, padded), padded, pos + 1)[:, 0]
    return gram


def _factor_system_oracle(ms, config, bundle, var):
    lam, rank = bundle.loadings, bundle.rank
    G = np.zeros((rank, rank))
    V = np.zeros((rank, ms.alphabet_sizes[var - 1]))
    for key, entry in ms.active():
        if var not in key:
            continue
        w, pos = config.weight(key), key.index(var)
        facs = [bundle.factors[v - 1] for v in key]
        others = facs[:pos] + facs[pos + 1:]
        G += w * _kr_gram_oracle(others, pos, rank)
        V += w * loop_mttkrp(entry.tensor.array, facs, pos + 1)
    return np.outer(lam, lam) * G, lam[:, None] * V


def _loadings_system_oracle(ms, config, bundle):
    rank = bundle.rank
    G = np.zeros((rank, rank))
    V = np.zeros(rank)
    for key, entry in ms.active():
        w = config.weight(key)
        facs = [bundle.factors[v - 1] for v in key]
        G += w * _kr_gram_oracle(facs, len(key), rank)
        x = entry.tensor.array[..., None]  # a unit axis after the last mode
        V += w * loop_mttkrp(x, _with_unit_axis(facs, len(key), rank), len(key) + 1)[:, 0]
    return G, V[:, None]


def _cost_oracle(ms, config, bundle):
    total = 0.0
    for key, entry in ms.active():
        model = loop_synthesize(bundle.loadings, [bundle.factors[v - 1] for v in key])
        total += config.weight(key) * 0.5 * float(((entry.tensor.array - model) ** 2).sum())
    return total


class TestBatchedKernels:
    """The stacked, blocked system and cost kernels against per-tuple loops
    built from the conftest oracles alone."""

    @staticmethod
    def _kernels(ms, config, bundle, element_budget):
        stacks = factorization._prepare(ms, config, element_budget)
        table = factorization._table(bundle.factors)
        grams = factorization._grams(table)
        lam = bundle.loadings
        systems = [factorization._factor_system(stacks, table, grams, lam, v)
                   for v in range(ms.n_vars)]
        G, V, krs = factorization._loadings_system(stacks, table, grams)
        costs = (factorization._cost(stacks, table, lam),
                 factorization._cost(stacks, table, lam, krs))
        return systems, (G, V), costs

    @given(st.integers(2, 4), st.integers(0, 2), st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_match_loop_oracles(self, order, extra_vars, rank, seed):
        ms, config, bundle = _random_weighted_set(seed, order, order + extra_vars, rank)
        systems, (G, V), costs = self._kernels(ms, config, bundle, 10**8)
        for var, (Gv, Vv) in enumerate(systems, start=1):
            want_G, want_V = _factor_system_oracle(ms, config, bundle, var)
            np.testing.assert_allclose(Gv, want_G, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(Vv, want_V, rtol=1e-12, atol=1e-15)
        want_G, want_V = _loadings_system_oracle(ms, config, bundle)
        np.testing.assert_allclose(G, want_G, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(V, want_V, rtol=1e-12, atol=1e-15)
        want = _cost_oracle(ms, config, bundle)
        assert costs[0] == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert costs[1] == costs[0]  # the shared Khatri-Rao blocks are the same arrays

    @given(st.integers(2, 4), st.integers(0, 2), st.integers(1, 3), st.integers(0, 10**6),
           st.integers(1, 40))
    @settings(max_examples=30, deadline=None)
    def test_row_blocks_match_one_block(self, order, extra_vars, rank, seed, budget):
        ms, config, bundle = _random_weighted_set(seed, order, order + extra_vars, rank)
        stacks = factorization._prepare(ms, config, budget)
        assert budget > 1 or {g.block for gs in stacks.by_var for g in gs} <= {1}
        whole = self._kernels(ms, config, bundle, 10**8)
        blocked = self._kernels(ms, config, bundle, budget)
        for (G1, V1), (G2, V2) in zip(whole[0] + [whole[1]], blocked[0] + [blocked[1]]):
            np.testing.assert_allclose(G2, G1, rtol=1e-12, atol=0)
            np.testing.assert_allclose(V2, V1, rtol=1e-12, atol=0)
        np.testing.assert_allclose(blocked[2], whole[2], rtol=1e-12, atol=1e-300)

    def test_mixed_alphabets_split_a_variable_into_groups(self):
        sizes = (2, 1, 3, 2)
        rng = np.random.default_rng(3)
        entries = {key: MarginalEntry(DenseTensor.from_array(
                       rng.random(tuple(sizes[v - 1] for v in key))), support=1)
                   for key in itertools.combinations(range(1, 5), 3)}
        ms = MarginalSet(order=3, alphabet_sizes=sizes, entries=entries)
        stacks = factorization._prepare(ms, FitConfig(rank=2))
        # variable 1 meets its other variables with sizes (1, 3), (1, 2), (3, 2)
        assert [g.sizes for g in stacks.by_var[0]] == [(1, 3), (1, 2), (3, 2)]
        assert sorted(len(g.weights) for g in stacks.first) == [1, 1, 1, 1]
        assert sum(len(g.weights) for g in stacks.first) == len(entries)


class TestWeightValidation:
    @pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf")])
    def test_bad_weight_rejected_naming_the_key(self, weight):
        model = random_model(4, 3, 2, seed=1)
        ms = exact_marginals(model, 3)
        with pytest.raises(ValueError, match=r"\(1, 2, 3\)"):
            fit(ms, FitConfig(rank=2, per_tuple_weights={(1, 2, 3): weight}))
