import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmfrec import (
    CapacityError,
    DenseTensor,
    FactorBundle,
    khatri_rao_stack,
    synthesize,
    unfold,
)
from pmfrec.factorization import random_bundle

from conftest import loop_mttkrp, loop_synthesize


class TestDenseTensor:
    def test_linear_layout_is_first_index_fastest(self):
        t = DenseTensor(shape=(2, 2, 2), data=np.arange(1.0, 9.0))
        assert t.entry((1, 1, 1)) == 1.0
        assert t.entry((2, 1, 1)) == 2.0
        assert t.entry((1, 2, 1)) == 3.0
        assert t.entry((1, 1, 2)) == 5.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            DenseTensor(shape=(2, 3), data=np.ones(5))

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DenseTensor(shape=(2,), data=np.array([0.5, -0.1]))

    def test_normalized_flag_checks_sum(self):
        DenseTensor(shape=(2,), data=np.array([0.4, 0.6]), normalized=True)
        with pytest.raises(ValueError, match="sums"):
            DenseTensor(shape=(2,), data=np.array([0.4, 0.7]), normalized=True)


class TestSynthesize:
    def test_rank_one_outer_product(self):
        bundle = FactorBundle(
            np.array([1.0]),
            (np.array([[0.3], [0.7]]), np.array([[0.6], [0.4]])),
        )
        t = synthesize(bundle)
        expect = np.array([[0.18, 0.12], [0.42, 0.28]])
        np.testing.assert_allclose(t.array, expect, atol=1e-15)

    def test_identity_factors(self):
        eye = np.eye(2)
        bundle = FactorBundle(np.array([0.5, 0.5]), (eye, eye))
        np.testing.assert_allclose(synthesize(bundle).array, np.diag([0.5, 0.5]), atol=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        bundle = random_bundle([4, 4, 4], 3, rng)
        expect = loop_synthesize(bundle.loadings, bundle.factors)
        np.testing.assert_allclose(synthesize(bundle).array, expect, atol=1e-13)

    def test_sums_to_one_for_valid_bundle(self):
        rng = np.random.default_rng(2)
        bundle = random_bundle([3, 5, 2, 4], 6, rng)
        assert synthesize(bundle).total() == pytest.approx(1.0, abs=1e-9)

    def test_capacity_error(self):
        rng = np.random.default_rng(3)
        bundle = random_bundle([100, 100, 100], 2, rng)
        with pytest.raises(CapacityError):
            synthesize(bundle, element_budget=10**5)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_column_permutation_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        bundle = random_bundle([3, 4, 2], 4, rng)
        perm = rng.permutation(4)
        permuted = FactorBundle(
            bundle.loadings[perm], tuple(A[:, perm] for A in bundle.factors)
        )
        np.testing.assert_allclose(
            synthesize(bundle).array, synthesize(permuted).array, atol=1e-14
        )


class TestUnfold:
    def test_linear_order_example(self):
        t = DenseTensor(shape=(2, 2, 2), data=np.arange(1.0, 9.0))
        M = unfold(t, 1)
        np.testing.assert_array_equal(M, [[1, 2], [3, 4], [5, 6], [7, 8]])

    def test_index_formula_instance(self):
        # entry (2,1,2) lands at row 1 + 0 + (2-1)*2 = 3, column 2 (1-based)
        t = DenseTensor(shape=(2, 2, 2), data=np.arange(1.0, 9.0))
        M = unfold(t, 1)
        assert M[3 - 1, 2 - 1] == t.entry((2, 1, 2))

    def test_matches_khatri_rao_product_formula(self):
        rng = np.random.default_rng(4)
        bundle = random_bundle([3, 4, 5], 4, rng)
        t = synthesize(bundle)
        for mode in (1, 2, 3):
            others = [bundle.factors[k] for k in range(3) if k != mode - 1]
            ref = khatri_rao_stack(others) @ np.diag(bundle.loadings) @ bundle.factors[mode - 1].T
            np.testing.assert_allclose(unfold(t, mode), ref, atol=1e-13)

    def test_mode_out_of_range(self):
        t = DenseTensor(shape=(2, 2), data=np.ones(4) / 4)
        with pytest.raises(ValueError):
            unfold(t, 0)
        with pytest.raises(ValueError):
            unfold(t, 3)



class TestKhatriRao:
    def test_single_column_is_kronecker(self):
        # first-index-fastest: the first matrix's row index varies fastest
        a = np.array([[1.0], [2.0]])
        b = np.array([[3.0], [4.0], [5.0]])
        out = khatri_rao_stack([a, b])
        np.testing.assert_array_equal(out.ravel(), np.kron(b.ravel(), a.ravel()))

    def test_column_count_mismatch(self):
        # one column against several would broadcast silently without the check
        for mats in ([np.ones((2, 3)), np.ones((2, 2))], [np.ones((2, 3)), np.ones((2, 1))],
                     [np.ones((2, 1)), np.ones((2, 3))]):
            with pytest.raises(ValueError, match="column counts"):
                khatri_rao_stack(mats)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_gram_identity(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.random((5, 3))
        B = rng.random((4, 3))
        Q = khatri_rao_stack([A, B])
        np.testing.assert_allclose(Q.T @ Q, (A.T @ A) * (B.T @ B), atol=1e-12)

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(0, 4),
           st.integers(1, 3), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_batched_matches_loop_oracle(self, sizes, batch, rank, seed):
        # a (T, I_k, F) stack per mode gives the T products, row j of each
        # holding prod_k M_k[t, i_k, f] with the first index fastest
        rng = np.random.default_rng(seed)
        mats = [rng.random((batch, size, rank)) for size in sizes]
        out = khatri_rao_stack(mats)
        assert out.shape == (batch, int(np.prod(sizes)), rank)
        for t in range(batch):
            for j, idx in enumerate(itertools.product(*[range(s) for s in reversed(sizes)])):
                for f in range(rank):
                    want = 1.0
                    for k, i in enumerate(reversed(idx)):
                        want *= mats[k][t, i, f]
                    assert out[t, j, f] == pytest.approx(want, rel=1e-14)
        if batch:
            np.testing.assert_array_equal(out[-1], khatri_rao_stack([M[-1] for M in mats]))


def mttkrp(t, factors, mode):
    """The fit's data term for one tuple: the Khatri-Rao product of the other
    factors, transposed, times the mode-n unfolding."""
    others = [A for k, A in enumerate(factors) if k != mode - 1]
    return khatri_rao_stack(others).T @ unfold(t, mode)


class TestMttkrp:
    def test_all_ones(self):
        t = DenseTensor(shape=(2, 2, 2), data=np.ones(8))
        facs = [np.ones((2, 2))] * 3
        np.testing.assert_allclose(mttkrp(t, facs, 1), np.full((2, 2), 4.0))

    def test_zero_tensor(self):
        t = DenseTensor(shape=(2, 3, 2), data=np.zeros(12))
        facs = [np.ones((2, 2)), np.ones((3, 2)), np.ones((2, 2))]
        np.testing.assert_array_equal(mttkrp(t, facs, 2), np.zeros((2, 3)))

    def test_matches_explicit_khatri_rao(self):
        rng = np.random.default_rng(5)
        t = DenseTensor.from_array(rng.random((3, 3, 3)))
        facs = [rng.random((3, 4)) for _ in range(3)]
        for mode in (1, 2, 3):
            np.testing.assert_allclose(
                mttkrp(t, facs, mode), loop_mttkrp(t.array, facs, mode), atol=1e-12
            )

    @given(st.lists(st.integers(1, 5), min_size=2, max_size=4), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_equivalence_on_all_small_shapes(self, shape, seed):
        rng = np.random.default_rng(seed)
        t = DenseTensor.from_array(rng.random(tuple(shape)))
        facs = [rng.random((s, 3)) for s in shape]
        for mode in range(1, len(shape) + 1):
            np.testing.assert_allclose(
                mttkrp(t, facs, mode), loop_mttkrp(t.array, facs, mode), atol=1e-10
            )


class TestVectorize:
    """The flat `data` of a tensor is its vectorization."""

    def test_column_major_convention(self):
        t = DenseTensor.from_array(np.array([[1.0, 3.0], [2.0, 4.0]]))
        np.testing.assert_array_equal(t.data, [1, 2, 3, 4])

    def test_khatri_rao_identity(self):
        # the identity the coupled cost relies on: vec(model) = KR(factors) @ loadings
        rng = np.random.default_rng(6)
        bundle = random_bundle([3, 2, 4], 5, rng)
        ref = loop_synthesize(bundle.loadings, bundle.factors).ravel(order="F")
        kr = khatri_rao_stack(list(bundle.factors)) @ bundle.loadings
        np.testing.assert_allclose(kr, ref, atol=1e-12)
        np.testing.assert_allclose(synthesize(bundle).data, ref, atol=1e-12)

    def test_scalar_shape(self):
        t = DenseTensor(shape=(1,), data=np.array([1.0]))
        np.testing.assert_array_equal(t.data, [1.0])


class TestFactorBundle:
    def test_validate_accepts_feasible(self):
        rng = np.random.default_rng(7)
        random_bundle([3, 3], 2, rng).validate()

    def test_validate_rejects_bad_column_sum(self):
        bundle = FactorBundle(np.array([1.0]), (np.array([[0.5], [0.6]]),))
        with pytest.raises(ValueError):
            bundle.validate()

    def test_subset_keeps_requested_variables(self):
        rng = np.random.default_rng(8)
        bundle = random_bundle([2, 3, 4, 5], 2, rng)
        sub = bundle.subset([2, 4])
        assert sub.alphabet_sizes == (3, 5)
        np.testing.assert_array_equal(sub.loadings, bundle.loadings)
