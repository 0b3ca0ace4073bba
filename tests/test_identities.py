"""The per-realization evaluators against literal nested-loop oracles."""

import numpy as np
import pytest

from kronchaos import (
    Dims,
    PartialArray,
    all_indices,
    axis_marginal,
    backbone_pairs,
    backbone_term,
    chaos_quadratic,
    dot_plus,
    dot_times,
    rearrange_matrix,
)
from kronchaos.errors import AxisSetError, ShapeError
from kronchaos.identities import (
    coupled_expansion_sides,
    expected_quadratic,
    pair_contraction,
    semi_decoupled_spec,
    squared_product_sides,
)


def semi_decoupled_term(A, I, J, x, xbar):
    """The semi-decoupled term of one realization: its spec, contracted without
    a sample axis (test_montecarlo checks the batch evaluator against this)."""
    return pair_contraction(A, semi_decoupled_spec(len(x), I, J, x, xbar))


def semi_decoupled_loop(A, dims, I, J, x, xbar):
    """Literal sum over the index blocks of the semi-decoupled term."""
    d = dims.order
    I, J = set(I), set(J)
    comp = sorted(set(range(1, d + 1)) - I)
    total = 0.0
    for i in all_indices(dims, sorted(J)):
        for k in all_indices(dims, sorted(I - J)):
            for j in all_indices(dims, comp):
                for jp in all_indices(dims, comp):
                    row = dot_times(dot_times(i, j), k)
                    col = dot_times(dot_times(i, jp), k)
                    w = A.entry(dot_plus(row, col, d))
                    for l in J:
                        w *= x[l - 1][i[l] - 1] ** 2 - 1.0
                    for l in comp:
                        w *= x[l - 1][j[l] - 1] * xbar[l - 1][jp[l] - 1]
                    total += w
    return total


def backbone_loop(A, dims, I, J, x):
    """Literal coupled term with the pairwise-distinct constraint."""
    d = dims.order
    I, J = set(I), set(J)
    comp = sorted(set(range(1, d + 1)) - I)
    total = 0.0
    for i in all_indices(dims, sorted(J)):
        for k in all_indices(dims, sorted(I - J)):
            for j in all_indices(dims, comp):
                for jp in all_indices(dims, comp):
                    if any(j[l] == jp[l] for l in comp):
                        continue
                    row = dot_times(dot_times(i, j), k)
                    col = dot_times(dot_times(i, jp), k)
                    w = A.entry(dot_plus(row, col, d))
                    for l in J:
                        w *= x[l - 1][i[l] - 1] ** 2 - 1.0
                    for l in comp:
                        w *= x[l - 1][j[l] - 1] * x[l - 1][jp[l] - 1]
                    total += w
    return total


@pytest.fixture
def instance():
    rng = np.random.default_rng(0)
    dims = Dims([2, 3])
    A = rearrange_matrix(rng.standard_normal((6, 6)), dims)
    x = [rng.standard_normal(n) for n in dims.sizes]
    xbar = [rng.standard_normal(n) for n in dims.sizes]
    return dims, A, x, xbar


def test_chaos_quadratic_matches_matrix_form(instance):
    dims, A, x, _ = instance
    X = np.kron(x[0], x[1])
    M = A.data.reshape(6, 6)
    assert chaos_quadratic(A, x) == pytest.approx(X @ M @ X, rel=1e-12)


def test_expected_quadratic_is_trace(instance):
    dims, A, _, _ = instance
    assert expected_quadratic(A) == pytest.approx(np.trace(A.data.reshape(6, 6)), rel=1e-14)


def test_axis_marginal_matches_loop():
    rng = np.random.default_rng(1)
    B = rng.standard_normal((2, 3, 2))
    marg = axis_marginal(B, [2])
    assert marg.axes == (1, 3)
    np.testing.assert_allclose(marg.data, B.sum(axis=1), rtol=1e-15)
    scalar = axis_marginal(B, [1, 2, 3])
    assert float(scalar.data) == pytest.approx(B.sum(), rel=1e-14)
    with pytest.raises(AxisSetError):
        axis_marginal(B, [4])


def test_semi_decoupled_term_matches_loop(instance):
    dims, A, x, xbar = instance
    for I, J in [((), ()), ((1,), ()), ((1,), (1,)), ((2,), (2,)), ((1, 2), (1,)),
                 ((1, 2), ()), ((1, 2), (1, 2))]:
        got = semi_decoupled_term(A, I, J, x, xbar)
        want = semi_decoupled_loop(A, dims, I, J, x, xbar)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-12), (I, J)


def test_semi_decoupled_term_d1_examples():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((3, 3))
    A = rearrange_matrix(M, Dims([3]))
    x = [rng.standard_normal(3)]
    xbar = [rng.standard_normal(3)]
    # fully decoupled bilinear form
    assert semi_decoupled_term(A, [], [], x, xbar) == pytest.approx(
        x[0] @ M @ xbar[0], rel=1e-12)
    # I=[d], J=empty: the deterministic trace term
    assert semi_decoupled_term(A, [1], [], x, xbar) == pytest.approx(np.trace(M), rel=1e-14)
    with pytest.raises(AxisSetError):
        semi_decoupled_term(A, [], [1], x, xbar)


def test_semi_decoupled_rademacher_squared_terms_vanish():
    rng = np.random.default_rng(3)
    dims = Dims([2, 2])
    A = rearrange_matrix(rng.standard_normal((4, 4)), dims)
    signs = [np.array([1.0, -1.0]), np.array([-1.0, -1.0])]
    for I, J in backbone_pairs(2):
        if J:
            assert semi_decoupled_term(A, I, J, signs, signs) == 0.0


def test_backbone_term_matches_loop(instance):
    dims, A, x, _ = instance
    for I, J in backbone_pairs(2):
        got = backbone_term(A, I, J, x)
        want = backbone_loop(A, dims, I, J, x)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-12), (I, J)


def test_backbone_pairs_enumeration():
    pairs = backbone_pairs(2)
    assert ((1, 2), ()) not in pairs  # the pure-trace term is excluded
    assert ((), ()) in pairs and ((1, 2), (1,)) in pairs and ((1, 2), (1, 2)) in pairs
    assert len(pairs) == 3**2 - 1  # sum over I of 2^|I|, minus the excluded pair


def test_backbone_reconstruction_small():
    rng = np.random.default_rng(4)
    for sizes in [(2,), (3,), (2, 3), (3, 3)]:
        dims = Dims(sizes)
        N = dims.total
        A = rearrange_matrix(rng.standard_normal((N, N)), dims)
        x = [rng.standard_normal(n) for n in sizes]
        total = sum(backbone_term(A, I, J, x) for I, J in backbone_pairs(dims.order))
        target = chaos_quadratic(A, x) - expected_quadratic(A)
        assert total == pytest.approx(target, rel=1e-10, abs=1e-12)


def test_squared_product_sides_lhs_literal():
    rng = np.random.default_rng(5)
    B = rng.standard_normal((2, 3))
    x = [rng.standard_normal(2), rng.standard_normal(3)]
    lhs, rhs = squared_product_sides(B, x)
    direct = sum(
        B[i - 1, j - 1] * x[0][i - 1] ** 2 * x[1][j - 1] ** 2
        for i in range(1, 3) for j in range(1, 4)
    )
    assert lhs == pytest.approx(direct, rel=1e-13)
    assert rhs == pytest.approx(direct, rel=1e-12)


def test_coupled_expansion_sides_identity(instance):
    dims, A, x, _ = instance
    lhs, rhs = coupled_expansion_sides(A, x)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_pair_contraction_needs_a_doubled_array():
    spec = {1: ("tie_sum",)}
    assert pair_contraction(np.eye(3), spec) == pytest.approx(3.0, rel=1e-15)
    for bad in (np.ones((2, 3)), np.ones((2, 2, 2))):
        with pytest.raises(ShapeError):
            pair_contraction(bad, spec)
    with pytest.raises(AxisSetError):
        pair_contraction(PartialArray((2, 4), (3, 3), np.eye(3)), spec)
