"""Partition norms: exact paths, the alternating estimator, and the
merge/split and diagonal-restriction inequality harnesses."""

import numpy as np
import pytest
from scipy.optimize import minimize

from kronchaos import (
    Dims,
    NormOptions,
    Partition,
    all_partitions,
    frobenius,
    matricize,
    norm_objective,
    rearrange_matrix,
    tensor_norm,
    verify_diagonal_restriction,
    verify_merge_split,
)
from kronchaos.errors import ArgumentError, AxisSetError
from kronchaos.norms import (
    RestartResult,
    _als_estimate,
    _als_runs,
    _block_positions,
    _random_factors,
    _subscripts,
    diagonal_restrict,
    merge_blocks,
)
from kronchaos.tensor import as_partial

OPTS = NormOptions(restarts=32, seed=0)


def scipy_norm_oracle(T, blocks, tries=24, seed=0):
    """Independent estimate of a partition norm via L-BFGS multistart.

    Maximizes the contraction over normalized block vectors; a lower-bound
    oracle on a different optimization path than the alternating updates.
    """
    T = np.asarray(T)
    shapes = [tuple(T.shape[a - 1] for a in b) for b in blocks]
    sizes = [int(np.prod(s)) for s in shapes]
    splits = np.cumsum(sizes)[:-1]

    def objective(z):
        parts = [seg.reshape(shape) for seg, shape in zip(np.split(z, splits), shapes)]
        parts = [p / np.linalg.norm(p.reshape(-1)) for p in parts]
        return -norm_objective(T, blocks, parts)

    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(tries):
        z0 = rng.standard_normal(sum(sizes))
        res = minimize(objective, z0, method="L-BFGS-B")
        best = max(best, -res.fun)
    return best


def test_matricize_basics():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 4))
    assert np.array_equal(matricize(M, [1], [2]), M)
    ones = np.ones((2, 2, 2))
    assert matricize(ones, [1], [2, 3]).shape == (2, 4)
    assert np.all(matricize(ones, [1], [2, 3]) == 1.0)
    T = rng.standard_normal((2, 3, 2))
    for rows in ([1], [2], [3], [1, 2], [1, 3], [2, 3]):
        cols = [a for a in (1, 2, 3) if a not in rows]
        assert np.linalg.norm(matricize(T, rows, cols)) == pytest.approx(frobenius(T), rel=1e-14)
    with pytest.raises(AxisSetError):
        matricize(T, [1], [2])
    with pytest.raises(AxisSetError):
        matricize(T, [1, 2, 3], [])


def test_matricize_flattening_consistency():
    # row/column order must match the flat storage convention on the subsets
    rng = np.random.default_rng(1)
    T = rng.standard_normal((2, 3, 4))
    M = matricize(T, [1, 3], [2])
    for i in range(2):
        for j in range(3):
            for k in range(4):
                assert M[i * 4 + k, j] == T[i, j, k]


def test_kappa1_frobenius():
    est = tensor_norm(np.array([[3.0, 4.0], [0.0, 0.0]]), [[1, 2]])
    assert est.value == 5.0
    assert est.method == "frobenius-exact"
    assert not est.certified_lower_bound


def test_kappa2_spectral():
    est = tensor_norm(np.diag([1.0, 2.0]), [[1], [2]])
    assert est.value == pytest.approx(2.0, rel=1e-14)
    assert est.method == "spectral-exact"


def test_zero_array_short_circuit():
    for P in ([[1, 2, 3]], [[1], [2], [3]]):
        est = tensor_norm(np.zeros((2, 2, 2)), P)
        assert est.value == 0.0
        assert est.converged


def test_rank_one_all_partitions():
    rng = np.random.default_rng(2)
    vecs = [rng.standard_normal(n) for n in (2, 3, 2, 2)]
    vecs = [v / np.linalg.norm(v) for v in vecs]
    T = np.einsum("i,j,k,l->ijkl", *vecs)
    for P in all_partitions(range(1, 5)):
        est = tensor_norm(T, P, OPTS)
        assert est.value == pytest.approx(1.0, abs=1e-8), str(P)


def test_als_against_brute_force_and_frobenius():
    rng = np.random.default_rng(3)
    for _ in range(10):
        T = rng.standard_normal((2, 2, 2))
        als = tensor_norm(T, [[1], [2], [3]], OPTS)
        bf = tensor_norm(T, [[1], [2], [3]], OPTS, method="brute-force")
        assert als.value >= bf.value - 1e-6
        assert als.value <= frobenius(T) + 1e-9
        assert als.certified_lower_bound
        assert als.method == "als"


def test_als_against_scipy_oracle():
    rng = np.random.default_rng(4)
    for _ in range(5):
        T = rng.standard_normal((2, 3, 2))
        als = tensor_norm(T, [[1], [2], [3]], OPTS)
        oracle = scipy_norm_oracle(T, Partition([[1], [2], [3]]).blocks)
        assert als.value == pytest.approx(oracle, rel=1e-6)


def test_forced_als_matches_svd_kappa2():
    rng = np.random.default_rng(5)
    for _ in range(10):
        T = rng.standard_normal((6, 6))
        exact = np.linalg.svd(T, compute_uv=False)[0]
        als = tensor_norm(T, [[1], [2]], OPTS, method="als")
        assert als.value == pytest.approx(exact, rel=1e-6)
        assert als.method == "als"


def test_brute_force_block_cap():
    with pytest.raises(ArgumentError):
        tensor_norm(np.ones((5, 5, 5)), [[1, 2], [3]], method="brute-force")


def test_partition_must_cover_axes():
    with pytest.raises(AxisSetError):
        tensor_norm(np.ones((2, 2)), [[1]])


def test_homogeneity():
    rng = np.random.default_rng(6)
    T = rng.standard_normal((2, 2, 2, 2))
    for P in ([[1, 2, 3, 4]], [[1, 2], [3, 4]]):
        a = tensor_norm(3.0 * T, P).value
        b = tensor_norm(T, P).value
        assert a == pytest.approx(3.0 * b, rel=1e-14)
    a = tensor_norm(-2.5 * T, [[1], [2], [3, 4]], OPTS).value
    b = tensor_norm(T, [[1], [2], [3, 4]], OPTS).value
    assert a == pytest.approx(2.5 * b, rel=1e-8)


def test_permutation_equivariance_exact_methods():
    rng = np.random.default_rng(7)
    T = rng.standard_normal((2, 3, 4))
    # relabel axes by a permutation and permute the partition identically
    perm = (2, 0, 1)  # new axis a holds old axis perm[a]
    T2 = np.transpose(T, perm)
    old_of_new = {new + 1: perm[new] + 1 for new in range(3)}
    for P in ([[1, 2, 3]], [[1], [2, 3]], [[1, 3], [2]], [[1, 2], [3]]):
        P_new = [[k for k, old in old_of_new.items() if old in block] for block in P]
        v1 = tensor_norm(T, P).value
        v2 = tensor_norm(T2, P_new).value
        assert v1 == pytest.approx(v2, rel=1e-12)


def test_cauchy_schwarz_bound_random():
    rng = np.random.default_rng(8)
    for _ in range(5):
        T = rng.standard_normal((2, 2, 3))
        f = frobenius(T)
        for P in all_partitions(range(1, 4)):
            assert tensor_norm(T, P, OPTS).value <= f * (1 + 1e-9)


def test_nonconvergence_flagged():
    rng = np.random.default_rng(9)
    T = rng.standard_normal((3, 3, 3))
    est = tensor_norm(T, [[1], [2], [3]], NormOptions(restarts=2, max_iter=1, seed=0))
    assert not est.converged
    assert est.warnings


def test_als_is_deterministic():
    rng = np.random.default_rng(10)
    T = rng.standard_normal((2, 2, 2))
    opts = NormOptions(restarts=8, seed=42)
    a = tensor_norm(T, [[1], [2], [3]], opts)
    b = tensor_norm(T, [[1], [2], [3]], opts)
    assert a.value == b.value
    assert a.restarts_used == 8
    for fa, fb in zip(a.factors, b.factors, strict=True):
        assert np.array_equal(fa, fb)


def test_als_start_runs_after_the_seeded_restarts():
    rng = np.random.default_rng(20)
    T = rng.standard_normal((2, 3, 2))
    P = Partition([[1], [2], [3]])
    opts = NormOptions(restarts=4, seed=7)
    best = tensor_norm(T, P, OPTS)
    seeded = tensor_norm(T, P, opts)
    est = _als_estimate(as_partial(T), P, opts, "als", start=best.factors)
    assert est.restarts_used == 5
    assert est.value >= max(seeded.value, best.value * (1 - 1e-12))


@pytest.mark.parametrize("restarts", [0, -1])
def test_restarts_below_one_rejected(restarts):
    with pytest.raises(ArgumentError):
        NormOptions(restarts=restarts)


def test_negative_seed_rejected():
    with pytest.raises(ArgumentError, match="seed must be >= 0"):
        NormOptions(seed=-1)


def _runner_args(T, P):
    pa = as_partial(T)
    positions = _block_positions(pa, Partition(P))
    update_subs, _ = _subscripts(pa.order, positions)
    shapes = [tuple(pa.sizes[p] for p in pos) for pos in positions]
    return (pa.data, positions, update_subs), shapes


def _als_loop(data, update_subs, init, rng, max_iter, tol):
    """Reference: the alternating updates of one restart, one einsum per block."""
    factors = [np.asarray(f, dtype=np.float64) for f in init]
    value, prev = 0.0, -np.inf
    for it in range(1, max_iter + 1):
        for r, sub in enumerate(update_subs):
            v = np.einsum(sub, data, *(f for q, f in enumerate(factors) if q != r))
            nv = float(np.sqrt((v * v).sum()))
            if nv == 0.0:
                factors[r] = _random_factors([v.shape], rng)[0]
                continue
            factors[r] = v / nv
            value = nv
        if value - prev <= tol * max(abs(value), 1e-300):
            return RestartResult(value, tuple(factors), True, it)
        prev = value
    return RestartResult(value, tuple(factors), False, max_iter)


def _batch_and_one_start_calls(T, P, inits, max_iter, seed=0):
    """One `_als_runs` call over every start, one call per start and the
    reference loop per start; the restart rngs are seeded by index, so all
    three start each restart in the same state."""
    args, _ = _runner_args(T, P)
    data, _, update_subs = args
    rngs = [np.random.default_rng((seed, i)) for i in range(len(inits))]
    batch = _als_runs(*args, inits, rngs, max_iter, 1e-10)
    for i, (b, init) in enumerate(zip(batch, inits, strict=True)):
        [a] = _als_runs(*args, [init], [np.random.default_rng((seed, i))], max_iter, 1e-10)
        ref = _als_loop(data, update_subs, init, np.random.default_rng((seed, i)), max_iter, 1e-10)
        for run in (a, ref):
            assert (b.value, b.converged, b.iterations) == (run.value, run.converged, run.iterations)
            for fb, f in zip(b.factors, run.factors, strict=True):
                assert fb.shape == f.shape and fb.tobytes() == f.tobytes()
    return batch


@pytest.mark.parametrize("shape,P", [
    ((2, 3, 2), [[1], [2], [3]]),
    ((3, 3, 3), [[1], [2], [3]]),
    ((2, 2, 2, 2), [[1], [2], [3], [4]]),
    ((2, 3, 2, 2), [[1, 3], [2], [4]]),
    ((2, 2, 2, 2), [[1, 4], [2], [3]]),
    ((2, 2, 2, 2, 2, 2), [[1, 4], [2, 5], [3, 6]]),
    ((2, 2, 2, 2, 2, 2), [[1], [2, 3], [4], [5, 6]]),
    ((2, 2, 2, 2, 2, 2), [[1], [2], [3], [4], [5], [6]]),
])
def test_batched_restarts_equal_one_start_calls(shape, P):
    rng = np.random.default_rng(len(shape) * 10 + len(P))
    T = rng.standard_normal(shape)
    _, shapes = _runner_args(T, P)
    inits = [_random_factors(shapes, rng) for _ in range(6)]
    runs = _batch_and_one_start_calls(T, P, inits, max_iter=500)
    # cap the iterations so the slowest start stops at max_iter while the others converge
    cap = max(r.iterations for r in runs) - 1
    capped = _batch_and_one_start_calls(T, P, inits, max_iter=cap)
    assert any(r.converged for r in capped)
    assert any(not r.converged and r.iterations == cap for r in capped)


def test_stalled_restart_rerandomizes_from_its_own_rng():
    # T = e1 (x) e1 (x) e1: from (e1, e1, e2) the first two block updates vanish
    T = np.zeros((2, 2, 2))
    T[0, 0, 0] = 1.0
    e1, e2 = np.eye(2)
    rng = np.random.default_rng(3)
    inits = [_random_factors([(2,), (2,), (2,)], rng) for _ in range(4)]
    inits.insert(2, [e1, e1, e2])
    runs = _batch_and_one_start_calls(T, [[1], [2], [3]], inits, max_iter=500)
    assert runs[2].value == pytest.approx(1.0, rel=1e-12) and runs[2].converged
    # the stalled start's draws came from its own rng: another rng moves its factors
    args, _ = _runner_args(T, [[1], [2], [3]])
    [other] = _als_runs(*args, [[e1, e1, e2]], [np.random.default_rng((0, 99))], 500, 1e-10)
    assert any(f.tobytes() != g.tobytes() for f, g in zip(other.factors, runs[2].factors))


def test_als_estimate_factors_own_their_data():
    rng = np.random.default_rng(13)
    T = rng.standard_normal((2, 3, 2))
    P = Partition([[1], [2], [3]])
    estimates = [
        tensor_norm(T, P, OPTS),
        tensor_norm(T, P, OPTS, method="brute-force"),
        _als_estimate(as_partial(T), P, NormOptions(restarts=3), "als",
                      start=[np.ones(2) / np.sqrt(2), np.ones(3) / np.sqrt(3), np.ones(2) / np.sqrt(2)]),
    ]
    for est in estimates:
        assert all(f.base is None for f in est.factors)


def test_threads_do_not_change_result():
    rng = np.random.default_rng(11)
    T = rng.standard_normal((2, 3, 2))
    v1 = tensor_norm(T, [[1], [2], [3]], NormOptions(restarts=16, seed=5, threads=1)).value
    v4 = tensor_norm(T, [[1], [2], [3]], NormOptions(restarts=16, seed=5, threads=4)).value
    assert v1 == v4


def test_norm_objective_matches_estimate_factors():
    rng = np.random.default_rng(12)
    T = rng.standard_normal((2, 2, 3))
    est = tensor_norm(T, [[1], [2], [3]], OPTS)
    val = norm_objective(T, est.partition, est.factors)
    assert val == pytest.approx(est.value, rel=1e-12)


# ---------------------------------------------------------------------------
# merge/split inequalities


def test_merge_split_matrix_case():
    rng = np.random.default_rng(13)
    B = rng.standard_normal((3, 4))
    rep = verify_merge_split(B, [[1], [2]], (0, 1), OPTS)
    # exact SVD/Frobenius on both sides
    assert rep.split_method == "spectral-exact"
    assert rep.merged_method == "frobenius-exact"
    assert rep.split_value <= rep.merged_value + 1e-12
    assert rep.merged_value <= np.sqrt(3) * rep.split_value * (1 + 1e-12)
    assert rep.passed


def test_merge_split_identity_tight():
    rep = verify_merge_split(np.eye(2), [[1], [2]], (0, 1))
    assert rep.split_value == pytest.approx(1.0, rel=1e-14)
    assert rep.merged_value == pytest.approx(np.sqrt(2), rel=1e-14)
    assert rep.factor_bound == pytest.approx(np.sqrt(2), rel=1e-15)
    assert rep.passed


def test_merge_split_rank_one():
    rng = np.random.default_rng(14)
    vecs = [rng.standard_normal(n) for n in (2, 2, 3)]
    vecs = [v / np.linalg.norm(v) for v in vecs]
    T = np.einsum("i,j,k->ijk", *vecs)
    rep = verify_merge_split(T, [[1], [2], [3]], (1, 2), OPTS)
    assert rep.split_value == pytest.approx(1.0, abs=1e-9)
    assert rep.merged_value == pytest.approx(1.0, abs=1e-9)
    assert rep.passed


def test_merge_split_random_arrays_with_als():
    rng = np.random.default_rng(15)
    for _ in range(5):
        T = rng.standard_normal((2, 2, 2, 2))
        rep = verify_merge_split(T, [[1], [2], [3, 4]], (0, 1), OPTS)
        assert rep.passed, (rep.split_value, rep.merged_value, rep.factor_bound)
        assert rep.lift_max_error < 1e-10


def test_merge_blocks():
    P = Partition([[1], [2], [3, 4]])
    merged = merge_blocks(P, 0, 2)
    assert merged.blocks == ((1, 3, 4), (2,))
    with pytest.raises(ArgumentError):
        merge_blocks(P, 1, 1)


# ---------------------------------------------------------------------------
# diagonal restriction


def test_diagonal_restrict_shapes_and_values():
    rng = np.random.default_rng(16)
    dims = Dims([2, 3])
    A = rearrange_matrix(rng.standard_normal((6, 6)), dims)
    R = diagonal_restrict(A, [1])
    assert (R.axes, R.sizes) == (A.axes, A.sizes)
    # entries survive exactly when coordinate 1 equals coordinate 3
    for i1 in range(2):
        for i1p in range(2):
            block = R.data[i1, :, i1p, :]
            if i1 == i1p:
                assert np.array_equal(block, A.data[i1, :, i1p, :])
            else:
                assert np.all(block == 0.0)


def test_diagonal_restriction_empty_set_is_identity():
    rng = np.random.default_rng(17)
    dims = Dims([2, 2])
    A = rearrange_matrix(rng.standard_normal((4, 4)), dims)
    rep = verify_diagonal_restriction(A, [], [[1, 3], [2, 4]])
    assert rep.restricted_value == pytest.approx(rep.full_value, rel=1e-14)
    assert rep.passed


def test_diagonal_restriction_identity_fixed_point():
    dims = Dims([2, 2])
    A = rearrange_matrix(np.eye(4), dims)
    R = diagonal_restrict(A, [1, 2])
    assert np.array_equal(R.data, A.data)


def test_diagonal_restriction_inequality_exact_kappa2():
    rng = np.random.default_rng(18)
    dims = Dims([2, 2])
    for _ in range(10):
        A = rearrange_matrix(rng.standard_normal((4, 4)), dims)
        rep = verify_diagonal_restriction(A, [1], [[1, 2], [3, 4]], OPTS)
        assert rep.restricted_method == "spectral-exact"
        assert rep.passed


def test_diagonal_restriction_inequality_als_partitions():
    rng = np.random.default_rng(19)
    dims = Dims([2, 2])
    for _ in range(5):
        A = rearrange_matrix(rng.standard_normal((4, 4)), dims)
        for I in ([1], [2], [1, 2]):
            rep = verify_diagonal_restriction(A, I, [[1], [2], [3, 4]], OPTS)
            assert rep.passed, (I, rep)
