"""Partition norms: exact paths, the alternating estimator, and the
merge/split and diagonal-restriction inequality harnesses."""

import functools
import tracemalloc

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
from kronchaos import norms
from kronchaos.bounds import build_reduced_array
from kronchaos.norms import (
    RestartResult,
    _als_batches,
    _als_runs,
    _block_mats,
    _block_positions,
    _random_factors,
    _restart_rng,
    _subscripts,
    diagonal_restrict,
    merge_blocks,
    table_norms,
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


def test_als_against_frobenius():
    rng = np.random.default_rng(3)
    for _ in range(10):
        T = rng.standard_normal((2, 2, 2))
        als = tensor_norm(T, [[1], [2], [3]], OPTS)
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
        als = _als_batches([as_partial(T)], [Partition([[1], [2]])], OPTS)[0]
        assert als.value == pytest.approx(exact, rel=1e-6)
        assert als.method == "als"


def test_partition_must_cover_axes():
    with pytest.raises(AxisSetError):
        tensor_norm(np.ones((2, 2)), [[1]])


@pytest.mark.parametrize("value", [3.0, 0.0])
def test_partition_without_a_block_rejected(value):
    # a scalar's only partition has no block: no norm, and no method to name
    with pytest.raises(ArgumentError, match="at least one block"):
        tensor_norm(np.array(value), [])
    with pytest.raises(ArgumentError, match="at least one block"):
        table_norms([np.ones(2), np.array(value)], [[[1]], []])


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
    [est] = _als_batches([as_partial(T)], [P], opts, start=best.factors)
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
    shapes = [tuple(pa.sizes[p] for p in pos) for pos in positions]
    return (pa.data, positions), shapes


def _runs(problems, inits, owner, keys, max_iter, seed=0):
    """One `_als_runs` call: ``problems`` are the (data, positions) of norms of one block
    shape signature, start z belongs to norm owner[z] and has restart index
    keys[z], and its stall generator is keyed (seed, keys[z]), so a start
    keeps its generator in any batch."""
    mats = [_block_mats(data, positions) for data, positions in problems]
    data, positions = problems[0]
    shapes = [tuple(data.shape[p] for p in pos) for pos in positions]
    stacked = [np.stack([np.asarray(init[r], dtype=np.float64).ravel() for init in inits])
               for r in range(len(shapes))]
    return _als_runs([np.stack([m[r] for m in mats]) for r in range(len(shapes))], shapes, stacked,
                     np.asarray(owner), np.asarray(keys),
                     lambda key: np.random.default_rng((seed, key)), max_iter, 1e-10)


def _als_loop(data, positions, init, rng, max_iter, tol):
    """Reference: the alternating updates of one restart on flattened blocks.

    Block r's C-contiguous matrix has the other blocks' axes, in block order,
    on its rows and its own axes on its columns.  Its update is the Kronecker
    product of the other flattened factors times that matrix, in the
    (1, m) @ (m, n_r) shape of one batch row."""
    shapes = [tuple(data.shape[p] for p in pos) for pos in positions]
    mats = [np.ascontiguousarray(
                data.transpose([p for q, other in enumerate(positions) if q != r for p in other]
                               + list(pos)).reshape(-1, int(np.prod(shapes[r]))))
            for r, pos in enumerate(positions)]
    factors = [np.asarray(f, dtype=np.float64).ravel() for f in init]

    def result(value, converged, iterations):
        blocks = tuple(f.reshape(shape) for f, shape in zip(factors, shapes, strict=True))
        return RestartResult(value, blocks, converged, iterations, iterations)

    value, prev = 0.0, -np.inf
    for it in range(1, max_iter + 1):
        for r in range(len(positions)):
            k = functools.reduce(np.kron, [f for q, f in enumerate(factors) if q != r], np.ones(1))
            v = np.matmul(k[None, None, :], mats[r])[0, 0]
            nv = float(np.sqrt((v * v).sum()))
            if nv == 0.0:
                factors[r] = _random_factors([shapes[r]], rng)[0].ravel()
                continue
            factors[r] = v / nv
            value = nv
        if value - prev <= tol * max(abs(value), 1e-300):
            return result(value, True, it)
        prev = value
    return result(value, False, max_iter)


def _einsum_loop(data, positions, init, rng, max_iter, tol):
    """Second reference: the alternating updates of one restart, one einsum
    per block on the unflattened data; other summation orders, same values."""
    update_subs, _ = _subscripts(data.ndim, positions)
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
            return RestartResult(value, tuple(factors), True, it, it)
        prev = value
    return RestartResult(value, tuple(factors), False, max_iter, max_iter)


def _same_run(a, b):
    assert (a.value, a.converged, a.iterations) == (b.value, b.converged, b.iterations)
    for fa, fb in zip(a.factors, b.factors, strict=True):
        assert fa.shape == fb.shape and fa.tobytes() == fb.tobytes()


def _batch_and_one_start_calls(T, P, inits, max_iter, seed=0):
    """One `_als_runs` call with every start as a norm of its own, one call
    per start and the flattened reference loop per start must agree bit for
    bit; the einsum reference must reach the same value.  The stall
    generators are seeded by start, so every run starts each restart in the
    same state."""
    args, _ = _runner_args(T, P)
    n = len(inits)
    batch = _runs([args] * n, inits, range(n), range(n), max_iter, seed)
    for i, (b, init) in enumerate(zip(batch, inits, strict=True)):
        [a] = _runs([args], [init], [0], [i], max_iter, seed)
        ref = _als_loop(*args, init, np.random.default_rng((seed, i)), max_iter, 1e-10)
        for run in (a, ref):
            _same_run(b, run)
        assert b.total_iterations == a.total_iterations == b.iterations
        old = _einsum_loop(*args, init, np.random.default_rng((seed, i)), max_iter, 1e-10)
        assert b.value == pytest.approx(old.value, rel=1e-9)
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


def _stall_array(shape):
    """e1 (x) ... (x) e1: from a start whose later blocks miss e1, the first update vanishes."""
    T = np.zeros(shape)
    T[(0,) * len(shape)] = 1.0
    return T


@pytest.mark.parametrize("max_iter", [500, 6])
def test_batch_of_norms_equals_one_norm_calls(max_iter):
    # one signature, block shapes ((2,), (2, 2), (2,)): two partitions of one
    # reduced array, a partition of another reduced array of the same matrix
    # (other axis labels), and a norm of e1 (x) e1 (x) e1 (x) e1 whose second
    # start stalls.  Each norm's best restart, total work included, must be
    # its one-norm call's, byte for byte.
    rng = np.random.default_rng(41)
    A = rearrange_matrix(rng.standard_normal((8, 8)), Dims([2, 2, 2]))
    B1, B2 = build_reduced_array(A, [1]), build_reduced_array(A, [2])
    e1, e2 = np.eye(2)
    members = [(B1, [[2], [3, 5], [6]]), (B1, [[2], [3, 6], [5]]), (B2, [[1], [3, 4], [6]]),
               (as_partial(_stall_array((2, 2, 2, 2))), [[1], [2, 3], [4]])]
    problems, inits, owner = [], [], []
    for y, (B, P) in enumerate(members):
        args, shapes = _runner_args(B, P)
        assert shapes == [(2,), (2, 2), (2,)]
        starts = [_random_factors(shapes, rng) for _ in range(4)]
        if y == 3:
            starts.insert(1, [e1, np.outer(e2, e2), e1])
        problems.append(args)
        inits += starts
        owner += [y] * len(starts)
    keys = range(len(owner))
    batch = _runs(problems, inits, owner, keys, max_iter)
    per_start = [_runs([problems[y]], [init], [0], [z], max_iter)[0]
                 for z, (y, init) in enumerate(zip(owner, inits))]
    assert per_start[owner.index(3) + 1].total_iterations > 0  # the stalled start ran
    for y, best in enumerate(batch):
        mine = [z for z in keys if owner[z] == y]
        [alone] = _runs([problems[y]], [inits[z] for z in mine], [0] * len(mine), mine, max_iter)
        _same_run(best, alone)
        assert best.total_iterations == alone.total_iterations
        assert best.total_iterations == sum(per_start[z].iterations for z in mine)
        assert best.total_iterations >= best.iterations
        # the best restart: highest value, lowest start on a tie
        winner = max(mine, key=lambda z: (per_start[z].value, -z))
        _same_run(best, per_start[winner])
    if max_iter == 6:
        assert not all(best.converged for best in batch)


def test_one_block_restarts_equal_one_start_calls():
    # kappa = 1: the update multiplies the flattened data by a one-entry Khatri-Rao row of ones
    rng = np.random.default_rng(21)
    T = rng.standard_normal((2, 3, 2))
    inits = [_random_factors([T.shape], rng) for _ in range(4)]
    _batch_and_one_start_calls(T, [[1, 2, 3]], inits, max_iter=500)
    est = _als_batches([as_partial(T)], [Partition([[1, 2, 3]])], OPTS)[0]
    assert est.value == pytest.approx(frobenius(T), rel=1e-12)


def test_stalled_restart_rerandomizes_from_its_own_rng():
    # T = e1 (x) e1 (x) e1: from (e1, e1, e2) the first two block updates vanish.
    # The stalled start shares a batch with the starts of two other norms.
    T = _stall_array((2, 2, 2))
    e1, e2 = np.eye(2)
    rng = np.random.default_rng(3)
    P = [[1], [2], [3]]
    problems = [_runner_args(X, P)[0] for X in (rng.standard_normal((2, 2, 2)), T,
                                             rng.standard_normal((2, 2, 2)))]
    inits = [_random_factors([(2,), (2,), (2,)], rng) for _ in range(6)]
    inits.insert(2, [e1, e1, e2])
    owner = [0, 0, 1, 1, 1, 2, 2]
    batch = _runs(problems, inits, owner, range(7), 500)
    [stalled] = _runs([problems[1]], [inits[2]], [0], [2], 500)
    assert stalled.value == pytest.approx(1.0, rel=1e-12) and stalled.converged
    for y, best in enumerate(batch):
        mine = [z for z in range(7) if owner[z] == y]
        _same_run(best, _runs([problems[y]], [inits[z] for z in mine], [0] * len(mine), mine, 500)[0])
    # the stalled start's draws came from its own rng: another rng moves its factors
    [other] = _runs([problems[1]], [inits[2]], [0], [99], 500)
    assert any(f.tobytes() != g.tobytes() for f, g in zip(other.factors, stalled.factors))


def test_tied_restarts_keep_the_lowest_start():
    # each start reaches exactly 1 on e1 (x) e1 (x) e1 in two iterations, with other signs
    T = _stall_array((2, 2, 2))
    e1 = np.eye(2)[0]
    inits = [[e1, e1, e1], [-e1, -e1, e1], [e1, -e1, -e1]]
    args, _ = _runner_args(T, [[1], [2], [3]])
    for order in ([0, 1, 2], [1, 2, 0], [2, 0, 1]):
        [best] = _runs([args], [inits[i] for i in order], [0, 0, 0], [0, 1, 2], 500)
        [first] = _runs([args], [inits[order[0]]], [0], [0], 500)
        assert best.value == first.value == 1.0
        _same_run(best, first)


def test_stall_generators_continue_each_restarts_start_draw(monkeypatch):
    # a stalled seeded restart draws on from its generator after the start
    # draw, in every norm of a batch; the run from `start` has a fresh one
    captured = []

    def spy(mats, shapes, inits, owner, restart, stall_rng, *args):
        captured.append((list(owner), list(restart), stall_rng))
        return als_runs(mats, shapes, inits, owner, restart, stall_rng, *args)

    als_runs = norms._als_runs
    monkeypatch.setattr(norms, "_als_runs", spy)
    rng = np.random.default_rng(17)
    P, shapes = [[1], [2, 4], [3]], [(2,), (2, 3), (2,)]
    opts = NormOptions(restarts=3, seed=6)
    table_norms([rng.standard_normal((2, 2, 2, 3)) for _ in range(2)], [P, P], opts)
    _als_batches([as_partial(rng.standard_normal((2, 2, 2, 3)))], [Partition(P)], opts,
                 start=_random_factors(shapes, rng))
    [(owner, restart, table_rng), (_, start_restart, start_rng)] = captured
    assert (owner, restart, start_restart) == ([0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2], [0, 1, 2, 3])
    for idx in range(3):
        after_start = _restart_rng(6, idx)
        _random_factors(shapes, after_start)
        assert table_rng(idx).standard_normal(5).tobytes() == after_start.standard_normal(5).tobytes()
    fresh = np.random.default_rng((6, 0x6E6F726D, 3))
    assert start_rng(3).standard_normal(5).tobytes() == fresh.standard_normal(5).tobytes()


def test_total_iterations_sum_every_seeded_restart():
    rng = np.random.default_rng(14)
    T = rng.standard_normal((2, 3, 2, 2))
    P = Partition([[1, 3], [2], [4]])
    opts = NormOptions(restarts=5, seed=3)
    est = tensor_norm(T, P, opts)
    args, shapes = _runner_args(T, P)
    runs = [_als_loop(*args, _random_factors(shapes, _restart_rng(3, idx)),
                      _restart_rng(3, idx, shapes), opts.max_iter, opts.tol)
            for idx in range(opts.restarts)]
    assert est.total_iterations == sum(r.iterations for r in runs)
    assert est.total_iterations >= est.iterations
    assert est.iterations == max(runs, key=lambda r: r.value).iterations


def _same_estimate(est, one):
    assert {k: v for k, v in vars(est).items() if k != "factors"} == \
        {k: v for k, v in vars(one).items() if k != "factors"}
    assert (est.factors is None) == (one.factors is None)
    for f, g in zip(est.factors or (), one.factors or (), strict=True):
        assert f.tobytes() == g.tobytes()


def test_table_norms_equal_tensor_norm_calls():
    # one mixed table: kappa 1-4 rows of two arrays, block orders and
    # signatures mixed, and a zero array at every kappa
    rng = np.random.default_rng(15)
    T1, T2 = rng.standard_normal((2, 3, 2, 2)), rng.standard_normal((2, 3, 2, 2))
    zero = np.zeros((2, 3, 2, 2))
    parts = list(all_partitions(range(1, 5)))
    assert {P.kappa for P in parts} == {1, 2, 3, 4}
    arrays = [T1] * len(parts) + [T2] * len(parts) + [zero] * len(parts)
    partitions = parts * 3
    opts = NormOptions(restarts=3, seed=2)
    table = table_norms(arrays, partitions, opts)
    for B, P, est in zip(arrays, partitions, table, strict=True):
        assert est.partition == P
        _same_estimate(est, tensor_norm(B, P, opts))
        if B is zero:
            method = {1: "frobenius-exact", 2: "spectral-exact"}.get(P.kappa, "als")
            _same_estimate(est, norms.NormEstimate(0.0, method, P))
        elif P.kappa == 1:
            # frobenius sums the squares in another order than np.linalg.norm
            assert est.value == pytest.approx(np.linalg.norm(B), rel=1e-15)
            assert est.method == "frobenius-exact" and not est.certified_lower_bound
        elif P.kappa == 2:
            exact = np.linalg.svd(matricize(B, *P.blocks), compute_uv=False)[0]
            assert est.value == pytest.approx(exact, rel=1e-15)
            assert est.method == "spectral-exact" and not est.certified_lower_bound
        else:
            _same_estimate(est, _als_batches([as_partial(B)], [P], opts)[0])
    bad = T1.copy()
    bad[0, 0, 0, 0] = np.inf
    with pytest.raises(ArgumentError, match="non-finite"):
        table_norms([T1, bad], parts[:2], opts)


def test_table_batch_memory_stays_below_one_data_copy_per_start():
    # 8 norms of (6,6) order-4 data at 32 restarts: one batch of Z = 256 starts.
    # Copying each start's own block matrices would hold Z * N doubles per block.
    rng = np.random.default_rng(23)
    arrays = [rearrange_matrix(rng.standard_normal((36, 36)), Dims([6, 6])) for _ in range(8)]
    opts = NormOptions(restarts=32, seed=1)
    assert len(arrays) * opts.restarts * 6 ** 4 <= norms._ALS_DOUBLES  # one batch
    tracemalloc.start()
    try:
        table_norms(arrays, [[[1], [2], [3, 4]]] * len(arrays), opts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 6 ** 4 * 8


def test_als_estimate_factors_own_their_data():
    rng = np.random.default_rng(13)
    T = rng.standard_normal((2, 3, 2))
    P = Partition([[1], [2], [3]])
    estimates = [
        tensor_norm(T, P, OPTS),
        *_als_batches([as_partial(T)], [P], NormOptions(restarts=3),
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


@pytest.mark.parametrize("shape", [(2, 3, 2, 2), (2, 3, 2, 2, 3, 2)])
def test_als_value_is_the_objective_of_its_block_factors(shape):
    # every kappa >= 3 partition, interleaved blocks such as [[1, 3], [2], [4]]
    # and [[1, 4], [2, 5], [3, 6]] included: a wrong permutation or reshape
    # order of the flattened blocks breaks the identity
    rng = np.random.default_rng(len(shape))
    T = rng.standard_normal(shape)
    partitions = [P for P in all_partitions(range(1, len(shape) + 1)) if P.kappa >= 3]
    assert {((1, 3), (2,), (4,)), ((1, 4), (2, 5), (3, 6))} & {P.blocks for P in partitions}
    for P in partitions:
        est = tensor_norm(T, P, NormOptions(restarts=4, seed=1))
        assert est.method == "als"
        assert [f.shape for f in est.factors] == [tuple(shape[a - 1] for a in b) for b in P.blocks]
        assert est.value == pytest.approx(norm_objective(T, P, est.factors), rel=1e-12), str(P)


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
