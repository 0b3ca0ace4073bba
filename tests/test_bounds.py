"""Reduced arrays, symmetrization, the moment functionals, and tail formulas."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kronchaos import (
    Dims,
    NormOptions,
    PartialArray,
    PartialIndex,
    Partition,
    all_indices,
    build_reduced_array,
    check_gram_norm_bounds,
    check_symmetry,
    main_norm_table,
    mp_main,
    mp_norm,
    norm_objective,
    rearrange_matrix,
    subsets,
    symmetrize,
    tail_bound_ax,
    tensor_norm,
    verify_reduction_lift,
)
from kronchaos import bounds, norms
from kronchaos.bounds import compute_bound_report, gram_norm_table, swap_invariances
from kronchaos.errors import ArgumentError, AxisSetError, DegenerateInputError
from kronchaos.identities import chaos_quadratic, expected_quadratic
from kronchaos.norms import diagonal_restrict

OPTS = NormOptions(restarts=32, seed=0)


# ---------------------------------------------------------------------------
# reduced arrays


def test_expected_chaos_is_trace():
    rng = np.random.default_rng(0)
    assert expected_quadratic(rearrange_matrix(np.eye(6), Dims([2, 3]))) == 6.0
    assert expected_quadratic(rearrange_matrix(np.zeros((4, 4)), Dims([2, 2]))) == 0.0
    A = rng.standard_normal((4, 4))
    got = expected_quadratic(rearrange_matrix(A, Dims([2, 2])))
    assert got == pytest.approx(np.trace(A), rel=1e-14)


def test_build_reduced_array_identity_and_scalar():
    rng = np.random.default_rng(1)
    dims = Dims([2, 3])
    A = rearrange_matrix(rng.standard_normal((6, 6)), dims)
    same = build_reduced_array(A, [])
    assert same.axes == (1, 2, 3, 4)
    assert np.array_equal(same.data, A.data)
    scalar = build_reduced_array(A, [1, 2])
    assert scalar.axes == ()
    assert float(scalar.data) == pytest.approx(expected_quadratic(A), rel=1e-14)
    # d=1, I={1}, identity matrix: the scalar 2
    one = build_reduced_array(rearrange_matrix(np.eye(2), Dims([2])), [1])
    assert float(one.data) == 2.0


def test_build_reduced_array_matches_loop():
    rng = np.random.default_rng(2)
    dims = Dims([2, 3])
    A = rearrange_matrix(rng.standard_normal((6, 6)), dims)
    red = build_reduced_array(A, [2])
    assert red.axes == (1, 3)
    for i1 in range(1, 3):
        for i1p in range(1, 3):
            s = sum(A.entry(PartialIndex({1: i1, 2: k, 3: i1p, 4: k})) for k in range(1, 4))
            assert red.data[i1 - 1, i1p - 1] == pytest.approx(s, rel=1e-14)


def test_reduced_array_entry_matches_loop_trace():
    rng = np.random.default_rng(5)
    dims = Dims([2, 3, 2])
    A = rearrange_matrix(rng.standard_normal((12, 12)), dims)
    red = build_reduced_array(A, [1, 3])
    assert red.axes == (2, 5)
    for i2 in range(1, 4):
        for i2p in range(1, 4):
            s = sum(A.entry(PartialIndex({1: k, 2: i2, 3: m, 4: k, 5: i2p, 6: m}))
                    for k in range(1, 3) for m in range(1, 3))
            assert red.entry(PartialIndex({2: i2, 5: i2p})) == pytest.approx(s, rel=1e-14)
    with pytest.raises(AxisSetError):
        red.entry(PartialIndex({1: 1, 4: 1}))


@pytest.mark.parametrize("fn", [
    lambda B: build_reduced_array(B, []),
    symmetrize,
    lambda B: mp_main(B, 2.0),
])
def test_full_array_functions_reject_reduced_array(fn):
    A = rearrange_matrix(np.eye(4), Dims([2, 2]))
    with pytest.raises(AxisSetError):
        fn(build_reduced_array(A, [1]))


def reduced_array_diag(A, I, J):
    """Reduced array over I \\ J with the pairs in J restricted to their diagonal."""
    return build_reduced_array(diagonal_restrict(A, J), set(I) - set(J))


def test_build_reduced_array_diag_examples_and_loop():
    rng = np.random.default_rng(3)
    dims = Dims([2, 3])
    A = rearrange_matrix(rng.standard_normal((6, 6)), dims)
    # J = empty coincides with the plain reduction
    plain = build_reduced_array(A, [2])
    viaj = reduced_array_diag(A, [2], [])
    assert viaj.axes == plain.axes
    assert np.array_equal(viaj.data, plain.data)

    # d=1, I=J={1}: diagonal placed on the diagonal slots, off-diagonal zero
    M = rng.standard_normal((4, 4))
    A1 = rearrange_matrix(M, Dims([4]))
    D = reduced_array_diag(A1, [1], [1])
    assert D.axes == (1, 2)
    assert np.array_equal(D.data, np.diag(np.diag(M)))

    # d=2, I={1,2}, J={1}: nonzero only where the first coordinates agree
    full = reduced_array_diag(A, [1, 2], [1])
    assert full.axes == (1, 3)
    for i1 in range(1, 3):
        for i1p in range(1, 3):
            if i1 != i1p:
                assert full.data[i1 - 1, i1p - 1] == 0.0
            else:
                s = sum(A.entry(PartialIndex({1: i1, 2: k, 3: i1p, 4: k})) for k in range(1, 4))
                assert full.data[i1 - 1, i1p - 1] == pytest.approx(s, rel=1e-14)
    with pytest.raises(AxisSetError):
        reduced_array_diag(A, [1], [3])


def test_build_reduced_array_diag_loop_general():
    rng = np.random.default_rng(4)
    dims = Dims([2, 2])
    A = rearrange_matrix(rng.standard_normal((4, 4)), dims)
    got = reduced_array_diag(A, [2], [2])
    assert got.axes == (1, 2, 3, 4)
    for idx in all_indices(Dims(A.sizes)):
        i, ip, j, jp = idx[1], idx[3], idx[2], idx[4]
        expected = A.entry(idx) if j == jp else 0.0
        assert got.data[i - 1, j - 1, ip - 1, jp - 1] == expected


# ---------------------------------------------------------------------------
# symmetrization


def test_symmetrize_d1():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((4, 4))
    S = symmetrize(rearrange_matrix(M, Dims([4])))
    np.testing.assert_allclose(S.data, (M + M.T) / 2, rtol=1e-15)


def test_symmetrize_fixed_point_and_exact_symmetry():
    rng = np.random.default_rng(6)
    dims = Dims([2, 3])
    S = symmetrize(rearrange_matrix(rng.standard_normal((6, 6)), dims))
    assert check_symmetry(S)
    again = symmetrize(S)
    np.testing.assert_allclose(again.data, S.data, rtol=1e-15)


def test_check_symmetry_negative():
    A = rearrange_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), Dims([2]))
    assert not check_symmetry(A)
    assert check_symmetry(rearrange_matrix(np.eye(4), Dims([2, 2])))


def test_swap_invariances_are_exact():
    rng = np.random.default_rng(8)
    dims = Dims([2, 2, 2])
    M = rng.standard_normal((8, 8))
    gram, generic = rearrange_matrix(M.T @ M, dims), rearrange_matrix(M, dims)
    assert swap_invariances(gram, 3) == [(), (1, 2, 3)]
    assert swap_invariances(symmetrize(generic), 3) == list(subsets([1, 2, 3]))
    assert swap_invariances(generic, 3) == [()]
    # a reduced array keeps the pairs outside I
    assert swap_invariances(build_reduced_array(gram, [2]), 3) == [(), (1, 3)]
    off = gram.data.copy()
    off[0, 0, 0, 1, 1, 1] = np.nextafter(off[0, 0, 0, 1, 1, 1], np.inf)
    assert swap_invariances(PartialArray(gram.axes, gram.sizes, off), 3) == [()]
    assert not check_symmetry(gram) and check_symmetry(symmetrize(gram))


def test_symmetrize_preserves_chaos():
    rng = np.random.default_rng(7)
    for sizes in [(3,), (2, 2), (3, 3), (2, 2, 2), (3, 3, 3)]:
        dims = Dims(sizes)
        N = dims.total
        for _ in range(40):
            A = rearrange_matrix(rng.standard_normal((N, N)), dims)
            S = symmetrize(A)
            x = [rng.standard_normal(n) for n in sizes]
            a, b = chaos_quadratic(A, x), chaos_quadratic(S, x)
            assert abs(a - b) <= 1e-11 * max(abs(a), abs(b), 1.0)


# ---------------------------------------------------------------------------
# moment functionals


def test_mp_main_d1_identity_closed_form():
    for n in (2, 3, 4):
        A = rearrange_matrix(np.eye(n), Dims([n]))
        for p, L in ((2.0, 1.0), (4.0, 1.5)):
            m = mp_main(A, p, L)
            expected = L**2 * (math.sqrt(p) * math.sqrt(n) + p * 1.0)
            assert m == pytest.approx(expected, rel=1e-12)


def test_mp_main_d2_id4_hand_value():
    # identity pattern: per-(I, partition) norms are exactly 1, sqrt(2) or 2,
    # giving kappa sums 2+4*sqrt(2), 8+4*sqrt(2), 4+2*sqrt(2), 1
    A = rearrange_matrix(np.eye(4), Dims([2, 2]))
    m = mp_main(A, 2.0, 1.0, OPTS)
    r2 = math.sqrt(2.0)
    expected = r2 * (2 + 4 * r2) + 2 * (8 + 4 * r2) + 2 * r2 * (4 + 2 * r2) + 4 * 1.0
    assert m == pytest.approx(expected, rel=1e-6)
    kappa_sums = bounds._kappa_sums(main_norm_table(A, OPTS), 2)
    assert kappa_sums[1] == pytest.approx(2 + 4 * r2, rel=1e-9)
    assert kappa_sums[2] == pytest.approx(8 + 4 * r2, rel=1e-9)
    assert kappa_sums[3] == pytest.approx(4 + 2 * r2, rel=1e-6)
    assert kappa_sums[4] == pytest.approx(1.0, rel=1e-6)


def oracle_partitions(elems, kappa):
    elems = tuple(sorted(elems))
    seen = set()
    for coloring in itertools.product(range(kappa), repeat=len(elems)):
        if len(set(coloring)) != kappa:
            continue
        blocks = tuple(sorted(
            (tuple(e for e, c in zip(elems, coloring) if c == k) for k in range(kappa)),
            key=lambda b: b[0] if b else 0))
        blocks = tuple(b for b in blocks if b)
        seen.add(blocks)
    return seen


def oracle_mp_main(A2d, dims, p, L, opts):
    """Independent re-enumeration of the moment functional sum.

    Subsets via itertools, partitions via brute-force colorings; norm values
    from the same primitive (which has its own independent oracles).
    """
    d = dims.order
    total = 0.0
    for r in range(d + 1):
        for I in itertools.combinations(range(1, d + 1), r):
            if len(I) == d:
                continue
            reduced = build_reduced_array(A2d, I)
            ground = reduced.axes
            for kappa in range(1, len(ground) + 1):
                for blocks in oracle_partitions(ground, kappa):
                    est = tensor_norm(reduced, blocks, opts)
                    total += p ** (kappa / 2.0) * est.value
    return L ** (2 * d) * total


def test_mp_main_d2_random_against_oracle():
    rng = np.random.default_rng(9)
    dims = Dims([2, 2])
    A = rearrange_matrix(rng.standard_normal((4, 4)), dims)
    for p in (2.0, 3.0):
        m = mp_main(A, p, 1.25, OPTS)
        assert m == pytest.approx(oracle_mp_main(A, dims, p, 1.25, OPTS), rel=1e-10)


def test_mp_main_preconditions():
    A = rearrange_matrix(np.eye(4), Dims([2, 2]))
    with pytest.raises(ArgumentError):
        mp_main(A, 1.5, 1.0)
    with pytest.raises(ArgumentError):
        mp_main(A, 2.0, 0.5)
    assert mp_main(rearrange_matrix(np.zeros((4, 4)), Dims([2, 2])), 2.0, 1.0) == 0.0


def test_mp_main_table_recompute_idempotent():
    rng = np.random.default_rng(10)
    dims = Dims([2, 2])
    A = rearrange_matrix(rng.standard_normal((4, 4)), dims)
    table = main_norm_table(A, OPTS)
    a = mp_main(A, 4.0, 1.0, table=table)
    b = mp_main(A, 4.0, 1.0, table=table)
    assert a == b
    c = mp_main(A, 4.0, 1.0, OPTS)
    assert c == a  # same seeds, same table


def _als_signatures(table):
    """ALS rows of a norm table by ordered block shapes."""
    groups = {}
    for row in table:
        if row.kappa >= 3:
            shapes = tuple(f.shape for f in row.estimate.factors)
            groups[shapes] = groups.get(shapes, 0) + 1
    return groups


def _batch_rows(shapes, restarts):
    """Norms of one signature in a batch: restarts x data entries within the cap."""
    return max(1, norms._ALS_DOUBLES // (restarts * math.prod(math.prod(s) for s in shapes)))


def test_main_norm_table_runs_one_als_batch_per_signature(monkeypatch):
    # the 8 x 8 (2,2,2) table: 192 ALS rows of 30 ordered block-shape signatures,
    # one batch each at the module cap, whole norms in several under a small cap
    A = rearrange_matrix(np.random.default_rng(16).standard_normal((8, 8)), Dims([2, 2, 2]))
    calls = []

    def counted(mats, *args):
        calls.append(len(mats[0]))
        return als_runs(mats, *args)

    als_runs = norms._als_runs
    monkeypatch.setattr(norms, "_als_runs", counted)
    for cap, n_batches in ((norms._ALS_DOUBLES, 30), (4 * OPTS.restarts * 64, 57)):
        monkeypatch.setattr(norms, "_ALS_DOUBLES", cap)
        calls.clear()
        table = main_norm_table(A, OPTS)
        groups = _als_signatures(table)
        assert (sum(groups.values()), len(groups)) == (192, 30)
        per_batch = {shapes: _batch_rows(shapes, OPTS.restarts) for shapes in groups}
        assert sorted(calls) == sorted(min(per_batch[shapes], n - b0)
                                       for shapes, n in groups.items()
                                       for b0 in range(0, n, per_batch[shapes]))
        assert len(calls) == n_batches


def _counted_als_runs(monkeypatch):
    """Norms and summed total_iterations of every `_als_runs` batch from now on."""
    counts = {"norms": 0, "total_iterations": 0}

    def counted(mats, *args):
        best = als_runs(mats, *args)
        counts["norms"] += len(best)
        counts["total_iterations"] += sum(b.total_iterations for b in best)
        return best

    als_runs = norms._als_runs
    monkeypatch.setattr(norms, "_als_runs", counted)
    return counts


def _full_swap(P, d):
    return Partition([[a + d if a <= d else a - d for a in b] for b in P.blocks], ground=P.ground)


def _gram_2_2_2(seed):
    M = np.random.default_rng(seed).standard_normal((8, 8))
    return rearrange_matrix(M.T @ M, Dims([2, 2, 2]))


def test_gram_table_runs_one_als_norm_per_swap_orbit(monkeypatch):
    # A^T A is exactly invariant under the full swap, so its 192 ALS rows form 112 orbits
    gram = _gram_2_2_2(24)
    generic = main_norm_table(rearrange_matrix(np.random.default_rng(24).standard_normal((8, 8)),
                                               Dims([2, 2, 2])), OPTS)
    counts = _counted_als_runs(monkeypatch)
    table = main_norm_table(gram, OPTS)
    assert counts["norms"] == 112
    assert [(r.reduced_axes, r.partition, r.estimate.method) for r in table] == \
        [(r.reduced_axes, r.partition, r.estimate.method) for r in generic]
    by_key = {(r.reduced_axes, r.partition): r for r in table}
    copies = [r for r in table if r.kappa >= 3 and r.estimate.total_iterations == 0]
    assert len(copies) == 192 - 112
    assert sum(r.estimate.total_iterations for r in table) == counts["total_iterations"]
    for row in copies:
        rep = by_key[row.reduced_axes, _full_swap(row.partition, 3)].estimate
        assert rep.total_iterations > 0 and rep.partition != row.partition
        assert row.value.hex() == rep.value.hex()
        assert (row.estimate.converged, row.estimate.iterations) == (rep.converged, rep.iterations)
        B = build_reduced_array(gram, row.reduced_axes)
        assert row.value == pytest.approx(tensor_norm(B, row.partition, OPTS).value, rel=1e-9)
        assert norm_objective(B, row.partition, row.estimate.factors) == \
            pytest.approx(row.value, rel=1e-12)


def test_symmetrized_table_runs_one_als_norm_per_swap_orbit(monkeypatch):
    # main-lower's array is invariant under every pair swap: 192 ALS rows, 64 orbits
    M = np.random.default_rng(25).standard_normal((8, 8))
    sym = symmetrize(rearrange_matrix(M, Dims([2, 2, 2])))
    counts = _counted_als_runs(monkeypatch)
    table = main_norm_table(sym, OPTS)
    assert counts["norms"] == 64
    assert sum(r.kappa >= 3 for r in table) == 192
    assert sum(r.estimate.total_iterations for r in table) == counts["total_iterations"]


def test_one_ulp_off_symmetry_gets_no_swap_orbit(monkeypatch):
    # one entry of the full Gram array moves one ulp; its row and column
    # indices differ on every pair, so no partial trace reads it and only the
    # full array loses its swap invariance
    gram = _gram_2_2_2(24)
    off = gram.data.copy()
    off[0, 0, 0, 1, 1, 1] = np.nextafter(off[0, 0, 0, 1, 1, 1], np.inf)
    off = PartialArray(gram.axes, gram.sizes, off)
    counts = _counted_als_runs(monkeypatch)
    table = main_norm_table(off, OPTS)
    full = [r for r in table if r.reduced_axes == () and r.kappa >= 3]
    assert len(full) == 171
    # the three order-4 reduced arrays keep their 5 orbits of 7 ALS rows each
    assert counts["norms"] == 171 + 3 * 5
    monkeypatch.undo()
    for row in full:
        one = tensor_norm(off, row.partition, OPTS)
        assert row.estimate.total_iterations == one.total_iterations > 0
        assert row.value.hex() == one.value.hex(), str(row.partition)
        for f, g in zip(row.estimate.factors, one.factors, strict=True):
            assert f.tobytes() == g.tobytes()


def test_main_norm_table_is_one_table_norms_call(monkeypatch):
    # every row, exact and ALS alike, goes through one table_norms call
    A = rearrange_matrix(np.random.default_rng(17).standard_normal((4, 4)), Dims([2, 2]))
    calls = []

    def counted(arrays, partitions, opts):
        calls.append([P.kappa for P in partitions])
        return table_norms(arrays, partitions, opts)

    def refuse(*args, **kwargs):
        raise AssertionError("a norm table row went through tensor_norm")

    table_norms = norms.table_norms
    monkeypatch.setattr(bounds, "table_norms", counted)
    monkeypatch.setattr(bounds, "tensor_norm", refuse)
    monkeypatch.setattr(norms, "tensor_norm", refuse)
    table = main_norm_table(A, OPTS)
    assert calls == [[row.kappa for row in table]]
    assert {1, 2, 3, 4} <= set(calls[0])


@pytest.mark.parametrize("seed", [3, 8])
def test_main_norm_table_equals_tensor_norm_per_row(seed, monkeypatch):
    A = rearrange_matrix(np.random.default_rng(seed).standard_normal((8, 8)), Dims([2, 2, 2]))
    opts = NormOptions(restarts=16, seed=seed)
    # 8 order-6 norms a batch: the largest signatures take several batches
    monkeypatch.setattr(norms, "_ALS_DOUBLES", 8 * opts.restarts * 64)
    table = main_norm_table(A, opts)
    assert any(n > _batch_rows(shapes, opts.restarts)
               for shapes, n in _als_signatures(table).items())
    for row in table:
        B = build_reduced_array(A, row.reduced_axes)
        one = tensor_norm(B, row.partition, opts)
        assert row.estimate.value.hex() == one.value.hex(), (row.reduced_axes, str(row.partition))
        fields = ("method", "restarts_used", "certified_lower_bound", "converged", "iterations",
                  "total_iterations", "warnings")
        assert [getattr(row.estimate, f) for f in fields] == [getattr(one, f) for f in fields]
        for f, g in zip(row.estimate.factors, one.factors, strict=True):
            assert f.tobytes() == g.tobytes()


def test_mp_norm_d1_identity_frozen():
    # hand evaluation: kappa=1 term min(sqrt(p), p^(1/4) n^(1/4)),
    # kappa=2 term min(p / sqrt(n), sqrt(p)); at n=4, p=4, L=1 both are 2
    m = mp_norm(np.eye(4), Dims([4]), 4.0, 1.0)
    assert m == pytest.approx(4.0, rel=1e-12)
    report = compute_bound_report(np.eye(4), Dims([4]), [4.0])
    assert report.mp_kappa == pytest.approx({1: 2.0, 2: 1.0}, rel=1e-12)


def test_mp_norm_single_entry_matrix():
    A = np.zeros((2, 4))
    A[0, 1] = 1.0
    table = gram_norm_table(A, Dims([2, 2]), OPTS)
    assert all(row.value <= 1.0 + 1e-9 for row in table)
    m = mp_norm(A, Dims([2, 2]), 2.0, 1.0, table=table)
    assert m > 0.0


def test_mp_norm_random_against_oracle_resum():
    rng = np.random.default_rng(11)
    dims = Dims([2, 2])
    A = rng.standard_normal((2, 4))
    fro = np.linalg.norm(A)
    table = gram_norm_table(A, dims, OPTS)
    for p in (2.0, 4.0):
        m = mp_norm(A, dims, p, 1.0, table=table)
        # independent re-summation of the min-combined total from the table
        kappa_sums = {}
        for row in table:
            kappa_sums[row.kappa] = kappa_sums.get(row.kappa, 0.0) + row.value
        expected = sum(
            min(p ** (k / 2.0) * v / fro, p ** (k / 4.0) * math.sqrt(v))
            for k, v in kappa_sums.items()
        )
        assert m == pytest.approx(expected, rel=1e-8)
        # and the gram table itself against the independent enumerator
        B2d = rearrange_matrix(A.T @ A, dims)
        assert sum(p ** (r.kappa / 2.0) * r.value for r in table) == pytest.approx(
            oracle_mp_main(B2d, dims, p, 1.0, OPTS), rel=1e-10)


def test_mp_norm_zero_matrix():
    with pytest.raises(DegenerateInputError):
        mp_norm(np.zeros((2, 4)), Dims([2, 2]), 2.0)


def test_bound_report_checks_arguments_before_norm_tables(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("norm table built before the argument checks")

    monkeypatch.setattr(bounds, "main_norm_table", no_table)
    monkeypatch.setattr(bounds, "gram_norm_table", no_table)
    dims = Dims([2, 2, 2])
    with pytest.raises(ArgumentError, match="p = 1.5 must be >= 2"):
        compute_bound_report(np.eye(8), dims, [4, 1.5])
    with pytest.raises(ArgumentError, match="t = -1 must be >= 0"):
        compute_bound_report(np.eye(8), dims, [2], t_grid=[1, -1])
    with pytest.raises(ArgumentError, match="C_tail = 0 must be > 0"):
        compute_bound_report(np.eye(8), dims, [2], C_tail=0, t_grid=[1])
    # finite entries whose Frobenius norm overflows, with and without a tail curve;
    # without one, the main table used to be built before the Gram table failed
    for t_grid in ([1], []):
        with pytest.raises(ArgumentError, match="^matrix is too large"):
            compute_bound_report(np.eye(8) * 1e200, dims, [2], t_grid=t_grid)
    # ||A||_F is finite, ||A^T A||_F is not: the Gram table used to give mp_norm = inf
    with pytest.raises(ArgumentError, match=r"^Gram matrix A\^T A is too large"):
        compute_bound_report(np.eye(4) * 1e80, Dims([2, 2]), [2])


@pytest.mark.parametrize("A, dims", [(np.zeros((2, 2)), Dims([2])),
                                     (np.eye(6), Dims([2, 3]))])
def test_bound_report_rejects_negative_t_when_the_tail_curve_is_skipped(monkeypatch, A, dims):
    def no_table(*args, **kwargs):
        raise AssertionError("norm table built before the argument checks")

    monkeypatch.setattr(bounds, "main_norm_table", no_table)
    monkeypatch.setattr(bounds, "gram_norm_table", no_table)
    with pytest.raises(ArgumentError, match="t = -1 must be >= 0"):
        compute_bound_report(A, dims, [2], t_grid=[1, -1])


def test_bound_report_computes_the_tail_norms_once(monkeypatch):
    # each t used to take its own SVD of A; the curve is the one tail_bound_ax gives per t
    A, dims, t_grid = np.random.default_rng(5).standard_normal((8, 8)), Dims([2, 2, 2]), [0.5, 2, 9]
    expected = [tail_bound_ax(A, dims, t, 1.5) for t in t_grid]
    calls = []
    matrix_norms = bounds._matrix_norms

    def counted(B):
        calls.append(np.shape(B))
        return matrix_norms(B)

    monkeypatch.setattr(bounds, "_matrix_norms", counted)
    report = compute_bound_report(A, dims, [2], C_tail=1.5, t_grid=t_grid,
                                  opts=NormOptions(restarts=2))
    assert calls == [(8, 8)]
    assert report.tail_curve == expected


@pytest.mark.parametrize("A, dims, C_tail", [(np.eye(6), Dims([2, 3]), 0),
                                             (np.zeros((2, 2)), Dims([2]), -3),
                                             (np.zeros((2, 2)), Dims([2]), math.nan),
                                             # the tail curve is computed for a nonempty grid
                                             (np.eye(4), Dims([2, 2]), math.nan)])
def test_bound_report_rejects_nonpositive_C_tail_when_the_tail_curve_is_skipped(
        monkeypatch, A, dims, C_tail):
    def no_table(*args, **kwargs):
        raise AssertionError("norm table built before the argument checks")

    monkeypatch.setattr(bounds, "main_norm_table", no_table)
    monkeypatch.setattr(bounds, "gram_norm_table", no_table)
    for t_grid in ([1], []):
        with pytest.raises(ArgumentError, match=f"C_tail = {C_tail} must be > 0"):
            compute_bound_report(A, dims, [2], C_tail=C_tail, t_grid=t_grid)


def test_bound_report_checks_p_for_nonsquare_zero_matrix():
    with pytest.raises(ArgumentError, match="p = 1 must be >= 2"):
        compute_bound_report(np.zeros((3, 2)), Dims([2]), [1])


# Every entry point that hands caller data to an SVD, on a 4 x 4 matrix with
# dims 2,2 whose entry (0, 1) is non-finite.  An SVD of an array with an inf
# entry can fail to return, so the calls run in a child process with a timeout.
NON_FINITE_CALLS = {
    "compute_bound_report": "compute_bound_report(A, DIMS, [2.0])",
    "compute_bound_report-tail": "compute_bound_report(A, DIMS, [2.0], t_grid=[1.0])",
    "main_norm_table": "main_norm_table(rearrange_matrix(A, DIMS), NormOptions(seed=0))",
    "gram_norm_table": "gram_norm_table(A, DIMS)",
    "mp_main": "mp_main(rearrange_matrix(A, DIMS), 2.0)",
    "mp_norm": "mp_norm(A, DIMS, 2.0)",
    "tensor_norm": "tensor_norm(rearrange_matrix(A, DIMS), [[1, 3], [2, 4]])",
    "table_norms": "table_norms([rearrange_matrix(A, DIMS)], [[[1], [2], [3, 4]]])",
    "tail_bound_ax": "tail_bound_ax(A, DIMS, 1.0)",
    "check_gram_norm_bounds": "check_gram_norm_bounds(A, DIMS, [1], [[2], [4]])",
    "verify_reduction_lift": "verify_reduction_lift(rearrange_matrix(A, DIMS), [1], [[2], [4]])",
    "verify_merge_split": "verify_merge_split(rearrange_matrix(A, DIMS), [[1], [2], [3, 4]], (0, 1))",
    "verify_diagonal_restriction":
        "verify_diagonal_restriction(rearrange_matrix(A, DIMS), [1], [[1, 3], [2, 4]])",
}

_NON_FINITE_CHILD = """
import json, sys
import numpy as np
from kronchaos import *
from kronchaos.bounds import compute_bound_report, gram_norm_table
from kronchaos.norms import table_norms
DIMS = Dims([2, 2])
for bad in (np.inf, -np.inf, np.nan):
    A = np.eye(4)
    A[0, 1] = bad
    for name, call in json.loads(sys.argv[1]).items():
        try:
            eval(call)
            outcome = "returned"
        except Exception as exc:
            outcome = type(exc).__name__
        print(json.dumps([name, repr(bad), outcome]), flush=True)
"""


@pytest.fixture(scope="module")
def non_finite_outcomes():
    env = dict(os.environ, PYTHONPATH=str(Path(bounds.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", _NON_FINITE_CHILD,
                            json.dumps(NON_FINITE_CALLS)],
                           env=env, capture_output=True, text=True, timeout=60, check=True)
    outcomes: dict[str, dict[str, str]] = {}
    for line in child.stdout.splitlines():
        name, bad, outcome = json.loads(line)
        outcomes.setdefault(name, {})[bad] = outcome
    return outcomes


@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_bound_path_rejects_a_non_finite_entry(non_finite_outcomes, name):
    assert non_finite_outcomes[name] == {"inf": "ArgumentError", "-inf": "ArgumentError",
                                         "nan": "ArgumentError"}


def test_mp_monotone_in_p():
    rng = np.random.default_rng(12)
    dims = Dims([2, 2])
    M = rng.standard_normal((4, 4))
    A = rearrange_matrix(M, dims)
    table = main_norm_table(A, OPTS)
    gtable = gram_norm_table(M, dims, OPTS)
    grid = [2.0, 4.0, 8.0, 16.0]
    for lo, hi in zip(grid, grid[1:]):
        assert mp_main(A, lo, 1.0, table=table) <= mp_main(A, hi, 1.0, table=table)
        assert mp_norm(M, dims, lo, 1.0, table=gtable) <= mp_norm(M, dims, hi, 1.0, table=gtable)


def test_mp_main_scaling():
    rng = np.random.default_rng(13)
    # d=1: exact (Frobenius + spectral only)
    M = rng.standard_normal((3, 3))
    A = rearrange_matrix(M, Dims([3]))
    Ac = rearrange_matrix(2.5 * M, Dims([3]))
    assert mp_main(Ac, 4.0, 1.0) == pytest.approx(2.5 * mp_main(A, 4.0, 1.0), rel=1e-12)
    # d=2: seeded alternating estimates agree to 1e-6 relative
    M = rng.standard_normal((4, 4))
    A = rearrange_matrix(M, Dims([2, 2]))
    Ac = rearrange_matrix(-3.0 * M, Dims([2, 2]))
    a = mp_main(A, 4.0, 1.0, OPTS)
    b = mp_main(Ac, 4.0, 1.0, OPTS)
    assert b == pytest.approx(3.0 * a, rel=1e-6)


# ---------------------------------------------------------------------------
# tail formulas


def test_tail_bound_t0_clips_to_one():
    tb = tail_bound_ax(np.eye(4), Dims([4]), 0.0, 1.0)
    assert tb.value == 1.0


def test_tail_bound_regime_boundary_agreement():
    rng = np.random.default_rng(14)
    A = rng.standard_normal((5, 16))
    dims = Dims([4, 4])
    spec = np.linalg.svd(A, compute_uv=False)[0]
    n, d = 4, 2
    t_star = n ** (d / 2.0) * spec
    exps = tail_bound_ax(A, dims, t_star).exponents
    assert exps["small-t"] == pytest.approx(n, rel=1e-12)
    assert exps["large-t"] == pytest.approx(n, rel=1e-12)


def test_tail_bound_id16_literal_example():
    A = np.eye(16)
    dims = Dims([4, 4])
    tb = tail_bound_ax(A, dims, 2.0, 1.0)
    # small-t exponent t^2/(n^(d-1) s^2) = 1; stable-rank applies since
    # 4^(1/4) <= 2 <= 4^(1/4) * 4 with exponent 4/(2*16) = 1/8
    assert tb.exponents["small-t"] == pytest.approx(1.0, rel=1e-12)
    assert tb.exponents["stable-rank"] == pytest.approx(0.125, rel=1e-12)
    assert "large-t" not in tb.exponents
    # both candidate bounds exceed 1, so the reported minimum is clipped
    assert tb.value == 1.0
    # far tail: only the large-t regime applies and nothing clips
    tb2 = tail_bound_ax(A, dims, 12.0, 1.0)
    assert list(tb2.exponents) == ["large-t"]
    assert tb2.value == pytest.approx(math.e**2 * math.exp(-12.0), rel=1e-12)


def test_tail_bound_errors():
    with pytest.raises(DegenerateInputError):
        tail_bound_ax(np.zeros((4, 4)), Dims([4]), 1.0)
    with pytest.raises(ArgumentError):
        tail_bound_ax(np.eye(6), Dims([2, 3]), 1.0)
    with pytest.raises(ArgumentError):
        tail_bound_ax(np.eye(4), Dims([4]), -1.0)
    # nan <= 0 is false, so a bare sign check lets a nan constant through
    with pytest.raises(ArgumentError, match="C_d = nan must be > 0"):
        tail_bound_ax(np.eye(4), Dims([4]), 1.0, C_d=math.nan)
    # finite entries whose Frobenius norm overflows: the bound used to be 1.0
    with pytest.raises(ArgumentError, match="Frobenius norm overflows"):
        tail_bound_ax(np.eye(4) * 1e200, Dims([4]), 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_tail_bounds_reject_non_finite_t(t):
    # nan < 0 is false, so a bare sign check lets a nan t through
    with pytest.raises(ArgumentError, match=f"t = {t} must be finite"):
        tail_bound_ax(np.eye(4), Dims([4]), t)
    with pytest.raises(ArgumentError, match=f"t = {t} must be finite"):
        compute_bound_report(np.eye(4), Dims([2, 2]), [2], t_grid=[1, t])


# ---------------------------------------------------------------------------
# norm inequalities for reduced Gram arrays


def test_gram_norm_bounds_random():
    rng = np.random.default_rng(16)
    dims = Dims([3, 3])
    for _ in range(10):
        A = rng.standard_normal((6, 9))
        for I in ([], [1], [2]):
            ground = build_reduced_array(rearrange_matrix(A.T @ A, dims), I).axes
            P = [list(ground[: len(ground) // 2]), list(ground[len(ground) // 2 :])]
            rep = check_gram_norm_bounds(A, dims, I, P, OPTS)
            assert rep.passed, (I, rep)


def test_reduction_lift_constructive():
    rng = np.random.default_rng(17)
    dims = Dims([2, 2])
    for _ in range(10):
        A = rng.standard_normal((4, 4))
        B2d = rearrange_matrix(A.T @ A, dims)
        rep = verify_reduction_lift(B2d, [1], [[2], [4]], OPTS)
        assert rep.lift_error < 1e-9
        assert rep.passed
        rep2 = verify_reduction_lift(B2d, [2], [[1, 3]], OPTS)
        assert rep2.passed

