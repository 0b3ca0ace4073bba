"""Index algebra, flattening, rearrangement, and the array interchange format."""

import itertools

import numpy as np
import pytest

from kronchaos import (
    Dims,
    EMPTY_INDEX,
    PartialArray,
    PartialIndex,
    all_indices,
    dot_plus,
    dot_times,
    flatten_index,
    frobenius,
    rearrange_matrix,
    restrict,
    unflatten_index,
    unrearrange_matrix,
)
from kronchaos.arrayio import load_matrix_csv, save_matrix_csv
from kronchaos.errors import (
    AxisSetError,
    CoordinateError,
    DisjointnessError,
    ShapeError,
    SizeError,
)


def kron_order_oracle(sizes):
    """Enumerate index tuples in the order induced by the Kronecker product.

    Independent of flatten_index: materializes the Kronecker product of
    indicator-valued vectors and reads off the positions.
    """
    d = len(sizes)
    out = {}
    for combo in itertools.product(*[range(1, n + 1) for n in sizes]):
        vecs = [np.eye(n)[i - 1] for n, i in zip(sizes, combo)]
        x = vecs[0]
        for v in vecs[1:]:
            x = np.kron(x, v)
        out[combo] = int(np.argmax(x)) + 1
    return out


def test_dims_validation():
    assert Dims([2, 3]).total == 6
    assert Dims([5]).order == 1
    with pytest.raises(ShapeError):
        Dims([])
    with pytest.raises(ShapeError):
        Dims([2, 0])
    with pytest.raises(SizeError):
        Dims([2**31, 2**31, 2**31])


def test_flatten_index_trivial_and_derived():
    # d=1 identity case
    assert flatten_index(PartialIndex({1: 3}), Dims([5])) == 3
    # derived from the Kronecker enumeration oracle
    oracle = kron_order_oracle((2, 3))
    assert oracle[(2, 1)] == 4
    assert flatten_index(PartialIndex({1: 2, 2: 1}), Dims([2, 3])) == 4
    oracle3 = kron_order_oracle((2, 2, 2))
    assert oracle3[(1, 2, 2)] == 4
    assert flatten_index(PartialIndex({1: 1, 2: 2, 3: 2}), Dims([2, 2, 2])) == 4


@pytest.mark.parametrize("sizes", [(5,), (2, 3), (2, 2, 2), (4, 2, 3), (2, 2, 2, 2)])
def test_flatten_index_bijective_and_matches_oracle(sizes):
    dims = Dims(sizes)
    oracle = kron_order_oracle(sizes)
    seen = set()
    for i in all_indices(dims):
        pos = flatten_index(i, dims)
        assert oracle[i.values] == pos
        assert unflatten_index(pos, dims) == i
        seen.add(pos)
    assert seen == set(range(1, dims.total + 1))


def test_flatten_index_errors():
    with pytest.raises(CoordinateError):
        flatten_index(PartialIndex({1: 6}), Dims([5]))
    with pytest.raises(AxisSetError):
        flatten_index(PartialIndex({1: 1}), Dims([2, 2]))


def test_partial_index_basics():
    i = PartialIndex({3: 1, 1: 2})
    assert i.axes == (1, 3)
    assert i[3] == 1
    assert len(EMPTY_INDEX) == 0
    assert PartialIndex({}) == EMPTY_INDEX
    with pytest.raises(CoordinateError):
        PartialIndex({1: 0})


def test_dot_times():
    j = PartialIndex({2: 3})
    assert dot_times(EMPTY_INDEX, j) == j
    combo = dot_times(PartialIndex({1: 2}), PartialIndex({3: 1}))
    assert combo == PartialIndex({1: 2, 3: 1})
    with pytest.raises(DisjointnessError):
        dot_times(PartialIndex({1: 1, 2: 1}), PartialIndex({1: 2}))


def test_dot_plus():
    assert dot_plus(PartialIndex({1: 1}), PartialIndex({1: 2}), d=2) == PartialIndex({1: 1, 3: 2})
    assert dot_plus(EMPTY_INDEX, PartialIndex({1: 1}), d=1) == PartialIndex({2: 1})
    with pytest.raises(DisjointnessError):
        dot_plus(PartialIndex({3: 1}), PartialIndex({1: 1}), d=2)


def test_restrict():
    i = PartialIndex({1: 2, 3: 1})
    assert restrict(i, {1, 3}) == i
    assert restrict(i, set()) == EMPTY_INDEX
    assert restrict(i, {3}) == PartialIndex({3: 1})
    with pytest.raises(AxisSetError):
        restrict(i, {2})


def test_dot_times_restrict_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(20):
        i = PartialIndex({1: int(rng.integers(1, 4)), 3: int(rng.integers(1, 4))})
        j = PartialIndex({2: int(rng.integers(1, 4))})
        combined = dot_times(i, j)
        assert restrict(combined, {1, 3}) == i
        assert restrict(combined, {2}) == j


def test_frobenius():
    assert frobenius(PartialArray((1, 2), (3, 3), np.zeros(9))) == 0.0
    assert frobenius(np.array([[3.0, 4.0], [0.0, 0.0]])) == 5.0
    N = 16
    ta = rearrange_matrix(np.eye(N), Dims([4, 4]))
    assert frobenius(ta) == pytest.approx(np.sqrt(N), rel=1e-15)


def test_rearrange_matrix_identity_cases():
    # d=1: the rearrangement is the matrix itself
    A = np.random.default_rng(1).standard_normal((5, 5))
    ta = rearrange_matrix(A, Dims([5]))
    assert np.array_equal(ta.data, A)
    # Id_4 with n=(2,2): entry 1 exactly where both row factors equal both column factors
    ta = rearrange_matrix(np.eye(4), Dims([2, 2]))
    for i in all_indices(Dims(ta.sizes)):
        expected = 1.0 if (i[1], i[2]) == (i[3], i[4]) else 0.0
        assert ta.entry(i) == expected


def test_rearrange_matrix_entry_convention_exact():
    rng = np.random.default_rng(2)
    dims = Dims([2, 3])
    A = rng.standard_normal((6, 6))
    ta = rearrange_matrix(A, dims)
    for i in all_indices(dims):
        for ip in all_indices(dims):
            full = dot_plus(i, ip, d=2)
            assert ta.entry(full) == A[flatten_index(i, dims) - 1, flatten_index(ip, dims) - 1]
    assert np.array_equal(unrearrange_matrix(ta), A)


def test_rearrange_quadratic_form_agreement():
    rng = np.random.default_rng(3)
    dims = Dims([2, 2])
    A = rng.standard_normal((4, 4))
    ta = rearrange_matrix(A, dims)
    for _ in range(10):
        x = [rng.standard_normal(2), rng.standard_normal(2)]
        X = np.kron(x[0], x[1])
        direct = X @ A @ X
        as_sum = sum(
            ta.entry(dot_plus(i, ip, d=2))
            * x[0][i[1] - 1] * x[1][i[2] - 1] * x[0][ip[1] - 1] * x[1][ip[2] - 1]
            for i in all_indices(dims)
            for ip in all_indices(dims)
        )
        assert as_sum == pytest.approx(direct, rel=1e-12)


def test_rearrange_matrix_shape_error():
    with pytest.raises(ShapeError):
        rearrange_matrix(np.zeros((4, 5)), Dims([2, 2]))
    with pytest.raises(ShapeError):
        rearrange_matrix(np.zeros((5, 5)), Dims([2, 2]))


def test_kronecker_consistency_exhaustive():
    rng = np.random.default_rng(4)
    for sizes in [(2,), (3, 4), (2, 3, 2), (2, 2, 2, 2)]:
        dims = Dims(sizes)
        x = [rng.standard_normal(n) for n in sizes]
        X = x[0]
        for v in x[1:]:
            X = np.kron(X, v)
        for i in all_indices(dims):
            prod = 1.0
            for l, n in enumerate(sizes, start=1):
                prod *= x[l - 1][i[l] - 1]
            assert X[flatten_index(i, dims) - 1] == pytest.approx(prod, rel=1e-14, abs=1e-300)


def test_tensor_array_entry_flat_roundtrip():
    rng = np.random.default_rng(5)
    dims = Dims([2, 3, 2])
    flat = rng.standard_normal(12)
    ta = PartialArray((1, 2, 3), dims.sizes, flat)
    for i in all_indices(dims):
        assert ta.entry(i) == flat[flatten_index(i, dims) - 1]
    with pytest.raises(ShapeError):
        PartialArray((1, 2, 3), dims.sizes, flat[:11])


def test_tensor_array_immutable():
    ta = PartialArray((1, 2), (2, 2), np.zeros(4))
    with pytest.raises(ValueError):
        ta.data[0, 0] = 1.0
    with pytest.raises(AttributeError):
        ta.sizes = (4,)


def test_matrix_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    A = rng.standard_normal((3, 4))
    path = tmp_path / "m.csv"
    save_matrix_csv(path, A)
    assert np.array_equal(load_matrix_csv(path), A)
    # hex-float cells round trip exactly too
    path.write_text("\n".join(",".join(float(v).hex() for v in row) for row in A) + "\n")
    assert np.array_equal(load_matrix_csv(path), A)


def test_matrix_csv_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ShapeError):
        load_matrix_csv(path)
