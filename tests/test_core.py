import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgelines.core import (
    DomainError,
    Interval,
    LatticeParams,
    LineEnsemble,
    RngSeed,
    WeylVector,
    _avoids,
    _rejection_loop,
    check_avoiding,
    read_ensembles,
    write_ensembles,
)


def test_interval_requires_order():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    assert Interval(0, 2).length == 2


def test_weyl_vector_strictly_decreasing():
    WeylVector((3.0, 1.0, 0.5))
    with pytest.raises(DomainError):
        WeylVector((1.0, 1.0))
    with pytest.raises(DomainError):
        WeylVector(())


def test_check_avoiding_examples():
    iv = Interval(0, 1)
    one = LineEnsemble(iv, np.array([[0.3, -0.2, 0.4]]))
    assert check_avoiding(one)
    two = LineEnsemble(iv, np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
    assert check_avoiding(two)
    touching = LineEnsemble(iv, np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    assert not check_avoiding(touching)


def _avoids_oracle(rows, f, g):
    # plain-Python reading of f > row_0 > ... > row_{k-1} > g at every column
    for j in range(len(rows[0])):
        col = [f[j]] + [row[j] for row in rows] + [g[j]]
        if any(col[i] <= col[i + 1] for i in range(len(col) - 1)):
            return False
    return True


def test_avoids_predicate_table():
    # curves at integer levels two apart plus noise in {-1, 0, 1}: neighbours and
    # barriers touch (compare equal) in a good share of the rows
    rng = np.random.default_rng(0)
    inf = np.full(5, np.inf)
    for k in (1, 2, 3):
        levels = 2.0 * np.arange(k)[::-1, None] - (k - 1)
        stack = levels + rng.integers(-1, 2, size=(400, k, 5))
        f = k + np.array([1.0, 0.0, 1.0, 1.0, 1.0])
        g = -f[::-1]
        for f_vals, g_vals in ((inf, -inf), (f, -inf), (inf, g), (f, g)):
            got = _avoids(stack, f_vals, g_vals)
            want = [_avoids_oracle(rows.tolist(), f_vals.tolist(), g_vals.tolist()) for rows in stack]
            assert got.shape == (400,) and got.tolist() == want
            constrained = k > 1 or f_vals is f or g_vals is g
            assert any(want) and (not all(want) or not constrained)


def test_check_avoiding_barriers():
    iv = Interval(0, 1)
    ens = LineEnsemble(iv, np.array([[0.5, 0.5, 0.5]]))
    assert check_avoiding(ens, g=0.0)
    assert not check_avoiding(ens, g=0.5)
    assert not check_avoiding(ens, f=0.5)
    assert check_avoiding(ens, 0.6, 0.4)
    assert not check_avoiding(ens, np.nan, np.nan)


@settings(max_examples=30)
@given(st.integers(2, 40), st.integers(0, 10**6))
def test_lattice_interpolation_preserves_strict_order(n_steps, seed):
    # strict order at grid points plus dx-lattice values implies order at all t
    lat = LatticeParams(Interval(0, 1), n_steps)
    rng = np.random.default_rng(seed)
    steps = rng.integers(-1, 2, size=(2, n_steps))
    top = np.concatenate([[0], np.cumsum(steps[0])]) + n_steps + 1
    bot = np.concatenate([[0], np.cumsum(steps[1])])
    if not np.all(top > bot):
        return
    ens = LineEnsemble(lat.interval, np.stack([top, bot]) * lat.dx)
    assert check_avoiding(ens)
    ts = rng.uniform(0, 1, size=200)
    assert np.all(np.interp(ts, ens.grid, ens.values[0]) > np.interp(ts, ens.grid, ens.values[1]))


def test_lattice_params_invariants():
    lat = LatticeParams.scaled(Interval(0, 2), 4)
    assert lat.n_steps == 16
    assert lat.dt * lat.n_steps == pytest.approx(2.0, rel=1e-12)
    assert lat.dx**2 == pytest.approx(1.5 * lat.dt, rel=1e-12)
    assert lat.snap_units(3 * lat.dx) == 3
    with pytest.raises(DomainError):
        lat.snap_units(0.4999 * lat.dx)


def test_rng_seed_reproducible_and_derivation():
    a = RngSeed(42, 7).generator().standard_normal(8)
    b = RngSeed(42, 7).generator().standard_normal(8)
    assert np.array_equal(a, b)
    d1 = RngSeed(42).derive("x")
    d2 = RngSeed(42).derive("x")
    assert d1 == d2
    assert d1 != RngSeed(42).derive("y")
    with pytest.raises(DomainError):
        RngSeed(-1)


def test_rejection_rows_keep_their_first_acceptances():
    # k = 1, one column: each row's candidates are its own draw indices 0, 1, 2, ...
    # and row r accepts the ones above its lower barrier
    def draw(rows, nc):
        start = drawn_so_far[rows]
        drawn_so_far[rows] += nc
        return (start[:, None] + np.arange(nc))[:, :, None, None].astype(float)

    def accept(rows, cands):
        return _avoids(cands, np.inf, thresholds[rows, None])

    thresholds = np.array([[0.5], [2.5], [5.5]])
    drawn_so_far = np.zeros(3, dtype=int)
    vals, drawn, seen, first_hit = _rejection_loop(draw, accept, 3, (1, 1), 2, 100, 4)
    # chunk 4: one draw per row while 3 rows wait, then 2 for 2 rows, then 4 for the last
    assert vals[:, :, 0, 0].tolist() == [[1.0, 2.0], [3.0, 4.0], [6.0, 7.0]]
    assert drawn.tolist() == [3, 5, 9]
    assert seen.tolist() == [2, 2, 3]
    assert first_hit.tolist() == [1, 3, 6]
    # max_attempts caps each row: the last row draws index 5 only and gets nothing
    drawn_so_far[:] = 0
    vals, drawn, seen, first_hit = _rejection_loop(draw, accept, 3, (1, 1), 2, 6, 4)
    assert vals.shape == (3, 0, 1, 1)
    assert drawn.tolist() == [3, 5, 6]
    assert first_hit.tolist() == [1, 3, -1]
    # every candidate passes: each row keeps the first two of its round of three
    drawn_so_far[:] = 0
    thresholds[:] = -1.0
    vals, drawn, seen, first_hit = _rejection_loop(draw, accept, 3, (1, 1), 2, 100, 9)
    assert vals[:, :, 0, 0].tolist() == [[0.0, 1.0]] * 3
    assert drawn.tolist() == seen.tolist() == [3, 3, 3]
    assert first_hit.tolist() == [0, 0, 0]


def test_serialization_roundtrip(tmp_path):
    iv = Interval(-1.0, 2.5)
    rng = np.random.default_rng(0)
    ens = [
        LineEnsemble(iv, rng.normal(size=(2, 5))[np.argsort(-rng.normal(size=2))]),
        LineEnsemble(Interval(0, 1), rng.normal(size=(1, 3))),
    ]
    path = tmp_path / "curves.txt"
    write_ensembles(path, ens)
    back = read_ensembles(path)
    assert len(back) == 2
    for orig, got in zip(ens, back):
        assert got.interval == orig.interval
        assert np.array_equal(got.values, orig.values)
    # every data line starts with its grid time as a plain float literal
    lines = path.read_text().splitlines()
    pos = 0
    for orig in ens:
        pos += 1
        for t in orig.grid:
            assert float(lines[pos].split()[0]) == t
            pos += 1
    assert pos == len(lines)


def test_write_ensembles_byte_format(tmp_path):
    # bytes recorded from the per-value writer: every float is Python's shortest
    # round-trip repr, the header keeps the interval's own repr (ints print as ints)
    iv = Interval(-1.0, 2.5)
    ens = [
        LineEnsemble(iv, np.array([[-0.0, 1e-05, 1e+16], [0.1 + 0.2, 5e-324, -2.5],
                                   [-1e-300, -7.0, -1e+16]])),
        LineEnsemble(Interval(0, 1), np.array([[3, -2, 0, 7]])),
        LineEnsemble(iv, np.array([[1 / 3, 2 / 3, 1.0]])),
    ]
    path = tmp_path / "curves.txt"
    write_ensembles(path, ens)
    assert path.read_bytes() == (
        b"3 2 -1.0 2.5\n"
        b"-1.0 -0.0 0.30000000000000004 -1e-300\n"
        b"0.75 1e-05 5e-324 -7.0\n"
        b"2.5 1e+16 -2.5 -1e+16\n"
        b"1 3 0 1\n"
        b"0.0 3.0\n"
        b"0.3333333333333333 -2.0\n"
        b"0.6666666666666666 0.0\n"
        b"1.0 7.0\n"
        b"1 2 -1.0 2.5\n"
        b"-1.0 0.3333333333333333\n"
        b"0.75 0.6666666666666666\n"
        b"2.5 1.0\n"
    )
