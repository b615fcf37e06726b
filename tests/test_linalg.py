"""Linear-algebra kernel tests with independent pure-Python oracles."""

import datetime as dt
import inspect
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sleepvar as sv
from sleepvar.errors import (
    ConvergenceError, DataError, NotPositiveDefiniteError, SingularDesignError,
)
from sleepvar.linalg import (
    HOLDS_BLAS_THREADS,
    OneBlasThread,
    augmented_r,
    cholesky_lower,
    one_blas_thread,
    solve_augmented,
    solve_least_squares,
    stability_radius,
)
from sleepvar.simulate import substream
from sleepvar.var import _lagged_design

from conftest import VAR2_SPEC, run_python


def gauss_solve(a, b):
    """Plain-Python Gaussian elimination with partial pivoting."""
    n = len(b)
    m = [row[:] + [bv] for row, bv in zip(a, b)]
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(m[r][c]))
        m[c], m[piv] = m[piv], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for j in range(c, n + 1):
                m[r][j] -= f * m[c][j]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        x[r] = (m[r][n] - sum(m[r][j] * x[j] for j in range(r + 1, n))) / m[r][r]
    return x


def normal_equations_oracle(design, target):
    """Least squares via explicitly formed normal equations (pure Python)."""
    rows = [list(map(float, r)) for r in design]
    y = list(map(float, target))
    m = len(rows[0])
    xtx = [[sum(r[i] * r[j] for r in rows) for j in range(m)] for i in range(m)]
    xty = [sum(r[i] * t for r, t in zip(rows, y)) for i in range(m)]
    return gauss_solve(xtx, xty)


class TestSolveLeastSquares:
    def test_identity_design(self):
        coef, resid, nmi = solve_least_squares(np.eye(3), np.array([[1.0], [2.0], [3.0]]))
        assert np.allclose(coef.ravel(), [1, 2, 3], atol=1e-14)
        assert np.allclose(resid, 0, atol=1e-14)
        assert np.allclose(nmi, np.eye(3), atol=1e-14)

    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0])
        design = np.column_stack([np.ones(3), x])
        coef, resid, _ = solve_least_squares(design, (2 * x + 1).reshape(-1, 1))
        assert np.allclose(coef.ravel(), [1.0, 2.0], atol=1e-12)
        assert np.allclose(resid, 0, atol=1e-12)

    def test_against_normal_equations_oracle(self):
        gen = substream(314, 0)
        design = gen.standard_normal((50, 3)) + 1.0
        target = gen.standard_normal(50)
        coef, _, _ = solve_least_squares(design, target.reshape(-1, 1))
        oracle = normal_equations_oracle(design.tolist(), target.tolist())
        assert np.abs(coef.ravel() - oracle).max() < 1e-8

    def test_normal_matrix_inverse(self):
        gen = substream(7, 0)
        design = gen.standard_normal((40, 4))
        _, _, nmi = solve_least_squares(design, gen.standard_normal((40, 2)))
        assert np.allclose(nmi @ (design.T @ design), np.eye(4), atol=1e-9)

    def test_singular_design_names_column(self):
        base = substream(1, 0).standard_normal(30)
        design = np.column_stack([np.ones(30), base, 2.0 * base])
        with pytest.raises(SingularDesignError) as err:
            solve_least_squares(design, np.zeros((30, 1)))
        assert err.value.column == 2

    def test_underdetermined_rejected(self):
        with pytest.raises(DataError, match="underdetermined"):
            solve_least_squares(np.ones((2, 3)), np.zeros((2, 1)))

    def test_residual_orthogonality(self):
        for seed in range(5):
            gen = substream(seed, 0)
            design = gen.standard_normal((60, 4))
            _, resid, _ = solve_least_squares(design, gen.standard_normal((60, 3)))
            assert np.abs(design.T @ resid).max() <= 1e-8


def augmented_stack(paths: np.ndarray, p: int) -> np.ndarray:
    return _lagged_design(paths, p)


def residual_cross(solved) -> np.ndarray:
    """The residuals' cross-products read from R: R_yy' R_yy for each matrix."""
    m = solved.deficient.shape[-1]
    r_yy = solved.r[..., m:, m:]
    return np.swapaxes(r_yy, -1, -2) @ r_yy


class TestSolveAugmented:
    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_per_path_lstsq(self, k, p):
        paths = substream(k * 10 + p, 0).standard_normal((6, 120, k)) + 0.5
        m = k * p + 1
        solved = solve_augmented(augmented_stack(paths, p), m)
        assert not solved.deficient.any()
        for c in range(paths.shape[0]):
            augmented = _lagged_design(paths[c], p)
            design, targets = augmented[:, :m], augmented[:, m:]
            coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
            resid = targets - design @ coef
            assert np.abs(solved.coefficients[c] - coef).max() <= 1e-12
            assert np.abs(residual_cross(solved)[c] - resid.T @ resid).max() <= 1e-12

    def test_constant_column_masks_only_its_replication(self):
        paths = substream(3, 0).standard_normal((5, 80, 3))
        paths[2, :, 1] = 0.0  # variable 1 constant: its R diagonal is exactly zero
        solved = solve_augmented(augmented_stack(paths, 2), 3 * 2 + 1)
        assert np.flatnonzero(solved.deficient.any(axis=1)).tolist() == [2]
        assert int(np.argmax(solved.deficient[2])) == 2
        assert not solved.coefficients[2].any()
        assert np.isfinite(solved.coefficients).all()

    def test_results_independent_of_stack_size(self):
        paths = substream(5, 0).standard_normal((7, 300, 5))
        paths[3] *= 1e-9  # the rank verdict is relative to each replication's own scale
        paths[5] *= 1e6
        aug = augmented_stack(paths, 2)
        whole = solve_augmented(aug, 11)
        assert not whole.deficient.any()
        for c in range(aug.shape[0]):
            alone = solve_augmented(aug[c : c + 1], 11)
            assert np.array_equal(alone.coefficients[0], whole.coefficients[c])
            assert np.array_equal(residual_cross(alone)[0], residual_cross(whole)[c])

    @pytest.mark.parametrize("k, p", [(2, 1), (5, 2), (3, 3)])
    def test_fit_var_equals_its_path_in_a_stack(self, k, p):
        paths = substream(k * 10 + p, 1).standard_normal((4, 150, k))
        solved = solve_augmented(_lagged_design(paths, p), k * p + 1)
        names = tuple(f"v{i}" for i in range(k))
        for c in range(paths.shape[0]):
            fit = sv.fit_var(sv.SeriesFrame(dt.date(2020, 1, 1), names, paths[c]), p)
            assert np.array_equal(fit.params_matrix(), solved.coefficients[c])

    def test_shape_validation(self):
        with pytest.raises(DataError, match="underdetermined"):
            solve_augmented(np.ones((1, 1, 4)), 2)
        with pytest.raises(DataError, match="design width"):
            solve_augmented(np.ones((1, 9, 4)), 4)
        with pytest.raises(DataError, match="at least 2-D"):
            solve_augmented(np.ones(4), 2)

    def test_fewer_rows_than_augmented_columns(self):
        # n >= m is enough: R then has n rows, and R_yy holds n - m of them
        aug = substream(9, 0).standard_normal((2, 4, 5))
        solved = solve_augmented(aug, 3)
        for c in range(2):
            design, targets = aug[c, :, :3], aug[c, :, 3:]
            coef = np.linalg.solve(design.T @ design, design.T @ targets)
            resid = targets - design @ coef
            assert np.abs(solved.coefficients[c] - coef).max() <= 1e-10
            assert np.abs(residual_cross(solved)[c] - resid.T @ resid).max() <= 1e-10


# The kernel calls LAPACK dgeqrf through numpy's semi-private lapack_lite;
# its R must stay bit-identical to numpy's own QR, which runs the same
# dgeqrf on a copy.  Run in a fresh interpreter so the BLAS thread count
# holds: more than 128 columns take dgeqrf's blocked path, whose BLAS-3
# updates are the calls that can thread.
QR_PARITY_SCRIPT = """
import numpy as np
from sleepvar.linalg import augmented_r

def column_major(a):
    return np.swapaxes(np.ascontiguousarray(np.swapaxes(a, -1, -2)), -1, -2)

gen = np.random.default_rng(7)
cases = {
    "single": (gen.standard_normal((300, 12)), 9),
    "blocked": (gen.standard_normal((400, 160)), 150),
    "stack": (gen.standard_normal((5, 120, 9)), 7),
    "n < width": (gen.standard_normal((3, 6, 9)), 4),
    "integer": (gen.integers(-9, 10, (50, 6)), 4),
}
read_only = gen.standard_normal((40, 5))
read_only.flags.writeable = False
cases["read-only"] = (read_only, 3)
failed = []
for name, (a, m) in cases.items():
    want = np.linalg.qr(a, mode="r")
    got = {"C-ordered": augmented_r(a, m), "overwrite, C-ordered": augmented_r(a, m, True)}
    if a.dtype == float and a.flags.writeable:
        got["overwrite, column-major"] = augmented_r(column_major(a), m, True)
        got["column-major"] = augmented_r(column_major(a), m)
    failed += [f"{name}, {how}" for how, r in got.items()
               if r.shape != want.shape or r.tobytes() != want.tobytes()]
print(failed)
"""


def wide_design_digests(merged_csv: str) -> dict:
    """sha256 digests of two results on designs wider than 128 columns, where
    LAPACK's blocked QR threads its BLAS calls: the R factor of a 3620x156
    order-search design (a 10-year session at 30 lags), and the stdout of
    ``select-order --maxlags 30 --json`` on ``merged_csv``."""
    import contextlib
    import hashlib
    import io

    from sleepvar.cli import main
    from sleepvar.linalg import augmented_r
    from sleepvar.simulate import substream
    from sleepvar.var import _lagged_design

    r = augmented_r(_lagged_design(substream(12, 0).standard_normal((3650, 5)), 30), 151)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["select-order", merged_csv, "--maxlags", "30", "--json"])
    return {"R": hashlib.sha256(r.tobytes()).hexdigest(),
            "select-order": hashlib.sha256(out.getvalue().encode()).hexdigest()}


class TestAugmentedR:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_equals_numpy_qr_bit_for_bit(self, threads):
        assert run_python("-c", QR_PARITY_SCRIPT, threads=threads).stdout.strip() == "[]"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_wide_designs_same_bits_at_any_thread_count(self, threads, quickstart_files):
        # the guard holds BLAS at one thread around every QR, so a child at
        # either thread count reproduces this process's bits
        if not HOLDS_BLAS_THREADS:
            pytest.skip("numpy's BLAS exports no thread setter here")
        script = (inspect.getsource(wide_design_digests)
                  + "import json, sys\nprint(json.dumps(wide_design_digests(sys.argv[1])))")
        merged = quickstart_files["merged"]
        got = json.loads(run_python("-c", script, merged, threads=threads).stdout)
        assert got == wide_design_digests(merged)

    def test_default_leaves_argument_untouched(self):
        aug = augmented_stack(substream(11, 0).standard_normal((3, 90, 4)), 2)
        before = aug.copy()
        augmented_r(aug, 9)
        solve_augmented(aug, 9)
        assert np.array_equal(aug, before)

    def test_overwrite_factors_the_column_major_buffer_in_place(self):
        aug = augmented_stack(substream(11, 1).standard_normal((3, 90, 4)), 2)
        r = augmented_r(aug, 9, overwrite_a=True)
        assert not np.shares_memory(r, aug)  # R does not keep the buffer alive
        assert np.array_equal(np.triu(aug[:, :13]), r)  # the buffer holds the factors

    def test_overwrite_copies_what_it_cannot_factor_in_place(self):
        c_ordered = substream(11, 2).standard_normal((60, 5))
        read_only = np.asfortranarray(c_ordered)
        read_only.flags.writeable = False
        for a in (c_ordered, read_only):
            before = a.copy()
            augmented_r(a, 3, overwrite_a=True)
            assert np.array_equal(a, before)

    def test_empty_stack(self):
        assert augmented_r(np.empty((0, 6, 4)), 2).shape == (0, 4, 4)

    def test_select_order_peak_memory_near_its_design(self):
        # the max_lags design is factored where the builder made it: the
        # traced peak is that buffer plus small temporaries (1.13x measured;
        # numpy's QR copied it twice, 2.06x)
        t, k, max_lags = 3650, 5, 30
        frame = sv.SeriesFrame(dt.date(2020, 1, 1), tuple("abcde"),
                               substream(12, 0).standard_normal((t, k)))
        design_bytes = (t - max_lags) * (1 + k * max_lags + k) * 8
        tracemalloc.start()
        try:
            sv.select_order(frame, max_lags)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * design_bytes


class FakeThreads:
    """A (set, get) pair over a plain count, recording every count set."""

    def __init__(self, count: int):
        self.count, self.history = count, []

    def set(self, n: int) -> None:
        self.count = n
        self.history.append(n)

    def get(self) -> int:
        return self.count


class TestOneBlasThread:
    @pytest.mark.skipif(not HOLDS_BLAS_THREADS, reason="numpy's BLAS exports no thread setter")
    def test_restores_the_callers_count_after_nested_and_raising_entries(self):
        set_threads, get_threads = one_blas_thread.threads
        before = get_threads()
        set_threads(2)
        try:
            with one_blas_thread:
                assert get_threads() == 1
                with one_blas_thread:
                    assert get_threads() == 1
                assert get_threads() == 1  # the inner exit is not the last
            assert get_threads() == 2
            nan_matrix = np.ones((6, 3))
            nan_matrix[2, 1] = np.nan
            with pytest.raises(DataError, match="non-finite"):
                augmented_r(nan_matrix, 2)  # raises inside the hold
            assert get_threads() == 2
        finally:
            set_threads(before)

    def test_concurrent_entries_share_one_hold(self):
        fake = FakeThreads(4)
        guard = OneBlasThread((fake.set, fake.get))
        seen, errors = set(), []

        def work():
            try:
                for _ in range(300):
                    with guard:
                        with guard:
                            seen.add(fake.count)
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers) and not errors
        assert seen == {1}  # no entry ran with the caller's count
        assert fake.count == 4 and guard._entries == 0
        # every hold set one thread and restored four, in that order
        assert fake.history[0::2] == [1] * (len(fake.history) // 2)
        assert fake.history[1::2] == [4] * (len(fake.history) // 2)

    def test_without_a_setter_it_does_nothing_and_results_hold(self, monkeypatch,
                                                                 dataset_frame):
        def results():
            fit = sv.fit_var(dataset_frame, 2)
            return (sv.select_order(dataset_frame, 15).table, fit.params_matrix(),
                    sv.adf_test(dataset_frame.column("score")).statistic,
                    sv.granger_test(fit, "score", "depressed").statistic,
                    sv.irf_with_bands(fit, horizon=4, replications=100, seed=3).upper,
                    sv.simulate_var(VAR2_SPEC, 50, seed=1).values)

        held = results()
        real = one_blas_thread.threads
        monkeypatch.setattr(one_blas_thread, "threads", None)
        if real is not None:  # the count stays as the caller set it
            set_threads, get_threads = real
            before = get_threads()
            set_threads(2)
            try:
                with one_blas_thread:
                    assert get_threads() == 2
            finally:
                set_threads(before)
        for before, after in zip(held, results()):
            assert np.array_equal(before, after)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky_lower(np.eye(3)), np.eye(3))

    def test_hand_factorization(self):
        low = cholesky_lower(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(low, [[2.0, 0.0], [1.0, 2.0]], atol=1e-14)
        assert np.allclose(low @ low.T, [[4, 2], [2, 5]], atol=1e-12)

    def test_indefinite_rejected_with_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert err.value.pivot == 1
        # the failing pivot first, in the middle and last of a 5x5 matrix: the
        # leading block before it is the identity, so d = a_jj - a_j,j-1^2 exactly
        for j, diagonal, d in ((0, -1.0, "-1.000e+00"), (2, 1.0, "-3.000e+00"),
                               (4, 1.5, "-2.500e+00")):
            a = np.eye(5)
            a[j, j] = diagonal
            if j:
                a[j, j - 1] = a[j - 1, j] = 2.0
            with pytest.raises(NotPositiveDefiniteError) as err:
                cholesky_lower(a)
            assert err.value.pivot == j
            assert str(err.value) == f"matrix is not positive definite: pivot {j} is {d}"
            # one matrix only: a stack is not factored
            with pytest.raises(DataError, match="square"):
                cholesky_lower(np.stack([np.eye(5), a]))

    def test_asymmetric_rejected(self):
        with pytest.raises(DataError, match="symmetric"):
            cholesky_lower(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @given(st.integers(1, 5), st.integers(0, 1000))
    @settings(max_examples=40)
    def test_recovers_lower_triangular_root(self, k, seed):
        gen = substream(seed, 3)
        low = np.tril(gen.standard_normal((k, k)))
        low[np.diag_indices(k)] = np.abs(low[np.diag_indices(k)]) + 0.5
        again = cholesky_lower(low @ low.T)
        assert np.abs(again - low).max() < 1e-10
        assert again.tobytes() == np.linalg.cholesky(low @ low.T).tobytes()


class TestStabilityRadius:
    def test_diagonal(self):
        assert stability_radius(np.array([np.diag([0.5, -0.2])])) == pytest.approx(0.5, abs=1e-12)

    def test_scalar_ar1(self):
        assert stability_radius(np.array([[[0.9]]])) == pytest.approx(0.9, abs=1e-12)

    def test_var2_quadratic_root(self):
        # max modulus root of z^2 - 0.5 z - 0.3 by the quadratic formula
        expected = (0.5 + np.sqrt(0.25 + 1.2)) / 2.0
        coef = np.array([0.5 * np.eye(2), 0.3 * np.eye(2)])
        assert stability_radius(coef) == pytest.approx(expected, abs=1e-10)

    def test_lag_order_matters(self):
        # A_j = a_j E with idempotent E: the roots are those of z^2 - a1 z - a2
        # and two zeros; (a1, a2) = (-0.5, 0.6) has one at -1.064, and swapped,
        # the roots are complex of modulus sqrt(0.5)
        e = np.array([[1.0, -1.0], [0.0, 0.0]])
        assert stability_radius(np.multiply.outer((-0.5, 0.6), e)) == pytest.approx(
            (0.5 + np.sqrt(0.25 + 2.4)) / 2.0, abs=1e-12
        )
        assert stability_radius(np.multiply.outer((0.6, -0.5), e)) == pytest.approx(
            np.sqrt(0.5), abs=1e-12
        )

    def test_var0(self):
        assert stability_radius(np.zeros((0, 3, 3))) == 0.0

    def test_eigenvalue_failure_is_convergence_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(ConvergenceError) as err:
            stability_radius(np.array([[[0.5]]]))
        assert str(err.value) == (
            "eigenvalue computation failed to converge: Eigenvalues did not converge"
        )

    @given(st.floats(-4.0, 4.0), st.integers(1, 3), st.integers(0, 500))
    @settings(max_examples=40)
    def test_absolute_homogeneity(self, c, p, seed):
        # scaling each A_j by c^j scales every companion eigenvalue by c
        coef = substream(seed, 5).standard_normal((p, 2, 2))
        scaled = coef * c ** np.arange(1, p + 1)[:, None, None]
        assert stability_radius(scaled) == pytest.approx(
            abs(c) * stability_radius(coef), rel=1e-9, abs=1e-12
        )
