"""Independent oracles and failure fixtures for the test suite.

Oracles here deliberately avoid the library's code paths (direct O(N^2)
DFT sums, nested-loop convolution, finite-difference Jacobians, the plain
cutoff loop) so each test compares two genuinely different routes to the
same number. Synthetic scenes, the known H and the stand-in detector come
from the library: ``sarfx.scene`` and ``sarfx.residual_variance``.
"""

import builtins
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from sarfx import raster


def naive_dft2(x: np.ndarray) -> np.ndarray:
    """Direct O(N^2 M^2) unnormalized forward DFT, DC-centered."""
    x = np.asarray(x, dtype=np.complex128)
    h, w = x.shape
    out = np.zeros((h, w), dtype=np.complex128)
    for ky in range(h):
        for kx in range(w):
            acc = 0.0 + 0.0j
            for ny in range(h):
                for nx in range(w):
                    acc += x[ny, nx] * np.exp(-2j * np.pi * (ky * ny / h + kx * nx / w))
            out[ky, kx] = acc
    return np.fft.fftshift(out)


def naive_idft2(spectrum_centered: np.ndarray) -> np.ndarray:
    """Direct inverse DFT with 1/(N*M) scaling from a DC-centered spectrum."""
    s = np.fft.ifftshift(np.asarray(spectrum_centered, dtype=np.complex128))
    h, w = s.shape
    out = np.zeros((h, w), dtype=np.complex128)
    for ny in range(h):
        for nx in range(w):
            acc = 0.0 + 0.0j
            for ky in range(h):
                for kx in range(w):
                    acc += s[ky, kx] * np.exp(2j * np.pi * (ky * ny / h + kx * nx / w))
            out[ny, nx] = acc / (h * w)
    return out


def naive_convolve_reflect(plane: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Nested-loop 2D convolution with symmetric (reflective) padding."""
    kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    padded = np.pad(plane, ((ph, ph), (pw, pw)), mode="symmetric")
    h, w = plane.shape
    out = np.zeros_like(plane, dtype=np.float64)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for u in range(kh):
                for v in range(kw):
                    acc += padded[i + u, j + v] * kernel[u, v]
            out[i, j] = acc
    return out


def circular_valid_convolve(plane: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """scipy's whole-plane transforms at the circular sizes, next_fast_len(m) per axis,
    cropped to the valid part, which never wraps."""
    from scipy import fft as sp_fft

    sizes = [sp_fft.next_fast_len(m, True) for m in plane.shape]
    crop = tuple(slice(k - 1, m) for m, k in zip(plane.shape, kernel.shape))
    return sp_fft.irfftn(sp_fft.rfftn(plane, sizes) * sp_fft.rfftn(kernel, sizes), sizes)[crop]


def assert_near_fftconvolve(out, plane, kernel):
    """``out`` within 8 eps of ``fftconvolve(plane, kernel, "valid")`` per unit of
    max|plane| * sum|kernel|: the transforms' roundoff and a direct sum's differ."""
    from scipy import signal

    bound = 8 * np.finfo(np.float64).eps * np.abs(plane).max() * np.abs(kernel).sum()
    assert np.abs(out - signal.fftconvolve(plane, kernel, "valid")).max() <= bound


def moment_planes(a, b):
    """The four moments ``metrics._moment_blocks(a, b)`` yields as planes: each block is
    copied before the next overwrites it, and the blocks start every ``_TILE`` rows."""
    from sarfx import metrics

    blocks = [(rows, block.copy()) for rows, block in metrics._moment_blocks(a, b)]
    kept_rows = len(a) - metrics.SSIM_WINDOW_SIZE + 1
    assert [rows.start for rows, _ in blocks] == list(range(0, kept_rows, metrics._TILE))
    return np.concatenate([block for _, block in blocks], axis=1)


def assert_moments_near_fftconvolve(a, b):
    """mu_a, mu_b, W(a*a + b*b) and W(a*b) each near ``fftconvolve`` with the SSIM window."""
    from sarfx.metrics import gaussian_window

    for moment, formed in zip(moment_planes(a, b), (a, b, a * a + b * b, a * b)):
        assert_near_fftconvolve(moment, formed, gaussian_window())


def padded_row_smoothing(plane: np.ndarray, sigma: float, kernel_size: int) -> np.ndarray:
    """The smoothing the DCT-domain product replaced: each axis in turn, rows of the
    transposed plane padded symmetrically by the kernel radius and convolved by
    ``rfft``/``irfft`` at ``next_fast_len(N + 2r + k - 1)`` points, valid part kept."""
    from scipy import fft as sp_fft

    from sarfx.spectral import gaussian_kernel_1d

    k = gaussian_kernel_1d(sigma, kernel_size)
    r = kernel_size // 2
    out = np.asarray(plane, dtype=np.float64)
    for _ in range(2):
        padded = np.pad(out.T, ((0, 0), (r, r)), "symmetric")
        n = sp_fft.next_fast_len(padded.shape[1] + kernel_size - 1, True)
        rows = np.fft.irfft(np.fft.rfft(padded, n, axis=1) * np.fft.rfft(k, n), n, axis=1)
        out = rows[:, kernel_size - 1:padded.shape[1]]
    return np.maximum(out, 0.0)


def fd_normal_equations(residual_fn, rel_step=1e-6, abs_floor=1e-9):
    """Solver oracle: ``x -> (JᵀJ, Jᵀr)`` from a central-difference Jacobian of
    ``residual_fn``, for residuals without an analytic one."""
    def normal_equations(x):
        x = np.asarray(x, dtype=np.float64)
        r = np.asarray(residual_fn(x), dtype=np.float64)
        jac = np.empty((r.size, x.size))
        for i in range(x.size):
            h = max(rel_step * abs(x[i]), abs_floor)
            step = np.zeros_like(x)
            step[i] = h
            jac[:, i] = (np.asarray(residual_fn(x + step)) - np.asarray(residual_fn(x - step))) / (2 * h)
        return jac.T @ jac, jac.T @ r

    return normal_equations


def sum_of_squares(residual_fn):
    """``(cost, exact_cost)`` of ``sum(residual_fn(x)**2)`` for the solver: the
    cost is exact, with bound 0."""
    def exact_cost(x):
        r = np.asarray(residual_fn(x), dtype=np.float64)
        return float(np.sum(r * r))

    return (lambda x: (exact_cost(x), 0.0)), exact_cost


def plane_cost_and_jtr(data, model, jacobian):
    """The plane path the projection-space fit replaces: the residual plane
    R = model − D, its sum of squares, and Jᵀr for the dense (h·w, n) Jacobian."""
    r = (model - data).ravel()
    return float(r @ r), jacobian.T @ r


def prescan_cost(marginal, f, fc, alpha, beta):
    """Squared error of the axis lobe ``alpha - beta*cos(pi(|f|-fc)/fc)`` on
    ``|f| <= fc`` against a marginal, summed over the whole axis."""
    fa = np.abs(f)
    inside = (fa <= fc).astype(np.float64)
    b1 = -np.cos(np.pi * (fa - fc) / fc) * inside
    model = alpha * inside + beta * b1
    return float(np.sum((model - marginal) ** 2))


def prescan_cutoff_loop(marginal, f, nyq):
    """The cutoff prescan as a plain loop over the candidates: the oracle whose
    least ``prescan_cost`` the folded scan must reach within rounding."""
    fa = np.abs(f)
    best = None
    for fc in np.arange(1.5, nyq + 0.25, 0.25):
        inside = (fa <= fc).astype(np.float64)
        b1 = -np.cos(np.pi * (fa - fc) / fc) * inside
        g00 = inside @ inside
        g01 = inside @ b1
        g11 = b1 @ b1
        r0 = inside @ marginal
        r1 = b1 @ marginal
        det = g00 * g11 - g01 * g01
        if det <= 1e-12:
            continue
        alpha = (g11 * r0 - g01 * r1) / det
        beta = (g00 * r1 - g01 * r0) / det
        cost = prescan_cost(marginal, f, fc, alpha, beta)
        if best is None or cost < best[0]:
            best = (cost, float(fc), float(alpha), float(beta))
    if best is None:
        return 0.9 * nyq, 1.0, 1.0
    return best[1], best[2], best[3]


class _FailingWriter:
    """File stand-in that writes half of the first chunk, then fails as a full disk would."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


def fail_raster_module_writes(monkeypatch, target=None):
    """Make every file that sarfx.raster opens for writing fail partway, or,
    given ``target``, only the temp file of an atomic write to that file name."""
    def failing_open(path, mode="r", *args, **kwargs):
        fh = builtins.open(path, mode, *args, **kwargs)
        writing = "w" in mode or "x" in mode
        if writing and (target is None or Path(path).name.startswith(f".{target}.")):
            return _FailingWriter(fh)
        return fh

    monkeypatch.setattr(raster, "open", failing_open, raising=False)


def assert_threaded_equals_serial(fn, inputs, workers=4, rounds=2):
    """``fn`` over ``inputs`` on a thread pool, ``rounds`` times, gives exactly the
    serial results: shared caches may hold no per-call work buffers."""
    serial = [fn(*args) for args in inputs]
    for _ in range(rounds):
        with ThreadPoolExecutor(workers) as pool:
            threaded = list(pool.map(lambda args: fn(*args), inputs))
        np.testing.assert_equal(threaded, serial)
