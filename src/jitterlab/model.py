"""Subspace signal model, measurement noise, and seeded sample generation.

Signals live in a d-dimensional subspace of R^n: x = U c with U an n x d
orthonormal basis and latent coefficients c ~ N(0, sigma_c^2/d * I), so the
expected signal energy E||x||^2 is sigma_c^2.  Measurements are y = A x + z
with A an m x n forward operator and z ~ N(0, sigma_z^2/m * I), so the
expected noise energy E||z||^2 is sigma_z^2.  Per-coordinate noise variance
is sigma_z^2/m throughout; denoising is the m = n special case.

Randomness comes from counter-based Philox streams keyed by a master seed
plus a stream path, so sample generation is reproducible bit-for-bit and
parallelizable by chunk without shared state.  A draw holds X, Y, C and
one row block; an evaluation set drawn in latent coordinates forms no X or Y.

Every numeric parameter's range is one rule, _check_nonnegative (>= 0) or
_check_positive (> 0) on numbers or arrays: NaN fails, and the error names it.
A count is also checked by _check_integer: an int, not a bool or a float.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import InvalidDimensionError, InvalidParameterError

# Samples are drawn in fixed-size chunks, one RNG stream per chunk, so that
# the first k samples of a run do not depend on how many were requested.  A
# stream is read _ROW_BLOCK full-width rows at a time, in one full read's order.
_CHUNK, _ROW_BLOCK = 4096, 8
# A last column block narrower than this joins the block before it: OpenBLAS
# may round a product over a narrow tail block unlike the same columns of a
# wider product, and matches from 255 columns up, at multiples of 64, and for
# a merged last block.
_MIN_TAIL = 512

_ORTHO_TOL = 1e-10


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent counter-based generator for one (seed, path) coordinate.

    Streams with distinct paths are statistically independent; the same
    (seed, path) always yields the same stream (Philox4x64-10 keyed through
    a SeedSequence spawn key).
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


def _sub_seed(master: int, *path: int) -> int:
    """Integer seed for one (master, path) coordinate, as a SeedSequence spawn key."""
    return int(np.random.SeedSequence(master, spawn_key=path).generate_state(1)[0])


def _check_nonnegative(**values) -> None:
    """The one range rule: each named number or array is >= 0 throughout; NaN fails it."""
    for name, value in values.items():
        if not (np.asarray(value) >= 0.0).all():
            raise InvalidParameterError(f"{name} must be >= 0, got {value}")


def _check_positive(**values) -> None:
    """_check_nonnegative's strict twin: each named number or array is > 0 throughout."""
    for name, value in values.items():
        if not (np.asarray(value) > 0.0).all():
            raise InvalidParameterError(f"{name} must be > 0, got {value}")


def _check_integer(**values) -> None:
    """Each named value is an integer (numbers.Integral, but not bool)."""
    for name, value in values.items():
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise InvalidParameterError(f"{name} must be an int, got {value!r}")


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SubspaceModel:
    """Orthonormal basis U (n x d) plus the signal scale sigma_c."""

    basis: np.ndarray
    sigma_c: float

    def __post_init__(self) -> None:
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2:
            raise InvalidDimensionError("basis must be a 2-D array")
        n, d = basis.shape
        if d == 0 or d > n:
            raise InvalidDimensionError(f"need 1 <= d <= n, got n={n}, d={d}")
        gram_err = np.abs(basis.T @ basis - np.eye(d)).max()
        if not gram_err <= _ORTHO_TOL:  # NaN fails
            raise InvalidParameterError(
                f"basis columns not orthonormal: max |U'U - I| = {gram_err:.3e}"
            )
        _check_nonnegative(sigma_c=self.sigma_c)
        if not np.isfinite(self.sigma_c):
            raise InvalidParameterError(f"sigma_c must be finite, got {self.sigma_c!r}")
        object.__setattr__(self, "basis", _readonly(basis))

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def d(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class NoiseModel:
    """Isotropic Gaussian noise in R^m with total expected energy sigma_z^2."""

    m: int
    sigma_z: float

    def __post_init__(self) -> None:
        if not self.m >= 1:
            raise InvalidDimensionError(f"m must be >= 1, got {self.m}")
        _check_nonnegative(sigma_z=self.sigma_z)
        if not np.isfinite(self.sigma_z):
            raise InvalidParameterError(f"sigma_z must be finite, got {self.sigma_z!r}")

    @property
    def per_coordinate_std(self) -> float:
        return self.sigma_z / np.sqrt(self.m)


class ForwardOperator:
    """Linear measurement map A (m x n), with the SVD of A U on demand.

    The factorization A U = W diag(lambda) V (W: m x k with orthonormal
    columns, lambda sorted non-increasing and >= 0, V: k x d with
    orthonormal rows) depends on the model basis, so it is computed lazily
    and kept for the most recent basis.  The operator holds that basis
    array itself and matches it by identity, so the held basis cannot be
    freed and have its id reused by another model's basis.  `diagonal` is
    A's diagonal if A is square and diagonal, else None; `apply` then scales
    x's rows by it, with the matmul's bits (zero terms add nothing).
    """

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise InvalidDimensionError("operator matrix must be 2-D")
        if not np.all(np.isfinite(matrix)):
            raise InvalidParameterError("operator matrix must be finite")
        self.matrix = _readonly(matrix)
        diag = np.diagonal(self.matrix)
        self.diagonal = diag if np.array_equal(self.matrix, np.diag(diag)) else None
        self._svd_held: tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """A x (x: (..., n, N)) into out; a row scaling if A is diagonal, when out may be x."""
        if self.diagonal is None:
            return np.matmul(self.matrix, x, out=out)
        return np.multiply(self.diagonal[:, None], x, out=out)

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    def au_svd(self, model: SubspaceModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """SVD factors (W, lambda, V) of A U for this model's basis."""
        if model.n != self.n:
            raise InvalidDimensionError(
                f"operator has {self.n} columns but model is {model.n}-dimensional"
            )
        basis = model.basis
        if self._svd_held is not None and self._svd_held[0] is basis:
            return self._svd_held[1]
        w, lam, v = np.linalg.svd(self.matrix @ basis, full_matrices=False)
        factors = (_readonly(w), _readonly(lam), _readonly(v))
        self._svd_held = (basis, factors)
        return factors


def make_subspace(n: int, d: int, sigma_c: float, seed: int) -> SubspaceModel:
    """Draw a uniformly random d-dimensional orthonormal basis in R^n.

    QR-orthonormalizes a seeded n x d standard-Gaussian matrix; the sign of
    each column is fixed so the result is unique, hence bit-reproducible.
    """
    if d == 0 or d > n:
        raise InvalidDimensionError(f"need 1 <= d <= n, got n={n}, d={d}")
    g = rng_stream(seed, 0).standard_normal((n, d))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))  # canonical sign: R diagonal positive
    return SubspaceModel(basis=q, sigma_c=float(sigma_c))


def make_diagonal_operator(n: int, spectrum: str, ratio: float | None = None) -> ForwardOperator:
    """Diagonal m = n forward operator with a named singular spectrum.

    spectrum is one of "identity", "linear-decay" (values i/n for i = n..1,
    descending along the coordinates), or "geometric" (values ratio^i for
    i = 1..n, descending along the coordinates; requires 0 < ratio <= 1).
    """
    if not n >= 1:
        raise InvalidDimensionError(f"n must be >= 1, got {n}")
    if spectrum == "identity":
        diag = np.ones(n)
    elif spectrum == "linear-decay":
        diag = np.arange(n, 0, -1) / n
    elif spectrum == "geometric":
        if ratio is None or not (0.0 < ratio <= 1.0):
            raise InvalidParameterError(f"geometric ratio must lie in (0, 1], got {ratio!r}")
        diag = float(ratio) ** np.arange(1, n + 1)
    else:
        raise InvalidParameterError(f"unknown spectrum {spectrum!r}")
    return ForwardOperator(np.diag(diag))


def _check_triple(model: SubspaceModel, op: ForwardOperator, noise: NoiseModel) -> None:
    """The one check that A (m x n) maps the model's R^n into the noise's R^m."""
    if op.n != model.n:
        raise InvalidDimensionError(
            f"operator has {op.n} columns but model is {model.n}-dimensional"
        )
    if op.m != noise.m:
        raise InvalidDimensionError(
            f"operator has {op.m} rows but noise lives in dimension {noise.m}"
        )


def _column_blocks(count: int, width: int) -> list[slice]:
    """`width`-column slices of range(count); a last one under _MIN_TAIL joins the one before it."""
    starts = list(range(0, count, width))
    if len(starts) > 1 and count - starts[-1] < _MIN_TAIL:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [count])]


def _latent_blocks(model: SubspaceModel, noise: NoiseModel, count: int, seed: int) -> tuple:
    """Row blocks (rows, cols, scaled block) of C, and of Z, from the chunk streams.

    Chunk j's rng_stream(seed, j) gives C's rows, then Z's: exhaust C's blocks first.
    """
    _check_nonnegative(count=count)
    streams = [rng_stream(seed, start // _CHUNK) for start in range(0, count, _CHUNK)]

    def blocks(n_rows, scale):
        for g, start in zip(streams, range(0, count, _CHUNK)):
            size = min(_CHUNK, count - start)
            for row in range(0, n_rows, _ROW_BLOCK):
                block = g.standard_normal((min(_ROW_BLOCK, n_rows - row), _CHUNK))[:, :size]
                block *= scale
                yield slice(row, row + _ROW_BLOCK), slice(start, start + size), block

    return (blocks(model.d, model.sigma_c / np.sqrt(model.d)),
            blocks(noise.m, noise.per_coordinate_std))


def draw_latents(
    model: SubspaceModel, noise: NoiseModel, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Latent coefficients C (d x count) and noise Z (m x count) for a seed.

    Chunked streams make the draw independent of `count`: the first k
    columns coincide for any two calls with the same seed.
    """
    c_blocks, z_blocks = _latent_blocks(model, noise, count, seed)
    c, z = np.empty((model.d, count)), np.empty((noise.m, count))
    for out, blocks in ((c, c_blocks), (z, z_blocks)):
        for rows, cols, block in blocks:
            out[rows, cols] = block
    return c, z


def draw_sample_arrays(
    model: SubspaceModel, op: ForwardOperator, noise: NoiseModel, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched samples as arrays: X (n x count), Y (m x count), C (d x count).

    Holds X, Y and C plus one row block: Z's row blocks are added into Y = A X.
    """
    _check_triple(model, op, noise)
    c_blocks, z_blocks = _latent_blocks(model, noise, count, seed)
    c, x, y = (np.empty((rows, count)) for rows in (model.d, model.n, noise.m))
    for rows, cols, block in c_blocks:
        c[rows, cols] = block
    np.matmul(model.basis, c, out=x)
    op.apply(x, out=y)
    for rows, cols, block in z_blocks:
        y[rows, cols] += block
    return x, y, c


def _draw_latent_set(
    model: SubspaceModel, op: ForwardOperator, noise: NoiseModel, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """draw_sample_arrays' C (d x count) and W'Y (k x count), A U = W diag(lambda) V.

    Forms no X or Y: per block of _CHUNK columns (_column_blocks), Y's
    columns are built in one reused buffer, as A U c plus Z's row blocks,
    and projected on W into W'Y.  C is filled first, as each chunk stream
    yields C's rows before Z's.  Both arrays are bit-identical to
    draw_sample_arrays' C and to W.T @ Y over all columns at once, as far
    as BLAS rounds a block's columns as it rounds the full product's.
    """
    _check_triple(model, op, noise)
    w = op.au_svd(model)[0]
    c_blocks, z_blocks = _latent_blocks(model, noise, count, seed)
    c, wy = np.empty((model.d, count)), np.empty((w.shape[1], count))
    for rows, cols, block in c_blocks:
        c[rows, cols] = block
    blocks = _column_blocks(count, _CHUNK)
    width = max((cols.stop - cols.start for cols in blocks), default=0)
    y_buf = np.empty((noise.m, width))
    x_buf = y_buf if op.diagonal is not None else np.empty((model.n, width))
    row_blocks = -(-noise.m // _ROW_BLOCK)  # Z's row blocks per chunk stream
    for cols in blocks:
        size = cols.stop - cols.start
        x, y = x_buf[:, :size], y_buf[:, :size]
        np.matmul(model.basis, c[:, cols], out=x)
        op.apply(x, out=y)
        for rows, z_cols, block in islice(z_blocks, row_blocks * -(-size // _CHUNK)):
            y[rows, z_cols.start - cols.start:z_cols.stop - cols.start] += block
        np.matmul(w.T, y, out=wy[:, cols])
    return c, wy
