"""Subspace signal model, measurement noise, and seeded sample generation.

Signals live in a d-dimensional subspace of R^n: x = U c with U an n x d
orthonormal basis and latent coefficients c ~ N(0, sigma_c^2/d * I), so the
expected signal energy E||x||^2 is sigma_c^2.  Measurements are y = A x + z
with A an m x n forward operator and z ~ N(0, sigma_z^2/m * I), so the
expected noise energy E||z||^2 is sigma_z^2.  Per-coordinate noise variance
is sigma_z^2/m throughout; denoising is the m = n special case.

Randomness comes from counter-based Philox streams keyed by a master seed
plus a stream path, so sample generation is reproducible bit-for-bit and
parallelizable by chunk without shared state.  A training run takes one
stream per iteration, rng_stream(seed, t); `_stream_series` yields them
from one generator whose key it resets for each t, with the keys of many
t derived at once by numpy's SeedSequence hash in vectorized uint32
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimensionError, InvalidParameterError

# Samples are drawn in fixed-size chunks, one RNG stream per chunk, so that
# the first k samples of a run do not depend on how many were requested.
_CHUNK = 4096

_ORTHO_TOL = 1e-10


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent counter-based generator for one (seed, path) coordinate.

    Streams with distinct paths are statistically independent; the same
    (seed, path) always yields the same stream (Philox4x64-10 keyed through
    a SeedSequence spawn key).
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): an entropy pool
# of four uint32 words, mixed with these multipliers and a 16-bit xorshift.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hash of one word (int or uint32 array): (hashed word, next const)."""
    value = value ^ const
    const = (const * mult) & _MASK32
    value = (value * const) & _MASK32
    return value ^ (value >> _XSHIFT), const


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y (ints or uint32 arrays)."""
    result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> _XSHIFT)


def _philox_keys(seed: int, ts) -> np.ndarray:
    """Philox keys of rng_stream(seed, t) for each t, as a (len(ts), 2) uint64 array.

    Row j equals SeedSequence(seed, spawn_key=(ts[j],)).generate_state(2,
    np.uint64).  The entropy is the seed's uint32 words, low first, padded
    with zeros to the pool size, then the one word t (so 0 <= t < 2^32).
    The pool left by the seed words is the same for every t, so it is
    hashed once, in ints; only the t word is mixed in as an array.
    """
    ts = np.asarray(ts, dtype=np.uint64)
    if ts.size and int(ts.max()) > _MASK32:
        raise InvalidParameterError("stream index t must be < 2^32")
    seed = int(seed)
    words = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words)) + [ts.astype(np.uint32)]
    const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    # generate_state(2, np.uint64): four hashed pool words, paired low word first.
    const = _INIT_B
    out = []
    for value in pool:
        value, const = _hashmix(value, const, _MULT_B)
        out.append(value.astype(np.uint64))
    return np.stack([out[0] | (out[1] << 32), out[2] | (out[3] << 32)], axis=-1)


def _stream_series(seed: int, count: int):
    """Yield rng_stream(seed, t) for t = 0, ..., count - 1 from one generator.

    Each yielded generator is the same object, rekeyed to {counter: 0,
    key: k_t} before it is yielded, so it draws exactly what a fresh
    rng_stream(seed, t) would; it is valid until the next one is taken.
    Keys are derived _CHUNK at a time.
    """
    gen = rng_stream(seed, 0)
    bit_gen = gen.bit_generator
    state = bit_gen.state
    for start in range(0, count, _CHUNK):
        for key in _philox_keys(seed, np.arange(start, min(start + _CHUNK, count))):
            state["state"]["key"] = key
            bit_gen.state = state
            yield gen


def _sub_seed(master: int, *path: int) -> int:
    """Integer seed for one (master, path) coordinate, as a SeedSequence spawn key."""
    return int(np.random.SeedSequence(master, spawn_key=path).generate_state(1)[0])


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
        if gram_err > _ORTHO_TOL:
            raise InvalidParameterError(
                f"basis columns not orthonormal: max |U'U - I| = {gram_err:.3e}"
            )
        if not (self.sigma_c >= 0.0) or not np.isfinite(self.sigma_c):
            raise InvalidParameterError(f"sigma_c must be finite and >= 0, got {self.sigma_c!r}")
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
        if self.m < 1:
            raise InvalidDimensionError(f"m must be >= 1, got {self.m}")
        if not (self.sigma_z >= 0.0) or not np.isfinite(self.sigma_z):
            raise InvalidParameterError(f"sigma_z must be finite and >= 0, got {self.sigma_z!r}")

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
    freed and have its id reused by another model's basis.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise InvalidDimensionError("operator matrix must be 2-D")
        if not np.all(np.isfinite(matrix)):
            raise InvalidParameterError("operator matrix must be finite")
        self.matrix = _readonly(matrix)
        self._svd_held: tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

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
    if n < 1:
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


def draw_latents(
    model: SubspaceModel, noise: NoiseModel, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Latent coefficients C (d x count) and noise Z (m x count) for a seed.

    Chunked streams make the draw independent of `count`: the first k
    columns coincide for any two calls with the same seed.
    """
    if count < 0:
        raise InvalidParameterError(f"count must be >= 0, got {count}")
    d, m = model.d, noise.m
    c, z = np.empty((d, count)), np.empty((m, count))
    c_scale, z_scale = model.sigma_c / np.sqrt(d), noise.per_coordinate_std
    for start in range(0, count, _CHUNK):
        size = min(_CHUNK, count - start)
        g = rng_stream(seed, start // _CHUNK)
        # Full-chunk draws, sliced: the first k samples never depend on count.
        np.multiply(c_scale, g.standard_normal((d, _CHUNK))[:, :size], out=c[:, start:start + size])
        np.multiply(z_scale, g.standard_normal((m, _CHUNK))[:, :size], out=z[:, start:start + size])
    return c, z


def draw_sample_arrays(
    model: SubspaceModel, op: ForwardOperator, noise: NoiseModel, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched samples as arrays: X (n x count), Y (m x count), C (d x count)."""
    _check_triple(model, op, noise)
    c, z = draw_latents(model, noise, count, seed)
    x = model.basis @ c
    y = op.matrix @ x + z
    return x, y, c
