"""Dense linear-algebra primitives: Cholesky, SPD inverse, Hadamard.

All compensation math runs in float64; callers that store weights in
float32 must upcast before calling in here. Everything is a pure function
over immutable inputs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite, NotPowerOfTwo

SYM_TOL = 1e-9  # cholesky's asymmetry bound, relative to the largest entry


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == a.

    Symmetry is checked up front; positive definiteness is detected during
    the factorization and reported with the failing pivot index so callers
    (GPTQ damping escalation) can react.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"cholesky needs a square matrix, got {a.shape}")
    scale = max(np.max(np.abs(a)), 1.0)
    if np.max(np.abs(a - a.T)) > SYM_TOL * scale:
        raise ValueError("matrix not symmetric")
    L = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - L[j, :j] @ L[j, :j]
        if d <= 0.0 or not np.isfinite(d):
            raise NotPositiveDefinite(j)
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1 :, j] = (a[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L


def solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward substitution: solve L @ x = b for lower-triangular L."""
    n = L.shape[0]
    x = np.array(b, dtype=np.float64, copy=True)
    for i in range(n):
        x[i] = (x[i] - L[i, :i] @ x[:i]) / L[i, i]
    return x


def invert_spd(a: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix via Cholesky."""
    L = cholesky(a)
    n = L.shape[0]
    # invert L column by column (L @ Linv = I), then A^-1 = Linv.T @ Linv
    Linv = solve_lower(L, np.eye(n))
    return Linv.T @ Linv


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class HadamardMatrix:
    """Normalized (orthogonal) Hadamard matrix, optionally sign-randomized."""

    n: int
    matrix: np.ndarray  # n x n, includes 1/sqrt(n) normalization and sign diag
    sign_diag: np.ndarray  # +-1 vector of length n

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The rotation of rows ``x`` of width n: x @ H."""
        if x.shape[-1] != self.n:
            raise DimensionMismatch(f"Hadamard dim {self.n} != row width {x.shape[-1]}")
        return x @ self.matrix

    def unapply(self, x: np.ndarray) -> np.ndarray:
        """The inverse rotation, x @ H.T."""
        return x @ self.matrix.T


def hadamard(n: int, randomize: bool = False, rng=None) -> HadamardMatrix:
    """Sylvester-construction Hadamard matrix scaled by 1/sqrt(n).

    When ``randomize`` is set, the matrix is right-multiplied by a random
    +-1 diagonal drawn from ``rng`` (sign diagonal only, no permutation, so
    the inverse stays H.T).
    """
    if not is_power_of_two(n):
        raise NotPowerOfTwo(f"Hadamard dimension must be a power of two, got {n}")
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    h = h / np.sqrt(n)
    if randomize:
        if rng is None:
            raise ValueError("randomize=True requires an rng")
        sign = rng.integers(0, 2, size=n) * 2.0 - 1.0
    else:
        sign = np.ones(n)
    return HadamardMatrix(n=n, matrix=h * sign[np.newaxis, :], sign_diag=sign)
