"""Mutually unbiased bases in prime dimensions and the visibility-sum test.

A complete set of d+1 MUBs exists for prime d; the construction used here
takes the computational basis plus d Fourier-type bases whose vectors are

    |m; alpha> = 1/sqrt(d) * sum_j omega^(m (d-j)) * omega^(-(alpha-1) s_j) |j>

with omega = exp(2 pi i / d) and s_j = j + (j+1) + ... + (d-1), for
alpha = 1..d.  For d = 2 the quadratic phases collapse (s_0 = s_1), so the
third basis is the circular one, {(|0> + i|1>)/sqrt2, (|0> - i|1>)/sqrt2}.

Matching convention: a maximally correlated state relates a basis on
Alice's side to the *conjugated* basis on Bob's side (conjugated and
index-reversed for anticorrelated states).  ``correlation_matrix`` builds
Bob's analyzer that way, which makes the ideal correlation matrix diagonal
in every matched basis; since conjugation plus index reversal preserves
all overlap magnitudes, Bob's analyzers form a valid MUB set and the
separable bound below applies unchanged.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .states import NoisyState, Pairing, SchmidtState, make_max_entangled


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    k = 3
    while k * k <= n:
        if n % k == 0:
            return False
        k += 2
    return True


@dataclass(frozen=True)
class MubSet:
    """d+1 orthonormal bases, pairwise unbiased: |<m;a|n;b>|^2 = 1/d for a != b.

    ``vectors[alpha, m]`` is the m-th vector of basis alpha; basis 0 is the
    computational basis.
    """

    dim: int
    vectors: np.ndarray

    def __post_init__(self):
        vecs = np.array(self.vectors, dtype=complex)
        if vecs.shape != (self.dim + 1, self.dim, self.dim):
            raise ValueError(f"expected shape {(self.dim + 1, self.dim, self.dim)}")
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)

    @property
    def n_bases(self) -> int:
        return self.dim + 1

    def basis(self, alpha: int) -> np.ndarray:
        if not 0 <= alpha <= self.dim:
            raise IndexError(f"basis index {alpha} out of range 0..{self.dim}")
        return self.vectors[alpha]

    def max_mub_deviation(self) -> float:
        """Largest deviation of any overlap from the MUB condition."""
        worst = 0.0
        d = self.dim
        for a in range(d + 1):
            for b in range(a, d + 1):
                gram = np.abs(self.vectors[a].conj() @ self.vectors[b].T) ** 2
                target = np.eye(d) if a == b else np.full((d, d), 1.0 / d)
                worst = max(worst, float(np.max(np.abs(gram - target))))
        return worst


def build_mubs(d: int) -> MubSet:
    """Construct the full set of d+1 MUBs for prime d."""
    if not is_prime(d):
        raise ValueError(
            f"d={d} is not prime; complete MUB sets are only known for "
            "prime-power dimensions (how many exist otherwise is an open "
            "problem), and this construction covers primes only"
        )
    vectors = np.zeros((d + 1, d, d), dtype=complex)
    vectors[0] = np.eye(d)
    if d == 2:
        vectors[1] = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        vectors[2] = np.array([[1, 1j], [1, -1j]]) / np.sqrt(2)
        return MubSet(d, vectors)
    omega = complex(np.exp(2j * np.pi / d))
    # s_j = j + (j+1) + ... + (d-1); exponents reduced mod d (omega^d = 1)
    s = np.array([j * (d - j) + (d - j) * (d - j - 1) // 2 for j in range(d)])
    j = np.arange(d)
    for alpha in range(1, d + 1):
        phases = np.power(omega, (-(alpha - 1) * s) % d)
        for m in range(d):
            vectors[alpha, m] = np.power(omega, (m * (d - j)) % d) * phases
    vectors[1:] /= np.sqrt(d)
    return MubSet(d, vectors)


def bob_analyzer(mubs: MubSet, beta: int, pairing: Pairing) -> np.ndarray:
    """Bob's measurement vectors matched to Alice's basis ``beta``."""
    basis = mubs.basis(beta).conj()
    if pairing is Pairing.ANTICORRELATED:
        basis = basis[:, ::-1]
    return basis


def correlation_matrix(state: NoisyState, mubs: MubSet, alpha: int, beta: int) -> np.ndarray:
    """Joint outcome probabilities P(m, n) with Alice in basis alpha, Bob in beta.

    Entry (m, n) is the probability that Alice's projector is vector m of
    basis alpha and Bob's is the matched analyzer vector n of basis beta.
    Entries sum to 1.
    """
    d = state.dim
    if mubs.dim != d:
        raise ValueError(f"MUB set dimension {mubs.dim} != state dimension {d}")
    alice = mubs.basis(alpha)
    bob = bob_analyzer(mubs, beta, state.pure.pairing)
    # amplitude(m, n) = sum_j c_j conj(alice[m, a(j)]) conj(bob[n, j])
    weighted = state.pure.coefficients[None, :] * alice[:, state.pure.alice_indices()].conj()
    amp = weighted @ bob.conj().T
    return state.p * np.abs(amp) ** 2 + (1.0 - state.p) / d ** 2


def separable_bound(d: int, k: int) -> float:
    """Upper bound on the k-basis visibility sum over all separable states."""
    return 1.0 + (k - 1) / d


@dataclass(frozen=True)
class VisibilityReport:
    dim: int
    k: int
    per_basis_visibility: tuple
    visibility_sum: float
    separable_bound: float
    certified: bool


def visibility_sum(state: NoisyState, mubs: MubSet, k: int) -> VisibilityReport:
    """Sum of matched-basis visibilities over the first k bases.

    The visibility of basis alpha is the diagonal sum of its correlation
    matrix; entanglement is certified when the sum exceeds 1 + (k-1)/d.
    """
    d = state.dim
    if not 2 <= k <= d + 1:
        raise ValueError(f"k must be in 2..{d + 1}, got {k}")
    per_basis = tuple(
        float(np.trace(correlation_matrix(state, mubs, alpha, alpha)))
        for alpha in range(k)
    )
    total = float(sum(per_basis))
    bound = separable_bound(d, k)
    return VisibilityReport(d, k, per_basis, total, bound, total > bound)


def mub_noise_threshold(d: int, k: int, pure: SchmidtState | None = None):
    """Mixing weight p* where the k-basis visibility sum meets the bound.

    The family is p |pure><pure| + (1-p)/d^2 (default ``pure``: maximally
    entangled).  Every correlation matrix is affine in p, so the margin
    ``visibility_sum - separable_bound`` is too, and p* is the root of the
    line through its values m0 at p = 0 and m1 at p = 1.  Returns None when
    the pure state does not beat the bound (margins within roundoff of zero
    count as non-certifying, so bound-saturating states report no threshold).
    """
    pure = make_max_entangled(d) if pure is None else pure
    mubs = build_mubs(d)

    def margin(p):
        report = visibility_sum(NoisyState(pure, p), mubs, k)
        return report.visibility_sum - report.separable_bound

    m0, m1 = margin(0.0), margin(1.0)
    if m1 <= 1e-12:  # roundoff guard: saturating the bound is not a violation
        return None
    return m0 / (m0 - m1)


def correlation_to_csv(matrix: np.ndarray, path, *, dim: int, alpha: int, beta: int,
                       extra: str = "") -> None:
    """Write a correlation matrix as CSV, rows = Alice index, cols = Bob index."""
    matrix = np.asarray(matrix)
    with open(path, "w", newline="") as fh:
        fh.write(f"# hdent-correlation-csv v1 d={dim} alpha={alpha} beta={beta}"
                 f"{' ' + extra if extra else ''}\n")
        writer = csv.writer(fh)
        writer.writerow(["alice_m"] + [f"bob_{n}" for n in range(matrix.shape[1])])
        for m, row in enumerate(matrix):
            writer.writerow([m] + [f"{v:.12g}" for v in row])
