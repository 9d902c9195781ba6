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

from dataclasses import dataclass

import numpy as np

from .states import NoisyState, Pairing


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

    def basis(self, alpha) -> np.ndarray:
        """Vectors of basis ``alpha``; for a sequence of indices, the stack of their bases."""
        index = np.asarray(alpha)
        outside = index[(index < 0) | (index > self.dim)]
        if outside.size:
            raise IndexError(f"basis index {outside[0]} out of range 0..{self.dim}")
        return self.vectors[index]


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


def bob_analyzer(mubs: MubSet, beta, pairing: Pairing) -> np.ndarray:
    """Bob's measurement vectors matched to Alice's basis ``beta`` (or a stack, for a sequence)."""
    basis = mubs.basis(beta).conj()
    if pairing is Pairing.ANTICORRELATED:
        basis = basis[..., ::-1]
    return basis


def correlation_matrix(state: NoisyState, mubs: MubSet, alpha, beta) -> np.ndarray:
    """Joint outcome probabilities P(m, n) with Alice in basis alpha, Bob in beta.

    Entry (m, n) is the probability that Alice's projector is vector m of
    basis alpha and Bob's is the matched analyzer vector n of basis beta.
    Entries sum to 1.  ``alpha`` and ``beta`` may also be equal-length
    sequences of basis indices: the result is then the ``(len, d, d)`` stack
    whose entry i pairs ``alpha[i]`` with ``beta[i]``, built as one batched
    product and equal, bit for bit, to the single-basis matrices.
    """
    d = state.dim
    if mubs.dim != d:
        raise ValueError(f"MUB set dimension {mubs.dim} != state dimension {d}")
    alice = mubs.basis(alpha)
    bob = bob_analyzer(mubs, beta, state.pure.pairing)
    # amplitude(m, n) = sum_j c_j conj(alice[m, a(j)]) conj(bob[n, j])
    weighted = state.pure.coefficients * alice[..., state.pure.alice_indices()].conj()
    amp = weighted @ np.swapaxes(bob.conj(), -1, -2)
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


def visibility_sum(matrices) -> VisibilityReport:
    """Sum of matched-basis visibilities over the first k bases, one matrix each.

    ``matrices[alpha]`` is ``correlation_matrix(state, mubs, alpha, alpha)``
    for alpha = 0..k-1, as a list or a ``(k, d, d)`` stack; its visibility is
    its diagonal sum, and all k are read in one batched trace.  Entanglement
    is certified when the sum exceeds 1 + (k-1)/d.
    """
    stack = np.asarray(matrices, dtype=float)
    k = len(stack)
    d = stack.shape[-1] if k else 0
    if not 2 <= k <= d + 1:
        raise ValueError(f"k must be in 2..d+1, got {k} matrices of d = {d}")
    per_basis = tuple(np.trace(stack, axis1=1, axis2=2).tolist())
    total = float(sum(per_basis))
    bound = separable_bound(d, k)
    return VisibilityReport(d, k, per_basis, total, bound, total > bound)


def mub_noise_threshold(at_0: VisibilityReport, at_1: VisibilityReport):
    """Mixing weight p* where the visibility sum meets the bound.

    ``at_0`` and ``at_1`` are the k-basis reports of p |pure><pure| + (1-p)/d^2
    at p = 0 and p = 1.  Every correlation matrix is affine in p, so the margin
    ``visibility_sum - separable_bound`` is too, and p* is the root of the line
    through its values m0 at p = 0 and m1 at p = 1.  Returns None when the pure
    state does not beat the bound (margins within roundoff of zero count as
    non-certifying, so bound-saturating states report no threshold).
    """
    m0 = at_0.visibility_sum - at_0.separable_bound
    m1 = at_1.visibility_sum - at_1.separable_bound
    if m1 <= 1e-12:  # roundoff guard: saturating the bound is not a violation
        return None
    return m0 / (m0 - m1)
