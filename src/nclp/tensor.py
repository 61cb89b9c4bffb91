"""Kronecker products of algebras, elements and functionals.

The product of two block algebras carries one block per (left, right) block
pair, ordered left-major; entrywise the convention is row-major,
(x (x) y)[(a,b),(c,d)] = x[a,c] y[b,d], matching numpy.kron.  The checks in
this module verify that polar parts, powers, norms and spectra all factorize
blockwise along simple tensors.  They take the left and right elements as
per-block stacks and read both algebras off the block shapes, and take
batches of functionals as one :class:`~nclp.algebra.SpectrumStack` each;
:func:`kron_element` and :func:`kron_functional_stack`, which build
elements and functionals, check their factors against a
:class:`TensorAlgebra`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import (AlgebraElement, BlockAlgebra, SpectrumStack,
                      _adjoint_stack, _algebra_of, _apply_stack,
                      _check_batches, _clipped_eig_stack, _complex_stacks,
                      _eigenvalue_powers, _frobenius_stack,
                      _imaginary_values, _kron_block, _polar_stack)
from .config import RANK_RTOL
from .errors import DomainError, ShapeError, _check_type, _raise_pairwise
from .lp import (_as_exponent, _kosaki_point, _schatten_stack,
                 kosaki_norm_stack, singular_values_stack)


@dataclass(frozen=True)
class TensorAlgebra:
    """Product of two block algebras with the left-major block index map."""

    left: BlockAlgebra
    right: BlockAlgebra

    def __post_init__(self):
        for alg in (self.left, self.right):
            _check_type(alg, BlockAlgebra,
                        "a tensor product needs two BlockAlgebras")

    @cached_property
    def product(self) -> BlockAlgebra:
        return BlockAlgebra(tuple(
            n * m for n in self.left.block_dims for m in self.right.block_dims))

    def block_index(self, i: int, j: int) -> int:
        """Flat product-block index of left block i with right block j."""
        return i * self.right.num_blocks + j


def kron_element(T: TensorAlgebra, x: AlgebraElement,
                 y: AlgebraElement) -> AlgebraElement:
    """Blockwise Kronecker product of a left and a right element."""
    for z in (x, y):
        _check_type(z, AlgebraElement, "factors must be AlgebraElements")
    _check_factors(T, x.algebra, y.algebra)
    return AlgebraElement._trusted(
        T.product, [_kron_block(xb, yb) for xb in x.blocks for yb in y.blocks])


def _kron_stack(sx, sy) -> tuple[np.ndarray, ...]:
    """Per product block, the stacked Kronecker products of stacked left
    and right elements, in the left-major block order."""
    return tuple(_kron_block(a, b) for a in sx for b in sy)


def kron_functional_stack(T: TensorAlgebra, psi1s: SpectrumStack,
                          psi2s: SpectrumStack) -> SpectrumStack:
    """The product functionals psi1 (x) psi2 of the row pairs of two
    stacks, whose densities are the Kronecker products of the factors', as
    one stack with one ``eigh`` per product block.  The products keep the
    cutoff of ``psi1s``."""
    _check_factors(T, psi1s.algebra, psi2s.algebra)
    _check_batches([psi1s, psi2s])
    return _clipped_eig_stack(
        T.product, _kron_stack(psi1s.densities, psi2s.densities), False,
        psi1s.eps_rel)


def _residuals(a, b) -> np.ndarray:
    """(B,) Frobenius norms of the differences of two stacks."""
    return _frobenius_stack([x - y for x, y in zip(a, b)])


def lemma5_polar_stack(xs, ys, eps: float) -> list[dict]:
    """Per pair of the stacked left and right elements, the residuals
    ``polar_isometry`` and ``polar_modulus`` of the polar factors of
    x (x) y against the tensors of the factors', at the resolved cutoff
    ``eps``; one ``svd`` per block."""
    _check_batches([xs[0], ys[0]])
    vx, ax = _polar_stack(xs, eps)
    vy, ay = _polar_stack(ys, eps)
    vk, ak = _polar_stack(_kron_stack(xs, ys), eps)
    return [{"polar_isometry": v, "polar_modulus": a} for v, a in zip(
        _residuals(vk, _kron_stack(vx, vy)).tolist(),
        _residuals(ak, _kron_stack(ax, ay)).tolist())]


def _check_factors(T: TensorAlgebra, left: BlockAlgebra,
                   right: BlockAlgebra) -> None:
    """ShapeError unless ``left`` and ``right`` are the factors of T."""
    _check_type(T, TensorAlgebra, "a tensor product needs a TensorAlgebra")
    for side, alg, factor in (("left", left, T.left),
                              ("right", right, T.right)):
        if alg != factor:
            raise ShapeError(
                f"{side} factor does not live on the {side} algebra")


def _psd_spectra(stacks, eps: float) -> list:
    """Clipped spectra of PSD stacks, each on the algebra of its shapes."""
    return [_clipped_eig_stack(_algebra_of(s), s, False, eps)
            for s in stacks]


def _factorization_stack(spectra, points, values) -> list[list[float]]:
    """Residuals of f(k) against f(x) (x) f(y) for the spectrum stacks
    (k, x, y) of a product and its factors, at every point of each element:
    ``points[j]`` holds element j's points, all of one length, and
    ``values(stack, points)`` gives the rows of f at every point
    (:func:`_eigenvalue_powers` or :func:`_imaginary_values`)."""
    fk, fx, fy = (_apply_stack(st, values(st, points)) for st in spectra)
    return _residuals(fk, _kron_stack(fx, fy)).tolist()


def lemma5_power_stack(xs, ys, powers: Sequence[Sequence[float]],
                       eps: float) -> list[list[float]]:
    """The residuals of |x (x) y|^p against |x|^p (x) |y|^p, p > 0, of each
    pair j of the stacked left and right elements at every p of
    ``powers[j]`` (one length for all j), at the resolved cutoff ``eps``.

    x, y and x (x) y are polar-decomposed once, and their moduli
    eigendecomposed once (product first); all points then take one
    functional calculus per side.  Errors: every p is validated before any
    evaluation; the decompositions come next, then the powers.
    """
    _check_batches([xs[0], ys[0], powers])
    powers = [tuple(ps) for ps in powers]
    for ps in powers:
        for p in ps:
            if p <= 0:
                raise DomainError(f"power must be positive, got {p}")
    _, ax = _polar_stack(xs, eps)
    _, ay = _polar_stack(ys, eps)
    _, ak = _polar_stack(_kron_stack(xs, ys), eps)
    return _factorization_stack(_psd_spectra((ak, ax, ay), eps), powers,
                                _eigenvalue_powers)


def lemma5_imaginary_stack(h1s, h2s, ts: Sequence[Sequence[float]],
                           eps: float) -> list[list[float]]:
    """The residuals of (h1 (x) h2)^{it} against h1^{it} (x) h2^{it}, for
    PSD h, of each pair j of the stacked left and right elements at every t
    of ``ts[j]`` (one length for all j), at the resolved cutoff ``eps``.

    h1 (x) h2, h1 and h2 are eigendecomposed once, in that order; all
    points then take one functional calculus per side.  Errors: the
    decompositions come first, then the imaginary powers.
    """
    _check_batches([h1s[0], h2s[0], ts])
    return _factorization_stack(
        _psd_spectra((_kron_stack(h1s, h2s), h1s, h2s), eps),
        [tuple(t) for t in ts], _imaginary_values)


def lemma5_density_stack(T: TensorAlgebra, psi1s: SpectrumStack,
                         psi2s: SpectrumStack, ts: Sequence[float]
                         ) -> list[dict]:
    """Per row pair at its own t, the residuals ``density``, of the density
    of psi1 (x) psi2 against the Kronecker product of the factor densities,
    and ``imaginary_power``, of its imaginary power against the factors',
    read from the spectra of the stacks and of their products."""
    _check_batches([psi1s, psi2s, ts])
    prods = kron_functional_stack(T, psi1s, psi2s)
    direct = _kron_stack(psi1s.densities, psi2s.densities)
    res_density = _residuals(prods.densities, direct).tolist()
    imags = _factorization_stack([prods, psi1s, psi2s], [[t] for t in ts],
                                 _imaginary_values)
    return [{"density": res, "imaginary_power": imag}
            for res, (imag,) in zip(res_density, imags)]


def theorem6_norm_stack(xs, ys, ps) -> list[list[tuple[float, float]]]:
    """(||x (x) y||_p, ||x||_p ||y||_p), equal up to float error, of each
    pair of the stacked left and right elements at every p in ``ps``, from
    one Kronecker product and one ``svd`` per block for each operand, and
    one :func:`_schatten_stack` each, product side first."""
    _check_batches([xs[0], ys[0]])
    ps = [_as_exponent(p) for p in ps]
    B, G = len(xs[0]), len(ps)
    sides = []
    for s in (_kron_stack(xs, ys), xs, ys):
        sv = singular_values_stack(s)
        sides.append(_schatten_stack(
            np.broadcast_to(sv[:, None], (B, G, sv.shape[-1])), [ps] * B))
    return [[(l, u * v) for l, u, v in zip(*trio)] for trio in zip(*sides)]


def theorem6_spanning(T: TensorAlgebra, sample_budget: int,
                      rng: np.random.Generator) -> bool:
    """Whether random simple tensors span the full product carrier.

    Draws sample_budget Gaussian simple tensors x (x) y, stacks their
    flattenings and checks the SVD rank (``config.RANK_RTOL``) against
    total_dim of the product algebra.  Sample by sample, the draw order is:
    the blocks of x in order, then those of y, each block an (n, n) standard
    normal real part followed by its imaginary part, the entries (real + i
    imag)/sqrt(2).  All samples come from one ``standard_normal`` call in
    that order, which yields the same values as drawing each part on its own.
    """
    D = T.product.total_dim
    if sample_budget < D:
        raise DomainError(
            f"sample budget {sample_budget} below carrier dimension {D}")
    dims = (*T.left.block_dims, *T.right.block_dims)
    blocks = _complex_stacks(rng.standard_normal(
        (sample_budget, 2 * sum(n * n for n in dims))), [(n, n) for n in dims])
    left = T.left.num_blocks
    rows = np.concatenate(
        [k.reshape(sample_budget, -1)
         for k in _kron_stack(blocks[:left], blocks[left:])], axis=1)
    sv = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.count_nonzero(sv > RANK_RTOL * sv[0])) if sv[0] > 0 else 0
    return rank == D


def corollary7_norm_stack(x1s, x2s, phi1s: SpectrumStack,
                          phi2s: SpectrumStack, grid
                          ) -> list[list[tuple[float, float]]]:
    """(interpolated norm of x1 (x) x2, product of the factors' norms) of
    each (x1, x2, phi1, phi2), rows of the stacked left and right elements
    and of two stacks on their algebras, at every (p, eta)
    of ``grid``; the product side uses the reference phi1 (x) phi2 at the
    factors' (p, eta).

    x1 (x) x2 and phi1 (x) phi2 are built once; the product side and each
    factor get one :func:`kosaki_norm_stack` across the elements and the
    points, in that order.  Element j's error is raised as its one-element
    call raises it (within a side, the first failing point), the first such
    element first."""
    T = TensorAlgebra(_algebra_of(x1s), _algebra_of(x2s))
    _check_batches([x1s[0], x2s[0], phi1s, phi2s],
                   [(T.left, T.right), (phi1s.algebra, phi2s.algebra)],
                   "elements must live on their spec's algebra")
    points = [[_kosaki_point(p, eta) for p, eta in grid]] * len(phi1s)
    sides = [kosaki_norm_stack(_kron_stack(x1s, x2s),
                               kron_functional_stack(T, phi1s, phi2s),
                               points),
             kosaki_norm_stack(x1s, phi1s, points),
             kosaki_norm_stack(x2s, phi2s, points)]
    _raise_pairwise(*(m for _, maps in sides for m in maps))
    return [[(l, a * b) for l, a, b in zip(*rows)]
            for rows in zip(*(norms for norms, _ in sides))]


def spectral_product_stack(xs, ys) -> list[tuple[float, float]]:
    """(residual, largest product) per pair of the stacked left and right
    elements: the spectrum of |x (x) y|
    against all pairwise products of the factors' singular values, both
    sorted and paired in order, the residual the largest absolute mismatch;
    appendixA's gate is its eigenvalue_multiset times (1 + largest product).
    One ``svd`` per block; the sorting and matching are each element's own
    1-D operations."""
    _check_batches([xs[0], ys[0]])
    svs = [singular_values_stack(s) for s in (xs, ys, _kron_stack(xs, ys))]
    out = []
    for s1, s2, sk in zip(*svs):
        products = np.sort(np.outer(s1, s2).ravel())
        out.append((float(np.max(np.abs(np.sort(sk) - products))),
                    float(products[-1])))
    return out


def kron_identities_stack(xs, ys, xps, yps) -> tuple[np.ndarray, np.ndarray]:
    """(B,) residuals of (x (x) y)* = x* (x) y* and of the mixed product
    (x (x) y)(x' (x) y') = x x' (x) y y' for stacked left (x, x') and right
    (y, y') elements."""
    _check_batches([xs[0], ys[0], xps[0], yps[0]])
    kx, ky = _kron_stack(xs, ys), _kron_stack(xps, yps)
    adjoint = _residuals(_adjoint_stack(kx),
                         _kron_stack(_adjoint_stack(xs), _adjoint_stack(ys)))
    mixed = _residuals([a @ b for a, b in zip(kx, ky)],
                       _kron_stack([a @ b for a, b in zip(xs, xps)],
                                   [a @ b for a, b in zip(ys, yps)]))
    return adjoint, mixed
