"""Kronecker products of algebras, elements and functionals.

The product of two block algebras carries one block per (left, right) block
pair, ordered left-major; entrywise the convention is row-major,
(x (x) y)[(a,b),(c,d)] = x[a,c] y[b,d], matching numpy.kron.  The checks in
this module verify that polar parts, powers, norms and spectra all factorize
blockwise along simple tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import (AlgebraElement, BlockAlgebra, _adjoint_stack,
                      _apply_stack, _clipped_eig_stack, _complex_stacks,
                      _eigenvalue_powers, _frobenius_stack, _imaginary_values,
                      _kron_block, _polar_stack, _stack)
from .config import RANK_RTOL
from .errors import DomainError, ShapeError, _check_type, _raise_pairwise
from .functionals import (PositiveFunctional, _densities,
                          _positive_functionals, _stack_of)
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
    _check_factors(T, [x], [y])
    return AlgebraElement._trusted(
        T.product, [_kron_block(xb, yb) for xb in x.blocks for yb in y.blocks])


def _kron_stack(sx, sy) -> tuple[np.ndarray, ...]:
    """Per product block, the stacked Kronecker products of stacked left
    and right elements, in the left-major block order."""
    return tuple(_kron_block(a, b) for a in sx for b in sy)


def kron_functional(T: TensorAlgebra, psi1: PositiveFunctional,
                    psi2: PositiveFunctional) -> PositiveFunctional:
    """Product functional; density is the Kronecker of the factor densities.
    It keeps psi1's cutoff.  One pair of :func:`kron_functional_stack`."""
    return kron_functional_stack(T, [psi1], [psi2])[0]


def kron_functional_stack(T: TensorAlgebra, psi1s: list[PositiveFunctional],
                          psi2s: list[PositiveFunctional]
                          ) -> list[PositiveFunctional]:
    """:func:`kron_functional` of each pair, one ``eigh`` per product block.
    The products keep the cutoff of psi1s[0], which every psi1 shares."""
    _check_factors(T, psi1s, psi2s, PositiveFunctional)
    return _positive_functionals(
        T.product, _kron_stack(_densities(psi1s), _densities(psi2s)), False,
        psi1s[0]._spectrum.eps_rel)


def _residuals(a, b) -> np.ndarray:
    """(B,) Frobenius norms of the differences of two stacks."""
    return _frobenius_stack([x - y for x, y in zip(a, b)])


def lemma5_polar_stack(T: TensorAlgebra, xs: list[AlgebraElement],
                       ys: list[AlgebraElement], eps: float) -> list[dict]:
    """Per pair, the residuals ``polar_isometry`` and ``polar_modulus`` of
    the polar factors of x (x) y against the tensors of the factors', at the
    resolved cutoff ``eps``; one ``svd`` per block."""
    _check_factors(T, xs, ys)
    sx, sy = _stack(xs), _stack(ys)
    vx, ax = _polar_stack(sx, eps)
    vy, ay = _polar_stack(sy, eps)
    vk, ak = _polar_stack(_kron_stack(sx, sy), eps)
    return [{"polar_isometry": v, "polar_modulus": a} for v, a in zip(
        _residuals(vk, _kron_stack(vx, vy)).tolist(),
        _residuals(ak, _kron_stack(ax, ay)).tolist())]


def _check_factors(T: TensorAlgebra, xs, ys, kind=AlgebraElement):
    _check_type(T, TensorAlgebra, "a tensor product needs a TensorAlgebra")
    for x, y in zip(xs, ys):
        for side, z, alg in (("left", x, T.left), ("right", y, T.right)):
            _check_type(z, kind, f"factors must be {kind.__name__}s")
            if z.algebra != alg:
                raise ShapeError(
                    f"{side} factor does not live on the {side} algebra")


def _psd_spectra(T: TensorAlgebra, sk, sx, sy, eps: float) -> list:
    """Clipped spectra of PSD stacks on T.product, T.left and T.right."""
    return [_clipped_eig_stack(alg, s, False, eps)
            for alg, s in ((T.product, sk), (T.left, sx), (T.right, sy))]


def _factorization_stack(spectra, points, values) -> list[list[float]]:
    """Residuals of f(k) against f(x) (x) f(y) for the spectrum stacks
    (k, x, y) of a product and its factors, at every point of each element:
    ``points[j]`` holds element j's points, all of one length, and
    ``values(stack, points)`` gives the rows of f at every point
    (:func:`_eigenvalue_powers` or :func:`_imaginary_values`)."""
    fk, fx, fy = (_apply_stack(st, values(st, points)) for st in spectra)
    return _residuals(fk, _kron_stack(fx, fy)).tolist()


def lemma5_power_stack(T: TensorAlgebra, xs: list[AlgebraElement],
                       ys: list[AlgebraElement],
                       powers: Sequence[Sequence[float]],
                       eps: float) -> list[list[float]]:
    """The residuals of |x (x) y|^p against |x|^p (x) |y|^p, p > 0, of each
    pair (xs[j], ys[j]) at every p of ``powers[j]`` (one length for all j),
    at the resolved cutoff ``eps``.

    x, y and x (x) y are polar-decomposed once, and their moduli
    eigendecomposed once (product first); all points then take one
    functional calculus per side.  Errors: every p is validated before any
    evaluation; the decompositions come next, then the powers.
    """
    powers = [tuple(ps) for ps in powers]
    for ps in powers:
        for p in ps:
            if p <= 0:
                raise DomainError(f"power must be positive, got {p}")
    _check_factors(T, xs, ys)
    sx, sy = _stack(xs), _stack(ys)
    _, ax = _polar_stack(sx, eps)
    _, ay = _polar_stack(sy, eps)
    _, ak = _polar_stack(_kron_stack(sx, sy), eps)
    return _factorization_stack(_psd_spectra(T, ak, ax, ay, eps), powers,
                                _eigenvalue_powers)


def lemma5_imaginary_stack(T: TensorAlgebra, h1s: list[AlgebraElement],
                           h2s: list[AlgebraElement],
                           ts: Sequence[Sequence[float]],
                           eps: float) -> list[list[float]]:
    """The residuals of (h1 (x) h2)^{it} against h1^{it} (x) h2^{it}, for
    PSD h, of each pair (h1s[j], h2s[j]) at every t of ``ts[j]`` (one length
    for all j), at the resolved cutoff ``eps``.

    h1 (x) h2, h1 and h2 are eigendecomposed once, in that order; all
    points then take one functional calculus per side.  Errors: the
    decompositions come first, then the imaginary powers.
    """
    _check_factors(T, h1s, h2s)
    s1, s2 = _stack(h1s), _stack(h2s)
    return _factorization_stack(_psd_spectra(T, _kron_stack(s1, s2), s1, s2,
                                             eps),
                                [tuple(t) for t in ts], _imaginary_values)


def lemma5_density_stack(T: TensorAlgebra, psi1s: list[PositiveFunctional],
                         psi2s: list[PositiveFunctional],
                         ts: Sequence[float]) -> list[dict]:
    """Per pair at its own t, the residuals ``density``, of the density of
    psi1 (x) psi2 against the Kronecker product of the factor densities, and
    ``imaginary_power``, of its imaginary power against the factors', read
    from the spectra that the functionals and their products hold."""
    prods = kron_functional_stack(T, psi1s, psi2s)
    direct = _kron_stack(_densities(psi1s), _densities(psi2s))
    res_density = _residuals(_densities(prods), direct).tolist()
    imags = _factorization_stack([_stack_of(p) for p in (prods, psi1s, psi2s)],
                                 [[t] for t in ts], _imaginary_values)
    return [{"density": res, "imaginary_power": imag}
            for res, (imag,) in zip(res_density, imags)]


def theorem6_norm_stack(T: TensorAlgebra, xs: list[AlgebraElement],
                        ys: list[AlgebraElement],
                        ps) -> list[list[tuple[float, float]]]:
    """(||x (x) y||_p, ||x||_p ||y||_p), equal up to float error, of each
    pair at every p in ``ps``, from one Kronecker product and one ``svd``
    per block for each operand, and one :func:`_schatten_stack` each,
    product side first."""
    _check_factors(T, xs, ys)
    ps = [_as_exponent(p) for p in ps]
    sx, sy = _stack(xs), _stack(ys)
    B, G = len(xs), len(ps)
    sides = []
    for s in (_kron_stack(sx, sy), sx, sy):
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


def corollary7_norm_stack(x1s: list[AlgebraElement],
                          x2s: list[AlgebraElement],
                          phi1s: list[PositiveFunctional],
                          phi2s: list[PositiveFunctional], grid
                          ) -> list[list[tuple[float, float]]]:
    """(interpolated norm of x1 (x) x2, product of the factors' norms) of
    each (x1, x2, phi1, phi2), all on one pair of algebras, at every
    (p, eta) of ``grid``; the product side uses the reference phi1 (x) phi2
    at the factors' (p, eta).

    x1 (x) x2 and phi1 (x) phi2 are built once; the product side and each
    factor get one :func:`kosaki_norm_stack` across the elements and the
    points, in that order.  Element j's error is raised as its one-element
    call raises it (within a side, the first failing point), the first such
    element first."""
    for x1, x2, phi1, phi2 in zip(x1s, x2s, phi1s, phi2s):
        if x1.algebra != phi1.algebra or x2.algebra != phi2.algebra:
            raise ShapeError("elements must live on their spec's algebra")
    points = [[_kosaki_point(p, eta) for p, eta in grid]] * len(x1s)
    T = TensorAlgebra(x1s[0].algebra, x2s[0].algebra)
    s1, s2 = _stack(x1s), _stack(x2s)
    sides = [kosaki_norm_stack(T.product, _kron_stack(s1, s2),
                               kron_functional_stack(T, phi1s, phi2s),
                               points),
             kosaki_norm_stack(T.left, s1, phi1s, points),
             kosaki_norm_stack(T.right, s2, phi2s, points)]
    _raise_pairwise(*(m for _, maps in sides for m in maps))
    return [[(l, a * b) for l, a, b in zip(*rows)]
            for rows in zip(*(norms for norms, _ in sides))]


def spectral_product_stack(T: TensorAlgebra, xs: list[AlgebraElement],
                           ys: list[AlgebraElement]
                           ) -> list[tuple[float, float]]:
    """(residual, largest product) per pair: the spectrum of |x (x) y|
    against all pairwise products of the factors' singular values, both
    sorted and paired in order, the residual the largest absolute mismatch;
    appendixA's gate is its eigenvalue_multiset times (1 + largest product).
    One ``svd`` per block; the sorting and matching are each element's own
    1-D operations."""
    _check_factors(T, xs, ys)
    sx, sy = _stack(xs), _stack(ys)
    svs = [singular_values_stack(s) for s in (sx, sy, _kron_stack(sx, sy))]
    out = []
    for s1, s2, sk in zip(*svs):
        products = np.sort(np.outer(s1, s2).ravel())
        out.append((float(np.max(np.abs(np.sort(sk) - products))),
                    float(products[-1])))
    return out


def kron_identities_stack(T: TensorAlgebra, xs, ys, xps, yps
                          ) -> tuple[np.ndarray, np.ndarray]:
    """(B,) residuals of (x (x) y)* = x* (x) y* and of the mixed product
    (x (x) y)(x' (x) y') = x x' (x) y y' for stacked elements."""
    _check_factors(T, xs, ys)
    _check_factors(T, xps, yps)
    sx, sy, sxp, syp = (_stack(e) for e in (xs, ys, xps, yps))
    kx, ky = _kron_stack(sx, sy), _kron_stack(sxp, syp)
    adjoint = _residuals(_adjoint_stack(kx),
                         _kron_stack(_adjoint_stack(sx), _adjoint_stack(sy)))
    mixed = _residuals([a @ b for a, b in zip(kx, ky)],
                       _kron_stack([a @ b for a, b in zip(sx, sxp)],
                                   [a @ b for a, b in zip(sy, syp)]))
    return adjoint, mixed
