"""Kronecker products of algebras, elements and functionals.

The product of two block algebras carries one block per (left, right) block
pair, ordered left-major; entrywise the convention is row-major,
(x (x) y)[(a,b),(c,d)] = x[a,c] y[b,d], matching numpy.kron.  The checks in
this module verify that polar parts, powers, norms and spectra all factorize
blockwise along simple tensors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import (AlgebraElement, BlockAlgebra, hermitian_eig,
                      polar_decompose)
from .config import resolve_eps_rel
from .errors import DomainError, ShapeError
from .functionals import PositiveFunctional
from .lp import KosakiSpec, kosaki_norm_grid, lp_norms, singular_values
from .reports import CheckReport


@dataclass(frozen=True)
class TensorAlgebra:
    """Product of two block algebras with the left-major block index map."""

    left: BlockAlgebra
    right: BlockAlgebra

    @cached_property
    def product(self) -> BlockAlgebra:
        return BlockAlgebra(tuple(
            n * m for n in self.left.block_dims for m in self.right.block_dims))

    def block_index(self, i: int, j: int) -> int:
        """Flat product-block index of left block i with right block j."""
        return i * self.right.num_blocks + j

    def block_pair(self, k: int) -> tuple[int, int]:
        return divmod(k, self.right.num_blocks)


def kron_element(T: TensorAlgebra, x: AlgebraElement,
                 y: AlgebraElement) -> AlgebraElement:
    """Blockwise Kronecker product of a left and a right element."""
    if x.algebra != T.left:
        raise ShapeError("left factor does not live on the left algebra")
    if y.algebra != T.right:
        raise ShapeError("right factor does not live on the right algebra")
    return AlgebraElement._trusted(
        T.product, [_kron_block(xb, yb) for xb in x.blocks for yb in y.blocks])


def _kron_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) for square blocks, as one broadcast product.

    Entry [(i, j), (k, l)] is the single product a[i, k] * b[j, l], as in
    np.kron, so the result is bit-identical to it.
    """
    n, m = a.shape[0], b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n * m, n * m)


def kron_functional(T: TensorAlgebra, psi1: PositiveFunctional,
                    psi2: PositiveFunctional) -> PositiveFunctional:
    """Product functional; density is the Kronecker of the factor densities.
    It keeps psi1's cutoff."""
    return PositiveFunctional(
        kron_element(T, psi1.density, psi2.density),
        eps_rel=psi1._spectrum.eps_rel)


def lemma5_polar(T: TensorAlgebra, x: AlgebraElement, y: AlgebraElement,
                 tol: float = 1e-9,
                 eps_rel: float | None = None) -> CheckReport:
    """Polar factors of x (x) y against the tensor of the factor polars."""
    vx, ax = polar_decompose(x, eps_rel)
    vy, ay = polar_decompose(y, eps_rel)
    vk, ak = polar_decompose(kron_element(T, x, y), eps_rel)
    residuals = {
        "polar_isometry": (vk - kron_element(T, vx, vy)).frobenius(),
        "polar_modulus": (ak - kron_element(T, ax, ay)).frobenius(),
    }
    return CheckReport.from_residuals(
        "lemma5_polar", residuals, {k: tol for k in residuals})


def lemma5_power_grid(T: TensorAlgebra, x: AlgebraElement,
                      y: AlgebraElement, powers: Sequence[float],
                      tol: float = 1e-9,
                      eps_rel: float | None = None) -> list[CheckReport]:
    """:func:`lemma5_power` at every p in ``powers``.

    x, y and x (x) y are polar-decomposed once, and their moduli
    eigendecomposed once (product first, as in the one-point check); each p
    then costs three spectral applications.  Errors: every p is validated
    before any evaluation; the decompositions come next, then the points in
    order.
    """
    powers = tuple(powers)
    for p in powers:
        if p <= 0:
            raise DomainError(f"power must be positive, got {p}")
    eps = resolve_eps_rel(eps_rel)
    _, ax = polar_decompose(x, eps)
    _, ay = polar_decompose(y, eps)
    _, ak = polar_decompose(kron_element(T, x, y), eps)
    spec_k, spec_x, spec_y = (hermitian_eig(a, eps_rel=eps).clip_psd()
                              for a in (ak, ax, ay))
    reports = []
    for p in powers:
        def f(lam):
            return lam ** float(p)
        lhs = spec_k.apply(f)
        rhs = kron_element(T, spec_x.apply(f), spec_y.apply(f))
        reports.append(CheckReport.from_residuals(
            "lemma5_power", {"power": (lhs - rhs).frobenius()},
            {"power": tol}, info={"p": p}))
    return reports


def lemma5_power(T: TensorAlgebra, x: AlgebraElement, y: AlgebraElement,
                 p: float, tol: float = 1e-9,
                 eps_rel: float | None = None) -> CheckReport:
    """|x (x) y|^p against |x|^p (x) |y|^p for real p > 0."""
    return lemma5_power_grid(T, x, y, [p], tol, eps_rel)[0]


def lemma5_imaginary_grid(T: TensorAlgebra, h1: AlgebraElement,
                          h2: AlgebraElement, ts: Sequence[float],
                          tol: float = 1e-9,
                          eps_rel: float | None = None) -> list[CheckReport]:
    """:func:`lemma5_imaginary` at every t in ``ts``.

    h1 (x) h2, h1 and h2 are eigendecomposed once, in that order; each t
    then costs three spectral applications.  Errors: the decompositions
    come first, then the points in order.
    """
    eps = resolve_eps_rel(eps_rel)
    spec12, spec1, spec2 = (hermitian_eig(h, eps_rel=eps).clip_psd()
                            for h in (kron_element(T, h1, h2), h1, h2))
    reports = []
    for t in ts:
        def f(lam):
            return np.exp(1j * t * np.log(lam))
        lhs = spec12.apply(f)
        rhs = kron_element(T, spec1.apply(f), spec2.apply(f))
        reports.append(CheckReport.from_residuals(
            "lemma5_imaginary", {"imaginary_power": (lhs - rhs).frobenius()},
            {"imaginary_power": tol}, info={"t": t}))
    return reports


def lemma5_imaginary(T: TensorAlgebra, h1: AlgebraElement,
                     h2: AlgebraElement, t: float, tol: float = 1e-9,
                     eps_rel: float | None = None) -> CheckReport:
    """(h1 (x) h2)^{it} against h1^{it} (x) h2^{it} for PSD factors."""
    return lemma5_imaginary_grid(T, h1, h2, [t], tol, eps_rel)[0]


def lemma5_density(T: TensorAlgebra, psi1: PositiveFunctional,
                   psi2: PositiveFunctional, t: float = 0.7,
                   tol: float = 1e-9,
                   eps_rel: float | None = None) -> CheckReport:
    """Product-functional density identity plus its imaginary-power half."""
    prod = kron_functional(T, psi1, psi2)
    direct = kron_element(T, psi1.density, psi2.density)
    res_density = (prod.density - direct).frobenius()
    imag = lemma5_imaginary(T, psi1.density, psi2.density, t, tol, eps_rel)
    residuals = {"density": res_density, **imag.residuals}
    return CheckReport.from_residuals(
        "lemma5_density", residuals, {k: tol for k in residuals},
        info={"t": t})


def theorem6_norm_grid(T: TensorAlgebra, x: AlgebraElement,
                       y: AlgebraElement, ps) -> list[tuple[float, float]]:
    """(||x (x) y||_p, ||x||_p ||y||_p) for every p in ``ps``, from one
    Kronecker product and one :func:`lp_norms` call per operand."""
    ps = tuple(ps)
    lhs = lp_norms(kron_element(T, x, y), ps)
    return [(l, a * b) for l, a, b in zip(lhs, lp_norms(x, ps),
                                          lp_norms(y, ps))]


def theorem6_norm(T: TensorAlgebra, x: AlgebraElement, y: AlgebraElement,
                  p) -> tuple[float, float]:
    """(||x (x) y||_p, ||x||_p ||y||_p); equal up to float error."""
    return theorem6_norm_grid(T, x, y, [p])[0]


def theorem6_spanning(T: TensorAlgebra, sample_budget: int,
                      rng: np.random.Generator,
                      rank_rtol: float = 1e-10) -> bool:
    """Whether random simple tensors span the full product carrier.

    Draws sample_budget Gaussian simple tensors, stacks their flattenings and
    checks the SVD rank against total_dim of the product algebra.
    """
    D = T.product.total_dim
    if sample_budget < D:
        raise DomainError(
            f"sample budget {sample_budget} below carrier dimension {D}")

    def gauss(alg: BlockAlgebra) -> AlgebraElement:
        return AlgebraElement(alg, [
            (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            / math.sqrt(2.0) for n in alg.block_dims])

    rows = np.stack([
        kron_element(T, gauss(T.left), gauss(T.right)).flatten()
        for _ in range(sample_budget)])
    sv = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.count_nonzero(sv > rank_rtol * sv[0])) if sv[0] > 0 else 0
    return rank == D


def corollary7_norm_grid(x1: AlgebraElement, x2: AlgebraElement,
                         phi1: PositiveFunctional, phi2: PositiveFunctional,
                         grid, eps_rel: float | None = None
                         ) -> list[tuple[float, float]]:
    """:func:`corollary7_norm` at every (p, eta) of ``grid``.

    x1 (x) x2 and phi1 (x) phi2 are built once; the product side and each
    factor get one :func:`kosaki_norm_grid` call, in that order, and within
    each the first failing point raises.
    """
    if x1.algebra != phi1.algebra or x2.algebra != phi2.algebra:
        raise ShapeError("elements must live on their spec's algebra")
    grid = tuple(grid)
    eps = resolve_eps_rel(eps_rel)
    T = TensorAlgebra(x1.algebra, x2.algebra)
    lhs = kosaki_norm_grid(kron_element(T, x1, x2),
                           kron_functional(T, phi1, phi2), grid, eps)
    n1 = kosaki_norm_grid(x1, phi1, grid, eps)
    n2 = kosaki_norm_grid(x2, phi2, grid, eps)
    return [(l, a * b) for l, a, b in zip(lhs, n1, n2)]


def corollary7_norm(x1: AlgebraElement, x2: AlgebraElement,
                    spec1: KosakiSpec, spec2: KosakiSpec,
                    eps_rel: float | None = None) -> tuple[float, float]:
    """Interpolated norm of x1 (x) x2 against the product of factor norms.

    The product-side norm uses the tensor reference phi1 (x) phi2 with the
    same (p, eta) as the factors.
    """
    if spec1.p != spec2.p or spec1.eta != spec2.eta:
        raise DomainError("factor norms must share the same (p, eta)")
    return corollary7_norm_grid(x1, x2, spec1.phi, spec2.phi,
                                [(spec1.p, spec1.eta)], eps_rel)[0]


def spectral_product_check(T: TensorAlgebra, x: AlgebraElement,
                           y: AlgebraElement, tol_scale: float = 1e-9
                           ) -> CheckReport:
    """Spectrum of |x (x) y| equals all pairwise singular-value products.

    Both multisets are sorted and paired greedily in order; the residual is
    the largest absolute mismatch, judged against tol_scale * largest value.
    """
    sx = singular_values(x)
    sy = singular_values(y)
    products = np.sort(np.outer(sx, sy).ravel())
    spectrum = np.sort(singular_values(kron_element(T, x, y)))
    top = float(products[-1]) if products.size else 0.0
    residual = float(np.max(np.abs(spectrum - products)))
    return CheckReport.from_residuals(
        "spectral_product", {"eigenvalue_multiset": residual},
        {"eigenvalue_multiset": tol_scale * (1.0 + top)})
