"""Finite-dimensional block *-algebra: elements, spectral calculus, polar parts.

The ambient algebra is a direct sum of full complex matrix blocks.  Elements
are block-diagonal matrices; all spectral machinery (functional calculus,
support projections, polar decomposition) applies the kernel convention from
:mod:`nclp.config`: directions flagged as kernel map to the declared f(0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import HERMITIAN_TOL, PSD_CLIP_TOL, resolve_eps_rel
from .errors import DomainError, ShapeError


@dataclass(frozen=True)
class BlockAlgebra:
    """Direct sum of full matrix blocks, described by its block dimensions."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(int(n) for n in self.block_dims)
        if len(dims) < 1:
            raise DomainError("algebra needs at least one block")
        if any(n < 1 for n in dims):
            raise DomainError(f"block dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "block_dims", dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def total_dim(self) -> int:
        """Flat storage length of an element: sum of squared block dims."""
        return int(sum(n * n for n in self.block_dims))

    @property
    def carrier_dim(self) -> int:
        """Dimension of the underlying direct-sum Hilbert space."""
        return int(sum(self.block_dims))

    def element(self, blocks: Iterable[np.ndarray]) -> "AlgebraElement":
        return AlgebraElement(self, blocks)

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.eye(n) for n in self.block_dims])

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.zeros((n, n)) for n in self.block_dims])

    def diagonal(self, entries: Sequence[float]) -> "AlgebraElement":
        """Element with the given carrier-diagonal, zeros elsewhere."""
        entries = np.asarray(entries)
        if entries.shape != (self.carrier_dim,):
            raise ShapeError(f"need {self.carrier_dim} diagonal entries")
        blocks, ofs = [], 0
        for n in self.block_dims:
            blocks.append(np.diag(entries[ofs:ofs + n]))
            ofs += n
        return AlgebraElement(self, blocks)

    def from_flat(self, flat: np.ndarray) -> "AlgebraElement":
        """Inverse of :meth:`AlgebraElement.flatten` (row-major per block)."""
        flat = np.asarray(flat)
        if flat.shape != (self.total_dim,):
            raise ShapeError(f"flat vector must have length {self.total_dim}")
        blocks, ofs = [], 0
        for n in self.block_dims:
            blocks.append(flat[ofs:ofs + n * n].reshape(n, n))
            ofs += n * n
        return AlgebraElement(self, blocks)

    def from_full(self, full: np.ndarray) -> "AlgebraElement":
        """Compress a carrier-space matrix onto its block-diagonal part.

        Off-block entries are discarded; this is the trace-preserving
        conditional expectation onto the algebra.
        """
        N = self.carrier_dim
        full = np.asarray(full)
        if full.shape != (N, N):
            raise ShapeError(f"full matrix must be {N}x{N}, got {full.shape}")
        blocks, ofs = [], 0
        for n in self.block_dims:
            blocks.append(full[ofs:ofs + n, ofs:ofs + n])
            ofs += n
        return AlgebraElement(self, blocks)


class AlgebraElement:
    """Immutable block-diagonal complex matrix on a :class:`BlockAlgebra`.

    The public constructor copies every block to complex128 and checks the
    block count and shapes.  Results the package computes itself go through
    :meth:`_trusted` instead, which skips both.
    """

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: BlockAlgebra, blocks: Iterable[np.ndarray]):
        mats = tuple(np.array(b, dtype=np.complex128) for b in blocks)
        if len(mats) != algebra.num_blocks:
            raise ShapeError(
                f"expected {algebra.num_blocks} blocks, got {len(mats)}")
        for mat, n in zip(mats, algebra.block_dims):
            if mat.shape != (n, n):
                raise ShapeError(f"block shape {mat.shape} != ({n}, {n})")
            mat.setflags(write=False)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "blocks", mats)

    @classmethod
    def _trusted(cls, algebra: BlockAlgebra,
                 blocks: Iterable[np.ndarray]) -> "AlgebraElement":
        """Wrap blocks without copying or checking them.

        Contract: every block is a fresh complex128 array of shape (n, n)
        for its block dimension n, in block order, and no other object holds
        a writable reference to it.  The blocks are marked read-only here, as
        the public constructor does.
        """
        mats = tuple(blocks)
        for mat in mats:
            mat.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "blocks", mats)
        return self

    # -- structure ---------------------------------------------------------

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement._trusted(self.algebra,
                                       [b.conj().T for b in self.blocks])

    @property
    def H(self) -> "AlgebraElement":
        return self.adjoint()

    def frobenius(self) -> float:
        return float(np.sqrt(sum(np.sum(np.abs(b) ** 2) for b in self.blocks)))

    def flatten(self) -> np.ndarray:
        """Row-major concatenation of all blocks (length = total_dim)."""
        return np.concatenate([b.ravel() for b in self.blocks])

    def full_matrix(self) -> np.ndarray:
        """Embed as a block-diagonal matrix on the direct-sum carrier."""
        N = self.algebra.carrier_dim
        out = np.zeros((N, N), dtype=np.complex128)
        ofs = 0
        for b in self.blocks:
            n = b.shape[0]
            out[ofs:ofs + n, ofs:ofs + n] = b
            ofs += n
        return out

    def carrier_diagonal(self) -> np.ndarray:
        return np.concatenate([np.diag(b) for b in self.blocks])

    def hermitian_defect(self) -> float:
        return float(np.sqrt(sum(
            np.sum(np.abs(b - b.conj().T) ** 2) for b in self.blocks)))

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        return self.hermitian_defect() <= tol * (1.0 + self.frobenius())

    # -- arithmetic --------------------------------------------------------

    def _require_same_algebra(self, other: "AlgebraElement"):
        if not isinstance(other, AlgebraElement):
            raise TypeError(f"expected AlgebraElement, got {type(other)!r}")
        if other.algebra != self.algebra:
            raise ShapeError(
                f"algebra mismatch: {self.algebra.block_dims} vs "
                f"{other.algebra.block_dims}")

    def __add__(self, other):
        self._require_same_algebra(other)
        return AlgebraElement._trusted(
            self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other):
        self._require_same_algebra(other)
        return AlgebraElement._trusted(
            self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)])

    def __neg__(self):
        return AlgebraElement._trusted(self.algebra, [-b for b in self.blocks])

    def __mul__(self, scalar):
        return AlgebraElement(self.algebra, [scalar * b for b in self.blocks])

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return AlgebraElement(self.algebra, [b / scalar for b in self.blocks])

    def __matmul__(self, other):
        return multiply(self, other)

    def __repr__(self):
        return (f"AlgebraElement(blocks={self.algebra.block_dims}, "
                f"frobenius={self.frobenius():.6g})")


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Blockwise matrix product; operands must live on the same algebra."""
    x._require_same_algebra(y)
    return AlgebraElement._trusted(
        x.algebra, [a @ b for a, b in zip(x.blocks, y.blocks)])


def canonical_trace(x: AlgebraElement) -> complex:
    """Sum of diagonal entries over all blocks (the tracial functional)."""
    return complex(sum(np.trace(b) for b in x.blocks))


def frobenius_distance(x: AlgebraElement, y: AlgebraElement) -> float:
    return (x - y).frobenius()


# -- spectral machinery ------------------------------------------------------


@dataclass(frozen=True)
class HermitianSpectrum:
    """Blockwise eigendecomposition with the kernel mask already applied.

    Eigenvalues ascend within each block; the mask flags entries with
    ``|eig| <= eps_rel * spectral_radius`` (radius taken across all blocks).
    """

    algebra: BlockAlgebra
    eigenvalues: tuple[np.ndarray, ...]
    eigenvectors: tuple[np.ndarray, ...]
    kernel_mask: tuple[np.ndarray, ...]
    eps_rel: float

    @property
    def spectral_radius(self) -> float:
        return float(max(np.max(np.abs(v)) if v.size else 0.0
                         for v in self.eigenvalues))

    def flat_eigenvalues(self) -> np.ndarray:
        return np.concatenate(self.eigenvalues)

    def flat_kernel_mask(self) -> np.ndarray:
        return np.concatenate(self.kernel_mask)

    def rank(self) -> int:
        return int(sum(np.count_nonzero(~m) for m in self.kernel_mask))

    def min_nonkernel(self) -> float:
        kept = self.flat_eigenvalues()[~self.flat_kernel_mask()]
        return float(np.min(kept)) if kept.size else 0.0

    def apply(self, f: Callable[[np.ndarray], np.ndarray],
              f_zero: complex = 0.0) -> AlgebraElement:
        """Functional calculus: f on non-kernel eigenvalues, f(0) elsewhere."""
        out = []
        for vals, vecs, mask in zip(self.eigenvalues, self.eigenvectors,
                                    self.kernel_mask):
            fv = np.full(vals.shape, complex(f_zero), dtype=np.complex128)
            keep = ~mask
            if keep.any():
                with np.errstate(all="ignore"):
                    fk = np.asarray(f(vals[keep]), dtype=np.complex128)
                if not np.all(np.isfinite(fk)):
                    raise _nonfinite_error()
                fv[keep] = fk
            out.append((vecs * fv) @ vecs.conj().T)
        return AlgebraElement._trusted(self.algebra, out)

    def eigenvalue_powers(self, exponents: Sequence[float]
                          ) -> tuple[np.ndarray, ...]:
        """Per block, a (G, n) array whose row g holds lam ** exponents[g]
        on the non-kernel eigenvalues and 0 on the kernel.

        Each row is one 1-D power of the kept eigenvalues, as in
        :meth:`apply`, so a row equals the scaling a single exponent gets.
        """
        exps = [float(e) for e in exponents]
        rows = []
        for vals, mask in zip(self.eigenvalues, self.kernel_mask):
            keep = ~mask
            kept = vals[keep]
            powers = np.array([kept ** e for e in exps]).reshape(
                len(exps), kept.size)
            if kept.size == vals.size:
                rows.append(powers)
                continue
            out = np.zeros((len(exps), vals.size))
            out[:, keep] = powers
            rows.append(out)
        return tuple(rows)

    def power_stack(self, exponents: Sequence[float]
                    ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """h^e for every e in ``exponents``, as one (G, n, n) stack per block.

        Slice g of each block equals ``apply(lambda lam: lam ** e)`` for
        e = exponents[g], bit for bit.  Instead of raising, returns with the
        blocks a (G,) mask of the exponents whose powers are finite on every
        non-kernel eigenvalue; the caller raises :func:`_nonfinite_error` for
        a False entry at that exponent's turn.  Rows that are not finite are
        zeroed, so that stacked LAPACK calls on them still run.
        """
        with np.errstate(all="ignore"):
            rows = self.eigenvalue_powers(exponents)
        finite = np.ones(len(exponents), dtype=bool)
        for r in rows:
            finite &= np.isfinite(r).all(axis=1)
        if not finite.all():
            for r in rows:
                r[~finite] = 0.0
        blocks = tuple((vecs * r[:, None, :]) @ vecs.conj().T
                       for vecs, r in zip(self.eigenvectors, rows))
        return blocks, finite

    def reconstruct(self) -> AlgebraElement:
        return self.apply(lambda lam: lam, f_zero=0.0)

    def support(self) -> AlgebraElement:
        """Projection onto the span of the non-kernel eigenvectors.

        Computed on the first call and shared afterwards; the projection is
        immutable, and the divergence paths ask for it once per parameter.
        """
        return self._support

    @cached_property
    def _support(self) -> AlgebraElement:
        return self.apply(lambda lam: np.ones_like(lam), f_zero=0.0)

    def clip_psd(self) -> "HermitianSpectrum":
        """Clip tiny negative eigenvalues to 0; reject genuinely negative ones
        and a non-finite spectrum (entries so large that they overflow).

        The kernel mask is recomputed from the clipped values so that every
        clipped direction counts as kernel.
        """
        radius = self.spectral_radius
        floor = -PSD_CLIP_TOL * radius
        clipped = []
        for vals in self.eigenvalues:
            if not np.isfinite(vals).all():
                raise DomainError("matrix has a non-finite eigenvalue")
            if np.any(vals < floor):
                raise DomainError(
                    f"matrix is not PSD: eigenvalue {float(np.min(vals)):.3e} "
                    f"below clip tolerance {floor:.3e}")
            clipped.append(np.maximum(vals, 0.0))
        new_radius = max(float(np.max(v)) for v in clipped)
        masks = tuple(v <= self.eps_rel * new_radius for v in clipped)
        clipped = tuple(clipped)
        for arr in (*clipped, *masks):
            arr.setflags(write=False)
        return HermitianSpectrum(self.algebra, clipped, self.eigenvectors,
                                 masks, self.eps_rel)


def _nonfinite_error() -> DomainError:
    """The error of a function that is non-finite at a kept eigenvalue."""
    return DomainError(
        "function undefined (non-finite) at a non-kernel eigenvalue")


def _symmetrized(h: AlgebraElement, hermitize: bool) -> AlgebraElement:
    """(h + h*)/2 after the Hermitian gate (skipped when ``hermitize``).

    The result is exactly Hermitian, so symmetrizing it again returns the
    same bits.
    """
    defect = h.hermitian_defect()
    if not hermitize and defect > HERMITIAN_TOL * (1.0 + h.frobenius()):
        raise DomainError(
            f"matrix is not Hermitian (defect {defect:.3e}); pass "
            f"hermitize=True to symmetrize")
    return AlgebraElement._trusted(
        h.algebra, [(b + b.conj().T) / 2.0 for b in h.blocks])


def hermitian_eig(h: AlgebraElement, hermitize: bool = False,
                  eps_rel: float | None = None) -> HermitianSpectrum:
    """Blockwise Hermitian eigendecomposition with global kernel mask.

    Inputs within the Hermitian gate are symmetrized to (h + h*)/2 before
    solving, so the decomposition is deterministic for near-Hermitian data.
    ``hermitize=True`` skips the gate and symmetrizes unconditionally.
    """
    eps = resolve_eps_rel(eps_rel)
    return _symmetric_eig(_symmetrized(h, hermitize), eps)


def _symmetric_eig(sym: AlgebraElement, eps: float) -> HermitianSpectrum:
    """Eigendecomposition of an element already returned by _symmetrized,
    with a resolved cutoff ``eps``."""
    vals_list, vecs_list = [], []
    for b in sym.blocks:
        vals, vecs = np.linalg.eigh(b)
        vals_list.append(vals)
        vecs_list.append(vecs)
    radius = max(float(np.max(np.abs(v))) for v in vals_list)
    masks = tuple(np.abs(v) <= eps * radius for v in vals_list)
    vals_t = tuple(vals_list)
    vecs_t = tuple(vecs_list)
    for arr in (*vals_t, *vecs_t, *masks):
        arr.setflags(write=False)
    return HermitianSpectrum(sym.algebra, vals_t, vecs_t, masks, eps)


def func_calc(h: AlgebraElement, f: Callable[[np.ndarray], np.ndarray],
              f_zero: complex = 0.0, hermitize: bool = False,
              eps_rel: float | None = None) -> AlgebraElement:
    """Apply a scalar function to a Hermitian element.

    f acts on the non-kernel eigenvalues; kernel directions receive the
    declared ``f_zero`` (0 for imaginary, fractional and negative powers).
    """
    return hermitian_eig(h, hermitize=hermitize, eps_rel=eps_rel).apply(
        f, f_zero=f_zero)


def element_power(h: AlgebraElement, r: float, hermitize: bool = False,
                  eps_rel: float | None = None) -> AlgebraElement:
    """PSD power h^r with the kernel convention 0^r := 0 (also for r <= 0).

    Negative and fractional powers act as support pseudo-inverses; the input
    must be PSD up to the clip tolerance.
    """
    spec = hermitian_eig(h, hermitize=hermitize, eps_rel=eps_rel).clip_psd()
    return spec.apply(lambda lam: lam ** float(r), f_zero=0.0)


def imaginary_power(h: AlgebraElement, t: float, hermitize: bool = False,
                    eps_rel: float | None = None) -> AlgebraElement:
    """h^{it} on the support of PSD h, zero on its kernel.

    The result is a partial isometry u with u* u = support(h).
    """
    spec = hermitian_eig(h, hermitize=hermitize, eps_rel=eps_rel).clip_psd()
    return spec.apply(lambda lam: np.exp(1j * t * np.log(lam)), f_zero=0.0)


def support_projection(h: AlgebraElement,
                       eps_rel: float | None = None) -> AlgebraElement:
    """Range projection of a PSD element (p = p* = p^2, ph = hp = h)."""
    return hermitian_eig(h, eps_rel=eps_rel).clip_psd().support()


def polar_decompose(x: AlgebraElement, eps_rel: float | None = None
                    ) -> tuple[AlgebraElement, AlgebraElement]:
    """Canonical polar factors: x = v |x| with |x| = (x* x)^{1/2}.

    v is the phase-canonical partial isometry x (x* x)^{-1/2} on the support,
    so v* v equals the support projection of |x|.
    """
    eps = resolve_eps_rel(eps_rel)
    svds = [np.linalg.svd(b) for b in x.blocks]
    sigma_max = max(float(s[0]) if s.size else 0.0 for _, s, _ in svds)
    v_blocks, abs_blocks = [], []
    for u, s, vh in svds:
        keep = s > eps * sigma_max
        abs_blocks.append(vh.conj().T @ (s[:, None] * vh))
        v_blocks.append(u[:, keep] @ vh[keep, :])
    return (AlgebraElement._trusted(x.algebra, v_blocks),
            AlgebraElement._trusted(x.algebra, abs_blocks))
