"""Finite-dimensional block *-algebra: elements, spectral calculus, polar parts.

The ambient algebra is a direct sum of full complex matrix blocks.  Elements
are block-diagonal matrices.  Spectra are those of PSD densities, whose
public calculus is the methods of :class:`nclp.functionals.PositiveFunctional`.
The kernel convention of :mod:`nclp.config` sends kernel directions to 0, or
to the f(0) that a caller of :meth:`HermitianSpectrum.apply` declares; polar
decomposition drops the singular values it flags.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .config import HERMITIAN_TOL, PSD_CLIP_TOL, RECOMPOSITION_TOL
from .errors import DomainError, ShapeError, _check_type, _finite_number


@dataclass(frozen=True)
class BlockAlgebra:
    """Direct sum of full matrix blocks, described by its block dimensions."""

    block_dims: tuple[int, ...]

    def __post_init__(self):
        try:
            dims = tuple(operator.index(n) for n in self.block_dims)
        except TypeError as exc:
            raise DomainError(f"block dimensions must be integers, got "
                              f"{self.block_dims!r}") from exc
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

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.eye(n) for n in self.block_dims])

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.zeros((n, n)) for n in self.block_dims])

    def diagonal(self, entries: Sequence[float]) -> "AlgebraElement":
        """Element with the given carrier-diagonal, zeros elsewhere."""
        entries = _complex_array(entries)
        if entries.shape != (self.carrier_dim,):
            raise ShapeError(f"need {self.carrier_dim} diagonal entries")
        blocks, ofs = [], 0
        for n in self.block_dims:
            blocks.append(np.diag(entries[ofs:ofs + n]))
            ofs += n
        return AlgebraElement(self, blocks)


class AlgebraElement:
    """Immutable block-diagonal complex matrix on a :class:`BlockAlgebra`.

    The public constructor copies every block to complex128 and checks the
    block count, the shapes and that the entries are finite; results the
    package computes itself go through :meth:`_trusted`, which skips that.
    """

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: BlockAlgebra, blocks: Iterable[np.ndarray]):
        _check_type(algebra, BlockAlgebra, "an element needs a BlockAlgebra")
        mats = tuple(_complex_array(b) for b in blocks)
        if len(mats) != algebra.num_blocks:
            raise ShapeError(
                f"expected {algebra.num_blocks} blocks, got {len(mats)}")
        for mat, n in zip(mats, algebra.block_dims):
            if mat.shape != (n, n):
                raise ShapeError(f"block shape {mat.shape} != ({n}, {n})")
            if not np.isfinite(mat).all():
                raise DomainError("matrix entries must be finite")
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

    def frobenius(self) -> float:
        """sqrt(sum |entries|^2) over all blocks; inf beyond the float
        range.  :func:`_frobenius_stack` of the unstacked blocks."""
        return float(_frobenius_stack(self.blocks))

    # -- arithmetic --------------------------------------------------------

    def _require_same_algebra(self, other: "AlgebraElement"):
        _check_type(other, AlgebraElement,
                    "element arithmetic needs an AlgebraElement")
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
        """c * x for a finite number c; an entry beyond the float range
        becomes inf without a warning."""
        c = _finite_number(scalar, "a scalar factor")
        with np.errstate(over="ignore", invalid="ignore"):
            return AlgebraElement._trusted(self.algebra,
                                           [c * b for b in self.blocks])

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        """x / c for a finite number c whose reciprocal is finite, as
        :meth:`__mul__`.  numpy's complex division scales by the reciprocal,
        so a c of subnormal size would turn zero entries into NaN."""
        c = _finite_number(scalar, "a divisor")
        if c == 0 or not cmath.isfinite(1 / c):
            raise DomainError(f"a divisor must have a finite reciprocal, "
                              f"got {scalar!r}")
        with np.errstate(over="ignore", invalid="ignore"):
            return AlgebraElement._trusted(self.algebra,
                                           [b / c for b in self.blocks])

    def __matmul__(self, other):
        """Blockwise matrix product; operands must live on the same
        algebra."""
        self._require_same_algebra(other)
        return AlgebraElement._trusted(
            self.algebra, [a @ b for a, b in zip(self.blocks, other.blocks)])

    def __repr__(self):
        return (f"AlgebraElement(blocks={self.algebra.block_dims}, "
                f"frobenius={self.frobenius():.6g})")


def _complex_array(raw) -> np.ndarray:
    """A fresh complex128 array of ``raw``; DomainError unless ``raw`` is a
    rectangular nesting of numbers within the float range."""
    try:
        return np.array(raw, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"matrix entries must be numbers: {exc}") from exc


def canonical_trace(x: AlgebraElement) -> complex:
    """Sum of diagonal entries over all blocks (the tracial functional)."""
    return complex(sum(np.trace(b) for b in x.blocks))


# -- stacks ------------------------------------------------------------------
#
# A stack holds B elements of one algebra as one (B, n, n) array per block,
# so that each LAPACK routine, matmul and reduction runs once per block for
# all B elements.  numpy applies them matrix by matrix, so every slice equals
# the one-element result bit for bit.  Spectra have one representation, the
# :class:`SpectrumStack` of B eigendecompositions, which one ``eigh`` per
# block fills, with the elements it decomposed; a :class:`HermitianSpectrum`
# is one row of it, and so is a functional of a batch.  The scalar work of the
# elements and their grid points (eigenvalue powers, imaginary powers, Q
# sums, Schatten norms) runs as row reductions over the stacks, each row
# equal to the 1-D operation it stands for (see :func:`_powers` and
# :func:`_kept_power_sums`); one kernel, :func:`_apply_stack`, turns such
# rows into elements, and one, :func:`_corner_solve`, solves y = h^l x h^r
# on the support corner of each row's h and certifies the solutions.  The
# one-element functions of this package are B = 1 calls of the stacked
# kernels.  A kernel takes a batch of elements as per-block stacks, whose
# block shapes name their algebra (:func:`_algebra_of`), and a batch of
# functionals as a :class:`SpectrumStack`, and checks their algebras and
# sizes in one :func:`_check_batches`.  :class:`AlgebraElement` and
# ``functionals.PositiveFunctional`` are the types of the one-point API,
# which stacks and unstacks at that boundary (:func:`_stack`,
# :func:`_unstack`, ``functionals._stacks``, ``functionals._rows``).
# Kernels only compute: they take no tolerance (the corner solve reads its
# one budget from the config), build no report or report string (a check
# kernel returns residuals and values), and resolve no cutoff.  A kernel on
# functionals reads their spectrum stacks and their cutoffs; any other is
# given a resolved cutoff.


def _stacked(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays stacked along a new leading axis; a view for one array."""
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


# For a Python-float exponent e, numpy computes ``array ** e`` with power,
# but may send some values of e to another ufunc whose last bit can differ:
# numpy 2.4 sends 0.5 to sqrt, and some versions also send 2, 1 and -1 to
# square, positive and reciprocal.
_SCALAR_POWER_EXPONENTS = (0.5, 2.0, 1.0, -1.0)


def _powers(x: np.ndarray, exponents) -> np.ndarray:
    """x ** e row by row, as one broadcast power: ``exponents`` (a
    G-sequence, or an array of the leading shape) gives row g its e, and x
    has the result's shape (..., G, n), or 1 in place of G.

    Each row equals the 1-D ``row ** e`` with e a Python float, bit for bit:
    power is elementwise, and the rows at an exponent that numpy may route
    to another ufunc are redone as ``** e``.  A single exponent is one
    ``** e``."""
    exps = np.asarray(exponents, dtype=float)
    if exps.size == 1 and exps.ndim < x.ndim:
        return x ** exps.item()
    out = np.power(x, exps[..., None])
    flat = exps.ravel().tolist()
    for e in _SCALAR_POWER_EXPONENTS:
        if e not in flat:
            continue
        if len(flat) == exps.shape[-1]:
            # One exponent per g for every leading index: redo rows g (one
            # row by a basic index, which costs less).
            gs = [g for g, v in enumerate(flat) if v == e]
            if len(gs) == 1:
                g = gs[0]
                out[..., g, :] = x[..., g if x.shape[-2] > 1 else 0, :] ** e
            else:
                out[..., gs, :] = (x if x.shape[-2] == 1
                                   else x[..., gs, :]) ** e
        else:
            if x.shape != out.shape:
                x = np.repeat(x, out.shape[-2], axis=-2)
            hit = exps == e
            out[..., hit, :] = x[..., hit, :] ** e
    return out


def _kept_power_sums(x: np.ndarray, keep: np.ndarray,
                     exponents) -> np.ndarray:
    """Per row (last axis) of x, the sum of its kept entries' powers: the
    row at index (..., g) sums ``row[keep_row] ** exponents[g]`` and equals
    that 1-D operation bit for bit.

    The rows with k kept entries are compressed, in order, to a (rows, k)
    array that is powered (see :func:`_powers`) and summed row by row.
    Summing zero-filled full rows instead would differ: numpy's pairwise sum
    adds rows of 8 or more entries in blocks of eight."""
    kept = np.count_nonzero(keep)
    if kept == keep.size:
        return _powers(x, exponents).sum(axis=-1)
    if keep.size == keep.shape[-1]:
        return _powers(x[keep].reshape(*keep.shape[:-1], kept),
                       exponents).sum(axis=-1)
    counts = keep.sum(axis=-1)
    exps = np.broadcast_to(np.asarray(exponents, dtype=float), counts.shape)
    sums = np.zeros(counts.shape)
    for k in set(counts.ravel().tolist()) - {0}:
        rows = counts == k
        sums[rows] = _powers(x[rows][keep[rows]].reshape(-1, k),
                             exps[rows]).sum(axis=-1)
    return sums


def _complex_stacks(flats: Sequence[np.ndarray],
                    shapes) -> list[np.ndarray]:
    """The complex Gaussian matrices that B flat standard-normal draws hold:
    per shape (r, c), in order, the (B, r, c) stack of (re + i im)/sqrt(2),
    each matrix's real part drawn before its imaginary part.  One draw of
    the total size holds the numbers of consecutive draws of the parts."""
    flat, out, ofs = _stacked(flats), [], 0
    for r, c in shapes:
        re, im = (flat[:, ofs + i * r * c:ofs + (i + 1) * r * c].reshape(
            -1, r, c) for i in (0, 1))
        out.append((re + 1j * im) / math.sqrt(2.0))
        ofs += 2 * r * c
    return out


def _check_draw(rng, *algebras) -> None:
    """The one entry check of the random draws: ``rng`` is a numpy
    Generator and every algebra a BlockAlgebra (ranks are checked where
    they are filled, by ``suites._distribute``)."""
    _check_type(rng, np.random.Generator, "a draw needs a numpy Generator")
    for alg in algebras:
        _check_type(alg, BlockAlgebra, "a draw needs a BlockAlgebra")


def _stack(elements: Sequence[AlgebraElement]) -> tuple[np.ndarray, ...]:
    """Per block, the (B, n, n) stack of the elements' blocks, in order;
    DomainError unless every element is an AlgebraElement."""
    for x in elements:
        _check_type(x, AlgebraElement, "an element argument must be an "
                    "AlgebraElement")
    return tuple([_stacked(arrays)
                  for arrays in zip(*[x.blocks for x in elements])])


def _algebra_of(stacked: Sequence[np.ndarray]) -> BlockAlgebra:
    """The algebra of per-block stacks, read off their block shapes."""
    return BlockAlgebra(tuple(s.shape[-1] for s in stacked))


def _check_batches(batches, algebras=(), message: str = "") -> None:
    """The entry check of a kernel's batches, before any numpy call:
    ShapeError(message) unless all ``algebras`` are equal, then ShapeError
    unless all batches hold the same number of rows B.  A batch is sized by
    ``len``: a :class:`SpectrumStack`, the first block of per-block element
    stacks, or a per-row list (exponents, parameters, channels)."""
    if any(a != algebras[0] for a in algebras[1:]):
        raise ShapeError(message)
    sizes = [len(b) for b in batches]
    if any(n != sizes[0] for n in sizes[1:]):
        raise ShapeError(f"a kernel's batches must have one length, got "
                         f"{sizes}")


def _unstack(stacked: Sequence[np.ndarray]) -> list[AlgebraElement]:
    """The B elements of per-block (B, n, n) stacks that the package
    computed itself, on the algebra of their block shapes.  The stacks
    become read-only; the blocks are views."""
    algebra = _algebra_of(stacked)
    for s in stacked:
        s.setflags(write=False)
    return [AlgebraElement._trusted(algebra, [s[j] for s in stacked])
            for j in range(len(stacked[0]))]


def _full_stack(stacked: Sequence[np.ndarray]) -> np.ndarray:
    """The block-diagonal matrices of stacked blocks, over any leading axes
    (none for one element's blocks)."""
    ofs = np.cumsum([0, *(s.shape[-1] for s in stacked)])
    out = np.zeros((*stacked[0].shape[:-2], ofs[-1], ofs[-1]), np.complex128)
    for a, b, s in zip(ofs[:-1], ofs[1:], stacked):
        out[..., a:b, a:b] = s
    return out


def _frobenius_stack(stacked: Sequence[np.ndarray]) -> np.ndarray:
    """(B,) Frobenius norms of stacked elements; inf beyond the float
    range."""
    with np.errstate(over="ignore"):
        return np.sqrt(_squared_norms(stacked))


def _squared_norms(stacked: Sequence[np.ndarray]) -> np.ndarray:
    """Sum of |entries|^2 over the last two axes of every block."""
    return sum((abs(s) ** 2).sum(axis=(-2, -1)) for s in stacked)


def _adjoint_stack(stacked: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    return tuple(s.conj().swapaxes(-2, -1) for s in stacked)


def _kron_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) for square blocks, over any leading axes, as one
    broadcast product.

    Entry [(i, j), (k, l)] is the single product a[i, k] * b[j, l], as in
    np.kron, so the result is bit-identical to it.
    """
    n, m = a.shape[-1], b.shape[-1]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(
        *a.shape[:-2], n * m, n * m)


# -- spectral machinery ------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SpectrumStack:
    """The one representation of spectra: blockwise eigendecompositions of
    B elements of one algebra with the kernel masks applied, per block the
    (B, n) eigenvalues, (B, n, n) eigenvectors, (B, n) masks and (B, n, n)
    symmetrized elements, and the (B,) spectral radii, all read-only.  The
    kernels read its arrays; a :class:`HermitianSpectrum` is a row, and so
    is a functional."""

    algebra: BlockAlgebra
    eigenvalues: tuple[np.ndarray, ...]
    eigenvectors: tuple[np.ndarray, ...]
    kernel_mask: tuple[np.ndarray, ...]
    densities: tuple[np.ndarray, ...]
    radius: np.ndarray
    eps_rel: float

    def __post_init__(self):
        for arr in (*self.eigenvalues, *self.eigenvectors, *self.kernel_mask,
                    *self.densities, self.radius):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.eigenvalues[0].shape[0]

    @cached_property
    def masses(self) -> np.ndarray:
        """(B,) traces of the rows' densities, computed on the first read:
        each equals the row's :func:`canonical_trace`, real part."""
        return sum(np.trace(d, axis1=-2, axis2=-1)
                   for d in self.densities).real


@dataclass(frozen=True)
class HermitianSpectrum:
    """One PSD element's blockwise eigendecomposition, clipped, with the
    kernel mask applied: row ``row`` of a :class:`SpectrumStack`, whose
    arrays its attributes view (a B = 1 view of the stack).

    Eigenvalues ascend within each block; the mask flags entries with
    ``|eig| <= eps_rel * spectral_radius`` (radius taken across all blocks).
    """

    stack: SpectrumStack
    row: int

    algebra = property(lambda self: self.stack.algebra)
    eps_rel = property(lambda self: self.stack.eps_rel)
    eigenvalues = property(lambda self: tuple(
        v[self.row] for v in self.stack.eigenvalues))
    eigenvectors = property(lambda self: tuple(
        u[self.row] for u in self.stack.eigenvectors))
    kernel_mask = property(lambda self: tuple(
        m[self.row] for m in self.stack.kernel_mask))
    densities = property(lambda self: tuple(
        d[self.row] for d in self.stack.densities))

    spectral_radius = property(lambda self: float(
        self.stack.radius[self.row]))

    def rank(self) -> int:
        return int(sum(np.count_nonzero(~m) for m in self.kernel_mask))

    def _calculus(self, values: Callable, *args) -> AlgebraElement:
        """The element U diag(v) U* of this spectrum at the values v that
        ``values(single, *args)`` gives for its B = 1 stack ``single`` (see
        :func:`_apply_stack`)."""
        single = _gather(self)
        return AlgebraElement._trusted(self.algebra, [
            b.reshape(b.shape[-2:])
            for b in _apply_stack(single, values(single, *args))])

    def apply(self, f: Callable[[np.ndarray], np.ndarray],
              f_zero: complex = 0.0) -> AlgebraElement:
        """Functional calculus: f on non-kernel eigenvalues, f(0) elsewhere,
        each block's kept eigenvalues one 1-D call of f."""
        _check_type(f, Callable, "functional calculus needs a callable f")
        return self._calculus(_calc_values, f, f_zero)

    def support(self) -> AlgebraElement:
        """Projection onto the span of the non-kernel eigenvectors.  One row
        of :func:`_support_stack`."""
        return _unstack(_support_stack(_gather(self)))[0]


def _gather(spectrum: HermitianSpectrum) -> SpectrumStack:
    """The B = 1 stack of one spectrum: its stack if that holds one row,
    else a view of its row.  The one place that turns a row into a
    stack."""
    stack, j = spectrum.stack, spectrum.row
    if len(stack) == 1:
        return stack
    return SpectrumStack(stack.algebra, *(
        tuple(a[j:j + 1] for a in arrays) for arrays in (
            stack.eigenvalues, stack.eigenvectors, stack.kernel_mask,
            stack.densities)), stack.radius[j:j + 1], stack.eps_rel)


def _nonfinite_error() -> DomainError:
    """The error of a function that is non-finite at a kept eigenvalue."""
    return DomainError(
        "function undefined (non-finite) at a non-kernel eigenvalue")


def _radius(vals: Sequence[np.ndarray]) -> np.ndarray:
    """(B,) largest |eigenvalue| across the blocks of each element (a
    scalar for unstacked blocks).

    Blocks are combined as Python's ``max`` combines them (a later block
    wins only if it is larger), so a NaN block counts only when it comes
    first, exactly as in a one-element loop."""
    radius = abs(vals[0]).max(axis=-1)
    for v in vals[1:]:
        r = abs(v).max(axis=-1)
        radius = np.where(r > radius, r, radius)
    return radius


def _kernel_masks(vals: Sequence[np.ndarray],
                  eps: float) -> tuple[np.ndarray, ...]:
    """The kernel convention: per block, the (..., n) mask of eigenvalues
    (or singular values) with |lam| <= eps * radius, the radius taken
    across all blocks."""
    cut = eps * _radius(vals)[..., None]
    return tuple(abs(v) <= cut for v in vals)


def _clip_stack(vals: Sequence[np.ndarray], eps: float) -> tuple:
    """The PSD clip of stacked eigenvalues: values in [-PSD_CLIP_TOL * radius,
    0) become 0, and the kernel masks are recomputed from the clipped values
    so that every clipped direction counts as kernel.  Returns the clipped
    values and the masks per block, and the (B,) radii of the clipped
    values.

    Raises the DomainError of the first element, in order, with a
    non-finite eigenvalue or one below the clip floor; within an element
    the blocks are checked in order, as in a one-element loop."""
    flat = vals[0] if len(vals) == 1 else np.concatenate(vals, axis=-1)
    top, bottom = flat.max(axis=-1), flat.min(axis=-1)
    # The floor is exact for an element whose spectrum is finite; for any
    # other it is NaN or -inf (max and min carry them), which fails ok.
    floor = -PSD_CLIP_TOL * np.maximum(top, -bottom)
    ok = np.isfinite(floor) & (bottom >= floor)
    if not ok.all():
        j = int(np.flatnonzero(~ok)[0])
        floor = -PSD_CLIP_TOL * float(_radius([v[j] for v in vals]))
        for v in vals:
            if not np.isfinite(v[j]).all():
                raise DomainError("matrix has a non-finite eigenvalue")
            if np.any(v[j] < floor):
                raise DomainError(
                    f"matrix is not PSD: eigenvalue {float(np.min(v[j])):.3e} "
                    f"below clip tolerance {floor:.3e}")
    clipped = tuple(np.maximum(v, 0.0) for v in vals)
    # _kernel_masks of the clipped values, which are >= 0: radius max(top, 0)
    radius = np.maximum(top, 0.0)
    cut = eps * radius[:, None]
    return clipped, tuple(c <= cut for c in clipped), radius


def _symmetrized_stack(stacked: Sequence[np.ndarray],
                       hermitize: bool) -> tuple[np.ndarray, ...]:
    """(h + h*)/2 of stacked elements, after the Hermitian gate unless
    ``hermitize``; the DomainError of the first element that fails it.

    The result is exactly Hermitian, so symmetrizing it again returns the
    same bits; an exactly Hermitian h (defect 0) skips the gate.  Entries
    near the float maximum overflow to inf here without a warning; the PSD
    clip then rejects the non-finite spectrum."""
    adj = _adjoint_stack(stacked)
    with np.errstate(over="ignore", invalid="ignore"):
        sym = tuple((s + a) / 2.0 for s, a in zip(stacked, adj))
        if hermitize or all((s == a).all() for s, a in zip(stacked, adj)):
            return sym
        defect = np.sqrt(_squared_norms([s - a for s, a in zip(stacked, adj)]))
        bad = defect > HERMITIAN_TOL * (1.0 + np.sqrt(_squared_norms(stacked)))
    if bad.any():
        raise DomainError(
            f"matrix is not Hermitian (defect "
            f"{float(defect[np.flatnonzero(bad)[0]]):.3e}); pass "
            f"hermitize=True to symmetrize")
    return sym


def _eig_stack(sym: Sequence[np.ndarray]):
    """Per block, the eigenvalues (B, n) and eigenvectors (B, n, n) of
    stacked elements returned by :func:`_symmetrized_stack`, one ``eigh``
    per block."""
    pairs = [np.linalg.eigh(s) for s in sym]
    return tuple(w for w, _ in pairs), tuple(u for _, u in pairs)


def _clipped_eig_stack(algebra: BlockAlgebra, stacked: Sequence[np.ndarray],
                       hermitize: bool, eps: float) -> SpectrumStack:
    """The spectra of B stacked PSD elements h, as one stack that holds
    them symmetrized: the Hermitian gate (skipped if ``hermitize``), one
    ``eigh`` per block and the PSD clip, each for all B at once.  The one
    place that decomposes an element."""
    sym = _symmetrized_stack(stacked, hermitize)
    vals, vecs = _eig_stack(sym)
    clipped, masks, radius = _clip_stack(vals, eps)
    return SpectrumStack(algebra, clipped, vecs, masks, sym, radius, eps)


@np.errstate(all="ignore")
def _calc_values(single: SpectrumStack, f: Callable, f_zero: complex
                 ) -> list[np.ndarray]:
    """Per block, the (1, n) values of f on the non-kernel eigenvalues of a
    B = 1 stack and f_zero on its kernel, each block's kept values one 1-D
    call of f, its warnings silenced; a DomainError unless all are numbers."""
    out = []
    for vals, mask in zip(single.eigenvalues, single.kernel_mask):
        try:
            fv = np.full(vals.shape, complex(f_zero), dtype=np.complex128)
            if not mask.all():
                kept = np.asarray(f(vals[~mask]))
                # numpy would store None and other objects as NaN.
                if kept.dtype.kind not in "biufc":
                    raise TypeError(f"f gave values of dtype {kept.dtype}")
                fv[~mask] = kept
        except (TypeError, ValueError) as exc:
            raise DomainError("f must give one number per kept eigenvalue "
                              "and f_zero be a number") from exc
        out.append(fv)
    return out


def _apply_stack(stack: SpectrumStack, values) -> tuple[np.ndarray, ...]:
    """Functional calculus on a spectrum stack: per block, U diag(v) U* for
    the eigenvectors U of each row j and each row v of values given per
    block as (B, n), or (B, G, n) for G rows per element, as one
    (B, [G,] n, n) stack per block with one matmul.

    The values carry the kernel convention already (see
    :func:`_eigenvalue_powers`, :func:`_imaginary_values` and
    :func:`_support_stack`); a non-finite value raises, so that no result
    is silently inf or NaN."""
    out = []
    for vecs, v in zip(stack.eigenvectors, values):
        if not np.isfinite(v).all():
            raise _nonfinite_error()
        if v.ndim == vecs.ndim:
            vecs = vecs[:, None]
        out.append((vecs * v[..., None, :]) @ vecs.conj().swapaxes(-2, -1))
    return tuple(out)


def _support_stack(stack: SpectrumStack) -> tuple[np.ndarray, ...]:
    """The support projections of a stack's rows, per block (B, n, n): the
    calculus of 1 on the non-kernel eigenvalues."""
    return _apply_stack(stack, [~m for m in stack.kernel_mask])


@np.errstate(all="ignore")
def _eigenvalue_powers(stack: SpectrumStack, exponents
                       ) -> tuple[np.ndarray, ...]:
    """Per block, the (B, G, n) stack whose row (j, g) holds lam ** e on the
    non-kernel eigenvalues of row j and 0 on its kernel, for
    e = exponents[g], or exponents[j][g] when they are given per row.

    One broadcast power per block over all rows and exponents (see
    :func:`_powers`): every row equals the 1-D power ``kept ** e`` of the
    kept eigenvalues, bit for bit.  A power beyond the float range shows as
    a non-finite value, without a warning."""
    exps = np.asarray(exponents, dtype=float)
    out = []
    for vals, masks in zip(stack.eigenvalues, stack.kernel_mask):
        kernel = np.count_nonzero(masks)
        # Kernel entries are powered as 1.0, then zeroed.
        rows = _powers(np.where(masks, 1.0, vals)[:, None] if kernel
                       else vals[:, None], exps)
        out.append(np.where(masks[:, None], 0.0, rows) if kernel else rows)
    return tuple(out)


@np.errstate(all="ignore")
def _corner_solve(stack: SpectrumStack, rhs: Sequence[np.ndarray],
                  lefts: Sequence[Sequence[float]],
                  rights: Sequence[Sequence[float]]):
    """Corner solutions x of y_j = h_j^l x h_j^r, h_j the element that row
    j of ``stack`` decomposes, at l = lefts[j][g] and r = rights[j][g] (one
    length G for all j); ``rhs`` holds per block the (B, n, n) y_j, shared
    by the G points, or a (B, G, n, n) stack of one per point.

    In h_j's eigenbasis X = C / (s^l s^r) on the support corner (C the
    rotated y); scaling back recovers C entrywise, so the residual measures
    the part of y outside the corner plus rounding, whatever h_j's
    conditioning.  Returns per block the (B, G, n, n) middles X, the (B, G)
    residuals, and ``over``: not within RECOMPOSITION_TOL * (1 + ||y||_F),
    so a NaN residual is over.  Overflow shows as non-finite values, without
    a warning.
    """
    G = len(lefts[0])
    scales = _eigenvalue_powers(stack, [[-a for a in ls] + [-b for b in rs]
                                        + [*ls, *rs]
                                        for ls, rs in zip(lefts, rights)])
    mids, resid_sq = [], 0.0
    for y, u, sc in zip(rhs, stack.eigenvectors, scales):
        down_l, down_r, up_l, up_r = (sc[:, i * G:(i + 1) * G]
                                      for i in range(4))
        u = u[:, None]
        c = u.conj().swapaxes(-2, -1) @ (y if y.ndim == 4 else y[:, None]) @ u
        mid = (down_l[..., :, None] * c) * down_r[..., None, :]
        back = (up_l[..., :, None] * mid) * up_r[..., None, :]
        resid_sq = resid_sq + (abs(back - c) ** 2).sum(axis=(-2, -1))
        mids.append(mid)
    residuals = np.sqrt(resid_sq)
    budgets = RECOMPOSITION_TOL * (
        1.0 + _frobenius_stack(rhs).reshape(len(residuals), -1))
    return mids, residuals, ~(residuals <= budgets)


@np.errstate(all="ignore")
def _imaginary_values(stack: SpectrumStack, ts) -> tuple[np.ndarray, ...]:
    """Per block, the rows of lam^{it} = exp(i t log lam) on the non-kernel
    eigenvalues of row j and 0 on its kernel: (B, n) rows for t = ts[j], or
    (B, G, n) for t = ts[j][g].

    One row-wise ``exp`` and ``log`` per block: every row equals the 1-D
    ``np.exp(1j * t * np.log(kept))`` of the kept eigenvalues, bit for bit,
    as both are elementwise.  A non-finite value shows as such, without a
    warning."""
    t = np.asarray(ts, dtype=float)[..., None]
    out = []
    for vals, masks in zip(stack.eigenvalues, stack.kernel_mask):
        if t.ndim == 3:
            vals, masks = vals[:, None], masks[:, None]
        rows = np.exp(1j * t * np.log(np.where(masks, 1.0, vals)))
        out.append(np.where(masks, 0.0, rows))
    return tuple(out)


def _polar_stack(stacked: Sequence[np.ndarray], eps: float
                 ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Canonical polar factors x = v |x|, |x| = (x* x)^{1/2}, of B stacked
    elements as per-block stacks, one ``svd`` per block: v is the partial
    isometry on the support, so v* v is the support projection of |x|.  A
    singular value is kept unless the kernel convention
    (:func:`_kernel_masks`) drops it."""
    svds = [np.linalg.svd(s) for s in stacked]
    v_blocks, abs_blocks = [], []
    for (u, s, vh), kernel in zip(svds, _kernel_masks(
            [s for _, s, _ in svds], eps)):
        abs_blocks.append(vh.conj().swapaxes(-2, -1) @ (s[..., None] * vh))
        if not kernel.any():
            v_blocks.append(u @ vh)
        else:
            v_blocks.append(np.stack([uj[:, ~kj] @ vhj[~kj, :] for uj, kj, vhj
                                      in zip(u, kernel, vh)]))
    return tuple(v_blocks), tuple(abs_blocks)
