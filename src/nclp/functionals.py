"""Normal positive functionals stored through their trace densities.

A functional psi acts as psi(a) = trace(h a) for a PSD density h.  The
correspondence psi <-> h is the workhorse for every norm and divergence in
this package; cocycles between two functionals are the trace-level reduction
u_t = f_t(h_psi) f_{-t}(h_phi) with the kernel-killing imaginary power f_t.
A :class:`PositiveFunctional`, one row of a spectrum stack, is the type of
the one-point API; the kernels take batches of functionals as stacks, and
:func:`_stacks` and :func:`_rows` convert at that boundary.
"""

from __future__ import annotations

import numpy as np

from .algebra import (AlgebraElement, BlockAlgebra, HermitianSpectrum,
                      SpectrumStack, _apply_stack, _check_batches,
                      _clipped_eig_stack, _eigenvalue_powers,
                      _frobenius_stack, _gather, _imaginary_values, _stack,
                      _support_stack, canonical_trace)
from .config import SUPPORT_TOL, resolve_eps_rel
from .errors import DomainError, _check_type, _real


class PositiveFunctional:
    """A normal positive functional on a block algebra, held as its density.

    The density is symmetrized on construction and validated as PSD after
    clipping; its stored matrix entries are otherwise kept bit-exact so that
    planted zero structure (diagonal instances, exact kernels) survives.
    The functional is one row of the :class:`SpectrumStack` of its batch
    (B = 1 for a constructor call): ``density``, ``algebra``, ``mass`` and
    ``is_zero`` read that row.  It owns its kernel cutoff, the stack's, and
    is used at it: to cut a density at another cutoff, build its functional
    there.  A functional built from others (a sum, a multiple, a tensor
    product) keeps the cutoff of its first operand.
    """

    __slots__ = ("_spectrum",)

    def __init__(self, density: AlgebraElement, hermitize: bool = False,
                 eps_rel: float | None = None):
        _check_type(density, AlgebraElement,
                    "a functional needs an AlgebraElement density")
        psi, = _rows(_clipped_eig_stack(density.algebra, _stack([density]),
                                        hermitize, resolve_eps_rel(eps_rel)))
        self._spectrum = psi._spectrum

    algebra = property(lambda self: self._spectrum.algebra)
    density = property(lambda self: AlgebraElement._trusted(
        self.algebra, self._spectrum.densities))

    @classmethod
    def zero(cls, algebra: BlockAlgebra,
             eps_rel: float | None = None) -> "PositiveFunctional":
        _check_type(algebra, BlockAlgebra, "a functional needs a BlockAlgebra")
        return cls(algebra.zero(), eps_rel=eps_rel)

    # -- basic structure -----------------------------------------------------

    def spectrum(self) -> HermitianSpectrum:
        return self._spectrum

    @property
    def mass(self) -> float:
        """psi(1), the total mass: the row's entry of the stack's masses."""
        return float(self._spectrum.stack.masses[self._spectrum.row])

    @property
    def is_zero(self) -> bool:
        return self._spectrum.spectral_radius == 0.0

    @property
    def is_faithful(self) -> bool:
        """True iff no eigenvalue of the density falls in the kernel at its
        own cutoff (all of the zero functional's do)."""
        return self._spectrum.rank() == self.algebra.carrier_dim

    def support(self) -> AlgebraElement:
        return self._spectrum.support()

    def evaluate(self, a: AlgebraElement) -> complex:
        """psi(a) = trace(h a)."""
        return canonical_trace(self.density @ a)

    def power(self, r: float) -> AlgebraElement:
        """Density power h^r with the kernel convention (pseudo-inverse r<0).

        Not memoized: a cache keyed by the exponent would grow without bound
        on a functional that lives long, and measured end to end it saved no
        time beyond run-to-run noise.
        """
        return self._spectrum._calculus(_eigenvalue_powers,
                                        [_real(r, "exponent")])

    def imaginary_power(self, t: float) -> AlgebraElement:
        return self._spectrum._calculus(_imaginary_values, [_real(t, "t")])

    def __add__(self, other: "PositiveFunctional") -> "PositiveFunctional":
        _check_type(other, PositiveFunctional,
                    "functional addition needs a PositiveFunctional")
        return PositiveFunctional(self.density + other.density,
                                  eps_rel=self._spectrum.eps_rel)

    def __repr__(self):
        return (f"PositiveFunctional(blocks={self.algebra.block_dims}, "
                f"mass={self.mass:.6g}, rank={self._spectrum.rank()})")


def _rows(stack: SpectrumStack) -> list[PositiveFunctional]:
    """The functionals of the rows of ``stack``, in order.  The one place
    that turns a stack into functionals."""
    rows = [object.__new__(PositiveFunctional) for _ in range(len(stack))]
    for j, psi in enumerate(rows):
        psi._spectrum = HermitianSpectrum(stack, j)
    return rows


def _stacks(psis, eps_rel: float | None = None) -> list[SpectrumStack]:
    """The one-row stacks of one-point functional arguments (DomainError
    unless each is a PositiveFunctional), rebuilt at the cutoff ``eps_rel``
    unless already there; None leaves each at its own.  The one place that
    turns functionals into stacks."""
    for psi in psis:
        _check_type(psi, PositiveFunctional,
                    "a functional argument must be a PositiveFunctional")
    stacks = [_gather(psi._spectrum) for psi in psis]
    if eps_rel is None:
        return stacks
    eps = resolve_eps_rel(eps_rel)
    return [s if s.eps_rel == eps else _clipped_eig_stack(
        s.algebra, s.densities, False, eps) for s in stacks]


def _imaginary_powers(stack: SpectrumStack, ts) -> tuple[np.ndarray, ...]:
    """h_j^{i t_j} of each row, as per-block (B, n, n) stacks."""
    return _apply_stack(stack, _imaginary_values(stack, ts))


def connes_cocycle_stack(psis: SpectrumStack, phis: SpectrumStack,
                         ts) -> tuple[np.ndarray, ...]:
    """Radon-Nikodym cocycles u_t = h_psi^{it} h_phi^{-it} (phi faithful)
    of B pairs of one algebra, pair j at t_j, as per-block (B, n, n)
    stacks; u_0 is the support projection of psi.  Errors: stacks on two
    algebras, then a phi that is not faithful (where a kernel mask is set),
    the first such row."""
    _check_batches([psis, phis, ts], [psis.algebra, phis.algebra],
                   "functionals must live on the same algebra")
    if any(m.any() for m in phis.kernel_mask):
        raise DomainError(
            "reference functional must be faithful; use the support-cut "
            "identity (nclp suite --name lemma1) for non-faithful ones")
    left = _imaginary_powers(psis, ts)
    right = _imaginary_powers(phis, [-t for t in ts])
    return tuple(a @ b for a, b in zip(left, right))


def lemma1_cut_stack(psis: SpectrumStack, psi_primes: SpectrumStack,
                     phis: SpectrumStack, ts) -> tuple[tuple, tuple]:
    """Both sides of the support-cut cocycle identity for a non-faithful
    left argument, on the B rows (psi, psi', phi) of three stacks of one
    algebra at their own t: with s(psi') = 1 - s(psi) and chi = psi + psi'
    and phi faithful, u_t(psi, phi) and s(psi) u_t(chi, phi), each as
    per-block (B, n, n) stacks; they agree up to numerical residual.  chi
    keeps the cutoff of ``psis``.  Stacks on two algebras raise ShapeError
    before anything is computed."""
    _check_batches([psis, psi_primes, phis, ts],
                   [psis.algebra, psi_primes.algebra, phis.algebra],
                   "functionals must live on the same algebra")
    s = _support_stack(psis)
    s_prime = _support_stack(psi_primes)
    defects = _frobenius_stack([a + b - np.eye(a.shape[-1])
                                for a, b in zip(s, s_prime)])
    overlaps = _frobenius_stack([a @ b for a, b in zip(s, s_prime)])
    for defect, overlap in zip(defects, overlaps):
        if defect > SUPPORT_TOL or overlap > SUPPORT_TOL:
            raise DomainError(
                f"supports are not complementary: |s+s'-1|={defect:.3e}, "
                f"|s s'|={overlap:.3e}")
    chis = _clipped_eig_stack(psis.algebra, [
        a + b for a, b in zip(psis.densities, psi_primes.densities)],
        False, psis.eps_rel)
    if any(m.any() for m in chis.kernel_mask):
        raise DomainError("psi + psi' must be faithful")
    lhs = connes_cocycle_stack(psis, phis, ts)
    rhs = tuple(a @ b for a, b in zip(
        s, connes_cocycle_stack(chis, phis, ts)))
    return lhs, rhs


def cocycle_chain_stack(psis, phis, ts, ss) -> np.ndarray:
    """(B,) Frobenius residuals of the flow-twisted chain rule
    u_{t+s} = u_t sigma_t(u_s) on B pairs (psi, phi) of one algebra, pair j
    at its own (t_j, s_j).  sigma_t is conjugation by h_phi^{it}; the
    identity holds for every psi and faithful phi, commuting or not."""
    _check_batches([psis, phis, ts, ss])
    u_ts = connes_cocycle_stack(psis, phis, [t + s for t, s in zip(ts, ss)])
    u_t = connes_cocycle_stack(psis, phis, ts)
    u_s = connes_cocycle_stack(psis, phis, ss)
    w = _imaginary_powers(phis, ts)
    w_inv = _imaginary_powers(phis, [-t for t in ts])
    return _frobenius_stack([a - b @ (c @ d @ e) for a, b, c, d, e
                             in zip(u_ts, u_t, w, u_s, w_inv)])
