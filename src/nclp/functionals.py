"""Normal positive functionals stored through their trace densities.

A functional psi acts as psi(a) = trace(h a) for a PSD density h.  The
correspondence psi <-> h is the workhorse for every norm and divergence in
this package; cocycles between two functionals are the trace-level reduction
u_t = f_t(h_psi) f_{-t}(h_phi) with the kernel-killing imaginary power f_t.
"""

from __future__ import annotations

import numpy as np

from .algebra import (AlgebraElement, BlockAlgebra, HermitianSpectrum,
                      _symmetric_eig, _symmetrized, canonical_trace)
from .config import SUPPORT_TOL, resolve_eps_rel
from .errors import DomainError


class PositiveFunctional:
    """A normal positive functional on a block algebra, held as its density.

    The density is symmetrized on construction and validated as PSD after
    clipping; its stored matrix entries are otherwise kept bit-exact so that
    planted zero structure (diagonal instances, exact kernels) survives.
    A functional built from others (a sum, a multiple, a tensor product)
    keeps the cutoff of its first operand, so no cutoff is resolved again.
    """

    __slots__ = ("algebra", "density", "_spectrum", "_mass")

    def __init__(self, density: AlgebraElement, hermitize: bool = False,
                 eps_rel: float | None = None):
        eps = resolve_eps_rel(eps_rel)
        sym = _symmetrized(density, hermitize)
        spectrum = _symmetric_eig(sym, eps).clip_psd()
        object.__setattr__(self, "algebra", density.algebra)
        object.__setattr__(self, "density", sym)
        object.__setattr__(self, "_spectrum", spectrum)
        object.__setattr__(self, "_mass", None)

    @classmethod
    def zero(cls, algebra: BlockAlgebra,
             eps_rel: float | None = None) -> "PositiveFunctional":
        return cls(algebra.zero(), eps_rel=eps_rel)

    @classmethod
    def from_diagonal(cls, algebra: BlockAlgebra,
                      entries) -> "PositiveFunctional":
        return cls(algebra.diagonal(entries))

    # -- basic structure -----------------------------------------------------

    def spectrum(self, eps_rel: float | None = None) -> HermitianSpectrum:
        eps = resolve_eps_rel(eps_rel)
        if eps == self._spectrum.eps_rel:
            return self._spectrum
        return _symmetric_eig(self.density, eps).clip_psd()

    @property
    def mass(self) -> float:
        """psi(1), the total mass; computed on the first call, since the
        density is immutable and a grid of divergences asks for it once per
        point."""
        if self._mass is None:
            object.__setattr__(self, "_mass",
                               float(canonical_trace(self.density).real))
        return self._mass

    @property
    def is_zero(self) -> bool:
        return self._spectrum.spectral_radius == 0.0

    def is_faithful(self, eps_rel: float | None = None) -> bool:
        """True iff no eigenvalue of the density falls in the kernel."""
        if self.is_zero:
            return False
        return self.spectrum(eps_rel).rank() == self.algebra.carrier_dim

    def support(self, eps_rel: float | None = None) -> AlgebraElement:
        return self.spectrum(eps_rel).support()

    def evaluate(self, a: AlgebraElement) -> complex:
        """psi(a) = trace(h a)."""
        return canonical_trace(self.density @ a)

    def power(self, r: float, eps_rel: float | None = None) -> AlgebraElement:
        """Density power h^r with the kernel convention (pseudo-inverse r<0).

        Not memoized: a cache keyed by the exponent would grow without bound
        on a functional that lives long, and measured end to end it saved no
        time beyond run-to-run noise.
        """
        return self.spectrum(eps_rel).apply(
            lambda lam: lam ** float(r), f_zero=0.0)

    def imaginary_power(self, t: float,
                        eps_rel: float | None = None) -> AlgebraElement:
        return self.spectrum(eps_rel).apply(
            lambda lam: np.exp(1j * t * np.log(lam)), f_zero=0.0)

    def __add__(self, other: "PositiveFunctional") -> "PositiveFunctional":
        return PositiveFunctional(self.density + other.density,
                                  eps_rel=self._spectrum.eps_rel)

    def __repr__(self):
        return (f"PositiveFunctional(blocks={self.algebra.block_dims}, "
                f"mass={self.mass:.6g}, rank={self._spectrum.rank()})")


def haagerup_density(psi: PositiveFunctional) -> AlgebraElement:
    """The density h with psi(a) = trace(h a); trace(h) = psi(1)."""
    return psi.density


def scale(psi: PositiveFunctional, lam: float) -> PositiveFunctional:
    """lam * psi for lam >= 0; mass scales linearly."""
    if lam < 0:
        raise DomainError(f"scale factor must be nonnegative, got {lam}")
    return PositiveFunctional(float(lam) * psi.density,
                              eps_rel=psi._spectrum.eps_rel)


def connes_cocycle(psi: PositiveFunctional, phi: PositiveFunctional,
                   t: float, eps_rel: float | None = None) -> AlgebraElement:
    """Radon-Nikodym cocycle u_t = h_psi^{it} h_phi^{-it} (phi faithful).

    u_0 equals the support projection of psi; when the densities commute,
    u_t* u_t recovers that support for every t.
    """
    if psi.algebra != phi.algebra:
        raise DomainError("functionals must live on the same algebra")
    if not phi.is_faithful(eps_rel):
        raise DomainError(
            "reference functional must be faithful; use the support-cut "
            "identity (lemma1_cut) for non-faithful references")
    return psi.imaginary_power(t, eps_rel) @ phi.imaginary_power(-t, eps_rel)


def lemma1_cut(psi: PositiveFunctional, psi_prime: PositiveFunctional,
               phi: PositiveFunctional, t: float,
               eps_rel: float | None = None
               ) -> tuple[AlgebraElement, AlgebraElement]:
    """Support-cut cocycle identity for a non-faithful left argument.

    With s(psi') = 1 - s(psi) and chi = psi + psi' faithful, returns the pair
    (u_t(psi, phi), s(psi) u_t(chi, phi)); the two agree up to numerical
    residual, which the caller asserts.
    """
    s = psi.support(eps_rel)
    s_prime = psi_prime.support(eps_rel)
    one = psi.algebra.identity()
    defect = (s + s_prime - one).frobenius()
    overlap = (s @ s_prime).frobenius()
    if defect > SUPPORT_TOL or overlap > SUPPORT_TOL:
        raise DomainError(
            f"supports are not complementary: |s+s'-1|={defect:.3e}, "
            f"|s s'|={overlap:.3e}")
    chi = psi + psi_prime
    if not chi.is_faithful(eps_rel):
        raise DomainError("psi + psi' must be faithful")
    lhs = connes_cocycle(psi, phi, t, eps_rel)
    rhs = s @ connes_cocycle(chi, phi, t, eps_rel)
    return lhs, rhs


def cocycle_chain_residual(psi: PositiveFunctional, phi: PositiveFunctional,
                           t: float, s: float,
                           eps_rel: float | None = None) -> float:
    """Residual of the flow-twisted chain rule u_{t+s} = u_t sigma_t(u_s).

    sigma_t is conjugation by h_phi^{it}; the identity holds for every psi
    and faithful phi, commuting or not.
    """
    u_ts = connes_cocycle(psi, phi, t + s, eps_rel)
    u_t = connes_cocycle(psi, phi, t, eps_rel)
    u_s = connes_cocycle(psi, phi, s, eps_rel)
    w = phi.imaginary_power(t, eps_rel)
    twisted = w @ u_s @ phi.imaginary_power(-t, eps_rel)
    return (u_ts - u_t @ twisted).frobenius()
