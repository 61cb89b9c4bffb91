"""Normal positive functionals stored through their trace densities.

A functional psi acts as psi(a) = trace(h a) for a PSD density h.  The
correspondence psi <-> h is the workhorse for every norm and divergence in
this package; cocycles between two functionals are the trace-level reduction
u_t = f_t(h_psi) f_{-t}(h_phi) with the kernel-killing imaginary power f_t.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (AlgebraElement, BlockAlgebra, HermitianSpectrum,
                      SpectrumStack, _apply_stack, _clipped_eig_stack,
                      _eigenvalue_powers, _frobenius_stack, _gather,
                      _imaginary_values, _stack, _support_stack, _unstack,
                      canonical_trace)
from .config import SUPPORT_TOL, resolve_eps_rel
from .errors import DomainError, ShapeError, _check_type, _real


class PositiveFunctional:
    """A normal positive functional on a block algebra, held as its density.

    The density is symmetrized on construction and validated as PSD after
    clipping; its stored matrix entries are otherwise kept bit-exact so that
    planted zero structure (diagonal instances, exact kernels) survives.
    The functional is one row of the :class:`SpectrumStack` of its batch
    (B = 1 for a constructor call), plus its mass once computed:
    ``density`` and ``algebra`` view that row, and the package's kernels
    read the stack.  It owns its kernel cutoff, the stack's, and is used at
    it: to cut a density at another cutoff, build its functional there.  A
    functional built from others (a sum, a multiple, a tensor product) keeps
    the cutoff of its first operand.  The constructor is one element of
    :func:`_positive_functionals`.
    """

    __slots__ = ("_spectrum", "_mass")

    def __init__(self, density: AlgebraElement, hermitize: bool = False,
                 eps_rel: float | None = None):
        _check_type(density, AlgebraElement,
                    "a functional needs an AlgebraElement density")
        psi, = _positive_functionals(density.algebra, _stack([density]),
                                     hermitize, resolve_eps_rel(eps_rel))
        self._set(psi._spectrum)

    def _set(self, spectrum: HermitianSpectrum) -> "PositiveFunctional":
        self._spectrum, self._mass = spectrum, None
        return self

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


def _positive_functionals(algebra: BlockAlgebra, stacked, hermitize: bool,
                          eps: float) -> list[PositiveFunctional]:
    """The functionals of B stacked densities (per block a (B, n, n) array)
    at the resolved cutoff ``eps``, as B constructor calls build them (see
    :func:`_clipped_eig_stack`): functional j is row j of the one spectrum
    stack.  The first density that fails the gate or the clip raises."""
    stack = _clipped_eig_stack(algebra, stacked, hermitize, eps)
    return [object.__new__(PositiveFunctional)._set(HermitianSpectrum(
        stack, j)) for j in range(len(stack))]


def _stack_of(psis) -> SpectrumStack:
    """The spectrum stack whose row j is the spectrum of psis[j] (see
    :func:`_gather`)."""
    return _gather([psi._spectrum for psi in psis])


def _at_cutoff(psis, eps_rel: float | None) -> list[PositiveFunctional]:
    """The functionals at the cutoff ``eps_rel``, each rebuilt at it from its
    density unless already there; None leaves each at its own."""
    if eps_rel is None:
        return psis
    eps = resolve_eps_rel(eps_rel)
    return [psi if psi._spectrum.eps_rel == eps else _positive_functionals(
        psi.algebra, _densities([psi]), False, eps)[0] for psi in psis]


def scale(psi: PositiveFunctional, lam: float) -> PositiveFunctional:
    """lam * psi for finite lam >= 0; mass scales linearly."""
    lam = _real(lam, "scale factor")
    if not (math.isfinite(lam) and lam >= 0):
        raise DomainError(
            f"scale factor must be finite and nonnegative, got {lam}")
    return PositiveFunctional(lam * psi.density,
                              eps_rel=psi._spectrum.eps_rel)


def _imaginary_powers(psis, ts) -> tuple[np.ndarray, ...]:
    """h_j^{i t_j} of each functional, as per-block (B, n, n) stacks."""
    stack = _stack_of(psis)
    return _apply_stack(stack, _imaginary_values(stack, ts))


def connes_cocycle(psi: PositiveFunctional, phi: PositiveFunctional,
                   t: float) -> AlgebraElement:
    """Radon-Nikodym cocycle u_t = h_psi^{it} h_phi^{-it} (phi faithful).

    u_0 equals the support projection of psi; when the densities commute,
    u_t* u_t recovers that support for every t.  One pair of
    :func:`connes_cocycle_stack`.
    """
    return _unstack(psi.algebra, connes_cocycle_stack([psi], [phi], [t]))[0]


def connes_cocycle_stack(psis, phis, ts) -> tuple[np.ndarray, ...]:
    """u_{t_j}(psi_j, phi_j) of B pairs of one algebra, as per-block
    (B, n, n) stacks; the first pair, in order, that fails a check raises.
    Each power and the faithfulness test read the functional's stored
    spectrum."""
    for psi, phi in zip(psis, phis):
        _check_same_algebra(psi, phi)
        if not phi.is_faithful:
            raise DomainError(
                "reference functional must be faithful; use the support-cut "
                "identity (nclp suite --name lemma1) for non-faithful ones")
    left = _imaginary_powers(psis, ts)
    right = _imaginary_powers(phis, [-t for t in ts])
    return tuple(a @ b for a, b in zip(left, right))


def _check_same_algebra(*psis) -> None:
    if any(psi.algebra != psis[0].algebra for psi in psis[1:]):
        raise ShapeError("functionals must live on the same algebra")


def lemma1_cut_stack(psis, psi_primes, phis, ts) -> tuple[tuple, tuple]:
    """Both sides of the support-cut cocycle identity for a non-faithful
    left argument, on B triples (psi, psi', phi) of one algebra at their own
    t: with s(psi') = 1 - s(psi) and chi = psi + psi' and phi faithful,
    u_t(psi, phi) and s(psi) u_t(chi, phi), each as per-block (B, n, n)
    stacks; they agree up to numerical residual.  chi keeps the cutoff of
    psis[0], which every psi shares.  A triple on two algebras raises
    ShapeError before anything is stacked."""
    for triple in zip(psis, psi_primes, phis):
        _check_same_algebra(*triple)
    s = _support_stack(_stack_of(psis))
    s_prime = _support_stack(_stack_of(psi_primes))
    defects = _frobenius_stack([a + b - np.eye(a.shape[-1])
                                for a, b in zip(s, s_prime)])
    overlaps = _frobenius_stack([a @ b for a, b in zip(s, s_prime)])
    for defect, overlap in zip(defects, overlaps):
        if defect > SUPPORT_TOL or overlap > SUPPORT_TOL:
            raise DomainError(
                f"supports are not complementary: |s+s'-1|={defect:.3e}, "
                f"|s s'|={overlap:.3e}")
    chis = _positive_functionals(
        psis[0].algebra, [a + b for a, b in zip(_densities(psis),
                                                _densities(psi_primes))],
        False, psis[0]._spectrum.eps_rel)
    if not all(chi.is_faithful for chi in chis):
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
    u_ts = connes_cocycle_stack(psis, phis, [t + s for t, s in zip(ts, ss)])
    u_t = connes_cocycle_stack(psis, phis, ts)
    u_s = connes_cocycle_stack(psis, phis, ss)
    w = _imaginary_powers(phis, ts)
    w_inv = _imaginary_powers(phis, [-t for t in ts])
    return _frobenius_stack([a - b @ (c @ d @ e) for a, b, c, d, e
                             in zip(u_ts, u_t, w, u_s, w_inv)])


def _densities(psis) -> tuple[np.ndarray, ...]:
    """The densities of the functionals' spectrum stack (:func:`_stack_of`)."""
    return _stack_of(psis).densities
