"""The kernel cutoff of a call: each functional is used at the cutoff it was
built at.

Functionals carry the cutoff they were built at, and the kernels read it
from their stored spectra.  Without a cutoff, a call or method uses each
functional at its own and reads no environment.  Only q_tilde_alpha,
q_tilde_alpha_z, d_tilde and kosaki_norm take an ``eps_rel``; given one,
they equal the same call on functionals built at that cutoff.  The
instances have eigenvalues near 1e-10 relative to the largest, kept at the
default cutoff 1e-12 and cut at 1e-9, so every result below depends on which
cutoff is applied.
"""

import inspect

import numpy as np
import pytest

import nclp
from nclp import (BlockAlgebra, DivergenceParams, KosakiSpec, NclpError,
                  PositiveFunctional, d_tilde, kosaki_norm, q_tilde_alpha,
                  q_tilde_alpha_z)
from nclp.divergence import _pinching_channel, lemma9_stack, precompose_stack
from nclp.functionals import connes_cocycle_stack

from _outcomes import points
from _stacks import element, stack, unitary

ALG = BlockAlgebra((3,))
CUT = 1e-9
DEFAULT = 1e-12


def _density(seed, spectrum):
    u = unitary(np.random.default_rng(seed), ALG)
    return u @ ALG.diagonal(spectrum) @ u.adjoint()


# Each has one eigenvalue under CUT and over the default cutoff, except the
# faithful reference of the cocycle.
SMALL_PSI = _density(1, [0.6, 0.4, 3e-11])
SMALL_PHI = _density(2, [0.5, 0.5, 1e-10])
FAITHFUL = _density(3, [0.3, 0.3, 0.4])
Y = element(np.random.default_rng(4), ALG)


def _at(density, eps_rel=None):
    return PositiveFunctional(density, hermitize=True, eps_rel=eps_rel)


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def _stack_bits(st):
    return _bits(*st.densities, *st.eigenvalues, *st.kernel_mask, st.eps_rel)


# The four calls that take a cutoff: name -> (call returning a comparable
# value, psi, phi).
CUTOFF_CALLS = {
    "q_tilde_alpha": (lambda psi, phi, **kw: q_tilde_alpha(
        psi, phi, 2.0, **kw), SMALL_PSI, SMALL_PHI),
    "q_tilde_alpha_z": (lambda psi, phi, **kw: q_tilde_alpha_z(
        psi, phi, DivergenceParams(0.7, z=1.3), **kw), SMALL_PSI, SMALL_PHI),
    "d_tilde": (lambda psi, phi, **kw: d_tilde(
        psi, phi, DivergenceParams(1.5), **kw), SMALL_PSI, SMALL_PHI),
    "kosaki_norm": (lambda psi, phi, **kw: kosaki_norm(
        Y, KosakiSpec(phi, 2.0, 0.5), **kw), SMALL_PSI, SMALL_PHI),
}

CALLS = {
    **CUTOFF_CALLS,
    "lemma9_stack": (lambda psi, phi: [
        (res, [str(v) for v in values])
        for res, values in points(lemma9_stack(stack([psi]), stack([phi]),
                                               [2.0]))],
        SMALL_PSI, SMALL_PHI),
    "connes_cocycle_stack": (lambda psi, phi: _bits(*connes_cocycle_stack(
        stack([psi]), stack([phi]), [0.7])), SMALL_PSI, FAITHFUL),
    "precompose_stack": (lambda psi, phi: _stack_bits(precompose_stack(
        stack([psi]), [_pinching_channel(ALG)])), SMALL_PSI, SMALL_PHI),
}

# The methods on one functional (phi is not used).
METHODS = {
    "spectrum": (lambda psi, phi: _bits(
        *psi.spectrum().kernel_mask), SMALL_PHI, FAITHFUL),
    "support": (lambda psi, phi: _bits(
        *psi.support().blocks), SMALL_PHI, FAITHFUL),
    "power": (lambda psi, phi: _bits(
        *psi.power(-0.5).blocks), SMALL_PHI, FAITHFUL),
    "imaginary_power": (lambda psi, phi: _bits(
        *psi.imaginary_power(0.7).blocks), SMALL_PHI, FAITHFUL),
}


def _outcome(call, psi, phi, **kw):
    """The value of a call, or the type and message of its error."""
    try:
        return call(psi, phi, **kw)
    except NclpError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(CUTOFF_CALLS))
def test_call_cutoff_equals_functionals_built_at_it(name):
    call, psi, phi = CUTOFF_CALLS[name]
    routed = _outcome(call, _at(psi), _at(phi), eps_rel=CUT)
    assert routed == _outcome(call, _at(psi, CUT), _at(phi, CUT))
    # The cutoff matters here: at the default the result differs.
    assert routed != _outcome(call, _at(psi), _at(phi), eps_rel=DEFAULT)


@pytest.mark.parametrize("name", sorted(CALLS) + sorted(METHODS))
def test_call_without_cutoff_uses_the_functionals_own(name, monkeypatch):
    call, psi, phi = {**CALLS, **METHODS}[name]
    own = {e: _outcome(call, _at(psi, e), _at(phi, e)) for e in (DEFAULT, CUT)}
    assert own[DEFAULT] != own[CUT]
    # NCLP_EPS_REL at either cutoff changes neither result.
    for env in (DEFAULT, CUT):
        monkeypatch.setenv("NCLP_EPS_REL", repr(env))
        for e in (DEFAULT, CUT):
            assert _outcome(call, _at(psi, e), _at(phi, e)) == own[e]


def test_a_functional_agrees_with_itself():
    alg = BlockAlgebra((2,))
    psi = PositiveFunctional(alg.diagonal([1.0, 1e-10]), eps_rel=CUT)
    assert not psi.is_faithful
    assert psi.spectrum().rank() == 1
    assert psi.power(-1).blocks[0][1, 1] == 0.0
    assert psi.support().blocks[0][1, 1] == 0.0
    u, = connes_cocycle_stack(stack([psi]),
                              stack([PositiveFunctional(alg.identity())]),
                              [0.5])
    assert u[0, 1, 1] == 0.0


def _takes_a_functional(fn):
    return any("PositiveFunctional" in str(p.annotation)
               or "KosakiSpec" in str(p.annotation)
               for p in inspect.signature(fn).parameters.values())


def test_only_the_four_take_a_cutoff_with_their_functionals():
    calls = {name: obj for name, obj in vars(nclp).items()
             if not name.startswith("_") and inspect.isfunction(obj)}
    # A method's functional is self; the constructors build one.
    calls.update({f"PositiveFunctional.{name}": obj for name, obj
                  in vars(PositiveFunctional).items()
                  if inspect.isfunction(obj) and name != "__init__"})
    found = sorted(name for name, fn in calls.items()
                   if "eps_rel" in inspect.signature(fn).parameters
                   and (name.startswith("PositiveFunctional.")
                        or _takes_a_functional(fn)))
    assert found == sorted(CUTOFF_CALLS)
