"""The kernel cutoff of a call: a public function or method given an eps_rel
equals the same call on functionals built at that cutoff.

Functionals carry the cutoff they were built at, and the kernels read it
from their stored spectra; a call's ``eps_rel`` (None: NCLP_EPS_REL, else the
default) is applied by rebuilding the spectra of functionals at another
cutoff.  The instances have eigenvalues near 1e-10 relative to the largest,
kept at the default cutoff 1e-12 and cut at 1e-9, so every result below
depends on which cutoff is applied.
"""

import numpy as np
import pytest

from nclp import (BlockAlgebra, DivergenceParams, KosakiSpec, NclpError,
                  PositiveFunctional, connes_cocycle, d_tilde, gen_element,
                  gen_unitary, kosaki_norm, lemma9_check, pinching_channel,
                  precompose, q_tilde_alpha, q_tilde_alpha_z)

ALG = BlockAlgebra((3,))
CUT = 1e-9


def _density(seed, spectrum):
    u = gen_unitary(np.random.default_rng(seed), ALG)
    return u @ ALG.diagonal(spectrum) @ u.H


# Each has one eigenvalue under CUT and over the default cutoff, except the
# faithful reference of the cocycle.
SMALL_PSI = _density(1, [0.6, 0.4, 3e-11])
SMALL_PHI = _density(2, [0.5, 0.5, 1e-10])
FAITHFUL = _density(3, [0.3, 0.3, 0.4])
Y = gen_element(np.random.default_rng(4), ALG)


def _at(density, eps_rel=None):
    return PositiveFunctional(density, hermitize=True, eps_rel=eps_rel)


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def _functional_bits(psi):
    spec = psi._spectrum
    return _bits(*psi.density.blocks, *spec.eigenvalues, *spec.kernel_mask,
                 spec.eps_rel)


# name -> (call returning a comparable value, psi, phi)
CALLS = {
    "q_tilde_alpha": (lambda psi, phi, **kw: q_tilde_alpha(
        psi, phi, 2.0, **kw), SMALL_PSI, SMALL_PHI),
    "q_tilde_alpha_z": (lambda psi, phi, **kw: q_tilde_alpha_z(
        psi, phi, DivergenceParams(0.7, z=1.3), **kw), SMALL_PSI, SMALL_PHI),
    "d_tilde": (lambda psi, phi, **kw: d_tilde(
        psi, phi, DivergenceParams(1.5), **kw), SMALL_PSI, SMALL_PHI),
    "lemma9_check": (lambda psi, phi, **kw: lemma9_check(
        psi, phi, 2.0, **kw).to_dict(), SMALL_PSI, SMALL_PHI),
    "kosaki_norm": (lambda psi, phi, **kw: kosaki_norm(
        Y, KosakiSpec(phi, 2.0, 0.5), **kw), SMALL_PSI, SMALL_PHI),
    "connes_cocycle": (lambda psi, phi, **kw: _bits(*connes_cocycle(
        psi, phi, 0.7, **kw).blocks), SMALL_PSI, FAITHFUL),
    "precompose": (lambda psi, phi, **kw: _functional_bits(precompose(
        psi, pinching_channel(ALG), **kw)), SMALL_PSI, SMALL_PHI),
}


def _outcome(call, psi, phi, **kw):
    """The value of a call, or the type and message of its error."""
    try:
        return call(psi, phi, **kw)
    except NclpError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_call_cutoff_equals_functionals_built_at_it(name):
    call, psi, phi = CALLS[name]
    routed = _outcome(call, _at(psi), _at(phi), eps_rel=CUT)
    assert routed == _outcome(call, _at(psi, CUT), _at(phi, CUT),
                              eps_rel=CUT)
    # The cutoff matters here: at the default the result differs.
    assert routed != _outcome(call, _at(psi), _at(phi), eps_rel=1e-12)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_call_without_cutoff_follows_the_environment(name, monkeypatch):
    call, psi, phi = CALLS[name]
    default = _outcome(call, _at(psi, CUT), _at(phi, CUT), eps_rel=1e-12)
    monkeypatch.setenv("NCLP_EPS_REL", repr(CUT))
    assert _outcome(call, _at(psi, 1e-12), _at(phi, 1e-12)) == \
        _outcome(call, _at(psi, CUT), _at(phi, CUT), eps_rel=CUT)
    monkeypatch.delenv("NCLP_EPS_REL")
    assert _outcome(call, _at(psi, CUT), _at(phi, CUT)) == default


def test_methods_apply_the_call_cutoff():
    psi, rebuilt = _at(SMALL_PHI), _at(SMALL_PHI, CUT)
    assert psi.spectrum().rank() == 3
    assert psi.spectrum(CUT).rank() == rebuilt._spectrum.rank() == 2
    assert psi.is_faithful and not rebuilt.is_faithful
    assert _bits(*psi.power(-0.5, CUT).blocks) == \
        _bits(*rebuilt.power(-0.5, CUT).blocks)
    # A functional already at the cutoff is used as it is.
    assert rebuilt.spectrum(CUT) is rebuilt._spectrum
