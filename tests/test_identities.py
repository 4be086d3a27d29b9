"""Registered trace identities evaluate to machine-precision residuals."""

import numpy as np
import pytest

from curvjet.curvature import _rotate
from curvjet.identities import identity_names, verify_identity
from curvjet.spaces import Space, run_scope

E3 = Space(3)
E4 = Space(4)

# keys documenting a raw form that only holds under the tableau projection;
# everything else must vanish on the nose
REPORT_ONLY = {"raw_display"}

ALL_NAMES = (
    "assoc_hessian_difference",
    "assoc_hessian_expansion",
    "derivation_trace_pair",
    "derivation_trace_six",
    "embed_trace_22",
    "embed_trace_32",
    "embed_trace_inner",
    "hessian_trace_expansion",
    "projected_kulkarni",
    "ricci_rotation_vanishes",
)


def test_registry_is_complete():
    assert identity_names() == ALL_NAMES


def test_unknown_name_lists_known():
    with pytest.raises(ValueError, match="derivation_trace_pair"):
        verify_identity("no_such_identity", E3)


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("sp", [E3, E4])
def test_residuals_vanish(name, sp):
    for seed in range(3):
        res = verify_identity(name, sp, seed)
        for key, value in res.items():
            if key in REPORT_ONLY:
                assert np.isfinite(value)
            else:
                assert value < 1e-10, (name, key, value)


def test_deterministic():
    a = verify_identity("hessian_trace_expansion", E4, 9)
    b = verify_identity("hessian_trace_expansion", E4, 9)
    assert a == b


def test_raw_display_fails_off_projection():
    # the displayed forms are not raw identities; a tiny residual here would
    # mean the check collapsed into the projected one
    res = verify_identity("assoc_hessian_difference", E4, 0)
    assert res["raw_display"] > 1e-3


def test_expansions_read_the_drawn_rotation(monkeypatch):
    # both expansions take the rotation pair_derivation(R, R) of the memoized
    # drawn jets, which the draw computed
    import curvjet.identities as identities
    import curvjet.jets as jets

    calls = []

    def counted(R, T, eps):
        if T is R:
            calls.append(1)
        return _rotate(R, T, eps)

    monkeypatch.setattr(jets, "_rotate", counted)
    monkeypatch.setattr(identities, "_rotate", counted)
    with run_scope():
        jets._two_jet_chunk(E4, (4, 5))
        drawn = len(calls)
        for name in ("hessian_trace_expansion", "assoc_hessian_expansion"):
            identities._verify_seeds(name, E4, (4, 5))
    assert drawn == 1 and len(calls) == drawn


def test_ricci_rotation_check_computes_only_the_ricci_rotation(monkeypatch):
    # outside a run scope the check builds pair_derivation(R, ric) once; the
    # rotation pair_derivation(R, R) comes from the drawn jet, not from here
    import curvjet.identities as identities

    calls = []

    def counted(R, T, eps):
        calls.append(1)
        return _rotate(R, T, eps)

    monkeypatch.setattr(identities, "_rotate", counted)
    verify_identity("ricci_rotation_vanishes", E4, 3)
    assert len(calls) == 1
