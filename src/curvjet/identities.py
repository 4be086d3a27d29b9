"""Registry of displayed trace identities, evaluated on seeded inputs.

Each entry reproduces one of the auxiliary tableau-trace identities used by
the trace analysis of the projected second derivative: rotation-trace
expansions, the metric-embedding trace factors, the Kulkarni-Nomizu
completion constants, and the two displays for the associated second Ricci
derivative.  Every verifier returns a dict of named relative residuals;
keys documenting a raw form that only holds after projection are reported
for reference and are order one on generic input.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .curvature import (
    _pair_trace,
    decompose,
    jacobi_form,
    kulkarni,
    pair_derivation,
    ricci,
)
from .jets import _hessian_tableau, hat_embed, jet_traces, random_two_jet, tilde_ops
from .spaces import Space, SymBiform, Tensor, _rel, memoized, sym_product
from .young import random_ck, tableau_apply, young_apply

__all__ = ["verify_identity", "identity_names"]


def _traced_tableau(space: Space, arranged: np.ndarray, row1=(1, 3)) -> np.ndarray:
    """Trace over slots 1 and 3 of the tableau with rows ``row1`` and (2, 4) of a 6-tensor."""
    projected = tableau_apply(Tensor(space, arranged), row1, (2, 4))
    return np.einsum("ibidef,i->bdef", projected.data, space.eps)


def _pair_sum(F: np.ndarray) -> np.ndarray:
    """Sum over the swap groups of axes (0,1) and (2,3)."""
    return (
        F
        + np.transpose(F, (1, 0, 2, 3))
        + np.transpose(F, (0, 1, 3, 2))
        + np.transpose(F, (1, 0, 3, 2))
    )


@memoized
def _ricci_rotation(space: Space, seed: int) -> np.ndarray:
    """The Ricci rotation ``pair_derivation(R, ric)`` of ``R = random_ck(space, 0, seed)``."""
    R = random_ck(space, 0, seed)
    return pair_derivation(R, ricci(R).ric)


@memoized
def _rotation_data(space: Space, seed: int):
    """The rotation 6-tensor of ``random_ck(space, 0, seed)``, its trace and its Ricci rotation."""
    R = random_ck(space, 0, seed)
    D = pair_derivation(R, R)
    return D, _pair_trace(D, space.eps), _ricci_rotation(space, seed)


def _derivation_trace_pair(space: Space, seed: int) -> dict[str, float]:
    # the traced (2,2) tableau of both rotation arrangements equals the same
    # three-fold combination of the rotation trace and the Ricci rotation
    D, T1, Gn = _rotation_data(space, seed)
    rhs = 3.0 * (
        np.transpose(T1, (1, 2, 0, 3))
        + np.transpose(T1, (2, 1, 0, 3))
        + np.transpose(Gn, (1, 2, 0, 3))
        + np.transpose(Gn, (2, 1, 0, 3))
    )
    lhs_a = _traced_tableau(space, np.transpose(D, (2, 3, 1, 4, 0, 5)))
    lhs_b = _traced_tableau(space, np.transpose(D, (1, 3, 2, 4, 0, 5)))
    return {"first_arrangement": _rel(lhs_a, rhs), "second_arrangement": _rel(lhs_b, rhs)}


def _derivation_trace_six(space: Space, seed: int) -> dict[str, float]:
    # traced (3,2)-row tableau of the rotation tensor, factor six
    D, T1, Gn = _rotation_data(space, seed)
    lhs = _traced_tableau(space, np.transpose(D, (2, 3, 4, 5, 0, 1)), (1, 3, 6))
    rhs = 6.0 * (
        -2.0 * np.transpose(Gn, (2, 3, 0, 1))
        + np.transpose(T1, (1, 3, 0, 2))
        + np.transpose(T1, (3, 1, 0, 2))
        - np.transpose(Gn, (1, 2, 0, 3))
        - np.transpose(Gn, (2, 1, 0, 3))
    )
    return {"residual": _rel(lhs, rhs)}


def _hessian_trace_expansion(space: Space, seed: int) -> dict[str, float]:
    # traced (2,2) tableau of the second derivative itself, expanded into the
    # three signed traces and the rotation trace; needs a coupled jet
    j = random_two_jet(space, seed)
    hess, div_der, lap = (t.data for t in jet_traces(j))
    T1 = _pair_trace(j.rotation, space.eps)
    lhs = -_traced_tableau(space, np.transpose(j.d2R.data, (0, 3, 1, 5, 2, 4)))
    F = (
        np.transpose(lap, (1, 3, 0, 2))
        + hess
        - 2.0 * np.transpose(div_der, (0, 2, 1, 3))
        - np.transpose(T1, (0, 2, 1, 3))
    )
    return {"residual": _rel(lhs, _pair_sum(F))}


def _ricci_rotation_vanishes(space: Space, seed: int) -> dict[str, float]:
    # the (2,2) tableau kills the Ricci rotation term identically
    Gn = _ricci_rotation(space, seed)
    projected = young_apply(Tensor(space, Gn), 0)
    return {"residual": projected.norm() / max(float(np.linalg.norm(Gn)), 1.0)}


@memoized
def _ricci_flat_input(space: Space, seed: int) -> Tensor:
    # a Ricci-flat curvature tensor; vanishes identically below dim 4
    return decompose(random_ck(space, 0, seed)).weyl_part


# the metric-embedding trace factors: name -> (einsum of g and S into the
# embedded 6-tensor, tableau row 1, trace factor at dimension n, the two
# slot orders of S whose sum the trace equals)
_EMBED_TRACES = {
    "embed_trace_22": ("af,cbed->abcdef", (1, 3), lambda n: 3.0, ((1, 3, 2, 0), (3, 1, 2, 0))),
    "embed_trace_32": ("ef,abcd->abcdef", (1, 3, 5), lambda n: 6.0, ((1, 3, 2, 0), (3, 1, 2, 0))),
    "embed_trace_inner": (
        "ac,ebfd->abcdef", (1, 3), lambda n: 2.0 * n - 4.0, ((1, 3, 0, 2), (3, 1, 0, 2))
    ),
}


def _embed_trace(name: str, space: Space, seed: int) -> dict[str, float]:
    spec, row1, factor, (first, second) = _EMBED_TRACES[name]
    S = _ricci_flat_input(space, seed).data
    tr = _traced_tableau(space, np.einsum(spec, space.metric_matrix(), S), row1)
    rhs = factor(space.dim) * (np.transpose(S, first) + np.transpose(S, second))
    return {"residual": _rel(tr, rhs)}


def _projected_kulkarni(space: Space, seed: int) -> dict[str, float]:
    # tableau projection equals -2 (k+2)! times the Kulkarni-Nomizu completion
    # of the symmetrized Jacobi arrangement, for derivative orders 0, 1, 2
    out: dict[str, float] = {}
    R = random_ck(space, 0, seed)
    out["order_0"] = _rel(
        young_apply(R, 0).data, -4.0 * kulkarni(jacobi_form(R)).data
    )
    dR = random_ck(space, 1, seed)
    arranged = SymBiform(space, 3, Tensor(space, np.transpose(dR.data, (0, 2, 3, 1, 4))))
    out["order_1"] = _rel(young_apply(dR, 1).data, -12.0 * kulkarni(arranged).data)
    completed = sym_product(jacobi_form(R), space.metric_tensor())
    out["order_2"] = _rel(hat_embed(R).data, -48.0 * kulkarni(completed).data)
    return out


@memoized
def _assoc_displays(space: Space, seed: int):
    """Shared data for the two associated-second-derivative displays."""
    j = random_two_jet(space, seed)
    tilde_hess, _ = (t.data for t in tilde_ops(j))
    hess, div_der, lap = (t.data for t in jet_traces(j))
    T1 = _pair_trace(j.rotation, space.eps)
    SS = j.star_square
    Gn = pair_derivation(j.R, ricci(j.R).ric)

    sums = {
        "lap": _pair_sum(np.transpose(lap, (0, 2, 1, 3))),
        "ss": _pair_sum(np.transpose(SS, (0, 2, 1, 3))),
        "grn": _pair_sum(np.transpose(Gn, (0, 2, 1, 3))),
        "dd": _pair_sum(np.transpose(div_der, (1, 3, 0, 2))),
        "hrs": _pair_sum(np.transpose(hess, (2, 3, 0, 1))),
        "hrt": _pair_sum(hess),
        "t1a": _pair_sum(np.transpose(T1, (0, 2, 1, 3))),
        "t1b": _pair_sum(np.transpose(T1, (1, 3, 0, 2))),
    }
    expansion = (
        2.0 * sums["lap"]
        + 18.0 * sums["hrt"]
        + 2.0 * sums["hrs"]
        - 4.0 * sums["dd"]
        - 6.0 * sums["grn"]
        + 6.0 * sums["t1a"]
        - 2.0 * sums["t1b"]
    )
    displayed = 2.0 * (-sums["ss"] + 2.0 * sums["grn"] + 10.0 * sums["hrt"])
    return tilde_hess, hess, Gn, sums, expansion, displayed


def _project_c0(space: Space, arr: np.ndarray) -> np.ndarray:
    # normalized tableau projection of a [x5,x2,x6,x4]-ordered 4-tensor
    return _hessian_tableau(space, arr) / 12.0


def _assoc_hessian_expansion(space: Space, seed: int) -> dict[str, float]:
    tilde_hess, _, _, _, expansion, displayed = _assoc_displays(space, seed)
    return {
        "raw_expansion": _rel(tilde_hess, expansion),
        "projected_display": _rel(
            _project_c0(space, tilde_hess), _project_c0(space, displayed)
        ),
        "raw_display": _rel(tilde_hess, displayed),
    }


def _assoc_hessian_difference(space: Space, seed: int) -> dict[str, float]:
    tilde_hess, hess, Gn, sums, expansion, _ = _assoc_displays(space, seed)
    delta = tilde_hess - 80.0 * hess
    displayed = -80.0 * Gn + 2.0 * (-sums["ss"] + 2.0 * sums["grn"])
    corrected = -40.0 * Gn + (expansion - 20.0 * sums["hrt"])
    return {
        "projected_display": _rel(_project_c0(space, delta), _project_c0(space, displayed)),
        "raw_corrected": _rel(delta, corrected),
        "raw_display": _rel(delta, displayed),
    }


_REGISTRY: dict[str, Callable[[Space, int], dict[str, float]]] = {
    "derivation_trace_pair": _derivation_trace_pair,
    "derivation_trace_six": _derivation_trace_six,
    "hessian_trace_expansion": _hessian_trace_expansion,
    "ricci_rotation_vanishes": _ricci_rotation_vanishes,
    **{name: functools.partial(_embed_trace, name) for name in _EMBED_TRACES},
    "projected_kulkarni": _projected_kulkarni,
    "assoc_hessian_expansion": _assoc_hessian_expansion,
    "assoc_hessian_difference": _assoc_hessian_difference,
}


def identity_names() -> tuple[str, ...]:
    """All registry names, sorted."""
    return tuple(sorted(_REGISTRY))


@memoized
def verify_identity(name: str, space: Space, seed: int = 0) -> dict[str, float]:
    """Evaluate a registered identity on seeded input; returns named residuals.

    Raises ValueError for names outside the registry.
    """
    try:
        check = _REGISTRY[name]
    except KeyError:
        known = ", ".join(identity_names())
        raise ValueError(f"unknown identity {name!r}; known: {known}") from None
    return check(space, seed)
