"""Registry of displayed trace identities, evaluated on seeded inputs.

Each entry reproduces one of the auxiliary tableau-trace identities used by
the trace analysis of the projected second derivative: rotation-trace
expansions, the metric-embedding trace factors, the Kulkarni-Nomizu
completion constants, and the two displays for the associated second Ricci
derivative.  Every verifier takes a space and a tuple of seeds and returns a
dict of named relative residuals, one per seed: its inputs are the seeds'
draws stacked on a leading axis, which every kernel carries along.  Keys
documenting a raw form that only holds after projection are reported for
reference and are order one on generic input.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .curvature import _decompose, _jacobi_layout, _kulkarni, _pair_trace, _ric, _rotate
from .jets import _div_der, _hat_embed, _hessian_tableau, _rough_lap, _tilde, _two_jet_chunk
from .spaces import Space, _norm, _rel, _sym_biform, _sym_product_layout, _tail, memoized
from .young import _ck_chunk, _young, tableau_sum

__all__ = ["verify_identity", "identity_names"]

# residuals of one seed each, for a tuple of seeds
Residuals = dict[str, np.ndarray]


def _traced_tableau(eps: np.ndarray, arranged: np.ndarray, row1=(1, 3)) -> np.ndarray:
    """Trace over slots 1 and 3 of the tableau with rows ``row1`` and (2, 4) of each 6-tensor."""
    projected = tableau_sum(arranged, [s - 1 for s in row1], (1, 3), lead=arranged.ndim - 6)
    return np.einsum("...ibidef,i->...bdef", projected, eps)


def _pair_sum(F: np.ndarray) -> np.ndarray:
    """Sum over the swap groups of axes (0,1) and (2,3)."""
    return F + _tail(F, (1, 0, 2, 3)) + _tail(F, (0, 1, 3, 2)) + _tail(F, (1, 0, 3, 2))


@memoized
def _rotation_data(space: Space, seeds: tuple[int, ...]):
    """The rotation of each drawn jet (``_two_jet_chunk``), its trace and its Ricci rotation.

    The jet's R is ``random_ck(space, 0, seed)``: each seed draws R's coefficients first.
    """
    j = _two_jet_chunk(space, seeds)
    Gn = _rotate(j.R, _ric(j.R, space.eps), space.eps)
    return j.rotation, _pair_trace(j.rotation, space.eps), Gn


def _derivation_trace_pair(space: Space, seeds: tuple[int, ...]) -> Residuals:
    # the traced (2,2) tableau of both rotation arrangements equals the same
    # three-fold combination of the rotation trace and the Ricci rotation
    D, T1, Gn = _rotation_data(space, seeds)
    rhs = 3.0 * (
        _tail(T1, (1, 2, 0, 3))
        + _tail(T1, (2, 1, 0, 3))
        + _tail(Gn, (1, 2, 0, 3))
        + _tail(Gn, (2, 1, 0, 3))
    )
    lhs_a = _traced_tableau(space.eps, _tail(D, (2, 3, 1, 4, 0, 5)))
    lhs_b = _traced_tableau(space.eps, _tail(D, (1, 3, 2, 4, 0, 5)))
    return {"first_arrangement": _rel(lhs_a, rhs, 1), "second_arrangement": _rel(lhs_b, rhs, 1)}


def _derivation_trace_six(space: Space, seeds: tuple[int, ...]) -> Residuals:
    # traced (3,2)-row tableau of the rotation tensor, factor six
    D, T1, Gn = _rotation_data(space, seeds)
    lhs = _traced_tableau(space.eps, _tail(D, (2, 3, 4, 5, 0, 1)), (1, 3, 6))
    rhs = 6.0 * (
        -2.0 * _tail(Gn, (2, 3, 0, 1))
        + _tail(T1, (1, 3, 0, 2))
        + _tail(T1, (3, 1, 0, 2))
        - _tail(Gn, (1, 2, 0, 3))
        - _tail(Gn, (2, 1, 0, 3))
    )
    return {"residual": _rel(lhs, rhs, 1)}


def _hessian_trace_expansion(space: Space, seeds: tuple[int, ...]) -> Residuals:
    # traced (2,2) tableau of the second derivative itself, expanded into the
    # three signed traces and the rotation trace; needs a coupled jet
    eps = space.eps
    j = _two_jet_chunk(space, seeds)
    hess, div_der, lap = _ric(j.d2R, eps), _div_der(j.d2R, eps), _rough_lap(j.d2R, eps)
    T1 = _rotation_data(space, seeds)[1]
    lhs = -_traced_tableau(eps, _tail(j.d2R, (0, 3, 1, 5, 2, 4)))
    F = (
        _tail(lap, (1, 3, 0, 2))
        + hess
        - 2.0 * _tail(div_der, (0, 2, 1, 3))
        - _tail(T1, (0, 2, 1, 3))
    )
    return {"residual": _rel(lhs, _pair_sum(F), 1)}


def _ricci_rotation_vanishes(space: Space, seeds: tuple[int, ...]) -> Residuals:
    # the (2,2) tableau kills the Ricci rotation term identically
    Gn = _rotation_data(space, seeds)[2]
    projected = _young(Gn, 0, 1)
    return {"residual": _norm(projected, 1) / np.maximum(_norm(Gn, 1), 1.0)}


@memoized
def _ricci_flat_input(space: Space, seeds: tuple[int, ...]) -> np.ndarray:
    """Ricci-flat curvature tensors, the Weyl parts of the seeds' C_0 draws; zero below dim 4."""
    return _decompose(_ck_chunk(space, 0, seeds), space)[2]


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


def _embed_trace(name: str, space: Space, seeds: tuple[int, ...]) -> Residuals:
    spec, row1, factor, (first, second) = _EMBED_TRACES[name]
    S = _ricci_flat_input(space, seeds)
    embedded = np.einsum(spec.replace(",", ",...").replace("->", "->..."), space.metric_matrix(), S)
    tr = _traced_tableau(space.eps, embedded, row1)
    rhs = factor(space.dim) * (_tail(S, first) + _tail(S, second))
    return {"residual": _rel(tr, rhs, 1)}


def _projected_kulkarni(space: Space, seeds: tuple[int, ...]) -> Residuals:
    # tableau projection equals -2 (k+2)! times the Kulkarni-Nomizu completion
    # of the symmetrized Jacobi arrangement, for derivative orders 0, 1, 2
    R = _ck_chunk(space, 0, seeds)
    jacobi = _sym_biform(_jacobi_layout(R), 2, 1)  # jacobi_form(R)
    out = {"order_0": _rel(_young(R, 0, 1), -4.0 * _kulkarni(jacobi, 2), 1)}
    dR = _ck_chunk(space, 1, seeds)
    arranged = _sym_biform(_jacobi_layout(dR, 1), 3, 1)
    out["order_1"] = _rel(_young(dR, 1, 1), -12.0 * _kulkarni(arranged, 3), 1)
    # sym_product(jacobi_form(R), g)
    completed = _sym_biform(_sym_product_layout(jacobi, 2, space.metric_matrix()), 4, 1)
    out["order_2"] = _rel(_hat_embed(R, space.eps), -48.0 * _kulkarni(completed, 4), 1)
    return out


@memoized
def _assoc_displays(space: Space, seeds: tuple[int, ...]):
    """Shared data of the two associated-second-derivative displays, one array per seed each.

    Returns tilde_hess, hess, the Ricci rotation Gn, the pair sum of hess,
    the pair sums -(R*R) + 2 Gn in the display's slot order, and the raw
    expansion of tilde_hess.
    """
    eps = space.eps
    j = _two_jet_chunk(space, seeds)
    tilde_hess, _ = _tilde(j.d2R, eps)
    hess, div_der, lap = _ric(j.d2R, eps), _div_der(j.d2R, eps), _rough_lap(j.d2R, eps)
    _, T1, Gn = _rotation_data(space, seeds)

    grn = _pair_sum(_tail(Gn, (0, 2, 1, 3)))
    hrt = _pair_sum(hess)
    expansion = (
        2.0 * _pair_sum(_tail(lap, (0, 2, 1, 3)))
        + 18.0 * hrt
        + 2.0 * _pair_sum(_tail(hess, (2, 3, 0, 1)))
        - 4.0 * _pair_sum(_tail(div_der, (1, 3, 0, 2)))
        - 6.0 * grn
        + 6.0 * _pair_sum(_tail(T1, (0, 2, 1, 3)))
        - 2.0 * _pair_sum(_tail(T1, (1, 3, 0, 2)))
    )
    star_ricci = -_pair_sum(_tail(j.star_square, (0, 2, 1, 3))) + 2.0 * grn
    return tilde_hess, hess, Gn, hrt, star_ricci, expansion


def _project_c0(arr: np.ndarray) -> np.ndarray:
    # normalized tableau projection of each [x5,x2,x6,x4]-ordered 4-tensor of a batch
    return _hessian_tableau(arr, 1) / 12.0


def _assoc_hessian_expansion(space: Space, seeds: tuple[int, ...]) -> Residuals:
    tilde_hess, _, _, hrt, star_ricci, expansion = _assoc_displays(space, seeds)
    displayed = 2.0 * (star_ricci + 10.0 * hrt)
    return {
        "raw_expansion": _rel(tilde_hess, expansion, 1),
        "projected_display": _rel(_project_c0(tilde_hess), _project_c0(displayed), 1),
        "raw_display": _rel(tilde_hess, displayed, 1),
    }


def _assoc_hessian_difference(space: Space, seeds: tuple[int, ...]) -> Residuals:
    tilde_hess, hess, Gn, hrt, star_ricci, expansion = _assoc_displays(space, seeds)
    delta = tilde_hess - 80.0 * hess
    displayed = -80.0 * Gn + 2.0 * star_ricci
    corrected = -40.0 * Gn + (expansion - 20.0 * hrt)
    return {
        "projected_display": _rel(_project_c0(delta), _project_c0(displayed), 1),
        "raw_corrected": _rel(delta, corrected, 1),
        "raw_display": _rel(delta, displayed, 1),
    }


_REGISTRY: dict[str, Callable[[Space, tuple[int, ...]], Residuals]] = {
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
def _verify_seeds(name: str, space: Space, seeds: tuple[int, ...]) -> Residuals:
    """The residuals of a registered identity on each seed of a tuple, as arrays.

    In a run scope the memo holds them as a read-only mapping of read-only arrays.
    """
    try:
        check = _REGISTRY[name]
    except KeyError:
        known = ", ".join(identity_names())
        raise ValueError(f"unknown identity {name!r}; known: {known}") from None
    return check(space, seeds)


def verify_identity(name: str, space: Space, seed: int = 0) -> dict[str, float]:
    """Evaluate a registered identity on seeded input; returns named residuals.

    Raises ValueError for names outside the registry.
    """
    return {key: float(v[0]) for key, v in _verify_seeds(name, space, (seed,)).items()}
