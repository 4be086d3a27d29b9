"""Algebraic two-jets of curvature tensors.

A two-jet bundles a curvature tensor with its first and second covariant
derivatives evaluated at a point.  The second derivative is stored as the
full ordered bilinear derivative: its antisymmetric part in the two
derivative slots is forced by the Ricci identity, while the symmetric part
moves freely inside Sym^2 V* (x) C_0 subject to the differentiated second
Bianchi identity.  The homogeneous solutions of those constraints form C_2.

The module provides validation and random construction of two-jets and of
section jets (the same derivatives of a curvature-tensor section over a
fixed background curvature; both jet types own read-only copies of their
components and cache their rotation and residuals), the three signed traces
of the second derivative together with their hierarchy, the symmetrized
Jacobi forms, the tableau-projected trace operators and the metric embedding
iota, the two Weitzenboeck checks, the Einstein criterion in its three
equivalent forms, Jacobi-relation fitting, and the extension of an Einstein
one-jet to a full Einstein two-jet.

Index patterns that the lower layers define are read from them, not
restated: the Ricci contraction at every order and the trace-free Ricci
form come from ``curvature._ric`` and ``curvature._trace_free_ric``, the
divergence traces from ``curvature._pair_trace``, and the three terms of
the second Bianchi cycle from ``young._defect_plan``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .curvature import (
    _decompose,
    _jacobi_layout,
    _kn_metric,
    _pair_trace,
    _ric,
    _ricci_rotation_sum,
    _rotate,
    _star_of,
    _trace_free_ric,
)
from .spaces import (
    Space,
    SymBiform,
    Tensor,
    _dot,
    _gather,
    _header_tensors,
    _norm,
    _normal_draws,
    _orbit_sums,
    _rel,
    _tail,
    memoized,
    space_to_dict,
    tensor_to_dict,
)
from .subspace import Packing, PackedRows, kernel, lstsq_factors, packing
from .young import (
    _ck_packing,
    _ck_residual,
    _ck_stack,
    _defect_plan,
    _packed_young,
    _packed_young_plan,
    _young,
)

__all__ = [
    "TwoJet",
    "SectionTwoJet",
    "JacobiFit",
    "validate_two_jet",
    "validate_section_jet",
    "random_two_jet",
    "random_section_jet",
    "random_einstein_one_jet",
    "jet_traces",
    "sym_jacobi",
    "tilde_ops",
    "hat_embed",
    "weitzenbock_check",
    "weitzenbock_special",
    "einstein_check",
    "fit_jacobi_relation",
    "einstein_extend",
    "extension_solution_dim",
    "two_jet_to_dict",
    "two_jet_from_dict",
]


# dimensions in which random_two_jet can draw jets
RANDOM_JET_DIMS = (3, 4, 5)


class _Jet:
    """Base of both jet types: checked components, held as read-only copies.

    A subclass is a frozen dataclass whose fields are its components on one
    space (``__match_args__`` names them), with their valences in
    ``_VALENCES`` and its name for error messages in ``_KIND``.  Derived
    values are cached read-only outside the fields, so they take no part in
    ``__init__``, ``==``, ``repr`` or pickling.
    """

    space: Space  # the space of the components, set by __post_init__

    def __post_init__(self) -> None:
        parts = [getattr(self, name) for name in self.__match_args__]
        if tuple(t.valence for t in parts) != self._VALENCES:
            raise ValueError(f"{self._KIND} components must have valences {self._VALENCES}")
        sp = parts[0].space
        if any(t.space != sp for t in parts[1:]):
            raise ValueError(f"{self._KIND} components live on different spaces")
        object.__setattr__(self, "space", sp)
        # a copy owned by the jet is what keeps its cached values current
        for name, t in zip(self.__match_args__, parts):
            object.__setattr__(self, name, Tensor(sp, _read_only(np.array(t.data, dtype=float))))

    def __reduce__(self):
        # pickle and copy rebuild through __init__: fresh read-only copies, empty cache
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


@dataclass(frozen=True)
class TwoJet(_Jet):
    """Curvature tensor with its first and full ordered second derivative.

    ``d2R[a, b, ...]`` is the derivative first in direction ``e_b``, then
    ``e_a`` (outer slot first), so the Ricci identity reads
    ``d2R[a, b] - d2R[b, a] = R_{e_a, e_b} . R``.

    Four derived values are computed at most once per jet and cached:
    ``rotation`` (the curvature rotation R_{e_a, e_b} . R), ``residuals``
    (what ``validate_two_jet`` reports), ``einstein_gaps`` (the one-jet gaps
    of ``einstein_check``) and ``star_square`` (R*R).
    """

    _VALENCES = (4, 5, 6)
    _KIND = "two-jet"

    R: Tensor
    dR: Tensor
    d2R: Tensor

    @cached_property
    def rotation(self) -> np.ndarray:
        """``pair_derivation(R, R)``, the right side of the Ricci identity, as a read-only array."""
        return _read_only(_rotate(self.R.data, self.R.data, self.space.eps))

    @cached_property
    def residuals(self) -> Mapping[str, float]:
        """The relative residuals of ``validate_two_jet``, as a read-only mapping."""
        parts = (self.R.data, self.dR.data, self.d2R.data, self.rotation)
        return _floats(_two_jet_residuals(*parts))

    @cached_property
    def einstein_gaps(self) -> tuple[float, float]:
        """The one-jet Einstein gaps of R and dR (see ``_one_jet_gaps``)."""
        res_ric, res_dric = _one_jet_gaps(self.R.data, self.dR.data, self.space.eps)
        return float(res_ric), float(res_dric)

    @cached_property
    def star_square(self) -> np.ndarray:
        """R*R, the curvature action of R on itself, read off ``rotation``, as a read-only array."""
        return _read_only(_star_of(self.rotation, self.space.eps, 4))


@dataclass(frozen=True)
class SectionTwoJet(_Jet):
    """Two-jet of a curvature-tensor section over a fixed background.

    The background curvature drives the Ricci identity; the section values
    ``Rp``, ``dRp``, ``d2Rp`` are otherwise unconstrained curvature data
    (every trailing 4-slot slice lies in C_0, no Bianchi coupling).  The
    jet caches ``rotation`` (R_{e_a, e_b} . R') and ``residuals``.
    """

    _VALENCES = (4, 4, 5, 6)
    _KIND = "section jet"

    background: Tensor
    Rp: Tensor
    dRp: Tensor
    d2Rp: Tensor

    @cached_property
    def rotation(self) -> np.ndarray:
        """``pair_derivation(background, Rp)``, the right side of the Ricci identity, read-only."""
        return _read_only(_rotate(self.background.data, self.Rp.data, self.space.eps))

    @cached_property
    def residuals(self) -> Mapping[str, float]:
        """The relative residuals of ``validate_section_jet``, as a read-only mapping."""
        parts = (self.background.data, self.Rp.data, self.dRp.data, self.d2Rp.data)
        return _floats(_section_residuals(*parts, self.rotation))


class _JetStack(NamedTuple):
    """Two-jets of several seeds, each component stacked on a leading seed axis.

    The suites' batched counterpart of ``TwoJet``: raw arrays in place of
    checked tensors, with the rotation R_{e_a, e_b} . R and R*R of each jet,
    which every reader of a stack needs.
    """

    R: np.ndarray
    dR: np.ndarray
    d2R: np.ndarray
    rotation: np.ndarray
    star_square: np.ndarray


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _floats(values: dict[str, np.ndarray]) -> Mapping[str, float]:
    """A lone jet's residuals as a read-only mapping of floats."""
    return MappingProxyType({key: float(v) for key, v in values.items()})


def _seed(j: _Jet, **values) -> _Jet:
    """Store derived values of j that its builder computed from j's own data.

    ``cached_property`` reads the instance dict first, so the jet hands out
    each value as if it had computed it; the components are read-only
    copies, so the values cannot go stale.
    """
    vars(j).update(values)
    return j


_CLEAN_FIT = 1e-9  # the fit residual below which the eigenvalue corollary applies


@dataclass(frozen=True)
class JacobiFit:
    """Best constant in a first-order linear Jacobi relation.

    ``residual`` is relative to the norm of the symmetrized second
    derivative; zero means the relation holds exactly.
    """

    c: float
    residual: float

    @property
    def clean(self) -> bool:
        """Whether the relation fits closely enough for the eigenvalue corollary."""
        return self.residual < _CLEAN_FIT


# ---------------------------------------------------------------------------
# signed traces of the second derivative


# Every kernel below reads its tensors on the trailing axes, so leading (seed)
# axes ride along; the public functions call them without one.  The second
# Ricci derivative of d2 is ``curvature._ric(d2, eps)``.


def _div_der(d2: np.ndarray, eps: np.ndarray) -> np.ndarray:
    # derivative of the divergence: inner derivative against slot 1
    return -_pair_trace(d2, eps)


def _rough_lap(d2: np.ndarray, eps: np.ndarray) -> np.ndarray:
    return -np.einsum("...iiabcd,i->...abcd", d2, eps)


def _hessian_tableau(hess: np.ndarray, lead: int = 0) -> np.ndarray:
    """The C_0 tableau of a second Ricci derivative, read in the slot order (0, 2, 1, 3)."""
    return _young(_tail(hess, (0, 2, 1, 3)), 0, lead)


# ---------------------------------------------------------------------------
# validation


def _ricci_gap(d2: np.ndarray, rotation: np.ndarray, scale, lead: int) -> np.ndarray:
    """The Ricci-identity residual |d2[a, b] - d2[b, a] - rotation| / max(|d2|, scale, 1)."""
    gap = d2 - _tail(d2, (1, 0, 2, 3, 4, 5)) - rotation
    return _norm(gap, lead) / np.maximum(np.maximum(_norm(d2, lead), scale), 1.0)


def _two_jet_residuals(R, dR, d2R, rotation) -> dict[str, np.ndarray]:
    """``validate_two_jet`` residuals of each jet of a batch (any leading axes)."""
    lead = R.ndim - 4
    norm = _norm(R, lead)
    scale = norm * norm
    return {
        "curvature": _ck_residual(R, 0, lead),
        "derivative": _ck_residual(dR, 1, lead),
        "second_derivative": _ck_residual(d2R, 1, lead),
        "ricci_identity": _ricci_gap(d2R, rotation, scale, lead),
    }


def _section_residuals(background, Rp, dRp, d2Rp, rotation) -> dict[str, np.ndarray]:
    """``validate_section_jet`` residuals of each section jet of a batch."""
    lead = Rp.ndim - 4
    scale = _norm(background, lead) * _norm(Rp, lead)
    return {
        "background": _ck_residual(background, 0, lead),
        "section": _ck_residual(Rp, 0, lead),
        "derivative": _ck_residual(dRp, 0, lead),
        "second_derivative": _ck_residual(d2Rp, 0, lead),
        "ricci_identity": _ricci_gap(d2Rp, rotation, scale, lead),
    }


def _verdict(j: _Jet, tol: float) -> tuple[bool, dict[str, float]]:
    residuals = dict(j.residuals)
    return all(v <= tol for v in residuals.values()), residuals


def validate_two_jet(j: TwoJet, tol: float = 1e-8) -> tuple[bool, dict[str, float]]:
    """Check the two-jet constraints; returns (passed, residuals).

    All residuals are relative.  The second derivative is checked slice by
    slice against the once-differentiated Bianchi identities and globally
    against the Ricci identity.  The residuals are computed once per jet
    (``TwoJet.residuals``); each call returns its own dict.
    """
    return _verdict(j, tol)


def validate_section_jet(sj: SectionTwoJet, tol: float = 1e-8) -> tuple[bool, dict[str, float]]:
    """Check a section jet: slicewise C_0 membership plus the Ricci identity, once per jet."""
    return _verdict(sj, tol)


# ---------------------------------------------------------------------------
# random construction


@lru_cache(maxsize=None)
def _cycle_gather(n: int) -> tuple[np.ndarray, Packing]:
    """Where the three terms of the second Bianchi cycle read, at each packed target.

    The cycle over the inner derivative slot and c_1, c_2 (axes 1, 2, 3) of
    a valence-6 tensor antisymmetric in (c_1, c_2) is totally antisymmetric
    in those slots, so it lies in V (x) L^3 (x) L^2, packed by the returned
    ``pk``.  Row t of the flat indices, shape (3, P), is the t-th
    ``second_bianchi`` copy of ``young._defect_plan(n, 2)`` read at
    ``pk.rep``: at each representative (a, x, y, z, u, v) the entries
    (a, x, y, z), (a, z, x, y) and (a, y, z, x), each followed by (u, v).
    """
    names, table, signs = _defect_plan(n, 2)
    copies = np.flatnonzero(signs[names.index("second_bianchi")])  # the identity first
    pk = packing(n, (("sym", 1), ("alt", 3), ("alt", 2)))
    return _read_only(table[copies][:, pk.rep]), pk


@lru_cache(maxsize=None)
def _h_solver(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, Packing]:
    """Solver for the Bianchi-cycle system over Sym^2 V* (x) C_0 in dimension n.

    The unknowns are coefficients c[p, i] of sym_p (x) b_i, where sym_p is
    the symmetric unit matrix of the p-th pair x <= y (row-major) and b_i
    the i-th C_0 basis tensor.  Returns the compact pseudoinverse factors
    (ut, vs) of the system, for the minimum-norm solution ``vs @ (ut @ t)``
    of a raveled cycle target t (rank deficiency is expected: the
    homogeneous solutions are exactly C_2), the (n, n) map from a matrix
    entry to its pair p, and the packing ``pk`` of the cycle targets.

    The system is formed and solved in the packed coordinates of
    ``_cycle_gather``, whose table of cycle terms it unravels, and ``ut``
    stays packed: it acts on ``pk.pack`` of the raveled target.  The system
    uses no metric, so one solver serves every signature.
    """
    index, pk = _cycle_gather(n)
    stack0 = _ck_stack(n, 0).unpacked()
    upper = np.triu_indices(n)
    pairs = np.empty((n, n), dtype=np.intp)
    pairs[upper] = pairs[upper[::-1]] = np.arange(len(upper[0]))
    # the term of sym_p (x) b_i that reads (a, p, q, r, u, v) is sym_p[a, p] * b_i[q, r, u, v];
    # a target's three terms read distinct pairs (a, p), so at most one is nonzero
    one_hot = np.eye(len(upper[0]))
    packed = sum(
        one_hot[pairs[a, p]][:, :, None] * stack0[:, q, r, u, v].T[:, None, :]
        for a, p, q, r, u, v in zip(*np.unravel_index(index, pk.shape))
    )
    packed = packed.reshape(len(pk.rep), -1) * pk.weight[:, None]
    ut, vs, _ = lstsq_factors(packed)
    return _read_only(ut), _read_only(vs), _read_only(pairs), pk


def _packed_cycle(d: np.ndarray) -> np.ndarray:
    """The packed Bianchi cycle of d over axes (1, 2, 3), without the full cycle.

    The three terms are gathered at the packed entries and added in the
    order d + d(a, z, x, y) + d(a, y, z, x), so the result equals the packed
    full cycle to the bit.
    """
    index, pk = _cycle_gather(d.shape[-1])
    terms = _gather(d.reshape(d.shape[:-6] + (-1,)), index)
    return (terms[..., 0, :] + terms[..., 1, :] + terms[..., 2, :]) * pk.weight


def _matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ v for each vector v on the last axis of x: one matrix-vector product each, as alone."""
    return A @ x if x.ndim == 1 else (A @ x[..., None])[..., 0]


def _particular_d2(R: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """A second derivative over R meeting every two-jet constraint; any other differs by C_2.

    Half the curvature rotation ``pair_derivation(R, R)`` carries the Ricci
    identity, and the minimum-norm symmetric part from ``_h_solver`` cancels
    its differentiated Bianchi cycle.  R may carry leading axes.
    """
    n = R.shape[-1]
    basis0 = _ck_stack(n, 0)
    particular = 0.5 * rotation
    ut, vs, pairs, _ = _h_solver(n)
    coeff = _matvec(vs, _matvec(ut, -_packed_cycle(particular)))
    # one coefficient row per entry of the pair matrix, in C order (see ``spaces._gather``)
    coeff = coeff.reshape(R.shape[:-4] + (-1, len(basis0))).take(pairs, axis=-2)
    return particular + basis0.combine(coeff)


def _check_dim(space: Space) -> None:
    if space.dim not in RANDOM_JET_DIMS:
        raise ValueError("random jets are supported for dim 3, 4, 5")


def _draw_two_jets(space: Space, seeds):
    """The jet of ``random_two_jet``: R, dR, d2R, the rotation and the residuals of its validation.

    A tuple of seeds stacks them on a leading axis.
    """
    _check_dim(space)
    bases = [_ck_stack(space.dim, k) for k in (0, 1, 2)]
    coeffs = _normal_draws(seeds, *(len(b) for b in bases))
    R, dR, homogeneous = (b.combine_each(c) for b, c in zip(bases, coeffs))
    rotation = _read_only(_rotate(R, R, space.eps))
    d2R = _particular_d2(R, rotation) + homogeneous
    return R, dR, d2R, rotation, _checked("two-jet", _two_jet_residuals(R, dR, d2R, rotation))


@memoized
def _two_jet_chunk(space: Space, seeds: tuple[int, ...]) -> _JetStack:
    """The jets of ``random_two_jet`` for one chunk of seeds, shared in a run scope."""
    R, dR, d2R, rotation, _ = _draw_two_jets(space, seeds)
    return _JetStack(R, dR, d2R, rotation, _star_of(rotation, space.eps, 4))


def random_two_jet(space: Space, seed: int) -> TwoJet:
    """Draw a random valid two-jet.

    The jet takes random C_0 and C_1 parts, a particular symmetric second
    derivative solving the differentiated Bianchi identity on top of half
    the curvature rotation, and a random C_2 contribution.  The jet keeps
    that rotation and the residuals of the draw's validation as cached
    values.
    """
    R, dR, d2R, rotation, residuals = _draw_two_jets(space, seed)
    j = TwoJet(Tensor(space, R), Tensor(space, dR), Tensor(space, d2R))
    return _seed(j, rotation=rotation, residuals=_floats(residuals))


def _draw_section_jets(space: Space, seeds, background: np.ndarray):
    """The section jet of ``random_section_jet``: its components (background, Rp,
    dRp, d2Rp), its rotation and the residuals of its validation.

    A tuple of seeds, with one background per seed, stacks them on a
    leading axis.
    """
    _check_dim(space)
    n = space.dim
    basis0 = _ck_stack(n, 0)
    size = len(basis0)
    c_section, c_derivative, c_free = _normal_draws(seeds, size, (n, size), (n, n, size))
    Rp = basis0.combine_each(c_section)
    dRp = basis0.combine(c_derivative)
    sym_free = basis0.combine(c_free)
    sym_free = 0.5 * (sym_free + _tail(sym_free, (1, 0, 2, 3, 4, 5)))
    rotation = _read_only(_rotate(background, Rp, space.eps))
    parts = (background, Rp, dRp, 0.5 * rotation + sym_free)
    return parts, rotation, _checked("section jet", _section_residuals(*parts, rotation))


def random_section_jet(space: Space, seed: int, background: Tensor) -> SectionTwoJet:
    """Draw a random valid section jet over ``background``.

    The Ricci identity is the only coupling, so the symmetric part of the
    second derivative is free.  The jet keeps its rotation and residuals, as
    in ``random_two_jet``.
    """
    if background.valence != 4 or background.space != space:
        raise ValueError("background must be a valence-4 tensor on the same space")
    parts, rotation, residuals = _draw_section_jets(space, seed, background.data)
    sj = SectionTwoJet(*(Tensor(space, t) for t in parts))
    return _seed(sj, rotation=rotation, residuals=_floats(residuals))


def _checked(kind: str, residuals: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The residuals of drawn jets; RuntimeError unless every jet passes at 1e-8 (NaN fails).

    The message names the residuals of the first jet that fails.
    """
    passed = np.ravel(reduce(np.logical_and, [v <= 1e-8 for v in residuals.values()]))
    if not passed.all():
        first = np.flatnonzero(~passed)[0]
        failed = {key: float(np.ravel(v)[first]) for key, v in residuals.items()}
        raise RuntimeError(f"{kind} construction failed: {failed}")
    return residuals


@lru_cache(maxsize=None)
def _parallel_ricci_dirs(space: Space) -> PackedRows:
    """C_1 directions with vanishing Ricci derivative, packed; may be empty."""
    basis1 = _ck_stack(space.dim, 1)
    # the Ricci derivative of every basis tensor, one row each
    rows = _ric(basis1.unpacked(), space.eps).reshape(len(basis1), -1)
    return PackedRows(kernel(rows.T) @ basis1.rows, basis1.pk)


@lru_cache(maxsize=None)
def _weyl_rows(space: Space) -> PackedRows:
    """Weyl parts of the C_0 basis rows, packed like the basis.

    ``decompose`` is linear, so the Weyl part of ``basis0.combine(c)`` is
    ``_weyl_rows(space).combine(c)``.  The projection reads the metric, so
    the rows are cached per space, not per dimension.
    """
    basis0 = _ck_stack(space.dim, 0)
    weyl = _decompose(basis0.unpacked(), space)[2].reshape(len(basis0), -1)
    return PackedRows(_read_only(basis0.pk.pack_checked(weyl)), basis0.pk)


def random_einstein_one_jet(space: Space, seed: int) -> tuple[Tensor, Tensor]:
    """Random (R, dR) with Ricci curvature proportional to g and parallel.

    R mixes a random multiple of g owedge g with a random Weyl part; dR is a
    random combination of the C_1 directions annihilated by the Ricci
    derivative (zero if that space is trivial).  The Weyl part is the
    random C_0 combination taken on the Weyl images of the basis rows
    (``_weyl_rows``), one packed product per draw.
    """
    R, dR = _einstein_one_jets(space, seed)
    return Tensor(space, R), Tensor(space, dR)


def _einstein_one_jets(space: Space, seeds) -> tuple[np.ndarray, np.ndarray]:
    """The (R, dR) of ``random_einstein_one_jet``; a tuple of seeds stacks them."""
    weyl = _weyl_rows(space)
    dirs = _parallel_ricci_dirs(space)
    # each seed draws the Weyl coefficients, the multiple of g owedge g, then dR's
    coeff, scalar, d_coeff = _normal_draws(seeds, len(weyl), (), len(dirs))
    R = scalar[..., None, None, None, None] * _kn_metric(space) + weyl.combine_each(coeff)
    if len(dirs) == 0:
        return R, np.zeros(scalar.shape + (space.dim,) * 5)
    return R, dirs.combine_each(d_coeff)


# ---------------------------------------------------------------------------
# traces, Jacobi forms, tableau operators


def jet_traces(j: TwoJet) -> tuple[Tensor, Tensor, Tensor]:
    """The three signed traces of the second derivative.

    Returns (hess_ric, div_der, rough_lap):

    - ``hess_ric[a, b, u, v]``: second Ricci derivative, trace over curvature
      slots 2 and 4,
    - ``div_der[a, z, u, v]``: derivative of the divergence, inner derivative
      traced against curvature slot 1,
    - ``rough_lap``: trace over both derivative slots.
    """
    sp = j.space
    d2 = j.d2R.data
    return (
        Tensor(sp, _ric(d2, sp.eps)),
        Tensor(sp, _div_der(d2, sp.eps)),
        Tensor(sp, _rough_lap(d2, sp.eps)),
    )


def sym_jacobi(j: TwoJet, k: int) -> SymBiform:
    """Symmetrized Jacobi form of the k-th derivative, degree k + 2.

    The derivative slots and curvature slots 2, 3 are symmetrized together;
    the remaining pair (curvature slots 1, 4) stays bilinear.
    """
    if k not in (0, 1, 2):
        raise ValueError("derivative order must be 0, 1 or 2")
    part = (j.R, j.dR, j.d2R)[k]
    return SymBiform(j.space, k + 2, Tensor(j.space, _jacobi_layout(part.data, k)))


def tilde_ops(j: TwoJet) -> tuple[Tensor, Tensor]:
    """Negated traces of the tableau-projected second derivative.

    Returns (tilde_hess_ric, tilde_rough_lap).  The first traces curvature
    slots 1 and 3 and is laid out with the derivative pair first; the second
    traces the two derivative slots.
    """
    return tuple(Tensor(j.space, t) for t in _tilde(j.d2R.data, j.space.eps))


def _tilde(d2: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``tilde_ops`` of each second derivative on the last six axes of d2."""
    projected = _young(d2, 2, d2.ndim - 6)
    return _ric(projected, eps), _rough_lap(projected, eps)


def hat_embed(S: Tensor) -> Tensor:
    """Tableau projection of g (x) S; lands in C_2 for S in C_0."""
    if S.valence != 4:
        raise ValueError("embedding expects a valence-4 tensor")
    return Tensor(S.space, _hat_embed(S.data, S.space.eps))


def _hat_embed(S: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """``hat_embed`` of each tensor on the last four axes of S."""
    raw = np.einsum("uv,...abcd->...uvabcd", np.diag(eps), S)
    return _young(raw, 2, S.ndim - 4)


# ---------------------------------------------------------------------------
# Weitzenboeck identities


def weitzenbock_check(sj: SectionTwoJet) -> dict[str, float]:
    """Residuals of the Weitzenboeck formula on a section jet.

    Keys:

    - ``calibrated``: d del + del d against rough Laplacian minus the
      rotation-trace commutator (the convention-free reduction; exact),
    - ``strict``: the 1/12 tableau-projected Laplacian against rough
      Laplacian plus half the curvature action (exact),
    - ``displayed_projected``: the four-term Ricci right side after
      projection (exact; the Ricci terms die under the projector),
    - ``displayed_raw``: the same right side without projection, reported
      for reference (order one in general).
    """
    parts = (sj.background.data, sj.Rp.data, sj.d2Rp.data, sj.rotation)
    return {key: float(v) for key, v in _weitzenbock(*parts, sj.space.eps).items()}


def _weitzenbock(background, Rp, d2p, rotation, eps) -> dict[str, np.ndarray]:
    """``weitzenbock_check`` of each section jet of a batch, from its components and rotation."""
    lead = Rp.ndim - 4
    lap = _rough_lap(d2p, eps)
    D = _div_der(d2p, eps)
    dddel = D - _tail(D, (1, 0, 2, 3))
    # d2p is antisymmetric in curvature slots 1, 2: its (0, 2) trace is -E^T
    E = np.einsum("...iyziuv,i->...yzuv", d2p, eps)
    deld = lap - (E - _tail(E, (1, 0, 2, 3)))
    laplace = dddel + deld

    T1 = _pair_trace(rotation, eps)
    commutator = T1 - _tail(T1, (1, 0, 2, 3))

    SS = _star_of(rotation, eps, 4)
    ric_terms = _ricci_rotation_sum(Rp, _ric(background, eps), eps)
    displayed = lap + 0.5 * SS + 0.5 * ric_terms

    projected = _young(laplace, 0, lead) / 12.0
    displayed_projected = _young(displayed, 0, lead) / 12.0

    return {
        "calibrated": _rel(laplace, lap - commutator, lead),
        "strict": _rel(projected, lap + 0.5 * SS, lead),
        "displayed_projected": _rel(displayed_projected, projected, lead),
        "displayed_raw": _rel(laplace, displayed, lead),
    }


def weitzenbock_special(j: TwoJet) -> dict[str, float]:
    """Residuals of the trace Weitzenboeck identity on a two-jet.

    ``special`` compares the rough Laplacian with a quarter of the tableau
    applied to the second Ricci derivative minus half the curvature action;
    ``einstein_form`` drops the tableau term (meaningful when
    ``hessian_ricci`` vanishes).
    """
    res = _weitzenbock_special(j.d2R.data, j.star_square, j.space.eps)
    return {key: float(v) for key, v in res.items()}


def _weitzenbock_special(d2: np.ndarray, SS: np.ndarray, eps: np.ndarray) -> dict[str, np.ndarray]:
    """``weitzenbock_special`` of each jet of a batch, from its d2R and R*R."""
    lead = d2.ndim - 6
    lap = _rough_lap(d2, eps)
    hess = _ric(d2, eps)
    return {
        "special": _rel(lap, 0.25 * _hessian_tableau(hess, lead) - 0.5 * SS, lead),
        "einstein_form": _rel(lap, -0.5 * SS, lead),
        "hessian_ricci": _norm(hess, lead) / np.maximum(_norm(d2, lead), 1.0),
    }


# ---------------------------------------------------------------------------
# Einstein criterion

# slot pairs (0-based) traced by the two trace-free formulations.  The
# tableau form lies in Sym^2 (x) L^2 (x) L^2, so its traces over (2, 3) and
# (4, 5) vanish and the other 13 come in four classes, one per pair below:
# a trace over a slot's symmetric or antisymmetric partner is the same trace
# up to sign, with the same norm to the bit.
_TABLEAU_TRACES = ((0, 1), (0, 2), (0, 4), (2, 4))
_FORM_TRACES = ((0, 1), (0, 4), (4, 5))  # symmetric pair, mixed, bilinear pair


@lru_cache(maxsize=None)
def _trace_table(n: int, pairs: tuple[tuple[int, int], ...]) -> np.ndarray:
    """Flat indices into a raveled valence-6 tensor, shape (len(pairs), n^4, n).

    Entry [p, r, a] is the index of the r-th remaining multi-index with the
    slots of the p-th pair both set to a, so the table gathers every trace
    of ``pairs`` at once.
    """
    flat = np.arange(n**6).reshape((n,) * 6)
    table = np.stack([np.diagonal(flat, axis1=i, axis2=k).reshape(-1, n) for i, k in pairs])
    return _read_only(table)


@lru_cache(maxsize=None)
def _packed_trace_table(
    pk: Packing, pairs: tuple[tuple[int, int], ...]
) -> tuple[np.ndarray, np.ndarray]:
    """``_trace_table`` read through a packing: the orbit and coefficient of each traced entry."""
    table = _trace_table(pk.shape[0], pairs)
    return _read_only(pk.index[table]), _read_only(pk.coef[table])


def _form_packing(n: int) -> Packing:
    """Packing of Sym^4 (x) Sym^2, the class of the degree-4 SymBiforms."""
    return packing(n, (("sym", 4), ("sym", 2)))


def _with_metric_bins(orbit: np.ndarray, size: int, t_slots, g_slots) -> tuple[np.ndarray, int]:
    """Bins of one ``bincount`` over a valence-6 tensor d and a metric product g (x) T.

    ``orbit``, of d's shape, maps each entry of d to one of ``size`` bins.
    The product has the layout of d, with T in ``t_slots`` (in T's slot
    order) and g in ``g_slots``; its n^5 terms g(x, x) T(t), ordered (t, x),
    go to the next ``size`` bins.
    """
    table = orbit.transpose(tuple(t_slots) + tuple(g_slots))
    bins = np.concatenate([orbit.ravel(), np.diagonal(table, axis1=4, axis2=5).ravel() + size])
    return _read_only(bins), size


@lru_cache(maxsize=None)
def _tableau_bins(n: int) -> tuple[np.ndarray, int]:
    """d2R and g (x) R*R, laid out as in ``hat_embed``, into the row orbits of the tableau."""
    orbit = _packed_young_plan(n, 2)[0].reshape((n,) * 6)
    return _with_metric_bins(orbit, n**6, (2, 3, 4, 5), (0, 1))


@lru_cache(maxsize=None)
def _form_bins(n: int) -> tuple[np.ndarray, int]:
    """d2R and g (x) T into the orbits of ``_form_packing``.

    ``sym_jacobi(j, 2)`` reads d2R in the slot order (0, 1, 3, 4, 2, 5).
    ``sym_product(jacobi_form(T), g)`` symmetrizes T(p, u, v, q) g(x, y) at
    (u, v, x, y, p, q); in the layout of d2R that is T(c, a, b, d) g(e, f)
    at (a, b, c, e, f, d).
    """
    pk = _form_packing(n)
    orbit = pk.index.reshape(pk.shape).transpose(0, 1, 4, 2, 3, 5)
    return _with_metric_bins(orbit, len(pk.rep), (2, 0, 1, 5), (3, 4))


def _sums_with_metric(
    plan: tuple[np.ndarray, int], d2: np.ndarray, T: np.ndarray, eps: np.ndarray
) -> np.ndarray:
    """Orbit sums of d2 and of g (x) T over the bins of ``plan``, rows of a (..., 2, size) array.

    Each jet of a batch sums into its own 2 * size bins (``_orbit_sums``),
    in the order of a lone jet's sums.
    """
    bins, size = plan
    outer = d2.shape[:-6]
    rows = math.prod(outer)
    metric = (T.reshape(rows, -1, 1) * eps).reshape(rows, -1)
    values = np.concatenate([d2.reshape(rows, -1), metric], axis=1)
    return _orbit_sums(values, bins, 2 * size).reshape(outer + (2, size))


def _jacobi_pair(d2: np.ndarray, T: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Packed R^(2) of d2 and packed (Jacobi form of T) . g, as the rows of a (2, P) array.

    Both are degree-4 SymBiforms, whose entries are the orbit means: the
    orthogonal projection onto Sym^4 (x) Sym^2, whose packed coordinates
    are the orbit sums over the weights.  The symmetrization of
    ``jacobi_form`` runs over a subgroup of the outer one, so the outer
    orbit sums absorb it.
    """
    pk = _form_packing(len(eps))
    return _sums_with_metric(_form_bins(len(eps)), d2, T, eps) / pk.weight


def _trace_defect(
    images: np.ndarray, pk: Packing, eps: np.ndarray, pairs: tuple[tuple[int, int], ...]
) -> float:
    """Trace defect of a trace-free formulation from the packed pair (A, B) in ``images``.

    The largest norm of the signed metric traces over ``pairs`` of
    A - B/(n+4), relative to max(|A|, |B|/(n+4), 1); packing is an
    isometry, so |A| and |B| are the norms of the packed rows.
    """
    shrink = len(eps) + 4.0
    index, coef = _packed_trace_table(pk, pairs)
    traces = (_gather(images[..., 0, :] - images[..., 1, :] / shrink, index) * coef) @ eps
    norms = np.linalg.norm(images, axis=-1)
    scale = np.maximum(np.maximum(norms[..., 0], norms[..., 1] / shrink), 1.0)
    return np.linalg.norm(traces, axis=-1).max(axis=-1) / scale


def _one_jet_gaps(R: np.ndarray, dR: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Einstein gaps of each one-jet of a batch: |ric - (s/n) g| / |R| and |grad ric| / |dR|.

    Each norm is taken relative to max(norm of the jet component, 1).
    """
    lead = R.ndim - 4
    res_ric = _norm(_trace_free_ric(R, eps)[0], lead) / np.maximum(_norm(R, lead), 1.0)
    return res_ric, _norm(_ric(dR, eps), lead) / np.maximum(_norm(dR, lead), 1.0)


def einstein_check(j: TwoJet, tol: float = 1e-8) -> tuple[bool, dict[str, float]]:
    """Einstein verdict with the defect norms of all three formulations.

    The verdict is definitional: Ricci curvature proportional to the metric,
    vanishing Ricci derivative and vanishing second Ricci derivative, each
    relative to the matching jet component.  The report adds the trace
    defects of the two equivalent trace-free formulations (tableau form and
    symmetric-product form), which tests play against the verdict.  Both
    are read off packed images, never off full valence-6 tensors.
    """
    report = _einstein_report(j.d2R.data, j.star_square, j.einstein_gaps, j.space.eps)
    report = {key: float(v) for key, v in report.items()}
    return _einstein_verdicts(report, tol)[0], report


def _einstein_verdicts(report: dict, tol: float = 1e-8):
    """The definitional, tableau-trace and form-trace Einstein verdicts of a report.

    Each is the one-jet gate and one second-order defect within tol, elementwise over a batch.
    """
    one_jet = (report["ricci_proportional"] <= tol) & (report["ricci_derivative"] <= tol)
    keys = ("hessian_ricci", "tableau_trace_defect", "form_trace_defect")
    return tuple(one_jet & (report[key] <= tol) for key in keys)


def _einstein_report(d2: np.ndarray, SS: np.ndarray, gaps, eps: np.ndarray) -> dict:
    """``einstein_check`` report of each jet of a batch, from d2R, R*R and the one-jet gaps."""
    n = len(eps)
    lead = d2.ndim - 6
    res_ric, res_dric = gaps
    hess = _ric(d2, eps)
    res_hess = _norm(hess, lead) / np.maximum(_norm(d2, lead), 1.0)

    # tableau form: all metric traces of Young(d2R) - iota(R*R)/(n+4), from
    # the packed images of d2R and g (x) R*R under the valence-6 symmetrizer
    sums = _sums_with_metric(_tableau_bins(n), d2, SS, eps)
    images = _packed_young(sums.reshape(-1, sums.shape[-1]), n, 2).reshape(sums.shape[:-1] + (-1,))
    res_tableau = _trace_defect(images, _ck_packing(n, 2), eps, _TABLEAU_TRACES)

    # symmetric-product form: traces of R^(2) - (Jacobi form of R*R) . g/(n+4)
    res_form = _trace_defect(_jacobi_pair(d2, SS, eps), _form_packing(n), eps, _FORM_TRACES)

    return {
        "ricci_proportional": res_ric,
        "ricci_derivative": res_dric,
        "hessian_ricci": res_hess,
        "tableau_trace_defect": res_tableau,
        "form_trace_defect": res_form,
    }


def fit_jacobi_relation(j: TwoJet) -> JacobiFit:
    """Least-squares constant c in R^(2) = c * g . R^(0).

    Undefined for a vanishing curvature part or a vanishing Jacobi form
    g . R^(0) (ValueError).  The residual is relative to |R^(2)|; a zero
    symmetrized second derivative fits exactly with c = 0, unless R holds
    a NaN, which makes c and the residual NaN.  Both forms are
    degree-4 SymBiforms, taken in packed coordinates; R^(0) is
    ``sym_jacobi(j, 0)``, the Jacobi form of R.
    """
    c, residual, _ = _jacobi_fit(j.d2R.data, j.R.data, j.space.eps)
    return JacobiFit(float(c), float(residual))


def _jacobi_fit(d2: np.ndarray, R: np.ndarray, eps: np.ndarray):
    """The fit (c, residual) of ``fit_jacobi_relation`` and the eigenvalue gap of each jet of a batch.

    The gap |rough_lap + (n + 4) c / 2 * R| / max(|R|, 1) is taken where the
    fit is clean (``_CLEAN_FIT``), and is NaN elsewhere.  Raises as
    ``fit_jacobi_relation`` does if any jet has no fit.
    """
    lead = R.ndim - 4
    pair = _jacobi_pair(d2, R, eps)
    R2, G = pair[..., 0, :], pair[..., 1, :]
    norm_R, norm_R2, norm2_G = _norm(R, lead), _norm(R2, lead), _dot(G, G)
    # a zero R^(2) fits exactly with c = 0, unless a NaN in R makes the fit NaN
    fits = (norm_R2 != 0.0) | np.isnan(norm_R)
    if (norm2_G == 0.0).any():  # G vanishes where R does
        if (norm_R == 0.0).any():
            raise ValueError("fit undefined: vanishing curvature part")
        if (fits & (norm2_G == 0.0)).any():
            raise ValueError("fit undefined: vanishing Jacobi form")
    c = np.divide(_dot(R2, G), norm2_G, out=np.zeros(norm_R.shape), where=fits)
    misfit = _norm(R2 - c[..., None] * G, lead)
    residual = np.divide(misfit, norm_R2, out=np.zeros(norm_R.shape), where=fits)
    gaps = np.full(norm_R.shape, np.nan)
    clean = residual < _CLEAN_FIT
    if clean.any():  # the clean jets, stacked on one axis
        scaled = ((len(eps) + 4.0) * c[clean] / 2.0)[:, None, None, None, None] * R[clean]
        lap = _rough_lap(d2[clean], eps)
        gaps[clean] = _norm(lap + scaled, 1) / np.maximum(norm_R[clean], 1.0)
    return c, residual, gaps


# ---------------------------------------------------------------------------
# Einstein extension


@lru_cache(maxsize=None)
def _extension_solver(
    space: Space,
) -> tuple[PackedRows, np.ndarray, np.ndarray, np.ndarray, PackedRows]:
    """Correction directions in C_2, the trace-cancellation system, the
    compact factors (ut, vs) of its pseudoinverse, and the free directions
    of the extension.

    Columns of the system matrix are the second Ricci derivatives of the
    C_2 basis; ``vs @ (ut @ target)`` is the minimum-norm coefficient
    vector.  The free directions are the C_2 elements with vanishing second
    Ricci derivative (the totally trace-free part of C_2); their number is
    reported because the correction is not unique.  The factors and the
    free directions come from one SVD of the system; the directions stay
    packed like the C_2 basis.
    """
    directions = _ck_stack(space.dim, 2)
    # the second Ricci derivative (``_ric``) of every direction, read off the
    # packed rows at the entries (a, b, u, i, v, i) that its trace sums over
    summed = directions.entries(_trace_table(space.dim, ((3, 5),))[0])
    system = np.ascontiguousarray(-(summed @ space.eps).T)
    ut, vs, null = lstsq_factors(system)
    free = PackedRows(null @ directions.rows, directions.pk)
    return directions, system, ut, vs, free


def _hess_kernel_stack(space: Space) -> PackedRows:
    """C_2 directions with vanishing second Ricci derivative, packed."""
    return _extension_solver(space)[4]


def extension_solution_dim(space: Space) -> int:
    """Dimension of the correction solution space used by einstein_extend."""
    return len(_hess_kernel_stack(space))


def einstein_extend(R: Tensor, dR: Tensor, tol: float = 1e-6) -> TwoJet:
    """Complete an Einstein one-jet to a two-jet passing einstein_check.

    The provisional second derivative is the particular solution of the
    Ricci and differentiated Bianchi identities that ``random_two_jet`` also
    builds on.  Its second-Ricci-derivative defect is cancelled by a
    1/80-scaled correction from C_2, which preserves the jet constraints.
    The jet keeps the rotation and the one-jet gaps as cached values.

    Raises ValueError if R and dR do not have valences 4 and 5 on one space,
    or are not finite or not an Einstein one-jet, and RuntimeError if the
    correction solve leaves a gap.
    """
    if (R.valence, dR.valence) != (4, 5):
        raise ValueError(
            f"einstein_extend needs R and dR of valences (4, 5), got ({R.valence}, {dR.valence})"
        )
    if R.space != dR.space:
        raise ValueError(f"mismatched spaces: R on {R.space}, dR on {dR.space}")
    d2, rotation, gaps = _extend(R.space, R.data, dR.data, tol)
    jet = TwoJet(R, dR, Tensor(R.space, d2))
    return _seed(jet, rotation=rotation, einstein_gaps=tuple(float(g) for g in gaps))


def _extend(sp: Space, R: np.ndarray, dR: np.ndarray, tol: float = 1e-6):
    """``einstein_extend`` of each one-jet of a batch (any leading axes).

    Returns the second derivatives, the rotations and the one-jet gaps;
    raises as ``einstein_extend`` does if any one-jet fails.
    """
    if not (np.isfinite(R).all() and np.isfinite(dR).all()):
        raise ValueError("one-jet has non-finite entries")
    lead = R.ndim - 4
    res_ric, res_dric = _one_jet_gaps(R, dR, sp.eps)
    if (res_ric > tol).any():
        raise ValueError("ric ∉ ℝ·g: curvature part is not Einstein")
    if (res_dric > tol).any():
        raise ValueError("∇ric ≠ 0: derivative part has nonparallel Ricci trace")

    rotation = _read_only(_rotate(R, R, sp.eps))
    provisional = _particular_d2(R, rotation)
    directions, system, ut, vs, _ = _extension_solver(sp)
    target = -80.0 * _ric(provisional, sp.eps).reshape(R.shape[:lead] + (-1,))
    coeff = _matvec(vs, _matvec(ut, target))
    solve_gap = np.ravel(_norm(_matvec(system, coeff) - target, lead))
    # a NaN gap fails too
    failed = ~(solve_gap <= 1e-6 * np.maximum(np.ravel(_norm(target, lead)), 1.0))
    if failed.any():
        raise RuntimeError(
            "extension failed: trace defect not cancellable "
            f"(residual {solve_gap[np.flatnonzero(failed)[0]]:.3e})"
        )
    d2 = provisional + directions.combine_each(coeff) / 80.0
    return d2, rotation, (res_ric, res_dric)


# ---------------------------------------------------------------------------
# serialization


def two_jet_to_dict(j: TwoJet) -> dict:
    """Plain-document form: the space header and the three jet components."""
    parts = {name: tensor_to_dict(getattr(j, name)) for name in j.__match_args__}
    return {**space_to_dict(j.space), **parts}


def two_jet_from_dict(doc: dict) -> TwoJet:
    return TwoJet(*_header_tensors(doc, "R", "dR", "d2R"))
