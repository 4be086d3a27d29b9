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
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .curvature import (
    _kn_metric,
    _pair_trace,
    _ricci_rotation_sum,
    decompose,
    pair_derivation,
    ricci,
    ricci_derivative,
    star_action,
)
from .spaces import (
    Space,
    SymBiform,
    Tensor,
    _header_tensors,
    _rel,
    memoized,
    space_to_dict,
    tensor_to_dict,
)
from .subspace import Packing, PackedRows, kernel, lstsq_factors, packing
from .young import (
    _ck_packing,
    _ck_stack,
    _packed_young,
    _packed_young_plan,
    ck_residuals,
    young_apply,
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
        return _read_only(pair_derivation(self.R, self.R))

    @cached_property
    def residuals(self) -> Mapping[str, float]:
        """The relative residuals of ``validate_two_jet``, as a read-only mapping."""
        residuals = {
            "curvature": _slice_residual(self.R, 0),
            "derivative": _slice_residual(self.dR, 1),
            "second_derivative": _slice_residual(self.d2R, 1),
            "ricci_identity": _ricci_gap(self.d2R, self.rotation, self.R.norm() ** 2),
        }
        return MappingProxyType(residuals)

    @cached_property
    def einstein_gaps(self) -> tuple[float, float]:
        """The one-jet Einstein gaps of R and dR (see ``_one_jet_gaps``)."""
        return _one_jet_gaps(self.R, self.dR)

    @cached_property
    def star_square(self) -> np.ndarray:
        """R*R, the curvature action of R on itself, as a read-only array."""
        return _read_only(star_action(self.R, self.R).data)


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
        return _read_only(pair_derivation(self.background, self.Rp))

    @cached_property
    def residuals(self) -> Mapping[str, float]:
        """The relative residuals of ``validate_section_jet``, as a read-only mapping."""
        residuals = {
            "background": _slice_residual(self.background, 0),
            "section": _slice_residual(self.Rp, 0),
            "derivative": _slice_residual(self.dRp, 0),
            "second_derivative": _slice_residual(self.d2Rp, 0),
            "ricci_identity": _ricci_gap(
                self.d2Rp, self.rotation, self.background.norm() * self.Rp.norm()
            ),
        }
        return MappingProxyType(residuals)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _seed(j: _Jet, **values) -> _Jet:
    """Store derived values of j that its builder computed from j's own data.

    ``cached_property`` reads the instance dict first, so the jet hands out
    each value as if it had computed it; the components are read-only
    copies, so the values cannot go stale.
    """
    vars(j).update(values)
    return j


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
        return self.residual < 1e-9


# ---------------------------------------------------------------------------
# signed traces of the second derivative


def _hess_ric(d2: np.ndarray, eps: np.ndarray) -> np.ndarray:
    # second Ricci derivative: trace over curvature slots 2 and 4
    return -np.einsum("abuivi,i->abuv", d2, eps)


def _div_der(d2: np.ndarray, eps: np.ndarray) -> np.ndarray:
    # derivative of the divergence: inner derivative against slot 1
    return -np.einsum("aiizuv,i->azuv", d2, eps)


def _rough_lap(d2: np.ndarray, eps: np.ndarray) -> np.ndarray:
    return -np.einsum("iiabcd,i->abcd", d2, eps)


def _hessian_tableau(sp: Space, hess: np.ndarray) -> np.ndarray:
    """The C_0 tableau of a second Ricci derivative, read in the slot order (0, 2, 1, 3)."""
    return young_apply(Tensor(sp, np.transpose(hess, (0, 2, 1, 3))), 0).data


# ---------------------------------------------------------------------------
# validation


def _slice_residual(t: Tensor, k: int) -> float:
    """Largest C_k residual over the slices and symmetries of t, over max(|t|, 1); NaN if any is."""
    return float(np.max(list(ck_residuals(t, k).values()))) / max(t.norm(), 1.0)


def _ricci_gap(d2: Tensor, rotation: np.ndarray, scale: float) -> float:
    """The Ricci-identity residual |d2[a, b] - d2[b, a] - rotation| / max(|d2|, scale, 1)."""
    gap = d2.data - np.transpose(d2.data, (1, 0, 2, 3, 4, 5)) - rotation
    return float(np.linalg.norm(gap)) / max(d2.norm(), scale, 1.0)


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
def _h_solver(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, Packing]:
    """Solver for the Bianchi-cycle system over Sym^2 V* (x) C_0 in dimension n.

    The unknowns are coefficients c[p, i] of sym_p (x) b_i, where sym_p is
    the symmetric unit matrix of the p-th pair x <= y (row-major) and b_i
    the i-th C_0 basis tensor.  Returns the compact pseudoinverse factors
    (ut, vs) of the system, for the minimum-norm solution ``vs @ (ut @ t)``
    of a raveled cycle target t (rank deficiency is expected: the
    homogeneous solutions are exactly C_2), the (n, n) map from a matrix
    entry to its pair p, and the packing of the cycle targets.

    The cycle over (inner derivative, c_1, c_2) of a tensor antisymmetric in
    (c_1, c_2) is totally antisymmetric in those slots, so each column lies
    in V (x) L^3 (x) L^2; the system is formed and solved in its packed
    coordinates, and ``ut`` stays packed: it acts on ``pk.pack`` of the
    raveled target.  The system uses no metric, so one solver serves every
    signature.
    """
    stack0 = _ck_stack(n, 0).unpacked()
    upper = np.triu_indices(n)
    pairs = np.empty((n, n), dtype=np.intp)
    pairs[upper] = pairs[upper[::-1]] = np.arange(len(upper[0]))
    pk = packing(n, (("sym", 1), ("alt", 3), ("alt", 2)))
    a, x, y, z, u, v = np.unravel_index(pk.rep, pk.shape)
    # the cycle of sym_p (x) b_i at (a, x, y, z, u, v) is
    # sum over the cyclic shifts (x, y, z) of sym_p[a, x] * b_i[y, z, u, v]
    one_hot = np.eye(len(upper[0]))
    packed = sum(
        one_hot[pairs[a, p]][:, :, None] * stack0[:, q, r, u, v].T[:, None, :]
        for p, q, r in ((x, y, z), (y, z, x), (z, x, y))
    )
    packed = packed.reshape(len(pk.rep), -1) * pk.weight[:, None]
    ut, vs, _ = lstsq_factors(packed)
    return _read_only(ut), _read_only(vs), _read_only(pairs), pk


@lru_cache(maxsize=None)
def _cycle_gather(n: int) -> np.ndarray:
    """Flat indices, shape (3, P), of the three terms of the Bianchi cycle at ``pk.rep``.

    Row t holds the entry that the t-th term of the cycle over the inner
    derivative slot and c_1, c_2 (axes 1, 2, 3) reads at each packed
    representative (a, x, y, z, u, v): d at (a, x, y, z), (a, z, x, y) and
    (a, y, z, x), each followed by (u, v).
    """
    pk = _h_solver(n)[3]
    a, x, y, z, u, v = np.unravel_index(pk.rep, pk.shape)
    index = np.stack(
        [
            np.ravel_multi_index((a, p, q, r, u, v), pk.shape)
            for p, q, r in ((x, y, z), (z, x, y), (y, z, x))
        ]
    )
    return _read_only(index)


def _packed_cycle(d: np.ndarray) -> np.ndarray:
    """The packed Bianchi cycle of d over axes (1, 2, 3), without the full cycle.

    The three terms are gathered at the packed entries and added in the
    order d + d(a, z, x, y) + d(a, y, z, x), so the result equals the packed
    full cycle to the bit.
    """
    n = d.shape[0]
    terms = d.ravel()[_cycle_gather(n)]
    return (terms[0] + terms[1] + terms[2]) * _h_solver(n)[3].weight


def _particular_d2(R: Tensor, rotation: np.ndarray) -> np.ndarray:
    """A second derivative over R meeting every two-jet constraint; any other differs by C_2.

    Half the curvature rotation ``pair_derivation(R, R)`` carries the Ricci
    identity, and the minimum-norm symmetric part from ``_h_solver`` cancels
    its differentiated Bianchi cycle.
    """
    basis0 = _ck_stack(R.space.dim, 0)
    particular = 0.5 * rotation
    ut, vs, pairs, _ = _h_solver(R.space.dim)
    coeff = (vs @ (ut @ -_packed_cycle(particular))).reshape(-1, len(basis0))
    return particular + basis0.combine(coeff[pairs])


@memoized
def random_two_jet(space: Space, seed: int) -> TwoJet:
    """Draw a random valid two-jet.

    The jet takes random C_0 and C_1 parts, a particular symmetric second
    derivative solving the differentiated Bianchi identity on top of half
    the curvature rotation, and a random C_2 contribution.  The jet keeps
    that rotation and the residuals of the draw's validation as cached
    values.  In a run scope (``spaces.run_scope``) a jet is drawn once per
    (space, seed).
    """
    if space.dim not in RANDOM_JET_DIMS:
        raise ValueError("random jets are supported for dim 3, 4, 5")
    rng = np.random.default_rng(seed)
    basis0 = _ck_stack(space.dim, 0)
    basis1 = _ck_stack(space.dim, 1)
    basis2 = _ck_stack(space.dim, 2)
    R = Tensor(space, basis0.combine(rng.standard_normal(len(basis0))))
    dR = Tensor(space, basis1.combine(rng.standard_normal(len(basis1))))

    homogeneous = basis2.combine(rng.standard_normal(len(basis2)))

    rotation = _read_only(pair_derivation(R, R))
    j = TwoJet(R, dR, Tensor(space, _particular_d2(R, rotation) + homogeneous))
    return _checked_draw(j, rotation)


def random_section_jet(space: Space, seed: int, background: Tensor) -> SectionTwoJet:
    """Draw a random valid section jet over ``background``.

    The Ricci identity is the only coupling, so the symmetric part of the
    second derivative is free.  The jet keeps its rotation and residuals, as
    in ``random_two_jet``, but is not memoized (a tensor is unhashable).
    """
    if space.dim not in RANDOM_JET_DIMS:
        raise ValueError("random jets are supported for dim 3, 4, 5")
    if background.valence != 4 or background.space != space:
        raise ValueError("background must be a valence-4 tensor on the same space")
    rng = np.random.default_rng(seed)
    basis0 = _ck_stack(space.dim, 0)
    n = space.dim
    Rp = Tensor(space, basis0.combine(rng.standard_normal(len(basis0))))
    dRp = basis0.combine(rng.standard_normal((n, len(basis0))))
    sym_free = basis0.combine(rng.standard_normal((n, n, len(basis0))))
    sym_free = 0.5 * (sym_free + np.transpose(sym_free, (1, 0, 2, 3, 4, 5)))
    rotation = _read_only(pair_derivation(background, Rp))
    sj = SectionTwoJet(background, Rp, Tensor(space, dRp), Tensor(space, 0.5 * rotation + sym_free))
    return _checked_draw(sj, rotation)


def _checked_draw(j: _Jet, rotation: np.ndarray) -> _Jet:
    """Seed a drawn jet with the rotation that built it and validate it; both stay cached."""
    ok, residuals = _verdict(_seed(j, rotation=rotation), 1e-8)
    if not ok:
        raise RuntimeError(f"{j._KIND} construction failed: {residuals}")
    return j


@lru_cache(maxsize=None)
def _parallel_ricci_dirs(space: Space) -> PackedRows:
    """C_1 directions with vanishing Ricci derivative, packed; may be empty."""
    basis1 = _ck_stack(space.dim, 1)
    rows = np.stack(
        [ricci_derivative(Tensor(space, b)).data.ravel() for b in basis1.unpacked()]
    )
    return PackedRows(kernel(rows.T) @ basis1.rows, basis1.pk)


@lru_cache(maxsize=None)
def _weyl_rows(space: Space) -> PackedRows:
    """Weyl parts of the C_0 basis rows, packed like the basis.

    ``decompose`` is linear, so the Weyl part of ``basis0.combine(c)`` is
    ``_weyl_rows(space).combine(c)``.  The projection reads the metric, so
    the rows are cached per space, not per dimension.
    """
    basis0 = _ck_stack(space.dim, 0)
    weyl = np.stack(
        [decompose(Tensor(space, b)).weyl_part.data.ravel() for b in basis0.unpacked()]
    )
    return PackedRows(_read_only(basis0.pk.pack_checked(weyl)), basis0.pk)


def random_einstein_one_jet(space: Space, seed: int) -> tuple[Tensor, Tensor]:
    """Random (R, dR) with Ricci curvature proportional to g and parallel.

    R mixes a random multiple of g owedge g with a random Weyl part; dR is a
    random combination of the C_1 directions annihilated by the Ricci
    derivative (zero if that space is trivial).  The Weyl part is the
    random C_0 combination taken on the Weyl images of the basis rows
    (``_weyl_rows``), one packed product per draw.
    """
    rng = np.random.default_rng(seed)
    weyl = _weyl_rows(space)
    coeff = rng.standard_normal(len(weyl))
    R = Tensor(space, rng.standard_normal() * _kn_metric(space) + weyl.combine(coeff))

    dirs = _parallel_ricci_dirs(space)
    if len(dirs) == 0:
        dR = Tensor(space, np.zeros((space.dim,) * 5))
    else:
        dR = Tensor(space, dirs.combine(rng.standard_normal(len(dirs))))
    return R, dR


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
        Tensor(sp, _hess_ric(d2, sp.eps)),
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
    axes = tuple(range(k)) + (k + 1, k + 2, k, k + 3)
    arranged = np.transpose(part.data, axes)
    return SymBiform(j.space, k + 2, Tensor(j.space, arranged))


def tilde_ops(j: TwoJet) -> tuple[Tensor, Tensor]:
    """Negated traces of the tableau-projected second derivative.

    Returns (tilde_hess_ric, tilde_rough_lap).  The first traces curvature
    slots 1 and 3 and is laid out with the derivative pair first; the second
    traces the two derivative slots.
    """
    sp = j.space
    projected = young_apply(j.d2R, 2).data
    hess = -np.einsum("xyaibi,i->xyab", projected, sp.eps)
    return Tensor(sp, hess), Tensor(sp, _rough_lap(projected, sp.eps))


def hat_embed(S: Tensor) -> Tensor:
    """Tableau projection of g (x) S; lands in C_2 for S in C_0."""
    if S.valence != 4:
        raise ValueError("embedding expects a valence-4 tensor")
    sp = S.space
    raw = np.einsum("uv,abcd->uvabcd", sp.metric_matrix(), S.data)
    return young_apply(Tensor(sp, raw), 2)


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
    sp = sj.space
    eps = sp.eps
    d2p = sj.d2Rp.data

    lap = _rough_lap(d2p, eps)
    dddel = _div_der(d2p, eps) + np.einsum("yiixuv,i->xyuv", d2p, eps)
    deld = lap - np.einsum("iyziuv,i->yzuv", d2p, eps) - np.einsum("iziyuv,i->yzuv", d2p, eps)
    laplace = dddel + deld

    T1 = _pair_trace(sj.rotation, eps)
    commutator = T1 - np.transpose(T1, (1, 0, 2, 3))

    SS = star_action(sj.background, sj.Rp).data
    ric_terms = _ricci_rotation_sum(sj.Rp, ricci(sj.background).ric)
    displayed = lap + 0.5 * SS + 0.5 * ric_terms

    projected = young_apply(Tensor(sp, laplace), 0).data / 12.0
    displayed_projected = young_apply(Tensor(sp, displayed), 0).data / 12.0

    return {
        "calibrated": _rel(laplace, lap - commutator),
        "strict": _rel(projected, lap + 0.5 * SS),
        "displayed_projected": _rel(displayed_projected, projected),
        "displayed_raw": _rel(laplace, displayed),
    }


def weitzenbock_special(j: TwoJet) -> dict[str, float]:
    """Residuals of the trace Weitzenboeck identity on a two-jet.

    ``special`` compares the rough Laplacian with a quarter of the tableau
    applied to the second Ricci derivative minus half the curvature action;
    ``einstein_form`` drops the tableau term (meaningful when
    ``hessian_ricci`` vanishes).
    """
    sp = j.space
    eps = sp.eps
    d2 = j.d2R.data

    lap = _rough_lap(d2, eps)
    hess = _hess_ric(d2, eps)
    SS = j.star_square

    return {
        "special": _rel(lap, 0.25 * _hessian_tableau(sp, hess) - 0.5 * SS),
        "einstein_form": _rel(lap, -0.5 * SS),
        "hessian_ricci": float(np.linalg.norm(hess)) / max(j.d2R.norm(), 1.0),
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
    """Orbit sums of d2 and of g (x) T over the bins of ``plan``, rows of a (2, size) array."""
    bins, size = plan
    values = np.concatenate([d2.ravel(), np.multiply.outer(T.ravel(), eps).ravel()])
    return np.bincount(bins, values, 2 * size).reshape(2, size)


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
    traces = ((images[0] - images[1] / shrink)[index] * coef) @ eps
    norms = np.linalg.norm(images, axis=1)
    scale = max(norms[0], norms[1] / shrink, 1.0)
    return float(np.linalg.norm(traces, axis=1).max() / scale)


def _one_jet_gaps(R: Tensor, dR: Tensor) -> tuple[float, float]:
    """Einstein gaps of a one-jet: |ric - (s/n) g| / |R| and |grad ric| / |dR|.

    Each norm is taken relative to max(norm of the jet component, 1).
    """
    sp = R.space
    ric_data = ricci(R)
    proportional_gap = ric_data.ric.data - (ric_data.scalar / sp.dim) * sp.metric_matrix()
    res_ric = float(np.linalg.norm(proportional_gap)) / max(R.norm(), 1.0)
    res_dric = ricci_derivative(dR).norm() / max(dR.norm(), 1.0)
    return res_ric, res_dric


def einstein_check(j: TwoJet, tol: float = 1e-8) -> tuple[bool, dict[str, float]]:
    """Einstein verdict with the defect norms of all three formulations.

    The verdict is definitional: Ricci curvature proportional to the metric,
    vanishing Ricci derivative and vanishing second Ricci derivative, each
    relative to the matching jet component.  The report adds the trace
    defects of the two equivalent trace-free formulations (tableau form and
    symmetric-product form), which tests play against the verdict.  Both
    are read off packed images, never off full valence-6 tensors.
    """
    sp = j.space
    n = sp.dim
    eps = sp.eps
    d2 = j.d2R.data

    res_ric, res_dric = j.einstein_gaps
    hess = _hess_ric(d2, eps)
    res_hess = float(np.linalg.norm(hess)) / max(j.d2R.norm(), 1.0)

    one_jet_ok = res_ric <= tol and res_dric <= tol
    verdict = one_jet_ok and res_hess <= tol

    SS = j.star_square

    # tableau form: all metric traces of Young(d2R) - iota(R*R)/(n+4), from
    # the packed images of d2R and g (x) R*R under the valence-6 symmetrizer
    images = _packed_young(_sums_with_metric(_tableau_bins(n), d2, SS, eps), n, 2)
    res_tableau = _trace_defect(images, _ck_packing(n, 2), eps, _TABLEAU_TRACES)

    # symmetric-product form: traces of R^(2) - (Jacobi form of R*R) . g/(n+4)
    res_form = _trace_defect(_jacobi_pair(d2, SS, eps), _form_packing(n), eps, _FORM_TRACES)

    report = {
        "ricci_proportional": res_ric,
        "ricci_derivative": res_dric,
        "hessian_ricci": res_hess,
        "tableau_trace_defect": res_tableau,
        "form_trace_defect": res_form,
    }
    return verdict, report


def fit_jacobi_relation(j: TwoJet) -> JacobiFit:
    """Least-squares constant c in R^(2) = c * g . R^(0).

    Undefined for a vanishing curvature part or a vanishing Jacobi form
    g . R^(0) (ValueError).  The residual is relative to |R^(2)|; a zero
    symmetrized second derivative fits exactly with c = 0.  Both forms are
    degree-4 SymBiforms, taken in packed coordinates; R^(0) is
    ``sym_jacobi(j, 0)``, the Jacobi form of R.
    """
    if j.R.norm() == 0.0:
        raise ValueError("fit undefined: vanishing curvature part")
    R2, G = _jacobi_pair(j.d2R.data, j.R.data, j.space.eps)

    norm_R2 = float(np.linalg.norm(R2))
    if norm_R2 == 0.0:
        return JacobiFit(0.0, 0.0)
    norm2_G = float(G @ G)
    if norm2_G == 0.0:
        raise ValueError("fit undefined: vanishing Jacobi form")
    c = float(R2 @ G) / norm2_G
    residual = float(np.linalg.norm(R2 - c * G)) / norm_R2
    return JacobiFit(c, residual)


def _eigenvalue_gap(j: TwoJet, c: float) -> float:
    """Relative gap of the eigenvalue corollary rough_lap = -(n + 4) c / 2 * R."""
    n = j.space.dim
    lap = _rough_lap(j.d2R.data, j.space.eps)
    gap = np.linalg.norm(lap + ((n + 4.0) * c / 2.0) * j.R.data)
    return float(gap / max(j.R.norm(), 1.0))


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
    # _hess_ric of every direction, read off the packed rows at the entries
    # (a, b, u, i, v, i) that its trace sums over
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

    Raises ValueError if the input is not finite or not an Einstein one-jet,
    and RuntimeError if the correction solve leaves a gap.
    """
    if not (np.isfinite(R.data).all() and np.isfinite(dR.data).all()):
        raise ValueError("one-jet has non-finite entries")
    sp = R.space
    res_ric, res_dric = _one_jet_gaps(R, dR)
    if res_ric > tol:
        raise ValueError("ric ∉ ℝ·g: curvature part is not Einstein")
    if res_dric > tol:
        raise ValueError("∇ric ≠ 0: derivative part has nonparallel Ricci trace")

    rotation = _read_only(pair_derivation(R, R))
    provisional = _particular_d2(R, rotation)
    directions, system, ut, vs, _ = _extension_solver(sp)
    target = -80.0 * _hess_ric(provisional, sp.eps).ravel()
    coeff = vs @ (ut @ target)
    solve_gap = float(np.linalg.norm(system @ coeff - target))
    if solve_gap > 1e-6 * max(float(np.linalg.norm(target)), 1.0):
        raise RuntimeError(
            f"extension failed: trace defect not cancellable (residual {solve_gap:.3e})"
        )
    d2 = provisional + directions.combine(coeff) / 80.0
    jet = TwoJet(R, dR, Tensor(sp, d2))
    return _seed(jet, rotation=rotation, einstein_gaps=(res_ric, res_dric))


# ---------------------------------------------------------------------------
# serialization


def two_jet_to_dict(j: TwoJet) -> dict:
    """Plain-document form: the space header and the three jet components."""
    parts = {name: tensor_to_dict(getattr(j, name)) for name in j.__match_args__}
    return {**space_to_dict(j.space), **parts}


def two_jet_from_dict(doc: dict) -> TwoJet:
    return TwoJet(*_header_tensors(doc, "R", "dR", "d2R"))
