"""Curvature algebra: Ricci traces, Kulkarni products, and curvature actions.

Sign conventions in force throughout the package:
  ric(x,y)  = -sum_i eps_i R(x,e_i,y,e_i)
  (B . A)(y_1,...) = -sum_m A(..., B y_m, ...)          for skew B
  R*A       = -sum_i sum_j eps_j (R_{x_i,e_j} . A)(..., e_j at i, ...)
With these, sum_j eps_j R_{x,e_j}e_j = Ric x, and the star action on a
1-form is alpha o Ric.  Term i of R*A is one signed trace (``_slot_trace``)
of the rotation D[a, b, ...] = (R_{e_a,e_b} . A)(...) of ``pair_derivation``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spaces import (
    Space,
    SymBiform,
    Tensor,
    _gather,
    _group_sum,
    _in_blocks,
    _norm,
    _normal_draws,
    _orbit_plan,
    _orbit_sums,
    _rel,
    _scalar_trace,
    _tail,
    _trace,
    metric_trace,
)
from .subspace import PackedRows, image, packing
from .young import _young, hook_content_dim, is_member_Ck, tableau_sum

__all__ = [
    "RicciData",
    "ricci",
    "kn_pair",
    "kulkarni",
    "decompose",
    "Decomposition",
    "skew_action",
    "star_action",
    "pair_derivation",
    "star_identity_residuals",
    "ricci_of_star",
    "divergence",
    "ricci_derivative",
    "exterior_ricci_derivative",
    "jacobi_form",
    "is_member_Nk",
    "nk_basis",
    "random_nk",
    "one_form_star_factor",
]


@dataclass(frozen=True)
class RicciData:
    """Ricci form and scalar curvature of an algebraic curvature tensor."""

    ric: Tensor
    scalar: float


def _ric(R: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Ricci contraction of the curvature slots on the last four axes of R.

    The signed trace runs over curvature slots 2 and 4, and any derivative
    or batch axes in front ride along: on R it gives ric, on a first
    derivative dR the Ricci derivative grad ric (``ricci_derivative``), and
    on a second derivative d2R the second Ricci derivative
    ``hess_ric[a, b, u, v]`` (``jets.jet_traces``).
    """
    return -1.0 * _trace(R, -3, -1, eps)


def _trace_free_ric(R: np.ndarray, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The trace-free Ricci form ric - (s/n) g and the scalar curvature s of each R."""
    ric = _ric(R, eps)
    s = _scalar_trace(ric, eps)
    return ric - np.diag(eps) * (s / len(eps))[..., None, None], s


def ricci(R: Tensor) -> RicciData:
    if R.valence != 4:
        raise ValueError("ricci needs a valence-4 tensor")
    ric = _ric(R.data, R.space.eps)
    return RicciData(Tensor(R.space, ric), float(_scalar_trace(ric, R.space.eps)))


def kn_pair(a: Tensor, b: Tensor) -> Tensor:
    """Kulkarni-Nomizu product of two symmetric bilinear forms."""
    if a.valence != 2 or b.valence != 2:
        raise ValueError("kn_pair needs two valence-2 tensors")
    if a.space != b.space:
        raise ValueError("mismatched spaces")
    return Tensor(a.space, _kulkarni(np.multiply.outer(a.data, b.data), 2))


@lru_cache(maxsize=None)
def _kn_metric(space: Space) -> np.ndarray:
    """g owedge g of the space, ``kn_pair(g, g)``, as a read-only array."""
    g = space.metric_tensor()
    out = kn_pair(g, g).data
    out.flags.writeable = False
    return out


def kulkarni(h: SymBiform) -> Tensor:
    """Generalized Kulkarni-Nomizu product of a degree-m SymBiform (m >= 2).

    The last two symmetric slots and the bilinear pair are interleaved into
    four curvature slots; the remaining m-2 symmetric slots stay in front.
    The image always satisfies the curvature symmetries (and the differential
    Bianchi identity when leading symmetric slots are present).
    """
    if h.m < 2:
        raise ValueError("kulkarni needs degree m >= 2")
    return Tensor(h.space, _kulkarni(h.tensor.data, h.m))


def _kulkarni(d: np.ndarray, m: int) -> np.ndarray:
    """``kulkarni`` of each degree-m SymBiform tensor on the last m + 2 axes of d."""
    k = m - 2

    # input layout (y_1..y_k, u, v, p, q) -> terms h(y.., x_a, x_b; x_c, x_d)
    def term(qa, qb, qc, qd):
        # out axis k+lab-1 reads the input axis holding x_lab
        full = list(range(k)) + [0, 0, 0, 0]
        for in_off, lab in enumerate((qa, qb, qc, qd)):
            full[k + lab - 1] = k + in_off
        return _tail(d, full)

    return term(1, 3, 2, 4) + term(2, 4, 1, 3) - term(1, 4, 2, 3) - term(2, 3, 1, 4)


@dataclass(frozen=True)
class Decomposition:
    scalar_part: Tensor
    ricci_part: Tensor
    weyl_part: Tensor


def decompose(R: Tensor) -> Decomposition:
    """Orthogonal split of an algebraic curvature tensor into scalar, trace-free
    Ricci, and totally trace-free (Weyl) parts.

    Normalized so that R = g KN g has scalar_part = R.
    """
    sp = R.space
    return Decomposition(*(Tensor(sp, part) for part in _decompose(R.data, sp)))


def _decompose(R: np.ndarray, sp: Space) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar, trace-free Ricci and Weyl parts of each curvature tensor on the last four axes."""
    n = sp.dim
    if n < 3:
        raise NotImplementedError("decompose needs dim >= 3")
    g = sp.metric_matrix()
    ric0, s = _trace_free_ric(R, sp.eps)
    scalar_part = (-s / (2.0 * n * (n - 1)))[..., None, None, None, None] * _kn_metric(sp)
    ricci_part = _kulkarni(g[:, :, None, None] * ric0[..., None, None, :, :], 2) * (-1.0 / (n - 2))
    return scalar_part, ricci_part, R - scalar_part - ricci_part


@lru_cache(maxsize=None)
def _slot_plan(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Gather tables for every slot of a tensor of this shape.

    Row s of ``moved`` gathers the raveled tensor with slot s moved to the
    back, behind the remaining slots.  Row s of ``back`` holds, for each
    raveled entry of the tensor, its row in the stack of every slot's moved
    layout.
    """
    size = math.prod(shape)
    flat = np.arange(size).reshape(shape)
    moved = np.array(
        [np.moveaxis(flat, s, -1).ravel() for s in range(len(shape))], dtype=np.intp
    ).reshape(-1, size)
    back = np.argsort(moved, axis=1) + size * np.arange(len(moved))[:, None]
    moved.flags.writeable = back.flags.writeable = False
    return moved, back


def _slot_sum(M: np.ndarray, a: np.ndarray, batch: int = 0) -> np.ndarray:
    """Sum over every slot of a of the endomorphism M applied in that slot.

    M has shape batch + lead + (n, n): its last axis contracts the slot and
    its second-to-last fills it.  The first ``batch`` axes of M and of a
    are batch axes (seeds): each tensor of a meets the operator of its own
    batch entry.  One gather stacks a copy of a per slot with the slot at
    the back, one stacked matrix product applies M to every copy (lead
    axes last), and one gather brings each product back to the slot order
    of a; the slots are added in order.  A batch axis is an outer axis of
    every step, so each tensor gets the same sums as alone; a large batch
    goes in blocks.  The result has shape batch + lead + tensor shape.
    """
    outer, lead, size = M.shape[:batch], M.shape[batch:-2], M.shape[-1]
    shape = a.shape[batch:]
    moved, back = _slot_plan(shape)
    count = math.prod(lead)
    rest = math.prod(shape) // size
    if batch:
        # an elementwise result can come out in another memory order in a batch;
        # in C order, every operator's matrix is laid out as a lone one is
        M = np.ascontiguousarray(M)
        product_bytes = 8 * len(moved) * math.prod(shape) * count
        blocks = _in_blocks(lambda M, a: _slot_sum(M, a, 1), (M, a), batch, product_bytes)
        if blocks is not None:
            return blocks
    copies = _gather(a.reshape(outer + (-1,)), moved).reshape(outer + (len(moved), rest, size))
    # Mt[c, (f, l)] = M[l, f, c]: the filled slot ahead of the lead axes
    Mt = _tail(M.reshape(outer + (count, size, size)), (2, 1, 0)).reshape(outer + (1, size, -1))
    terms = (copies @ Mt).reshape(outer + (len(moved) * rest * size, count))
    summed = np.take(terms, back, axis=batch).sum(axis=batch)
    # C order for the result, whose layout every later elementwise op inherits
    return np.ascontiguousarray(summed.swapaxes(-1, -2)).reshape(outer + lead + shape)


def skew_action(B: Tensor, A: Tensor, tol: float = 1e-8) -> Tensor:
    """Derivation action of a skew endomorphism: (B.A) = -sum_m A(.., B y_m, ..).

    -W, with W[b, a] = (B e_b)^a, is applied in every slot of A at once
    (``_slot_sum``).
    """
    if B.valence != 2:
        raise ValueError("skew_action needs a valence-2 form")
    if B.space != A.space:
        raise ValueError("mismatched spaces")
    if float(np.linalg.norm(B.data + B.data.T)) > tol * max(B.norm(), 1e-300):
        raise ValueError("form is not antisymmetric")
    W = B.data * A.space.eps[None, :]  # W[b,a] = eps_a B(e_b, e_a) = (B e_b)^a
    return Tensor(A.space, _slot_sum(-W, A.data))


def star_action(R: Tensor, A: Tensor) -> Tensor:
    """Curvature action R*A = -sum_i sum_j eps_j (R_{x_i,e_j}.A)(.., e_j at i, ..).

    The rotation D = ``pair_derivation(R, A)`` holds every (R_{e_a,e_b}.A);
    term i is the signed trace of D over its second plane slot b and slot i
    of A, with the first plane slot a put in slot i (``_slot_trace``), and
    the terms are added in slot order.  A 1-form maps to alpha o Ric, and a
    scalar to zero.
    """
    if R.valence != 4:
        raise ValueError("star_action needs a valence-4 curvature tensor")
    if R.space != A.space:
        raise ValueError("mismatched spaces")
    return Tensor(A.space, _star(R.data, A.data, R.space.eps))


def _rotate(R: np.ndarray, T: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """``pair_derivation`` of each curvature tensor on the last four axes of R on its batch's T."""
    # K[a,b,u,c] = (R_{e_a,e_b} e_u)^c
    return _slot_sum(-(R * eps), T, R.ndim - 4)


def pair_derivation(R: Tensor, T: Tensor) -> np.ndarray:
    """D[a, b, ...] = (R_{e_a, e_b} . T)(...), batched over all plane pairs.

    The endomorphisms R_{e_a,e_b} ride along as the leading axes (a, b) of the
    stacked matrix product of ``_slot_sum`` over the slots of T.
    """
    if R.valence != 4:
        raise ValueError("pair_derivation needs a valence-4 curvature tensor")
    if R.space != T.space:
        raise ValueError("mismatched spaces")
    return _rotate(R.data, T.data, R.space.eps)


def _slot_trace(D: np.ndarray, eps: np.ndarray, i: int, valence: int) -> np.ndarray:
    """sum_j eps_j D[.., a, j, .., j at slot i, ..] with a put in slot i, for D of shape
    lead + (n, n) + the shape of a valence-v tensor: term i of R*A, if D is its rotation."""
    slots = "cdefghijkl"[:valence]
    return np.einsum(f"...ab{slots[:i]}b{slots[i + 1:]},b->...{slots[:i]}a{slots[i + 1:]}", D, eps)


def _star_of(D: np.ndarray, eps: np.ndarray, valence: int) -> np.ndarray:
    """R*A from the rotation D = ``_rotate(R, A)`` of a valence-v A (leading axes ride along)."""
    lead = D.ndim - 2 - valence
    out = np.zeros(D.shape[:lead] + D.shape[lead + 2 :])
    for i in range(valence):
        out -= _slot_trace(D, eps, i, valence)
    return out


def _star(R: np.ndarray, A: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """R*A for each curvature tensor on the last four axes of R and the A of its batch entry."""
    return _star_of(_rotate(R, A, eps), eps, A.ndim - (R.ndim - 4))


def _pair_trace(six: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Trace of a rotation 6-tensor in (second plane slot, slot 1): the first term of R*A."""
    return _slot_trace(six, eps, 0, 4)


def _ricci_rotation_sum(Rp: np.ndarray, ric: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """The signed four-term sum of rotations of ric by the planes of R'.

    (R'_{x2,x4}.ric)(x1,x3) - (R'_{x2,x3}.ric)(x1,x4)
    + (R'_{x1,x3}.ric)(x2,x4) - (R'_{x1,x4}.ric)(x2,x3)
    """
    Gp = _rotate(Rp, ric, eps)
    return (
        _tail(Gp, (2, 0, 3, 1))
        - _tail(Gp, (2, 0, 1, 3))
        + _tail(Gp, (0, 2, 1, 3))
        - _tail(Gp, (0, 2, 3, 1))
    )


def star_identity_residuals(R: Tensor, Rp: Tensor, seed: int = 0) -> dict[str, float]:
    """Relative residuals of the four trace/expansion identities of the star action.

    Keys: six_term (alternating derivation/rotation expansion), jacobi
    (sampled Jacobi-diagonal expansion), ricci_trace, scalar_trace.

    The six-term expansion and R*R' agree through their curvature-tensor
    component only (equivalently: on the Jacobi diagonal, which determines
    that component), so the expansion is projected before comparing.  The
    rotation terms are killed by the projection; the derivation terms are
    not.  Raw 4-tensor equality fails by O(1).  The 8 Jacobi samples (x, y)
    are drawn in turn from ``default_rng(seed)``.
    """
    (xy,) = _normal_draws(seed, (8, 2, R.space.dim))
    res = _star_residuals(R.data, Rp.data, R.space.eps, xy)
    return {key: float(v) for key, v in res.items()}


def _star_residuals(
    R: np.ndarray, Rp: np.ndarray, eps: np.ndarray, xy: np.ndarray
) -> dict[str, np.ndarray]:
    """``star_identity_residuals`` of each pair (R, R') of a batch, with its samples xy."""
    batch = R.ndim - 4
    D = _rotate(R, Rp, eps)
    SS = _star_of(D, eps, 4)
    T1 = _pair_trace(D, eps)  # trace of (R_{ab} . R')
    T2 = _tail(T1, (1, 0, 2, 3))
    rhs = -(2.0 * T1 - 2.0 * T2) - _ricci_rotation_sum(Rp, _ric(R, eps), eps)
    proj = _young(rhs, 0, batch) / 12.0
    scale = np.maximum(_norm(SS, batch), 1.0)
    res = {"six_term": _norm(proj - SS, batch) / scale}
    # Jacobi diagonal: R*R'(x,y,x,y) doubles the derivation terms alone
    x, y = xy[..., 0, :], xy[..., 1, :]
    form = "...abcd,...ta,...tb,...tc,...td->...t"
    lhs_val = np.einsum(form, SS, x, y, x, y)
    rhs_val = -2.0 * (np.einsum(form, T1, x, y, x, y) + np.einsum(form, T1, y, x, y, x))
    den = np.maximum(np.maximum(np.abs(lhs_val), np.abs(rhs_val)), scale[..., None])
    res["jacobi"] = np.max(np.abs(lhs_val - rhs_val) / den, axis=-1)
    st = _star(R, _ric(Rp, eps), eps)
    res["ricci_trace"] = _ricci_of_star(SS, st, eps, batch)[2]
    res["scalar_trace"] = np.abs(_scalar_trace(st, eps)) / np.maximum(_norm(st, batch), 1.0)
    return res


def _ricci_of_star(SS: np.ndarray, st: np.ndarray, eps: np.ndarray, lead: int = 0):
    """``ricci_of_star`` of each pair after ``lead`` axes, from R*R' and R*ric'."""
    lhs = _trace(SS, -3, -1, eps)
    rhs = -1.0 * st
    return lhs, rhs, _rel(lhs, rhs, lead)


def ricci_of_star(R: Tensor, Rp: Tensor) -> tuple[Tensor, Tensor, float]:
    """Both sides of the trace identity sum_i (R*R')(x,e_i,y,e_i) = -(R*ric')(x,y).

    Returns (lhs, rhs, relative difference).
    """
    SS, st = star_action(R, Rp), star_action(R, ricci(Rp).ric)
    lhs, rhs, gap = _ricci_of_star(SS.data, st.data, R.space.eps)
    return Tensor(R.space, lhs), Tensor(R.space, rhs), gap


def divergence(dR: Tensor, tol: float = 1e-8) -> Tensor:
    """delta R(x; y, z) = -sum_a eps_a grad_{e_a} R(e_a, x, y, z)."""
    if dR.valence != 5:
        raise ValueError("divergence needs a valence-5 tensor")
    if not is_member_Ck(dR, 1, tol):
        raise ValueError("input does not satisfy the first-derivative symmetries")
    return -1.0 * metric_trace(dR, 1, 2)


def ricci_derivative(dR: Tensor) -> Tensor:
    """grad ric as a valence-3 tensor (a; x, y) from a first derivative of R."""
    if dR.valence != 5:
        raise ValueError("needs a valence-5 tensor")
    return Tensor(dR.space, _ric(dR.data, dR.space.eps))


def exterior_ricci_derivative(dR: Tensor) -> Tensor:
    """d ric(x,y,z) = grad_x ric(y,z) - grad_y ric(x,z)."""
    dr = ricci_derivative(dR).data
    return Tensor(dR.space, dr - np.transpose(dr, (1, 0, 2)))


def jacobi_form(T: Tensor) -> SymBiform:
    """Degree-2 SymBiform h(u,v;x,y) from the slot pattern T(x,u,v,y)."""
    if T.valence != 4:
        raise ValueError("jacobi_form needs a valence-4 tensor")
    return SymBiform(T.space, 2, Tensor(T.space, _jacobi_layout(T.data)))


def _jacobi_layout(t: np.ndarray, k: int = 0) -> np.ndarray:
    """Each k-th curvature derivative after any leading axes in Jacobi order.

    The k derivative slots and curvature slots 2, 3 come first (they are
    symmetrized together), then curvature slots 1, 4 (the bilinear pair).
    """
    return _tail(t, tuple(range(k)) + (k + 1, k + 2, k, k + 3))


def _nk_residual(t: np.ndarray, m: int) -> np.ndarray:
    """|Symmetrization over the first m+1 slots| / max(|t|, 1e-300), each tensor of the batch t."""
    sym = _group_sum(t, [range(m + 1)], lead=1) / math.factorial(m + 1)
    return _norm(sym, 1) / np.maximum(_norm(t, 1), 1e-300)


def is_member_Nk(h: SymBiform, tol: float = 1e-8) -> bool:
    """Test the defining property: symmetrization over the first m+1 slots vanishes."""
    return bool(_nk_residual(h.tensor.data[None], h.m)[0] <= tol)


def _nk_images(batch: np.ndarray, m: int) -> np.ndarray:
    """P A P of each tensor of a batch (axis 0) in the packed coordinates of Sym^m (x) Sym^2.

    A antisymmetrizes the columns (1, m+1), (2, m+2) after the rows are
    summed (``tableau_sum``); the outer row symmetrizer P is read off its
    orbit sums at the packed representatives, which are the canonical
    entries of their orbits: bit for bit ``pack`` of the full image.
    """
    n = batch.shape[-1]
    sym, bi = tuple(range(m)), (m, m + 1)
    pk = packing(n, (("sym", m), ("sym", 2)))
    ids, weight = _orbit_plan(n, m + 2, (sym, bi))
    sums = _orbit_sums(tableau_sum(batch, sym, bi, lead=1), ids)
    return sums[:, pk.rep] * weight[pk.rep] * pk.weight


@lru_cache(maxsize=None)
def _nk_stack(n: int, m: int) -> PackedRows:
    """Orthonormal basis of N_m in packed coordinates; N_m uses no metric, so n keys it."""
    if m < 2:
        raise ValueError(f"N_m needs degree m >= 2, got {m}")
    # each row passes is_member_Nk: unpacked rows are exactly symmetric in
    # slots 1..m and m+1, m+2, so the SymBiform averaging that is_member_Nk
    # reads them through would leave them as they are
    return image(
        lambda batch: _nk_images(batch, m),
        packing(n, (("sym", m), ("sym", 2))),
        hook_content_dim(n, m - 2),
        lambda stack: _nk_residual(stack, m),
        1e-8,
    )


def nk_basis(space: Space, m: int) -> list[SymBiform]:
    """Orthonormal basis of N_m, the degree-m SymBiforms killed by
    symmetrization over the first m+1 slots (m >= 2).

    N_m is the image of P A P, the Young symmetrizer of shape (m, 2) with
    rows {1..m}, {m+1, m+2} enclosed in the row symmetrizer P.  It is
    sampled on dim + 8 seeded Gaussian tensors and its SVD runs in the
    packed coordinates of Sym^m (x) Sym^2; the numerical rank must equal
    the hook-content dimension of C_{m-2}, or RuntimeError is raised, and
    every vector is checked with is_member_Nk.  The basis is cached packed
    per (n, m) for every signature and is identical on every run.
    """
    return [
        SymBiform(space, m, Tensor(space, b)) for b in _nk_stack(space.dim, m).unpacked()
    ]


def random_nk(space: Space, m: int, seed: int) -> SymBiform:
    basis = _nk_stack(space.dim, m)
    (coeff,) = _normal_draws(seed, len(basis))
    return SymBiform(space, m, Tensor(space, basis.combine(coeff)))


def one_form_star_factor(space: Space) -> dict:
    """Measured star-action factor on 1-forms for both unit-curvature candidates.

    For R = c * (g KN g) the action on a 1-form is multiplication by
    -2c(n-1); the report records both c = +-1/2 against the target factor n.
    """
    n = space.dim
    g = space.metric_tensor()
    gg = kn_pair(g, g)
    out: dict = {"target_factor": float(n)}
    match = None
    for name, c in (("minus_half_kn", -0.5), ("plus_half_kn", 0.5)):
        R = c * gg
        factors = []
        for a in range(n):
            alpha = np.zeros(n)
            alpha[a] = 1.0
            res = star_action(R, Tensor(space, alpha))
            factors.append(res.data[a] / 1.0)
        fac = float(np.mean(factors))
        out[name] = fac
        if abs(fac - n) < 1e-9:
            match = name
    out["match"] = match
    return out
