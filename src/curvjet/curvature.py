"""Curvature algebra: Ricci traces, Kulkarni products, and curvature actions.

Sign conventions in force throughout the package:
  ric(x,y)  = -sum_i eps_i R(x,e_i,y,e_i)
  (B . A)(y_1,...) = -sum_m A(..., B y_m, ...)          for skew B
  R*A       = -sum_i sum_j eps_j (R_{x_i,e_j} . A)(..., e_j at i, ...)
With these, sum_j eps_j R_{x,e_j}e_j = Ric x, and the star action on a
1-form is alpha o Ric.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spaces import Space, SymBiform, Tensor, _group_sum, metric_trace
from .subspace import PackedRows, image, packing
from .young import hook_content_dim, is_member_Ck, tableau_sum, young_apply

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


def ricci(R: Tensor) -> RicciData:
    if R.valence != 4:
        raise ValueError("ricci needs a valence-4 tensor")
    ric = -1.0 * metric_trace(R, 2, 4)
    scalar = float(metric_trace(ric, 1, 2).data)
    return RicciData(ric, scalar)


def kn_pair(a: Tensor, b: Tensor) -> Tensor:
    """Kulkarni-Nomizu product of two symmetric bilinear forms."""
    if a.valence != 2 or b.valence != 2:
        raise ValueError("kn_pair needs two valence-2 tensors")
    A, B = a.data, b.data
    out = (
        np.einsum("ac,bd->abcd", A, B)
        + np.einsum("bd,ac->abcd", A, B)
        - np.einsum("ad,bc->abcd", A, B)
        - np.einsum("bc,ad->abcd", A, B)
    )
    return Tensor(a.space, out)


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
    k = h.m - 2
    d = h.tensor.data
    # input layout (y_1..y_k, u, v, p, q) -> terms h(y.., x_a, x_b; x_c, x_d)
    def term(qa, qb, qc, qd):
        # out axis k+lab-1 reads the input axis holding x_lab
        full = list(range(k)) + [0, 0, 0, 0]
        for in_off, lab in enumerate((qa, qb, qc, qd)):
            full[k + lab - 1] = k + in_off
        return np.transpose(d, axes=full)

    out = term(1, 3, 2, 4) + term(2, 4, 1, 3) - term(1, 4, 2, 3) - term(2, 3, 1, 4)
    return Tensor(h.space, out)


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
    n = sp.dim
    if n < 3:
        raise NotImplementedError("decompose needs dim >= 3")
    rd = ricci(R)
    g = sp.metric_tensor()
    s = rd.scalar
    ric0 = rd.ric - (s / n) * g
    scalar_part = Tensor(sp, (-s / (2.0 * n * (n - 1))) * _kn_metric(sp))
    ricci_part = (-1.0 / (n - 2)) * kn_pair(g, ric0)
    weyl_part = R - scalar_part - ricci_part
    return Decomposition(scalar_part, ricci_part, weyl_part)


@lru_cache(maxsize=None)
def _slot_plan(shape: tuple[int, ...], width: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather tables for every group of ``width`` slots of a tensor of this shape.

    Groups come in lexicographic order.  Row g of ``moved`` gathers the
    raveled tensor with group g moved to the back, in its own order, behind
    the remaining slots.  Row g of ``back`` holds, for each raveled entry of
    the tensor, its row in the stack of every group's moved layout.
    """
    v, size = len(shape), math.prod(shape)
    flat = np.arange(size).reshape(shape)
    moved = np.array(
        [
            flat.transpose(tuple(s for s in range(v) if s not in group) + group).ravel()
            for group in itertools.combinations(range(v), width)
        ],
        dtype=np.intp,
    ).reshape(-1, size)
    back = np.argsort(moved, axis=1) + size * np.arange(len(moved))[:, None]
    moved.flags.writeable = back.flags.writeable = False
    return moved, back


def _slot_sum(M: np.ndarray, a: np.ndarray, width: int) -> np.ndarray:
    """Sum over every group of ``width`` slots of a of M applied in those slots.

    M has shape lead + (n**width, n**width): its last axis contracts the
    group's slots (row-major) and its second-to-last fills them.  One gather
    stacks a copy of a per group with the group at the back, one stacked
    matrix product applies M to every copy (lead axes last), and one gather
    brings each product back to the slot order of a; the groups are added
    in lexicographic order.  The result has shape lead + a.shape.
    """
    lead, size = M.shape[:-2], M.shape[-1]
    moved, back = _slot_plan(a.shape, width)
    copies = a.ravel()[moved].reshape(len(moved), a.size // size, size)
    # Mt[c, (f, l)] = M[l, f, c]: the filled slots ahead of the lead axes
    Mt = M.reshape(-1, size, size).transpose(2, 1, 0).reshape(size, -1)
    terms = (copies @ Mt).reshape(-1, math.prod(lead))
    # C order for the result, whose layout every later elementwise op inherits
    return np.ascontiguousarray(np.take(terms, back, axis=0).sum(axis=0).T).reshape(lead + a.shape)


def skew_action(B: Tensor, A: Tensor, tol: float = 1e-8) -> Tensor:
    """Derivation action of a skew endomorphism: (B.A) = -sum_m A(.., B y_m, ..).

    -W, with W[b, a] = (B e_b)^a, is applied in every slot of A at once
    (``_slot_sum``).
    """
    if B.valence != 2:
        raise ValueError("skew_action needs a valence-2 form")
    if float(np.linalg.norm(B.data + B.data.T)) > tol * max(B.norm(), 1e-300):
        raise ValueError("form is not antisymmetric")
    W = B.data * A.space.eps[None, :]  # W[b,a] = eps_a B(e_b, e_a) = (B e_b)^a
    return Tensor(A.space, _slot_sum(-W, A.data, 1))


def _pair_kernel(R: Tensor) -> np.ndarray:
    """K = M + M^T with M[a,d,j,c] = eps_j eps_c R[a,j,d,c] and M^T = M[d,a,c,j].

    Contracting A's slots (j, c) against M yields the ordered-pair term
    sum_j eps_j A(.., e_j, .., R_{x_a, e_j} x_d, ..); K adds the term of the
    swapped pair, so one contraction covers an unordered slot pair.
    """
    eps = R.space.eps
    M = R.data.transpose(0, 2, 1, 3) * np.multiply.outer(eps, eps)
    return M + M.transpose(1, 0, 3, 2)


def _ric_endo(R: Tensor) -> np.ndarray:
    """E[a,b] = (Ric e_a)^b."""
    rd = ricci(R)
    return rd.ric.data * R.space.eps[None, :]


def star_action(R: Tensor, A: Tensor) -> Tensor:
    """Curvature action R*A = -sum_i sum_j eps_j (R_{x_i,e_j}.A)(.., e_j at i, ..).

    Expanded form: the Ricci endomorphism applied in each slot, plus the
    rotation term of each ordered slot pair (i, m), i != m,

        einsum("..q..r..,adqr->..a..d..", A, M)   with q, a at slot i and r, d at m,

    M as in _pair_kernel.  The terms of (i, m) and (m, i) are summed as one
    contraction against K = M + M^T per unordered pair.  ``_slot_sum`` applies
    the Ricci endomorphism in every slot, and K in every unordered pair
    i < m, each as one gather, one stacked matrix product and one gather
    back; the Ricci terms are added first.  A 1-form maps to alpha o Ric.
    """
    if R.valence != 4:
        raise ValueError("star_action needs a valence-4 curvature tensor")
    if R.space != A.space:
        raise ValueError("mismatched spaces")
    n = A.space.dim
    ric_terms = _slot_sum(_ric_endo(R), A.data, 1)
    return Tensor(A.space, ric_terms + _slot_sum(_pair_kernel(R).reshape(n * n, n * n), A.data, 2))


def pair_derivation(R: Tensor, T: Tensor) -> np.ndarray:
    """D[a, b, ...] = (R_{e_a, e_b} . T)(...), batched over all plane pairs.

    The endomorphisms R_{e_a,e_b} ride along as the leading axes (a, b) of the
    stacked matrix product of ``_slot_sum`` over the slots of T.
    """
    if R.valence != 4:
        raise ValueError("pair_derivation needs a valence-4 curvature tensor")
    K = R.data * R.space.eps  # K[a,b,u,c] = (R_{e_a,e_b} e_u)^c
    return _slot_sum(-K, T.data, 1)


def _pair_trace(six: np.ndarray, eps: np.ndarray) -> np.ndarray:
    # trace of a rotation-action 6-tensor in (second rotation slot, slot 1)
    return np.einsum("aiiqrs,i->aqrs", six, eps)


def _ricci_rotation_sum(Rp: Tensor, ric: Tensor) -> np.ndarray:
    """The signed four-term sum of rotations of ric by the planes of R'.

    (R'_{x2,x4}.ric)(x1,x3) - (R'_{x2,x3}.ric)(x1,x4)
    + (R'_{x1,x3}.ric)(x2,x4) - (R'_{x1,x4}.ric)(x2,x3)
    """
    Gp = pair_derivation(Rp, ric)
    return (
        np.transpose(Gp, (2, 0, 3, 1))
        - np.transpose(Gp, (2, 0, 1, 3))
        + np.transpose(Gp, (0, 2, 1, 3))
        - np.transpose(Gp, (0, 2, 3, 1))
    )


def star_identity_residuals(R: Tensor, Rp: Tensor, seed: int = 0) -> dict[str, float]:
    """Relative residuals of the four trace/expansion identities of the star action.

    Keys: six_term (alternating derivation/rotation expansion), jacobi
    (sampled Jacobi-diagonal expansion), ricci_trace, scalar_trace.

    The six-term expansion and R*R' agree through their curvature-tensor
    component only (equivalently: on the Jacobi diagonal, which determines
    that component), so the expansion is projected before comparing.  The
    rotation terms are killed by the projection; the derivation terms are
    not.  Raw 4-tensor equality fails by O(1).
    """
    sp = R.space
    SS = star_action(R, Rp)
    Dp = pair_derivation(R, Rp)  # (R_{ab} . R')
    T1 = _pair_trace(Dp, sp.eps)
    T2 = np.transpose(T1, (1, 0, 2, 3))
    rhs = -(2.0 * T1 - 2.0 * T2) - _ricci_rotation_sum(Rp, ricci(R).ric)
    proj = young_apply(Tensor(sp, rhs), 0).data / 12.0
    scale = max(np.linalg.norm(SS.data), 1.0)
    res: dict[str, float] = {}
    res["six_term"] = float(np.linalg.norm(proj - SS.data)) / scale
    # Jacobi diagonal: R*R'(x,y,x,y) doubles the derivation terms alone; the
    # 8 samples (x, y) are drawn in turn from one stream
    xy = np.random.default_rng(seed).standard_normal((8, 2, sp.dim))
    x, y = xy[:, 0], xy[:, 1]
    lhs_val = np.einsum("abcd,ta,tb,tc,td->t", SS.data, x, y, x, y)
    rhs_val = -2.0 * (
        np.einsum("aqrs,ta,tq,tr,ts->t", T1, x, y, x, y)
        + np.einsum("aqrs,ta,tq,tr,ts->t", T1, y, x, y, x)
    )
    den = np.maximum(np.maximum(np.abs(lhs_val), np.abs(rhs_val)), scale)
    res["jacobi"] = float(np.max(np.abs(lhs_val - rhs_val) / den))
    st = star_action(R, ricci(Rp).ric)
    res["ricci_trace"] = _ricci_of_star_gap(SS, st)[2]
    res["scalar_trace"] = abs(float(metric_trace(st, 1, 2).data)) / max(
        np.linalg.norm(st.data), 1.0
    )
    return res


def _ricci_of_star_gap(star: Tensor, star_ric: Tensor) -> tuple[Tensor, Tensor, float]:
    """``ricci_of_star`` from R*R' and R*ric'."""
    lhs = metric_trace(star, 2, 4)
    rhs = -1.0 * star_ric
    scale = max(lhs.norm(), rhs.norm(), 1.0)
    return lhs, rhs, (lhs - rhs).norm() / scale


def ricci_of_star(R: Tensor, Rp: Tensor) -> tuple[Tensor, Tensor, float]:
    """Both sides of the trace identity sum_i (R*R')(x,e_i,y,e_i) = -(R*ric')(x,y).

    Returns (lhs, rhs, relative difference).
    """
    return _ricci_of_star_gap(star_action(R, Rp), star_action(R, ricci(Rp).ric))


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
    return -1.0 * metric_trace(dR, 3, 5)


def exterior_ricci_derivative(dR: Tensor) -> Tensor:
    """d ric(x,y,z) = grad_x ric(y,z) - grad_y ric(x,z)."""
    dr = ricci_derivative(dR).data
    return Tensor(dR.space, dr - np.transpose(dr, (1, 0, 2)))


def jacobi_form(T: Tensor) -> SymBiform:
    """Degree-2 SymBiform h(u,v;x,y) from the slot pattern T(x,u,v,y)."""
    if T.valence != 4:
        raise ValueError("jacobi_form needs a valence-4 tensor")
    arranged = np.transpose(T.data, axes=(1, 2, 0, 3))
    return SymBiform(T.space, 2, Tensor(T.space, arranged))


def _nk_defects(t: np.ndarray, m: int) -> np.ndarray:
    """Norm of the symmetrization over the first m+1 slots of each tensor in the batch t."""
    sym = _group_sum(t, [range(m + 1)], lead=1) / math.factorial(m + 1)
    return np.linalg.norm(sym.reshape(len(t), -1), axis=1)


def is_member_Nk(h: SymBiform, tol: float = 1e-8) -> bool:
    """Test the defining property: symmetrization over the first m+1 slots vanishes."""
    t = h.tensor
    return bool(_nk_defects(t.data[None], h.m)[0] <= tol * max(t.norm(), 1e-300))


@lru_cache(maxsize=None)
def _nk_stack(n: int, m: int) -> PackedRows:
    """Orthonormal basis of N_m in packed coordinates; N_m uses no metric, so n keys it."""
    if m < 2:
        raise ValueError(f"N_m needs degree m >= 2, got {m}")
    sym, bi = tuple(range(m)), (m, m + 1)

    def project(batch: np.ndarray) -> np.ndarray:
        # P A P over the leading sample axis: P symmetrizes slots 1..m and
        # slots m+1, m+2, A antisymmetrizes the columns (1, m+1), (2, m+2)
        return _group_sum(tableau_sum(batch, sym, bi, lead=1), (sym, bi), lead=1)

    basis = image(
        project, packing(n, (("sym", m), ("sym", 2))), hook_content_dim(n, m - 2)
    )
    # is_member_Nk on a chunk of vectors at once; unpacked rows are exactly
    # symmetric in slots 1..m and m+1, m+2, so the SymBiform averaging that
    # is_member_Nk reads them through would leave them as they are
    for stack in basis.unpacked_chunks():
        scale = np.maximum(np.linalg.norm(stack.reshape(len(stack), -1), axis=1), 1e-300)
        if not np.all(_nk_defects(stack, m) <= 1e-8 * scale):
            raise RuntimeError("projected N_m basis vector fails the membership check")
    return basis


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
    coeff = np.random.default_rng(seed).standard_normal(len(basis))
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
