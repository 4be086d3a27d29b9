"""Dense tensor arithmetic over a finite-dimensional pseudo-euclidean space.

Tensors are stored as dense numpy arrays of shape (n,)*valence, row-major
with slot 1 slowest.  All slot arguments in the public API are 1-based.
Metric traces carry the signature signs, so the Euclidean case reduces to
plain orthonormal-basis sums.  The module also holds the run-scoped memo
(``run_scope``, ``memoized``) through which one check run shares its seeded
inputs, and owns the ``dim``/``signature`` header of every document, which
``space_to_dict`` alone writes and ``space_from_dict`` alone parses.
"""

from __future__ import annotations

import functools
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .subspace import _per_chunk

__all__ = [
    "Space",
    "Tensor",
    "SymBiform",
    "permute",
    "symmetrize",
    "metric_trace",
    "sym_product",
    "tensor_product",
    "random_tensor",
    "tensor_to_dict",
    "tensor_from_dict",
    "space_to_dict",
    "space_from_dict",
]


@dataclass(frozen=True)
class Space:
    """A pseudo-euclidean vector space: dimension plus a diagonal ±1 signature."""

    dim: int
    signature: tuple[int, ...] = ()

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"dim must be >= 2, got {self.dim}")
        sig = self.signature or tuple([1] * self.dim)
        if len(sig) != self.dim or any(s not in (1, -1) for s in sig):
            raise ValueError(f"signature must be {self.dim} entries of +-1, got {sig}")
        object.__setattr__(self, "signature", tuple(int(s) for s in sig))

    @property
    def eps(self) -> np.ndarray:
        return np.array(self.signature, dtype=float)

    def metric_matrix(self) -> np.ndarray:
        return np.diag(self.eps)

    def metric_tensor(self) -> "Tensor":
        return Tensor(self, np.diag(self.eps))


@dataclass(frozen=True)
class Tensor:
    """A dense covariant tensor over a Space."""

    space: Space
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=float)
        n = self.space.dim
        if arr.shape != (n,) * arr.ndim:
            raise ValueError(f"data shape {arr.shape} is not ({n},)*valence")
        object.__setattr__(self, "data", arr)

    @property
    def valence(self) -> int:
        return self.data.ndim

    def norm(self) -> float:
        return float(_norm(self.data))

    def __add__(self, other: "Tensor") -> "Tensor":
        self._check_same(other)
        return Tensor(self.space, self.data + other.data)

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._check_same(other)
        return Tensor(self.space, self.data - other.data)

    def __mul__(self, c: float) -> "Tensor":
        return Tensor(self.space, self.data * float(c))

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return Tensor(self.space, -self.data)

    def _check_same(self, other: "Tensor"):
        if other.space != self.space or other.valence != self.valence:
            raise ValueError("tensors live on different spaces or valences")


class SymBiform:
    """Valence m+2 tensor, symmetric in the first m slots and in the last two.

    Symmetry is enforced on construction by averaging over each orbit of
    the two slot groups, so every entry of an orbit holds the same value.
    """

    def __init__(self, space: Space, m: int, tensor: Tensor):
        if m < 0 or tensor.valence != m + 2:
            raise ValueError(f"need valence m+2 = {m + 2}, got {tensor.valence}")
        self.space = space
        self.m = m
        self.tensor = Tensor(space, _sym_biform(tensor.data, m))

    @property
    def valence(self) -> int:
        return self.m + 2

    def norm(self) -> float:
        return self.tensor.norm()

    def __add__(self, other: "SymBiform") -> "SymBiform":
        if other.m != self.m:
            raise ValueError("degree mismatch")
        return SymBiform(self.space, self.m, self.tensor + other.tensor)

    def __sub__(self, other: "SymBiform") -> "SymBiform":
        if other.m != self.m:
            raise ValueError("degree mismatch")
        return SymBiform(self.space, self.m, self.tensor - other.tensor)

    def __mul__(self, c: float) -> "SymBiform":
        return SymBiform(self.space, self.m, self.tensor * c)

    __rmul__ = __mul__


def _sym_biform(data: np.ndarray, m: int, lead: int = 0) -> np.ndarray:
    """The ``SymBiform`` averaging of each degree-m tensor after ``lead`` axes.

    Both symmetrizations go in one orbit sum; groups of < 2 slots are trivial.
    """
    return _group_sum(data, (tuple(range(m)), (m, m + 1)), lead) / (2 * math.factorial(m))


def _check_slots(v: int, slots) -> list[int]:
    out = []
    for s in slots:
        if not (1 <= s <= v):
            raise ValueError(f"slot {s} out of range for valence {v}")
        out.append(int(s))
    if len(set(out)) != len(out):
        raise ValueError(f"repeated slot in {slots}")
    return out


def permute(t: Tensor, perm) -> Tensor:
    """Relabel slots: output(x_perm(1), ..., x_perm(v)) = input(x_1, ..., x_v)."""
    v = t.valence
    p = list(perm)
    if sorted(p) != list(range(1, v + 1)):
        raise ValueError(f"perm {perm} is not a permutation of 1..{v}")
    # out[j_1..j_v] = in[j_{p^-1(1)}, ...]; with numpy semantics this is
    # axes[q] = p(q+1) - 1.
    return Tensor(t.space, np.transpose(t.data, axes=[k - 1 for k in p]))


@functools.lru_cache(maxsize=None)
def _orbit_plan(
    n: int, valence: int, groups: tuple[tuple[int, ...], ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Orbit ids and weights of the permutations of disjoint axis groups.

    The orbit id of an entry is the flat index of its canonical entry, the
    multi-index with each group's indices sorted.  ``weight`` is zero off
    the canonical entries and prod(|group|!) / |orbit| on them: the number
    of group elements that map an entry of the orbit to any given one.
    """
    idx = np.indices((n,) * valence).reshape(valence, -1)
    for g in groups:
        idx[list(g)] = np.sort(idx[list(g)], axis=0)
    ids = np.ravel_multi_index(tuple(idx), (n,) * valence)
    size = math.prod(math.factorial(len(g)) for g in groups)
    counts = np.bincount(ids, minlength=len(ids))
    weight = np.divide(size, counts, out=np.zeros(len(ids)), where=counts > 0)
    ids.flags.writeable = weight.flags.writeable = False
    return ids, weight


def _orbit_sums(data: np.ndarray, ids: np.ndarray, bins: int | None = None) -> np.ndarray:
    """Plain orbit sums of each raveled tensor in data, batch axis first: (rows, bins).

    Entry i of a tensor goes to bin ids[i] (``bins`` defaults to len(ids));
    row r of a batch sums into its own bins, offset by r * bins, so one
    ``bincount`` sums every tensor, each in the same order as alone.  A
    lone tensor takes no offsets.  Each reader applies its own weights.
    """
    bins = len(ids) if bins is None else bins
    flat = data.reshape(-1, len(ids))
    rows = len(flat)
    if rows > 1:
        ids = (ids + bins * np.arange(rows)[:, None]).ravel()
    return np.bincount(ids, flat.ravel(), bins * rows).reshape(rows, bins)


def _group_sum(data: np.ndarray, groups, lead: int = 0) -> np.ndarray:
    """Unnormalized sum over all permutations of several disjoint axis groups.

    ``data`` holds tensors on its trailing axes after ``lead`` batch axes;
    each group lists 0-based axes of the tensor.  Every entry of an orbit
    receives the same value, (prod |group|!) / |orbit| times the orbit's
    sum: the weighted rows of ``_orbit_sums`` (one ``bincount``) gathered
    back at each entry's orbit id, in C order.
    """
    plan = tuple(tuple(int(a) for a in g) for g in groups)
    ids, weight = _orbit_plan(data.shape[-1], data.ndim - lead, plan)
    # a batch goes in blocks: each tensor takes its orbit ids, sums and gather
    blocks = _in_blocks(lambda d: _group_sum(d, plan, 1), (data,), lead, 8 * 3 * len(ids))
    if blocks is not None:
        return blocks
    return np.take(_orbit_sums(data, ids) * weight, ids, axis=-1).reshape(data.shape)


def symmetrize(t: Tensor, slots) -> Tensor:
    """Average over all permutations of the listed (1-based) slots.

    Each entry becomes the mean of its orbit (``_group_sum`` over one group).
    """
    sl = _check_slots(t.valence, slots)
    if not sl:
        raise ValueError("slots must be non-empty")
    summed = _group_sum(t.data, [[s - 1 for s in sl]])
    return Tensor(t.space, summed / math.factorial(len(sl)))


def metric_trace(t: Tensor, i: int, j: int) -> Tensor:
    """Signed contraction sum_a eps_a t(..., e_a, ..., e_a, ...) over slots i, j."""
    if t.valence < 2:
        raise ValueError("need valence >= 2 to trace")
    if i == j:
        raise ValueError("trace slots must differ")
    _check_slots(t.valence, (i, j))
    if t.valence == 2:
        return Tensor(t.space, _scalar_trace(t.data, t.space.eps))
    return Tensor(t.space, _trace(t.data, i - 1 - t.valence, j - 1 - t.valence, t.space.eps))


def _trace(data: np.ndarray, axis1: int, axis2: int, eps: np.ndarray) -> np.ndarray:
    """Signed trace over two axes counted from the end, so that leading axes ride along."""
    return np.diagonal(data, axis1=axis1, axis2=axis2) @ eps


def _scalar_trace(m: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Signed trace of each 2-tensor on the last two axes: one (1, n) @ (n, 1) dot product each.

    That is the 1-D product a lone 2-tensor's trace takes; a batch of
    diagonals times eps would be a matrix-vector product instead.
    """
    return (np.diagonal(m, axis1=-2, axis2=-1)[..., None, :] @ eps[:, None])[..., 0, 0]


def tensor_product(a: Tensor, b: Tensor) -> Tensor:
    if a.space != b.space:
        raise ValueError("mismatched spaces")
    return Tensor(a.space, np.multiply.outer(a.data, b.data))


def sym_product(a, b):
    """Symmetric product: on diagonals it multiplies the two polynomial values.

    Fully symmetric Tensor x Tensor gives the fully symmetrized outer product.
    SymBiform x symmetric Tensor (either order) symmetrizes over the combined
    leading slots and keeps the trailing bilinear pair, returning a SymBiform.
    """
    if isinstance(a, SymBiform) and isinstance(b, SymBiform):
        raise ValueError("product of two SymBiforms is not defined")
    if isinstance(b, SymBiform):
        a, b = b, a
    if isinstance(a, SymBiform):
        if a.space != b.space:
            raise ValueError("mismatched spaces")
        arranged = Tensor(a.space, _sym_product_layout(a.tensor.data, a.m, b.data))
        return SymBiform(a.space, a.m + b.valence, arranged)
    out = tensor_product(a, b)
    if out.valence > 1:
        out = symmetrize(out, tuple(range(1, out.valence + 1)))
    return out


def _sym_product_layout(form: np.ndarray, m: int, b: np.ndarray) -> np.ndarray:
    """The outer product of each degree-m form after any leading axes with b, before averaging.

    Laid out as ``sym_product`` takes it: the form's symmetric slots, b's
    slots, then the form's bilinear pair.
    """
    raw = form[(...,) + (None,) * b.ndim] * b
    return _tail(raw, tuple(range(m)) + tuple(range(m + 2, m + 2 + b.ndim)) + (m, m + 1))


def _tail(x: np.ndarray, axes) -> np.ndarray:
    """x with its trailing len(axes) axes permuted by ``axes``; leading axes stay in front."""
    lead = x.ndim - len(axes)
    if lead == 0:
        return x.transpose(axes)
    return x.transpose(tuple(range(lead)) + tuple(lead + a for a in axes))


def _gather(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``x[..., index]`` in C order.

    A lone 1-D x takes the plain fancy index; over leading axes ``take``
    does it, since a fancy index there is slower and puts those axes
    innermost in memory, where a later product would meet them strided.
    """
    return x[index] if x.ndim == 1 else x.take(index, axis=-1)


def _in_blocks(kernel, arrays, lead: int, item_bytes: int):
    """``kernel(*arrays)`` on blocks of the entries of their ``lead`` leading axes, or None.

    A block holds as many entries as keep ``item_bytes`` of temporaries per
    entry within ``subspace._CHUNK_BYTES`` (``_per_chunk``); None means one
    block would take them all, as with no leading axes, and the caller goes
    on.  The kernel gets one flattened leading axis and computes each entry
    as in one call, so the blocks give the same bits.
    """
    outer = arrays[0].shape[:lead]
    step = _per_chunk(max(item_bytes, 1))
    if math.prod(outer) <= step:
        return None
    flat = [x.reshape((-1,) + x.shape[lead:]) for x in arrays]
    parts = [kernel(*(x[i : i + step] for x in flat)) for i in range(0, len(flat[0]), step)]
    out = np.concatenate(parts)
    return out.reshape(outer + out.shape[1:])


def _norm(x: np.ndarray, lead: int = 0) -> np.ndarray:
    """Frobenius norm of each tensor of x after its ``lead`` batch axes, shape ``x.shape[:lead]``.

    Each is one dot product of the C-order entries, contiguous (``_dot``):
    the sum that ``np.linalg.norm`` of the raveled tensor takes, to the bit,
    for any batch (a pairwise ``sum``, an ``einsum`` or a strided dot would
    not be).
    """
    # a batch spells out its trailing size: -1 cannot be inferred on an empty one
    size = math.prod(x.shape[lead:]) if lead else -1
    flat = np.ascontiguousarray(x).reshape(x.shape[:lead] + (size,))
    return np.sqrt(_dot(flat, flat))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each pair of vectors on the last axes of a and b.

    A lone pair takes ``dot`` (a 1-D ``@`` costs more); a batch takes one
    (1, d) @ (d, 1) product per pair, which sums in the same order.
    """
    return a.dot(b) if a.ndim == 1 else (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _rel(a: np.ndarray, b: np.ndarray, lead: int = 0):
    """Relative gap |a - b| / max(|a|, |b|, 1), Frobenius, per tensor after ``lead`` axes.

    A float without lead axes, else an array of shape ``a.shape[:lead]``.
    """
    gap = _norm(a - b, lead)
    out = gap / np.maximum(np.maximum(_norm(a, lead), _norm(b, lead)), 1.0)
    return float(out) if lead == 0 else out


# ---------------------------------------------------------------------------
# run-scoped memo of seeded inputs
#
# While a run scope is open, a memoized function computes each result once
# per positional argument tuple and hands the same read-only object to every
# later caller; the scope is the memo's lifetime, so nothing outlives a run.

_MEMO: dict | None = None


@contextmanager
def run_scope():
    """Share memoized results until the outermost scope closes."""
    global _MEMO
    outer = _MEMO is None
    if outer:
        _MEMO = {}
    try:
        yield
    finally:
        if outer:
            _MEMO = None


def _freeze(value):
    """A memoized result made read-only, so that no caller can change it under another.

    Arrays lose their write flag in place, so no array is copied.  A tuple
    (a ``NamedTuple`` too) keeps its type and has its items frozen in place,
    so it should hold arrays and tuples; a dict becomes a read-only mapping
    of frozen values.
    """
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for v in value:
            _freeze(v)
    elif isinstance(value, dict):
        return MappingProxyType({key: _freeze(v) for key, v in value.items()})
    return value


def memoized(fn):
    """Memoize ``fn`` inside a run scope; outside one, call straight through.

    The memo is keyed on the positional arguments, which must be hashable:
    only chunk functions are memoized, on a space, a tuple of seeds and an
    order or a name.  They return arrays, tuples of arrays or dicts of
    arrays; the memo holds them read-only (``_freeze``) and hands every
    caller the same object.
    """

    @functools.wraps(fn)
    def wrapper(*args):
        if _MEMO is None:
            return fn(*args)
        key = (fn, args)
        hit = _MEMO.get(key)
        if hit is None:
            hit = _MEMO[key] = _freeze(fn(*args))
        return hit

    return wrapper


def _normal_draws(seeds, *shapes) -> list[np.ndarray]:
    """Standard normal draws of the given shapes, each seed's ``default_rng`` drawing them in turn.

    With one seed the draws are returned as drawn; with a tuple of seeds
    each shape's draws are stacked on a leading seed axis.
    """
    if not isinstance(seeds, tuple):
        rng = np.random.default_rng(seeds)
        return [rng.standard_normal(shape) for shape in shapes]
    draws = [np.empty((len(seeds),) + ((s,) if isinstance(s, int) else s)) for s in shapes]
    for i, seed in enumerate(seeds):
        for out, value in zip(draws, _normal_draws(seed, *shapes)):
            out[i] = value
    return draws


def random_tensor(space: Space, valence: int, seed: int) -> Tensor:
    """Deterministic i.i.d. standard-normal entries for the given seed."""
    (data,) = _normal_draws(seed, (space.dim,) * valence)
    return Tensor(space, data)


def space_to_dict(space: Space) -> dict:
    """The ``dim``/``signature`` header that every curvjet document starts with."""
    return {"dim": space.dim, "signature": list(space.signature)}


def _integer(value, what: str) -> int:
    """A document's integer field; a bool, a float or a non-number is malformed.

    ``int()`` would truncate 4.9 to 4 and read ``true`` as 1, so a document
    would parse as one it does not say.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """A document's number field; a bool, a string or another non-number is malformed.

    ``float()`` would read ``"0.3"`` as 0.3 and ``true`` as 1.0, so a
    document would parse as one it does not say.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def space_from_dict(doc: dict) -> Space:
    """The space of a document header, whose signature must list ``dim`` signs (no default)."""
    dim = _integer(doc["dim"], "dim")
    signature = tuple(_integer(s, "a signature sign") for s in doc["signature"])
    if len(signature) != dim:
        raise ValueError(f"header signature lists {len(signature)} signs for dim {dim}")
    return Space(dim, signature)


def tensor_to_dict(t: Tensor) -> dict:
    return {**space_to_dict(t.space), "valence": t.valence, "data": t.data.ravel().tolist()}


def tensor_from_dict(doc: dict) -> Tensor:
    space = space_from_dict(doc)
    v = _integer(doc["valence"], "valence")
    data = np.array([_real(x, "tensor data") for x in doc["data"]]).reshape((space.dim,) * v)
    if not np.isfinite(data).all():
        raise ValueError("tensor data must be finite")
    return Tensor(space, data)


def _header_tensors(doc: dict, *names: str) -> tuple[Tensor, ...]:
    """The tensors ``doc[name]``, each checked to live on the space of doc's header."""
    space = space_from_dict(doc)
    tensors = tuple(tensor_from_dict(doc[name]) for name in names)
    for name, t in zip(names, tensors):
        if t.space != space:
            raise ValueError(f"tensor {name} lives on {t.space}, not on the header's {space}")
    return tensors
