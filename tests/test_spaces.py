"""Core tensor plumbing: permutations, symmetrization, traces, products, run-scoped memo."""

import json
import math
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvjet.identities import _verify_seeds
from curvjet.jets import _two_jet_chunk
from curvjet.spaces import (
    Space,
    SymBiform,
    Tensor,
    _norm,
    _rel,
    memoized,
    metric_trace,
    permute,
    random_tensor,
    run_scope,
    space_from_dict,
    space_to_dict,
    sym_product,
    symmetrize,
    tensor_from_dict,
    tensor_product,
    tensor_to_dict,
)
from curvjet.young import _ck_chunk

E3 = Space(3)
E4 = Space(4)
L4 = Space(4, (1, 1, 1, -1))


def rel(a: Tensor, b: Tensor) -> float:
    return (a - b).norm() / max(a.norm(), b.norm(), 1.0)


class TestSpace:
    def test_rejects_dim_below_two(self):
        with pytest.raises(ValueError):
            Space(1)

    def test_rejects_bad_signature_entries(self):
        with pytest.raises(ValueError):
            Space(3, (1, 1, 2))

    def test_rejects_signature_length_mismatch(self):
        with pytest.raises(ValueError):
            Space(3, (1, 1))

    def test_metric_tensor_entries(self):
        g = L4.metric_tensor()
        assert np.array_equal(g.data, np.diag([1.0, 1.0, 1.0, -1.0]))


class TestPermute:
    def test_identity(self):
        t = random_tensor(E3, 3, 0)
        assert rel(permute(t, (1, 2, 3)), t) == 0.0

    def test_swap_is_involution(self):
        t = random_tensor(E3, 4, 1)
        assert rel(permute(permute(t, (2, 1, 3, 4)), (2, 1, 3, 4)), t) == 0.0

    def test_hand_oracle_n2(self):
        t = Tensor(Space(2), np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = permute(t, (2, 1))
        assert np.array_equal(out.data, np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_wrong_length_rejected(self):
        t = random_tensor(E3, 2, 0)
        with pytest.raises(ValueError):
            permute(t, (1, 2, 3))

    def test_composition(self):
        # output(x_{q(p(1))},...) = input(x_1,...) composes as q o p
        t = random_tensor(E4, 3, 7)
        p, q = (2, 3, 1), (3, 1, 2)
        qp = tuple(q[i - 1] for i in p)
        assert rel(permute(permute(t, p), q), permute(t, qp)) == 0.0


class TestSymmetrize:
    def test_idempotent_exact(self):
        t = random_tensor(E4, 4, 2)
        s1 = symmetrize(t, (1, 3, 4))
        s2 = symmetrize(s1, (1, 3, 4))
        assert (s1 - s2).norm() < 1e-14 * max(s1.norm(), 1.0)

    def test_already_symmetric_fixed(self):
        t = symmetrize(random_tensor(E3, 3, 3), (1, 2, 3))
        assert rel(symmetrize(t, (1, 2, 3)), t) < 1e-15

    def test_kills_antisymmetric_pair(self):
        t = random_tensor(E3, 3, 4)
        anti = t - permute(t, (2, 1, 3))
        assert symmetrize(anti, (1, 2)).norm() < 1e-14 * max(anti.norm(), 1.0)

    def test_hand_oracle_n2(self):
        t = Tensor(Space(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
        out = symmetrize(t, (1, 2))
        assert np.array_equal(out.data, np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_bad_slot_rejected(self):
        t = random_tensor(E3, 2, 0)
        with pytest.raises(ValueError):
            symmetrize(t, (1, 5))

    @given(st.integers(0, 2**32 - 1), st.sets(st.integers(1, 4), min_size=1))
    @settings(max_examples=40, deadline=None)
    def test_idempotence_property(self, seed, slots):
        t = random_tensor(E3, 4, seed)
        s1 = symmetrize(t, tuple(sorted(slots)))
        s2 = symmetrize(s1, tuple(sorted(slots)))
        assert np.allclose(s1.data, s2.data, rtol=0.0, atol=1e-14)


class TestMetricTrace:
    @pytest.mark.parametrize("sp", [E3, E4, L4])
    def test_trace_of_metric_is_dimension(self, sp):
        g = sp.metric_tensor()
        assert float(metric_trace(g, 1, 2).data) == pytest.approx(sp.dim)

    def test_antisymmetric_traces_to_zero(self):
        t = random_tensor(E4, 2, 5)
        anti = t - permute(t, (2, 1))
        assert abs(float(metric_trace(anti, 1, 2).data)) < 1e-13

    def test_g_outer_g_contractions(self):
        # tr_{1,3} pairs the two copies: (g (x) g)(e_a, x2, e_a, x4) sums to
        # g(x2, x4); tr_{1,2} closes the first copy and yields n * g.
        g = E4.metric_tensor()
        gg = tensor_product(g, g)
        assert rel(metric_trace(gg, 1, 3), g) < 1e-15
        assert rel(metric_trace(gg, 1, 2), 4.0 * g) < 1e-15

    def test_lorentz_signs(self):
        g = L4.metric_tensor()
        gg = tensor_product(g, g)
        assert rel(metric_trace(gg, 1, 3), g) < 1e-15

    def test_valence_too_small_rejected(self):
        t = random_tensor(E3, 1, 0)
        with pytest.raises(ValueError):
            metric_trace(t, 1, 2)

    def test_commutes_with_permutation_fixing_traced_slots(self):
        t = random_tensor(E4, 5, 8)
        # permute free slots 1,3,5 cyclically, fix traced slots 2 and 4
        p = (3, 2, 5, 4, 1)
        lhs = metric_trace(permute(t, p), 2, 4)
        # free slots (1,3,5) -> positions (1,2,3) after the trace
        rhs = permute(metric_trace(t, 2, 4), (2, 3, 1))
        assert rel(lhs, rhs) < 1e-12


class TestSymProduct:
    def test_scalar_unit(self):
        one = Tensor(E3, np.array(1.0))
        b = symmetrize(random_tensor(E3, 2, 9), (1, 2))
        assert rel(sym_product(one, b), b) < 1e-15

    def test_commutative(self):
        a = symmetrize(random_tensor(E3, 2, 10), (1, 2))
        b = symmetrize(random_tensor(E3, 3, 11), (1, 2, 3))
        assert rel(sym_product(a, b), sym_product(b, a)) < 1e-14

    def test_diagonal_value_gg(self):
        g = E4.metric_tensor()
        gg = sym_product(g, g)
        rng = np.random.default_rng(12)
        for _ in range(20):
            xi = rng.standard_normal(4)
            lhs = float(np.einsum("abcd,a,b,c,d->", gg.data, xi, xi, xi, xi))
            gxx = float(xi @ g.data @ xi)
            assert lhs == pytest.approx(gxx**2, rel=1e-12)

    def test_associative(self):
        a = random_tensor(E3, 1, 13)
        b = symmetrize(random_tensor(E3, 2, 14), (1, 2))
        c = random_tensor(E3, 1, 15)
        lhs = sym_product(sym_product(a, b), c)
        rhs = sym_product(a, sym_product(b, c))
        assert rel(lhs, rhs) < 1e-12

    def test_mismatched_spaces_rejected(self):
        with pytest.raises(ValueError):
            sym_product(random_tensor(E3, 1, 0), random_tensor(E4, 1, 0))

    def test_symbiform_branch_keeps_bilinear_pair(self):
        h = SymBiform(E3, 2, random_tensor(E3, 4, 16))
        out = sym_product(h, E3.metric_tensor())
        assert isinstance(out, SymBiform) and out.m == 4
        rng = np.random.default_rng(17)
        for _ in range(10):  # diagonal in the leading slots multiplies values
            xi = rng.standard_normal(3)
            u, v = rng.standard_normal(3), rng.standard_normal(3)
            lhs = np.einsum(
                "abcdef,a,b,c,d,e,f->", out.tensor.data, xi, xi, xi, xi, u, v
            )
            hval = np.einsum("abef,a,b,e,f->", h.tensor.data, xi, xi, u, v)
            assert lhs == pytest.approx(hval * float(xi @ xi), rel=1e-10)


class TestSymBiform:
    def test_enforces_both_symmetries(self):
        h = SymBiform(E3, 3, random_tensor(E3, 5, 18))
        t = h.tensor
        assert rel(permute(t, (2, 1, 3, 4, 5)), t) < 1e-15
        assert rel(permute(t, (1, 2, 3, 5, 4)), t) < 1e-15

    def test_valence_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SymBiform(E3, 2, random_tensor(E3, 3, 0))


def _diagonal_restriction(h: SymBiform, xi: np.ndarray) -> np.ndarray:
    out = h.tensor.data
    for _ in range(h.m):
        out = np.tensordot(xi, out, axes=(0, 0))
    return out


def test_polarization_recovers_symbiform():
    """The diagonal restriction determines the full form (degree m = 3)."""
    h = SymBiform(E3, 3, random_tensor(E3, 5, 19))
    n, m = 3, 3
    basis = np.eye(n)
    rec = np.zeros(h.tensor.data.shape)
    for idx in iproduct(range(n), repeat=m):
        acc = np.zeros((n, n))
        for mask in range(1, 2**m):
            xi = np.zeros(n)
            bits = 0
            for j in range(m):
                if mask >> j & 1:
                    xi += basis[idx[j]]
                    bits += 1
            acc += (-1.0) ** (m - bits) * _diagonal_restriction(h, xi)
        rec[idx] = acc / math.factorial(m)
    assert np.linalg.norm(rec - h.tensor.data) < 1e-9 * max(h.norm(), 1.0)


class TestRandomTensor:
    def test_deterministic(self):
        a = random_tensor(E4, 3, 42)
        b = random_tensor(E4, 3, 42)
        assert np.array_equal(a.data, b.data)

    def test_seed_sensitivity(self):
        a = random_tensor(E4, 3, 42)
        b = random_tensor(E4, 3, 43)
        assert not np.array_equal(a.data, b.data)

    def test_valence_zero_scalar(self):
        s = random_tensor(E4, 0, 7)
        assert s.data.shape == () and np.isfinite(float(s.data))


class TestSerialization:
    def test_space_roundtrip(self):
        assert space_from_dict(space_to_dict(L4)) == L4

    def test_tensor_roundtrip_bitwise(self):
        t = random_tensor(L4, 3, 21)
        doc = json.loads(json.dumps(tensor_to_dict(t)))
        back = tensor_from_dict(doc)
        assert back.space == L4
        assert np.array_equal(back.data, t.data)

    @pytest.mark.parametrize("signature", [[], [1, 1]], ids=["empty", "short"])
    def test_header_signature_must_list_dim_signs(self, signature):
        # an empty signature is Euclidean for Space(dim), but malformed in a document
        doc = tensor_to_dict(random_tensor(E3, 2, 0))
        doc["signature"] = signature
        with pytest.raises(ValueError, match="signature lists"):
            space_from_dict(doc)
        with pytest.raises(ValueError, match="signature lists"):
            tensor_from_dict(doc)

    def test_fields(self):
        doc = tensor_to_dict(random_tensor(E3, 2, 0))
        assert set(doc) == {"dim", "signature", "valence", "data"}
        assert doc["dim"] == 3 and doc["valence"] == 2
        assert len(doc["data"]) == 9


@pytest.mark.parametrize("lead", [1, 2])
def test_norm_and_rel_of_an_empty_batch(lead):
    # an empty batch has empty results, not a reshape error
    x = np.zeros((0,) * lead + (3, 3))
    assert _norm(x, lead).shape == (0,) * lead
    assert _rel(x, x, lead).shape == (0,) * lead


class TestRunScope:
    def test_shared_and_read_only_inside_a_scope(self):
        with run_scope():
            a = _ck_chunk(E3, 1, (5, 6))
            assert _ck_chunk(E3, 1, (5, 6)) is a
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0, 0, 0, 0, 0] = 1.0
            jets = _two_jet_chunk(E3, (5, 6))
            assert _two_jet_chunk(E3, (5, 6)) is jets
            assert not any(t.flags.writeable for t in (jets.R, jets.dR, jets.d2R, jets.rotation))

    def test_fresh_outside_a_scope(self):
        a = _ck_chunk(E3, 1, (5, 6))
        b = _ck_chunk(E3, 1, (5, 6))
        assert a is not b and np.array_equal(a, b)
        assert a.flags.writeable
        with run_scope():
            pass
        assert _ck_chunk(E3, 1, (5, 6)) is not a

    def test_memoized_mappings_are_read_only(self):
        with run_scope():
            first = _verify_seeds("embed_trace_22", E4, (3, 4))
            with pytest.raises(TypeError):
                first["residual"] = -1.0
            with pytest.raises(ValueError):
                first["residual"][0] = -1.0
            again = _verify_seeds("embed_trace_22", E4, (3, 4))
            assert again is first and np.all(again["residual"] >= 0.0)
        # outside a scope the caller owns a fresh dict
        assert type(_verify_seeds("embed_trace_22", E4, (3, 4))) is dict

    def test_scope_nests_and_ends_with_the_outermost(self):
        with run_scope():
            a = _ck_chunk(E3, 0, (4,))
            with run_scope():
                assert _ck_chunk(E3, 0, (4,)) is a
            assert _ck_chunk(E3, 0, (4,)) is a
        assert _ck_chunk(E3, 0, (4,)) is not a

    def test_memoized_calls_through_outside_a_scope(self):
        calls = []

        @memoized
        def draw(seed):
            calls.append(seed)
            return {"seed": seed}

        draw(1)
        draw(1)
        with run_scope():
            draw(1)
            draw(1)
        assert calls == [1, 1, 1]
