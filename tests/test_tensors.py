"""Tests for stf projections, slab gradients, and frame components."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from r13lab import tensors
from r13lab.tensors import (
    Frame,
    IDENTITY_FRAME,
    StfTensor3,
    frame_components,
    slab_grad_stf2,
    slab_grad_vec,
    stf2,
    stf3,
    sym3,
)


def random_frame(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 2] *= -1
    return Frame(n=q[:, 0], t1=q[:, 1], t2=q[:, 2])


class TestStf2:
    def test_identity_is_annihilated(self):
        assert_allclose(stf2(np.eye(3)).matrix(), np.zeros((3, 3)), atol=1e-15)

    def test_offdiagonal_symmetrization(self):
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        m = stf2(a).matrix()
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 0.5
        assert_allclose(m, expected, atol=1e-15)

    def test_diagonal_deviator(self):
        m = stf2(np.diag([1.0, 0.0, 0.0])).matrix()
        assert_allclose(m, np.diag([2.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0]), atol=1e-15)

    def test_idempotent_and_orthogonal(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a = rng.normal(size=(3, 3))
            p = stf2(a).matrix()
            # projection: applying stf2 again changes nothing
            assert_allclose(stf2(p).matrix(), p, atol=1e-14)
            assert abs(np.trace(p)) < 1e-14
            # Frobenius-orthogonal to the antisymmetric part and the identity
            antisym = 0.5 * (a - a.T)
            assert abs(np.sum(p * antisym)) < 1e-13
            assert abs(np.sum(p * np.eye(3))) < 1e-13

    def test_component_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t = StfTensor3(rng.normal(size=5))
            back = StfTensor3.from_matrix(t.matrix())
            assert_allclose(back.components, t.components, atol=1e-14)

    def test_matrix_is_symmetric_tracefree(self):
        t = StfTensor3(np.array([1.0, -2.0, 0.3, 0.7, -1.1]))
        m = t.matrix()
        assert_allclose(m, m.T, atol=1e-15)
        assert abs(np.trace(m)) < 1e-14
        assert m[2, 2] == pytest.approx(-m[0, 0] - m[1, 1])


class TestStf3:
    def test_zero(self):
        assert_allclose(stf3(np.zeros((3, 3, 3))), np.zeros((3, 3, 3)), atol=1e-15)

    def test_single_offdiagonal_entry(self):
        b = np.zeros((3, 3, 3))
        b[0, 1, 2] = 1.0
        t = stf3(b)
        import itertools
        for p in itertools.permutations((0, 1, 2)):
            assert t[p] == pytest.approx(1.0 / 6.0)
        # trace corrections vanish for all-distinct indices
        assert_allclose(np.einsum("ill->i", t), np.zeros(3), atol=1e-15)

    def test_all_contractions_vanish(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            t = stf3(rng.normal(size=(3, 3, 3)))
            assert_allclose(np.einsum("iil->l", t), np.zeros(3), atol=1e-13)
            assert_allclose(np.einsum("ili->l", t), np.zeros(3), atol=1e-13)
            assert_allclose(np.einsum("lii->l", t), np.zeros(3), atol=1e-13)

    def test_projection_properties(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            b = rng.normal(size=(3, 3, 3))
            t = stf3(b)
            assert_allclose(stf3(t), t, atol=1e-13)
            assert np.sum(t * t) <= np.sum(b * b) + 1e-13
            # orthogonality of the projection: <stf3(b), b - stf3(b)> = 0
            assert abs(np.sum(t * (sym3(b) - t))) < 1e-12

    def test_component_view_length(self):
        rng = np.random.default_rng(5)
        t = stf3(rng.normal(size=(3, 3, 3)))
        assert tensors.stf3_components(t).shape == (7,)


class TestSlabGradients:
    def test_tangential_shear(self):
        grad, dev = slab_grad_vec(np.zeros(3), np.array([0.0, 1.0, 0.0]))
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 0.5
        assert_allclose(dev.matrix(), expected, atol=1e-15)

    def test_normal_stretch(self):
        grad, dev = slab_grad_vec(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        assert_allclose(dev.matrix(), np.diag([2.0 / 3, -1.0 / 3, -1.0 / 3]), atol=1e-15)

    def test_divergence_is_trace(self):
        rng = np.random.default_rng(1)
        d = rng.normal(size=3)
        grad, _ = slab_grad_vec(np.zeros(3), d)
        assert np.trace(grad) == pytest.approx(d[0])

    def test_stf2_field_zero_derivs(self):
        zero = StfTensor3(np.zeros(5))
        grad, t, div = slab_grad_stf2(zero, zero)
        assert_allclose(grad, 0.0, atol=1e-15)
        assert_allclose(t, 0.0, atol=1e-15)
        assert_allclose(div, 0.0, atol=1e-15)

    def test_divergence_component(self):
        derivs = StfTensor3(np.array([0.0, 0.0, 1.0, 0.0, 0.0]))  # d(sigma_12)/dx = 1
        _, _, div = slab_grad_stf2(StfTensor3(np.zeros(5)), derivs)
        assert_allclose(div, [0.0, 1.0, 0.0], atol=1e-15)

    def test_stf3_contraction_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            derivs = StfTensor3(rng.normal(size=5))
            grad, t, _ = slab_grad_stf2(StfTensor3(np.zeros(5)), derivs)
            assert np.sum(t * t) <= np.sum(grad * grad) + 1e-13


class TestFrames:
    def test_vector_identity_frame(self):
        comps = frame_components(np.array([1.0, 2.0, 3.0]), IDENTITY_FRAME)
        assert comps == {"n": 1.0, "t1": 2.0, "t2": 3.0}

    def test_tensor_identity_frame(self):
        sigma = stf2(np.diag([1.0, 0.0, 0.0]))
        comps = frame_components(sigma, IDENTITY_FRAME)
        assert comps["nn"] == pytest.approx(2.0 / 3.0)
        assert comps["nn"] + comps["t1t1"] + comps["t2t2"] == pytest.approx(0.0, abs=1e-14)

    def test_nonorthonormal_frame_rejected(self):
        with pytest.raises(ValueError):
            Frame(n=[1.0, 0, 0], t1=[1.0, 0, 0], t2=[0, 0, 1.0])

    def test_frame_isometry(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            f = random_frame(rng)
            sigma = StfTensor3(rng.normal(size=5))
            c = frame_components(sigma, f)
            norm_f = (c["nn"] ** 2 + 2 * c["nt1"] ** 2 + 2 * c["nt2"] ** 2
                      + c["t1t1"] ** 2 + c["t2t2"] ** 2 + 2 * c["t1t2"] ** 2)
            assert norm_f == pytest.approx(sigma.norm2(), rel=1e-12)
            assert c["nn"] + c["t1t1"] + c["t2t2"] == pytest.approx(0.0, abs=1e-12)
            assert c["nt1"] == pytest.approx(c["t1n"], rel=1e-12)


class TestBatching:
    """Every helper broadcasts over leading batch axes and gives, for each
    item of a batch, exactly the numbers of the single-item call."""

    SHAPE = (4, 3)

    @staticmethod
    def assert_itemwise(batch_fn, item_fn, *batches):
        out = batch_fn(*batches)
        for idx in np.ndindex(TestBatching.SHAPE):
            expected = item_fn(*(b[idx] for b in batches))
            assert np.array_equal(np.asarray(out)[idx], expected)

    def test_stf_tensor_methods(self):
        rng = np.random.default_rng(101)
        comps = rng.normal(size=self.SHAPE + (5,))
        mats = rng.normal(size=self.SHAPE + (3, 3))
        self.assert_itemwise(lambda c: StfTensor3(c).matrix(),
                             lambda c: StfTensor3(c).matrix(), comps)
        self.assert_itemwise(lambda c: StfTensor3(c).norm2(),
                             lambda c: StfTensor3(c).norm2(), comps)
        self.assert_itemwise(lambda a: StfTensor3.from_matrix(a).components,
                             lambda a: StfTensor3.from_matrix(a).components, mats)
        self.assert_itemwise(lambda a: stf2(a).components,
                             lambda a: stf2(a).components, mats)

    def test_third_order_projections(self):
        rng = np.random.default_rng(102)
        b = rng.normal(size=self.SHAPE + (3, 3, 3))
        self.assert_itemwise(sym3, sym3, b)
        self.assert_itemwise(stf3, stf3, b)
        self.assert_itemwise(tensors.stf3_components, tensors.stf3_components,
                             stf3(b))

    def test_slab_gradients(self):
        rng = np.random.default_rng(103)
        vals, ders = rng.normal(size=(2,) + self.SHAPE + (3,))
        self.assert_itemwise(lambda v, d: slab_grad_vec(v, d)[0],
                             lambda v, d: slab_grad_vec(v, d)[0], vals, ders)
        self.assert_itemwise(lambda v, d: slab_grad_vec(v, d)[1].components,
                             lambda v, d: slab_grad_vec(v, d)[1].components,
                             vals, ders)
        sig, dsig = rng.normal(size=(2,) + self.SHAPE + (5,))
        for k in range(3):
            self.assert_itemwise(
                lambda s, d: slab_grad_stf2(StfTensor3(s), StfTensor3(d))[k],
                lambda s, d: slab_grad_stf2(StfTensor3(s), StfTensor3(d))[k],
                sig, dsig)

    def test_frame_components(self):
        rng = np.random.default_rng(104)
        vecs = rng.normal(size=self.SHAPE + (3,))
        comps = rng.normal(size=self.SHAPE + (5,))
        for frame in (IDENTITY_FRAME, random_frame(rng)):
            vec_out = frame_components(vecs, frame)
            ten_out = frame_components(StfTensor3(comps), frame)
            for idx in np.ndindex(self.SHAPE):
                vec_item = frame_components(vecs[idx], frame)
                ten_item = frame_components(StfTensor3(comps[idx]), frame)
                assert vec_item.keys() == vec_out.keys()
                assert ten_item.keys() == ten_out.keys()
                for key, value in vec_item.items():
                    assert vec_out[key][idx] == value
                for key, value in ten_item.items():
                    assert ten_out[key][idx] == value

    def test_single_item_is_the_zero_d_batch(self):
        t = StfTensor3(np.array([1.0, -2.0, 0.3, 0.7, -1.1]))
        assert t.matrix().shape == (3, 3)
        assert np.ndim(t.norm2()) == 0
        comps = frame_components(np.array([1.0, 2.0, 3.0]), IDENTITY_FRAME)
        assert all(np.ndim(v) == 0 for v in comps.values())
        with pytest.raises(ValueError, match="expected 5 components"):
            StfTensor3(np.zeros((4, 3)))
