import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cmil import autodiff as ad
from cmil.autodiff import Tensor
from cmil.errors import ShapeError
from gradcheck import grad_check, grad_check_many


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        np.testing.assert_array_equal((a @ eye).data, a.data)

    def test_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal((a @ b).data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=(3, 2)))
        w = rng.normal(size=(4, 2))  # fixed readout so output is scalar

        def f(ts):
            return ad.reduce_sum(ad.mul(ts[0] @ ts[1], Tensor(w)))

        assert grad_check_many(f, [a, b]) < 1e-6

    def test_vector_cases_gradients(self):
        rng = np.random.default_rng(1)
        v = Tensor(rng.normal(size=5))
        m = Tensor(rng.normal(size=(5, 4)))
        assert grad_check_many(lambda ts: ad.reduce_sum(ts[0] @ ts[1]), [v, m]) < 1e-6
        assert grad_check_many(lambda ts: ad.reduce_sum(ts[1] @ ts[0]), [Tensor(rng.normal(size=4)), m]) < 1e-6
        u = Tensor(rng.normal(size=5))
        assert grad_check_many(lambda ts: ts[0] @ ts[1], [v, u]) < 1e-6


class TestElementwise:
    def test_sigmoid_symmetry(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_relu(self):
        y = ad.affine_relu(Tensor([[-3.0], [3.0]]), Tensor([[2.0]]), Tensor([1.0]))
        np.testing.assert_array_equal(y.data, [[0.0], [7.0]])

    def test_tanh_gradient(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=7))
        assert grad_check(lambda t: ad.reduce_sum(ad.tanh(t)), x) < 1e-6

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_scalar_broadcast(self):
        y = Tensor([1.0, 2.0]) * 3.0
        np.testing.assert_array_equal(y.data, [3.0, 6.0])
        y = 1.0 - Tensor([0.25, 0.5])
        np.testing.assert_array_equal(y.data, [0.75, 0.5])

    def test_scalar_broadcast_gradient(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=6))
        s = Tensor(0.7)
        assert grad_check_many(lambda ts: ad.reduce_sum(ad.mul(ts[0], ts[1])), [x, s]) < 1e-6
        assert grad_check_many(lambda ts: ad.reduce_sum(ad.div(ts[0], ts[1])), [x, s]) < 1e-6


def frozen_relu_value(x):
    """The masked relu forward that ``np.fmax`` replaced."""
    return np.where(x > 0.0, x, 0.0)


def relu_of(x):
    """relu of an n-by-1 tensor through affine_relu's 1x1 identity map."""
    return ad.affine_relu(x, ad.constant([[1.0]]), ad.constant([0.0]))


def frozen_affine_relu(x, w, b, g):
    """Value and (x, w, b) gradients of relu(x @ w + b) under upstream g, computed
    as the tape of matmul, add_rowvec and relu did: each interior gradient the
    tape stored was a copy made by adding 0.0."""
    pre = x @ w + b[None, :]
    y = frozen_relu_value(pre)
    g_pre = g * (y > 0.0) + 0.0  # relu's vjp, stored for add_rowvec
    g_mm = g_pre + 0.0  # add_rowvec's identity vjp, stored for matmul
    return y, g_mm @ w.T, x.T @ g_mm, g_pre.sum(axis=0)


def frozen_sigmoid_value(x):
    """The boolean-mask logistic function that the mask-free form replaced."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


SPECIALS = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 709.8, -709.8, 745.2, -745.2,
                     1e-320, -1e-320])
ANY_FLOAT64 = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=12),
                         elements=st.floats(allow_nan=True, allow_infinity=True, width=64))


class TestKernelsMatchFrozenOracles:
    """affine_relu's relu and sigmoid_value must equal their previous forms byte for byte."""

    @staticmethod
    def check(x):
        with np.errstate(over="ignore", invalid="ignore"):
            y = relu_of(Tensor(np.reshape(x, (-1, 1))))
            assert y.data.tobytes() == frozen_relu_value(x).tobytes()
            assert ad.sigmoid_value(x).tobytes() == frozen_sigmoid_value(x).tobytes()

    def test_specials(self):
        self.check(SPECIALS)
        self.check(SPECIALS.reshape(1, -1)[:, ::-1])
        for v in SPECIALS:
            self.check(np.array(v))

    @settings(max_examples=300, deadline=None)
    @given(ANY_FLOAT64)
    def test_arbitrary_arrays(self, x):
        self.check(x)

    def test_sigmoid_value_of_a_scalar_is_a_float64_scalar(self):
        for x in (0.5, np.float64(-2.0), np.array(3.0)):
            y = ad.sigmoid_value(x)
            assert type(y) is np.float64 and y == frozen_sigmoid_value(np.array([x]))[0]

    def test_relu_gradient_is_zero_off_the_positive_values(self):
        x = Tensor(SPECIALS.reshape(-1, 1))
        ad.reduce_sum(relu_of(x)).backward()
        np.testing.assert_array_equal(x.grad.ravel(), SPECIALS > 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_affine_relu_matches_the_three_op_tape(self, r, k, c, seed):
        rng = np.random.default_rng(seed)
        x, w, b = rng.normal(size=(r, k)), rng.normal(size=(k, c)), rng.normal(size=c)
        # zero entries and negative zeros in the upstream gradient test the stored signs
        g = rng.choice([-1.5, -0.0, 0.0, 0.25, 2.0], size=(r, c))
        leaves = Tensor(x), Tensor(w), Tensor(b)
        y = ad.affine_relu(*leaves)
        assert y._parents == leaves  # one node: no product or pre-activation is kept
        ad.reduce_sum(ad.mul(y, ad.constant(g))).backward()
        expected = frozen_affine_relu(x, w, b, g)
        for got, want in zip([y.data] + [t.grad for t in leaves], expected):
            assert got.tobytes() == want.tobytes()


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_array_equal(ad.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_overflow_stability(self):
        y = ad.softmax(Tensor([1000.0, 1000.0, 1000.0])).data
        np.testing.assert_allclose(y, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
        assert np.all(np.isfinite(y))

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=5))
        w = rng.normal(size=5)
        # random linear readout exercises the full Jacobian
        assert grad_check(lambda t: ad.reduce_sum(ad.mul(ad.softmax(t), Tensor(w))), x) < 1e-6

    def test_empty_input(self):
        with pytest.raises(ShapeError):
            ad.softmax(Tensor(np.zeros(0)))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12), st.randoms())
    def test_sums_to_one_and_permutation_equivariant(self, xs, pyrandom):
        x = np.array(xs, dtype=np.float64)
        y = ad.softmax(Tensor(x)).data
        assert abs(y.sum() - 1.0) <= 1e-12
        perm = np.array(pyrandom.sample(range(len(xs)), len(xs)))
        yp = ad.softmax(Tensor(x[perm])).data
        np.testing.assert_allclose(yp, y[perm], rtol=0, atol=1e-15)


class TestReduce:
    def test_sum(self):
        assert ad.reduce_sum(Tensor([1.0, 2.0, 3.0])).item() == 6.0

    def test_sq_l2(self):
        assert ad.sq_l2(Tensor([3.0, 4.0])).item() == 25.0

    def test_mean_gradient(self):
        x = Tensor(np.random.default_rng(5).normal(size=8))
        y = ad.reduce_mean(x)
        y.backward()
        np.testing.assert_allclose(x.grad, np.full(8, 1.0 / 8), atol=1e-15)
        assert grad_check(ad.reduce_mean, Tensor(x.data.copy())) < 1e-8

    def test_empty(self):
        with pytest.raises(ShapeError):
            ad.reduce_sum(Tensor(np.zeros(0)))


class TestAccumulate:
    """The first gradient a tensor receives is stored in an array of its own."""

    def test_grad_is_not_shared(self):
        a, b = Tensor(np.ones(3)), Tensor(np.ones(3))
        twice = ad.mul(a, Tensor(np.full(3, 5.0)))
        ad.reduce_sum(ad.add(ad.add(a, b), twice)).backward()
        np.testing.assert_array_equal(a.grad, 6.0)
        np.testing.assert_array_equal(b.grad, 1.0)

    def test_negative_zero_gradient_is_stored_as_positive_zero(self):
        x = Tensor(np.arange(1.0, 4.0))
        ad.reduce_sum(ad.mul(x, Tensor(np.full(3, -0.0)))).backward()
        assert not np.signbit(x.grad).any()


class TestConstants:
    """A node of constant inputs is constant, and backward gives constants no grad."""

    def test_product_of_two_constants_is_constant(self):
        a, b = ad.constant(np.ones(3)), ad.constant(np.full(3, 2.0))
        assert ad.mul(a, b)._const
        assert not ad.mul(a, Tensor(np.ones(3)))._const

    def test_only_the_differentiable_leaf_gets_a_grad(self):
        t = Tensor(np.arange(3.0))
        loss = ad.reduce_sum(t * 2.0)
        loss.backward()
        leaves, stack = [], [loss]
        while stack:
            node = stack.pop()
            stack.extend(node._parents)
            if not node._parents:
                leaves.append(node)
        assert len(leaves) == 2  # t and the wrapped scalar
        assert [leaf for leaf in leaves if leaf.grad is not None] == [t]
        np.testing.assert_array_equal(t.grad, 2.0)


    def test_node_of_constant_inputs_keeps_no_inputs(self):
        a, b = ad.constant(np.ones((2, 3))), ad.constant(np.full((3, 2), 2.0))
        for out in (a @ b, ad.transpose(a), ad.affine_relu(a, b, ad.constant(np.ones(2)))):
            assert out._const
            assert out._parents == () and out._vjps == ()
        mixed = ad.mul(a, Tensor(np.ones((2, 3))))
        assert len(mixed._parents) == len(mixed._vjps) == 2


def _tape(root):
    """Every node reachable from root through ``_parents``."""
    seen, nodes, stack = set(), [], [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    return nodes


class TestBackwardReleasesInteriorGrads:
    """backward leaves a grad only on leaves, so each walk of a graph adds into them once."""

    def test_only_leaves_keep_a_grad(self):
        x, w = Tensor([[1.0, 2.0]]), Tensor([[1.0, -1.0], [0.5, 2.0]])
        loss = ad.reduce_sum(ad.affine_relu(x * x, w, ad.constant(np.zeros(2)))) + 3.0
        loss.backward()
        nodes = _tape(loss)
        interior = [t for t in nodes if t._parents]
        leaves = [t for t in nodes if not t._parents]
        assert len(interior) == 4 and all(t.grad is None for t in interior)
        assert all(t._vjps for t in interior)  # the tape itself is kept
        assert {id(t) for t in leaves if t.grad is not None} == {id(x), id(w)}
        np.testing.assert_array_equal(x.grad, [[2.0 * (1.0 - 1.0), 4.0 * (0.5 + 2.0)]])
        np.testing.assert_array_equal(w.grad, [[1.0, 1.0], [4.0, 4.0]])

    def test_a_second_backward_adds_the_gradient_once_more(self):
        x = Tensor([1.0, 2.0])
        loss = ad.reduce_sum(x * x)
        loss.backward()
        once = x.grad.copy()
        np.testing.assert_array_equal(once, [2.0, 4.0])
        loss.backward()
        assert x.grad.tobytes() == (once + once).tobytes()


class TestGatherScaleRows:
    def test_gather_values_and_duplicates(self):
        x = Tensor([10.0, 20.0, 30.0])
        y = ad.gather(x, [2, 0, 2])
        np.testing.assert_array_equal(y.data, [30.0, 10.0, 30.0])
        ad.reduce_sum(y).backward()
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 2.0])

    def test_gather_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.gather(Tensor([1.0]), [1])

    def test_scale_rows_gradient(self):
        rng = np.random.default_rng(6)
        m = Tensor(rng.normal(size=(4, 3)))
        v = Tensor(rng.normal(size=4))
        w = rng.normal(size=(4, 3))
        assert grad_check_many(
            lambda ts: ad.reduce_sum(ad.mul(ad.scale_rows(ts[0], ts[1]), Tensor(w))), [m, v]
        ) < 1e-6

    def test_affine_relu_gradient(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(4, 5)))
        b = Tensor(rng.normal(size=5))
        pre = x.data @ w.data + b.data
        assert np.abs(pre).min() > 1e-3 and (pre < 0).any()  # off the kink, on both sides
        assert grad_check_many(lambda ts: ad.sq_l2(ad.affine_relu(*ts)), [x, w, b]) < 1e-6

    def test_affine_relu_shape_mismatch(self):
        x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
        for b in (Tensor(np.ones(3)), Tensor(np.ones((1, 4)))):
            with pytest.raises(ShapeError):
                ad.affine_relu(x, w, b)
        with pytest.raises(ShapeError):
            ad.affine_relu(x, Tensor(np.ones((2, 4))), Tensor(np.ones(4)))


class TestPercentileOp:
    def test_gradient(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=9))
        assert grad_check(lambda t: ad.percentile(t, 0.75), x) < 1e-8

    def test_value(self):
        assert ad.percentile(Tensor([1.0, 2.0, 3.0, 4.0]), 0.75).item() == 3.25


class TestGradCheck:
    def test_quadratic_is_exact(self):
        x = Tensor(np.array([1.0, -2.0, 0.5]))
        assert grad_check(ad.sq_l2, x) < 1e-8

    def test_composed_graphs_match_finite_differences(self):
        # 100 random smooth points through a deep composition of ops
        rng = np.random.default_rng(9)
        readout = Tensor(np.arange(1.0, 7.0))
        for _ in range(100):
            x = Tensor(0.6 * rng.normal(size=6))
            w = Tensor(0.6 * rng.normal(size=(6, 4)))
            u = Tensor(rng.normal(size=4))

            def f(ts):
                h = ad.sigmoid(ts[0] @ ts[1])
                s = ad.tanh(ad.mul(h, ts[2]))
                return (
                    ad.reduce_sum(s)
                    + ad.reduce_mean(ad.sq_l2(ts[0]))
                    + ad.reduce_sum(ad.mul(ad.softmax(ts[0]), readout))
                )

            assert grad_check_many(f, [x, w, u]) < 1e-4

    def test_clamp_passthrough(self):
        x = Tensor([0.5, 2.0, -1.0])
        y = ad.clamp(x, 0.0, 1.0)
        np.testing.assert_array_equal(y.data, [0.5, 1.0, 0.0])
        ad.reduce_sum(y).backward()
        np.testing.assert_array_equal(x.grad, [1.0, 0.0, 0.0])


class TestDeterminism:
    def test_identical_graphs_bit_identical(self):
        def run():
            rng = np.random.default_rng(10)
            x = Tensor(rng.normal(size=(5, 3)))
            w = Tensor(rng.normal(size=(3, 2)))
            out = ad.sq_l2(ad.tanh(x @ w))
            out.backward()
            return out.data.copy(), x.grad.copy()

        (v1, g1), (v2, g2) = run(), run()
        assert v1.tobytes() == v2.tobytes()
        assert g1.tobytes() == g2.tobytes()

    def test_backward_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).backward()
