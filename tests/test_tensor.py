import numpy as np
import pytest

from csafm import (
    BnParams,
    ConvParams,
    DimensionError,
    ParameterError,
    Rng,
    Tensor,
    batchnorm,
    center_crop,
    concat_channels,
    conv2d,
    derive_seed,
    ewise_add,
    ewise_mul,
    flatten,
    fully_connected,
    gap,
    maxpool2d,
    mean_all,
    no_grad,
    one_minus,
    pwconv,
    relu,
    sigmoid,
    softmax_xent,
)
from csafm.ops import he_fc


class TestTensorBasics:
    def test_rank_must_be_four(self):
        with pytest.raises(DimensionError):
            Tensor(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            Tensor(np.zeros((1, 1, 1, 1, 1)))

    def test_non_float_input_coerced_to_f32(self):
        t = Tensor(np.zeros((1, 1, 1, 1), dtype=np.int32))
        assert t.dtype == np.float32
        assert Tensor(np.zeros((1, 1, 1, 1), dtype=np.float64)).dtype == np.float64

    def test_dims_accessors(self):
        t = Tensor.zeros((2, 3, 4, 5))
        assert t.dims == (2, 3, 4, 5)
        assert (t.n, t.c, t.h, t.w) == (2, 3, 4, 5)
        assert t.dtype == np.float32

    def test_item_requires_single_element(self):
        assert Tensor.full((1, 1, 1, 1), 2.5).item() == 2.5
        with pytest.raises(DimensionError):
            Tensor.zeros((1, 2, 1, 1)).item()

    def test_from_flat_checks_count(self):
        t = Tensor.from_flat([1, 2, 3, 4, 5, 6], (1, 1, 2, 3))
        assert t.data[0, 0, 1, 2] == 6.0
        with pytest.raises(DimensionError):
            Tensor.from_flat([1, 2], (1, 1, 2, 3))


class TestAutodiff:
    def test_add_grads_are_ones(self):
        a = Tensor(np.full((1, 2, 2, 1), 3.0), requires_grad=True)
        b = Tensor(np.full((1, 2, 2, 1), 4.0), requires_grad=True)
        out = ewise_add(a, b)
        out.backward()
        assert np.array_equal(a.grad, np.ones((1, 2, 2, 1), dtype=np.float32))
        assert np.array_equal(b.grad, np.ones((1, 2, 2, 1), dtype=np.float32))

    def test_mul_product_rule(self):
        a = Tensor(np.array([[[[2.0, 3.0]]]]), requires_grad=True)
        b = Tensor(np.array([[[[5.0, 7.0]]]]), requires_grad=True)
        ewise_mul(a, b).backward()
        assert np.array_equal(a.grad, b.data)
        assert np.array_equal(b.grad, a.data)

    def test_one_minus_flips_sign(self):
        a = Tensor(np.full((1, 1, 1, 2), 0.25), requires_grad=True)
        one_minus(a).backward()
        assert np.array_equal(a.grad, np.full((1, 1, 1, 2), -1.0, dtype=np.float32))

    def test_shared_node_accumulates_once_per_path(self):
        # y = a*a + a: dy/da = 2a + 1, exercised through a diamond graph
        a = Tensor(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        y = ewise_add(ewise_mul(a, a), a)
        y.backward()
        assert a.grad[0, 0, 0, 0] == pytest.approx(7.0)

    def test_deep_chain_does_not_recurse(self):
        # iterative traversal must survive graphs deeper than any stack limit
        a = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        y = a
        for _ in range(5000):
            y = ewise_add(y, a)
        y.backward()
        assert a.grad[0, 0, 0, 0] == pytest.approx(5001.0)

    def test_broadcast_mul_sums_grad_over_spatial(self):
        x = Tensor(np.ones((2, 3, 4, 5)), requires_grad=True)
        s = Tensor(np.full((2, 3, 1, 1), 2.0), requires_grad=True)
        ewise_mul(x, s).backward()
        assert x.grad.shape == (2, 3, 4, 5)
        assert np.all(x.grad == 2.0)
        assert s.grad.shape == (2, 3, 1, 1)
        assert np.all(s.grad == 20.0)  # 4*5 ones summed per channel

    def test_mismatched_dims_raise(self):
        a = Tensor.zeros((1, 2, 3, 3))
        b = Tensor.zeros((1, 2, 3, 4))
        with pytest.raises(DimensionError):
            ewise_add(a, b)

    def test_no_grad_builds_no_graph(self):
        a = Tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        with no_grad():
            y = ewise_mul(a, a)
        assert y.requires_grad is False
        assert y._parents == ()

    def test_backward_seed_defaults_to_ones(self):
        a = Tensor(np.ones((1, 2, 1, 1)), requires_grad=True)
        ewise_add(a, a).backward()
        assert np.all(a.grad == 2.0)
        b = Tensor(np.ones((1, 2, 1, 1)), requires_grad=True)
        ewise_add(b, b).backward(seed=np.full((1, 2, 1, 1), 3.0, dtype=np.float32))
        assert np.all(b.grad == 6.0)
        with pytest.raises(DimensionError):
            ewise_add(b, b).backward(seed=np.ones((1, 1, 1, 1), dtype=np.float32))


def leaf(seed, dims):
    r = np.random.default_rng(seed)
    return Tensor(r.standard_normal(dims).astype(np.float32), requires_grad=True)


def conv(c_in, c_out, k, stride, pad):
    return ConvParams.he_init(c_in, c_out, k, stride, pad, Rng(7))


def fc_logits():
    w, b = he_fc(8, 3, Rng(8))
    return fully_connected(flatten(leaf(11, (4, 2, 2, 2))), w, b)


def with_itself(op):
    a = leaf(7, (1, 2, 2, 2))
    return op(a, a)


def shared_interior():
    y = relu(leaf(12, (1, 2, 3, 3)))  # an interior node with three consumers
    return ewise_add(ewise_mul(y, y), y)


# one small graph per op whose backward hands over or copies a gradient
HANDOVER_GRAPHS = {
    "conv2d_c1": lambda: conv2d(leaf(1, (2, 1, 9, 9)), conv(1, 3, 7, 2, 3)),
    "conv2d": lambda: conv2d(leaf(2, (2, 3, 5, 5)), conv(3, 4, 3, 1, 1)),
    "pwconv": lambda: pwconv(leaf(3, (2, 3, 2, 2)), conv(3, 2, 1, 1, 0)),
    "maxpool2d": lambda: maxpool2d(leaf(4, (2, 2, 5, 5)), 3, 2, 1),
    "batchnorm_train": lambda: batchnorm(leaf(5, (2, 3, 2, 2)), BnParams.init(3), "train"),
    "batchnorm_eval": lambda: batchnorm(leaf(5, (2, 3, 2, 2)), BnParams.init(3), "eval"),
    "relu": lambda: relu(leaf(6, (1, 2, 3, 3))),
    "sigmoid": lambda: sigmoid(leaf(6, (1, 2, 3, 3))),
    "gap": lambda: gap(leaf(6, (1, 2, 3, 3))),
    "mean_all": lambda: mean_all(leaf(6, (1, 2, 3, 3))),
    "flatten": lambda: flatten(leaf(6, (1, 2, 3, 3))),
    "fully_connected": fc_logits,
    "softmax_xent": lambda: softmax_xent(fc_logits(), np.array([0, 2, 1, 2]))[0],
    "ewise_add": lambda: ewise_add(leaf(7, (1, 2, 2, 2)), leaf(8, (1, 2, 2, 2))),
    "ewise_add_same": lambda: with_itself(ewise_add),
    "ewise_mul": lambda: ewise_mul(leaf(7, (1, 2, 2, 2)), leaf(8, (1, 2, 2, 2))),
    "ewise_mul_same": lambda: with_itself(ewise_mul),
    "ewise_mul_broadcast": lambda: ewise_mul(leaf(7, (1, 2, 2, 2)), leaf(8, (1, 2, 1, 1))),
    "one_minus": lambda: one_minus(leaf(7, (1, 2, 2, 2))),
    "center_crop": lambda: center_crop(leaf(9, (1, 2, 4, 4)), 2, 2),
    "concat_channels": lambda: concat_channels(leaf(9, (1, 2, 2, 2)), leaf(10, (1, 1, 2, 2))),
    "shared_interior": shared_interior,
}


def graph_nodes(root):
    """Every tensor reachable from root through the recorded parents."""
    seen, stack, nodes = set(), [root], []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    return nodes


class TestGradHandover:
    """A backward closure may hand a gradient it has just allocated to the
    tensor (accumulate_grad(..., fresh=True)) instead of having it copied.
    No handed-over array may be reachable from a second tensor or from the
    caller's seed, and backward keeps gradients on leaves only."""

    @pytest.mark.parametrize("name", list(HANDOVER_GRAPHS))
    def test_grads_own_their_memory(self, name):
        root = HANDOVER_GRAPHS[name]()
        nodes = graph_nodes(root)
        seed = np.random.default_rng(13).standard_normal(root.dims).astype(root.dtype)
        kept = seed.copy()
        root.backward(seed)
        assert np.array_equal(seed, kept)
        for t in nodes:
            if t._backward is None:
                assert (t.grad is not None) == t.requires_grad
            else:
                assert t.grad is None  # interior grads are dropped once passed on
        grads = [t.grad for t in nodes if t.grad is not None]
        assert grads
        for i, g in enumerate(grads):
            assert g.flags.writeable
            assert not np.shares_memory(g, seed)
            for other in grads[i + 1:]:
                assert not np.shares_memory(g, other)

    def test_leaf_root_copies_the_seed(self):
        x = leaf(14, (1, 1, 2, 2))
        seed = np.full(x.dims, 2.0, dtype=np.float32)
        x.backward(seed)
        assert np.array_equal(x.grad, seed) and not np.shares_memory(x.grad, seed)

    def test_second_backward_adds_into_leaf_grads(self):
        a = leaf(15, (1, 2, 2, 2))
        ewise_mul(a, a).backward()
        first = a.grad.copy()
        ewise_mul(a, a).backward()
        assert np.array_equal(a.grad, 2 * first)


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(42), Rng(42)
        assert np.array_equal(a.uniform(100), b.uniform(100))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform(50), Rng(2).uniform(50))

    def test_uniform_range(self):
        u = Rng(3).uniform(10000)
        assert u.min() >= 0.0 and u.max() < 1.0
        lo, hi = -2.0, 5.0
        v = Rng(3).uniform(1000, lo, hi)
        assert v.min() >= lo and v.max() < hi

    def test_normal_moments(self):
        """Box-Muller output should look standard normal in bulk."""
        z = Rng(11).normal(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
        assert abs((z ** 3).mean()) < 0.05

    def test_below_bounds_and_determinism(self):
        r = Rng(9)
        draws = [r.below(7) for _ in range(2000)]
        assert min(draws) == 0 and max(draws) == 6
        r2 = Rng(9)
        assert draws[:50] == [r2.below(7) for _ in range(50)]
        with pytest.raises(ParameterError):
            Rng(0).below(0)

    def test_shuffle_in_place_permutation(self):
        seq = list(range(20))
        out = Rng(4).shuffle(seq)
        assert out is None
        assert sorted(seq) == list(range(20))
        seq2 = list(range(20))
        Rng(4).shuffle(seq2)
        assert seq == seq2

    def test_spawn_streams_independent(self):
        root = Rng(7)
        a = root.spawn("conv", 0)
        b = root.spawn("conv", 1)
        assert not np.array_equal(a.uniform(20), b.uniform(20))
        # spawning does not advance the parent
        assert np.array_equal(Rng(7).uniform(10), root.uniform(10))

    def test_derive_seed_tag_order_matters(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert derive_seed(5, "fp") != derive_seed(5, "fv")
        assert derive_seed(5, "fp") == derive_seed(5, "fp")

