import numpy as np
import pytest

from convtraffic.errors import ConfigError, GradcheckError, ShapeError
from convtraffic.reference import (
    RE_PROBES,
    act_backward,
    act_forward,
    conv_backward_delta,
    conv_forward,
    finite_diff_gradient,
    kernel_gradient,
    pool_backward,
    pool_forward,
    super_backward_delta,
    super_forward,
)
from convtraffic.specs import ConvSpec, PoolSpec, SuperLayerSpec

from conftest import brute_conv, brute_pool


class TestConvForward:
    def test_identity_kernel(self):
        x = np.arange(9, dtype=np.float32).reshape(1, 3, 3)
        ker = np.ones((1, 1, 1, 1), dtype=np.float32)
        y = conv_forward(x, ker, ConvSpec(1, 1, 1))
        assert np.array_equal(y, x)

    def test_all_ones_2x2_kernel_frozen(self):
        # brute-force oracle value, frozen
        x = np.arange(1, 10, dtype=np.float64).reshape(1, 3, 3)
        ker = np.ones((1, 1, 2, 2), dtype=np.float64)
        spec = ConvSpec(1, 1, 2)
        y = conv_forward(x, ker, spec)
        assert np.array_equal(y[0], np.array([[12.0, 16.0], [24.0, 28.0]]))
        assert np.array_equal(y, brute_conv(x, ker, spec))

    def test_layer2_shape(self):
        rng = np.random.default_rng(0)
        spec = ConvSpec(48, 128, 5, stride=1, pad=2)
        x = rng.standard_normal((48, 27, 27)).astype(np.float32)
        ker = rng.standard_normal((48, 128, 5, 5)).astype(np.float32)
        assert conv_forward(x, ker, spec).shape == (128, 27, 27)

    def test_matches_brute_oracle_with_padding_and_stride(self):
        rng = np.random.default_rng(3)
        spec = ConvSpec(2, 3, 3, stride=2, pad=1)
        x = rng.standard_normal((2, 7, 7))
        ker = rng.standard_normal((2, 3, 3, 3))
        assert np.allclose(conv_forward(x, ker, spec), brute_conv(x, ker, spec), atol=1e-12)

    def test_shape_error_names_axis(self):
        x = np.zeros((2, 4, 4), dtype=np.float32)
        ker = np.zeros((3, 1, 2, 2), dtype=np.float32)
        with pytest.raises(ShapeError, match="maps axis"):
            conv_forward(x, ker, ConvSpec(3, 1, 2))
        with pytest.raises(ShapeError, match="kernel side"):
            conv_forward(np.zeros((3, 4, 4)), np.zeros((3, 1, 3, 3)), ConvSpec(3, 1, 2))


class TestActForward:
    def test_sign_cases(self):
        x = np.array([[[-1.0, 0.0, 2.0]]], dtype=np.float32)
        assert np.array_equal(act_forward(x), [[[0.0, 0.0, 2.0]]])

    def test_all_negative_goes_zero(self):
        x = -np.ones((2, 3, 3), dtype=np.float32)
        assert np.array_equal(act_forward(x), np.zeros_like(x))

    def test_all_positive_identity(self):
        x = np.full((2, 3, 3), 1.5, dtype=np.float32)
        assert np.array_equal(act_forward(x), x)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5, 5)).astype(np.float32)
        once = act_forward(x)
        assert np.array_equal(act_forward(once), once)


class TestPoolForward:
    def test_shape_27_to_13(self):
        x = np.zeros((1, 27, 27), dtype=np.float32)
        assert pool_forward(x, PoolSpec(3, 2)).shape == (1, 13, 13)

    def test_mean_of_window(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        assert np.array_equal(pool_forward(x, PoolSpec(2, 2)), [[[2.5]]])

    def test_constant_preserved(self):
        x = np.full((2, 5, 5), 3.25, dtype=np.float32)
        y = pool_forward(x, PoolSpec(3, 2))
        assert np.allclose(y, 3.25)

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 9, 9))
        assert np.allclose(pool_forward(x, PoolSpec(3, 2)), brute_pool(x, 3, 2), atol=1e-12)

    def test_window_overrun_rejected(self):
        with pytest.raises(ShapeError, match="overruns"):
            pool_forward(np.zeros((1, 2, 2)), PoolSpec(3, 1))


class TestSuperForward:
    def test_layer2_group_shapes(self):
        rng = np.random.default_rng(0)
        layer = SuperLayerSpec(ConvSpec(48, 128, 5, 1, 2), 27, 27, True, PoolSpec(3, 2))
        x = rng.standard_normal((48, 27, 27)).astype(np.float32)
        ker = rng.standard_normal((48, 128, 5, 5)).astype(np.float32)
        out, pre = super_forward(x, ker, layer)
        assert out.shape == (128, 13, 13)
        assert pre.shape == (128, 27, 27)

    def test_no_pool_keeps_conv_dims(self):
        layer = SuperLayerSpec(ConvSpec(1, 2, 3, 1, 1), 5, 5, True, None)
        out, pre = super_forward(
            np.ones((1, 5, 5), dtype=np.float32), np.ones((1, 2, 3, 3), np.float32), layer
        )
        assert out.shape == pre.shape == (2, 5, 5)

    def test_nonnegative_conv_makes_act_identity(self):
        rng = np.random.default_rng(2)
        layer = SuperLayerSpec(ConvSpec(1, 1, 2), 4, 4, True, PoolSpec(2, 1))
        x = rng.uniform(0.1, 1.0, (1, 4, 4))
        ker = rng.uniform(0.1, 1.0, (1, 1, 2, 2))
        out, pre = super_forward(x, ker, layer)
        assert np.allclose(out, pool_forward(pre, layer.pool))


class TestConvBackwardDelta:
    def test_1x1_transpose(self):
        d = np.arange(4, dtype=np.float64).reshape(1, 2, 2)
        ker = np.full((1, 1, 1, 1), 2.5)
        dx = conv_backward_delta(d, ker, ConvSpec(1, 1, 1))
        assert np.array_equal(dx, 2.5 * d)

    def test_layer2_shape_roundtrip(self):
        rng = np.random.default_rng(0)
        spec = ConvSpec(48, 128, 5, 1, 2)
        d = rng.standard_normal((128, 27, 27)).astype(np.float32)
        ker = rng.standard_normal((48, 128, 5, 5)).astype(np.float32)
        assert conv_backward_delta(d, ker, spec).shape == (48, 27, 27)

    def test_adjoint_small_case(self):
        rng = np.random.default_rng(11)
        spec = ConvSpec(1, 1, 2)
        x = rng.standard_normal((1, 3, 3))
        ker = rng.standard_normal((1, 1, 2, 2))
        d = rng.standard_normal((1, 2, 2))
        lhs = float(np.sum(conv_forward(x, ker, spec) * d))
        rhs = float(np.sum(x * conv_backward_delta(d, ker, spec)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_stride_rejected(self):
        with pytest.raises(ConfigError, match="stride 1"):
            conv_backward_delta(
                np.zeros((1, 2, 2)), np.zeros((1, 1, 2, 2)), ConvSpec(1, 1, 2, stride=2)
            )

    def test_pad_rejected(self):
        # a pad above k-1 would give the transposed conv a negative pad
        with pytest.raises(ConfigError, match="exceeds k-1=1"):
            conv_backward_delta(
                np.zeros((1, 4, 4)), np.zeros((1, 1, 2, 2)), ConvSpec(1, 1, 2, pad=2)
            )


class TestActBackward:
    def test_positive_passthrough(self):
        d = np.ones((1, 2, 2))
        assert np.array_equal(act_backward(d, np.full((1, 2, 2), 3.0)), d)

    def test_negative_blocks(self):
        d = np.ones((1, 2, 2))
        assert np.array_equal(act_backward(d, np.full((1, 2, 2), -3.0)), np.zeros((1, 2, 2)))

    def test_zero_pre_activation_blocks(self):
        d = np.ones((1, 1, 2))
        pre = np.array([[[0.0, 1.0]]])
        assert np.array_equal(act_backward(d, pre), [[[0.0, 1.0]]])

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            act_backward(np.zeros((1, 2, 2)), np.zeros((1, 3, 3)))


class TestPoolBackward:
    def test_quarter_spread(self):
        d = np.array([[[1.0]]])
        out = pool_backward(d, PoolSpec(2, 2), 2, 2)
        assert np.array_equal(out, np.full((1, 2, 2), 0.25))

    def test_zero_delta(self):
        out = pool_backward(np.zeros((2, 13, 13)), PoolSpec(3, 2), 27, 27)
        assert not out.any()

    def test_adjoint_overlapping(self):
        rng = np.random.default_rng(17)
        pool = PoolSpec(3, 2)
        x = rng.standard_normal((1, 27, 27))
        d = rng.standard_normal((1, 13, 13))
        lhs = float(np.sum(pool_forward(x, pool) * d))
        rhs = float(np.sum(x * pool_backward(d, pool, 27, 27)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            pool_backward(np.zeros((1, 5, 5)), PoolSpec(2, 2), 8, 8)


class TestSuperBackwardDelta:
    def test_bp_super_layer3_dims(self):
        # delta at the 384-map 13x13 grid propagates to the 256-map 27x27 grid
        rng = np.random.default_rng(0)
        conv3 = ConvSpec(256, 384, 3, 1, 1)
        layer2 = SuperLayerSpec(ConvSpec(48, 128, 5, 1, 2), 27, 27, True, PoolSpec(3, 2))
        d3 = rng.standard_normal((384, 13, 13)).astype(np.float32)
        ker3 = rng.standard_normal((256, 384, 3, 3)).astype(np.float32)
        pre2 = rng.standard_normal((256, 27, 27)).astype(np.float32)
        # the 256 maps entering conv3 are the full grouped output of layer 2
        layer2_full = SuperLayerSpec(
            ConvSpec(96, 256, 5, 1, 2), 27, 27, True, PoolSpec(3, 2)
        )
        d2 = super_backward_delta(d3, ker3, conv3, layer2_full, pre2)
        assert d2.shape == (256, 27, 27)

    def test_layer_without_pool(self):
        rng = np.random.default_rng(1)
        conv_next = ConvSpec(2, 3, 3, 1, 1)
        layer = SuperLayerSpec(ConvSpec(1, 2, 3, 1, 1), 5, 5, True, None)
        d = rng.standard_normal((3, 5, 5))
        ker = rng.standard_normal((2, 3, 3, 3))
        pre = rng.standard_normal((2, 5, 5))
        assert super_backward_delta(d, ker, conv_next, layer, pre).shape == (2, 5, 5)

    def test_composed_delta_matches_finite_differences(self):
        # two-super-layer toy: quadratic loss, delta at layer-1 conv output
        rng = np.random.default_rng(7)
        layer1 = SuperLayerSpec(ConvSpec(1, 2, 3, 1, 1), 6, 6, True, PoolSpec(2, 2))
        layer2 = SuperLayerSpec(ConvSpec(2, 1, 3, 1, 1), 3, 3, True, None)
        x = rng.standard_normal((1, 6, 6))
        k1 = rng.standard_normal((1, 2, 3, 3)) * 0.5
        k2 = rng.standard_normal((2, 1, 3, 3)) * 0.5

        def downstream(pre1):
            a = act_forward(pre1)
            pooled = pool_forward(a, layer1.pool)
            out, _ = super_forward(pooled, k2, layer2)
            return 0.5 * float(np.sum(out**2))

        pre1 = conv_forward(x, k1, layer1.conv)
        out2, pre2 = super_forward(pool_forward(act_forward(pre1), layer1.pool), k2, layer2)
        d2 = act_backward(out2, pre2)
        d1 = super_backward_delta(d2, k2, layer2.conv, layer1, pre1)

        eps = 1e-3
        fd = np.zeros_like(pre1)
        for idx in np.ndindex(pre1.shape):
            plus = pre1.copy()
            plus[idx] += eps
            minus = pre1.copy()
            minus[idx] -= eps
            fd[idx] = (downstream(plus) - downstream(minus)) / (2 * eps)
        scale = max(np.abs(fd).max(), 1e-12)
        assert np.abs(d1 - fd).max() / scale < 1e-3


class TestKernelUpdate:
    """The kernel gradient that kernel updating accumulates."""

    def test_single_term_hand_value(self):
        x = np.array([[[2.0]]])
        d = np.array([[[3.0]]])
        grad = kernel_gradient(x, d, ConvSpec(1, 1, 1))
        assert grad.shape == (1, 1, 1, 1) and grad[0, 0, 0, 0] == 6.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        spec = ConvSpec(2, 2, 3, stride=1, pad=1)
        x = rng.standard_normal((2, 5, 5))
        ker = rng.standard_normal((2, 2, 3, 3))
        target = rng.standard_normal((2, 5, 5))

        def loss(bank):
            y = conv_forward(x, bank, spec)
            return 0.5 * float(np.sum((y - target) ** 2))

        d = conv_forward(x, ker, spec) - target
        grad = kernel_gradient(x, d, spec)
        fd = finite_diff_gradient(loss, ker, 1e-3)
        assert np.abs(grad - fd).max() / max(np.abs(fd).max(), 1e-12) < 1e-3

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            kernel_gradient(np.zeros((1, 4, 4)), np.zeros((1, 4, 4)), ConvSpec(1, 1, 2))


class TestFiniteDiff:
    def test_quadratic_closed_form(self):
        # J = 0.5*sum(y^2) with a 1x1 conv: dJ/dw = sum(x * y) = w * sum(x^2)
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        spec = ConvSpec(1, 1, 1)

        def loss(bank):
            y = conv_forward(x, bank, spec)
            return 0.5 * float(np.sum(y**2))

        ker = np.array([[[[1.5]]]])
        fd = finite_diff_gradient(loss, ker, 1e-4)
        assert fd[0, 0, 0, 0] == pytest.approx(1.5 * float(np.sum(x**2)), rel=1e-6)

    def test_quadratic_convergence_in_epsilon(self):
        # smooth non-quadratic loss: the central-difference error drops ~4x per halving
        x = np.array([[[0.3, -0.4], [0.7, 0.1]]])
        spec = ConvSpec(1, 1, 1)
        ker = np.array([[[[0.8]]]])

        def loss(bank):
            y = conv_forward(x, bank, spec)
            return float(np.sum(np.exp(y)))

        truth = float(np.sum(x * np.exp(0.8 * x)))
        errors = []
        for eps in (8e-2, 4e-2, 2e-2):
            fd = finite_diff_gradient(loss, ker, eps)
            errors.append(abs(fd[0, 0, 0, 0] - truth))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.15)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.15)

    def test_zero_input_zero_gradient(self):
        x = np.zeros((1, 3, 3))
        spec = ConvSpec(1, 1, 2)

        def loss(bank):
            return 0.5 * float(np.sum(conv_forward(x, bank, spec) ** 2))

        fd = finite_diff_gradient(loss, np.ones((1, 1, 2, 2)), 1e-3)
        assert not fd.any()

    def test_probe_across_a_kink_is_probed_again(self):
        # J = max(0, w - c) with the kink 0.5e-3 above w: the 1e-3 probes span
        # it, the 1e-4 ones do not and see the flat side's zero gradient
        kink = 1.0 + 0.5e-3

        def loss(bank):
            return max(0.0, float(bank[0, 0, 0, 0]) - kink)

        def loss_and_side(bank):
            return loss(bank), bool(bank[0, 0, 0, 0] > kink)

        ker = np.ones((1, 1, 1, 1))
        assert finite_diff_gradient(loss, ker, 1e-3)[0, 0, 0, 0] == pytest.approx(0.25)
        assert finite_diff_gradient(loss_and_side, ker, 1e-3)[0, 0, 0, 0] == 0.0

    def test_probes_again_a_bounded_number_of_times(self):
        calls = []

        def loss(bank):  # a regime that never repeats
            calls.append(1)
            return 0.0, len(calls)

        finite_diff_gradient(loss, np.ones((1, 1, 1, 2)), 1e-3)
        assert len(calls) == 1 + 2 * 2 * (RE_PROBES + 1)

    def test_non_finite_loss_reported(self):
        def loss(bank):
            return float("nan")

        with pytest.raises(GradcheckError, match="non-finite"):
            finite_diff_gradient(loss, np.ones((1, 1, 1, 1)), 1e-3)
