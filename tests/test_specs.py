import pytest

from convtraffic.errors import ShapeError
from convtraffic.specs import (
    ConvSpec,
    NetworkSpec,
    PoolSpec,
    SuperLayerSpec,
    conv_out_dim,
    pool_out_dim,
)


class TestShapeAlgebra:
    def test_same_padding_layer2(self):
        assert conv_out_dim(27, 5, 1, 2) == 27

    def test_stride4_floor(self):
        assert conv_out_dim(224, 11, 4, 2) == 55

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(ShapeError):
            conv_out_dim(3, 5, 1, 0)

    def test_pool_chain(self):
        assert pool_out_dim(55, 3, 2) == 27
        assert pool_out_dim(27, 3, 2) == 13
        assert pool_out_dim(13, 3, 2) == 6

    def test_pool_window_overrun(self):
        with pytest.raises(ShapeError):
            pool_out_dim(2, 3, 1)


class TestSpecValidation:
    def test_conv_rejects_bad_fields(self):
        for kwargs in (
            dict(n=0, m=1, k=1),
            dict(n=1, m=0, k=1),
            dict(n=1, m=1, k=0),
            dict(n=1, m=1, k=2, stride=0),
            dict(n=1, m=1, k=2, pad=-1),
            dict(n=1, m=1, k=2, stride=3),
        ):
            with pytest.raises(ShapeError):
                ConvSpec(**kwargs)

    def test_pool_rejects_bad_stride(self):
        with pytest.raises(ShapeError):
            PoolSpec(2, 3)
        with pytest.raises(ShapeError):
            PoolSpec(2, 0)

    def test_super_layer_requires_positive_output(self):
        with pytest.raises(ShapeError):
            SuperLayerSpec(ConvSpec(1, 1, 3), 5, 5, pool=PoolSpec(4, 1))

    def test_network_validates_adjacency(self, alexnet):
        layers = list(alexnet.layers)
        with pytest.raises(ShapeError, match="maps"):
            NetworkSpec("bad", 1, tuple(layers), (1, 1, 1, 2, 2))

    def test_network_validates_dims(self, alexnet):
        layers = list(alexnet.layers)
        layers[1] = SuperLayerSpec(layers[1].conv, 28, 28, True, layers[1].pool)
        with pytest.raises(ShapeError, match="output"):
            NetworkSpec("bad", 1, tuple(layers), alexnet.groups)

    def test_alexnet_layer_dims(self, alexnet):
        dims = [layer.conv_out_dims() for layer in alexnet.layers]
        assert dims == [(55, 55), (27, 27), (13, 13), (13, 13), (13, 13)]
        outs = [layer.out_dims() for layer in alexnet.layers]
        assert outs == [(27, 27), (13, 13), (13, 13), (13, 13), (6, 6)]
