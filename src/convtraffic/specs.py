"""Layer and network descriptions plus the shape algebra shared by every component.

Feature maps are plain numpy arrays of shape (maps, height, width); kernel
banks are arrays of shape (n_in, m_out, k, k). The dataclasses below carry
the static layer parameters and validate them on construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeError


def conv_out_dim(size: int, k: int, stride: int, pad: int) -> int:
    """Output extent of a convolution along one axis (floor convention)."""
    span = size + 2 * pad - k
    if span < 0:
        raise ShapeError(
            f"kernel side {k} exceeds padded input extent {size + 2 * pad}"
        )
    return span // stride + 1


def pool_out_dim(size: int, p: int, stride: int) -> int:
    """Output extent of a pooling stage along one axis."""
    if p > size:
        raise ShapeError(f"pooling window {p} overruns map extent {size}")
    return (size - p) // stride + 1


@dataclass(frozen=True)
class ConvSpec:
    """Convolution stage parameters: n input maps, m output maps, k x k kernels."""

    n: int
    m: int
    k: int
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ShapeError(f"input map count must be positive, got {self.n}")
        if self.m < 1:
            raise ShapeError(f"output map count must be positive, got {self.m}")
        if self.k < 1:
            raise ShapeError(f"kernel side must be positive, got {self.k}")
        if self.stride < 1:
            raise ShapeError(f"stride must be positive, got {self.stride}")
        if self.pad < 0:
            raise ShapeError(f"pad must be non-negative, got {self.pad}")
        if self.stride > self.k:
            # the line-buffer reuse model needs overlapping row bands
            raise ShapeError(
                f"stride {self.stride} larger than kernel side {self.k} is unsupported"
            )

    def out_dims(self, in_h: int, in_w: int) -> tuple[int, int]:
        return (
            conv_out_dim(in_h, self.k, self.stride, self.pad),
            conv_out_dim(in_w, self.k, self.stride, self.pad),
        )


@dataclass(frozen=True)
class PoolSpec:
    """Average-pooling stage: p x p window averaged, windows may overlap."""

    p: int
    stride: int

    def __post_init__(self):
        if self.p < 1:
            raise ShapeError(f"pooling window must be positive, got {self.p}")
        if not 1 <= self.stride <= self.p:
            raise ShapeError(
                f"pooling stride must lie in [1, p={self.p}], got {self.stride}"
            )

    def out_dims(self, in_h: int, in_w: int) -> tuple[int, int]:
        return pool_out_dim(in_h, self.p, self.stride), pool_out_dim(in_w, self.p, self.stride)


@dataclass(frozen=True)
class SuperLayerSpec:
    """One conv + optional activation + optional pooling cascade."""

    conv: ConvSpec
    input_h: int
    input_w: int
    has_act: bool = True
    pool: PoolSpec | None = None

    def __post_init__(self):
        if self.input_h < 1 or self.input_w < 1:
            raise ShapeError(
                f"input dims must be positive, got {self.input_h}x{self.input_w}"
            )
        self.out_dims()  # conv_out_dim and pool_out_dim reject an empty output

    def conv_out_dims(self) -> tuple[int, int]:
        return self.conv.out_dims(self.input_h, self.input_w)

    def out_dims(self) -> tuple[int, int]:
        """Dims leaving the super layer (after pooling when present)."""
        h, w = self.conv_out_dims()
        if self.pool is not None:
            return self.pool.out_dims(h, w)
        return h, w


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered super layers plus batch size and per-layer group counts.

    A group count g means the layer is replicated g times side by side:
    the per-group map counts are in ConvSpec, totals are g*n and g*m.
    """

    name: str
    batch: int
    layers: tuple[SuperLayerSpec, ...] = ()
    groups: tuple[int, ...] = ()

    def __post_init__(self):
        if self.batch < 1:
            raise ShapeError(f"batch must be positive, got {self.batch}")
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.groups:
            object.__setattr__(self, "groups", tuple(1 for _ in self.layers))
        else:
            object.__setattr__(self, "groups", tuple(self.groups))
        if len(self.groups) != len(self.layers):
            raise ShapeError(
                f"groups list has {len(self.groups)} entries for {len(self.layers)} layers"
            )
        for g in self.groups:
            if g < 1:
                raise ShapeError(f"group count must be positive, got {g}")
        for i in range(len(self.layers) - 1):
            cur, nxt = self.layers[i], self.layers[i + 1]
            out_maps = self.groups[i] * cur.conv.m
            in_maps = self.groups[i + 1] * nxt.conv.n
            if out_maps != in_maps:
                raise ShapeError(
                    f"layer {i + 1} feeds {out_maps} maps but layer {i + 2} expects {in_maps}"
                )
            oh, ow = cur.out_dims()
            if (oh, ow) != (nxt.input_h, nxt.input_w):
                raise ShapeError(
                    f"layer {i + 1} output {oh}x{ow} does not match "
                    f"layer {i + 2} input {nxt.input_h}x{nxt.input_w}"
                )


def check_maps(x: np.ndarray, maps: int, h: int, w: int, name: str = "maps") -> None:
    """Validate a feature-map array against expected (maps, h, w)."""
    if x.ndim != 3:
        raise ShapeError(f"{name}: expected 3 axes (maps, height, width), got {x.ndim}")
    if x.shape[0] != maps:
        raise ShapeError(f"{name}: maps axis is {x.shape[0]}, expected {maps}")
    if x.shape[1] != h:
        raise ShapeError(f"{name}: height axis is {x.shape[1]}, expected {h}")
    if x.shape[2] != w:
        raise ShapeError(f"{name}: width axis is {x.shape[2]}, expected {w}")


# Bytes of one block on the checked path, an eighth of a core's 2 MiB L2: the
# simulator's row chunks, the reference's contraction blocks and verify's
# draw and error-check blocks are all this size.
CHUNK_BYTES = 2**18


def window_view(maps: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Every k x k window of (n_maps, H, W) maps at stride `stride` on both
    axes, as one read-only (n_maps, out_h, out_w, k, k) view over the maps'
    own strides. A C- or F-contiguous base is wrapped as a buffer, at about a
    third of as_strided's cost; any other base goes through as_strided."""
    n, h, w = maps.shape
    sm, sh, sw = maps.strides
    shape = (n, (h - k) // stride + 1, (w - k) // stride + 1, k, k)
    strides = (sm, sh * stride, sw * stride, sh, sw)
    if not (maps.flags.c_contiguous or maps.flags.f_contiguous):
        return as_strided(maps, shape, strides, writeable=False)
    view = np.ndarray(shape, maps.dtype, buffer=maps, offset=0, strides=strides)
    view.flags.writeable = False
    return view


def check_kernels(ker: np.ndarray, spec: ConvSpec, name: str = "kernels") -> None:
    """Validate a kernel bank array against a ConvSpec."""
    if ker.ndim != 4:
        raise ShapeError(f"{name}: expected 4 axes (n, m, k, k), got {ker.ndim}")
    n, m, kh, kw = ker.shape
    if n != spec.n:
        raise ShapeError(f"{name}: input-map axis is {n}, expected {spec.n}")
    if m != spec.m:
        raise ShapeError(f"{name}: output-map axis is {m}, expected {spec.m}")
    if kh != spec.k or kw != spec.k:
        raise ShapeError(f"{name}: kernel side is {kh}x{kw}, expected {spec.k}x{spec.k}")


def _require(d: dict, key: str, path: str):
    if not isinstance(d, dict):
        raise ShapeError(f"'{path}' must be an object, got {d!r}")
    if key not in d:
        raise ShapeError(f"missing required key '{path}.{key}'")
    return d[key]


def _int_at(d: dict, key: str, path: str) -> int:
    v = _require(d, key, path)
    if not isinstance(v, int) or isinstance(v, bool):
        raise ShapeError(f"key '{path}.{key}' must be an integer, got {v!r}")
    return v


def network_from_dict(doc: dict) -> NetworkSpec:
    if not isinstance(doc, dict):
        raise ShapeError(f"a network document must be an object, got {type(doc).__name__}")
    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise ShapeError(f"key '.name' must be a string, got {name!r}")
    batch = _int_at(doc, "batch", "")
    raw_layers = _require(doc, "layers", "")
    if not isinstance(raw_layers, list):
        raise ShapeError(f"key '.layers' must be a list, got {raw_layers!r}")
    if not raw_layers:
        raise ShapeError("key '.layers' must list at least one layer")
    layers: list[SuperLayerSpec] = []
    groups: list[int] = []
    prev_dims: tuple[int, int] | None = None
    for i, entry in enumerate(raw_layers):
        path = f"layers[{i}]"
        conv_doc = _require(entry, "conv", path)
        conv = ConvSpec(
            n=_int_at(conv_doc, "n", f"{path}.conv"),
            m=_int_at(conv_doc, "m", f"{path}.conv"),
            k=_int_at(conv_doc, "k", f"{path}.conv"),
            stride=_int_at(conv_doc, "stride", f"{path}.conv"),
            pad=_int_at(conv_doc, "pad", f"{path}.conv"),
        )
        if "input_h" in entry or "input_w" in entry:
            in_h = _int_at(entry, "input_h", path)
            in_w = _int_at(entry, "input_w", path)
        elif prev_dims is not None:
            in_h, in_w = prev_dims
        else:
            raise ShapeError(f"missing required key '{path}.input_h' on first layer")
        pool = None
        if entry.get("pool") is not None:
            pool_doc = entry["pool"]
            pool = PoolSpec(
                p=_int_at(pool_doc, "p", f"{path}.pool"),
                stride=_int_at(pool_doc, "stride", f"{path}.pool"),
            )
        has_act = entry.get("act", True)
        if not isinstance(has_act, bool):
            raise ShapeError(f"key '{path}.act' must be true or false, got {has_act!r}")
        layer = SuperLayerSpec(
            conv=conv,
            input_h=in_h,
            input_w=in_w,
            has_act=has_act,
            pool=pool,
        )
        layers.append(layer)
        groups.append(_int_at(entry, "groups", path) if "groups" in entry else 1)
        prev_dims = layer.out_dims()
    return NetworkSpec(name=name, batch=batch, layers=tuple(layers), groups=tuple(groups))
