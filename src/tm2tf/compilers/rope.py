"""Rotary-positions prefix: recover binary position encodings via RoPE.

The stack carries no positional embeddings; instead query/key pairs are
rotated with an exponentially decaying frequency ladder. Divisibility
flags mod 2, 4, ... are extracted layer by layer and combined into the
LSB-first +-1 binary encoding of each absolute position.
"""

from __future__ import annotations

import math

from ..gadgets import (
    CompileReport,
    Flag,
    HeadSpec,
    ModelBuilder,
    RegisterLayout,
    selector_head,
    single_neuron,
)
from ..netcore import Dims, RotaryOnly, TransformerParams, check_dims

__all__ = ["build_rope_position_prefix", "rope_dims"]


def rope_dims(r: int) -> Dims:
    return Dims(
        d=2 * r + 3,
        d_k=2 * (r + 2) + 2,
        d_v=1,
        d_ff=3,
        n_heads=2,
        n_layers=r + 1,
    )


def _head(dims: Dims, name: str, q_parts: dict, k_parts: dict, value: Flag, out: Flag) -> HeadSpec:
    """q_parts/k_parts map a d_k row index to a list of (coord, sign) terms;
    the other rows are empty."""
    q_rows = [q_parts.get(row, []) for row in range(dims.d_k)]
    k_rows = [k_parts.get(row, []) for row in range(dims.d_k)]
    return selector_head(name, q_rows, k_rows, [value], out)


def build_rope_position_prefix(r: int) -> tuple[TransformerParams, CompileReport]:
    """Stack writing bin_r(i) into the "res" register for positions i < 2^r.

    Inputs must carry a constant coordinate 1 everywhere and a first-token
    marker flag; both come from the two vocabulary tokens "first" (used at
    position 0) and "rest".
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    dims = rope_dims(r)
    vocab = ["first", "rest"]
    check_dims(dims, len(vocab))
    # Frequency ladder 2pi/2, 2pi/4, ..., 2pi/2^(r+2); pairs (2s, 2s+1) of
    # the key-query space rotate, the final pair stays fixed.
    freqs = tuple(2.0 * math.pi / 2 ** s for s in range(1, r + 3))

    layout = RegisterLayout()
    f_const = layout.flag("const")
    f_first = layout.flag("firstpos")
    i_res = layout.register("res", r)
    f_mod = [layout.flag(f"mod_2^{k}") for k in range(1, r + 1)]  # f_mod[k-1]: 2^k | i
    f_ex = layout.flag("ex")

    def rot(s: int) -> int:  # first coordinate of rotated pair s (s in 1..r+2)
        return 2 * (s - 1)

    u1, u2 = 2 * (r + 2), 2 * (r + 2) + 1

    builder = ModelBuilder(layout, n_layers=dims.n_layers)
    builder.set_embedding("first", {f_const.coord: 1, f_first.coord: 1})
    builder.set_embedding("rest", {f_const.coord: 1})

    one = [(f_const.coord, 1)]
    first = [(f_first.coord, 1)]

    # Layer 1: f_mod[0] marks even positions (unique max at token 0 for even
    # queries; odd queries tie over odd positions whose value is 0).
    builder.add_head(
        1,
        _head(
            dims,
            "mod-2",
            {rot(1): one, u1: one},
            {rot(1): one, u1: first},
            f_first,
            f_mod[0],
        ),
    )
    # Layer k: f_mod[k-1] via the angle of position i at frequency 2pi/2^k.
    for k in range(2, r + 1):
        prev = [(f_mod[k - 2].coord, 1)]
        builder.add_head(
            k,
            _head(
                dims,
                f"mod-2^{k}",
                {rot(k): prev, u1: prev, u2: one},
                {rot(k): first, u1: first, u2: [(f_const.coord, 1), (f_first.coord, -1)]},
                f_first,
                f_mod[k - 1],
            ),
        )

    # Bit 0 comes directly from f_mod[0]: bin^0(i) = -1 on even positions.
    builder.add_neurons(
        2,
        [
            single_neuron([], [(f_mod[0], 1)], {i_res.coords[0]: -1}),
            single_neuron([], [(f_mod[0], 0)], {i_res.coords[0]: 1}),
        ],
        "bit-0",
    )

    # Bit k: attend to the latest position divisible by 2^k (cosine-sum
    # scoring over the slow frequencies) and extract its divisibility by
    # 2^(k+1); the bit is -1 exactly when that holds.
    for k in range(1, r):
        layer = k + 2
        q_parts = {u1: one, u2: one}
        k_parts = {
            u1: [(f_mod[k - 1].coord, 1)],
            u2: [(f_mod[k - 1].coord, 1)],
        }
        for s in range(k + 2, r + 3):
            q_parts[rot(s)] = one
            k_parts[rot(s)] = one
        builder.add_head(
            layer, _head(dims, f"bit-{k}-probe", q_parts, k_parts, f_mod[k], f_ex)
        )
        builder.add_neurons(
            layer,
            [
                single_neuron([], [(f_ex, 1)], {i_res.coords[k]: -1, f_ex.coord: -1}),
                single_neuron([], [(f_ex, 0)], {i_res.coords[k]: 1}),
            ],
            f"bit-{k}",
        )

    return builder.finalize(vocab, dims, RotaryOnly(freqs), "rope_prefix", r)
