"""DFA recognition without chain-of-thought: binary-tree state aggregation.

Each input token initially encodes the transition function of its symbol
as a function table over states. Doubling attention hops compose these
tables until every position holds the composite transition of its whole
prefix; the last layer maps the resulting state to True/False.
"""

from __future__ import annotations

from ..automata import BOS, FALSE, TRUE, Dfa
from ..gadgets import (
    CompileReport,
    ModelBuilder,
    RegisterLayout,
    compose_function_encoding,
    enc_table,
    selector_head,
    single_neuron,
    sub_pow2,
    zero_register,
)
from ..netcore import BinaryAbsolute, Dims, TransformerParams, check_dims

__all__ = ["compile_dfa", "dfa_dims"]


def dfa_dims(dfa: Dfa, r: int) -> Dims:
    n_q = len(dfa.states)
    d_q = (n_q - 1).bit_length()  # ceil(log2 n_q)
    d_sigma = (len(dfa.alphabet) - 1).bit_length()
    return Dims(
        d=2 * r + 2 * n_q * d_q + d_sigma + 1,
        d_k=r,
        d_v=n_q * d_q,
        # Layer 1 builds |Sigma| + 1 init-enc rows and 4r posex-init rows.
        d_ff=max(4 * n_q * d_q + 2 * n_q * n_q * d_q + 6 * r, len(dfa.alphabet) + 1 + 4 * r),
        n_heads=1,
        n_layers=r + 2,
    )


def compile_dfa(dfa: Dfa, r: int) -> tuple[TransformerParams, CompileReport]:
    """Emit a hardmax recognizer for words of length up to 2^r - 1."""
    if r < 1:
        raise ValueError("r must be >= 1")
    # Order states with the initial state first: the first encoding block of
    # the accumulated function table is then the prefix's final state.
    states = (dfa.q_init,) + tuple(q for q in dfa.states if q != dfa.q_init)
    n_q = len(states)
    d_q = (n_q - 1).bit_length()
    d_sigma = (len(dfa.alphabet) - 1).bit_length()
    enc_q = enc_table(states)
    enc_sigma = enc_table(dfa.alphabet)
    dims = dfa_dims(dfa, r)
    vocab = [BOS, TRUE, FALSE] + list(dfa.alphabet)
    check_dims(dims, len(vocab))

    layout = RegisterLayout()
    i_pos = layout.register("pos", r)
    i_enc = layout.register("enc", n_q * d_q)
    i_enc_ex = layout.register("enc_ex", n_q * d_q)
    i_sym = layout.register("sym", d_sigma)
    f_bos = layout.flag("bos")
    i_pos_ex = layout.register("pos_ex", r)

    def enc_fn(fn: dict[str, str]) -> dict[int, int]:
        """i_enc's coordinates written with enc(fn(q)) for each state q in order."""
        return dict(zip(i_enc.coords, (v for q in states for v in enc_q[fn[q]])))

    builder = ModelBuilder(layout, n_layers=dims.n_layers)

    for sigma in dfa.alphabet:
        builder.set_embedding(sigma, dict(zip(i_sym.coords, enc_sigma[sigma])))
    builder.set_embedding(BOS, {f_bos.coord: 1})

    # Layer 1: write enc(delta(., sigma)) per symbol, enc(identity) at <bos>,
    # and the first decremented position.
    init_neurons = []
    for sigma in dfa.alphabet:
        table = {q: dfa.delta[(q, sigma)] for q in states}
        out = enc_fn(table)
        if d_sigma > 0:
            gate_regs = [(i_sym, enc_sigma[sigma])]
            gate_flags = []
        else:
            gate_regs = []
            gate_flags = [(f_bos, 0)]  # lone symbol: anything that is not <bos>
        init_neurons.append(single_neuron(gate_regs, gate_flags, out))
    init_neurons.append(single_neuron([], [(f_bos, 1)], enc_fn({q: q for q in states})))
    builder.add_neurons(1, init_neurons, "init-enc")
    builder.add_neurons(1, sub_pow2(i_pos, i_pos_ex, 0, []), "posex-init")

    # Layers k+2: extract the table 2^k back, compose, advance the offset.
    for k in range(r):
        layer = k + 2
        builder.add_head(
            layer,
            selector_head(f"fetch-2^{k}", [i_pos_ex], [i_pos], [i_enc], i_enc_ex),
        )
        # Each zero-and-rewrite pair is one op: its writes add up.
        builder.add_neurons(
            layer,
            [compose_function_encoding(i_enc, i_enc_ex, n_q, d_q), zero_register(i_enc, [])],
            f"compose-2^{k}",
        )
        builder.add_neurons(layer, zero_register(i_enc_ex, []), f"zero-encex-2^{k}")
        if k < r - 1:
            builder.add_neurons(
                layer,
                [zero_register(i_pos_ex, []), sub_pow2(i_pos, i_pos_ex, k + 1, [])],
                f"posex-2^{k + 1}",
            )
        else:
            builder.add_neurons(layer, zero_register(i_pos_ex, []), f"zero-posex-2^{k}")

    # Final layer: map the accumulated initial-state image to +-1 in coord 0.
    answer = []
    first_block = i_enc[0:d_q]
    for q in states:
        sign = 1 if q in dfa.accepting else -1
        answer.append(single_neuron([(first_block, enc_q[q])], [], {0: sign}))
    builder.add_neurons(dims.n_layers, [*answer, zero_register(i_pos[0:1], [])], "answer")
    builder.set_unembedding(TRUE, {0: 1})
    builder.set_unembedding(FALSE, {0: -1})

    return builder.finalize(vocab, dims, BinaryAbsolute(r, i_pos.coords), "compile_dfa", r)
