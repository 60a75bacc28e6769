"""Turing machine to transformer compilation (CoT and SCoT variants).

The emitted model autoregressively writes the machine's run: one run token
per step, a head-position block after every r run tokens, then the output
block. Head positions are reconstructed by collecting block bits and
propagating movements; symbols are fetched with a binary search for the
latest write at the queried cell. The SCoT variant adds segment summaries:
tape contents with hatted head cells plus the state, emitted once the
trace reaches three times the prompt length.

Layer indices follow the proof schedule: bit collection ends at
L1 = r/2 + 1, movement propagation at L2 = L1 + r + 2, symbol extraction
at L3 = L2 + r + 1, output logic in the final four layers.
"""

from __future__ import annotations

import bisect
import itertools
import math

from ..automata import (
    EINP,
    EOUTP,
    ESUMM,
    INP,
    OUTP,
    PCLOSE,
    POPEN,
    SUMM,
    TuringMachine,
    cot_vocab,
    parse_pos_token,
    parse_run_token,
    parse_state_token,
    parse_tape_token,
    scot_vocab,
    tm_to_json,
    token_class,
)
from ..gadgets import (
    ENC_MOVES,
    CompileReport,
    ModelBuilder,
    Neurons,
    RegisterLayout,
    add_head_movement,
    bin_pm1,
    copy_register,
    enc_table,
    full_subtract,
    selector_head,
    single_neuron,
    sub_pow2,
    sub_pow2_inplace,
    zero_register,
)
from ..netcore import BinaryAbsolute, Dims, TransformerParams, check_dims

__all__ = [
    "choose_r_cot",
    "choose_r_scot",
    "cot_dims",
    "scot_dims",
    "compile_cot",
    "compile_scot",
    "instantiate_capacity",
]


def choose_r_cot(t_hat: int) -> int:
    """Smallest even r from the CoT length bound: toks fit 2^r when t <= t_hat."""
    if t_hat < 1:
        raise ValueError("t_hat must be >= 1")
    return 2 * math.ceil(0.5 * math.log2(4 + 6 * t_hat))


def choose_r_scot(s_hat: int) -> int:
    """Even r making every SCoT segment (<= 8(s_hat+3) tokens) fit 2^r."""
    if s_hat < 1:
        raise ValueError("s_hat must be >= 1")
    return max(4, 2 * math.ceil(0.5 * math.log2(8 * (s_hat + 3))))


def _tm_dims(scot: bool, tapes: int, n_states: int, n_symbols: int, r: int) -> Dims:
    """The CoT or SCoT model's size for a machine of these counts. d_ff is
    the transition layer's rows (one per (state, symbols) table entry, plus
    those it needs besides), or the widest of the other layers, whose rows
    grow with r, if that is more. It counts the halting state's |Γ|^K
    entries, which get no rows, so that d_ff, which theorem c and
    `instantiate_capacity` read, stays the bound |Q|·|Γ|^K of the counts."""
    k = tapes
    d_q = (n_states - 1).bit_length()
    d_g = (n_symbols - 1).bit_length()
    transitions = n_states * n_symbols ** k
    if scot:
        d = 7 * k * r + 9 * r + 5 * d_q + (4 * k + 1) * d_g + 13 * k + 31
        d_ff = max(22 * r + 11, 18 * k * r + 2 * r + 1, transitions + 4 * k * d_g + 4 * k + 1)
    else:
        d = 6 * k * r + 6 * r + 3 * d_q + (3 * k + 1) * d_g + 10 * k + 21
        d_ff = max(18 * r + 2, 14 * k * r + 2 * r, transitions + 1)
    return Dims(
        d=d,
        d_k=4 * r - 1,
        d_v=max(r, d_q, d_g),
        d_ff=d_ff,
        n_heads=3 * k + 2 if scot else 3 * k,
        n_layers=5 * r // 2 + 8,
    )


def cot_dims(tm: TuringMachine, r: int) -> Dims:
    return _tm_dims(False, tm.tapes, len(tm.states), len(tm.tape_alphabet), r)


def scot_dims(tm: TuringMachine, r: int) -> Dims:
    return _tm_dims(True, tm.tapes, len(tm.states), len(tm.tape_alphabet), r)


def _last_fitting(values: range, budget: int, size) -> int:
    """The last of `values` whose size, nondecreasing along them, is within
    the budget, or 0 if none is."""
    fitting = bisect.bisect_right(values, budget, key=size)
    return values[fitting - 1] if fitting else 0


def instantiate_capacity(
    l_budget: int,
    d_k_budget: int,
    d_budget: int,
    d_ff_budget: int,
    construction: str = "cot",
) -> dict:
    """Largest even r per budget, read off `_tm_dims`, and the most states a
    machine of each size can have within the d_ff budget at that r. The
    context is 2^r. A row lists no states (max_states 0, d_used None,
    fits_d False) where no machine compiles: r below the compilers'
    minimum of 4, fewer than the 2 states a machine needs (distinct init and
    halt), or the d_ff floor at r over budget."""
    if min(l_budget, d_k_budget, d_budget, d_ff_budget) < 1:
        raise ValueError("budgets must be >= 1")
    if construction not in ("cot", "scot"):
        raise ValueError("construction must be cot or scot")
    scot = construction == "scot"
    # depth and d_k depend on r alone, so any machine sizes them
    r_depth = _last_fitting(
        range(0, l_budget + 1, 2), l_budget, lambda r: _tm_dims(scot, 1, 2, 2, r).n_layers
    )
    r_dk = _last_fitting(
        range(0, d_k_budget + 1, 2), d_k_budget, lambda r: _tm_dims(scot, 1, 2, 2, r).d_k
    )
    r = min(r_depth, r_dk)
    rows = []
    for tapes, gamma in itertools.product((1, 2, 3), (2, 4, 10)):
        max_states, d_used = 0, None
        if r >= 4:
            max_states = _last_fitting(
                range(2, d_ff_budget + 1),
                d_ff_budget,
                lambda q: _tm_dims(scot, tapes, q, gamma, r).d_ff,
            )
        if max_states:
            d_used = _tm_dims(scot, tapes, max_states, gamma, r).d
        rows.append(
            {
                "tapes": tapes,
                "gamma": gamma,
                "max_states": max_states,
                "d_used": d_used,
                "fits_d": d_used is not None and d_used <= d_budget,
            }
        )
    return {
        "construction": construction,
        "r_from_depth": r_depth,
        "r_from_d_k": r_dk,
        "r": r,
        "machines": rows,
    }


class _TmCompiler:
    def __init__(self, tm: TuringMachine, r: int, scot: bool):
        if r % 2 != 0:
            raise ValueError("r must be even")
        if r < 4:  # a CoT run holds at least 5 tokens, an SCoT run more
            raise ValueError(f"the {'SCoT' if scot else 'CoT'} construction needs r >= 4")
        self.tm = tm
        self.r = r
        self.scot = scot
        self.K = tm.tapes
        self.enc_q = enc_table(tm.states)
        self.enc_g = enc_table(tm.tape_alphabet)
        self.d_q = len(self.enc_q[tm.q_init])
        self.d_g = len(self.enc_g[tm.blank])
        self.dims = (scot_dims if scot else cot_dims)(tm, r)
        self.vocab = scot_vocab(tm) if scot else cot_vocab(tm)
        check_dims(self.dims, len(self.vocab))
        self.L1 = r // 2 + 1
        self.L2 = self.L1 + r + 2
        self.L3 = self.L2 + r + 1

    # -- layout ------------------------------------------------------------

    def _allocate(self) -> None:
        lay = RegisterLayout()
        r, K = self.r, self.K
        self.i_pos = lay.register("pos", r)
        self.f_inp = lay.flag("inp")
        self.f_einp = lay.flag("einp")
        self.f_outp = lay.flag("outp")
        self.f_eoutp = lay.flag("eoutp")
        self.f_popen = lay.flag("popen")
        self.f_pclose = lay.flag("pclose")
        self.f_run = lay.flag("run")
        self.f_sym = lay.flag("sym")
        self.f_postok = lay.flag("postok")
        self.i_posbit = [lay.register(f"posbit{k}", 1) for k in range(K)]
        self.i_state = lay.register("state", self.d_q)
        self.i_sym = [lay.register(f"sym{k}", self.d_g) for k in range(K)]
        self.i_move = [lay.register(f"move{k}", 2) for k in range(K)]
        self.f_const = lay.flag("const")
        self.f_exists_outp = lay.flag("exists_outp")
        self.f_input = lay.flag("input")
        self.f_output = lay.flag("output")
        self.f_notinp = lay.flag("notinp")
        self.i_searchpos = [lay.register(f"searchpos{k}", r) for k in range(K)]
        self.i_spos = [lay.register(f"spos{k}", r) for k in range(K)]
        self.i_pos_outp = lay.register("pos_outp", r)
        self.i_pos1 = lay.register("pos1", r)
        self.i_pos2 = lay.register("pos2", r)
        self.i_bits_ex1 = [lay.register(f"bits_ex1_{k}", 1) for k in range(K)]
        self.i_bits_ex2 = [lay.register(f"bits_ex2_{k}", 1) for k in range(K)]
        self.i_pos_minus = lay.register("pos_minus", r)
        self.i_hpos_minus = [lay.register(f"hpos_minus{k}", r) for k in range(K)]
        self.i_pos_sym = [lay.register(f"pos_sym{k}", r) for k in range(K)]
        self.i_pos_max = [lay.register(f"pos_max{k}", r) for k in range(K)]
        self.f_exist = [lay.flag(f"exist{k}") for k in range(K)]
        self.f_exists_high = [lay.flag(f"exists_high{k}") for k in range(K)]
        self.i_sym_ex = [lay.register(f"sym_ex{k}", self.d_g) for k in range(K)]
        self.i_hpos_p = [lay.register(f"hpos_p{k}", r) for k in range(K)]
        self.i_pos_scan = lay.register("pos_scan", r)  # the looping decrement
        self.i_nextbit = [lay.register(f"nextbit{k}", 1) for k in range(K)]
        self.f_to_pclose = lay.flag("to_pclose")
        self.i_state_ex = lay.register("state_ex", self.d_q)
        self.f_halt = lay.flag("halt")
        self.f_lastrun = lay.flag("lastrun")
        self.f_to_popen = lay.flag("to_popen")
        self.i_state_new = lay.register("state_new", self.d_q)
        self.i_sym_new = [lay.register(f"sym_new{k}", self.d_g) for k in range(K)]
        self.i_move_new = [lay.register(f"move_new{k}", 2) for k in range(K)]
        self.run_new = (self.i_state_new, self.i_sym_new, self.i_move_new)
        self.f_blank = lay.flag("blank")
        self.f_to_eoutp = lay.flag("to_eoutp")
        self.f_to_sigma = lay.flag("to_sigma")
        self.i_newsym_sigma = lay.register("newsym_sigma", self.d_g)

        if self.scot:
            self.f_summ = lay.flag("summ")
            self.f_esumm = lay.flag("esumm")
            self.f_tape = lay.flag("tape")
            self.f_q = lay.flag("qtok")
            self.f_head = [lay.flag(f"head{k}") for k in range(K)]
            self.f_exists_einp = lay.flag("exists_einp")
            self.f_exists_esumm = lay.flag("exists_esumm")
            self.f_finalsumm = lay.flag("finalsumm")
            self.f_tape_init = lay.flag("tape_init")
            self.f_tape_fin = lay.flag("tape_fin")
            self.i_pos_promptend = lay.register("pos_promptend", r)
            self.f_bit_equal = [lay.flag(f"bit_equal{s}") for s in range(r - 2)]
            self.f_lengthcap = lay.flag("lengthcap")
            self.f_to_summ = lay.flag("to_summ")
            self.i_pos_summ = lay.register("pos_summ", r)
            self.i_state_fin = lay.register("state_fin", self.d_q)
            self.i_hpos_fin = [lay.register(f"hpos_fin{k}", r) for k in range(K)]
            self.f_head_next = [lay.flag(f"head_next{k}") for k in range(K)]
            # Holds "nothing left to write": 1 at the summary token that must
            # emit the state token instead of another tape token.
            self.f_summary_done = lay.flag("summary_done")
            self.i_sym_next = [lay.register(f"sym_next{k}", self.d_g) for k in range(K)]
            self.i_head_next = [lay.register(f"head_next_bit{k}", 1) for k in range(K)]
            self.i_state_fin_out = lay.register("state_fin_out", self.d_q)

        self.layout = lay
        self.b = ModelBuilder(lay, n_layers=self.dims.n_layers)
        group = [
            self.f_inp,
            self.f_einp,
            self.f_outp,
            self.f_eoutp,
            self.f_popen,
            self.f_pclose,
            self.f_run,
            self.f_postok,
            self.f_input,
            self.f_output,
        ]
        if self.scot:
            group += [
                self.f_esumm,
                self.f_finalsumm,
                self.f_tape_init,
                self.f_tape_fin,
                self.f_q,
            ]
        self.b.declare_exclusive(group)

    # -- embeddings and unembeddings ----------------------------------------

    def _run_code(self, step, regs) -> dict[int, int]:
        """The +-1 code of a run step (state, written symbols, moves) on the
        (state, symbol, move) registers regs: every coordinate gets a weight."""
        (q, writes, moves), (state, syms, move) = step, regs
        code = dict(zip(state.coords, self.enc_q[q]))
        for k in range(self.K):
            code.update(zip(syms[k].coords, self.enc_g[writes[k]]))
            code.update(zip(move[k].coords, ENC_MOVES[moves[k]]))
        return code

    def _tokens(self) -> None:
        """Each token's embedding, and its unembedding: the coordinates the
        last layer sets on the tokens where it must be emitted."""
        b, tm = self.b, self.tm
        # The flag a delimiter sets when read, and the flag that selects it.
        reads = {
            INP: self.f_inp,
            EINP: self.f_einp,
            OUTP: self.f_outp,
            EOUTP: self.f_eoutp,
            POPEN: self.f_popen,
            PCLOSE: self.f_pclose,
        }
        emits = {
            OUTP: self.f_halt,
            POPEN: self.f_to_popen,
            PCLOSE: self.f_to_pclose,
            EOUTP: self.f_to_eoutp,
        }
        if self.scot:
            reads.update({SUMM: self.f_summ, ESUMM: self.f_esumm})
            emits.update({SUMM: self.f_to_summ, ESUMM: self.f_q})
        # The search positions that start at 0: each tape's head at </inp>,
        # the output offset at <outp>.
        searches = {EINP: self.i_searchpos, OUTP: self.i_searchpos[:1]}
        for tok in self.vocab:
            emb, unemb = {self.f_const.coord: 1}, {}
            if tok != INP:
                emb[self.f_notinp.coord] = 1
            cls = token_class(tok)
            if cls == "delim":
                emb[reads[tok].coord] = 1
                if tok in emits:
                    unemb[emits[tok].coord] = 1
                if tok == EINP:
                    emb.update(zip(self.i_state.coords, self.enc_q[tm.q_init]))
                for reg in searches.get(tok, []):
                    emb.update(zip(reg.coords, bin_pm1(self.r, 0)))
            elif cls == "sym":
                emb[self.f_sym.coord] = 1
                emb.update(zip(self.i_sym[0].coords, self.enc_g[tok]))
                unemb.update(zip(self.i_newsym_sigma.coords, self.enc_g[tok]))
            elif cls == "run":
                step = parse_run_token(tok)
                emb[self.f_run.coord] = 1
                if step[0] == tm.q_halt:
                    emb[self.f_halt.coord] = 1
                emb.update(self._run_code(step, (self.i_state, self.i_sym, self.i_move)))
                unemb.update(self._run_code(step, self.run_new))
            elif cls == "pos":
                emb[self.f_postok.coord] = 1
                for k, bit in enumerate(parse_pos_token(tok)):
                    emb[self.i_posbit[k].coords[0]] = bit
                    unemb[self.i_nextbit[k].coords[0]] = bit
            elif cls == "tape":
                emb[self.f_tape.coord] = 1
                for k, (sym, hat) in enumerate(zip(*parse_tape_token(tok))):
                    emb.update(zip(self.i_sym[k].coords, self.enc_g[sym]))
                    unemb.update(zip(self.i_sym_next[k].coords, self.enc_g[sym]))
                    if hat:
                        emb[self.f_head[k].coord] = 1
                    unemb[self.i_head_next[k].coords[0]] = 1 if hat else -1
            else:  # a state token
                q = parse_state_token(tok)
                emb[self.f_q.coord] = 1
                emb.update(zip(self.i_state.coords, self.enc_q[q]))
                unemb.update(zip(self.i_state_fin_out.coords, self.enc_q[q]))
            b.set_embedding(tok, emb)
            b.set_unembedding(tok, unemb)

    def _flag_op(self, layer: int, label: str, *rules) -> None:
        """One MLP op of flag-gated neurons, one per (gates, outputs) rule."""
        self.b.add_neurons(layer, [single_neuron([], gates, out) for gates, out in rules], label)

    # -- named heads ---------------------------------------------------------

    def _broadcast_head(self, layer: int, name: str, marker, reg) -> None:
        """Send reg from the unique marker token to all later tokens; marker
        is a flag or a list of (coord, sign) pairs."""
        self.b.add_head(
            layer,
            selector_head(
                name, [self.f_const, marker, marker], [marker, self.f_inp, self.f_inp], [reg], reg
            ),
        )

    def _lookup(self, layer: int, name: str, at, value, out) -> None:
        """Copy value from the token whose position equals register at."""
        self.b.add_head(layer, selector_head(name, [at], [self.i_pos], [value], out))

    def _exists(self, layer: int, name: str, flag, out) -> None:
        """Set out to 1 on each token that is or follows a token with flag set."""
        self.b.add_head(layer, selector_head(name, [self.f_const], [flag], [flag], out))

    # -- layer 1 -------------------------------------------------------------

    def _layer1(self) -> None:
        b = self.b
        self._exists(1, "exists-outp", self.f_outp, self.f_exists_outp)
        self._flag_op(
            1,
            "mark-input-output",
            ([(self.f_sym, 1), (self.f_exists_outp, 0)], {self.f_input.coord: 1}),
            ([(self.f_sym, 1), (self.f_exists_outp, 1)], {self.f_output.coord: 1}),
        )
        b.add_neurons(
            1,
            sub_pow2(
                self.i_pos,
                self.i_spos[0],
                0,
                [(self.f_sym, 1), (self.f_exists_outp, 0)],
            ),
            "spos-input",
        )
        b.add_neurons(
            1,
            copy_register(self.i_pos, self.i_pos_outp, [(self.f_outp, 1)]),
            "pos-outp-copy",
        )
        b.add_neurons(1, sub_pow2(self.i_pos, self.i_pos1, 0, []), "pos1-init")
        b.add_neurons(1, sub_pow2(self.i_pos, self.i_pos2, 1, []), "pos2-init")
        b.add_neurons(1, sub_pow2(self.i_pos, self.i_pos_minus, 0, []), "pos-minus-init")

        if self.scot:
            self._exists(1, "exists-einp", self.f_einp, self.f_exists_einp)
            self._exists(1, "exists-esumm", self.f_esumm, self.f_exists_esumm)
            no_prompt_end = [(self.f_exists_einp, 0), (self.f_exists_esumm, 0)]
            self._flag_op(
                1,
                "segment-structure",
                ([(self.f_summ, 1), (self.f_exists_einp, 1)], {self.f_finalsumm.coord: 1}),
                ([(self.f_summ, 1), (self.f_exists_esumm, 1)], {self.f_finalsumm.coord: 1}),
                # A prompt-leading <summ> plays the role of <inp>.
                (
                    [(self.f_summ, 1)] + no_prompt_end,
                    {self.f_inp.coord: 1, self.f_notinp.coord: -1},
                ),
                ([(self.f_tape, 1)] + no_prompt_end, {self.f_tape_init.coord: 1}),
                ([(self.f_tape, 1), (self.f_exists_einp, 1)], {self.f_tape_fin.coord: 1}),
                ([(self.f_tape, 1), (self.f_exists_esumm, 1)], {self.f_tape_fin.coord: 1}),
            )
            for flag in (self.f_einp, self.f_esumm):
                b.add_neurons(
                    1,
                    copy_register(self.i_pos, self.i_pos_promptend, [(flag, 1)]),
                    f"promptend-{flag.name}",
                )

    # -- layer 2 -------------------------------------------------------------

    def _layer2(self) -> None:
        b, r, K = self.b, self.r, self.K
        self._broadcast_head(2, "broadcast-outp-pos", self.f_outp, self.i_pos_outp)
        b.add_neurons(
            2,
            copy_register(self.i_pos, self.i_searchpos[0], [(self.f_output, 1)]),
            "searchpos-output-copy",
        )
        for k in range(K):
            b.add_neurons(
                2,
                copy_register(self.i_pos, self.i_pos_sym[k], [(self.f_run, 1)]),
                f"pos-sym-run-{k}",
            )
        b.add_neurons(
            2,
            copy_register(self.i_pos, self.i_pos_sym[0], [(self.f_input, 1)]),
            "pos-sym-input",
        )
        if self.scot:
            prompt_end = [(self.f_einp.coord, 1), (self.f_esumm.coord, 1)]
            self._broadcast_head(2, "broadcast-promptend", prompt_end, self.i_pos_promptend)
            for k in range(K):
                b.add_neurons(
                    2,
                    sub_pow2(self.i_pos, self.i_spos[k], 0, [(self.f_tape_init, 1)]),
                    f"spos-tape-{k}",
                )
                b.add_neurons(
                    2,
                    copy_register(self.i_pos, self.i_pos_sym[k], [(self.f_tape_init, 1)]),
                    f"pos-sym-tape-{k}",
                )
            b.add_neurons(
                2,
                copy_register(self.i_pos, self.i_pos_summ, [(self.f_finalsumm, 1)]),
                "pos-summ-copy",
            )
            eq_neurons = []
            for s in range(r - 2):
                for sign in (1, -1):
                    eq_neurons.append(
                        single_neuron(
                            [
                                (self.i_pos[s + 2 : s + 3], (sign,)),
                                (self.i_pos_promptend[s : s + 1], (sign,)),
                            ],
                            [],
                            {self.f_bit_equal[s].coord: 1},
                        )
                    )
            b.add_neurons(2, eq_neurons, "bit-equal")

    # -- position-block bit collection: layers 2..L1 -------------------------

    def _collection(self) -> None:
        b, r, K = self.b, self.r, self.K
        # The zeroing and decrement blocks are the same in every layer.
        zeros = [
            Neurons.join(
                [zero_register(self.i_bits_ex1[k], []), zero_register(self.i_bits_ex2[k], [])]
            )
            for k in range(K)
        ]
        pos1_dec = sub_pow2_inplace(self.i_pos1, 1, [])
        pos2_dec = sub_pow2_inplace(self.i_pos2, 1, [])
        for j in range(1, r // 2 + 1):
            layer = j + 1
            for k in range(K):
                bit = self.i_posbit[k]
                self._lookup(layer, f"collect1-{j}-{k}", self.i_pos1, bit, self.i_bits_ex1[k])
                self._lookup(layer, f"collect2-{j}-{k}", self.i_pos2, bit, self.i_bits_ex2[k])
                b.add_neurons(
                    layer,
                    copy_register(
                        self.i_bits_ex1[k],
                        self.i_searchpos[k][r - 2 * j + 1 : r - 2 * j + 2],
                        [(self.f_pclose, 1)],
                    ),
                    f"collect-copy1-{j}-{k}",
                )
                b.add_neurons(
                    layer,
                    copy_register(
                        self.i_bits_ex2[k],
                        self.i_searchpos[k][r - 2 * j : r - 2 * j + 1],
                        [(self.f_pclose, 1)],
                    ),
                    f"collect-copy2-{j}-{k}",
                )
                b.add_neurons(layer, zeros[k], f"collect-zero-{j}-{k}")
            b.add_neurons(layer, pos1_dec, f"pos1-dec-{j}")
            b.add_neurons(layer, pos2_dec, f"pos2-dec-{j}")

    # -- SCoT layers 3 and 4 --------------------------------------------------

    def _scot_prompt_layers(self) -> None:
        b, r, K = self.b, self.r, self.K
        esumm_q = [self.f_esumm, self.f_esumm, self.f_const]
        for k in range(K):
            b.add_head(
                3,
                selector_head(
                    f"hat-extract-{k}",
                    esumm_q,
                    [self.f_head[k], self.f_head[k], self.f_inp],
                    [self.i_spos[k]],
                    self.i_searchpos[k],
                ),
            )
        b.add_head(
            3,
            selector_head(
                "state-extract-esumm",
                esumm_q,
                [self.f_q, self.f_q, self.f_inp],
                [self.i_state],
                self.i_state,
            ),
        )
        self._broadcast_head(3, "broadcast-summ-pos", self.f_finalsumm, self.i_pos_summ)
        cap_patterns = [(f, 1) for f in self.f_bit_equal]
        b.add_neurons(
            3,
            [
                single_neuron(
                    [
                        (self.i_pos[0:2], (-1, -1)),
                        (self.i_pos_promptend[r - 2 : r], (-1, -1)),
                    ],
                    cap_patterns,
                    {self.f_lengthcap.coord: 1},
                )
            ],
            "lengthcap",
        )
        for k in range(K):
            for flag, tag in ((self.f_finalsumm, "fs"), (self.f_tape_fin, "tf")):
                b.add_neurons(
                    3,
                    copy_register(self.i_pos, self.i_searchpos[k], [(flag, 1)]),
                    f"summary-offset-copy-{tag}-{k}",
                )
        self._broadcast_head(4, "broadcast-lengthcap", self.f_lengthcap, self.f_lengthcap)
        self._flag_op(
            4,
            "to-summ",
            (
                [(self.f_run, 1), (self.f_lengthcap, 1), (self.f_halt, 0)],
                {self.f_to_summ.coord: 1},
            ),
        )

    # -- subtraction pipelines ------------------------------------------------

    def _subtractions(self) -> None:
        b = self.b
        stages = full_subtract(self.i_pos_outp, self.i_searchpos[0], self.f_output)
        for s, stage in enumerate(stages):
            b.add_neurons(
                3 + s,
                stage,
                f"output-offset-sub-{s}",
            )
        if self.scot:
            for k in range(self.K):
                for flag, tag in ((self.f_finalsumm, "fs"), (self.f_tape_fin, "tf")):
                    stages = full_subtract(self.i_pos_summ, self.i_searchpos[k], flag)
                    for s, stage in enumerate(stages):
                        b.add_neurons(
                            4 + s,
                            stage,
                            f"summary-offset-sub-{tag}-{k}-{s}",
                        )

    # -- head position propagation: layers L1+1..L1+r+1 ------------------------

    def _propagation(self) -> None:
        b, r, K = self.b, self.r, self.K
        # Each tape's move, <p> and clear blocks are the same in every layer.
        blocks = []
        for k in range(K):
            hpos, hpos_minus = self.i_searchpos[k], self.i_hpos_minus[k]
            move = Neurons.join(
                [
                    add_head_movement(hpos_minus, hpos, self.i_move[k], self.f_run),
                    zero_register(hpos, [(self.f_run, 1)]),
                ]
            )
            popen = Neurons.join(
                [
                    copy_register(hpos_minus, hpos, [(self.f_popen, 1)]),
                    zero_register(hpos, [(self.f_popen, 1)]),
                ]
            )
            blocks.append((move, popen, zero_register(hpos_minus, [])))
        for j in range(1, r + 2):
            layer = self.L1 + j
            for k, (move, popen, clear) in enumerate(blocks):
                hpos, hpos_minus = self.i_searchpos[k], self.i_hpos_minus[k]
                self._lookup(layer, f"prop-fetch-{j}-{k}", self.i_pos_minus, hpos, hpos_minus)
                b.add_neurons(layer, move, f"prop-move-{j}-{k}")
                b.add_neurons(layer, popen, f"prop-popen-{j}-{k}")
                if j <= r:
                    b.add_neurons(layer, clear, f"prop-clear-{j}-{k}")

    # -- layer L2 ---------------------------------------------------------------

    def _layer_l2(self) -> None:
        b, K = self.b, self.K
        for k in range(K):
            b.add_neurons(
                self.L2,
                copy_register(self.i_hpos_minus[k], self.i_spos[k], [(self.f_run, 1)]),
                f"spos-run-{k}",
            )
            b.add_neurons(
                self.L2,
                copy_register(self.i_searchpos[k], self.i_hpos_p[k], [(self.f_popen, 1)]),
                f"hpos-p-copy-{k}",
            )
            b.add_neurons(
                self.L2,
                copy_register(
                    self.i_searchpos[k][0:1], self.i_nextbit[k], [(self.f_popen, 1)]
                ),
                f"nextbit-popen-{k}",
            )
        b.add_neurons(self.L2, sub_pow2(self.i_pos, self.i_pos_scan, 0, []), "pos-scan-init")
        if self.scot:
            for k in range(K):
                hpos, fin = self.i_searchpos[k], self.i_hpos_fin[k]
                self._lookup(self.L2, f"fin-hpos-{k}", self.i_pos_minus, hpos, fin)
            self._lookup(self.L2, "fin-state", self.i_pos_minus, self.i_state, self.i_state_fin)

    # -- symbol search: layers L2+1..L3 -----------------------------------------

    def _symbol_search(self) -> None:
        b, r, K = self.b, self.r, self.K
        ones = (self.f_const, r - 1)
        for k in range(K):
            b.add_head(
                self.L2 + 1,
                selector_head(
                    f"exist-{k}",
                    [self.i_searchpos[k], ones],
                    [self.i_spos[k], (self.f_inp, r - 1)],
                    [self.f_notinp],
                    self.f_exist[k],
                ),
            )
        for j in range(r):
            layer = self.L2 + 1 + j
            bit = r - 1 - j
            for k in range(K):
                q_parts = [
                    self.i_searchpos[k],
                    (self.f_const, r + j),
                    self.f_const,
                    self.i_pos_max[k][bit + 1 : r],
                ]
                k_parts = [
                    self.i_spos[k],
                    (self.f_inp, r + j),
                    self.i_pos_sym[k][bit:r],
                ]
                b.add_head(
                    layer,
                    selector_head(
                        f"bsearch-{j}-{k}", q_parts, k_parts, [self.f_notinp], self.f_exists_high[k]
                    ),
                )
                high, pos_bit = self.f_exists_high[k], self.i_pos_max[k].coords[bit]
                self._flag_op(
                    layer,
                    f"bsearch-bit-{j}-{k}",
                    ([(high, 1)], {pos_bit: 1}),
                    ([(high, 0), (self.f_exist[k], 1)], {pos_bit: -1}),
                    ([(high, 1)], {high.coord: -1}),
                )

    # -- the position-block emission machinery: layers L2+1..L2+r ----------------

    def _pos_block_machinery(self) -> None:
        b, r, K = self.b, self.r, self.K
        scan_dec = sub_pow2_inplace(self.i_pos_scan, 0, [])
        for p in range(1, r):
            layer = self.L2 + p
            for k in range(K):
                bit, out = self.i_hpos_p[k][p : p + 1], self.i_nextbit[k]
                self._lookup(layer, f"nextbit-fetch-{p}-{k}", self.i_pos_scan, bit, out)
            b.add_neurons(layer, scan_dec, f"pos-scan-dec-{p}")
        # The r'th run token of a chunk must emit <p>: look r-1 back for a run
        # token.
        self._lookup(self.L2 + r - 1, "lastrun", self.i_pos_scan, self.f_run, self.f_lastrun)
        self._flag_op(
            self.L2 + r - 1,
            "to-popen",
            ([(self.f_lastrun, 1), (self.f_run, 1), (self.f_halt, 0)], {self.f_to_popen.coord: 1}),
        )
        self._lookup(self.L2 + r, "to-pclose", self.i_pos_scan, self.f_popen, self.f_to_pclose)
        b.add_neurons(self.L2 + r, sub_pow2_inplace(self.i_pos_scan, 1, []), "pos-scan-dec-2")
        if self.scot:
            # Clear the <p> emission when the length cap fires the summary.
            self._flag_op(
                self.L3,
                "to-popen-clear",
                ([(self.f_to_popen, 1), (self.f_to_summ, 1)], {self.f_to_popen.coord: -1}),
            )

    # -- SCoT final-summary machinery ---------------------------------------------

    def _scot_summary_write(self) -> None:
        b, r, K = self.b, self.r, self.K
        for k in range(K):
            b.add_neurons(
                self.L2 + 1,
                zero_register(self.i_hpos_fin[k], [(self.f_finalsumm, 0)]),
                f"fin-hpos-clear-{k}",
            )
        b.add_neurons(
            self.L2 + 1,
            zero_register(self.i_state_fin, [(self.f_finalsumm, 0)]),
            "fin-state-clear",
        )
        self._broadcast_head(self.L2 + 2, "broadcast-fin-state", self.f_finalsumm, self.i_state_fin)
        for k in range(K):
            b.add_head(
                self.L2 + 2,
                selector_head(
                    f"head-next-{k}",
                    [self.i_searchpos[k], (self.f_const, r - 1)],
                    [self.i_hpos_fin[k], (self.f_inp, r - 1)],
                    [self.f_notinp],
                    self.f_head_next[k],
                ),
            )
        done_flags = [(f, 0) for f in self.f_exist] + [(f, 0) for f in self.f_head_next]
        self._flag_op(
            self.L2 + 3,
            "summary-done",
            (done_flags + [(self.f_finalsumm, 1)], {self.f_summary_done.coord: 1}),
            (done_flags + [(self.f_tape_fin, 1)], {self.f_summary_done.coord: 1}),
        )
        b.add_neurons(
            self.L2 + 4,
            copy_register(self.i_state_fin, self.i_state_fin_out, [(self.f_summary_done, 1)]),
            "state-out-copy",
        )

    # -- extraction layer L3 ---------------------------------------------------

    def _extraction_layer(self) -> None:
        b, K = self.b, self.K
        for k in range(K):
            b.add_head(
                self.L3,
                selector_head(
                    f"extract-sym-{k}",
                    [self.i_pos_max[k], self.f_const],
                    [self.i_pos_sym[k], self.f_inp],
                    [self.i_sym[k]],
                    self.i_sym_ex[k],
                ),
            )
        self._lookup(self.L3, "extract-state", self.i_pos_scan, self.i_state, self.i_state_ex)
        blank_enc = self.enc_g[self.tm.blank]
        blank_fill = []
        for k in range(K):
            gates = [(self.f_exist[k], 0), (self.f_popen, 0), (self.f_postok, 0), (self.f_input, 0)]
            out = dict(zip(self.i_sym_ex[k].coords, blank_enc))
            blank_fill.append(single_neuron([], gates, out))
        b.add_neurons(self.L3, blank_fill, "blank-fill")
        b.add_neurons(
            self.L3,
            copy_register(self.i_state_ex, self.i_state, [(self.f_pclose, 1)]),
            "state-pclose-copy",
        )

    # -- transition layer L3+1 ---------------------------------------------------

    def _transition_layer(self) -> None:
        b, K, tm = self.b, self.K, self.tm
        layer = self.L3 + 1
        neurons = []
        # One row per delta entry, none for the halting state: on a halting
        # run token the new state, symbols and moves stay 0.
        table = itertools.product(tm.states, itertools.product(tm.tape_alphabet, repeat=K))
        for q, syms in (entry for entry in table if entry in tm.delta):
            pats = [(self.i_state, self.enc_q[q])]
            for k in range(K):
                pats.append((self.i_sym_ex[k], self.enc_g[syms[k]]))
            out = self._run_code(tm.delta[(q, syms)], self.run_new)
            neurons.append(single_neuron(pats, [], out))
        b.add_neurons(layer, neurons, "transition")
        b.add_neurons(
            layer,
            [
                single_neuron(
                    [(self.i_sym_ex[0], self.enc_g[tm.blank])], [], {self.f_blank.coord: 1}
                )
            ],
            "blank-flag",
        )
        if self.scot:
            emit_gates = [
                [(self.f_finalsumm, 1), (self.f_summary_done, 0)],
                [(self.f_tape_fin, 1), (self.f_summary_done, 0)],
            ]
            for k in range(K):
                for gi, gates in enumerate(emit_gates):
                    b.add_neurons(
                        layer,
                        copy_register(self.i_sym_ex[k], self.i_sym_next[k], gates),
                        f"sym-next-copy-{gi}-{k}",
                    )
                    head, bit = self.f_head_next[k], self.i_head_next[k].coords[0]
                    self._flag_op(
                        layer,
                        f"head-next-bit-{gi}-{k}",
                        (gates + [(head, 1)], {bit: 1}),
                        (gates + [(head, 0)], {bit: -1}),
                    )

    # -- output logic layers L3+2..L ----------------------------------------------

    def _output_layers(self) -> None:
        b = self.b
        self._flag_op(
            self.L3 + 2,
            "to-eoutp",
            ([(self.f_outp, 1), (self.f_blank, 1)], {self.f_to_eoutp.coord: 1}),
            ([(self.f_output, 1), (self.f_blank, 1)], {self.f_to_eoutp.coord: 1}),
        )
        # Zero what the transition layer wrote where no run token comes next
        # (after a halting one it wrote nothing). The cases are exclusive
        # through the halt and to_popen bits (to_popen is cleared when to_summ
        # fires); the explicit run/qtok gating makes the disjointness checkable.
        zero_targets = [self.i_state_new] + self.i_sym_new + self.i_move_new
        gate_sets = [("popen", [(self.f_to_popen, 1), (self.f_halt, 0), (self.f_run, 1)])]
        if self.scot:
            gate_sets.append(
                (
                    "summ",
                    [
                        (self.f_to_summ, 1),
                        (self.f_to_popen, 0),
                        (self.f_halt, 0),
                        (self.f_run, 1),
                    ],
                )
            )
            gate_sets.append(("qtok", [(self.f_q, 1)]))
        for tag, gates in gate_sets:
            neurons = []
            for reg in zero_targets:
                neurons.append(zero_register(reg, gates))
            b.add_neurons(
                self.L3 + 2,
                neurons,
                f"suppress-transition-{tag}",
            )
        self._flag_op(
            self.L3 + 3,
            "to-sigma",
            ([(self.f_exists_outp, 1), (self.f_to_eoutp, 0)], {self.f_to_sigma.coord: 1}),
        )
        b.add_neurons(
            self.L3 + 4,
            copy_register(self.i_sym_ex[0], self.i_newsym_sigma, [(self.f_to_sigma, 1)]),
            "newsym-copy",
        )

    # -- assembly --------------------------------------------------------------------

    def build(self) -> tuple[TransformerParams, CompileReport]:
        self._allocate()
        self._tokens()
        self._layer1()
        self._layer2()
        self._collection()
        if self.scot:
            self._scot_prompt_layers()
        self._subtractions()
        self._propagation()
        self._layer_l2()
        self._symbol_search()
        self._pos_block_machinery()
        if self.scot:
            self._scot_summary_write()
        self._extraction_layer()
        self._transition_layer()
        self._output_layers()

        params, report = self.b.finalize(
            self.vocab,
            self.dims,
            BinaryAbsolute(self.r, self.i_pos.coords),
            "compile_scot" if self.scot else "compile_cot",
            self.r,
        )
        params.meta["machine"] = tm_to_json(self.tm)  # what a decode drafts from
        return params, report


def compile_cot(tm: TuringMachine, r: int) -> tuple[TransformerParams, CompileReport]:
    """Hardmax transformer generating toks(M, w, r) via CoT for fitting
    inputs; its meta.machine is `tm_to_json(tm)`."""
    return _TmCompiler(tm, r, scot=False).build()


def compile_scot(tm: TuringMachine, r: int) -> tuple[TransformerParams, CompileReport]:
    """Hardmax transformer generating the SCoT segments for fitting inputs;
    its meta.machine is `tm_to_json(tm)`."""
    return _TmCompiler(tm, r, scot=True).build()
