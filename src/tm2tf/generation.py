"""Greedy autoregressive decoding and the CoT / SCoT protocols.

A CoT run extends the input block until </outp> appears. An SCoT run
iterates segments: a segment ending in </summ> has its summary block
(tape tokens, then one state token) promoted to the next prompt; a segment
ending in </outp> carries the output. Ill-formed generations become an
explicit "undefined" outcome with a machine-readable reason instead of
silently passing.
"""

from __future__ import annotations

from collections.abc import Callable
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from itertools import takewhile

import numpy as np

from .automata import (
    EINP,
    EOUTP,
    ESUMM,
    INP,
    MOVES,
    OUTP,
    SUMM,
    Configuration,
    TokenBudgetError,
    encode_summary,
    parse_run_token,
    parse_summary,
    parse_tape_token,
    pos_block,
    state_token,
    token_class,
)
from .netcore import (
    BinaryAbsolute,
    EvalConfig,
    EvalError,
    EvalPlan,
    Evaluator,
    TransformerParams,
)

__all__ = ["GenerationTrace", "generate", "run_cot", "run_scot"]


@dataclass
class GenerationTrace:
    segments: list[list[str]] = field(default_factory=list)
    outcome: str = "undefined"  # output | undefined | budget_exceeded
    output: list[str] | None = None
    reason: str | None = None
    total_tokens: int = 0  # t_T(w): all segment lengths summed
    max_segment: int = 0  # s_T(w): longest single segment
    tie_warnings: int = 0
    saturations: int = 0  # rounded elements beyond their format, all segments
    eval_traces: list = field(default_factory=list)
    records: list[dict] = field(default_factory=list)


# The plan of the `_run_segments` call in progress, on which `generate`
# builds each segment's evaluator, so that a run builds one plan. It is
# set for the call alone. It does not ride in `generate`'s arguments,
# which stay those of plain greedy decoding.
_RUN_PLAN: ContextVar[EvalPlan | None] = ContextVar("_RUN_PLAN", default=None)


def _context_room(params: TransformerParams, start: int, cap: int | None) -> int:
    """The positions from start on that the context holds, at most cap;
    for a model without binary positions, cap, or 4096 if cap is None."""
    if isinstance(params.positional, BinaryAbsolute):
        room = max(0, 2 ** params.positional.r - start)
        return room if cap is None else min(cap, room)
    return 4096 if cap is None else cap


def generate(
    params: TransformerParams,
    prompt: list[str],
    stop_set: set[str],
    max_steps: int,
    cfg: EvalConfig,
    propose: Callable[[list[str]], list[str]] | None = None,
) -> tuple[list[str], bool, Evaluator]:
    """Greedy extension until a stop token is emitted (inclusive).

    Returns (tokens, budget_exceeded, evaluator). The stop token itself is
    never fed back through the model.

    Where the evaluator runs a block in one step (`Evaluator._exact`),
    `propose(tokens)` gives the tokens expected to follow the run so far.
    It is asked once for the prompt, then after each greedy token that is
    not a standing proposal, and its tokens are fed with the prompt or that
    token as one block, up to the first stop token, the budget or the
    context. Each stands while it is the greedy token at its step. At the
    first that is not, the evaluator is truncated to the tokens that stand
    and fed that greedy token. The model is causal and such an evaluator
    sums exactly, so the tokens, the evaluator and its trace are the same
    for any proposal, right or wrong.

    Within a `run_cot` or `run_scot` call the evaluator multiplies that
    call's plan; otherwise it builds its own.
    """
    if not prompt:
        raise ValueError("prompt must be nonempty")
    if not stop_set:
        raise ValueError("stop_set must be nonempty")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    ev = Evaluator(params, cfg, plan=_RUN_PLAN.get())
    tokens, end = list(prompt), len(prompt) + max_steps
    # A block step that sums exactly costs little more than a one-position
    # step and gives each position the same bits.
    propose = propose if ev._exact else None
    first = [*prompt, *_proposal(params, propose, tokens, stop_set, end)]
    if cfg.capture_trace is not True:
        # Room for the next proposal too: a cache that grows copies what it
        # holds into new memory. Not in a full trace, whose dots buffer
        # grows with the square of its room.
        ev.reserve(min(end, len(first) + _PROPOSAL))
    ev.extend(first)
    for _ in range(max_steps):
        tok = ev.next_token(len(tokens) - 1)
        n = len(tokens)  # tok's index
        tokens.append(tok)
        if n < len(ev.tokens):
            if ev.tokens[n] == tok:
                continue  # a proposed token stands
            ev.truncate(n)  # the proposal is wrong from here on
        if tok in stop_set:
            return tokens, False, ev
        ev.extend([tok, *_proposal(params, propose, tokens, stop_set, end)])
    return tokens, True, ev


def _proposal(
    params: TransformerParams,
    propose: Callable[[list[str]], list[str]] | None,
    tokens: list[str],
    stop_set: set[str],
    end: int,
) -> list[str]:
    """The tokens that `propose` gives to follow `tokens` and greedy
    decoding could feed: before position end, within the context, before
    the first stop or unknown token; none without `propose`."""
    if propose is None:
        return []
    proposal = propose(tokens)[: _context_room(params, len(tokens), end - len(tokens))]
    return list(takewhile(lambda t: t not in stop_set and t in params._token_ids, proposal))


# The most tokens one proposal holds. Nearly every proposed token stands,
# so a long proposal saves steps; the cap bounds the positions that a miss,
# such as a <p> block proposed after the halting run token, drops.
_PROPOSAL = 32


@dataclass
class _Replay:
    """Where the replay of one segment stands, with the counters of
    `automata._segments`. `config` is None until an <inp> prompt's first
    run token shows the tape count; its cells never written hold None, and
    so does the initial state. In a phase that emits a block (p, summ,
    outp), `block` holds its tokens, None where the replay cannot know one,
    and `i` counts those emitted."""

    phase: str  # run | p | summ | outp | end
    config: Configuration | None
    word: list[str]
    trace_len: int = 0
    chunk: int = 0
    space: int = 0
    after_run: bool = False  # the last token was a run token
    block: list[str | None] = field(default_factory=list)
    i: int = 0

    def clone(self) -> _Replay:
        return replace(self, config=self.config and self.config.clone())


class _TraceDrafter:
    """Proposes a run's next tokens from its own Turing-machine configuration.

    One lives for one `_run_segments` call and nothing outlives it. It
    replays each segment as `automata._segments` writes it: the tapes and
    heads from the prompt, each run token's writes and moves, a <p> block
    after every r run tokens and, with summaries, a summary once the trace
    holds 3*(len(prompt) - 1) tokens. It records each δ entry, (state,
    symbols read) -> run token, the first time a run token shows it, and
    proposes what follows from the entries it has seen: run tokens, <p>
    blocks, summaries and, after <outp>, tape 1's word. A cell never
    written reads None, the blank, whose name it learns when a summary
    shows it. A token that it cannot parse or does not expect ends its
    proposals for the segment; it never raises. It catches up on the
    tokens lazily, when asked for a proposal, so a caller's expected
    segment that stands costs no replay.
    """

    def __init__(self, params: TransformerParams, summaries: bool):
        pos = params.positional
        self._r = pos.r if isinstance(pos, BinaryAbsolute) else None
        self._summaries = summaries
        self._vocab = params._token_ids
        self._inputs = {t for t in params.vocab if token_class(t) == "sym"}
        self._delta: dict[tuple, str] = {}
        self._blank: str | None = None
        self._prompt: list[str] = []
        self._expected: list[str] | None = None
        self._at: _Replay | None = None
        self._seen = 0

    def segment(
        self, prompt: list[str], expected: list[str] | None = None
    ) -> Callable[[list[str]], list[str]]:
        """The proposer of the segment that starts with `prompt`. While
        the run so far is a prefix of `expected`, a segment with its
        prompt, it proposes the rest of `expected`; after that, the
        replay's tokens."""
        self._prompt, self._at, self._seen = prompt, None, len(prompt)
        self._expected = expected
        return self.propose

    def propose(self, tokens: list[str]) -> list[str]:
        """The tokens that follow `tokens`, the segment so far: the rest of
        the expected segment, or up to _PROPOSAL from the replay."""
        expected, n = self._expected, len(tokens)
        if expected and n < len(expected) and expected[:n] == tokens:
            return expected[n:]
        self._expected = None  # the run has left it
        if self._at is None:
            self._at = self._start(self._prompt)
        at = self._at
        for tok in tokens[self._seen :]:
            if at.phase == "end":
                break
            if not self._advance(at, tok):
                at.phase = "end"
        self._seen = len(tokens)
        if at.phase == "end":
            return []
        ahead, proposal = at.clone(), []
        while len(proposal) < _PROPOSAL:
            tok = self._predict(ahead)
            if tok is None or not self._advance(ahead, tok):
                break
            proposal.append(tok)
        return proposal

    def _start(self, prompt: list[str]) -> _Replay:
        """The replay after a prompt: <inp> w </inp>, or a summary that
        `parse_summary` reads, as every promoted summary is."""
        self._cap = 3 * (len(prompt) - 1) if self._summaries else float("inf")
        if self._r is None:
            return _Replay("end", None, [])
        if prompt[0] == INP:
            return _Replay("run", None, prompt[1:-1], space=len(prompt) - 2)
        return _Replay("run", parse_summary(prompt[1:-1]), [], space=len(prompt) - 3)

    def _key(self, config: Configuration) -> tuple:
        """The δ key of a configuration: its state and the symbols read,
        None for a cell never written. A cell that a run token or a summary
        shows holding the blank reads its name instead, under another key
        for the same entry."""
        return config.state, config.read(None)

    def _predict(self, at: _Replay) -> str | None:
        """The token that must come next, or None if the replay cannot know it."""
        if at.phase == "run":
            return at.config and self._delta.get(self._key(at.config))
        if at.phase != "end" and at.i < len(at.block):
            return at.block[at.i]
        return None

    def _advance(self, at: _Replay, tok: str) -> bool:
        """Replay one token; False if the run cannot emit it here."""
        after_run, at.after_run = at.after_run, False
        if tok == OUTP and after_run and self._key(at.config) not in self._delta:
            # the run halted: a state with a δ entry is not the halting state
            output = takewhile(lambda s: s in self._inputs, at.config.tapes[0])
            at.phase, at.block, at.i = "outp", [OUTP, *output, EOUTP], 1
            return True
        if at.phase == "run":
            return token_class(tok) == "run" and self._step(at, tok)
        if at.phase == "end" or at.i >= len(at.block):
            return False
        if at.block[at.i] is None and at.phase == "summ":
            if not self._learn_blank(at, tok):
                return False
        elif tok != at.block[at.i]:
            return False
        at.i += 1
        if at.i == len(at.block):
            at.phase = "run" if at.phase == "p" else "end"
        return True

    def _step(self, at: _Replay, tok: str) -> bool:
        """Replay a run token: record its δ entry and apply it."""
        try:
            state, writes, moves = parse_run_token(tok)
        except ValueError:
            return False
        config = at.config or Configuration(
            None, [list(at.word)] + [[] for _ in writes[1:]], [0] * len(writes)
        )
        if not len(writes) == len(moves) == len(config.tapes) or not set(moves) <= set(MOVES):
            return False
        if self._delta.setdefault(self._key(config), tok) != tok:
            return False
        config.apply(writes, moves, None)
        config.state = state
        at.config, at.after_run = config, True
        at.trace_len += 1
        at.space = max(at.space, 1 + max(config.heads))
        if at.trace_len >= self._cap:
            at.phase, at.block, at.i = "summ", self._summary(at), 0
            return True
        at.chunk += 1
        if at.chunk == self._r:
            try:
                block = pos_block(config.heads, self._r)
            except TokenBudgetError:
                block = []
            at.phase, at.block, at.i = "p", block, 0
            at.chunk, at.trace_len = 0, at.trace_len + len(block)
        return True

    def _summary(self, at: _Replay) -> list[str | None]:
        """`encode_summary` of the replay, None for a cell that holds a
        blank of unknown name; empty if the state has no state token, as
        the halting state has none."""
        config, blank = at.config, self._blank
        if state_token(config.state) not in self._vocab:
            return []
        fill = "?" if blank is None else blank  # "?" stands for the unknown name
        tapes = [[fill if s is None else s for s in tape] for tape in config.tapes]
        block = encode_summary(Configuration(config.state, tapes, config.heads), at.space, fill)
        if blank is None:
            for i in range(at.space):
                if any(i >= len(tape) or tape[i] is None for tape in config.tapes):
                    block[1 + i] = None
        return block

    def _learn_blank(self, at: _Replay, tok: str) -> bool:
        """Take the blank's name from a summary token over a cell never
        written, if the token is the summary's with that name."""
        tapes, cell = at.config.tapes, at.i - 1
        syms, _ = parse_tape_token(tok)
        if token_class(tok) != "tape" or len(syms) != len(tapes):
            return False
        unwritten = [s for s, tape in zip(syms, tapes) if cell >= len(tape) or tape[cell] is None]
        self._blank = unwritten[0]
        at.block = self._summary(at)
        if at.block[at.i] != tok:
            self._blank = None
            at.block = self._summary(at)
            return False
        return True


def _find_block(tokens: list[str], start: int, opener: str) -> list[str]:
    """The body of the single opener block after index start. The last token
    is its closer: `generate` stops at the first stop token. Raises
    ValueError if there is not exactly one."""
    openers = [i for i in range(start, len(tokens)) if tokens[i] == opener]
    if len(openers) != 1:
        raise ValueError(f"{opener} occurs {len(openers)} times after the prompt")
    return tokens[openers[0] + 1 : -1]


_MAX_SEGMENTS = 4096  # SCoT segments before a run is given up as undefined


def _run_segments(
    stop_set: set[str],
    params: TransformerParams,
    word: list[str] | str,
    cfg: EvalConfig,
    budget: int | None,
    record_steps: bool,
    draft: list[list[str]] | None,
) -> GenerationTrace:
    """Decode segments until </outp>, promoting each summary block that
    `parse_summary` reads to the next prompt; budget applies per segment
    and is cut to the positions left in the context. With stop set
    {</outp>} the first segment is the whole run. draft[i], the expected
    segment i, is proposed while the run is its prefix (see
    `_TraceDrafter.segment`). Every segment's evaluator multiplies one
    `EvalPlan`, built for this call. A word token that is not an input
    symbol (`token_class` other than "sym") raises EvalError."""
    word = list(word)
    for tok in word:
        if token_class(tok) != "sym":
            raise EvalError(f"word token {tok!r} is not an input symbol")
    plan = _RUN_PLAN.set(EvalPlan(params, cfg))
    try:
        return _segments(stop_set, params, word, cfg, budget, record_steps, draft)
    finally:
        _RUN_PLAN.reset(plan)


def _segments(
    stop_set: set[str],
    params: TransformerParams,
    word: list[str],
    cfg: EvalConfig,
    budget: int | None,
    record_steps: bool,
    draft: list[list[str]] | None,
) -> GenerationTrace:
    """The segments of `_run_segments`, for a checked word."""
    trace = GenerationTrace()
    prompt = [INP, *word, EINP]
    drafter = _TraceDrafter(params, summaries=ESUMM in stop_set)
    for seg_idx in range(_MAX_SEGMENTS):
        steps = _context_room(params, len(prompt), budget)
        expected = draft[seg_idx] if draft and seg_idx < len(draft) else None
        propose = drafter.segment(prompt, expected)
        tokens, exceeded, ev = generate(params, prompt, stop_set, steps, cfg, propose=propose)
        if record_steps:  # each token's scores sit at the position before it
            for position in range(len(prompt), len(tokens)):
                scores = ev.output_scores(position - 1)
                # the emitted token first, also when the greedy rule broke a tie for it
                first = params.token_index(tokens[position])
                # the runner-up by the greedy rule: best other score, lowest index on ties
                rest = scores.copy()
                rest[first] = -np.inf
                second = int(np.argmax(rest))
                top2 = [[params.vocab[i], float(scores[i])] for i in (first, second)]
                trace.records.append(
                    dict(segment=seg_idx, position=position, token=tokens[position], top2=top2)
                )
        trace.segments.append(tokens)
        trace.total_tokens += len(tokens)
        trace.max_segment = max(trace.max_segment, len(tokens))
        trace.tie_warnings += ev.trace.tie_warnings
        trace.saturations += ev.trace.saturations
        if cfg.capture_trace:
            trace.eval_traces.append(ev.trace)
        del ev  # its caches go before the next segment's evaluator is built
        if exceeded:
            trace.outcome = "budget_exceeded"
            return trace
        try:
            if tokens[-1] == EOUTP:
                output = _find_block(tokens, len(prompt), OUTP)
                if any(token_class(t) != "sym" for t in output):
                    raise ValueError("output block contains non-input symbols")
                trace.outcome, trace.output = "output", output
                return trace
            body = _find_block(tokens, len(prompt), SUMM)
            parse_summary(body)
        except ValueError as err:
            trace.outcome, trace.reason = "undefined", str(err)
            return trace
        prompt = [SUMM, *body, ESUMM]
    trace.outcome, trace.reason = "undefined", "segment limit reached"
    return trace


def run_cot(
    params: TransformerParams,
    word: list[str] | str,
    cfg: EvalConfig,
    budget: int | None = None,
    record_steps: bool = False,
    draft: list[list[str]] | None = None,
) -> GenerationTrace:
    """Decode from <inp> w </inp> until </outp>; validate the output block.

    `draft` is the expected run in the form of `GenerationTrace.segments`
    (one segment, prompt included); it is proposed to `generate`, which
    only saves work, and only where a block is one step."""
    return _run_segments({EOUTP}, params, word, cfg, budget, record_steps, draft)


def run_scot(
    params: TransformerParams,
    word: list[str] | str,
    cfg: EvalConfig,
    budget: int | None = None,
    record_steps: bool = False,
    draft: list[list[str]] | None = None,
) -> GenerationTrace:
    """The iterated segment/summary loop; budget applies per segment.

    `draft` is the expected segments, prompts included, as in `run_cot`."""
    return _run_segments({EOUTP, ESUMM}, params, word, cfg, budget, record_steps, draft)
