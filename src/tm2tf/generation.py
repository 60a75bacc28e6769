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
from dataclasses import dataclass, field
from itertools import islice, takewhile

import numpy as np

from .automata import (
    EINP,
    EOUTP,
    ESUMM,
    INP,
    OUTP,
    SUMM,
    Configuration,
    TuringMachine,
    continuation,
    load_tm,
    parse_summary,
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

    Where the evaluator runs a block in one step (its plan's `exact`),
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
    propose = propose if ev.plan.exact else None
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
# so a long proposal saves steps; the cap bounds the positions that a miss
# drops and the room that `generate` reserves for the next proposal.
_PROPOSAL = 32


class _TraceDrafter:
    """Proposes the tokens that the model's machine writes after a run's
    segment so far.

    One lives for one `_run_segments` call, which hands each segment's
    prompt over with the configuration its run stands at: the word's
    start configuration for the first segment, and `parse_summary`'s after
    a summary. While the run is a prefix of what `automata.continuation`
    writes from there, it proposes the rest of that, up to _PROPOSAL
    tokens and the end of the context; past it, nothing. The writer runs
    the model's meta.machine (`compile_cot`, `compile_scot`), loaded once
    per call as `tm`. A model without one, or without binary positions,
    has no `tm` and proposes nothing. It never raises: a head moves one
    cell per run token, so within the context no <p> block breaks its r
    bits.
    """

    def __init__(self, params: TransformerParams, summaries: bool):
        pos = params.positional
        self._r = pos.r if isinstance(pos, BinaryAbsolute) else None
        self._summaries = summaries
        machine = params.meta.get("machine") if self._r is not None else None
        self.tm: TuringMachine | None = load_tm(machine) if machine is not None else None

    def segment(
        self, prompt: list[str], config: Configuration | None
    ) -> Callable[[list[str]], list[str]]:
        """The proposer of the segment that starts with `prompt`, whose run
        stands at `config`, which the writer moves along; without `tm`,
        config is None and nothing is proposed."""
        self._written = list(prompt)  # the prompt, then the writer's tokens
        self._matched = len(prompt)  # the run's tokens known to be written ones
        self._writer = None  # None once there is nothing to propose
        if self.tm is not None:
            cap = 3 * (len(prompt) - 1) if self._summaries else float("inf")
            # tape 1 holds the word or every cell of the summary: the cells used so far
            self._writer = continuation(self.tm, config, len(config.tapes[0]), self._r, cap)
        return self.propose

    def propose(self, tokens: list[str]) -> list[str]:
        """The tokens that follow `tokens`, the segment so far."""
        if self._writer is None:
            return []
        written, n = self._written, len(tokens)
        written += islice(self._writer, max(0, min(n + _PROPOSAL, 2**self._r) - len(written)))
        if written[self._matched : n] != tokens[self._matched :]:
            self._writer = None  # the run has left it
            return []
        self._matched = n
        return written[n:]


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
) -> GenerationTrace:
    """Decode segments until </outp>, promoting each summary block that
    `parse_summary` reads to the next prompt; budget applies per segment
    and is cut to the positions left in the context. With stop set
    {</outp>} the first segment is the whole run. Each segment proposes
    what the model's meta.machine writes (`_TraceDrafter`). Every
    segment's evaluator multiplies one `EvalPlan`, built for this call. A
    word token that is not an input symbol (`token_class` other than
    "sym") raises EvalError."""
    word = list(word)
    for tok in word:
        if token_class(tok) != "sym":
            raise EvalError(f"word token {tok!r} is not an input symbol")
    plan = _RUN_PLAN.set(EvalPlan(params, cfg))
    try:
        return _segments(stop_set, params, word, cfg, budget, record_steps)
    finally:
        _RUN_PLAN.reset(plan)


def _segments(
    stop_set: set[str],
    params: TransformerParams,
    word: list[str],
    cfg: EvalConfig,
    budget: int | None,
    record_steps: bool,
) -> GenerationTrace:
    """The segments of `_run_segments`, for a checked word."""
    trace = GenerationTrace()
    drafter = _TraceDrafter(params, summaries=ESUMM in stop_set)
    prompt = [INP, *word, EINP]
    config = drafter.tm.start(word) if drafter.tm else None
    for seg_idx in range(_MAX_SEGMENTS):
        steps = _context_room(params, len(prompt), budget)
        propose = drafter.segment(prompt, config)
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
            config = parse_summary(body)
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
) -> GenerationTrace:
    """Decode from <inp> w </inp> until </outp>; validate the output block."""
    return _run_segments({EOUTP}, params, word, cfg, budget, record_steps)


def run_scot(
    params: TransformerParams,
    word: list[str] | str,
    cfg: EvalConfig,
    budget: int | None = None,
    record_steps: bool = False,
) -> GenerationTrace:
    """The iterated segment/summary loop; budget applies per segment."""
    return _run_segments({EOUTP, ESUMM}, params, word, cfg, budget, record_steps)
