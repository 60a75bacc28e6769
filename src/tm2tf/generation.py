"""Greedy autoregressive decoding and the CoT / SCoT protocols.

A CoT run extends the input block until </outp> appears. An SCoT run
iterates segments: a segment ending in </summ> has its summary block
(tape tokens, then one state token) promoted to the next prompt; a segment
ending in </outp> carries the output. Ill-formed generations become an
explicit "undefined" outcome with a machine-readable reason instead of
silently passing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .automata import EINP, EOUTP, ESUMM, INP, OUTP, SUMM, token_class
from .netcore import BinaryAbsolute, EvalConfig, EvalError, Evaluator, TransformerParams

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


def _context_room(params: TransformerParams, n_prompt: int, default: int) -> int:
    """The positions left after a prompt of n_prompt tokens, for a model
    with binary positions; `default` for any other."""
    if isinstance(params.positional, BinaryAbsolute):
        return max(0, 2 ** params.positional.r - n_prompt)
    return default


# Tokens a self-drafted step feeds after its greedy token. On bouncer8 CoT
# r=10 a one-position step takes about 0.9 ms and each drafted position adds
# about 70 us (one BLAS thread, 2 vCPUs), so a short draft pays even when
# most of it is wrong, and a long one feeds more positions that a miss drops.
_DRAFT = 3


def generate(
    params: TransformerParams,
    prompt: list[str],
    stop_set: set[str],
    max_steps: int,
    cfg: EvalConfig,
    draft: list[str] | None = None,
) -> tuple[list[str], bool, Evaluator]:
    """Greedy extension until a stop token is emitted (inclusive).

    Returns (tokens, budget_exceeded, evaluator). The stop token itself is
    never fed back through the model.

    `draft` holds the tokens expected after the prompt. They are fed with
    the prompt as one block (up to the first stop token, the budget or the
    context), and each stands while it is the greedy token at its step. At
    the first that is not, the evaluator is truncated to the tokens that
    stand and fed that greedy token. Once no caller draft is left, an
    evaluator that runs blocks in one step and rounds nothing drafts from
    the run itself: with each greedy token it feeds the _DRAFT tokens that
    followed that token's last earlier occurrence, repeated with that
    period if they run out. The model is causal, so the tokens, the
    evaluator and its trace are the same for any draft, right or wrong.
    """
    if not prompt:
        raise ValueError("prompt must be nonempty")
    if not stop_set:
        raise ValueError("stop_set must be nonempty")
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    ev = Evaluator(params, cfg)
    ev.extend([*prompt, *_feedable(params, draft or [], stop_set, max_steps, len(prompt))])
    tokens = list(prompt)
    # A block step that rounds nothing costs little more than a one-position
    # step and gives each position the same bits.
    self_drafts = ev._exact and ev._formats == (None, None)
    last = {tok: i for i, tok in enumerate(prompt)}  # each token's last index
    for _ in range(max_steps):
        tok = ev.next_token(len(tokens) - 1)
        n = len(tokens)  # tok's index
        tokens.append(tok)
        before, last[tok] = last.get(tok), n
        if n < len(ev.tokens):
            if ev.tokens[n] == tok:
                continue  # a drafted token stands
            ev.truncate(n)  # the draft is wrong from here on
        if tok in stop_set:
            return tokens, False, ev
        proposal = []
        if self_drafts and before is not None:  # what followed tok before, repeated
            period = n - before
            proposal = [tokens[before + 1 + k % period] for k in range(_DRAFT)]
            proposal = _feedable(params, proposal, stop_set, len(prompt) + max_steps - n - 1, n + 1)
        ev.extend([tok, *proposal])
    return tokens, True, ev


def _feedable(
    params: TransformerParams, draft: list[str], stop_set: set[str], max_steps: int, start: int
) -> list[str]:
    """The draft tokens that greedy decoding could feed from position
    start on: at most max_steps, within the context, before the first stop
    or unknown token."""
    room = min(max_steps, _context_room(params, start, max_steps))
    fed = []
    for tok in draft[: max(room, 0)]:
        if tok in stop_set or tok not in params._token_ids:
            break
        fed.append(tok)
    return fed


def _find_block(tokens: list[str], start: int, opener: str):
    """The body of the single opener block after index start. The last token
    is its closer: `generate` stops at the first stop token."""
    openers = [i for i in range(start, len(tokens)) if tokens[i] == opener]
    if len(openers) != 1:
        return None, f"{opener} occurs {len(openers)} times after the prompt"
    return tokens[openers[0] + 1 : -1], None


def _finish_output(trace: GenerationTrace, tokens: list[str], start: int) -> GenerationTrace:
    """Validate the final <outp> block after index start and record the outcome."""
    body, err = _find_block(tokens, start, OUTP)
    if err is None and any(token_class(t) != "sym" for t in body):
        err = "output block contains non-input symbols"
    if err is not None:
        trace.outcome, trace.reason = "undefined", err
    else:
        trace.outcome, trace.output = "output", body
    return trace


def _summary_error(body: list[str]) -> str | None:
    """Why a summary body is not of `encode_summary`'s form, one or more
    tape tokens then one state token; None if it is."""
    if not body:
        return "empty summary block"
    classes = [token_class(t) for t in body]
    if len(classes) < 2 or classes != ["tape"] * (len(classes) - 1) + ["state"]:
        return "summary block is not tape tokens then a state token"
    return None


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
    """Decode segments until </outp>, promoting each well-formed summary
    block to the next prompt; budget applies per segment. With stop set
    {</outp>} the first segment is the whole run. Segment i's draft is
    draft[i] past the prompt's length. A word token that is not an input
    symbol (`token_class` other than "sym") raises EvalError."""
    word = list(word)
    for tok in word:
        if token_class(tok) != "sym":
            raise EvalError(f"word token {tok!r} is not an input symbol")
    trace = GenerationTrace()
    prompt = [INP, *word, EINP]
    for seg_idx in range(_MAX_SEGMENTS):
        steps = budget if budget is not None else _context_room(params, len(prompt), 4096)
        expected = draft[seg_idx][len(prompt) :] if draft and seg_idx < len(draft) else None
        tokens, exceeded, ev = generate(params, prompt, stop_set, steps, cfg, draft=expected)
        if record_steps:  # each token's scores sit at the position before it
            for position in range(len(prompt), len(tokens)):
                scores = ev.output_scores(position - 1)
                # the emitted token first, also when the greedy rule broke a tie for it
                first = params.token_index(tokens[position])
                # the runner-up by the greedy rule: best other score, lowest index on ties
                rest = scores.copy()
                rest[first] = -np.inf
                second = int(np.argmax(rest))
                trace.records.append(
                    {
                        "segment": seg_idx,
                        "position": position,
                        "token": tokens[position],
                        "top2": [[params.vocab[i], float(scores[i])] for i in (first, second)],
                    }
                )
        trace.segments.append(tokens)
        trace.total_tokens += len(tokens)
        trace.max_segment = max(trace.max_segment, len(tokens))
        trace.tie_warnings += ev.trace.tie_warnings
        trace.saturations += ev.trace.saturations
        if cfg.capture_trace:
            trace.eval_traces.append(ev.trace)
        if exceeded:
            trace.outcome = "budget_exceeded"
            return trace
        if tokens[-1] == EOUTP:
            return _finish_output(trace, tokens, len(prompt))
        body, err = _find_block(tokens, len(prompt), SUMM)
        err = err or _summary_error(body)
        if err is not None:
            trace.outcome, trace.reason = "undefined", err
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
    (one segment, prompt included); it only saves work, see `generate`."""
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
