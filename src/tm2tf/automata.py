"""DFAs, multi-tape Turing machines, and the token sequences they induce.

Tokens are plain strings with canonical forms so that oracle output,
compiled-model vocabularies and JSON files all agree:

  delimiters   <inp> </inp> <outp> </outp> <p> </p> <summ> </summ> <bos> True False
  input symbol the symbol itself (validated against reserved characters)
  run token    run:q|y1,y2|LR     (state entered, symbols written, moves)
  position bit bits:+-            (one +/- per tape, LSB-first blocks)
  tape token   tape:a,^b          (^ marks the head position on that tape)
  state token  state:q

Vocabularies hold only what runs emit: the run tokens are δ's image, and no
summary holds the halting state, so it has no state token.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

__all__ = [
    "Dfa",
    "TuringMachine",
    "Configuration",
    "RunResult",
    "MachineError",
    "NonHaltingError",
    "InvalidOutputError",
    "TokenBudgetError",
    "MOVES",
    "INP",
    "EINP",
    "OUTP",
    "EOUTP",
    "POPEN",
    "PCLOSE",
    "SUMM",
    "ESUMM",
    "BOS",
    "TRUE",
    "FALSE",
    "run_token",
    "pos_token",
    "tape_token",
    "state_token",
    "pos_block",
    "parse_run_token",
    "parse_pos_token",
    "parse_tape_token",
    "parse_state_token",
    "token_class",
    "cot_vocab",
    "scot_vocab",
    "dfa_accepts",
    "tm_run",
    "cot_token_oracle",
    "encode_summary",
    "parse_summary",
    "scot_segments_oracle",
    "load_dfa",
    "load_tm",
    "dfa_to_json",
    "tm_to_json",
]

INP, EINP = "<inp>", "</inp>"
OUTP, EOUTP = "<outp>", "</outp>"
POPEN, PCLOSE = "<p>", "</p>"
SUMM, ESUMM = "<summ>", "</summ>"
BOS, TRUE, FALSE = "<bos>", "True", "False"

_RESERVED = {INP, EINP, OUTP, EOUTP, POPEN, PCLOSE, SUMM, ESUMM, BOS, TRUE, FALSE}
_BAD_CHARS = set("|,^:")

MOVES = ("L", "S", "R")


class MachineError(ValueError):
    """Malformed machine description."""


class NonHaltingError(RuntimeError):
    """Machine did not halt within the step cap."""


class InvalidOutputError(RuntimeError):
    """Machine halted but tape 1 does not hold a word over the input alphabet."""


class TokenBudgetError(RuntimeError):
    """Token sequence does not fit the 2^r context (or cap) limit for this r."""


def _check_name(name: str, kind: str) -> None:
    if not isinstance(name, str) or not name or name in _RESERVED or name[0] == "<":
        raise MachineError(f"invalid {kind} name {name!r}")
    if _BAD_CHARS & set(name) or any(c.isspace() for c in name):
        raise MachineError(f"invalid {kind} name {name!r}")


# ---------------------------------------------------------------------------
# token constructors / parsers


def run_token(state: str, written: tuple[str, ...], moves: tuple[str, ...]) -> str:
    return f"run:{state}|{','.join(written)}|{''.join(moves)}"


def pos_token(bits: tuple[int, ...]) -> str:
    return "bits:" + "".join("+" if b > 0 else "-" for b in bits)


def tape_token(symbols: tuple[str, ...], hats: tuple[bool, ...]) -> str:
    return "tape:" + ",".join(("^" + s) if h else s for s, h in zip(symbols, hats))


def state_token(state: str) -> str:
    return f"state:{state}"


def parse_run_token(tok: str) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    state, written, moves = tok[len("run:"):].split("|")
    return state, tuple(written.split(",")), tuple(moves)


def parse_pos_token(tok: str) -> tuple[int, ...]:
    return tuple(1 if c == "+" else -1 for c in tok[len("bits:"):])


def parse_tape_token(tok: str) -> tuple[tuple[str, ...], tuple[bool, ...]]:
    parts = tok[len("tape:"):].split(",")
    syms = tuple(p.lstrip("^") for p in parts)
    hats = tuple(p.startswith("^") for p in parts)
    return syms, hats


def parse_state_token(tok: str) -> str:
    return tok[len("state:"):]


def token_class(tok: str) -> str:
    if tok in _RESERVED:
        return "delim"
    for prefix, cls in (("run:", "run"), ("bits:", "pos"), ("tape:", "tape"), ("state:", "state")):
        if tok.startswith(prefix):
            return cls
    return "sym"


# ---------------------------------------------------------------------------
# machines


@dataclass(frozen=True)
class Dfa:
    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    delta: dict[tuple[str, str], str]
    q_init: str
    accepting: frozenset[str]

    def __post_init__(self) -> None:
        if not self.states or not self.alphabet:
            raise MachineError("DFA needs at least one state and one symbol")
        for s in self.states:
            _check_name(s, "state")
        for a in self.alphabet:
            _check_name(a, "symbol")
        if len(set(self.states)) != len(self.states) or len(set(self.alphabet)) != len(self.alphabet):
            raise MachineError("duplicate state or symbol names")
        if self.q_init not in self.states:
            raise MachineError(f"init state {self.q_init!r} not in states")
        for f in self.accepting:
            if f not in self.states:
                raise MachineError(f"accepting state {f!r} not in states")
        for q in self.states:
            for a in self.alphabet:
                if (q, a) not in self.delta:
                    raise MachineError(f"delta missing entry ({q!r},{a!r})")
        for (q, a), q2 in self.delta.items():
            if q not in self.states or a not in self.alphabet:
                raise MachineError(f"delta entry ({q!r},{a!r}) uses unknown state/symbol")
            if q2 not in self.states:
                raise MachineError(f"delta entry ({q!r},{a!r}) targets unknown state {q2!r}")


@dataclass(frozen=True)
class TuringMachine:
    tapes: int
    states: tuple[str, ...]
    input_alphabet: tuple[str, ...]
    tape_alphabet: tuple[str, ...]
    blank: str
    q_init: str
    q_halt: str
    delta: dict[tuple[str, tuple[str, ...]], tuple[str, tuple[str, ...], tuple[str, ...]]]

    def __post_init__(self) -> None:
        if self.tapes < 1:
            raise MachineError("need at least one tape")
        if not self.input_alphabet:
            raise MachineError("input alphabet must be nonempty")
        for s in self.states:
            _check_name(s, "state")
        for a in self.tape_alphabet:
            _check_name(a, "symbol")
        names = (self.states, self.input_alphabet, self.tape_alphabet)
        if any(len(set(group)) != len(group) for group in names):
            raise MachineError("duplicate state or symbol names")
        if not set(self.input_alphabet) <= set(self.tape_alphabet):
            raise MachineError("input alphabet must be contained in the tape alphabet")
        if self.blank not in self.tape_alphabet or self.blank in self.input_alphabet:
            raise MachineError("blank must be a tape symbol outside the input alphabet")
        if self.q_init not in self.states or self.q_halt not in self.states:
            raise MachineError("init/halt state not in states")
        if self.q_init == self.q_halt:
            raise MachineError("init and halt states must differ")
        for q in self.states:
            if q == self.q_halt:
                continue
            for syms in itertools.product(self.tape_alphabet, repeat=self.tapes):
                if (q, syms) not in self.delta:
                    raise MachineError(f"delta missing entry ({q!r},{syms!r})")
        for (q, syms), (q2, writes, moves) in self.delta.items():
            entry = f"({q!r},{','.join(syms)})"
            if q not in self.states or q == self.q_halt:
                raise MachineError(f"delta entry {entry} uses invalid source state")
            if len(syms) != self.tapes or len(writes) != self.tapes or len(moves) != self.tapes:
                raise MachineError(f"delta entry {entry} has wrong arity")
            if q2 not in self.states:
                raise MachineError(f"delta entry {entry} targets unknown state {q2!r}")
            if not set(syms) <= set(self.tape_alphabet) or not set(writes) <= set(self.tape_alphabet):
                raise MachineError(f"delta entry {entry} uses unknown symbols")
            if not set(moves) <= set(MOVES):
                raise MachineError(f"delta entry {entry} uses invalid moves {moves!r}")


@dataclass
class Configuration:
    state: str
    tapes: list[list[str]]  # finite prefixes; blanks beyond
    heads: list[int]

    def read(self, blank: str) -> tuple[str, ...]:
        return tuple(
            tape[h] if h < len(tape) else blank for tape, h in zip(self.tapes, self.heads)
        )

    def clone(self) -> "Configuration":
        return Configuration(self.state, [list(t) for t in self.tapes], list(self.heads))

    def apply(self, writes: tuple[str, ...], moves: tuple[str, ...], blank) -> None:
        """One TM step's tape part: write each head's cell, growing its tape
        with `blank`, then move the head; L stops at cell 0."""
        for k, (write, move) in enumerate(zip(writes, moves)):
            tape, h = self.tapes[k], self.heads[k]
            while len(tape) <= h:
                tape.append(blank)
            tape[h] = write
            if move == "R":
                self.heads[k] = h + 1
            elif move == "L":
                self.heads[k] = max(0, h - 1)


@dataclass
class RunResult:
    halted: bool
    steps: int
    space: int
    output: list[str] | None
    config_trace: list[Configuration] = field(default_factory=list)
    run_tokens: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# run semantics


def dfa_accepts(dfa: Dfa, word: list[str] | str) -> bool:
    q = dfa.q_init
    for a in word:
        if a not in dfa.alphabet:
            raise MachineError(f"symbol {a!r} not in alphabet")
        q = dfa.delta[(q, a)]
    return q in dfa.accepting


def _read_output(tm: TuringMachine, tape1: list[str]) -> list[str] | None:
    """Tape 1 must be a word over the input alphabet followed by blanks."""
    end = 0
    while end < len(tape1) and tape1[end] != tm.blank:
        end += 1
    word = tape1[:end]
    if any(s not in tm.input_alphabet for s in word):
        return None
    if any(s != tm.blank for s in tape1[end:]):
        return None
    return word


def tm_run(tm: TuringMachine, word: list[str] | str, step_cap: int) -> RunResult:
    word = list(word)
    for a in word:
        if a not in tm.input_alphabet:
            raise MachineError(f"symbol {a!r} not in input alphabet")
    if step_cap < 0:
        raise ValueError("step_cap must be >= 0")

    config = Configuration(
        state=tm.q_init,
        tapes=[list(word)] + [[] for _ in range(tm.tapes - 1)],
        heads=[0] * tm.tapes,
    )
    trace = [config.clone()]
    run_tokens: list[str] = []
    space = max(len(word), 1)  # t=0 heads sit on cell 0

    steps = 0
    while config.state != tm.q_halt:
        if steps >= step_cap:
            return RunResult(False, steps, space, None, trace, run_tokens)
        read = config.read(tm.blank)
        q2, writes, moves = tm.delta[(config.state, read)]
        config.apply(writes, moves, tm.blank)
        config.state = q2
        steps += 1
        space = max(space, 1 + max(config.heads))
        run_tokens.append(run_token(q2, writes, moves))
        trace.append(config.clone())

    output = _read_output(tm, config.tapes[0])
    return RunResult(True, steps, space, output, trace, run_tokens)


# ---------------------------------------------------------------------------
# vocabularies


def _run_tokens(tm: TuringMachine) -> list[str]:
    """δ's image, the only run tokens a run emits, in the order of their
    (state, written symbols, moves) with each part as declared."""
    image = set(tm.delta.values())
    return [
        run_token(q, ys, ms)
        for q in tm.states
        for ys in itertools.product(tm.tape_alphabet, repeat=tm.tapes)
        for ms in itertools.product(MOVES, repeat=tm.tapes)
        if (q, ys, ms) in image
    ]


def cot_vocab(tm: TuringMachine) -> list[str]:
    delims = [INP, EINP, OUTP, EOUTP, POPEN, PCLOSE]
    pos = [pos_token(b) for b in itertools.product((-1, 1), repeat=tm.tapes)]
    return delims + list(tm.input_alphabet) + _run_tokens(tm) + pos


def scot_vocab(tm: TuringMachine) -> list[str]:
    per_tape = [(s, h) for h in (False, True) for s in tm.tape_alphabet]
    tape_toks = [
        tape_token(tuple(s for s, _ in combo), tuple(h for _, h in combo))
        for combo in itertools.product(per_tape, repeat=tm.tapes)
    ]
    states = [state_token(q) for q in tm.states if q != tm.q_halt]
    return cot_vocab(tm) + [SUMM, ESUMM] + tape_toks + states


# ---------------------------------------------------------------------------
# oracles


def _bit(value: int, s: int) -> int:
    return 1 if (value >> s) & 1 else -1


def pos_block(heads: list[int], r: int) -> list[str]:
    """<p>, r position tokens of the heads' cells, bit s in token s, </p>."""
    for n in heads:
        if n >= 2 ** r:
            raise TokenBudgetError(f"head position {n} needs more than {r} bits")
    return (
        [POPEN]
        + [pos_token(tuple(_bit(n, s) for n in heads)) for s in range(r)]
        + [PCLOSE]
    )


def encode_summary(config: Configuration, used_cells: int, blank: str) -> list[str]:
    """<summ>, per-cell tape tokens with hats at head positions, state, </summ>."""
    if used_cells < 1 + max(config.heads):
        raise ValueError("used_cells must cover every head position")
    toks = [SUMM]
    for i in range(used_cells):
        syms = tuple(
            tape[i] if i < len(tape) else blank for tape in config.tapes
        )
        hats = tuple(h == i for h in config.heads)
        toks.append(tape_token(syms, hats))
    toks.append(state_token(config.state))
    toks.append(ESUMM)
    return toks


def parse_summary(body: list[str]) -> Configuration:
    """The configuration of a summary body, the tokens between <summ> and
    </summ>: the inverse of `encode_summary`, tapes padded to the cells it
    shows. Raises ValueError with the reason for a body not in its form."""
    if not body:
        raise ValueError("empty summary block")
    if len(body) < 2 or [token_class(t) for t in body] != ["tape"] * (len(body) - 1) + ["state"]:
        raise ValueError("summary block is not tape tokens then a state token")
    cells = [parse_tape_token(t) for t in body[:-1]]
    if len({len(syms) for syms, _ in cells}) != 1:
        raise ValueError("summary tape tokens differ in width")
    heads = [[i for i, (_, hats) in enumerate(cells) if hats[k]] for k in range(len(cells[0][0]))]
    if any(len(h) != 1 for h in heads):
        raise ValueError("summary tape without exactly one hat")
    tapes = [list(tape) for tape in zip(*(syms for syms, _ in cells))]
    return Configuration(parse_state_token(body[-1]), tapes, [h[0] for h in heads])


def _segments(
    tm: TuringMachine, word: list[str] | str, r: int, step_cap: int, summaries: bool
) -> list[list[str]]:
    """The segments of running tm on word: prompt, trace, end block each.

    A trace holds run tokens with a <p>...</p> block of head positions
    after every r of them, and ends at the halting run token; the last
    segment ends with the output block. With summaries, a trace also ends
    at the first run token once its length reaches 3*(len(prompt) - 1), and
    closes with the summary of the tape and state, which becomes the next
    segment's prompt. Without them there is exactly one segment.
    """
    word = list(word)
    result = tm_run(tm, word, step_cap)
    if not result.halted:
        raise NonHaltingError(f"no halt within {step_cap} steps")
    if result.output is None:
        raise InvalidOutputError("tape 1 is not a word over the input alphabet")

    prompt = [INP, *word, EINP]
    space = len(word)  # cells used so far, per the summary definition
    segments: list[list[str]] = []
    t = 0
    while True:
        if summaries and len(prompt) - 1 >= 2 ** (r - 2):
            raise TokenBudgetError(
                f"prompt end position {len(prompt) - 1} breaks the 4j length-cap "
                f"detection for r={r}"
            )
        cap = 3 * (len(prompt) - 1) if summaries else float("inf")
        trace: list[str] = []
        chunk = 0
        while True:
            t += 1
            trace.append(result.run_tokens[t - 1])
            heads = result.config_trace[t].heads
            space = max(space, 1 + max(heads))
            if t == result.steps or len(trace) >= cap:
                break
            chunk += 1
            if chunk == r:
                trace.extend(pos_block(heads, r))
                chunk = 0
        if t == result.steps:
            end = [OUTP, *result.output, EOUTP]
        else:
            end = encode_summary(result.config_trace[t], space, tm.blank)
        segment = prompt + trace + end
        if len(segment) > 2 ** r:
            raise TokenBudgetError(f"segment of {len(segment)} tokens exceeds 2^{r}")
        segments.append(segment)
        if t == result.steps:
            return segments
        prompt = end


def cot_token_oracle(
    tm: TuringMachine, word: list[str] | str, r: int, step_cap: int | None = None
) -> list[str]:
    """The exact CoT token sequence for running tm on word with r position
    bits: the one segment of a run without summaries."""
    if r < 2 or r % 2 != 0:
        raise ValueError("r must be even and >= 2")
    step_cap = 2 ** r - 2 if step_cap is None else step_cap
    (tokens,) = _segments(tm, word, r, step_cap, summaries=False)
    return tokens


def scot_segments_oracle(
    tm: TuringMachine, word: list[str] | str, r: int, step_cap: int = 10_000
) -> list[list[str]]:
    """The SCoT segments: summary_{i-1}, trace_i, summary_i per segment."""
    if r < 4 or r % 2 != 0:
        raise ValueError("r must be even and >= 4")
    return _segments(tm, word, r, step_cap, summaries=True)


# ---------------------------------------------------------------------------
# JSON machine files


def _spec_delta(doc, kind: str) -> dict[str, str]:
    """The delta of a machine spec, which must be an object mapping strings
    to strings, as must the spec itself be an object."""
    if not isinstance(doc, dict):
        raise MachineError(f"a machine spec must be a JSON object, got {type(doc).__name__}")
    delta = doc.get("delta")
    if not isinstance(delta, dict) or not all(isinstance(s, str) for e in delta.items() for s in e):
        raise MachineError(f"{kind} spec needs a 'delta' object mapping strings to strings")
    return delta


def _spec_names(doc: dict, name: str, kind: str) -> tuple[str, ...]:
    """A list field of a machine spec, which must be a JSON list of strings:
    a string would otherwise be split into its characters."""
    if name not in doc:
        raise MachineError(f"{kind} spec missing field: {name!r}")
    value = doc[name]
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise MachineError(f"{kind} spec field {name!r} must be a list of strings, got {value!r}")
    return tuple(value)


def load_dfa(doc: dict) -> Dfa:
    raw_delta = _spec_delta(doc, "DFA")
    states = _spec_names(doc, "states", "DFA")
    alphabet = _spec_names(doc, "alphabet", "DFA")
    accepting = frozenset(_spec_names(doc, "accepting", "DFA"))
    try:
        init = doc["init"]
    except KeyError as exc:
        raise MachineError(f"DFA spec missing field: {exc}") from exc
    delta = {}
    for key, target in raw_delta.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise MachineError(f"bad DFA delta key {key!r} (want 'state,symbol')")
        delta[(parts[0], parts[1])] = target
    return Dfa(states, alphabet, delta, init, accepting)


def dfa_to_json(dfa: Dfa) -> dict:
    return {
        "states": list(dfa.states),
        "alphabet": list(dfa.alphabet),
        "init": dfa.q_init,
        "accepting": sorted(dfa.accepting),
        "delta": {f"{q},{a}": q2 for (q, a), q2 in sorted(dfa.delta.items())},
    }


def load_tm(doc: dict) -> TuringMachine:
    raw_delta = _spec_delta(doc, "TM")
    states = _spec_names(doc, "states", "TM")
    input_alphabet = _spec_names(doc, "input_alphabet", "TM")
    tape_alphabet = _spec_names(doc, "tape_alphabet", "TM")
    try:
        tapes = doc["tapes"]
        blank = doc["blank"]
        init = doc["init"]
        halt = doc["halt"]
    except KeyError as exc:
        raise MachineError(f"TM spec missing field: {exc}") from exc
    if type(tapes) is not int:
        raise MachineError(f"TM spec field 'tapes' must be an integer, got {tapes!r}")
    delta = {}
    for key, value in raw_delta.items():
        try:
            q, syms = key.split("|")
            q2, writes, moves = value.split("|")
        except ValueError as exc:
            raise MachineError(
                f"bad TM delta entry {key!r}: {value!r} (want 'q|a,b' -> 'q2|c,d|L,R')"
            ) from exc
        delta[(q, tuple(syms.split(",")))] = (
            q2,
            tuple(writes.split(",")),
            tuple(moves.split(",")),
        )
    return TuringMachine(tapes, states, input_alphabet, tape_alphabet, blank, init, halt, delta)


def tm_to_json(tm: TuringMachine) -> dict:
    return {
        "tapes": tm.tapes,
        "states": list(tm.states),
        "input_alphabet": list(tm.input_alphabet),
        "tape_alphabet": list(tm.tape_alphabet),
        "blank": tm.blank,
        "init": tm.q_init,
        "halt": tm.q_halt,
        "delta": {
            f"{q}|{','.join(syms)}": f"{q2}|{','.join(writes)}|{','.join(moves)}"
            for (q, syms), (q2, writes, moves) in sorted(tm.delta.items())
        },
    }
