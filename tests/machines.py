"""Shared machine fixtures for the test suite."""

import itertools

from tm2tf.automata import Dfa, TuringMachine
from tm2tf.harness import acceptance_dfas


def parity_dfa() -> Dfa:
    # Accepts words with an even number of "1"s.
    return acceptance_dfas()[0]


def contains_ab_dfa() -> Dfa:
    # Accepts words containing "ab" as a substring.
    return acceptance_dfas()[1]


def mod3_dfa() -> Dfa:
    # Accepts words whose count of "a"s is divisible by 3.
    return acceptance_dfas()[2]


def fig2_machine() -> TuringMachine:
    """One-tape machine that replaces the first "ab" with "cb"."""
    blank = "_"
    delta = {
        ("go", ("a",)): ("after_a", ("a",), ("R",)),
        ("go", ("b",)): ("go", ("b",), ("R",)),
        ("go", ("c",)): ("go", ("c",), ("R",)),
        ("go", (blank,)): ("halt", (blank,), ("S",)),
        ("after_a", ("a",)): ("go", ("a",), ("S",)),
        ("after_a", ("b",)): ("saw_ab", ("b",), ("L",)),
        ("after_a", ("c",)): ("go", ("c",), ("R",)),
        ("after_a", (blank,)): ("halt", (blank,), ("S",)),
        ("saw_ab", ("a",)): ("go", ("c",), ("R",)),
        ("saw_ab", ("b",)): ("halt", ("b",), ("S",)),
        ("saw_ab", ("c",)): ("halt", ("c",), ("S",)),
        ("saw_ab", (blank,)): ("halt", (blank,), ("S",)),
    }
    return TuringMachine(
        tapes=1,
        states=("go", "after_a", "saw_ab", "halt"),
        input_alphabet=("a", "b", "c"),
        tape_alphabet=("a", "b", "c", blank),
        blank=blank,
        q_init="go",
        q_halt="halt",
        delta=delta,
    )


def one_step_machine(tapes: int = 1) -> TuringMachine:
    blank = "_"
    delta = {}
    for syms in itertools.product(("x", blank), repeat=tapes):
        delta[("s", syms)] = ("halt", syms, ("S",) * tapes)
    return TuringMachine(
        tapes, ("s", "halt"), ("x",), ("x", blank), blank, "s", "halt", delta
    )


def bouncer_machine(bounces: int = 4) -> TuringMachine:
    """Sweeps right rewriting x->y, returns rewriting y->x, several times."""
    blank = "_"
    delta = {}
    for bounce in range(bounces):
        right, left = f"r{bounce}", f"l{bounce}"
        nxt = f"r{bounce + 1}" if bounce < bounces - 1 else "halt"
        delta[(right, ("x",))] = (right, ("y",), ("R",))
        delta[(right, ("y",))] = (right, ("y",), ("R",))
        delta[(right, (blank,))] = (left, (blank,), ("L",))
        delta[(left, ("y",))] = (left, ("x",), ("L",))
        delta[(left, ("x",))] = (nxt, ("x",), ("S",))
        delta[(left, (blank,))] = (nxt, (blank,), ("S",))
    states = tuple(
        f"{side}{b}" for b in range(bounces) for side in ("r", "l")
    ) + ("halt",)
    return TuringMachine(
        1, states, ("x", "y"), ("x", "y", blank), blank, "r0", "halt", delta
    )


def copy_machine() -> TuringMachine:
    """Two tapes: copies the input to tape 2, then erases it walking back.

    The rewind consumes tape-2 symbols so the left end is detected by
    reading a blank after the saturating L move. Exercises diverging heads.
    """
    blank = "_"
    sig = ("0", "1")
    delta = {}
    for s1 in sig + (blank,):
        for s2 in sig + (blank,):
            if s1 == blank:
                delta[("copy", (s1, s2))] = ("rew", (s1, s2), ("S", "L"))
            else:
                delta[("copy", (s1, s2))] = ("copy", (s1, s1), ("R", "R"))
            if s2 == blank:
                delta[("rew", (s1, s2))] = ("halt", (s1, s2), ("S", "S"))
            else:
                delta[("rew", (s1, s2))] = ("rew", (s1, blank), ("S", "L"))
    return TuringMachine(
        2, ("copy", "rew", "halt"), sig, sig + (blank,), blank, "copy", "halt", delta
    )


def counter_machine() -> TuringMachine:
    """One-tape binary counter, least significant bit rightmost.

    On h0...0 (n digits) it walks right to the blank, carries left, and
    walks right again after each increment; it halts when the carry
    reaches h. That takes 4 * 2^n - 1 steps on n + 2 cells, so its run
    outgrows any context fixed by its space.
    """
    blank = "_"
    delta = {
        ("right", ("h",)): ("right", ("h",), ("R",)),
        ("right", ("0",)): ("right", ("0",), ("R",)),
        ("right", ("1",)): ("right", ("1",), ("R",)),
        ("right", (blank,)): ("inc", (blank,), ("L",)),
        ("inc", ("1",)): ("inc", ("0",), ("L",)),
        ("inc", ("0",)): ("right", ("1",), ("R",)),
        ("inc", ("h",)): ("halt", ("h",), ("S",)),
        ("inc", (blank,)): ("halt", (blank,), ("S",)),  # unreachable
    }
    return TuringMachine(
        1, ("right", "inc", "halt"), ("h", "0", "1"), ("h", "0", "1", blank), blank,
        "right", "halt", delta,
    )


def tally_machine() -> TuringMachine:
    """Three tapes: copies the input to tape 2 while tallying its a's on
    tape 3, erases tape 2 walking back, copies it again while tape 3's head
    walks back, and erases tape 2 again. Tape 1 keeps the input, the output.

    As in copy_machine, the left end shows as a blank read after a
    saturating L. A run on n symbols takes 4n + 4 steps, more than an SCoT
    trace's 3(n + 1) cap, so every SCoT run writes a summary.
    """
    blank = "_"
    tape = ("a", "b", blank)
    delta = {}
    for syms in itertools.product(tape, repeat=3):
        s1, s2, s3 = syms
        if s1 == blank:
            delta[("copy", syms)] = ("back", syms, ("L", "L", "S"))
            delta[("recopy", syms)] = ("erase", syms, ("S", "L", "S"))
        else:
            tally = ("a", "R") if s1 == "a" else (s3, "S")
            delta[("copy", syms)] = ("copy", (s1, s1, tally[0]), ("R", "R", tally[1]))
            delta[("recopy", syms)] = ("recopy", (s1, s1, s3), ("R", "R", "L"))
        for erasing, move1, after in (("back", "L", "recopy"), ("erase", "S", "halt")):
            if s2 == blank:
                delta[(erasing, syms)] = (after, syms, ("S", "S", "S"))
            else:
                delta[(erasing, syms)] = (erasing, (s1, blank, s3), (move1, "L", "S"))
    states = ("copy", "back", "recopy", "erase", "halt")
    return TuringMachine(3, states, ("a", "b"), tape, blank, "copy", "halt", delta)
