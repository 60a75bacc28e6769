"""Shared compiler plumbing: canonical element encodings."""

from __future__ import annotations

from ..gadgets import bin_pm1

__all__ = ["enc_table", "ENC_MOVES"]

# L, S, R in declaration order, encoded as 2-bit LSB-first words.
ENC_MOVES: dict[str, tuple[int, int]] = {
    "L": bin_pm1(2, 0),
    "S": bin_pm1(2, 1),
    "R": bin_pm1(2, 2),
}


def enc_table(elements: tuple[str, ...]) -> dict[str, tuple[int, ...]]:
    """Injective +-1 encoding: LSB-first binary of the declaration index.

    Width is ceil(log2 n); a single element gets the empty encoding.
    """
    width = (len(elements) - 1).bit_length()
    return {e: bin_pm1(width, i) for i, e in enumerate(elements)}
