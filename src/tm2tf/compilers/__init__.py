"""Compilers emitting transformer parameters from automata."""

from ..gadgets import CompileReport
from .dfa import compile_dfa, dfa_dims
from .rope import build_rope_position_prefix, rope_dims
from .tm import (
    choose_r_cot,
    choose_r_scot,
    compile_cot,
    compile_scot,
    cot_dims,
    instantiate_capacity,
    scot_dims,
)

__all__ = [
    "CompileReport",
    "compile_dfa",
    "dfa_dims",
    "compile_cot",
    "compile_scot",
    "cot_dims",
    "scot_dims",
    "choose_r_cot",
    "choose_r_scot",
    "build_rope_position_prefix",
    "rope_dims",
    "instantiate_capacity",
]
