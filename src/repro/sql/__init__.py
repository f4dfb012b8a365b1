"""SQL substrate: tokenizer, parser, planner, executor and secondary
indexes over the in-memory engine."""

from . import nodes
from .engine import Engine, Result, Row, Table
from .executor import Executor
from .indexes import SecondaryIndex
from .parser import Parser, clear_parse_cache, parse, parse_cache_info
from .planner import Plan, Planner, bind_parameters, collect_params
from .tokenizer import Token, tokenize

__all__ = [
    "nodes",
    "Engine",
    "Result",
    "Row",
    "Table",
    "Parser",
    "parse",
    "parse_cache_info",
    "clear_parse_cache",
    "Token",
    "tokenize",
    "Plan",
    "Planner",
    "Executor",
    "SecondaryIndex",
    "bind_parameters",
    "collect_params",
]
