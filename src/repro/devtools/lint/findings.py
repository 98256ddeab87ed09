"""Finding records and rule metadata shared by every checker."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: every rule code reprolint can emit, with its one-line charter.
RULES: dict[str, str] = {
    "RNG001": "unseeded/global randomness (random module, legacy "
              "numpy.random.*, builtin hash(), os.urandom, uuid)",
    "CLK001": "wall-clock read in sim-owned code; route through the "
              "engine clock / Clock seam",
    "ORD001": "iteration order depends on set hashing or id(); "
              "golden traces require sorted()/stable keys",
    "EXC001": "silent exception swallowing in recovery/checkpoint "
              "paths",
    "LSN001": "engine listener added but never removed in this module",
    "FLT001": "float accumulation with += in a loop; use math.fsum "
              "or integer ticks for cross-platform stability",
    "MUT001": "mutable default argument",
    "SEED001": "literal seed+N RNG stream with an offset that is not "
               "declared in the chaos stream registry "
               "(repro.chaos.streams.STREAM_OFFSETS) or collides with "
               "another subsystem",
    "TRC001": "tracer-seam completeness: tracer params must default "
              "to None and normalize via NULL_TRACER; engine-driven "
              "sim classes must expose a tracer seam",
    "LSN002": "paired resource acquired without an exit-safe release "
              "(finally block, teardown method, or unconditional "
              "statement) anywhere in the class",
    "SPAN001": "tracer.begin() span with no .end() call anywhere in "
               "the class; the span never closes",
    "IMP001": "sim-owned module reaches threading/time/network stdlib "
              "modules through its import chain outside the blessed "
              "clock/storage seams",
    "PAR000": "file could not be parsed",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation anchored to a source span."""

    code: str
    message: str
    path: str
    line: int
    col: int
    end_line: int = 0
    end_col: int = 0
    snippet: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "end_line": self.end_line,
            "end_col": self.end_col,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.code} {self.message}")
