"""Reference ``RollingDigest.hexdigest``: re-render and re-hash the
whole log on every read.

Production folds in only the lines appended since its previous read;
both must give the same digest for any log and any interleaving of
reads and appends.
"""

from __future__ import annotations

from repro.service.state import RollingDigest, text_digest


def full_text_digest(rolling: RollingDigest) -> str:
    """crc32 of the log's full text: every line, joined by ``"\\n"``."""
    return text_digest("\n".join(map(rolling.render, rolling.log)))
