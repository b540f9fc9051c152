"""Result persistence, report formatting and the zero-copy tally codec."""

from .codec import CodecError, EncodedTally, decode_tally, encode_tally
from .reports import load_report, save_report
from .results import (
    archive_summary,
    load_frontier,
    load_tally,
    save_tally,
)
from .tables import format_table

__all__ = [
    "CodecError",
    "archive_summary",
    "EncodedTally",
    "decode_tally",
    "encode_tally",
    "format_table",
    "load_frontier",
    "load_report",
    "load_tally",
    "save_report",
    "save_tally",
]
