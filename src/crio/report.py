"""The text layout of crio's reports, the one writer of a JSON list's brackets; it imports nothing from crio.
A report's long lists (a run's branches, a state's amplitudes) are tables of shared strings, one row per
item, joined in blocks of BLOCK_ROWS rows, so no Python code runs per item and no full-size copy is made."""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np

BLOCK_ROWS = 1024  # list items per string of row_blocks: a lower peak RSS than one string per report
_HOLE = "\0"  # a placeholder string no report value contains


def _nested(value, depth: int, hole=lambda v: None) -> list:
    """json.dumps(value, sort_keys=True, indent=2) as it reads `depth` levels deep, split around
    each value json cannot encode (`...` marks where a caller's pieces go), which goes to `hole`."""
    text = json.dumps(value, sort_keys=True, indent=2, default=lambda v: hole(v) or _HOLE)
    return ("  " * depth + text.replace("\n", "\n" + "  " * depth)).split(json.dumps(_HOLE))


def json_report(payload: dict):
    """The strings of json.dumps(payload, sort_keys=True, indent=2) and a newline; a streamed list
    (a value with json_blocks() and a length) is written as its blocks where it stands."""
    streamed = []
    head, *tails = _nested(payload, 0, streamed.append)
    yield head
    for value, tail in zip(streamed, tails):
        yield from value.json_blocks()
        yield tail
    yield "\n"


def _pick(pieces: list, index: np.ndarray) -> np.ndarray:
    """The column pieces[index[r]] of shared strings."""
    return np.array(pieces, dtype=object)[index]


def _float_column(values: np.ndarray, render=float.__repr__) -> np.ndarray:
    """render(v) of each value, once per bit pattern, so -0.0 and NaN keep their own text (float.__repr__
    is json's).  Not np.unique: it argsorts for an inverse, and without one it hashes, raising peak RSS."""
    patterns = np.sort(values.view(np.uint64), axis=None)
    patterns = np.concatenate((patterns[:1], patterns[1:][patterns[1:] != patterns[:-1]]))
    return _pick([render(v) for v in patterns.view(np.float64).tolist()],
                 np.searchsorted(patterns, values.view(np.uint64)))


def json_list(frame: list, count: int, columns):
    """A list of `count` items as json.dumps(sort_keys=True, indent=2) writes it where an item has frame's indent:
    "[]", or the opening, blocks of at most BLOCK_ROWS items with their separators, and the closing.  frame is
    one item's pieces around its values (from _nested); columns(block), for a slice of item indices, is those
    items' values as an object array of strings, one row per item and one column per hole of the frame."""
    if not count:
        yield "[]"
        return
    indent = frame[0][:len(frame[0]) - len(frame[0].lstrip(" "))]  # an item's; the list's is two spaces less
    pieces = [",\n" + frame[0], *frame[1:]]  # a frame column shares one string

    def rows(block: slice) -> np.ndarray:
        values = columns(block)
        table = np.empty((len(values), 2 * len(frame) - 1), dtype=object)
        table[:, 0::2], table[:, 1::2] = pieces, values
        if not block.start:
            table[0, 0] = "[\n" + frame[0]
        return table
    yield from row_blocks(count, rows)
    yield "\n" + indent[2:] + "]"


def string_list(strings, depth: int) -> str:
    """A list of strings as json_list writes it where an item is `depth` levels deep, in one join: for
    the short lists inside a measured step, where building a table costs more than the join."""
    indent = "\n" + "  " * depth
    return f"[{indent}{(',' + indent).join(map(encode_basestring_ascii, strings))}{indent[:-2]}]" if strings else "[]"


def row_blocks(count: int, rows):
    """The text of `count` list items in strings of at most BLOCK_ROWS items: rows(block), for a
    slice of item indices, is those items' object array of pieces, one row each."""
    for start in range(0, count, BLOCK_ROWS):
        yield "".join(rows(slice(start, start + BLOCK_ROWS)).ravel().tolist())
