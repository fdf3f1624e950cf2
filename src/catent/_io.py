"""Document I/O and bit-exact matrix serialization helpers.

Complex matrices are stored row-major as ``[re, im]`` pairs of C99 hex
float strings (``float.hex()``), which round-trip doubles exactly and
stay readable in a diff.  Documents are written as one line of JSON by
json's C encoder; readers take any whitespace.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from itertools import chain

import numpy as np

from .errors import DimensionCapError, DocumentError


def check_format(doc, fmt: str, what: str) -> None:
    """Raise DocumentError unless ``doc`` is a JSON object tagged ``fmt``."""
    got = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
    if got != fmt:
        raise DocumentError(f"unsupported {what} format {got!r}")


@contextmanager
def parsing(what: str):
    """Report a missing key, a wrong-typed entry or a number past the float range
    in the block as DocumentError; a layout past a limit stays a DimensionCapError."""
    try:
        yield
    except (DocumentError, DimensionCapError):
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise DocumentError(f"malformed {what} document: {exc!r}") from exc


def integers(values) -> tuple[int, ...]:
    """A JSON list of integers as a tuple; DocumentError for any other value, or for an
    entry that is a bool, a float (``2.0`` too) or a string.  A scalar field reads as ``[v]``."""
    if type(values) is not list or not all(type(i) is int for i in values):
        raise DocumentError(f"expected a list of JSON integers, got {values!r}")
    return tuple(values)


def write_document(doc: dict, path) -> None:
    """Write ``doc`` as one line of compact JSON, encoded before the file is
    opened, so a document that cannot be encoded (say, a NaN) leaves no file."""
    text = json.dumps(doc, allow_nan=False, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def read_document(path):
    """The JSON value in the file at ``path``; DocumentError past json's nesting depth."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise DocumentError(f"document {path} is nested too deeply to read") from None


def encode_matrix(matrix: np.ndarray) -> dict:
    m = np.asarray(matrix, dtype=complex)
    it = map(float.hex, m.ravel(order="C").view(np.float64).tolist())
    return {"shape": list(m.shape), "entries": list(map(list, zip(it, it)))}


def decode_matrix(doc: dict) -> np.ndarray:
    with parsing("matrix"):
        shape = integers(doc["shape"])
        entries = doc["entries"]
        # every entry must be a [re, im] list: a two-character string would
        # otherwise unpack into two hex digits
        if not set(map(type, entries)) <= {list} or not set(map(len, entries)) <= {2}:
            raise DocumentError("matrix entries must be [re, im] pairs of hex strings")
        if len(entries) != math.prod(shape):
            raise DocumentError(
                f"matrix document has {len(entries)} entries, expected {math.prod(shape)}"
            )
        flat = np.fromiter(
            map(float.fromhex, chain.from_iterable(entries)), np.float64, 2 * len(entries)
        )
        return flat.view(complex).reshape(shape, order="C")
