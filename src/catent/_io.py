"""Bit-exact matrix serialization helpers.

Complex matrices are stored row-major as ``[re, im]`` pairs of C99 hex
float strings (``float.hex()``), which round-trip doubles exactly and
stay readable in a diff.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import DocumentError


def check_format(doc, fmt: str, what: str) -> None:
    """Raise DocumentError unless ``doc`` is a JSON object tagged ``fmt``."""
    got = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
    if got != fmt:
        raise DocumentError(f"unsupported {what} format {got!r}")


@contextmanager
def parsing(what: str):
    """Report a missing key or a wrong-typed entry in the block as DocumentError."""
    try:
        yield
    except DocumentError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise DocumentError(f"malformed {what} document: {exc!r}") from exc


def encode_matrix(matrix: np.ndarray) -> dict:
    m = np.asarray(matrix, dtype=complex)
    entries = [[float(z.real).hex(), float(z.imag).hex()] for z in m.ravel(order="C")]
    return {"shape": list(m.shape), "entries": entries}


def decode_matrix(doc: dict) -> np.ndarray:
    with parsing("matrix"):
        shape = tuple(int(s) for s in doc["shape"])
        flat = [complex(float.fromhex(re), float.fromhex(im)) for re, im in doc["entries"]]
    if len(flat) != int(np.prod(shape)):
        raise DocumentError(
            f"matrix document has {len(flat)} entries, expected {np.prod(shape)}"
        )
    return np.array(flat, dtype=complex).reshape(shape, order="C")
