"""Document I/O: the matrix codec against its per-element oracle, and the writers."""

import importlib
import json
import os
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import catent
from catent import _io
from catent.errors import DocumentError
from catent.locc import flatten, load_protocol, protocol_to_dict, save_protocol
from catent.purecat import synthesize_pure_protocol
from catent.qstate import (
    SchmidtVector,
    SystemLayout,
    load_state,
    random_state,
    save_state,
    state_to_dict,
)


def _encode_oracle(matrix):
    """The per-element encoder the vectorized one replaced."""
    m = np.asarray(matrix, dtype=complex)
    entries = [[float(z.real).hex(), float(z.imag).hex()] for z in m.ravel(order="C")]
    return {"shape": list(m.shape), "entries": entries}


def _decode_oracle(doc):
    """The per-element decoder the vectorized one replaced."""
    shape = tuple(int(s) for s in doc["shape"])
    flat = [complex(float.fromhex(re), float.fromhex(im)) for re, im in doc["entries"]]
    return np.array(flat, dtype=complex).reshape(shape, order="C")


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
            float("inf"), float("-inf"), 1.0, -0.1]
_reals = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=False))


@st.composite
def _matrices(draw):
    shape = tuple(draw(st.lists(st.integers(0, 4), min_size=1, max_size=3)))
    size = int(np.prod(shape))
    parts = draw(st.lists(_reals, min_size=2 * size, max_size=2 * size))
    m = np.array(parts, dtype=np.float64).view(complex).reshape(shape)
    return m.T if draw(st.booleans()) else m  # a transposed, non-contiguous view too


def _bits(m):
    return np.ascontiguousarray(m, dtype=complex).view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_codec_matches_per_element_oracle(m):
    doc = _io.encode_matrix(m)
    assert doc == _encode_oracle(m)
    back = _io.decode_matrix(doc)
    assert back.dtype == complex and back.shape == m.shape
    assert np.array_equal(_bits(back), _bits(m))
    assert np.array_equal(_bits(back), _bits(_decode_oracle(doc)))


@pytest.mark.parametrize(
    "entries",
    [["10"], ["0x1p+0"], [["0x1p+0"]], [["0x1p+0", "0x0p+0", "0x0p+0"]], [("0x1p+0", "0x0p+0")],
     [5], "10"],
    ids=["two-char-string", "string", "one-item", "three-items", "tuple", "number", "bare-string"],
)
def test_matrix_entry_must_be_a_two_item_list(entries):
    # a two-character string used to unpack into two hex digits: "10" read as 1+0j
    with pytest.raises(DocumentError, match=r"\[re, im\] pairs"):
        _io.decode_matrix({"shape": [1, 1], "entries": entries})


@pytest.mark.parametrize(
    "doc",
    [{"shape": [1, 1], "entries": [[1.0, 0.0]]},
     {"shape": [2, 2], "entries": [["0x1p+0", "0x0p+0"]]},
     {"shape": [-1, -1], "entries": [["0x1p+0", "0x0p+0"]]},
     {"shape": [1, 1], "entries": [["0xg", "0x0p+0"]]}],
    ids=["numbers", "too-few", "negative-shape", "bad-hex"],
)
def test_malformed_matrix_raises_document_error(doc):
    with pytest.raises(DocumentError):
        _io.decode_matrix(doc)


def test_entry_count_is_checked_against_the_exact_size():
    # an int64 product of this shape wraps to 0, which the empty list would match
    with pytest.raises(DocumentError, match="has 0 entries, expected 18446744073709551616"):
        _io.decode_matrix({"shape": [2**32, 2**32], "entries": []})


def _n3_synthesis():
    # the 128-outcome measure-and-correct step of the n=3 pure conversion
    src, tgt = SchmidtVector.of((0.5, 0.5)), SchmidtVector.of((0.7, 0.3))
    s3, t3 = src.tensor(src).tensor(src), tgt.tensor(tgt).tensor(tgt)
    return synthesize_pure_protocol(s3, t3, layout=SystemLayout([(0, 2), (1, 2)]).power(3))


def test_n3_synthesis_file_round_trip_is_bit_exact(tmp_path):
    proto = _n3_synthesis()
    assert len(proto.steps[0].instrument.outcomes) == 128
    path = tmp_path / "synth.json"
    save_protocol(proto, path)
    text = path.read_text(encoding="utf-8")
    assert text.count("\n") == 1 and text.endswith("\n")
    assert json.loads(text) == protocol_to_dict(proto)
    # the Choi matrix is a function of the Kraus stack alone, so equal stacks
    # give a Choi difference of 0 without building two 4096 x 4096 matrices
    want, got = flatten(proto), flatten(load_protocol(path))
    assert np.array_equal(_bits(got._stack), _bits(want._stack))


def test_indented_files_still_load(tmp_path):
    proto = _n3_synthesis()
    state = random_state(SystemLayout([(0, 2), (1, 3)]), "ginibre_mixed", seed=4)
    ppath, spath = tmp_path / "p.json", tmp_path / "s.json"
    for doc, path in ((protocol_to_dict(proto), ppath), (state_to_dict(state), spath)):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    got, want = flatten(load_protocol(ppath)), flatten(proto)
    assert np.array_equal(_bits(got._stack), _bits(want._stack))
    loaded = load_state(spath)
    assert loaded.layout == state.layout
    assert np.array_equal(_bits(loaded.matrix), _bits(state.matrix))


def test_state_file_is_one_line_of_its_dict(tmp_path):
    state = random_state(SystemLayout([(0, 2), (1, 2)]), "haar_pure", seed=1)
    path = tmp_path / "s.json"
    save_state(state, path)
    text = path.read_text(encoding="utf-8")
    assert text.count("\n") == 1 and json.loads(text) == state_to_dict(state)


def test_failed_encode_leaves_the_file_untouched(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError):
        _io.write_document({"format": "x", "value": float("nan")}, path)
    assert not path.exists()
    path.write_text("before\n", encoding="utf-8")
    with pytest.raises(ValueError):
        _io.write_document({"format": "x", "value": float("inf")}, path)
    assert path.read_text(encoding="utf-8") == "before\n"


def test_readme_lists_every_document_format():
    # the bullets under "## File formats" name exactly the package's *_FORMAT tags
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^- `(catent-[a-z]+-v\d+)`", section, re.M))
    tags = set()
    for info in pkgutil.iter_modules(catent.__path__, "catent."):
        module = importlib.import_module(info.name)
        tags |= {v for k, v in vars(module).items() if k.endswith("_FORMAT")}
    assert listed == tags == {"catent-state-v1", "catent-protocol-v2"}
