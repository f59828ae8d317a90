"""Byte-level fuzzing of the CLI's input files.

Each case takes one small valid input, replaces, inserts and deletes bytes
(non-UTF-8 bytes included), and runs the command that reads it. Whatever
the bytes, the command must end with exit code 0, 1 (error) or 2 (usage),
never with an uncaught exception.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import write_tsv
from humorlm.cli import main

# Bytes that tend to matter to the parsers, plus arbitrary ones.
_PIECES = st.sampled_from(
    [b"\xe9", b"\xff", b"\xc3", b"\x00", b"\t", b"\n", b"\r", b" ", b"-", b"9",
     b"e", b".", b"#", b"\\", b'"', b"{", b"]", b",", b"2"]
) | st.binary(min_size=1, max_size=4)


@st.composite
def _mutated(draw, original: bytes) -> bytes:
    buf = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("replace", "insert", "delete")))
        pos = draw(st.integers(0, len(buf)))
        if kind == "delete":
            del buf[pos : pos + draw(st.integers(1, 8))]
            continue
        piece = draw(_PIECES)
        end = pos if kind == "insert" else pos + len(piece)
        buf[pos:end] = piece
    return bytes(buf)


_ARPA = (
    "# humorlm order=2 filter_tags=false filter_urls=false split_punct=false "
    "lowercase=false boundaries=true direction=most-like\n\n"
    "\\data\\\nngram 1=5\nngram 2=3\n\n"
    "\\1-grams:\n-0.9\t<unk>\t0.0\n-99.0\t<s>\t-0.3\n-0.5\t</s>\t0.0\n"
    "-0.4\ta\t-0.2\n-0.6\tb\t0.0\n\n"
    "\\2-grams:\n-0.2\t<s> a\n-0.3\ta b\n-0.1\tb </s>\n\n\\end\\\n"
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The valid input of each case, the file that gets mutated, and the
    argv that reads it."""
    root = tmp_path_factory.mktemp("fuzz")
    model = root / "m.arpa"
    model.write_text(_ARPA, encoding="utf-8")
    corpus = root / "corpus.txt"
    corpus.write_text("a b a c\nb a c a b\nc c a\n", encoding="utf-8")
    tags = root / "T.tsv"
    write_tsv(tags, [("x", "a b", 2), ("y", "b a c", 1), ("z", "c", 0)])
    # One valid prediction directory per case, so that a case mutates only
    # its own files.
    ranking, pairs = b"x\ny\nz\n", b"x\ty\t1\nx\tz\t1\ny\tz\t1\n"
    for name in ("preds", "preds_a", "preds_b"):
        (root / name).mkdir()
        (root / name / "T_PREDICT_B.tsv").write_bytes(ranking)
        (root / name / "T_PREDICT_A.tsv").write_bytes(pairs)
    grid = json.dumps({
        "corpora": {"c": str(corpus)},
        "hashtags": str(tags),
        "gold": str(tags),
        "fallback_discount": 0.5,
        "rows": [{"dataset": "c", "order": 2, "boundaries": True}],
    })
    hashtags, gold, grid_json = root / "H.tsv", root / "gold" / "T.tsv", root / "grid.json"
    return {
        "arpa": (_ARPA.encode(), model, ["import-check", str(model)]),
        "hashtags": (tags.read_bytes(), hashtags,
                     ["rank", "-m", str(model), "-d", str(root / "out"), str(hashtags)]),
        "gold": (tags.read_bytes(), gold, ["evaluate", "-p", str(root / "preds"), str(gold)]),
        "grid": (grid.encode(), grid_json, ["grid", "-d", str(root / "grid_out"), str(grid_json)]),
        "predictions_a": (pairs, root / "preds_a" / "T_PREDICT_A.tsv",
                          ["evaluate", "-p", str(root / "preds_a"), str(tags)]),
        "predictions_b": (ranking, root / "preds_b" / "T_PREDICT_B.tsv",
                          ["evaluate", "-p", str(root / "preds_b"), str(tags)]),
    }


@pytest.mark.parametrize(
    "case", ["arpa", "hashtags", "gold", "grid", "predictions_a", "predictions_b"]
)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_input_exits_cleanly(inputs, case, data):
    original, path, argv = inputs[case]
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data.draw(_mutated(original), label="input"))
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    assert code in (0, 1, 2)
