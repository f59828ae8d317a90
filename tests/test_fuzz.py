"""Byte-level fuzzing of the CLI's input files.

Each case takes one small valid input (a training corpus, a model, a
hashtag file, a gold file, a grid config or a prediction file), replaces,
inserts and deletes bytes (non-UTF-8 bytes and the reserved tokens <s>,
</s> and <unk> included), and runs the command that reads it. Whatever
the bytes, the command must end with exit code 0, 1 (error) or 2 (usage),
never with an uncaught exception. A mutated model sidecar must change
nothing at all: `rank` reads the ARPA file instead. So must a sidecar
whose hashes match but whose arrays break the trie's rules, and a mutated
rank manifest: `compare` into its directory prints and writes what a
`compare` into a fresh one does.
"""

import io
import math
import shutil
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import run_compare, sidecar_arrays, sidecar_parts, write_hashtags
from humorlm import model
from humorlm.cli import main

# Bytes that tend to matter to the parsers, plus arbitrary ones. The tokens
# the models reserve come first, where Hypothesis draws most often.
_PIECES = st.sampled_from(
    [b" <s> ", b" </s> ", b" <unk> ", b"\xe9", b"\xff", b"\xc3", b"\x00", b"\t", b"\n",
     b"\r", b" ", b"-", b"9", b"e", b".", b"#", b"\\", b'"', b"{", b"]", b",", b"2"]
) | st.binary(min_size=1, max_size=4)


@st.composite
def _mutated(draw, original: bytes, pieces=_PIECES) -> bytes:
    buf = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("replace", "insert", "delete")))
        pos = draw(st.integers(0, len(buf)))
        if kind == "delete":
            del buf[pos : pos + draw(st.integers(1, 8))]
            continue
        piece = draw(pieces)
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
def inputs(tmp_path_factory, workspace):
    """The valid input of each case, the file that gets mutated, and the
    argv that reads it. The hashtags, gold, predictions and grid config
    are a workspace copy's; each case mutates a file only it reads."""
    root = tmp_path_factory.mktemp("fuzz")
    ws = workspace(root / "ws")
    corpus = root / "corpus.txt"
    corpus.write_text("a b a c\nb a c a b\nc c a\n", encoding="utf-8")
    tags = (ws.tags / "T.tsv").read_bytes()
    preds_a, preds_b = (shutil.copytree(ws.preds, root / name) for name in ("preds_a", "preds_b"))
    # The arpa case mutates a copy of a small hand-written model, so that
    # rank in the hashtags case reads a valid one and gets as far as the
    # mutated hashtag file; the corpus case one of the corpus.
    arpa, mutated_corpus = root / "mutated.arpa", root / "mutated_corpus.txt"
    gold = root / "gold" / "T.tsv"
    return {
        "corpus": (corpus.read_bytes(), mutated_corpus,
                   ws.argv("train", root / "trained.arpa", mutated_corpus)),
        "arpa": (_ARPA.encode(), arpa, ws.argv("import-check", None, arpa)),
        "hashtags": (tags, root / "H.tsv", ws.argv("rank", root / "out", root / "H.tsv")),
        "gold": (tags, gold, ws.argv("evaluate", None, gold)),
        "grid": (ws.grid.read_bytes(), ws.grid, ws.argv("grid", root / "grid_out")),
        "predictions_a": ((ws.preds / "T_PREDICT_A.tsv").read_bytes(), preds_a / "T_PREDICT_A.tsv",
                          ws.argv("evaluate", None, preds=preds_a)),
        "predictions_b": ((ws.preds / "T_PREDICT_B.tsv").read_bytes(), preds_b / "T_PREDICT_B.tsv",
                          ws.argv("evaluate", None, preds=preds_b)),
    }


@pytest.mark.parametrize(
    "case", ["corpus", "arpa", "hashtags", "gold", "grid", "predictions_a", "predictions_b"]
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


@pytest.fixture(scope="module")
def sidecar(tmp_path_factory):
    """A model, a valid sidecar's bytes, the argv of a rank that reads the
    model, and that rank's ranking when no sidecar exists."""
    root = tmp_path_factory.mktemp("sidecar")
    model = root / "m.arpa"
    model.write_text(_ARPA, encoding="utf-8")
    tags = write_hashtags(root / "tags", ["T"])
    argv = ["rank", "-m", str(model), "-d", str(root / "out"), str(tags / "T.tsv")]
    assert main(argv) == 0
    cache = root / "m.arpa.cache"
    valid = cache.read_bytes()
    cache.unlink()
    assert main(argv) == 0
    ranking = (root / "out" / "T_PREDICT_B.tsv").read_bytes()
    return valid, cache, argv, root / "out" / "T_PREDICT_B.tsv", ranking


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_sidecar_changes_nothing(sidecar, data):
    valid, cache, argv, out, ranking = sidecar
    cache.write_bytes(data.draw(_mutated(valid), label="sidecar"))
    out.unlink()
    assert main(argv) == 0
    assert out.read_bytes() == ranking


@pytest.fixture()
def manifest(tmp_path, capsys):
    """The argv of a compare (without -d) after a rank into `out`, rank's
    manifest, and what a compare into a fresh -d prints and writes. Its
    one test's examples share it, as they would a module's fixture."""
    model = tmp_path / "m.arpa"
    model.write_text(_ARPA, encoding="utf-8")
    tags = write_hashtags(tmp_path / "tags", ["T", "U"])
    argv = ["compare", str(tags), "-m", str(model)]
    with mock.patch("os.sched_getaffinity", return_value={0}):
        assert main(["rank", str(tags), "-m", str(model), "-d", str(tmp_path / "out")]) == 0
        fresh = run_compare(capsys, argv, tmp_path / "fresh")
    return argv, tmp_path / "out", (tmp_path / "out" / "rank_manifest.txt").read_bytes(), fresh


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_manifest_changes_nothing(manifest, capsys, data):
    # Hex digits, so that a mutation can also make a digest look whole.
    argv, out, valid, fresh = manifest
    pieces = _PIECES | st.sampled_from([bytes([c]) for c in b"0123456789abcdef"])
    (out / "rank_manifest.txt").write_bytes(data.draw(_mutated(valid, pieces), label="manifest"))
    with mock.patch("os.sched_getaffinity", return_value={0}):
        assert run_compare(capsys, argv, out) == fresh
    assert fresh[0] == 0 and len(fresh[3]) == 2


@pytest.mark.parametrize(
    "fault",
    ["keys-reordered", "keys-repeated", "prefix-row-out-of-range", "prob-nan",
     "backoff-inf", "array-truncated", "wrong-stamp"],
)
def test_invalid_sidecar_is_parsed_instead(sidecar, fault, capsys):
    _, cache, argv, out, ranking = sidecar
    arpa = cache.with_suffix("")
    header, (unigrams, bigrams) = sidecar_arrays(model.read_arpa(io.StringIO(_ARPA)))
    code = model._code_sha256()
    if fault == "keys-reordered":
        bigrams["keys"][[0, 1]] = bigrams["keys"][[1, 0]]
    elif fault == "keys-repeated":
        bigrams["keys"][1] = bigrams["keys"][0]
    elif fault == "prefix-row-out-of-range":
        # One row past the last unigram, times the vocabulary size.
        bigrams["keys"][-1] = len(unigrams["keys"]) ** 2
    elif fault == "prob-nan":
        bigrams["probs"][0] = math.nan
    elif fault == "backoff-inf":
        unigrams["backoffs"][1] = math.inf
    elif fault == "array-truncated":
        bigrams["probs"] = bigrams["probs"][:-1]
    else:
        code = "0" * 64
    with mock.patch.object(model, "_code_sha256", return_value=code):
        model._write_cache(str(cache), model._file_sha256(arpa), *sidecar_parts(header, [unigrams, bigrams]))
    parses = []
    parse = model._read_arpa

    def counting(f):
        parses.append(f)
        return parse(f)

    out.unlink()
    capsys.readouterr()
    with mock.patch.object(model, "_read_arpa", counting):
        assert main(argv) == 0
    assert (len(parses), capsys.readouterr().err) == (1, "")
    assert out.read_bytes() == ranking
