"""Record how every corpus file loads when its text is corrupted.

    PYTHONPATH=src python tests/record_load_errors.py   # rewrites tests/load_errors.json

For each corpus file the script derives these texts, with token positions
taken from the reference tokenizer in `token_oracle`:

- the text truncated after every 7th token;
- the text with one token deleted, for every 5th token;
- the text with a stray `$` or `"` (in turn) inserted before every 97th
  character;
- the text with every space replaced by a tab, `\\r`, `\\x0c` or `\\u00a0`,
  and with every newline replaced by `\\r\\n`.

Each outcome is the exception a load raises, as `<class>: <str>` (a
`LoadError` prints as `line:col: message`), or the serialized model.
Serialized models are stored once, under the SHA-256 of their text.
`test_modelfile.py::test_corrupted_corpus_loads_match_golden` replays the
texts and requires the same outcomes.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from token_oracle import tokenize  # noqa: E402

from rgkit.modelfile import parse_bpc, parse_pcm, serialize, serialize_bpel  # noqa: E402

GOLDEN = os.path.join(HERE, "load_errors.json")
CORPUS = os.path.join(HERE, "..", "corpus")
SPACES = {"tab": "\t", "cr": "\r", "ff": "\x0c", "nbsp": "\u00a0"}


def corpus_files() -> list[str]:
    return sorted(n for n in os.listdir(CORPUS) if n.endswith((".pcm", ".bpc")))


def token_spans(text: str) -> list[tuple[int, int]]:
    """(start, end) offsets of every token but the end marker."""
    starts = [0]
    for k, ch in enumerate(text):
        if ch == "\n":
            starts.append(k + 1)
    spans = []
    for t in tokenize(text)[:-1]:
        start = starts[t.line - 1] + t.col - 1
        spans.append((start, start + len(t.text)))
    return spans


def corruptions(text: str):
    """(case name, corrupted text) pairs, in a fixed order."""
    spans = token_spans(text)
    for k in range(6, len(spans), 7):
        yield f"truncate-after-{k + 1}", text[: spans[k][1]]
    for k in range(4, len(spans), 5):
        a, b = spans[k]
        yield f"delete-{k + 1}", text[:a] + text[b:]
    for n, at in enumerate(range(0, len(text), 97)):
        yield f"stray-at-{at}", text[:at] + "$\""[n % 2] + text[at:]
    for name, ch in SPACES.items():
        yield f"spaces-as-{name}", text.replace(" ", ch)
    yield "crlf", text.replace("\n", "\r\n")


def outcome(name: str, text: str) -> str:
    """`<class>: <str>` of the load's exception, or the serialized model."""
    try:
        if name.endswith(".bpc"):
            return serialize_bpel(parse_bpc(text))
        return serialize(parse_pcm(text))
    except Exception as e:  # noqa: BLE001 - every outcome is recorded
        return f"{type(e).__name__}: {e}"


def corpus_text(name: str) -> str:
    with open(os.path.join(CORPUS, name), encoding="utf-8") as f:
        return f.read()


def outcomes(name: str, text: str) -> tuple[dict[str, str], dict[str, str]]:
    """The outcome of each corruption of `text` by case name, a serialized
    model given as `model <SHA-256>`; and those models by digest."""
    cases, models = {}, {}
    for case, bad in corruptions(text):
        out = outcome(name, bad)
        if out.startswith(("MODEL ", "BPEL ")):
            digest = hashlib.sha256(out.encode()).hexdigest()
            models[digest] = out
            out = f"model {digest}"
        cases[case] = out
    return cases, models


def record() -> dict:
    cases, models = {}, {}
    for name in corpus_files():
        cases[name], found = outcomes(name, corpus_text(name))
        models.update(found)
    return {"cases": cases, "models": models}


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as f:
        json.dump(record(), f, indent=1, sort_keys=True, ensure_ascii=True)
        f.write("\n")
    print(f"wrote {GOLDEN}")
