"""Golden CLI corpus: reports must stay byte-identical outside `timings`.

Each case runs one CLI command and compares its exit code and its report,
with the `timings` field removed, to the text frozen in
golden/cli_corpus.json.  The corpus covers `gen` for five groups and four
instance kinds, then cover, chang, spectrum and pipeline on every generated
set, plus one cover sweep and one verify-lemmas run.

Regenerate the corpus (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from statcover.cli import main

CORPUS = Path(__file__).resolve().parent / "golden" / "cli_corpus.json"

GROUPS = ("2^4", "3^3", "2x4x4", "12", "5x5")
KIND_FLAGS = {
    "random": ["--size", "5", "--seed", "3"],
    "independent": [],
    "subgroup": ["--n-generators", "1", "--seed", "2"],
    "coset_union": ["--n-generators", "1", "--n-cosets", "2", "--seed", "4"],
}
SET_COMMANDS = {
    "cover": ["--delta", "1/4"],
    "chang": ["--kappa", "1/2", "--eta", "1/4"],
    "spectrum": ["--epsilon", "1/3"],
    "pipeline": [],
}
STANDALONE = {
    "cover-sweep": ["cover", "--group", "2x4", "--delta", "1/2", "--count", "3"],
    "verify-lemmas": ["verify-lemmas", "--group", "2^3", "--trials", "2"],
}


def _set_name(group: str, kind: str) -> str:
    return f"{group.replace('^', 'p')}-{kind}"


def _cases() -> list[tuple[str, list[str]]]:
    """(case name, argv) in run order; `{set}` stands for the set file path."""
    cases = []
    for group in GROUPS:
        for kind, flags in KIND_FLAGS.items():
            name = _set_name(group, kind)
            cases.append((f"{name}/gen", ["gen", "--group", group, "--kind", kind, *flags]))
            for cmd, cmd_flags in SET_COMMANDS.items():
                cases.append((f"{name}/{cmd}", [cmd, "--input", "{set}", *cmd_flags]))
    cases += [(name, argv) for name, argv in STANDALONE.items()]
    return cases


def _strip_timings(text: str) -> str:
    payload = json.loads(text)
    payload.pop("timings", None)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _run_case(name: str, argv: list[str], workdir: Path) -> tuple[int, str]:
    out = workdir / (name.replace("/", "--") + ".json")
    set_path = workdir / (name.split("/")[0] + "--gen.json")
    argv = [str(set_path) if a == "{set}" else a for a in argv]
    code = main([*argv, "--output", str(out)])
    return code, _strip_timings(out.read_text(encoding="utf-8"))


def _load_corpus() -> dict[str, dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_lists_every_case():
    assert list(_load_corpus()) == [name for name, _ in _cases()]


def test_reports_match_corpus(tmp_path):
    corpus = _load_corpus()
    mismatched = []
    for name, argv in _cases():
        code, report = _run_case(name, argv, tmp_path)
        want = corpus[name]
        if code != want["exit"] or report != want["report"]:
            mismatched.append(name)
    assert not mismatched


def _write_corpus(workdir: Path) -> None:
    corpus = {}
    for name, argv in _cases():
        code, report = _run_case(name, argv, workdir)
        corpus[name] = {"argv": argv, "exit": code, "report": report}
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _write_corpus(Path(tmp))
