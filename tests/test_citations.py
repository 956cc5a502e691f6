import argparse
import re
from pathlib import Path

import carleman
from carleman.cli import build_parser

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
SRC = Path(carleman.__file__).parent
# a test cited by name, not a test file (tests/test_acceptance.py)
CITED = re.compile(r"(?<![\w/])test_\w+\b(?!\.py)")


def _defined_tests():
    return {m for path in TESTS.glob("test_*.py")
            for m in re.findall(r"^def (test_\w+)", path.read_text(), re.M)}


def test_cited_test_names_exist():
    # every test that README.md or the package's source cites by name is
    # defined under tests/, so a rename cannot leave a dangling citation
    sources = [README, *SRC.glob("*.py")]
    cited = {(path.name, name) for path in sources for name in CITED.findall(path.read_text())}
    assert len(cited) >= 3
    assert not {c for c in cited if c[1] not in _defined_tests()}


def _names(source):
    # what a module defines: functions, classes, assigned names and
    # attributes, dataclass fields, and the keys of the records it writes
    return set(re.findall(r"\b(?:def|class) (\w+)", source)
               + re.findall(r"^\s*(?:self\.)?(\w+)(?:\s*:[^=\n]+)?\s*=(?!=)", source, re.M)
               + re.findall(r"^\s+(\w+): \w", source, re.M)
               + re.findall(r"[\"'](\w+)[\"']:", source))


def _command_line_ok(words, commands):
    # a subcommand, then flags of it, each choice among the flag's choices
    if words[0] == "carleman":
        words = words[1:]
    if not words or words[0] not in commands:
        return False
    flags = commands[words[0]]._option_string_actions
    for i, word in enumerate(words[1:], 1):
        flag = word.split("=")[0]
        if word.startswith("--") and flag not in flags:
            return False
        choices = flags[flag].choices if word.startswith("--") else None
        if choices and "=" not in word and (i + 1 == len(words) or words[i + 1] not in choices):
            return False
    return True


def test_readme_code_names_exist():
    # every code name README puts in backticks is defined in the package (a
    # module, or a name one defines), is a CLI subcommand or flag, or is a
    # test, so a rename or a removal cannot leave README describing it
    modules = {path.stem: _names(path.read_text()) for path in SRC.glob("*.py")}
    defined = set(modules).union(*modules.values())
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    flags = {f for p in commands.values() for f in p._option_string_actions}
    tests = _defined_tests()
    text = re.sub(r"^```.*?^```", "", README.read_text(), flags=re.M | re.S)
    spans = re.findall(r"`([^`\n]+)`", text)
    assert len(spans) >= 20

    def ok(span):
        words = span.split()
        if words[0] == "carleman" or words[0] in commands:
            return _command_line_ok(words, commands)
        if span.startswith("--"):
            return words[0].split("=")[0] in flags
        if span.startswith("test_"):
            return span in tests
        parts = span.split(".")
        if not re.fullmatch(r"\w+(\.\w+)*", span):
            return False
        if len(parts) == 2 and parts[0] in modules:
            return parts[1] in modules[parts[0]]
        return len(parts) == 1 and span in defined
    assert [s for s in spans if not ok(s)] == []
