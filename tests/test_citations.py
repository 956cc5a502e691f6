import re
from pathlib import Path

import carleman

TESTS = Path(__file__).resolve().parent
# a test cited by name, not a test file (tests/test_acceptance.py)
CITED = re.compile(r"(?<![\w/])test_\w+\b(?!\.py)")


def test_cited_test_names_exist():
    # every test that README.md or the package's source cites by name is
    # defined under tests/, so a rename cannot leave a dangling citation
    defined = {m for path in TESTS.glob("test_*.py")
               for m in re.findall(r"^def (test_\w+)", path.read_text(), re.M)}
    sources = [TESTS.parent / "README.md", *Path(carleman.__file__).parent.glob("*.py")]
    cited = {(path.name, name) for path in sources for name in CITED.findall(path.read_text())}
    assert len(cited) >= 3
    assert not {c for c in cited if c[1] not in defined}
