"""The package exports only what the program itself uses.

A name in ``arakelov_rr.__all__`` must be referenced by the code of some
module in ``src/arakelov_rr`` other than ``__init__.py``, where the name
that follows ``def`` or ``class`` does not count and neither do comments
or strings, or else be named in ``bench/``, which refers to the layers it
traces by strings such as ``"gamma.pushforward"``.  A public function that
only tests call fails here: it either gets a caller or goes.
"""

import io
import re
import tokenize
from pathlib import Path

import arakelov_rr

ROOT = Path(__file__).resolve().parent.parent


def code_names(path):
    """The names a module's code references, less those it defines."""
    names = set()
    previous = None
    for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if token.type == tokenize.NAME and previous not in ("def", "class"):
            names.add(token.string)
        previous = token.string
    return names


def test_every_exported_name_has_a_caller_outside_the_tests():
    used = set()
    for path in (ROOT / "src" / "arakelov_rr").glob("*.py"):
        if path.name != "__init__.py":
            used |= code_names(path)
    for path in (ROOT / "bench").glob("*.py"):
        used |= set(re.findall(r"\w+", path.read_text()))
    # the package version is metadata for its users, not an entry point
    exported = [name for name in arakelov_rr.__all__ if name != "__version__"]
    assert [name for name in exported if name not in used] == []
