"""Built-in example groups, shipped as .pg files under pgw/data.

Every file was derived from an explicit integer model of the group
(see scripts/derive_corpus.py) and is parsed through the same validating
reader as user input.
"""

from functools import lru_cache

from . import groupfile

# the odd-order corpus; q8 also ships as a p = 2 boundary fixture
CORPUS_NAMES = ("c9", "c3c3", "h27", "x27", "w81", "m243", "g2187")

DEMO_NAME = "g2187"


@lru_cache(maxsize=None)
def load(name):
    """Load a packaged presentation by name (cached, so identity is stable).
    importlib.resources is imported here: a run on a group file never needs it."""
    from importlib import resources

    path = resources.files("pgw") / "data" / f"{name}.pg"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise KeyError(f"no packaged group named {name!r}") from None
    return groupfile.parse_text(text, source=f"pgw/data/{name}.pg").presentation


def demo():
    return load(DEMO_NAME)
