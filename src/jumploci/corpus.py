"""Named desk-scale presentations used by the regression suite and CLI.

A corpus name is the stem of a ``corpus/<name>.pres`` file of the
checkout this package runs from (``<checkout>/src/jumploci/corpus.py``);
each file's leading comments say what the group is.  The directory is
listed only when a name is looked up, and without one there are no
names.  Which of these groups are Kaehler is a fact about the groups,
not about the program, so the one test that relies on it keeps its own
list.
"""

from __future__ import annotations

import os

from .presfile import load_presentation

CORPUS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "corpus")


def names():
    """The corpus names, sorted."""
    try:
        files = os.listdir(CORPUS_DIR)
    except OSError:
        return []
    return sorted(f[:-len(".pres")] for f in files if f.endswith(".pres"))


def get(name):
    # Only a listed stem reaches the join, so no name escapes CORPUS_DIR.
    if name not in names():
        raise KeyError(f"unknown corpus group {name!r}")
    return load_presentation(os.path.join(CORPUS_DIR, name + ".pres"))
