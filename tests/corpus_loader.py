"""Corpus loading for the test modules (`from corpus_loader import load`).

Kept out of `conftest.py` so that the name cannot clash with another
test tree's conftest when several run in one session.
"""

from termflow.corpus import corpus_path
from termflow.dsl import parse


def load(name: str, kind: str = "auto"):
    return parse(corpus_path(name).read_text(), kind)
