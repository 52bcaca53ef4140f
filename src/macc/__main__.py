"""``python -m macc``: the ``macc`` command, runnable from a checkout that is not installed."""

from .cli import entry

entry()
