"""pytest plugin: record ``tests/data/replay_goldens.json`` instead of checking it.

Load it explicitly, with ``tests/`` importable::

    PYTHONPATH=src:tests python -m pytest -p record_goldens tests

Its presence switches ``conftest.GOLDENS`` to recording: every golden
call site stores its run's record, and the file is rewritten once the
session ends.  Only tests that reach a golden call site contribute, so
run the whole ``tests`` directory.  The rewrite prints every key it
removes from the committed file (``replay golden removed: <key>``) or
adds to it (``replay golden added: <key>``), and nothing when the key
sets match.
"""
