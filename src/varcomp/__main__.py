"""``python -m varcomp``: ``cli.run``, which runs ``cli.main`` and leaves
without interpreter teardown."""

from .cli import run

run()
