import pytest

import varcomp.programs
import varcomp.reporting


@pytest.fixture
def rendered_blocks(monkeypatch):
    """The list that every block a command renders in this process is
    appended to, by the one row renderer, ``reporting.render_rows`` (which
    ``programs.chain_parts`` holds under its own name)."""
    seen = []
    render = varcomp.reporting.render_rows

    def spy(blocks, fmt):
        blocks = list(blocks)
        seen.extend(blocks)
        return render(blocks, fmt)

    monkeypatch.setattr(varcomp.reporting, "render_rows", spy)
    monkeypatch.setattr(varcomp.programs, "render_rows", spy)
    return seen
