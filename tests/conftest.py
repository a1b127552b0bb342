import pytest

import varcomp.reporting


@pytest.fixture
def rendered_blocks(monkeypatch):
    """The list that every block a command renders in this process is
    appended to, by the one row renderer, ``reporting.render_rows``."""
    seen = []
    render = varcomp.reporting.render_rows

    def spy(blocks, fmt):
        blocks = list(blocks)
        seen.extend(blocks)
        return render(blocks, fmt)

    monkeypatch.setattr(varcomp.reporting, "render_rows", spy)
    return seen
