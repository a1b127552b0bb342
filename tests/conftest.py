import pytest

import varcomp.cli
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

    for module in (varcomp.reporting, varcomp.cli):
        monkeypatch.setattr(module, "render_rows", spy)
    return seen
