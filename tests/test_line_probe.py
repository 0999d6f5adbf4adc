import importlib.util
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "line_probe.py"


def load_script():
    spec = importlib.util.spec_from_file_location("line_probe", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODULE = textwrap.dedent('''\
    """Module doc."""
    import os

    @property
    def f(a):
        """Doc, which runs no code."""
        global G
        x = (a +
             1)
        if x:
            pass
        return x

    class K:
        """Class doc, which runs."""
        u: int
''')


def test_statement_spans_on_a_module_with_a_known_answer():
    assert load_script().statement_spans(MODULE) == [
        (1, 1), (2, 2),
        (4, 12),            # f, from its decorator
        (8, 9), (10, 11), (11, 11), (12, 12),
        (14, 16), (15, 15), (16, 16),
    ]
