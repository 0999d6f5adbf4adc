import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "settable_values.py"


def load_script():
    spec = importlib.util.spec_from_file_location("settable_values", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODULE = textwrap.dedent('''
    import dataclasses
    from dataclasses import dataclass

    def f(a, b=1, *args, c, **kw):      # 5
        pass

    class K:
        def m(self, x):                 # 1
            pass

        @classmethod
        def n(cls, y, /, z):            # 2
            pass

    g = lambda p, q: p                  # 2

    @dataclass
    class D:
        u: int                          # 1
        v: float = 0.0                  # 1
        w = 3                           # not annotated
        def h(self):                    # 0
            pass

    @dataclasses.dataclass(frozen=True)
    class E:
        t: str                          # 1

    class NotData:
        s: int                          # not a dataclass
''')


def test_count_on_a_module_with_a_known_count(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(MODULE)
    assert load_script().count_settable(path.read_text()) == 13


def test_script_prints_modules_and_their_total():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                          text=True, timeout=60, check=True)
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert lines[-1][1] == "total"
    assert {"cache", "policies", "report"} <= {name for _, name in lines}
    assert int(lines[-1][0]) == sum(int(n) for n, _ in lines[:-1])
