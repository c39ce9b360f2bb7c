"""README's library example runs as written, so a public name it uses cannot vanish unnoticed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    exec(compile(example, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == example.count("print(")
    assert "(16, 16)" in lines
