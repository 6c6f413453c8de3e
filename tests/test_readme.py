import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    # every fenced python block of the README is run as written
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for source in blocks:
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
