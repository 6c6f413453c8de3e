import re
from pathlib import Path
from types import ModuleType

import floqueng as fq

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    # every fenced python block of the README is run as written
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    for source in blocks:
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_package_root_exports_the_readme_names():
    # the root holds the names the README reaches as fq.<name> and no more;
    # a module named there (fq.algebra) is a submodule, not a re-export
    names = set(re.findall(r"\bfq\.(\w+)", README.read_text()))
    modules = {n for n in names if isinstance(getattr(fq, n, None), ModuleType)}
    assert all(getattr(fq, n).__name__ == f"floqueng.{n}" for n in modules)
    public = {n for n, v in vars(fq).items()
              if not n.startswith("_") and not isinstance(v, ModuleType)}
    assert public == names - modules
    assert isinstance(fq.__version__, str)
