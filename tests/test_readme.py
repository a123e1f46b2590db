"""README's library example runs and prints the values it documents."""

import re
import subprocess
import sys
from pathlib import Path

import specirr

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_prints_its_documented_values():
    text = README.read_text(encoding="utf-8")
    [block] = re.findall(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    # Run from the directory holding the imported package, as a user would
    # after installing it.
    root = Path(specirr.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", block], cwd=root, capture_output=True,
                          text=True, check=True, timeout=300)
    assert done.stdout.splitlines() == [
        "0.047027641551180555",
        "0.0369290573372206",
        "5 4 DqG 1",
        "5 5 DiK 2",
        "5 6 Ds[ 1",
        "5 7 Dr[ 1",
        "5 8 D}k 1",
        "5 9 D~[ 1",
    ]
