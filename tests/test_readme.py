"""README's API quick start runs as written and prints the numbers it quotes.

So a public name the README uses cannot be deleted or renamed, and a quoted
number cannot go stale, without failing here.  Each ``print`` line's comment
quotes its values as ``~x``; the printed value, rounded to the significant
digits of ``x``, must read ``x`` (an array's every element must).
"""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"
QUOTE = re.compile(r"~(-?\d(?:\.(\d+))?e?-?\d*)")


def _reads_as(value, quoted, decimals):
    return all(f"{v:.{decimals}e}" == f"{float(quoted):.{decimals}e}"
               for v in np.ravel(value))


def test_api_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    printed = []
    exec(compile(blocks[0], str(README), "exec"), {"print": lambda *args: printed.append(args)})
    quotes = [QUOTE.findall(line) for line in blocks[0].splitlines() if line.startswith("print(")]
    assert len(printed) == len(quotes) == 4
    for values, quoted in zip(printed, quotes):
        assert len(values) == len(quoted)
        for value, (number, digits) in zip(values, quoted):
            assert _reads_as(value, number, len(digits)), (value, number)
