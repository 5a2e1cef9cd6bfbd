"""The README's code runs against the names the package exports."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_sixty_second_tour_runs():
    text = README.read_text()
    tour = text[text.index("## A 60-second tour"):]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    names: dict = {}
    exec(compile(code, str(README), "exec"), names)
    verdict, report = names["verdict"], names["report"]
    assert verdict.satisfied
    assert abs(verdict.margin - (-2.0 * math.sin(names["triple"].horizon - 0.5))) <= 1e-6
    assert report.empty
