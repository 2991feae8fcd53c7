"""Source layout: every line of the package fits in 100 characters."""

from pathlib import Path

import etalab

LINE_LIMIT = 100


def test_package_lines_fit_the_line_limit():
    package = Path(etalab.__file__).parent
    long_lines = [
        f"{path.name}:{number} has {len(line)} characters"
        for path in sorted(package.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > LINE_LIMIT
    ]
    assert long_lines == []
