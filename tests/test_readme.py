import ast
import contextlib
import io
import itertools
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
SETS_LINE = "[net.set_names(s) for s in res.sets]"


def library_tour() -> list[str]:
    """The lines of the `python` block under the README's "Library tour"."""
    section = README.read_text().split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_library_tour_prints_and_returns_what_its_comments_say():
    lines = library_tour()
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(lines), namespace)

    after_print = lines[lines.index("print(report.to_text())") + 1:]
    comments = itertools.takewhile(lambda line: line.startswith("# "), after_print)
    printed = [line[2:] for line in comments]
    assert printed
    assert out.getvalue().splitlines() == printed

    expr, comment = next(line for line in lines if line.startswith(SETS_LINE)).split("#", 1)
    assert eval(expr, namespace) == ast.literal_eval(comment.strip())
