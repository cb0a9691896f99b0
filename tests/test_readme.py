import contextlib
import io
import pathlib

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_tour() -> str:
    """The python block under README's "Library quick tour" heading."""
    text = README.read_text()
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_tour_prints_what_its_comments_state():
    # each print line's comment opens with the value it prints, up to the
    # first ':' or ' = '
    code = _quick_tour()
    stated = [line.split("# ", 1)[1].split(":", 1)[0].split(" = ", 1)[0]
              for line in code.splitlines() if line.startswith("print(")]
    assert stated == ["True", "15", "[True, True]", "7"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == stated
