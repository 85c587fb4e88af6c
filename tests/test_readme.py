import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start():
    """The python block under README's "Library quick start" heading."""
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_prints_what_its_comments_promise():
    code = _quick_start()
    # the first word of each comment: "# UNTAME (order bound ...)", "# 6, i.e. ..."
    promised = re.findall(r"#\s*(\w+)", code)
    assert promised == ["UNTAME", "6"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == promised
