"""The SVG and ASCII renderers, by property and on the golden plots."""

import math
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simulmob.cli import main
from simulmob.plotting import MAGNITUDE_LIMIT, render_ascii, render_svg

GOLDEN = Path(__file__).resolve().parent / "golden"
SVG = "{http://www.w3.org/2000/svg}"
BIG = 2**62
LIMIT = int(MAGNITUDE_LIMIT)

# XML 1.0 characters, markup ones included. A CR is left out: a parser
# reads every line end back as LF.
titles = st.text(st.characters(
    exclude_categories=("Cs", "Cc"), exclude_characters="\ufffe\uffff",
    include_characters="\t\n&<>\"'"))


@st.composite
def series(draw, bound):
    """Two equal-length int series and a brink, often sharing values.

    Each series repeats a short drawn cycle, which keeps long series cheap
    to draw.
    """
    n = draw(st.integers(1, 200))
    values = st.integers(-bound, bound)
    pool = draw(st.lists(values, min_size=1, max_size=4))
    value = st.one_of(values, st.sampled_from(pool))
    cycles = st.lists(value, min_size=1, max_size=8)
    mn0, mn1 = draw(cycles), draw(cycles)
    return ([mn0[i % len(mn0)] for i in range(n)],
            [mn1[i % len(mn1)] for i in range(n)], draw(value))


def ascii_lines(text):
    assert text.endswith("\n")
    return text[:-1].split("\n")


class TestSvg:
    @settings(max_examples=200, deadline=None)
    @given(series(BIG), st.booleans(), titles)
    @example(([BIG], [BIG], BIG), True, "")
    @example(([BIG, BIG + 1], [BIG - 1, BIG], BIG), False, "a&b<c>.csv")
    @example(([-7] * 3, [-7] * 3, -7), True, "&amp; ]]> <!-- \"'")
    def test_well_formed(self, data, chained, title):
        mn0, mn1, brink = data
        root = ET.fromstring("".join(
            render_svg(mn0, mn1, brink, chained, title, "step")))
        assert (root.find(f"{SVG}text").text or "") == title
        if chained:
            assert len(root.findall(f"{SVG}polyline")) == 2
            assert root.findall(f"{SVG}circle") == []
        else:
            assert root.findall(f"{SVG}polyline") == []
            assert len(root.findall(f"{SVG}circle")) == 2 * len(mn0)

    @pytest.mark.parametrize("chained", [True, False])
    def test_pieces_hold_at_most_1024_points(self, chained):
        n = 2500
        pieces = list(render_svg(list(range(n)), list(range(n, 0, -1)), n // 2,
                                 chained, "", "step"))
        points = [piece.count('" r="3"') if not chained else piece.count(",")
                  for piece in pieces[1:-1]]
        assert max(points) == 1024 and sum(points) == 2 * n
        root = ET.fromstring("".join(pieces))
        assert len(root.findall(f"{SVG}circle")) == (0 if chained else 2 * n)

    def test_input_path_with_markup_is_the_title(self, tmp_path, monkeypatch):
        shutil.copy(GOLDEN / "rows.csv", tmp_path / "a&b<c>.csv")
        monkeypatch.chdir(tmp_path)
        assert main(["plot", "--input", "a&b<c>.csv", "--brink", "100",
                     "-o", "fig.svg"]) == 0
        root = ET.parse(tmp_path / "fig.svg").getroot()
        assert root.find(f"{SVG}text").text == "a&b<c>.csv"

    def test_every_golden_svg_parses(self):
        # tests/test_golden.py pins each case's stdout and files to these.
        svgs = [path for path in sorted(GOLDEN.iterdir())
                if path.read_bytes().startswith(b"<svg")]
        assert {path.suffix for path in svgs} == {".plot", ".stdout"}
        for path in svgs:
            ET.parse(path)


class TestAscii:
    @settings(max_examples=200, deadline=None)
    @given(series(10**12))
    @example(([-10**12] * 73, [10**12] * 73, 0))
    @example(([BIG], [BIG], BIG))
    @example(([BIG, BIG + 1], [BIG - 1, BIG], BIG))
    def test_grid_and_axis(self, data):
        mn0, mn1, brink = data
        n = len(mn0)
        lines = ascii_lines(render_ascii(mn0, mn1, brink))
        assert len(lines) == 23
        grid, axis, footer = lines[:21], lines[21], lines[22]
        bars = {line.index("|") for line in grid}
        assert len(bars) == 1
        bar = bars.pop()
        assert axis[:bar].isspace() and axis[bar] == "+"
        assert ("(stride " in footer) == (n > 72)
        stride = math.ceil(n / 72)
        assert footer.endswith(
            f"index 0..{n - 1}" + (f" (stride {stride})" if n > 72 else ""))
        cols = len(range(0, n, stride))
        assert axis[bar + 1:] == "-" * cols
        # Each column marks both nodes, the higher value on the higher row:
        # no row falls off the grid or wraps round it.
        for col, i in enumerate(range(0, n, stride), bar + 1):
            column = "".join(line[col] for line in grid)
            if "X" not in column:
                assert (column.index("0") < column.index("1")) == (
                    mn0[i] > mn1[i])

    def test_wide_labels_keep_one_column(self):
        lines = ascii_lines(render_ascii(
            [123456780, 123456785], [123456795, 123456790], 123456788))
        assert {line.index("|") for line in lines[:21]} == {12}
        assert lines[0].startswith("123456795.0 |")
        assert lines[21].index("+") == 12


class TestMagnitudeLimit:
    @settings(max_examples=100, deadline=None)
    @given(series(LIMIT - 1), st.booleans())
    @example(([-(LIMIT - 1)], [LIMIT - 1], 0), True)
    @example(([0], [LIMIT - 1], 0), False)
    def test_finite_below_the_limit(self, data, chained):
        svg = "".join(render_svg(*data, chained, "", "step"))
        assert "nan" not in svg and "inf" not in svg
        assert len(ascii_lines(render_ascii(*data))) == 23

    @pytest.mark.parametrize("value", [LIMIT, -LIMIT, 10**400])
    @pytest.mark.parametrize("where", ["mn0", "mn1", "brink"])
    def test_refused_at_the_limit(self, value, where):
        data = {"mn0": [0], "mn1": [1], "brink": 2}
        data[where] = value if where == "brink" else [value]
        for render in (render_ascii, lambda *args: render_svg(*args, True, "", "step")):
            with pytest.raises(ValueError, match=r"1e\+300"):
                render(data["mn0"], data["mn1"], data["brink"])
