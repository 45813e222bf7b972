"""The exit-code contract of ``spcgrowth fit`` on generated panels.

Every run returns 0, 2 (data or usage error) or 3 (numerical failure) and
never raises; an exit code of 2 comes with an error message that names
the offending line or the input file.
"""

import logging
import re
import tempfile
from pathlib import Path

from helpers import PANEL_HEADER
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spcgrowth.cli import main
from spcgrowth.dataset import MAX_ABS_YEAR

CULTURE = ("cultural.continuity", "outside.central", "")
INSTITUTION = ("institutional.continuity", "outside.central", "")

# Low and high scores, so many panels are bimodal and reach the fit.
LOW_SCORES = (0.1, 0.12, 0.15)
HIGH_SCORES = (0.85, 0.88, 0.9)
EXTREME_SCORES = (0.0, -0.0, 5e-324, 1e-300, 1e300, -1e300, 1.7976931348623157e308,
                  -1.7976931348623157e308, float("inf"))
EXTREME_YEARS = (MAX_ABS_YEAR - 900, -MAX_ABS_YEAR, 10**20)

# Replacement text for one cell; the last is longer than the CSV reader's
# field limit (131,072 characters).
JUNK = ("", " ", "nan", "inf", "-inf", "1e400", "abc", "1.5", "-0", "1e20", "0x10",
        "99999999999999999999999", "\x00", '"', "cultural.continuity", "Ω",
        "Alpha\x01Beta", '"Line\nBreak"', "x" * 131_073)


def rare(draw, common, unusual):
    """One in six draws comes from ``unusual``, the rest from ``common``."""
    return draw(unusual if draw(st.integers(0, 5)) == 0 else common)


@st.composite
def panel_rows(draw):
    """Rows of a panel: 1 to 4 regions of 1 to 10 centuries each, mostly
    growth or flat series, sometimes constant or arbitrary ones, with
    extreme numbers and broken year steps mixed in."""
    rows = []
    for r in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 10))
        shape = rare(
            draw, st.sampled_from(["growth", "growth", "flat"]), st.sampled_from(["constant", "any"])
        )
        if shape == "growth":
            k = draw(st.integers(0, n))
            scores = [draw(st.sampled_from(LOW_SCORES)) for _ in range(k)]
            scores += [draw(st.sampled_from(HIGH_SCORES)) for _ in range(n - k)]
        elif shape == "flat":
            scores = [draw(st.sampled_from(LOW_SCORES)) for _ in range(n)]
        elif shape == "constant":
            scores = [draw(st.sampled_from(LOW_SCORES + EXTREME_SCORES))] * n
        else:
            scores = draw(
                st.lists(
                    st.one_of(st.sampled_from(EXTREME_SCORES), st.floats(allow_nan=False)),
                    min_size=n,
                    max_size=n,
                )
            )
        start = rare(
            draw, st.integers(-30, 30).map(lambda c: c * 100), st.sampled_from(EXTREME_YEARS)
        )
        step = rare(draw, st.just(100), st.sampled_from([200, 0, 50]))
        for i, score in enumerate(scores):
            rows.append(
                [
                    f"R{r}",
                    f"R{r}-P",
                    str(start + i * step),
                    draw(st.sampled_from(["", str(i * 100)])),
                    repr(score),
                    draw(st.sampled_from(CULTURE)),
                    draw(st.sampled_from(INSTITUTION)),
                ]
            )
    return rows


@st.composite
def panels(draw):
    """CSV text of a generated panel with up to two cells, header cells
    included, mutated."""
    rows = [PANEL_HEADER.split(","), *draw(panel_rows())]
    for _ in range(rare(draw, st.just(0), st.integers(1, 2))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        col = draw(st.integers(0, len(row) - 1))
        row[col] = draw(st.sampled_from(JUNK))
    return "".join(",".join(row) + "\n" for row in rows)


class _Errors(logging.Handler):
    def __init__(self):
        super().__init__(logging.ERROR)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=50)
@given(panels())
@example(f"{PANEL_HEADER}\nR0,R0-P,-600,,0.1,,\nR0,{JUNK[-1]},-500,,0.9,,\n")
def test_fit_exit_code_contract(text):
    errors = _Errors()
    logger = logging.getLogger("spcgrowth")
    logger.addHandler(errors)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "panel.csv"
            path.write_text(text, encoding="utf-8")
            code = main(["fit", "--input", str(path), "--validation", "3"])
    finally:
        logger.removeHandler(errors)
    assert code in (0, 2, 3)
    if code == 2:
        message = " ".join(errors.messages)
        assert re.search(r"line \d+", message) or str(path) in message, message
