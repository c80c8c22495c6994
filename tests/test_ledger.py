"""tests/ledger.py: its sections, and that a comparison fails where a
moved ln_exact double must and only lists moved route rows.  Each base
tree is a copy of src/ under tmp_path."""

import shutil
from pathlib import Path

import ledger

SRC = Path(__file__).resolve().parents[1] / "src"


def _copy(tmp_path, name, module=None, appended=""):
    src = tmp_path / name / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    if module:
        with open(src / "catalan_integrals" / module, "a", encoding="utf-8") as fh:
            fh.write(appended)
    return str(src)


def test_every_section_has_its_exit_code_and_line_count():
    package, sections = ledger.parse(ledger.ledger())
    assert list(sections) == [title for title, _, _ in ledger.SPECS]
    assert list(ledger._failures("head", SRC, package, sections)) == []
    # The third config leaves 804 rows unconverged and glaisher out of
    # tolerance; the odd-weight sum rule misses its target by design.
    exits = [1, 1, None, *[0] * 16, None, 0, 0, 0, *[1] * 5, 0, 0, 1]
    assert [code for code, _ in sections.values()] == [0, *exits]


def test_a_copy_of_src_moves_nothing(tmp_path, capsys):
    assert ledger.compare(_copy(tmp_path, "same")) == 0
    assert capsys.readouterr().out.endswith("\n0 of 32 sections moved.\n\n")


def test_a_moved_ln_exact_fails_and_moved_route_rows_are_listed(tmp_path, capsys):
    ulp = "\n_unmoved = ln_exact\n\ndef ln_exact(n):\n    return math.nextafter(_unmoved(n), 1.0)\n"
    assert ledger.compare(_copy(tmp_path, "ulp", "exact.py", ulp)) == 1
    assert "\n- `ln_exact` moved: " in capsys.readouterr().out

    mellin = (
        "\n_unmoved = _mellin_integrand\n\ndef _mellin_integrand(n):\n"
        "    f = _unmoved(n)\n    return lambda u: f(u) * (1.0 + 2.0**-40)\n"
    )
    assert ledger.compare(_copy(tmp_path, "mellin", "representations.py", mellin)) == 0
    out = capsys.readouterr().out
    assert "Failed checks" not in out
    assert "\n4 of 32 sections moved.\n" in out
    lines = out.splitlines()
    moved = [s for s in lines if s.startswith(("+", "-")) and not s.startswith(("+++", "---"))]
    assert moved and all("penson_mellin" in line for line in moved)
