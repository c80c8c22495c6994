"""tests/ledger.py: its sections, and that a comparison fails where a
moved ln_exact double must and only lists moved route rows.  Each base
tree is a copy of src/ under tmp_path."""

import re
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
    exits = [1, 1, 0, 0, None, *[0] * 16, None, 0, 0, 0, *[1] * 5, 0, 0, 1]
    assert [code for code, _ in sections.values()] == [0, *exits]


def test_a_copy_of_src_moves_nothing(tmp_path, capsys):
    assert ledger.compare(_copy(tmp_path, "same")) == 0
    assert capsys.readouterr().out.endswith("\n0 of 34 sections moved.\n\n")


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
    assert "\n6 of 34 sections moved.\n" in out
    for section in out.split("<details><summary><code>")[1:]:
        title, _, body = section.partition("</code>")
        lines = body.splitlines()
        moved = [s for s in lines if s.startswith(("+", "-")) and not s.startswith(("+++", "---"))]
        # A JSON row spreads its fields over lines of their own.
        assert moved and all(
            re.match(r'[-+] {6}"(ln_value|abs_err_ln|quad_error_estimate)": ', line)
            if title.endswith("json") else "penson_mellin" in line
            for line in moved
        ), title


def test_a_change_that_moves_most_lines_stays_under_the_summary_cap(tmp_path, capsys):
    # ln_exact one ulp up and both kernels scaled by 1 + 2**-40 move
    # every verify row and most route rows: listed in full, base and
    # head, they came to 1.1 MB, over the 1 MiB a CI job summary holds.
    ulp = "\n_unmoved = ln_exact\n\ndef ln_exact(n):\n    return math.nextafter(_unmoved(n), 1.0)\n"
    scaled = (
        "\ndef _scaled(kernel):\n    def scaled(n):\n        spec = kernel(n)\n"
        "        f = spec.integrand\n"
        "        return spec._replace(integrand=lambda t: f(t) * (1.0 + 2.0**-40))\n"
        "    return scaled\n\n"
        "malmsten_catalan_kernel = _scaled(malmsten_catalan_kernel)\n"
        "binet_catalan_kernel = _scaled(binet_catalan_kernel)\n"
    )
    src = _copy(tmp_path, "both", "exact.py", ulp)
    with open(Path(src) / "catalan_integrals" / "kernels.py", "a", encoding="utf-8") as fh:
        fh.write(scaled)
    assert ledger.compare(src) == 1
    out = capsys.readouterr().out
    assert "\n- `ln_exact` moved: " in out
    assert f"first {ledger.SHOWN} diff lines" in out and " more diff lines\n" in out
    assert len(out.encode()) < 2**20
