"""Every number the package prints, in one ledger, and what a change moves.

    PYTHONPATH=src python tests/ledger.py            # this tree's ledger
    PYTHONPATH=src python tests/ledger.py BASE/src   # what moves from BASE

The ledger names the package directory it imported, then 34 sections,
each headed ``### <what>``, with ``(exit <code>)`` after a command.  A
command's body is what it prints, both streams merged, with the
``generated_at`` value of a JSON report masked, as the one field that
may differ; the other bodies are the repr of each value:

* ``verify --n-max 200 --format csv`` at three configs: the default, one
  where the quadrature bisects, and one where 804 of the 1,005 rows fail;
* ``verify --n-max 200`` as JSON and as text at the default config;
* each route's row at eight large n, at the same configs;
* ``dump-kernel`` for both kernels at four n, on the default grid and on
  401 points around Binet's switch to its series at t = 0.2;
* ``ln_exact`` at n = 201..3000 and at 500 seeded n up to 10^8;
* both sum rules at four tolerances, and ``glaisher`` at the three configs.

Given a base tree's ``src/``, it prints the same ledger under that tree
in a subprocess, and prints in Markdown a diff of each section that
moved.  It exits 1, saying why, if either side imports catalan_integrals
from outside its own ``src/``, a command exits with a code its section
does not allow, a section has other than its line count, or any
``ln_exact`` line moves: ln_exact is correctly rounded, so no change
may move it.  Other moved lines are listed, not failed on, since a
change may move them on purpose.  Each moved section lists at most its
first ``SHOWN`` diff lines, which keeps the Markdown under the 1 MiB
that a CI job summary may hold; the ledger of either side has them all.
Both sides run on one host, so a libm that differs from another host's
by an ulp moves nothing here, where a golden ledger file would fail.
tests/test_ledger.py runs this program.
"""

import difflib
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import catalan_integrals
from catalan_integrals import ROUTES, QuadConfig, cli
from catalan_integrals.exact import ln_exact
from cli_runner import invoke

CONFIGS = {
    "": QuadConfig(),
    "--abs-tol 1e-14 --rel-tol 1e-14": QuadConfig(1e-14, 1e-14),
    "--abs-tol 0 --rel-tol 1e-16 --max-subdivisions 1": QuadConfig(0, 1e-16, 1),
}
HEADER = re.compile(r"### (.+?)(?: \(exit (\d+)\))?")
GENERATED_AT = re.compile(r'^  "generated_at": "[^"\n]*"', re.MULTILINE)
# The diff lines listed per moved section.
SHOWN = 100


def _route_rows():
    for options, config in CONFIGS.items():
        for route in ROUTES:
            for n in (1_000, 3_162, 10_000, 31_623, 100_000, 10**6, 10**7, 10**8):
                fields = map(repr, route(n, config)[2:])
                yield " ".join([f"{options or 'default'} | {route.value} | {n} |", *fields])


def _ln_exact():
    # The literal 10**8, not MAX_INDEX, so both sides draw the same n
    # when the limit moves.
    rng = random.Random(40)
    for n in [*range(201, 3001), *(rng.randrange(201, 10**8 + 1) for _ in range(500))]:
        yield f"{n} {ln_exact(n)!r}"


PYTHON_SECTIONS = {"route rows at large n": _route_rows, "ln_exact": _ln_exact}


def _specs():
    """(title, the exit codes its command may return, its line count) per
    section, None where the old checks fixed neither."""
    for options in CONFIGS:
        yield f"verify --n-max 200 --format csv {options}".rstrip(), {0, 1}, 1006
    yield "verify --n-max 200 --format json", {0}, 10066
    yield "verify --n-max 200 --format text", {0}, 1011
    yield "route rows at large n", None, 120
    for kernel in ("malmsten", "binet"):
        for n in (0, 7, 200, 100_000_000):
            yield f"dump-kernel {kernel} {n}", {0}, 201
            yield f"dump-kernel {kernel} {n} --t-min 0.19 --t-max 0.21 --points 401", {0}, 402
    yield "ln_exact", None, 3300
    for rule in ("plain", "odd-weight"):
        for tol in ("1e-6", "1e-10", "1e-13", "1e-30"):
            # The odd-weight series misses its printed target by design,
            # and 1e-30 lies below the rounding floor.
            fails = rule == "odd-weight" or tol == "1e-30"
            yield f"sumrule {rule} --tol {tol}", {int(fails)}, None
    for options in CONFIGS:
        yield f"glaisher {options}".rstrip(), {0, 1}, None


SPECS = tuple(_specs())


def ledger() -> str:
    """The ledger of the imported package, as printed."""
    parts = [f"catalan_integrals from {Path(catalan_integrals.__file__).resolve().parent}\n"]
    for title, _, _ in SPECS:
        if title in PYTHON_SECTIONS:
            parts += [f"### {title}\n", *(line + "\n" for line in PYTHON_SECTIONS[title]())]
        else:
            result = invoke(cli.main, title.split())
            output = GENERATED_AT.sub('  "generated_at": "(masked)"', result.output, 1)
            parts += [f"### {title} (exit {result.exit_code})\n", output]
    return "".join(parts)


def parse(text: str) -> tuple[str, dict[str, tuple[int | None, list[str]]]]:
    """The package directory a printed ledger names, and its sections by
    title: (exit code, None for a Python section; body lines)."""
    first, *lines = text.splitlines()
    sections = {}
    for line in lines:
        if match := HEADER.fullmatch(line):
            body = []
            sections[match[1]] = (match[2] and int(match[2]), body)
        else:
            body.append(line)
    return first.removeprefix("catalan_integrals from "), sections


def _failures(side, src, package, sections):
    if Path(package) != Path(src).resolve() / "catalan_integrals":
        yield f"the {side} side imported catalan_integrals from {package}, not from {src}"
    for title, exits, count in SPECS:
        code, body = sections.get(title, (None, None))
        if body is None:
            yield f"the {side} side printed no section `{title}`"
        elif exits is not None and code not in exits:
            allowed = " or ".join(map(str, exits))
            yield f"`{title}` on the {side} side exited with {code}, not {allowed}"
        elif count is not None and len(body) != count:
            yield f"`{title}` on the {side} side printed {len(body)} lines, not {count}"


def _lines(parsed, title):
    code, body = parsed[1].get(title, (None, []))
    return body if code is None else [f"exit {code}", *body]


def compare(base_src: str) -> int:
    """Print in Markdown what moves from the ledger under ``base_src`` to
    this one, and the failed checks; 1 if a check failed, else 0."""
    env = {**os.environ, "PYTHONPATH": base_src}
    child = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    if child.returncode:
        print(f"The ledger under {base_src} exited with {child.returncode}:")
        print(f"\n```\n{child.stderr}```")
        return 1
    base, head = parse(child.stdout), parse(ledger())
    failures = [
        *_failures("base", base_src, *base),
        *_failures("head", Path(__file__).resolve().parents[1] / "src", *head),
    ]
    print("### Ledger sections this change moves\n")
    moved = [title for title, section in head[1].items() if base[1].get(title) != section]
    cut = False
    for title in moved:
        old, new = _lines(base, title), _lines(head, title)
        diff = list(difflib.unified_diff(old, new, "base", "head", n=0, lineterm=""))
        print(f"<details><summary><code>{title}</code></summary>\n\n```diff")
        print(*diff[:SHOWN], sep="\n")
        if len(diff) > SHOWN:
            cut = True
            print(f"… and {len(diff) - SHOWN} more diff lines")
        print("```\n</details>\n")
    print(f"{len(moved)} of {len(head[1])} sections moved.\n")
    if cut:
        print(f"Each section lists its first {SHOWN} diff lines; `tests/ledger.py` run on")
        print("either side prints its full ledger.\n")
    if "ln_exact" in moved:
        failures.append("`ln_exact` moved: it is correctly rounded, so no change may move it")
    if failures:
        print("### Failed checks\n", *(f"- {failure}" for failure in failures), sep="\n")
    return int(bool(failures))


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit(f"usage: {sys.argv[0]} [BASE_SRC]")
    if len(sys.argv) == 1:
        sys.stdout.write(ledger())
    else:
        sys.exit(compare(sys.argv[1]))
