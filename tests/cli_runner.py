"""Run the command line in-process and capture what it prints.

``invoke(main, args)`` calls ``main(args)`` with stdout and stderr
redirected and returns a ``Result`` with the exit status, each stream,
and ``output``: both streams together, in the order they were written.
Any exception other than SystemExit propagates; ``cli.main`` itself
turns an exception a command raises into exit status 4.
"""

import contextlib
import io
from typing import NamedTuple


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str


class _Capture(io.StringIO):
    """One stream, with every write also copied to a shared log."""

    def __init__(self, log: io.StringIO):
        super().__init__()
        self._log = log

    def write(self, text: str) -> int:
        self._log.write(text)
        return super().write(text)


def invoke(main, args) -> Result:
    log = io.StringIO()
    out, err = _Capture(log), _Capture(log)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(args))
            exit_code = 0
        except SystemExit as exc:
            exit_code = 0 if exc.code is None else exc.code
    return Result(exit_code, out.getvalue(), err.getvalue(), log.getvalue())
