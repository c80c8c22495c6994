"""Taps on the names the package binds across its module boundaries.

A tap replaces a name that a consumer module imported from another
module (``representations.ln_exact``, ``representations.integrate_*``,
``series.integrate_finite``, ``CatalanTable.build``) with a wrapper
that records what crossed the boundary.  Untimed taps only count: they
read no clock and leave integrands alone, so an untraced pass runs the
package at full speed.  Timed taps also record one span per call, and
the quadrature taps time every integrand evaluation they hand on.

A span is ``[name, start, end, parent, op, kernel_s]``: ``parent`` is
the index of the enclosing span (None for a root), ``op`` the index of
the root call it belongs to, and ``kernel_s`` the time spent inside the
integrand during a quadrature span.  Spans stay in memory until the
pass ends.  A name that a later version of the package no longer binds
is listed in ``missing`` and simply not recorded.
"""

from __future__ import annotations

from time import perf_counter


class Tracer:
    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.ln_exact_args: list[int] = []
        self.table_builds: list[int] = []
        # (consumer module, evaluations, converged) per quadrature call.
        self.quadratures: list[tuple[str, int, bool]] = []
        self._stack: list[int] = []
        self._op = -1

    def call(self, name: str, fn, *args):
        """Run one root call of the pass, as a span of its own when timed."""
        if not self.timed:
            return fn(*args)
        self._op += 1
        return self._span(name, fn, args, {})

    def _span(self, name, fn, args, kwargs, kernel=None):
        parent = self._stack[-1] if self._stack else None
        record = [name, 0.0, 0.0, parent, self._op, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            if kernel is not None:
                record[5] = kernel[0]
            self._stack.pop()

    def install(self, representations, series, catalan_table) -> None:
        self._tap_ln_exact(representations)
        self._tap_quadrature(representations, "integrate_finite")
        self._tap_quadrature(representations, "integrate_half_line")
        self._tap_quadrature(series, "integrate_finite")
        self._tap_table_build(catalan_table)

    def _lookup(self, owner, attr: str, label: str):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(label)
        return fn

    def _tap_ln_exact(self, module) -> None:
        fn = self._lookup(module, "ln_exact", f"{module.__name__}.ln_exact")
        if fn is None:
            return

        def tapped(n, *args, **kwargs):
            self.ln_exact_args.append(n)
            if not self.timed:
                return fn(n, *args, **kwargs)
            return self._span("exact.ln_exact", fn, (n, *args), kwargs)

        module.ln_exact = tapped

    def _tap_quadrature(self, module, attr: str) -> None:
        fn = self._lookup(module, attr, f"{module.__name__}.{attr}")
        if fn is None:
            return
        consumer = module.__name__.rsplit(".", 1)[-1]

        def tapped(f, *args, **kwargs):
            if self.timed:
                kernel = [0.0]

                def timed_integrand(t, f=f, kernel=kernel, clock=perf_counter):
                    t0 = clock()
                    y = f(t)
                    kernel[0] += clock() - t0
                    return y

                result = self._span(
                    f"quadrature.{attr}", fn, (timed_integrand, *args), kwargs, kernel
                )
            else:
                result = fn(f, *args, **kwargs)
            self.quadratures.append((consumer, result.evaluations, result.converged))
            return result

        setattr(module, attr, tapped)

    def _tap_table_build(self, cls) -> None:
        bound = self._lookup(cls, "build", f"{cls.__name__}.build")
        if bound is None:
            return
        build = bound.__func__

        def tapped(owner, max_n):
            self.table_builds.append(max_n)
            if not self.timed:
                return build(owner, max_n)
            return self._span("exact.table_build", build, (owner, max_n), {})

        cls.build = classmethod(tapped)
