"""Fresh-interpreter helper for the ``cold-start`` workload.

``setup``: import ``repro``, build ``base`` and bind the vectorized engine
to it, then exit; the parent times the whole process as set-up.

``trace``: run ``repro optimize base --engine vectorized --json``
in-process through ``repro.cli.main``, with spans around the import, the
CLI module import, and the calls the CLI makes into ``load_problem``,
``solve`` and ``SolveResult.to_dict``.  The wrappers are installed on
those module attributes from here; nothing inside ``src`` is traced.
Prints one JSON line: the spans, ``len(sys.modules)`` after
``import repro``, and the CLI's output.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections.abc import Callable
from typing import Any

CLI_ARGS = ["optimize", "base", "--engine", "vectorized", "--json"]


def setup() -> None:
    import repro
    from repro.workloads.registry import workload_from_spec

    problem = workload_from_spec("base")
    repro.LRGP(problem, repro.LRGPConfig(), engine="vectorized")


def trace() -> None:
    spans: list[dict[str, Any]] = []
    stack: list[dict[str, Any]] = []

    @contextlib.contextmanager
    def span(name: str):
        record = {
            "name": name,
            "parent": stack[-1]["name"] if stack else None,
            "start_ns": time.perf_counter_ns(),
        }
        stack.append(record)
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            stack.pop()
            spans.append(record)

    def wrap(call: Callable[..., Any], name: str) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with span(name):
                return call(*args, **kwargs)

        return traced

    with span("import"):
        import repro
    modules = len(sys.modules)
    with span("cli.import"):
        import repro.cli as cli
        from repro.solve import SolveResult

    cli.load_problem = wrap(cli.load_problem, "workloads.build")
    cli.solve = wrap(cli.solve, "solve.solve")
    SolveResult.to_dict = wrap(SolveResult.to_dict, "solve.serialize")
    output = io.StringIO()
    with span("cli.main"), contextlib.redirect_stdout(output):
        code = cli.main(CLI_ARGS)
    print(
        json.dumps(
            {
                "code": code,
                "modules": modules,
                "spans": spans,
                "stdout": output.getvalue(),
                "repro_file": repro.__file__,
            }
        )
    )


if __name__ == "__main__":
    {"setup": setup, "trace": trace}[sys.argv[1]]()
