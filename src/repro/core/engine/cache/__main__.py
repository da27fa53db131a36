"""``python -m repro.core.engine.cache ls|gc`` (see :func:`main`).

The command-line entry lives in the package's ``__main__`` so that runpy
does not execute, as ``__main__``, a module the package imports already.
"""

from . import main

if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())
