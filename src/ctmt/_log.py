"""Loggers that import the logging module on their first record.

Most runs log nothing, and ``logging`` (with ``traceback`` and ``string``)
takes milliseconds to import. A ``Logger`` stands for
``logging.getLogger(name)``: a warning imports logging and is logged; a
debug record is logged only once something has imported logging, since
until then no level or handler can have been set that would show it.
"""

from __future__ import annotations

import sys

FORMAT = "%(levelname)s %(name)s: %(message)s"

_deferred = False  # whether configure's WARNING set-up waits for the first record


def configure(level_name: str | None) -> None:
    """The command line's set-up: ``logging.basicConfig`` with FORMAT on
    stderr, at the level ``level_name`` names, or WARNING for a name that
    names no level. With None it is WARNING, applied at the first record."""
    global _deferred
    _deferred = level_name is None
    if _deferred:
        return
    import logging

    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):  # an unknown name, or a constant such as BASIC_FORMAT
        level = logging.WARNING
    logging.basicConfig(level=level, format=FORMAT)


class Logger:
    __slots__ = ("name", "_logger")

    def __init__(self, name: str) -> None:
        self.name = name
        self._logger = None

    def _get(self):
        if _deferred:
            configure("WARNING")
        if self._logger is None:
            import logging

            self._logger = logging.getLogger(self.name)
        return self._logger

    def warning(self, msg: str, *args) -> None:
        self._get().warning(msg, *args)

    def debug(self, msg: str, *args) -> None:
        if "logging" in sys.modules:
            self._get().debug(msg, *args)
