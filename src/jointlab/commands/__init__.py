"""One module per command of ``jointlab``, and what the commands share.

Each module fills in its command's parser in ``add_parsers(parser)`` and
runs the command in ``run(args)``, which imports the modules the command
runs.  The command names and their help, in the order help lists them, are
in ``jointlab.cli._COMMANDS``, and ``jointlab.cli`` imports only the invoked
command's module.  The commands stand below the dispatcher: they take what
they share, the :func:`integer` argument type and :func:`load_lines`, from
this package and never import ``jointlab.cli``, so ``python -m
jointlab.cli`` runs ``cli.py`` once, as ``__main__``.
"""

import re

_INTEGER_RE = re.compile(r"^-?[0-9]+$")


def integer(text: str) -> int:
    """Parse an integer argument in ASCII digits, like ``"12"`` or ``"-3"``.

    ``int`` alone would also take other scripts' digits and underscores.
    As an argparse ``type`` a ValueError reads "invalid integer value".
    """
    literal = text.strip()
    if not _INTEGER_RE.match(literal):
        raise ValueError(f"invalid integer {text!r}")
    return int(literal)


def load_lines(path):
    """The configuration in the file; refuses one with no lines, on which
    the bound and the trace are undefined (n >= 1)."""
    from ..geometry import load_configuration

    config = load_configuration(path)
    if config.n == 0:
        raise ValueError(f"{path}: the configuration has no lines")
    return config
