"""One module per command of ``jointlab``.

Each module fills in its command's parser in ``add_parsers(parser)`` and
runs the command in ``run(args)``, which imports the modules the command
runs.  The command names and their help, in the order help lists them, are
in ``jointlab.cli._COMMANDS``, and ``jointlab.cli`` imports only the invoked
command's module.
"""
