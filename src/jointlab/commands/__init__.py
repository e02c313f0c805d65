"""One module per command of ``jointlab``, in the order help lists them.

Each module adds its command's parsers in ``add_parsers(sub)`` and runs the
command in ``run(args)``, which imports the modules the command runs.
``jointlab.cli`` imports only the invoked command's module, and all of them
only for the full parser that prints help and errors.
"""
