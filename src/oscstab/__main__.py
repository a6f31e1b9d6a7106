"""``python -m oscstab``: the command line of :mod:`oscstab.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
