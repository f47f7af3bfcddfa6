"""``python -m walg``: the command-line interface (see walg.cli)."""

from .cli import main

if __name__ == "__main__":
    main()
