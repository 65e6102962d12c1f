"""`python -m ftfp` runs the command-line front end, like the installed `ftfp` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
