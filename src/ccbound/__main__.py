"""Run the command-line interface as ``python -m ccbound``."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
