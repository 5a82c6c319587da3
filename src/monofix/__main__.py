"""`python -m monofix`: the command-line interface."""
from .cli import entrypoint

entrypoint()
