"""``python -m quadliaison`` runs the ``ql`` command line."""

from .cli import app

if __name__ == "__main__":
    app()
