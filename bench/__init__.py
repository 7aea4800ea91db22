"""The repository benchmark: ``python -m bench`` (see README.md)."""
