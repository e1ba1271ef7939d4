"""Wall-clock benchmark of the N-variant simulator (see README.md)."""
