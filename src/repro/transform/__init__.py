"""Mini-C front end and the automatic UID-variation source transformation."""
