"""Analysis layer: performance model, table rendering and experiment drivers."""
