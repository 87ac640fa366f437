"""End-to-end and per-layer benchmark of the GDI-RMA reproduction."""
