"""Core-aware selective KV-cache consolidation on a deterministic toy model."""

__version__ = "0.1.0"
