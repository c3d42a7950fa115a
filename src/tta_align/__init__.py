"""Class-aware feature alignment for test-time adaptation, at desk scale."""

__version__ = "0.1.0"
