"""flowelm: extreme-learning-machine detector for DDoS traffic in flow records."""

__version__ = "0.1.0"
