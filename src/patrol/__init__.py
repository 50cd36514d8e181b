"""Multi-robot patrol scheduling: solvers, references and exact evaluation."""

__version__ = "0.1.0"
