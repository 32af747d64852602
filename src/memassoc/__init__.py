"""Behavioral simulation of memristive associative-learning circuits.

Modules:

- ``device``  threshold-drift memristor model (drift rate, resistance, Euler stepping)
- ``fit``     parameter extraction from measured I-V traces
- ``circuit`` stimulus encoding, modulation tables, N-stage chain engine
- ``vision``  20x20 memristor-array image association and classification
- ``cli``     config-driven experiment runner
"""

__version__ = "0.1.0"
