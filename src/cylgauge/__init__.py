"""Desk-scale verification toolkit for gauge fields on a spatial circle.

Lattice connections with Gaussian measures, holonomy into U(1) or SU(2) and
their complexifications, heat kernels and heat-kernel transforms, coherent
states on the structure group, and numerical checks that the connection-space
Laplacian and transform descend to the group under gauge reduction.
Names are imported from their module: `from cylgauge.lattice import holonomy`.
"""

__version__ = "0.1.0"
