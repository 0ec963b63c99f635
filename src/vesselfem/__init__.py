"""Coupled 3D/1D solute transport: P1 finite elements in a box, interior
penalty DG along an embedded vessel, implicit Euler in time, exchange through
the lateral average over the vessel wall."""
