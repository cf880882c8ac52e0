"""Walk-counting and light-cone tools for a link/plaquette lattice model.

Modules:
    couplings  model couplings record and the numerical-failure base (a leaf module)
    lattice    decorated bipartite graph of links and plaquettes; a test oracle
               that no command builds
    pathcount  exact walk counts: the canonical recurrence-grown columns, the
               dynamic-programming oracles and the paper's literal formula
    lrbound    commutator-growth bound series with certified truncation
    velocity   cone-velocity extraction: threshold arrivals and envelope fits
    cosmo      dimension-dependent velocity and shrinking-dimension horizon
    cli        command-line front end
"""

__version__ = "0.1.0"
