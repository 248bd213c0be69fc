"""Inputs of the benchmark workloads, as plain data.

Both the benchmark run (which builds gaprad objects from these) and the
independent reference (which evaluates them with its own formulas) read
this module, so it imports nothing from gaprad.

A material is a dict with a "kind" of "lorentz", "drude" or "black"; a
stack is (terminal material, ((film material, thickness_m), ...)) with
films listed from the vacuum interface inward.
"""

SIC = {"kind": "lorentz", "eps_inf": 6.7, "terms": ((3.2977, 1.494e14, 8.9e11),)}
GOLD = {"kind": "drude", "eps_inf": 1.0, "omega_p": 1.37e16, "gamma": 4.05e13}
BLACK = {"kind": "black"}

SIC_BULK = (SIC, ())
FILM_ON_GOLD = (GOLD, ((SIC, 100e-9),))     # 100 nm SiC film on Drude gold
GOLD_BULK = (GOLD, ())
BLACK_BULK = (BLACK, ())

# scalar operations of the library workloads:
# name -> (observable, body1, body2, gap_m, T1, T2, rtol)
# conductance is taken at T1 (= T2); neq_pressure has body 1 as source at T1
SCALAR_OPS = {
    "sic_heat_flux": ("heat_flux", SIC_BULK, SIC_BULK, 50e-9, 400.0, 300.0, 1e-8),
    "sic_neq_pressure": ("neq_pressure", SIC_BULK, SIC_BULK, 50e-9, 400.0, 300.0, 1e-8),
    "film_conductance": ("conductance", FILM_ON_GOLD, SIC_BULK, 50e-9, 300.0, 300.0, 1e-8),
    "gold_heat_flux": ("heat_flux", GOLD_BULK, GOLD_BULK, 3e-6, 400.0, 300.0, 1e-6),
    "gold_neq_pressure": ("neq_pressure", GOLD_BULK, GOLD_BULK, 3e-6, 400.0, 300.0, 1e-6),
    "black_heat_flux": ("heat_flux", BLACK_BULK, BLACK_BULK, 10e-6, 400.0, 300.0, 1e-6),
}

WORKLOAD_SCALARS = {
    "nearfield": ("sic_heat_flux", "sic_neq_pressure", "film_conductance"),
    "farfield": ("gold_heat_flux", "gold_neq_pressure", "black_heat_flux"),
}

# spectrum workload: CLI spectrum runs, one per pair, on the same log grid
SPECTRUM_PAIRS = {
    "sic": (SIC_BULK, SIC_BULK),
    "film": (FILM_ON_GOLD, SIC_BULK),
}
SPECTRUM_GAP = 50e-9
SPECTRUM_TEMPS = (400.0, 300.0)
SPECTRUM_GRID = (1e13, 1e15, 400)       # omega_min, omega_max, points (log)
SPECTRUM_RTOL = 1e-8
# one thread: with two, the pool threads hand the GIL to each other, and a
# host that preempts either virtual CPU stalls both.  On a shared 2-core
# machine, wall_s of the same code then moved 9.0 -> 7.2 -> 10.0 s between
# three ten-run sets while cpu_s stayed within 8.1-9.0 s.
SPECTRUM_THREADS = 1

# mesh workload: unit squares split into n x n cells of two triangles each
MESH_CELLS = 16
DIRECT_CELLS = 8
COAXIAL_GAP = 0.5                        # m
DIRECT_OMEGA = 1e15                      # rad/s
BB_TEMPS = (400.0, 300.0)
