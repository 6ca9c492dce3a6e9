"""Frozen reference values computed independently of the package.

The airtime table was produced by a throwaway script evaluating the public
LoRa packet-duration formula in exact rational arithmetic (fractions.Fraction)
before the package was written; entries are
(sf, bw_hz, payload, cr, n_preamble, header_disabled, low_dr_opt, airtime_s).
"""

AIRTIME_ORACLE = [
    (7, 125000, 1, 1, 8, 0, 0, 0.025856),
    (7, 125000, 51, 1, 8, 0, 0, 0.102656),
    (7, 125000, 222, 4, 8, 0, 0, 0.545024),
    (7, 250000, 51, 2, 8, 0, 0, 0.05952),
    (7, 500000, 12, 1, 8, 0, 0, 0.010304),
    (8, 125000, 23, 1, 8, 0, 0, 0.113152),
    (8, 500000, 23, 3, 8, 0, 0, 0.035456),
    (9, 125000, 10, 1, 8, 0, 0, 0.144384),
    (9, 125000, 115, 4, 8, 0, 0, 0.934912),
    (10, 125000, 51, 1, 8, 0, 0, 0.616448),
    (10, 250000, 51, 2, 8, 0, 0, 0.35328),
    (11, 125000, 51, 1, 8, 0, 1, 1.314816),
    (11, 125000, 13, 3, 8, 1, 1, 0.67584),
    (12, 125000, 51, 1, 8, 0, 1, 2.465792),
    (12, 125000, 51, 4, 8, 0, 1, 3.547136),
    (12, 125000, 1, 1, 8, 0, 1, 0.827392),
    (12, 250000, 51, 1, 8, 0, 1, 1.232896),
    (12, 500000, 33, 1, 8, 0, 0, 0.411648),
    (12, 500000, 1, 1, 8, 0, 0, 0.206848),
    (12, 500000, 33, 4, 12, 0, 0, 0.591872),
]

# Extremes of the same independent sweep over the default design space
# (SF12; payload 1..51 at 125/250 kHz, 1..33 at 500 kHz; CR 1..4).
ALPHA_ORACLE_MIN_S = 0.206848  # bw=500000, pl=1, cr=1, de=0
ALPHA_ORACLE_MAX_S = 3.547136  # bw=125000, pl=51, cr=4, de=1

# An observation (found by perturbing a forward-consistent triple by a few
# kilometers of light travel) whose hyperbolas provably fail to intersect:
# both solver routes must reject it.
NO_REAL_ROOT_OBS = (4.935035559303155e-06, -9.905510857120672e-06, 3.2415267559726525e-05)

# A rootless observation with a late emission on a ~50 m triangle. The
# closed form rejects it; the analytic route once fixed it 51 m off, because
# its discriminant tolerance scaled with the emission time.
LATE_ROOTLESS_GATEWAYS = (
    (62.376327642260776, 0.0),
    (108.6965454723262, -18.826508443556087),
    (95.2204473626966, 13.861121414707503),
)
LATE_ROOTLESS_OBS = (7.666415484008273e-05, 7.676934448646851e-05, 7.688722537429156e-05)
