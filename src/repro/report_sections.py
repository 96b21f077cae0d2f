"""The reproduction report's sections: name and title, in print order.

Each name is also a CLI command (``python -m repro table4``) printing
that section; ``experiments.report`` renders them.  The table lives
apart from the renderers so that building the CLI's parser does not
import the experiments package.
"""

from typing import Dict

#: Section name (the CLI command) -> title, in print order.
SECTION_TITLES: Dict[str, str] = {
    "table1": "Table 1 - constellations",
    "table2": "Table 2 - datasets",
    "table3": "Table 3 - geospatial cells",
    "table4": "Table 4 - signaling reduction (capacity 30K)",
    "fig5": "Fig. 5 - transparent-pipe bottlenecks",
    "fig7": "Fig. 7 - satellite CPU by core function",
    "fig8": "Fig. 8 - signaling latency vs load",
    "fig10": "Fig. 10 - signaling per placement option (Starlink)",
    "fig12": ("Fig. 12 - one Starlink satellite's load over 100 min "
              "(Option 3, 30K)"),
    "fig13": "Fig. 13 - intermittent failures",
    "fig17": "Fig. 17 - prototype latency and satellite CPU (hardware 1)",
    "fig18b": "Fig. 18b - Beijing->New York relay",
    "routing": "Algorithm 1 batch routing plane",
    "fig19": "Fig. 19 - leakage under attack (Starlink, 30K)",
    "fig20": "Fig. 20 - per-satellite signaling (Starlink, 30K)",
    "fig21": "Fig. 21 - user-level stalls",
    "fig11": "Fig. 11 - moving service areas (static UE, 30 min)",
    "robustness": "Robustness",
    "design": "Design claims",
}
