"""Optional compiled hop-walk kernel for the batch routing plane.

The reference walk (:meth:`repro.topology.routing.GeospatialRouter.route`)
costs on the order of a hundred microseconds per packet in the
interpreter (~11 k packets/s on Starlink).  This module compiles the
*same* walk -- operation-for-operation the same float64 arithmetic --
as a per-packet C loop over the shared :class:`NextHopTable` arrays,
which brings a hop down to a few dozen nanoseconds (~1.5 M packets/s).
It models Algorithm 1's preferred-direction walk only; a packet that
needs anything else (deflection, seam revisit, a path longer than the
caller's buffer) is flagged, with the prefix walked so far (path
cells, delay, distance, length) written out, and the reference walk
*continues* it from the node where the flag was raised.  The prefix is
the one the reference walk would have walked itself, bit for bit, so
continuing it equals recomputing it.

Bit-exactness
=============
The C source mirrors the scalar reference precisely:

* ``wrap_signed`` uses ``fmod`` with CPython's ``%`` sign adjustment
  (including the ``copysign(0.0, divisor)`` normalisation of a zero
  remainder), then the same ``> pi`` conditional subtract.
* The exact haversine replays the operand order of the scalar
  ``central_angle`` (``x * x`` squares, ``(cos * cos) * s2``, clip to
  ``[0, 1]``).
* Transcendentals come from the very libm the interpreter's ``math``
  module binds, and the build passes ``-ffp-contract=off`` so no FMA
  contraction re-associates a sum the interpreter rounds twice.

The build is lazy and entirely optional: no C compiler, a failed
compile, or ``REPRO_NO_CKERNEL=1`` all degrade silently to the
reference walk for the whole wave, with identical results and an
identical ``fallback`` mask (the equivalence suite runs on both
lanes).  Compiled objects are cached by source hash under
``$REPRO_KERNEL_CACHE`` (default: a ``repro-kernels`` directory in the
system temp dir), so each source revision compiles once per machine.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import List, Optional

__all__ = ["load_kernel", "kernel_source_hash"]

_KERNEL_SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* Exactly the doubles Python's math.pi / repro.constants.TWO_PI hold. */
static const double K_PI     = 0x1.921fb54442d18p+1;
static const double K_TWO_PI = 0x1.921fb54442d18p+2;

/* CPython float % TWO_PI: fmod, shifted into the divisor's sign; a
 * zero remainder is normalised to the divisor's (positive) zero. */
static double pymod_two_pi(double a) {
    double r = fmod(a, K_TWO_PI);
    if (r != 0.0) {
        if (r < 0.0) r += K_TWO_PI;
    } else {
        r = 0.0;
    }
    return r;
}

/* repro.orbits.coordinates.wrap_signed */
static double wrap_signed(double a) {
    double w = pymod_two_pi(a);
    if (w > K_PI) w -= K_TWO_PI;
    return w;
}

/* wrap_signed for angle *differences* in (-4*pi, 2*pi) without the
 * fmod: for |d| < 2*pi the fmod inside Python's % returns d exactly,
 * so the modulo is one rounded +2*pi when negative; for d in
 * (-4*pi, -2*pi] the first +2*pi is exact (Sterbenz lemma), so a
 * second conditional add reproduces % bit-for-bit.  Every (alpha,
 * gamma) difference the walk forms lies in that range: minuends are
 * >= -pi/2 (wrap_angle / asin / pi - asin), subtrahends < 2*pi. */
static double wrap_signed_diff(double d) {
    if (d <= -2.0 * K_TWO_PI || d >= K_TWO_PI)
        return wrap_signed(d);  /* out of proven range: exact path */
    double w = d < 0.0 ? d + K_TWO_PI : d;
    if (w < 0.0) w += K_TWO_PI;
    if (w > K_PI) w -= K_TWO_PI;
    return w;
}

/* The scalar-order haversine central angle (same expression tree as
 * coordinates.central_angle). */
static double exact_angle(double sat_lat, double sat_lon,
                          double dest_lat, double dest_lon) {
    double sd_lat = sin((dest_lat - sat_lat) / 2.0);
    double sd_lon = sin((dest_lon - sat_lon) / 2.0);
    double h = sd_lat * sd_lat
             + cos(sat_lat) * cos(dest_lat) * (sd_lon * sd_lon);
    if (h < 0.0) h = 0.0;
    if (h > 1.0) h = 1.0;
    return 2.0 * asin(sqrt(h));
}

/* Relative half-width of the guard band around each hop-offset
 * decision boundary.  The reference decisions compare correctly-
 * rounded quotients (x / delta, error <= 2^-53 relative) and their
 * rounded sums; the fast path compares the scale-invariant cross
 * products instead (x1 * dp vs x2 * dr -- the same real comparison,
 * different rounding, also within a few 2^-53 relative).  Whenever a
 * computed margin exceeds 1e-12 of the comparison scale -- over a
 * thousand times every rounding bound combined -- both evaluations
 * provably order the same way, so skipping the divisions cannot
 * change the decision.  Inside the band the reference divisions are
 * replayed verbatim. */
static const double K_GUARD = 1e-12;

/* The per-hop Algorithm 1 decision from the four *wrapped, unscaled*
 * both-representation offsets.  Returns 1 for "centered" (|da| and
 * |dg| both < 0.5 cells); else 0 with *dir_out set to the dominant-
 * dimension direction (0 up, 1 down, 2 left, 3 right).  Bit-exact
 * against the divide-based reference: the fast path only fires
 * outside the K_GUARD band (see above), everything else falls
 * through to the reference arithmetic itself. */
static int hop_decision(double wa0, double wg0, double wa1, double wg1,
                        double dr, double dp,
                        double half_dr, double half_dp, int *dir_out) {
    double awa0 = fabs(wa0), awg0 = fabs(wg0);
    double awa1 = fabs(wa1), awg1 = fabs(wg1);
    /* Representation pick: (|a1|/dr + |g1|/dp) < (|a0|/dr + |g0|/dp)
     * multiplied through by dr * dp > 0. */
    double p0 = awa0 * dp + awg0 * dr;
    double p1 = awa1 * dp + awg1 * dr;
    if (fabs(p1 - p0) > K_GUARD * (p0 + p1)) {
        int desc = p1 < p0;
        double wa = desc ? wa1 : wa0, wg = desc ? wg1 : wg0;
        double awa = desc ? awa1 : awa0, awg = desc ? awg1 : awg0;
        /* |a|/dr vs 0.5 is |a| vs dr/2 (dr/2 is exact). */
        double ma = awa - half_dr, mg = awg - half_dp;
        if (fabs(ma) > K_GUARD * (awa + half_dr)
            && fabs(mg) > K_GUARD * (awg + half_dp)) {
            if (ma < 0.0 && mg < 0.0) return 1;
            /* |a|/dr vs |g|/dp multiplied through by dr * dp. */
            double qa = awa * dp, qg = awg * dr;
            if (fabs(qa - qg) > K_GUARD * (qa + qg)) {
                *dir_out = (qa > qg) ? (wa > 0.0 ? 3 : 2)
                                     : (wg > 0.0 ? 0 : 1);
                return 0;
            }
        }
    }
    /* Near a boundary (or an exact tie): the reference decides. */
    double da0 = wa0 / dr, dg0 = wg0 / dp;
    double da1 = wa1 / dr, dg1 = wg1 / dp;
    double ada0 = fabs(da0), adg0 = fabs(dg0);
    double ada1 = fabs(da1), adg1 = fabs(dg1);
    int desc = (ada1 + adg1) < (ada0 + adg0);
    double da = desc ? da1 : da0, dg = desc ? dg1 : dg0;
    double ada = desc ? ada1 : ada0, adg = desc ? adg1 : adg0;
    if (ada < 0.5 && adg < 0.5) return 1;
    *dir_out = (ada > adg) ? (da > 0.0 ? 3 : 2) : (dg > 0.0 ? 0 : 1);
    return 0;
}

/* One Algorithm 1 walk per packet, identical decision structure to
 * GeospatialRouter.route: coverage screen (dot product against
 * the destination radial, guard-banded exact re-test), both-
 * representation hop offsets, strict-< representation pick, dominant-
 * dimension direction, liveness / seam-revisit / path-capacity
 * fallback flags.  Every exit -- delivery, a flag, or the hop budget
 * spent -- writes the walked prefix: path cells 0..step, its delay and
 * distance, and path_len = step + 1, so a flagged packet's reference
 * walk continues from there instead of starting over. */
void walk_chunk(
    int64_t n, int64_t max_hops, int64_t path_cap,
    int32_t full_torus, int32_t healthy,
    double theta, double slack_theta, double cos_in, double cos_out,
    double delta_raan, double delta_phase,
    const int64_t *src,
    const double *a0, const double *g0,
    const double *a1, const double *g1,
    const double *dest_lat, const double *dest_lon,
    const double *ux, const double *uy, const double *uz,
    const double *t_alpha, const double *t_gamma,
    const double *t_slat, const double *t_slon,
    const double *t_ux, const double *t_uy, const double *t_uz,
    const int32_t *t_nbr, const double *t_hop, const double *t_delay,
    const uint8_t *t_edge,
    uint8_t *delivered, uint8_t *degraded, uint8_t *fallback,
    double *delay_out, double *dist_out,
    int32_t *path_len, int32_t *paths)
{
    const double half_dr = 0.5 * delta_raan;   /* exact */
    const double half_dp = 0.5 * delta_phase;  /* exact */
    for (int64_t i = 0; i < n; i++) {
        int64_t cur = src[i];
        const double A0 = a0[i], G0 = g0[i];
        const double A1 = a1[i], G1 = g1[i];
        const double DLAT = dest_lat[i], DLON = dest_lon[i];
        const double UX = ux[i], UY = uy[i], UZ = uz[i];
        double delay = 0.0, dist = 0.0;
        int32_t *path = paths + i * path_cap;
        path[0] = (int32_t)cur;
        int64_t step;
        for (step = 0; step < max_hops; step++) {
            double dot = t_ux[cur] * UX + t_uy[cur] * UY
                       + t_uz[cur] * UZ;
            int covered;
            if (dot >= cos_in) {
                covered = 1;
            } else if (dot > cos_out) {
                covered = exact_angle(t_slat[cur], t_slon[cur],
                                      DLAT, DLON) <= theta;
            } else {
                covered = 0;
            }
            if (covered) {
                delivered[i] = 1;
                break;
            }
            double wa0 = wrap_signed_diff(A0 - t_alpha[cur]);
            double wg0 = wrap_signed_diff(G0 - t_gamma[cur]);
            double wa1 = wrap_signed_diff(A1 - t_alpha[cur]);
            double wg1 = wrap_signed_diff(G1 - t_gamma[cur]);
            int dir = 0;
            if (hop_decision(wa0, wg0, wa1, wg1,
                             delta_raan, delta_phase,
                             half_dr, half_dp, &dir)) {
                if (exact_angle(t_slat[cur], t_slon[cur],
                                DLAT, DLON) <= slack_theta) {
                    delivered[i] = 1;
                    degraded[i] = 1;
                } else {
                    /* Centered but not even nearly covered: the
                     * scalar walk deflects sideways from here. */
                    fallback[i] = 1;
                }
                break;
            }
            int64_t off = cur * 4 + dir;
            int32_t nxt = t_nbr[off];
            if (!healthy && !t_edge[off]) {
                fallback[i] = 1;
                break;
            }
            if (!full_torus) {
                int revisit = 0;
                for (int64_t k = 0; k <= step; k++) {
                    if (path[k] == nxt) { revisit = 1; break; }
                }
                if (revisit) {
                    fallback[i] = 1;
                    break;
                }
            }
            if (step + 1 >= path_cap) {
                /* Path buffer exhausted (the caller trades capacity
                 * for allocation cost); the scalar walk that continues
                 * from here has no such limit. */
                fallback[i] = 1;
                break;
            }
            /* t_delay is hop_km / c precomputed edgewise -- the same
             * two operands, the same correctly-rounded IEEE divide,
             * therefore the same quotient bits as the scalar's
             * per-hop division. */
            delay += t_delay[off];
            dist += t_hop[off];
            path[step + 1] = nxt;
            cur = (int64_t)nxt;
        }
        /* step == max_hops when the budget ran out: undelivered, with
         * the max_hops + 1 nodes walked. */
        delay_out[i] = delay;
        dist_out[i] = dist;
        path_len[i] = (int32_t)(step + 1);
    }
}
"""

#: -O2 without fast-math; contraction off so a*b+c never fuses into an
#: FMA the interpreter would have rounded in two steps.
_CFLAGS = ["-O2", "-fPIC", "-shared", "-ffp-contract=off"]

_lock = threading.Lock()
_cached: Optional[ctypes.CDLL] = None
_load_attempted = False


def kernel_source_hash() -> str:
    """Content hash naming the compiled object (cache key).

    Covers the compile flags too: a flag change (e.g. contraction
    settings) must never reuse an object built under different ones.
    """
    key = _KERNEL_SOURCE + "\x00" + " ".join(_CFLAGS)
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_KERNEL_CACHE")
    if configured:
        return configured
    return os.path.join(tempfile.gettempdir(), "repro-kernels")


def _find_compiler() -> Optional[str]:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _configure(lib: ctypes.CDLL) -> ctypes.CDLL:
    pointer_args: List[type] = [ctypes.c_void_p] * 28
    lib.walk_chunk.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int32, ctypes.c_int32,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
    ] + pointer_args
    lib.walk_chunk.restype = None
    return lib


def _compile() -> Optional[ctypes.CDLL]:
    compiler = _find_compiler()
    if compiler is None:
        return None
    directory = _cache_dir()
    so_path = os.path.join(directory,
                           f"walk_{kernel_source_hash()}.so")
    if os.path.exists(so_path):
        try:
            return _configure(ctypes.CDLL(so_path))
        except OSError:
            pass  # stale/corrupt cache entry; rebuild below
    try:
        os.makedirs(directory, exist_ok=True)
        fd, c_path = tempfile.mkstemp(suffix=".c", dir=directory)
        with os.fdopen(fd, "w") as handle:
            handle.write(_KERNEL_SOURCE)
        tmp_so = c_path[:-2] + ".so"
        result = subprocess.run(
            [compiler] + _CFLAGS + [c_path, "-o", tmp_so, "-lm"],
            capture_output=True, timeout=120)
        if result.returncode != 0:
            return None
        # Atomic publish so concurrent builders never load a half-
        # written object.
        os.replace(tmp_so, so_path)
        return _configure(ctypes.CDLL(so_path))
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        for leftover in (locals().get("c_path"),):
            if leftover and os.path.exists(leftover):
                try:
                    os.remove(leftover)
                except OSError:
                    pass


def load_kernel() -> Optional[ctypes.CDLL]:
    """The compiled walk kernel, or ``None`` when unavailable.

    ``None`` means: disabled via ``REPRO_NO_CKERNEL``, no C compiler
    on PATH, or the build failed -- the caller routes the whole wave
    with the reference walk in every case.  The outcome (either way)
    is memoised.
    """
    global _cached, _load_attempted  # repro: ignore[shard-purity] -- once-only lazy compile; kernel is bit-exact vs the reference walk
    if os.environ.get("REPRO_NO_CKERNEL"):
        return None
    with _lock:
        if not _load_attempted:
            _load_attempted = True
            _cached = _compile()
        return _cached
