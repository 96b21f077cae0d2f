"""The one optional compiled object: the batch routing plane's hop
walk and the Schnorr group's arithmetic (``power``'s modexp,
``generate``'s fixed-base comb, ``is_element``'s Jacobi symbol).

The reference walk (:meth:`repro.topology.routing.GeospatialRouter.route`)
costs on the order of a hundred microseconds per packet in the
interpreter (~11 k packets/s on Starlink).  This module compiles the
*same* walk -- operation-for-operation the same float64 arithmetic --
as a per-packet C loop over the arrays of one
:class:`~repro.topology.grid.TopologyState`, which brings a hop down to a few dozen nanoseconds (~1.1-1.5 M
packets/s per core).  The call releases the GIL, so
:meth:`~repro.topology.batch_routing.BatchGeoRouter.route_batch` runs
the chunks of a large wave on every core.
It models Algorithm 1's preferred-direction walk only; a packet that
needs anything else (deflection, seam revisit, a path longer than the
caller's per-packet cap) is flagged, with the prefix walked so far
(moves, delay, distance, length) written out.  The reference walk
takes the run of deflection hops from the flag (or the packet's drop
or delivery) up to the next preferred-direction hop, and this walk
*resumes* the longer prefix, handed back as its node list, in the same
hop loop, up to the next flag.  Every prefix is the one the reference
walk would have walked itself, bit for bit, so the turns add up to its
route.  A path is written as its moves: one byte per hop, the
``grid_neighbor_table`` column taken, each packet's moves right after
the previous packet's, so a chunk's paths take one byte per hop
walked, not per hop of capacity.  The source node is the packet's own
input, and the nodes the seam-revisit check reads (a resumed prefix's
included) live in a per-packet buffer on the stack.  ``decode_paths`` turns the flagged
packets' moves back into node paths, all of them in one call, for the
reference walk's first turn.

Bit-exactness
=============
The C source mirrors the scalar reference precisely:

* ``destination_reps`` converts each destination to both
  ``(alpha, gamma)`` representations with the scalar
  ``both_representations`` operations, and
  ``wrap_angle`` replays CPython's float ``%`` (``fmod``, then the
  sign fix) for any finite longitude.
* ``wrap_signed_diff`` replays CPython's ``%`` (and
  ``wrap_signed``'s ``> pi`` conditional subtract) over the range of
  angle differences the walk can form, with one or two conditional
  ``+ 2*pi`` adds instead of ``fmod`` (the range argument is beside
  the function).
* The exact haversine replays the operand order of the scalar
  ``central_angle`` (``x * x`` squares, ``(cos * cos) * s2``, clip to
  ``[0, 1]``).
* Transcendentals come from the very libm the interpreter's ``math``
  module binds, and the build passes ``-ffp-contract=off`` so no FMA
  contraction re-associates a sum the interpreter rounds twice.

The same source holds the arithmetic of
:class:`repro.crypto.group.SchnorrGroup` over 64-byte little-endian
operands (not constant-time).  ``modexp`` and the comb share one
fixed-width Montgomery multiplication over 8 x 64-bit limbs:

* ``modexp``, ``base^exp mod m`` with a fixed 5-bit window, for
  ``power``;
* ``fixed_base_table`` / ``fixed_base``, an 8-bit comb of the group's
  generator (one 256-entry Montgomery-form row per byte of ``q``, 1 MiB
  for the 512-bit group, built in C into a caller-owned buffer) and
  ``g^e`` as one multiplication per non-zero byte of ``e``, for
  ``generate``;
* ``jacobi``, the binary Jacobi symbol (shift, subtract, swap), for
  ``is_element``.

The build is lazy and entirely optional: no C compiler, a failed
compile, or ``REPRO_NO_CKERNEL=1`` all degrade silently to the
reference walk for the whole wave, with identical results and an
identical ``fallback`` mask, and the group operations to their Python
forms (the equivalence suites run on both lanes).  Compiled objects
are cached by source hash under ``$REPRO_KERNEL_CACHE`` (default: a
``repro-kernels`` directory in the system temp dir), so each source
revision compiles once per machine.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Optional

__all__ = ["load_kernel", "kernel_source_hash"]

_KERNEL_SOURCE = r"""
#include <math.h>
#include <stdint.h>

/* Exactly the doubles Python's math.pi / repro.constants.TWO_PI hold. */
static const double K_PI     = 0x1.921fb54442d18p+1;
static const double K_TWO_PI = 0x1.921fb54442d18p+2;

/* repro.orbits.coordinates.wrap_angle: CPython's x % (2*pi) -- fmod,
 * then the sign fix, a zero remainder being +0.0 -- and the ">= 2*pi
 * is 0.0" guard.  DESTINATION_CONTRACT admits any finite longitude,
 * so unlike wrap_signed_diff below this needs the fmod. */
static double wrap_angle(double x) {
    double w = fmod(x, K_TWO_PI);
    if (w != 0.0) {
        if (w < 0.0) w += K_TWO_PI;
    } else {
        w = 0.0;
    }
    return w >= K_TWO_PI ? 0.0 : w;
}

/* InclinedCoordinateSystem.both_representations of one destination,
 * operation for operation (one from_geodetic, then the descending
 * branch from its gamma; Python's min/max picks spelled out), with
 * band = min(i, pi - i): reps = {alpha_asc, gamma_asc, alpha_desc,
 * gamma_desc}. */
void destination_reps(double lat, double lon, double band,
                      double sin_i, double cos_i, double *reps) {
    double clamped = lat < band ? lat : band;
    clamped = clamped > -band ? clamped : -band;
    double ratio = sin(clamped) / sin_i;
    ratio = ratio < 1.0 ? ratio : 1.0;
    ratio = ratio > -1.0 ? ratio : -1.0;
    const double gamma = asin(ratio);
    reps[0] = wrap_angle(lon - atan2(cos_i * sin(gamma), cos(gamma)));
    reps[1] = gamma;
    const double gamma_d = K_PI - gamma;
    reps[2] = wrap_angle(lon - atan2(cos_i * sin(gamma_d), cos(gamma_d)));
    reps[3] = gamma_d;
}

/* repro.orbits.coordinates.wrap_signed for the angle differences
 * the walk forms, without the fmod.  Every minuend is a destination
 * alpha in [0, 2*pi) or gamma in [-pi/2, 3*pi/2]
 * (destination_reps: a wrapped longitude, an asin, pi minus
 * an asin); every subtrahend is a snapshot raan_ecef or arg_latitude
 * in [0, 2*pi) (_wrap_array in ConstellationSnapshot).  So every d
 * lies in (-2.5*pi, 2*pi).  For |d| < 2*pi the fmod inside Python's %
 * returns d exactly, so the modulo is one rounded +2*pi when d is
 * negative; for d in (-2.5*pi, -2*pi] the first +2*pi is exact
 * (Sterbenz lemma) and is what fmod returns, so a second conditional
 * add reproduces % bit for bit (a zero sum is +0.0, as % gives). */
static double wrap_signed_diff(double d) {
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

/* The most nodes a packet's path may hold here: the size of the
 * on-stack node buffer the seam-revisit check reads. */
#define PATH_CAP_MAX 64

/* One Algorithm 1 walk per packet, identical decision structure to
 * GeospatialRouter.route: coverage screen (dot product against
 * the destination radial, guard-banded exact re-test), both-
 * representation hop offsets, strict-< representation pick, dominant-
 * dimension direction, liveness / seam-revisit / path-capacity
 * fallback flags.  Every exit -- delivery, a flag, or the hop budget
 * spent -- writes the walked prefix: moves 0..step-1 (the neighbour
 * table column of each hop), its delay and distance, and path_len =
 * step + 1 nodes, so a flagged packet's reference walk continues from
 * there instead of starting over.
 *
 * With prefix non-NULL the walks resume instead of starting: packet
 * i's path so far is the next path_len[i] nodes of prefix (packets
 * back to back; src is not read), delay_out[i] and dist_out[i] hold
 * what it has accumulated, and the same hop loop continues from its
 * last node with every prefix node in the node buffer.  A resumed
 * walk has left the preferred direction at least once, so the
 * strict-decrease argument that spares a full torus the revisit check
 * no longer holds: resumed walks always check.  path_len[i] comes
 * back as the whole path's node count, and the moves written are the
 * resumed hops only.
 *
 * Moves are compact: packet i's moves start where packet i - 1's
 * ended, at the sum of the hops walked here over j < i, so the
 * caller's region needs n * (path_cap - 1) bytes only in the worst
 * case.  Bytes past the last packet's moves are never written.
 * Returns -1, writing nothing, unless 1 <= path_cap <= PATH_CAP_MAX
 * and every resumed prefix holds 1..path_cap nodes. */
int walk_chunk(
    int64_t n, int64_t max_hops, int64_t path_cap,
    int32_t full_torus, int32_t healthy,
    double theta, double slack_theta, double cos_in, double cos_out,
    double delta_raan, double delta_phase,
    double band, double sin_i, double cos_i,
    const int64_t *src, const int32_t *prefix,
    const double *dest_lat, const double *dest_lon,
    const double *t_alpha, const double *t_gamma,
    const double *t_slat, const double *t_slon,
    const double *t_ux, const double *t_uy, const double *t_uz,
    const int32_t *t_nbr, const double *t_hop, const double *t_delay,
    const uint8_t *t_edge,
    uint8_t *delivered, uint8_t *degraded, uint8_t *fallback,
    double *delay_out, double *dist_out,
    int32_t *path_len, uint8_t *moves)
{
    if (path_cap < 1 || path_cap > PATH_CAP_MAX) return -1;
    if (prefix) {
        for (int64_t i = 0; i < n; i++)
            if (path_len[i] < 1 || path_len[i] > path_cap) return -1;
    }
    const int check_revisit = !full_torus || prefix;
    const double half_dr = 0.5 * delta_raan;   /* exact */
    const double half_dp = 0.5 * delta_phase;  /* exact */
    int64_t cursor = 0, taken = 0;
    int32_t path[PATH_CAP_MAX];
    for (int64_t i = 0; i < n; i++) {
        int64_t first = 0;  /* hops walked before this call */
        double delay = 0.0, dist = 0.0;
        if (prefix) {
            first = path_len[i] - 1;
            for (int64_t k = 0; k <= first; k++) path[k] = prefix[taken + k];
            taken += first + 1;
            delay = delay_out[i];
            dist = dist_out[i];
        } else {
            path[0] = (int32_t)src[i];
        }
        int64_t cur = path[first];
        const double DLAT = dest_lat[i], DLON = dest_lon[i];
        double reps[4];
        destination_reps(DLAT, DLON, band, sin_i, cos_i, reps);
        const double A0 = reps[0], G0 = reps[1];
        const double A1 = reps[2], G1 = reps[3];
        /* The destination radial the coverage screen dots against. */
        const double COS_LAT = cos(DLAT);
        const double UX = COS_LAT * cos(DLON), UY = COS_LAT * sin(DLON);
        const double UZ = sin(DLAT);
        uint8_t *move = moves + cursor;
        int64_t step;
        for (step = first; step < max_hops; step++) {
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
            if (check_revisit) {
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
                /* Per-packet path capacity reached; the scalar walk
                 * that continues from here has no such limit. */
                fallback[i] = 1;
                break;
            }
            /* t_delay is hop_km / c precomputed edgewise -- the same
             * two operands, the same correctly-rounded IEEE divide,
             * therefore the same quotient bits as the scalar's
             * per-hop division. */
            delay += t_delay[off];
            dist += t_hop[off];
            move[step - first] = (uint8_t)dir;
            path[step + 1] = nxt;
            cur = (int64_t)nxt;
        }
        /* step == max_hops when the budget ran out: undelivered, with
         * the max_hops + 1 nodes walked. */
        delay_out[i] = delay;
        dist_out[i] = dist;
        path_len[i] = (int32_t)(step + 1);
        cursor += step - first;
    }
    return 0;
}

/* The node paths of packets sel[0..n), back to back into nodes: each
 * packet's source, then one wiring step per move -- the hand-off
 * prefixes walk_chunk left, decoded for the reference walk. */
void decode_paths(int64_t n, const int64_t *sel, const int32_t *source,
                  const int64_t *offsets, const int32_t *path_len,
                  const uint8_t *moves, const int32_t *t_nbr,
                  int32_t *nodes)
{
    for (int64_t k = 0; k < n; k++) {
        const int64_t i = sel[k];
        const uint8_t *move = moves + offsets[i];
        int32_t cur = source[i];
        if (path_len[i] > 0) *nodes++ = cur;
        for (int32_t h = 1; h < path_len[i]; h++) {
            cur = t_nbr[(int64_t)cur * 4 + move[h - 1]];
            *nodes++ = cur;
        }
    }
}

/* ---- modexp: base^exp mod m for SchnorrGroup.power ------------------
 * Fixed-width Montgomery arithmetic, R = 2^512 over 8 x 64-bit limbs,
 * CIOS multiplication and a fixed 5-bit window.  Not constant-time:
 * the window digits pick table rows and the final subtraction is a
 * branch, which is fine for a simulator and wrong for real keys. */
#define NL 8
#define WINDOW 5
typedef unsigned __int128 u128;

/* x -= m when top * 2^512 + x >= m: the one reduction step that
 * brings a value below 2m back below m. */
static void reduce_once(uint64_t *x, uint64_t top, const uint64_t *m) {
    int ge = top != 0;
    if (!ge) {
        ge = 1;
        for (int j = NL - 1; j >= 0; j--) {
            if (x[j] != m[j]) { ge = x[j] > m[j]; break; }
        }
    }
    if (!ge) return;
    uint64_t borrow = 0;
    for (int j = 0; j < NL; j++) {
        u128 d = (u128)x[j] - m[j] - borrow;
        x[j] = (uint64_t)d;
        borrow = (uint64_t)(d >> 64) & 1;
    }
}

/* out = a * b / R mod m, for a, b < m; out may alias a or b. */
static void mont_mul(uint64_t *out, const uint64_t *a, const uint64_t *b,
                     const uint64_t *m, uint64_t m_inv) {
    uint64_t t[NL + 2] = {0};
    for (int i = 0; i < NL; i++) {
        u128 c = 0;
        for (int j = 0; j < NL; j++) {
            c = (u128)a[j] * b[i] + t[j] + (uint64_t)(c >> 64);
            t[j] = (uint64_t)c;
        }
        c = (u128)t[NL] + (uint64_t)(c >> 64);
        t[NL] = (uint64_t)c;
        t[NL + 1] = (uint64_t)(c >> 64);
        uint64_t mu = t[0] * m_inv;
        c = (u128)mu * m[0] + t[0];
        for (int j = 1; j < NL; j++) {
            c = (u128)mu * m[j] + t[j] + (uint64_t)(c >> 64);
            t[j - 1] = (uint64_t)c;
        }
        c = (u128)t[NL] + (uint64_t)(c >> 64);
        t[NL - 1] = (uint64_t)c;
        t[NL] = t[NL + 1] + (uint64_t)(c >> 64);
    }
    reduce_once(t, t[NL], m);  /* t < 2m */
    for (int j = 0; j < NL; j++) out[j] = t[j];
}

/* x = 2x mod m, for x < m. */
static void mod_double(uint64_t *x, const uint64_t *m) {
    uint64_t carry = 0;
    for (int j = 0; j < NL; j++) {
        uint64_t next = x[j] >> 63;
        x[j] = (x[j] << 1) | carry;
        carry = next;
    }
    reduce_once(x, carry, m);
}

static int bit_length(const uint64_t *x) {
    for (int j = NL - 1; j >= 0; j--)
        if (x[j]) return 64 * j + 64 - __builtin_clzll(x[j]);
    return 0;
}

/* Bits [WINDOW * w, WINDOW * (w + 1)) of x. */
static unsigned digit_at(const uint64_t *x, int w) {
    int lo = w * WINDOW, limb = lo / 64, shift = lo % 64;
    uint64_t bits = x[limb] >> shift;
    if (shift > 64 - WINDOW && limb + 1 < NL)
        bits |= x[limb + 1] << (64 - shift);
    return (unsigned)(bits & ((1u << WINDOW) - 1));
}

static void load_limbs(uint64_t *x, const uint8_t *bytes) {
    for (int j = 0; j < NL; j++) {
        uint64_t v = 0;
        for (int k = 7; k >= 0; k--) v = (v << 8) | bytes[8 * j + k];
        x[j] = v;
    }
}

static void store_limbs(uint8_t *bytes, const uint64_t *x) {
    for (int j = 0; j < NL; j++)
        for (int k = 0; k < 8; k++)
            bytes[8 * j + k] = (uint8_t)(x[j] >> (8 * k));
}

/* Loads the modulus and sets -m^-1 mod 2^64; returns -1 unless m is
 * odd and > 1, as Montgomery reduction needs. */
static int mont_modulus(uint64_t *m, uint64_t *m_inv, const uint8_t *mod_le) {
    load_limbs(m, mod_le);
    if (!(m[0] & 1) || bit_length(m) < 2) return -1;
    /* Newton's iteration (m odd: 3 correct bits to 96). */
    uint64_t inv = m[0];
    for (int k = 0; k < 5; k++) inv *= 2 - m[0] * inv;
    *m_inv = (uint64_t)0 - inv;
    return 0;
}

/* R^2 mod m: double 2^(mbits-1) < m up to 2^513 = Mont(2), then square
 * nine times to Mont(2^512) = R^2 mod m. */
static void mont_r2(uint64_t *r2, const uint64_t *m, uint64_t m_inv) {
    int mbits = bit_length(m);
    for (int j = 0; j < NL; j++) r2[j] = 0;
    r2[(mbits - 1) / 64] = (uint64_t)1 << ((mbits - 1) % 64);
    for (int k = mbits - 1; k < 513; k++) mod_double(r2, m);
    for (int k = 0; k < 9; k++) mont_mul(r2, r2, r2, m, m_inv);
}

/* out = base^exp mod m; all four are 64-byte little-endian buffers,
 * base < m.  Returns -1 (out untouched) unless m is odd and > 1. */
int modexp(uint8_t *out, const uint8_t *base_le, const uint8_t *exp_le,
           const uint8_t *mod_le) {
    uint64_t m[NL], e[NL], acc[NL], r2[NL], m_inv;
    if (mont_modulus(m, &m_inv, mod_le)) return -1;
    load_limbs(e, exp_le);
    mont_r2(r2, m, m_inv);
    uint64_t table[1 << WINDOW][NL];
    uint64_t one[NL] = {1};
    mont_mul(table[0], one, r2, m, m_inv);
    load_limbs(acc, base_le);
    mont_mul(table[1], acc, r2, m, m_inv);
    for (int d = 2; d < (1 << WINDOW); d++)
        mont_mul(table[d], table[d - 1], table[1], m, m_inv);
    int ebits = bit_length(e);
    int w = ebits ? (ebits - 1) / WINDOW : 0;
    for (int j = 0; j < NL; j++) acc[j] = table[digit_at(e, w)][j];
    while (w-- > 0) {
        for (int k = 0; k < WINDOW; k++)
            mont_mul(acc, acc, acc, m, m_inv);
        unsigned digit = digit_at(e, w);
        if (digit) mont_mul(acc, acc, table[digit], m, m_inv);
    }
    mont_mul(acc, acc, one, m, m_inv);
    store_limbs(out, acc);
    return 0;
}

/* ---- fixed_base: g^e mod m for SchnorrGroup.generate ----------------
 * A comb over 8-bit digits: entry (i, d) of the table is
 * Mont(base^(d * 256^i)), 256 entries of NL limbs per row, so g^e is
 * one mont_mul per non-zero byte of e and one conversion out. */
#define COMB 256

/* Fills the caller's rows * COMB * NL limbs with the comb of base < m.
 * Returns -1 (table untouched) unless m is odd and > 1. */
int fixed_base_table(uint64_t *table, const uint8_t *base_le, int64_t rows,
                     const uint8_t *mod_le) {
    uint64_t m[NL], b[NL], r2[NL], m_inv;
    uint64_t one[NL] = {1};
    if (mont_modulus(m, &m_inv, mod_le)) return -1;
    mont_r2(r2, m, m_inv);
    load_limbs(b, base_le);
    mont_mul(b, b, r2, m, m_inv);  /* Mont(base^(256^i)) for row i */
    for (int64_t i = 0; i < rows; i++) {
        uint64_t *row = table + i * COMB * NL;
        mont_mul(row, one, r2, m, m_inv);
        for (int d = 1; d < COMB; d++)
            mont_mul(row + d * NL, row + (d - 1) * NL, b, m, m_inv);
        mont_mul(b, row + (COMB - 1) * NL, b, m, m_inv);
    }
    return 0;
}

/* out = base^e mod m, e given as its rows little-endian bytes (digits),
 * from fixed_base_table's comb of base.  Returns -1 (out untouched)
 * unless m is odd and > 1. */
int fixed_base(uint8_t *out, const uint64_t *table, const uint8_t *digits,
               int64_t rows, const uint8_t *mod_le) {
    uint64_t m[NL], acc[NL], m_inv;
    uint64_t one[NL] = {1};
    if (mont_modulus(m, &m_inv, mod_le)) return -1;
    int started = 0;
    for (int64_t i = 0; i < rows; i++) {
        if (!digits[i]) continue;
        const uint64_t *entry = table + (i * COMB + digits[i]) * NL;
        if (started) {
            mont_mul(acc, acc, entry, m, m_inv);
        } else {
            for (int j = 0; j < NL; j++) acc[j] = entry[j];
            started = 1;
        }
    }
    if (started) {
        mont_mul(acc, acc, one, m, m_inv);
    } else {
        for (int j = 0; j < NL; j++) acc[j] = one[j];  /* e = 0, m > 1 */
    }
    store_limbs(out, acc);
    return 0;
}

/* ---- jacobi: the Jacobi symbol (a | n) for SchnorrGroup.is_element --
 * The binary algorithm: shifts, subtractions and swaps only, over the
 * limbs both operands still occupy.  Returns 1, -1, or 0 when
 * gcd(a, n) > 1; -2 unless n is odd. */
int jacobi(const uint8_t *a_le, const uint8_t *n_le) {
    uint64_t a[NL], n[NL];
    load_limbs(a, a_le);
    load_limbs(n, n_le);
    if (!(n[0] & 1)) return -2;
    int sign = 1, len = NL;
    for (;;) {
        while (len > 1 && !a[len - 1] && !n[len - 1]) len--;
        int low = 0;
        while (low < len && !a[low]) low++;
        if (low == len) break;  /* a = 0: n is gcd(a, n) */
        /* a >>= twos; (2 | n) = -1 iff n = 3, 5 (mod 8). */
        int bits = __builtin_ctzll(a[low]);
        int twos = 64 * low + bits;
        for (int j = 0; twos && j < len; j++) {
            uint64_t v = j + low < len ? a[j + low] : 0;
            uint64_t w = j + low + 1 < len ? a[j + low + 1] : 0;
            a[j] = bits ? (v >> bits) | (w << (64 - bits)) : v;
        }
        if ((twos & 1) && ((n[0] & 7) == 3 || (n[0] & 7) == 5))
            sign = -sign;
        /* Both odd: swap so a >= n, flipping by reciprocity when both
         * are 3 (mod 4), then a -= n, which leaves a even. */
        int less = 0;
        for (int j = len - 1; j >= 0; j--) {
            if (a[j] != n[j]) { less = a[j] < n[j]; break; }
        }
        if (less) {
            for (int j = 0; j < len; j++) {
                uint64_t t = a[j]; a[j] = n[j]; n[j] = t;
            }
            if ((a[0] & 3) == 3 && (n[0] & 3) == 3) sign = -sign;
        }
        uint64_t borrow = 0;
        for (int j = 0; j < len; j++) {
            u128 d = (u128)a[j] - n[j] - borrow;
            a[j] = (uint64_t)d;
            borrow = (uint64_t)(d >> 64) & 1;
        }
    }
    if (n[0] != 1) return 0;
    for (int j = 1; j < len; j++)
        if (n[j]) return 0;
    return sign;
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
    lib.walk_chunk.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int32, ctypes.c_int32,
    ] + [ctypes.c_double] * 9 + [ctypes.c_void_p] * 22
    lib.walk_chunk.restype = ctypes.c_int
    lib.destination_reps.argtypes = [ctypes.c_double] * 5 + [
        ctypes.c_void_p]
    lib.destination_reps.restype = None
    lib.decode_paths.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 7
    lib.decode_paths.restype = None
    lib.modexp.argtypes = [ctypes.c_void_p] * 4
    lib.modexp.restype = ctypes.c_int
    lib.fixed_base_table.argtypes = [ctypes.c_void_p, ctypes.c_void_p,
                                     ctypes.c_int64, ctypes.c_void_p]
    lib.fixed_base_table.restype = ctypes.c_int
    lib.fixed_base.argtypes = [ctypes.c_void_p] * 3 + [ctypes.c_int64,
                                                       ctypes.c_void_p]
    lib.fixed_base.restype = ctypes.c_int
    lib.jacobi.argtypes = [ctypes.c_void_p] * 2
    lib.jacobi.restype = ctypes.c_int
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
    """The compiled object (``walk_chunk``/``decode_paths``, ``modexp``,
    ``fixed_base_table``/``fixed_base`` and ``jacobi``), or ``None``.

    ``None`` means: disabled via ``REPRO_NO_CKERNEL``, no C compiler
    on PATH, or the build failed -- the caller routes the whole wave
    with the reference walk, and the group operations run their Python
    forms, in every case.  The outcome (either way) is memoised.
    """
    global _cached, _load_attempted
    if os.environ.get("REPRO_NO_CKERNEL"):
        return None
    with _lock:
        if not _load_attempted:
            _load_attempted = True
            _cached = _compile()
        return _cached
