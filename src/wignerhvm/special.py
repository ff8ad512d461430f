"""Special functions on numpy alone: the normal CDF and the sine integral.

Both kernels are elementwise: each output element depends only on its own
input element, never on the array's length or on its position in it, so
a value has the same bits however a caller slices or groups its points.
"""

from __future__ import annotations

import math

import numpy as np

def ndtr(x) -> np.ndarray:
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2), by math.erfc per element.

    x / sqrt 2 is rounded as x * sqrt(1/2), the product the Cephes ndtr
    rounds too.  The values go straight into a float array, so no object
    array of Python floats is made.  Meant for a few hundred points (bin
    and interval edges) per call.
    """
    arg = np.asarray(x, dtype=float) * -np.sqrt(0.5)
    out = np.fromiter(map(math.erfc, arg.flat), float, count=arg.size)
    out *= 0.5
    return out.reshape(arg.shape)[()]  # a scalar for a 0-d x


# Si(x) = x sum_j _SMALL[j] s^j with s = x^2 / 8 - 1 for |x| <= 4, by the
# recipe below for Si(x) / x (the dropped coefficients sum below 2^-57)
_SMALL = np.array((
    0.6488924209268717, -0.26998630593421985, 0.06995436230262994,
    -0.010180919854579487, 0.000926043940588566, -5.729510043974918e-05,
    2.562902980424153e-06, -8.669329640074211e-08, 2.294707477809517e-09,
    -4.8820436536706355e-11, 8.535034668454058e-13, -1.2465253208934712e-14,
))[:, None, None]

# Beyond |x| = 4, Si(x) = pi/2 - f(x) cos x - g(x) sin x with the auxiliary
# functions f = Ci sin - (Si - pi/2) cos and g = -Ci cos - (Si - pi/2) sin.
# _PIECES[i] covers _EDGES[i] < |x| <= _EDGES[i + 1], the last one every
# |x| > 40, and holds (k1, k0, rows): with s = k1 / x^2 + k0, which runs
# over [-1, 1] on the piece, x f(x) and x^2 g(x) are sum_j rows[j] s^j.  Recipe (mpmath at 60 digits): sample
# both products at 60 Chebyshev nodes of s, take their Chebyshev
# coefficients, keep the shortest series whose dropped coefficients sum
# below 2^-55 lo for x f and 2^-55 lo^2 for x^2 g (lo the piece's lower
# edge, so at most 2^-55 of Si is dropped), convert it to powers of s
# exactly and round each coefficient to double.
_PIECES = tuple((k1, k0, np.array(rows)[:, :, None])
                for k1, k0, rows in (
    # (4, 6]: degree 15
    (57.6, -2.6, (
        (0.934853942721215, 0.8341774410148108),
        (-0.019360865712769914, -0.043292144528032324),
        (0.0014221589048384565, 0.004518803168053539),
        (-0.0001661532920648491, -0.0006468603840270526),
        (2.4817916280807545e-05, 0.00011100829425875737),
        (-4.321267344472009e-06, -2.1446998300661285e-05),
        (8.361206385147627e-07, 4.506790412222855e-06),
        (-1.7480183067924125e-07, -1.0086162170979685e-06),
        (3.8781225344124715e-08, 2.3708453933926095e-07),
        (-9.02070079047298e-09, -5.798181880255778e-08),
        (2.1867476849345055e-09, 1.469987365369579e-08),
        (-5.466052265155051e-10, -3.8231188947309244e-09),
        (1.3340098109528202e-10, 9.598740567498159e-10),
        (-3.4622643731017577e-11, -2.5704446345517683e-10),
        (1.349716554939851e-11, 1.0587481309379031e-10),
        (-3.797532405883384e-12, -3.063015180698095e-11),
    )),
    # (6, 10]: degree 15
    (112.5, -2.125, (
        (0.9681318248778467, 0.913033894690919),
        (-0.012964218867512256, -0.032689201516307116),
        (0.0007298182454418112, 0.0027235516980940074),
        (-7.259133562144803e-05, -0.000340418736105873),
        (9.865918362529453e-06, 5.4053216382629736e-05),
        (-1.6348257801735233e-06, -1.0056226226389713e-05),
        (3.108576600262357e-07, 2.0948489845393767e-06),
        (-6.542210438503634e-08, -4.7512810021084485e-07),
        (1.4886338249807576e-08, 1.1515358044021281e-07),
        (-3.6050232540669913e-09, -2.9447131042052325e-08),
        (9.230482582400289e-10, 7.918491216030588e-09),
        (-2.460057914125288e-10, -2.2030447017592967e-09),
        (6.27069991877332e-11, 5.760449038130175e-10),
        (-1.7445402673457885e-11, -1.6549618854046145e-10),
        (8.2363890723544e-12, 8.368683106458912e-11),
        (-2.568055733484173e-12, -2.6885308834527837e-11),
    )),
    # (10, 20]: degree 13
    (266.6666666666667, -1.6666666666666667, (
        (0.9883030417695922, 0.9663040618007491),
        (-0.006599693990653434, -0.018328442020870105),
        (0.00022059599265544913, 0.0009535224702067828),
        (-1.4945749291747369e-05, -8.42322678246953e-05),
        (1.5290984205975266e-06, 1.0341807780542047e-05),
        (-2.05204802681459e-07, -1.5896020062566686e-06),
        (3.3381765468135074e-08, 2.8764600239192364e-07),
        (-6.2703067452185315e-09, -5.8929870581877546e-08),
        (1.3193936654620162e-09, 1.3344973332076659e-08),
        (-3.035233449830545e-10, -3.2690014257855836e-09),
        (7.168773732450651e-11, 8.072276733279641e-10),
        (-1.8482718938474794e-11, -2.1771813296241242e-10),
        (7.54862936902963e-12, 9.644849688996447e-11),
        (-2.3013987587355095e-12, -3.0617509106299627e-11),
    )),
    # (20, 40]: degree 8
    (1066.6666666666667, -1.6666666666666667, (
        (0.9969310592005456, 0.9909006031776092),
        (-0.0018091368068771333, -0.0053037284112470015),
        (1.855230139944773e-05, 8.838045875824793e-05),
        (-4.381048741227669e-07, -2.8329304780891297e-06),
        (1.7535314117693374e-08, 1.4088401371134444e-07),
        (-1.015847995570441e-09, -9.623685469554074e-09),
        (7.746642820521977e-11, 8.363638271427345e-10),
        (-7.556776860258823e-12, -9.13806491975733e-11),
        (8.567605793961004e-13, 1.1350613346352697e-11),
    )),
    # (40, inf]: degree 6
    (3200.0, -1.0, (
        (0.999377322151473, 0.9981365682885862),
        (-0.0006203769314449861, -0.001852010645473834),
        (2.2800372200352214e-06, 1.1276978565872363e-05),
        (-2.0534576372990004e-08, -1.410510167612356e-07),
        (3.3636455357784496e-10, 2.941444445775385e-09),
        (-8.609008910441442e-12, -9.105929876792128e-11),
        (3.1176835988438074e-13, 3.850146535140965e-12),
    )),
))
# pi = sum(_PI) to about 120 bits; the first two parts have 33 significant
# bits, so k * part is exact for every integer k < 2^20
_PI = (float.fromhex("0x1.921fb544p+1"), float.fromhex("0x1.0b4611a6p-33"),
       float.fromhex("0x1.3198a2e037073p-68"))
_REDUCED = 2.0 ** 20  # the largest argument _reduce takes
# the lower edges of the pieces, then _REDUCED: beyond it the last piece's
# table is used with np.cos and np.sin
_EDGES = (4.0, 6.0, 10.0, 20.0, 40.0, _REDUCED)
# sin(r)/r and cos r as sum_j rows[j] (r^2)^j on |r| <= pi/2, by the
# recipe above with s = 2 r^2 / (pi/2)^2 - 1 and powers of r^2; the
# dropped coefficients sum below 4e-18
_SIN_COS = np.array((
    (1.0, 1.0),
    (-0.16666666666666666, -0.4999999999999997),
    (0.008333333333333186, 0.04166666666666388),
    (-0.0001984126984120872, -0.001388888888877308),
    (2.7557319211236416e-06, 2.4801587277429214e-05),
    (-2.5052106891157374e-08, -2.7557316392259396e-07),
    (1.6058940906598482e-10, 2.0876561898935576e-09),
    (-7.643027257995673e-13, -1.1462903371196417e-11),
    (2.7215820239227603e-15, 4.6089918702860644e-14),
))[:, :, None]
# points per pass of a piece's polynomials: their temporaries then stay
# in cache
_CHUNK = 1 << 13


def _horner(rows: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sum_j rows[j] s^j for each column of rows, stacked as (columns, n)."""
    acc = np.empty((rows.shape[1], s.size))
    acc[:] = rows[-1]
    for row in rows[-2::-1]:
        acc *= s
        acc += row
    return acc


def _small(t: np.ndarray) -> np.ndarray:
    """Si(t) for |t| <= 4."""
    s = t * t
    s *= 1 / 8
    s -= 1.0
    out = _horner(_SMALL, s)[0]
    out *= t
    return out


def _reduce(a: np.ndarray):
    """(k, sin r, cos r) with a = k pi + r, for 4 < a <= _REDUCED.

    r is reduced by Cody and Waite's three-part pi and is within pi/2 + an
    ulp of 0, where the polynomials hold to about 1e-17.
    """
    k = a * (1 / np.pi)
    np.rint(k, out=k)
    r = k * -_PI[0]
    r += a  # exact
    t = k * _PI[1]
    r -= t
    np.multiply(k, _PI[2], out=t)
    r -= t
    np.multiply(r, r, out=t)
    sin_r, cos_r = _horner(_SIN_COS, t)
    sin_r *= r
    return k, sin_r, cos_r


def _auxiliary(a: np.ndarray, k1: float, k0: float, rows,
               reduced: bool) -> np.ndarray:
    """Si(a) = pi/2 - f cos a - g sin a for a > 4 from one piece's table.

    cos a and sin a are (-1)^k (cos r, sin r) from _reduce where
    ``reduced`` (every a <= _REDUCED), else np.cos and np.sin.
    """
    u = 1.0 / a
    v = u * u
    s = v * k1
    s += k0
    f, g = _horner(rows, s)  # x f(x) and x^2 g(x)
    if reduced:
        k, sin_a, cos_a = _reduce(a)
    else:
        with np.errstate(invalid="ignore"):  # cos and sin of inf
            cos_a, sin_a = np.cos(a), np.sin(a)
    f *= u
    f *= cos_a
    g *= v
    g *= sin_a
    f += g
    if reduced:
        f *= 1.0 - 2.0 * (k.astype(np.int64) & 1)  # (-1)^k
    out = np.pi / 2 - f
    if not reduced:
        out[a == np.inf] = np.pi / 2
    return out


def sine_integral(x) -> np.ndarray:
    """Si(x) = int_0^x sin(t)/t dt elementwise; Si(+-inf) = +-pi/2.

    Si is odd, so it is evaluated at |x| and given the sign of x: by one
    polynomial in x^2 for |x| <= 4, and beyond from the auxiliary
    functions f and g on one of five pieces, with cos and sin reduced
    in-package up to _REDUCED.  Each piece runs over _CHUNK points at a
    time.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x).reshape(-1)
    piece = np.zeros(a.shape, dtype=np.int8)  # 0 for |x| <= 4 and NaN
    for edge in _EDGES:
        piece += a > edge
    out = np.empty_like(a)
    for k in range(len(_EDGES) + 1):
        where = np.flatnonzero(piece == k)
        for start in range(0, where.size, _CHUNK):
            part = where[start:start + _CHUNK]
            if k == 0:
                out[part] = _small(a[part])
            else:
                table = _PIECES[min(k, len(_PIECES)) - 1]
                out[part] = _auxiliary(a[part], *table,
                                       reduced=k < len(_EDGES))
    return np.copysign(out.reshape(x.shape), x)
