"""The truncated and layered characteristic exponents against recorded
high-precision values.

psi(s) = int_0^1 (1 - cos(s r)) r^(-1-a) dr + int_1^inf (1 - cos(s r)) r^(-1-lam) dr,
the second term for the layered family only.  The values were computed with
mpmath at 40 digits:

- the inner part as s^2 / (2 (2 - a)) * 2F3(1, 1 - a/2; 3/2, 2, 2 - a/2; -s^2/4)
  (``mpmath.hyper``);
- the tail as s^lam (s^(-lam) / lam - Re(e^(-i pi lam / 2) Gamma(-lam, -i s)))
  (``mpmath.gammainc``).

For s > 1 the inner part was cross-checked against s^a (C_a - J_a(s)) with
the same incomplete Gamma, to 30 digits.
"""

import numpy as np
import pytest

from levyem.models import LevyModel, char_exponent_radial

S = np.array([0.01, 0.1, 0.5, 0.99, 1.0, 1.01, 2.0, 3.0, 5.0, 7.99, 8.0, 8.01,
              20.0, 100.0, 1e3, 1e4])

RECORDED = {
    (1.5, None): (
        9.999983333364198e-05, 0.009998333641937156, 0.2489631409910095,
        0.9643771550867438, 0.9836381919022901, 1.0030801333194683,
        3.7521420176698825, 7.85177863651079, 18.188579937065352,
        36.95930720031347, 37.030142254899104, 37.10103396598799,
        148.7575194981655, 1670.4241242320113, 52843.6964759471, 1671084.849784538),
    (1.7, None): (
        0.00016666648550756936, 0.01666485539542182, 0.415539451778886,
        1.6163983912488262, 1.648869818293644, 1.6816537865131158,
        6.396508801581235, 13.744101855057835, 34.133207383681736,
        75.95642520741481, 76.11953350115184, 76.28279694942248,
        364.11029090192653, 5625.847380226328, 281988.91589194635, 14132953.401706666),
    (1.5, 2.5): (
        0.00019331576904534027, 0.017887336464211423, 0.3825294792238629,
        1.3189424286527938, 1.3425894105701541, 1.3663988030084355,
        4.391072415018563, 8.420163417461122, 18.43341034992181,
        37.467889042289976, 37.538888089695256, 37.60993172289513,
        149.1981367822193, 1670.8187674542933, 52844.09730084534, 1671085.2497540098),
    (1.3, 1.8): (
        0.000583045101892585, 0.030197959981625767, 0.4245177634373021,
        1.230849111186543, 1.2498080067781119, 1.2688504804985805,
        3.4692934967741285, 6.094438042740777, 12.038600127359818,
        22.304090624820844, 22.3408057682214, 22.377534728528346,
        74.02150420918778, 601.3413146627096, 12002.387167749714, 239483.15776623727),
}


def model_for(alpha, lam):
    return LevyModel.truncated_stable(alpha) if lam is None \
        else LevyModel.layered_stable(alpha, lam)


@pytest.mark.parametrize("alpha,lam", sorted(RECORDED, key=str))
def test_exponent_matches_recorded_values(alpha, lam):
    model = model_for(alpha, lam)
    ref = np.array(RECORDED[alpha, lam])
    below_8 = S < 8.0
    # the whole grid, a grid whose largest point is below the contour seed,
    # and every point on its own
    for pts, want in ((S, ref), (S[below_8], ref[below_8]), (S[::-1], ref[::-1])):
        np.testing.assert_allclose(char_exponent_radial(model, pts), want, rtol=1e-12, atol=0)
    for s, want in zip(S, ref):
        assert char_exponent_radial(model, s) == pytest.approx(want, rel=1e-12, abs=0)
