"""The osp(1|2) realisation inside H_{t,c} (x) C(V), and its (S)Casimirs.

Conventions (with s = sqrt(2t), t = s^2/2):

    F+ = (1/s) sum_p x_p e_p          F- = (1/s) sum_p y_p e_p
    E+ = (1/2t) sum_p x_p^2           E- = -(1/2t) sum_p y_p^2
    H  = (1/t) sum_p x_p y_p + d/2 - Omega_c / t
    Omega_c = sum_{alpha>0} c(alpha) s_alpha

    Scasimir  S = F-F+ - F+F- - 1/2
    Omega_osp = H^2 + 2(E+E- + E-E+) - (F+F- - F-F+)
    Omega_sl2 = H^2 + 2(E+E- + E-E+)
    Omega_quarter = Omega_osp + 1/4, which S^2 and D^2 equal

The projection P = Id - ad(F-) ad(F+) (graded ad: ad(a)b = [[a, b]])
maps onto the graded centraliser of the realisation.
"""

from __future__ import annotations

from .hc import HCAlgebra, HCElement


class OspRealisation:
    """All distinguished elements for a given HCAlgebra context, cached."""

    def __init__(self, alg: HCAlgebra):
        self.alg = alg
        F = alg.field
        d = alg.dim
        h = alg.h
        s_inv = h.s.inv()
        t_inv = h.t.inv()

        self.F_plus = alg.zero()
        self.F_minus = alg.zero()
        self.E_plus = alg.zero()
        self.E_minus = alg.zero()
        xy = alg.zero()
        for p in range(1, d + 1):
            xp, yp, ep = alg.x(p), alg.y(p), alg.e(p)
            self.F_plus = self.F_plus + (xp * ep)
            self.F_minus = self.F_minus + (yp * ep)
            self.E_plus = self.E_plus + (xp * xp)
            self.E_minus = self.E_minus - (yp * yp)
            xy = xy + (xp * yp)
        half_t_inv = t_inv * F.rational(1, 2)
        self.F_plus = self.F_plus.scale(s_inv)
        self.F_minus = self.F_minus.scale(s_inv)
        self.E_plus = self.E_plus.scale(half_t_inv)
        self.E_minus = self.E_minus.scale(half_t_inv)

        self.Omega_c = alg.zero()
        for r_idx in range(len(alg.rd.positive_roots)):
            g = alg.group(alg.rd.reflection_index(r_idx))
            self.Omega_c = self.Omega_c + g.scale(h.c_root[r_idx])

        self.H = (xy.scale(t_inv)
                  + alg.scalar(F.rational(d, 2))
                  - self.Omega_c.scale(t_inv))

        half = alg.scalar(F.rational(1, 2))
        self.scasimir = (self.F_minus * self.F_plus
                         - self.F_plus * self.F_minus) - half
        ffdiff = (self.F_plus * self.F_minus - self.F_minus * self.F_plus)
        self.Omega_sl2 = (self.H * self.H
                          + (self.E_plus * self.E_minus
                             + self.E_minus * self.E_plus).scale(2))
        self.Omega_osp = self.Omega_sl2 - ffdiff
        self.Omega_quarter = self.Omega_osp + alg.scalar(F.rational(1, 4))

    def bracket_table_check(self):
        """Verify the six defining relations; returns {name: bool}."""
        a = self.alg
        two = a.field.rational(2)
        Fp, Fm, Ep, Em, H = (self.F_plus, self.F_minus, self.E_plus,
                             self.E_minus, self.H)
        return {
            "[F+,F-] = H": Fp.gbracket(Fm) == H,
            "[H,F+] = F+": H.gbracket(Fp) == Fp,
            "[H,F-] = -F-": H.gbracket(Fm) == -Fm,
            "[F+,F+] = 2E+": Fp.gbracket(Fp) == Ep.scale(two),
            "[F-,F-] = -2E-": Fm.gbracket(Fm) == -(Em.scale(two)),
            "[E+,E-] = H": Ep.gbracket(Em) == H,
            "[H,E+] = 2E+": H.gbracket(Ep) == Ep.scale(two),
            "[H,E-] = -2E-": H.gbracket(Em) == -(Em.scale(two)),
            "[F+,E-] = F-": Fp.gbracket(Em) == Fm,
            "[F-,E+] = F+": Fm.gbracket(Ep) == Fp,
        }

    def project(self, elem: HCElement) -> HCElement:
        """P = Id - ad(F-) ad(F+) with graded adjoint actions."""
        return elem - self.F_minus.gbracket(self.F_plus.gbracket(elem))
