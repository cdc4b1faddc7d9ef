import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from trigdunkl import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    K,
    RatFunc,
    RootSystem,
    RootSystemSpec,
    build_root_system,
    reflect,
    root_system,
)
from trigdunkl.cli import main

ALL_SMALL = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("F", 4),
             ("G", 2), ("E", 6), ("E", 7), ("E", 8)]

POSITIVE_COUNTS = {("A", 2): 3, ("B", 2): 4, ("G", 2): 6, ("F", 4): 24,
                   ("D", 4): 12, ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
                   ("BC", 1): 2, ("BC", 2): 6}


def test_build_examples():
    a2 = root_system("A", 2)
    assert a2.cartan == ((2, -1), (-1, 2))
    assert a2.n_positive == 3
    e8 = root_system("E", 8)
    assert e8.n_positive == 120
    assert e8.coxeter_number == 30
    with pytest.raises(ValueError):
        RootSystemSpec("D", 3)
    with pytest.raises(ValueError):
        RootSystemSpec("E", 9)
    with pytest.raises(ValueError):
        RootSystemSpec("H", 3)


@pytest.mark.parametrize("fam,n", sorted(POSITIVE_COUNTS))
def test_positive_counts(fam, n):
    assert root_system(fam, n).n_positive == POSITIVE_COUNTS[(fam, n)]


@pytest.mark.parametrize("fam,n", ALL_SMALL)
def test_cartan_and_weights(fam, n):
    rs = root_system(fam, n)
    for i in range(n):
        assert rs.cartan[i][i] == 2
        for j in range(n):
            assert rs.cartan[i][j] in (2, 0, -1, -2, -3)
            # <w_i, a_j^vee> = delta_ij for the reduced types
            assert rs.wt_pair[j][i] == int(i == j)
    for acoords in rs.pos_acoords:
        assert all(c >= 0 for c in acoords)


@pytest.mark.parametrize("fam,n", ALL_SMALL)
def test_sum_of_positive_roots_is_two_rho(fam, n):
    rs = root_system(fam, n)
    total = [0] * n
    for w in rs.pos_wcoords:
        total = [a + b for a, b in zip(total, w)]
    assert tuple(total) == (2,) * n  # 2 rho = 2 sum of fundamental weights


@pytest.mark.parametrize("fam,n", [(f, n) for f, n in ALL_SMALL
                                   if root_system(f, n).weyl_order <= 2000])
def test_orbit_sizes_divide_weyl_order(fam, n):
    rs = root_system(fam, n)
    rng = random.Random(7)
    for _ in range(3):
        mu = tuple(rng.randint(-2, 2) for _ in range(n))
        assert rs.weyl_order % len(rs.orbit(mu)) == 0


# degrees, |W| and Coxeter number of every type (Humphreys, Reflection Groups
# and Coxeter Groups, §3.7); BC_n has the Weyl group of B_n
WEYL_DATA = {
    "A1": ((2,), 2, 2), "A2": ((2, 3), 6, 3), "A3": ((2, 3, 4), 24, 4),
    "A4": ((2, 3, 4, 5), 120, 5), "A5": ((2, 3, 4, 5, 6), 720, 6),
    "A6": ((2, 3, 4, 5, 6, 7), 5040, 7), "A7": ((2, 3, 4, 5, 6, 7, 8), 40320, 8),
    "A8": ((2, 3, 4, 5, 6, 7, 8, 9), 362880, 9),
    "B2": ((2, 4), 8, 4), "B3": ((2, 4, 6), 48, 6), "B4": ((2, 4, 6, 8), 384, 8),
    "B5": ((2, 4, 6, 8, 10), 3840, 10), "B6": ((2, 4, 6, 8, 10, 12), 46080, 12),
    "B7": ((2, 4, 6, 8, 10, 12, 14), 645120, 14),
    "B8": ((2, 4, 6, 8, 10, 12, 14, 16), 10321920, 16),
    "C2": ((2, 4), 8, 4), "C3": ((2, 4, 6), 48, 6), "C4": ((2, 4, 6, 8), 384, 8),
    "C5": ((2, 4, 6, 8, 10), 3840, 10), "C6": ((2, 4, 6, 8, 10, 12), 46080, 12),
    "C7": ((2, 4, 6, 8, 10, 12, 14), 645120, 14),
    "C8": ((2, 4, 6, 8, 10, 12, 14, 16), 10321920, 16),
    "D4": ((2, 4, 4, 6), 192, 6), "D5": ((2, 4, 5, 6, 8), 1920, 8),
    "D6": ((2, 4, 6, 6, 8, 10), 23040, 10),
    "D7": ((2, 4, 6, 7, 8, 10, 12), 322560, 12),
    "D8": ((2, 4, 6, 8, 8, 10, 12, 14), 5160960, 14),
    "E6": ((2, 5, 6, 8, 9, 12), 51840, 12),
    "E7": ((2, 6, 8, 10, 12, 14, 18), 2903040, 18),
    "E8": ((2, 8, 12, 14, 18, 20, 24, 30), 696729600, 30),
    "F4": ((2, 6, 8, 12), 1152, 12), "G2": ((2, 6), 12, 6),
    "BC1": ((2,), 2, 2), "BC2": ((2, 4), 8, 4), "BC3": ((2, 4, 6), 48, 6),
    "BC4": ((2, 4, 6, 8), 384, 8), "BC5": ((2, 4, 6, 8, 10), 3840, 10),
}


@pytest.mark.parametrize("name", WEYL_DATA)
def test_weyl_data_from_root_heights(name):
    fam, n = name.rstrip("0123456789"), int(name.lstrip("ABCDEFG"))
    rs = root_system(fam, n)
    assert (rs.degrees, rs.weyl_order, rs.coxeter_number) == WEYL_DATA[name]


@pytest.mark.parametrize("fam,n", [("A", 1), ("A", 3), ("B", 3), ("C", 3),
                                   ("D", 4), ("G", 2), ("F", 4), ("BC", 1),
                                   ("BC", 3), ("E", 6)])
def test_orbit_size_matches_the_orbit(fam, n):
    rs = root_system(fam, n)
    rng = random.Random(11)
    weights = [(0,) * n, (1,) * n] + [tuple(rng.choice((0, 0, 1, -1, 2))
                                            for _ in range(n)) for _ in range(8)]
    for mu in weights[:4] if fam == "E" else weights:
        assert rs.orbit_size(mu) == len(rs.orbit(mu)), mu


def test_orbit_size_without_listing_the_orbit():
    e8 = root_system("E", 8)
    assert e8.orbit_size((1,) * 8) == 696729600
    assert e8.orbit_size((0,) * 7 + (1,)) == 240  # the roots (omega_8 highest)
    assert e8.orbit_size((0,) * 8) == 1


def test_reflect_examples():
    a1 = root_system("A", 1)
    assert reflect(a1, 0, (1,)) == (-1,)
    a2 = root_system("A", 2)
    assert reflect(a2, 0, (1, 0)) == (-1, 1)  # s1(w1) = w2 - w1
    for fam, n in [("A", 3), ("B", 3), ("G", 2)]:
        rs = root_system(fam, n)
        rho_w = (1,) * n
        for i in range(n):
            expected = tuple(r - a for r, a in zip(rho_w, rs.alpha_w[i]))
            assert reflect(rs, i, rho_w) == expected
    with pytest.raises(IndexError):
        reflect(a2, 5, (1, 0))


def test_reflect_is_involutive_and_isometric():
    rng = random.Random(3)
    for fam, n in [("A", 2), ("B", 2), ("D", 4), ("G", 2)]:
        rs = root_system(fam, n)
        for _ in range(5):
            u = tuple(rng.randint(-3, 3) for _ in range(n))
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            for i in range(n):
                su, sv = reflect(rs, i, u), reflect(rs, i, v)
                assert reflect(rs, i, su) == u

                def ip(x, y):
                    return sum(x[a] * y[b] * rs.gram_fw[a][b]
                               for a in range(n) for b in range(n))

                assert ip(su, sv) == ip(u, v)


def test_reflect_with_symbolic_coords():
    a1 = root_system("A", 1)
    assert reflect(a1, 0, (K,)) == (-K,)


def test_weyl_orbit_examples():
    a2 = root_system("A", 2)
    assert a2.orbit((1, 0)) == {(1, 0), (-1, 1), (0, -1)}
    assert a2.orbit((0, 0)) == {(0, 0)}
    a1 = root_system("A", 1)
    assert a1.orbit((1,)) == {(1,), (-1,)}


def test_le_plus_examples():
    a1 = root_system("A", 1)
    assert a1.le_plus((1,), (-1,)) == LESS
    assert a1.le_plus((-1,), (1,)) == GREATER
    a2 = root_system("A", 2)
    assert a2.le_plus((1, 0), (0, 1)) == INCOMPARABLE
    assert a2.le_plus((1, 1), (1, 1)) == EQUAL
    # orbits are comparable when dominants are
    assert a2.le_plus((0, 0), (1, 1)) == LESS


@pytest.mark.parametrize("fam,n", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_le_plus_orbit_extremes(fam, n):
    rs = root_system(fam, n)
    mu = (1,) * n
    orb = sorted(rs.orbit(mu))
    top = rs.w0_act(rs.dominant(mu))
    for nu in orb:
        if nu != mu:
            assert rs.le_plus(mu, nu) in (LESS, GREATER)  # total inside orbit
        assert rs.le_plus(rs.dominant(mu), nu) in (LESS, EQUAL)
        assert rs.le_plus(nu, top) in (LESS, EQUAL)


def test_alpha_prime_examples():
    a2 = root_system("A", 2)
    r = a2.pos_wcoords.index((2, -1))  # alpha_1 = e1 - e2
    ap = a2.alpha_prime(r)
    assert ap == (Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3))
    # beta(alpha') > 0 for beta = e2 - e3
    beta = a2.positive_roots[a2.pos_wcoords.index((-1, 2))]
    assert sum(b * x for b, x in zip(beta, ap)) > 0
    # highest root of A3 pairs to zero with its own alpha'
    a3 = root_system("A", 3)
    hr = a3.pos_wcoords.index((1, 0, 1))
    ap3 = a3.alpha_prime(hr)
    theta = a3.positive_roots[hr]
    assert sum(b * x for b, x in zip(theta, ap3)) == 0
    with pytest.raises(ValueError):
        root_system("B", 2).alpha_prime(0)
    with pytest.raises(ValueError):
        root_system("A", 1).alpha_prime(0)


@pytest.mark.parametrize("n", range(2, 7))
def test_alpha_prime_norm_identity(n):
    rs = root_system("A", n)
    for r in range(rs.n_positive):
        ap = rs.alpha_prime(r)
        alpha = rs.positive_roots[r]
        norm_ap = sum(x * x for x in ap)
        norm_a = sum(x * x for x in alpha)
        assert norm_ap * norm_a == Fraction(4 * (n - 1), n + 1)
        # orthogonal roots pair to zero
        for s in range(rs.n_positive):
            beta = rs.positive_roots[s]
            if sum(a * b for a, b in zip(alpha, beta)) == 0:
                assert sum(b * x for b, x in zip(beta, ap)) == 0


@pytest.mark.parametrize("n", range(2, 7))
def test_alpha_prime_pairing_is_the_ambient_dot(n):
    rs = root_system("A", n)
    for r in range(rs.n_positive):
        ap = rs.alpha_prime(r)
        assert rs.alpha_prime_pairing(r) == tuple(
            sum(a * b for a, b in zip(fw, ap)) for fw in rs.fundamental_weights)
    with pytest.raises(ValueError):
        root_system("A", 1).alpha_prime_pairing(0)
    with pytest.raises(ValueError):
        root_system("E", 8).alpha_prime_pairing(0)


@pytest.mark.parametrize("fam,n", ALL_SMALL + [("BC", 1), ("BC", 3)])
def test_det_acoords_recovers_root_coordinates(fam, n):
    rs = root_system(fam, n)
    d = rs._det_cartan
    for w, a in zip(rs.pos_wcoords, rs.pos_acoords):
        assert rs.det_acoords(w) == [d * c for c in a]
    for j in range(n):  # FW_j in simple-root coordinates, from the ambient
        fw = [Fraction(t, d)
              for t in rs.det_acoords(tuple(int(i == j) for i in range(n)))]
        assert tuple(sum(c * x for c, x in zip(fw, col))
                     for col in zip(*rs.simple_roots)) \
            == rs.fundamental_weights[j]


def test_w0_action():
    a3 = root_system("A", 3)
    assert a3.w0_sigma == (2, 1, 0)
    e6 = root_system("E", 6)
    assert e6.w0_sigma == (5, 1, 4, 3, 2, 0)
    b2 = root_system("B", 2)
    assert b2.w0_sigma == (0, 1)
    assert b2.w0_act((1, 2)) == (-1, -2)


def test_saturated_set():
    a2 = root_system("A", 2)
    sat = a2.saturated_set((1, 1))
    assert sat == a2.orbit((1, 1)) | {(0, 0)}
    a1 = root_system("A", 1)
    assert a1.saturated_set((2,)) == {(2,), (0,), (-2,)}


def test_bc_systems():
    bc1 = root_system("BC", 1)
    assert bc1.pos_wcoords == ((1,), (2,))
    assert bc1.double_root[0] == 1 and bc1.double_root[1] is None
    bc2 = root_system("BC", 2)
    assert bc2.n_positive == 6
    assert bc2.n_classes == 3
    # weight basis pairs integrally with every coroot
    for r in range(bc2.n_positive):
        assert all(isinstance(p, int) for p in bc2.pos_pair[r])


def test_serialization():
    a2 = root_system("A", 2)
    doc = a2.to_json()
    assert doc["family"] == "A" and doc["rank"] == 2
    assert doc["cartan"] == [[2, -1], [-1, 2]]
    assert sorted(doc["positive_roots"]) == [[0, 1], [1, 0], [1, 1]]


def test_build_root_system_deterministic():
    s1 = build_root_system(RootSystemSpec("F", 4))
    s2 = build_root_system(RootSystemSpec("F", 4))
    assert s1 is s2  # cached, hence trivially identical output
    assert s1.positive_roots == s2.positive_roots


def test_positive_roots_are_built_on_first_use():
    rs = RootSystem(RootSystemSpec("E", 8))
    assert "positive_roots" not in vars(rs)
    roots = rs.positive_roots
    assert vars(rs)["positive_roots"] is roots and len(roots) == rs.n_positive


# sha256 of `trigdunkl roots --type T` and of the per-root tables below, as
# computed by the ambient reflection-closure build these tables replaced.
GOLDEN_TABLES = ("pos_wcoords", "pos_pair", "pos_norms", "pos_coroot_scoords",
                 "pos_simple_pair", "gram_fw", "gram_coroot", "double_root",
                 "class_norms", "pos_class", "w0_sigma", "positive_roots")

GOLDEN = {
    "A1": ("716224b37b9b9140b0e6aba93a83f94bb2f14b040194949699282bd92bdf1fce",
           "28756276ba11918ea7450b8b34182783825f91092fe1447cdde7c1be6e09d1c1"),
    "A2": ("2367ab91310c85c784139d1195293afbee770f472ad5435da3c0bc056064070c",
           "ac78a08cfb41f51951892366295b2caa118f65aef6dda55bb1b0a83a098367fd"),
    "A3": ("bdfa76d0a0ea14cc4fc11d99f0a92bc904c7f81cde02d65dffa46c8dda835984",
           "1aebdfb5f7e3e6da73e1366ee0cfdbe62e65717a0f7ff1c615abbf08d58d5cff"),
    "A4": ("40841404bf49b9f88202c595e718bf23931ee78e5f24627fa5bcb0039b0b6dfd",
           "00d738667de856c6720520c111880e7b108c25852b014b193fccfeac87438e14"),
    "A5": ("932cc7fa294dcd6163a80894aea19d030e2609e95efe12309c2fec45bf3245e1",
           "5bcae302f850d1648165c2025c5d30c5e63cf3496542ab98e3511cb3d2f93ef3"),
    "A6": ("27e16c7a54276f89c996096669f2b2ab87221c3b6aa7d50a996570080f6a51c8",
           "78ae8e0b2af93c7c9d72fcd95f0e5f94a1e6930e855949b196dc70ce9b66211f"),
    "A7": ("26878c1e4ca4a47e81936d63a1b2e85408ef907f66b9f558a3d935b62bb419ee",
           "d2bca531e1c402c6ed2aeacafb1d095dc9e78c0516842d68831dadb67a0df960"),
    "A8": ("880aacd94460541fc7da14415fa3d2f8c6c817cb6d80e40fa93f25ccc04b07af",
           "eb8451160738e125f3b995058854b1ee42cf45c5a4cbe80d61d7e942ee588816"),
    "B2": ("d228983bb5575ee7d2f1ac4445fe914246c7cac9a4d4a0d7fba613c2b204d59f",
           "230cf3e1ae7705b1a58bcfccaa4b41970633fe28090bdd1ce1f0dbf766d83bf8"),
    "B3": ("03255d85b415c8d6d7eb35134da0b73d327e4354e33c75d0e288915daf0d30bd",
           "ad1cb8ed03f348f7f14b7341b657b27f1202d4d0ebb363f2a5ef8a2913881102"),
    "B4": ("8ab705f1a8f4e35b08528a1f5afd4f4c5572903a49eb69a235df0d5b6846ed44",
           "aa6149160c4ce930ed68f6b207bce9b314a95e96282756fae758efb61862510b"),
    "B5": ("7a69c97317e6eaae76c7438b12b94601bfaf4c94f071fbabe9cd084ca1f101a0",
           "1ec52f5f57137828d3a6f0376148cc390712865122d0121f2410bed6f1fbc4b4"),
    "B6": ("4b71c999284881003608e0632a500273f05bacb374982c29c7a159ca4c58b56e",
           "2a5a79f1be4c21a5bb0d4b3fc2b17b7db83d80eee86989cfdb9066f5801031f4"),
    "B7": ("dc2af7a40dcda8ecddf8019c7caccb8b2dd50cd892fc4b6a80ff76988abff0da",
           "2db5b6f1a0a332899e8235d96cae5e896da44528d592f7dea1b266ba0db11c81"),
    "B8": ("52455d1315ae4aa5d530d3abadcb919bd7e177380c5f19eea178f19f7ed3704a",
           "d505b1804a11807d7fa5868385144e4f5eb5517ed672c5179902352289ff0333"),
    "C2": ("ff04b73b2c222448fc6c92af35c3fbcde914db67b022eaae36396d045c5ba81f",
           "1ebcb7c34df76eb0174918243b8489e13e66fe66466cb4f11b7dee4e5948ab24"),
    "C3": ("4d0a0131af95fd17ff2f87b7d805257754f8e5c0d089565aa587c43b62f54f38",
           "b8e135dd581e6db93b6907121c30a8f265bc34f38f9d05dead477ccd7123d3e9"),
    "C4": ("e07c8dc111a4610a759e4fbee6225002327d33dc575b07e204d49c84f0143f01",
           "1932259c7033229ea1b910d0febda561625ca74f2b7125399f52e0861de2c877"),
    "C5": ("f39745b19e6ab1ddfb1983623f6e506f97be06d110a56f8ebd99c5bf9914b34d",
           "32117fbad3ad0a473f3f1a24cd85cf5d47e63cdec2585e9be6a376620aca88c4"),
    "C6": ("6c75bbdac5659149e3ecabf863245dbb1901e7129a69eaf95e98ff42a9820f47",
           "6024999958eed4f3351dfff844c314acc38e9b4a665c7cf62adb2f152e2fd476"),
    "C7": ("dc64cddbb1b1c79f04e5913a7f8308124daad5092c4ceec749c6245c02e81475",
           "5cfe9cc49d39adae69366ffba7358890db5360753531cf482de241fa091b1857"),
    "C8": ("875de67c867670998a9b28f5ff9b975a51c17a339d28cf1b49679f8aca3af127",
           "99889949d69c2cec9c5d61f5c83e5463c1017af44ba9910c98efa24f84b52d02"),
    "D4": ("3c4d09201cf2959613403d9a0f0b08fbb6aab9107963a3092370964a4b74cacf",
           "80ee54e1e849b11e760bc8023575b0f7bcdf3929f7a0c86a1bb6381ce4816cdc"),
    "D5": ("3e0cfc2fba18e18f71d5f8bf380dde37e044431cc391e4efffdbcfd2a43e5311",
           "eeace6487ebeb7f167b8be56889e26fe62a4f1b5947d84200c84df3cb1e3947e"),
    "D6": ("29a06026f198ac933288d8e646cc2060db4dcd38396e4626b13eab76fbb2e8f8",
           "3978f48e8ea78f59a7b4662580813ed4898731845f0bf71609933f655a88a30f"),
    "D7": ("adac01e3b3d22137ddc1b856033cf62b529e16e53bb21eb1652199649cc25d91",
           "b05364d5a7df62474ef6ea419b802589a3891fb6ed634c4f9c700431cf89151b"),
    "D8": ("6e385b44bbe65f3ab98fe91d82847b87b3a1545696f1a79c9e708aee4a39d29b",
           "eb74700f89ecfc510fd4ad72b02c07beb2791de22848d81914e1978d1505aa3a"),
    "E6": ("f199ab24d710e0f01470c9c068590810b4eb0172e5e86259ceadd5b2cb592a3d",
           "ffeaf15121378adcf4c7de9dd08a9b5fce9a527a09197393e2653798b28290b1"),
    "E7": ("c12d899fa4ad86464b42bf0d368c0cf34e21f57f484e2667a620cde5bdd43a94",
           "06e75e260e7188cdec35f506f87771468b94b28d0004e8978002468ea01cabc4"),
    "E8": ("91835dbfbfcf3144d22af030e3e63b9029123cc941995255274362821a4efee8",
           "5e249133b52f3df227ec27e554f8b49eae047eae36a61f3e04076e0ab8878ce6"),
    "F4": ("a46a8f61a68cc54aab05f6ba88467982a3d12402bb6f6c7ec43623398dc2636f",
           "bc7656e285210e58e74745edbbfe2d28557fd503b3a8ec6bc71f056bab4bd8b2"),
    "G2": ("03d042747811cdfffd36252d4b888006310d82c281292cb8363cc1d174b1d982",
           "1deeaf762581419d73e98a4589e16bc4f6fee95695547f593c275ea565e6ee51"),
    "BC1": ("fdc8e7ddb3193168d3d9b68143c13ccea12bb54a328df7aa2046c94b62127087",
            "3a5a4aefc9bce8bc5d7c4f9d75ed2d70b5a34c93066ad036dbe18266515321ad"),
    "BC2": ("f4acab590f07862a597b603dcfa2cd745150eb16155065fc9a670737d49f2f52",
            "6439a403712d0a8b44264b529578ce204b25b6b9c089574c9264bf455dcbabf6"),
    "BC3": ("f78b56c868d3aaf63cc6b136ebfe02808557ce7bf3de343e6c6cab35f0c5c829",
            "568d42d367bf48a36ab44d55a527c4c74145676e65eb434de2432fed1d800b0e"),
    "BC4": ("0ff4fa517c89d9adfef2452b0673be50d8320699104c76fa343f53a9f5b07b9b",
            "0d6522046e00d06458c1d31a6bc32cc6df27c8eb27b7e92eeda4bdea6e693da5"),
}


def _exact(x):
    """Every entry as str(Fraction(x)), so that int and Fraction agree."""
    if isinstance(x, tuple):
        return [_exact(y) for y in x]
    return None if x is None else str(Fraction(x))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_root_data_golden(name):
    roots_sha, tables_sha = GOLDEN[name]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["roots", "--type", name]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == roots_sha
    rs = root_system(name.rstrip("0123456789"), int(name.lstrip("ABCDEFG")))
    doc = json.dumps({t: _exact(getattr(rs, t)) for t in GOLDEN_TABLES},
                     sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == tables_sha
