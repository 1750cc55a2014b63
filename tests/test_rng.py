"""Pinned xoshiro256** streams: block draws, split draws, families, sub-seeds.

The digests and states below were recorded from the scalar generator (one
``next_u64`` per draw), before ``randoms`` gained its jump-ahead block path.
They pin every bit of the stream on both sides of the block crossover.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from hypentropy import (
    ComponentFunction,
    HyperbolicInterval,
    concavity_probe,
    embed_real,
)
from hypentropy.distributions import perturbation_family
from hypentropy.rng import Xoshiro256StarStar, derive_seed
from hypentropy.verify import _READ_BLOCK, _BlockReader, _rand_hyps, \
    _rand_probs

MAX_SEED = 2**64 - 1

# (seed, n) -> (SHA-256 of randoms(n).tobytes(), state after the draw,
#               the next three next_u64 values)
STREAMS = {
    (0, 1): ("59946f2b897e093062f4f637e8ffcf95d68fcc2c62a36f3bc7e153c03372929a", [8418229340007311799, 9987976044988984596, 15578433054471653600, 13583721647463488126], [13793997310169335082, 1900383378846508768, 7684712102626143532]),
    (0, 1023): ("742c10f433d59cb5b9ad9048b6edce704c55df9157f56867647dba9d7849c808", [13308181735983659295, 18216362695237421666, 17782441250633056458, 9343812506536381823], [1168833307619205432, 6828102865960802222, 13726126685921374217]),
    (0, 1024): ("1407bc8267fcb7aa0d4fb9feaef400d76cb89f4f856271777b5eeb02d0559f1a", [14255667862916857346, 12878678129036817335, 4954379908363925973, 4099313242542991831], [6828102865960802222, 13726126685921374217, 1005860164807965331]),
    (0, 1025): ("afe91cb5c087303d8c1d496fcab1f69db73c0e6b762365fc5c69e5b8e05efb5b", [5732977110756942946, 3723757420197295200, 151806869486127063, 1390505399807205280], [13726126685921374217, 1005860164807965331, 12159745497120149582]),
    (0, 37000): ("9245bc82d3bbcf66026daf1d864ca2e37ab499964600f3d1faea8b7008bf4326", [754356265420135200, 4692851901238219447, 10955401729971338256, 10933367513555234649], [6346883147650897586, 11820964427576139280, 426288077430629937]),
    (0, 100000): ("f183e0b70df11fa76aee41a697aae5924fb8fd1aa31fae9c0253181567aad84c", [5123067995060711554, 17717544130915142191, 7519135827614781816, 5366248480851685341], [5665978309979481366, 2378474033730173362, 1952816194597805019]),
    (1, 1): ("c58d1dfd6287dc5548c6d7622e9c5d10696ce0c1cbe4ff6c3b29501b85e33f91", [6782463769496680877, 15524473765000832504, 8276283643026868639, 9560466793901207929], [9600361134598540522, 10590380919521690900, 7218738570589545383]),
    (1, 1023): ("662c608c4070a4a8d6751267bf3ce3baaccc45f9c31a63decf2f3a727b6ea73d", [6400885142250303612, 5896541459779872197, 11941814435520628123, 16858850169329441303], [3622968632779330348, 6228612727802887847, 4903546753033857832]),
    (1, 1024): ("bf959d3606be746980beed205532857e02c8a8b312275505067a7f2345296a63", [16210303066397151150, 12446228486660263970, 10305231002204337639, 1727789082856909628], [6228612727802887847, 4903546753033857832, 3162311916703373678]),
    (1, 1025): ("b2d739560933da6c1879d47986648a604810259e82069c3b08ff24d1b553bded", [6608228817956205744, 14072898785873750635, 12271782631392705097, 1108966776931826648], [4903546753033857832, 3162311916703373678, 1883669473596712098]),
    (1, 37000): ("c68d638fd23fa4072e7b01c5f11eb95453676b10954a5caeb6b8eefec4721edf", [13193130550408741808, 11456410033917656418, 10923546360881845506, 3432772728730896499], [4918243706634837365, 422973077991312188, 17072221651961685773]),
    (1, 100000): ("2010ff1ca884f7cb0dc1f062e3cd40b7a6f0a28053b2c02c34aa0a12e1e983aa", [3420878975636494599, 6119238385895368503, 13277305201306212249, 4820534710428409590], [13531921972078991476, 15976355524906671665, 7897586097936576272]),
    (MAX_SEED, 1): ("16909bb57c9811bb0ae899164f33387306c2825b59056e3d3c018c4d421b5411", [6943207554960469051, 3848731998443089664, 3186647303079701961, 16141869254434710027], [14156678507024973869, 9357971779955476126, 13791585006304312367]),
    (MAX_SEED, 1023): ("8bfffc7740573c32030a32591249d24b79c86650699783b7959140df493a575f", [13031582345346712964, 10741839749181440255, 8453508062562686633, 15245739887213810541], [2617332063259749780, 11806797428969830379, 15498069579011423037]),
    (MAX_SEED, 1024): ("f58ec6f0f054569fa0625b9e0c5565d0956b84bf82864a4174b46035c7dde2bc", [17462825106050323990, 6096520966961501138, 11323236459506930477, 8246733926433687528], [11806797428969830379, 15498069579011423037, 11748416405011485935]),
    (MAX_SEED, 1025): ("d1c4e1ad9d1790e82cb07a5eb381483fb6db96e329a043968745c653d9dfbcd5", [15326052712067301932, 4316538600150308585, 897851936633161019, 182190026701577577], [15498069579011423037, 11748416405011485935, 12923655636473844191]),
    (MAX_SEED, 37000): ("bc381fd37b11534bddfa42d50531d872ddb48018e9757c8d684979fdf79bbf23", [303350057229954662, 10786035215219961600, 1476816993733817154, 6878909400975367604], [17375543486918525990, 11081534705100139710, 4972435982397601141]),
    (MAX_SEED, 100000): ("3dd0ddda9b93d01af552ccd5691efca7a24d4b1650fad99e863caa26a25de10f", [5506425174534663312, 6728043406868293398, 1759169390556528374, 7230253052990169289], [15367468771311579825, 13825909707186002127, 9594190495384720666]),
}

# SHA-256 of base.p.tobytes() + perturbed.p.tobytes() for
# perturbation_family("RandomSmooth", 100_000, 0.01, seed=s).
RANDOM_SMOOTH = {
    0: "96b5925b17de08fb25b722963473a21e7dbc98408cfea9feda1c6ed62a641126",
    7: "5f262390ce43fe1c6f59115a8950f896f0fceeb0a7348fa2bd9bb42e0144e996",
}

DERIVED = [
    ((0,), 0),
    ((1, "RandomSmooth", 100, 0.01), 17222985607378406656),
    ((MAX_SEED, "ring-laws"), 9668440393258946256),
    ((12345, "CertaintySpread", 100000, 0.001), 17229770316347886778),
]

# SHA-256 of repr(concavity_probe(...)): verdicts and witnesses as Python
# floats.  "mixed" stops early once both witness lists are full.
LOG = ComponentFunction.symmetric(math.log)
PROBES = {
    "log": (LOG, (0.1, 1.0), 2000, 0,
            "e59d2f4c02c0385df6b6b0317a53b32b0d1f84eefa5b16aa9af2084f7fad3312"),
    "mixed": (ComponentFunction(lambda x: x * x, lambda x: x ** 0.5),
              (0.1, 1.0), 2000, 3,
              "064564db886ca644adf55c0819a07ba9e88ed20232199c804c1c63e68ed6701a"),
    "affine": (ComponentFunction.symmetric(lambda x: 3.0 * x + 1.0),
               (0.0, 1.0), 500, 5,
               "65bbadf4f7393424cf285bf3cd483dc79878ab2ec147e42e4712d75f2bfb2d26"),
    "log_wide": (LOG, (0.1, 2.0), 10_000, 11,
                 "c83d58ea4994d5cb302e904c0740175660d080b0af6bbfd3a95e8858f4bf08b2"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed,n", sorted(STREAMS))
def test_randoms_stream_is_pinned(seed, n):
    digest, state, following = STREAMS[(seed, n)]
    rng = Xoshiro256StarStar(seed)
    draws = rng.randoms(n)
    assert draws.dtype == np.float64 and draws.shape == (n,)
    assert _sha(draws.tobytes()) == digest
    assert rng._s == state
    assert [rng.next_u64() for _ in range(3)] == following


def test_numpy_integer_count():
    rng = Xoshiro256StarStar(0)
    assert _sha(rng.randoms(np.int64(1024)).tobytes()) == STREAMS[(0, 1024)][0]


@pytest.mark.parametrize("a,b", [(1, 1023), (1023, 1), (1023, 2), (512, 513),
                                 (1024, 35976), (36999, 1), (50_000, 50_000),
                                 (255, 768), (256, 767), (257, 768),
                                 (768, 255), (767, 257), (256, 36744)])
def test_split_draws_continue_the_stream(a, b):
    for seed in (0, 1, MAX_SEED):
        rng = Xoshiro256StarStar(seed)
        joined = np.concatenate([rng.randoms(a), rng.randoms(b)])
        digest, state, _ = STREAMS[(seed, a + b)]
        assert _sha(joined.tobytes()) == digest
        assert rng._s == state


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 1024, 4097, 70_001])
def test_randoms_match_scalar_oracle(n):
    block = Xoshiro256StarStar(20_251_018)
    scalar = Xoshiro256StarStar(20_251_018)
    assert block.randoms(n).tolist() == [scalar.random() for _ in range(n)]
    assert block._s == scalar._s
    assert block.random() == scalar.random()


@pytest.mark.parametrize("n", [1, 255, 256, 257, 4096, 200_000])
def test_words_match_scalar_oracle(n):
    block = Xoshiro256StarStar(20_251_018)
    scalar = Xoshiro256StarStar(20_251_018)
    words = block.words(n)
    assert all(type(w) is int for w in words)
    assert words == [scalar.next_u64() for _ in range(n)]
    assert block._s == scalar._s


# verify's fixture reads, as (method, args): 1,021 words per round, and
# 4,096 = 4 * 1,021 + 12, so the n-th refill comes at word 12 * n of a round:
# in randint(2, 200), in randoms(13) and in randoms(300).
READS = [("randint", (1, 30)), ("uniform", (-100.0, 100.0)), ("random", ()),
         ("randoms", (7,)), ("next_u64", ()), ("uniform", (0.1, 50.0)),
         ("randint", (2, 200)), ("randoms", (1,)), ("randoms", (13,)),
         ("random", ()), ("randoms", (300,)), ("randoms", (693,))]


def test_block_reader_is_the_generator_draw_for_draw():
    seed = derive_seed(11, "ring-laws")
    reader, plain = _BlockReader(seed), Xoshiro256StarStar(seed)
    used = 0
    refilled_in = []
    while used <= 3 * _READ_BLOCK:
        for method, args in READS:
            got = getattr(reader, method)(*args)
            want = getattr(plain, method)(*args)
            if method == "randoms":
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()
            else:
                assert type(got) is type(want) and got == want
            k = args[0] if method == "randoms" else 1
            # The read refilled when it needed a word past the last block.
            block_of_last_word = (used + k - 1) // _READ_BLOCK
            if used and block_of_last_word > (used - 1) // _READ_BLOCK:
                refilled_in.append(method)
            used += k
    assert refilled_in == ["randint", "randoms", "randoms"]
    assert reader.next_u64() == plain.next_u64()


@pytest.mark.parametrize("source", [Xoshiro256StarStar, _BlockReader])
def test_fixture_sets_are_the_scalar_draws(source):
    # One randoms call per fixture set gives the floats of the scalar
    # uniform draws and of one randoms(n) per probability vector, through
    # the block path (400 words), the scalar path (12 words) and a reader.
    seed = derive_seed(5, "fixture-sets")
    got, want = source(seed), Xoshiro256StarStar(seed)
    ranges = [(-100.0, 100.0), (0.1, 50.0), (-3.0, 3.0), (0.11, 1.99)]
    for k in (100, 3):
        groups = _rand_hyps(got, k, *ranges)
        assert len(groups) == k
        for group in groups:
            assert len(group) == 2
            for h, (lo1, hi1), (lo2, hi2) in zip(group, ranges[0::2],
                                                 ranges[1::2]):
                assert type(h.x1) is float and type(h.x2) is float
                assert (h.x1, h.x2) == (want.uniform(lo1, hi1),
                                        want.uniform(lo2, hi2))
    for n, k in [(1, 1), (2, 2), (7, 6), (9, 1), (300, 2)]:
        rows = _rand_probs(got, n, k)
        assert rows.shape == (k, n)
        for row in rows:
            g = -np.log(1.0 - want.randoms(n))
            assert row.tobytes() == (g / g.sum()).tobytes()
    assert got.next_u64() == want.next_u64()


@pytest.mark.parametrize("seed", sorted(RANDOM_SMOOTH))
def test_random_smooth_family_is_pinned(seed):
    pair = perturbation_family("RandomSmooth", 100_000, 0.01, seed=seed)
    assert _sha(pair.base.p.tobytes() + pair.perturbed.p.tobytes()) \
        == RANDOM_SMOOTH[seed]


@pytest.mark.parametrize("args,expected", DERIVED)
def test_derive_seed_is_pinned(args, expected):
    assert derive_seed(*args) == expected


@pytest.mark.parametrize("name", sorted(PROBES))
def test_concavity_probe_is_pinned(name):
    F, (lo, hi), samples, seed, digest = PROBES[name]
    box = HyperbolicInterval(embed_real(lo), embed_real(hi))
    result = concavity_probe(F, samples=samples, seed=seed, domain=box)
    assert _sha(repr(result).encode()) == digest
