"""Golden digests of every experiment's rendered text.

perfbench pins one digest over the whole 30-experiment sweep at scale
0.06. This module pins each experiment on its own, at scale 0.02 for
seeds 3 and 11, so a rewrite of an analysis kernel or of the renderer
that moves a single character fails here and names the experiment that
moved. Every study is simulated serially and analyzed through one shared
:class:`~repro.AnalysisContext`, as ``repro analyze all`` does.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import EXPERIMENTS, AnalysisContext, run_experiment, run_study

SCALE = 0.02
SEEDS = (3, 11)

#: Experiment id -> sha256 of its rendered text at (seed 3, seed 11).
GOLDEN = {
    "table1": (
        "7358ced9e45cbce26db462ef97171c246bbea4ddac3ff4fe3a2b36789fa77bc6",
        "6e6d4dec2da2baa2b3ba2fba922c0697532dc1438f8656887b79ea9ad423577f",
    ),
    "table2": (
        "e8899dde1d85da45a3f15450c237799bbed482a9bb797e3267ae0cdcac627cdc",
        "1dc1bea2d379648d9ab12f3f476d3079cfd9ce5c4d9c63fd056f14cb8dc88e54",
    ),
    "table3": (
        "bc5d0c9010f1848a375c19fcc8730c1a1e20c4db6f2aeb005b85a05332796f58",
        "837e08acc9a4dfbe17e3a89a7a7a2d5f0808bdefba1b1979049f44e29167f648",
    ),
    "table4": (
        "a1ebd411dfcfac1e4e2ef46ad0f1afe64d1bee9c6b74131fa2149ded6ae947d3",
        "c25a59e0feea68e2310ef3a838e97f56aedc13597d5228fa71df49aa071d519b",
    ),
    "table5": (
        "7a418cf1eafced6c50820e71186303e0665e4fca5064f71a5fce642608749e4a",
        "5f647138cd443d36e879978f188f5c4777855865a76e27dfe6623486719a615d",
    ),
    "table6": (
        "6c3592a360385241b565ffd88d96fa031a8e43f638fd99d146d5d0ad505ca2bd",
        "90f66199bf7ce5889328e638a59af83ef69f8ee8f2b2e3a0150a5c9d00355c38",
    ),
    "table7": (
        "f5164e9c0c1cffd3deb3d4914d5d2f00113c69d0f2434a558ead25fac6aad766",
        "d9699be4db3327b8e7d4bb4dca92b631ed95a1202995433130c5a0d15a188306",
    ),
    "table8": (
        "35f9b3d5c8b79420374b41dc9b74fc0950ba5307096954170340189b312d22df",
        "eb6381d7a1ab6df11fa32abccff12e56ed0ea557f4c765d9c5b23679ea7fcbf1",
    ),
    "table9": (
        "4800548f80a399e3f4239004432b1cd04dee25af3754a90b75034dfca67af760",
        "6bbffc936d17e7d905d0f828e0637084b1504073b46e603616d8d7d72408b7bc",
    ),
    "fig01": (
        "efb063fb3733348a05811e29c8e62dd35fa5ca449df5ce0d26e6dde1c226b082",
        "efb063fb3733348a05811e29c8e62dd35fa5ca449df5ce0d26e6dde1c226b082",
    ),
    "fig02": (
        "d877fac4e19e4529ba437321f3b9fec7ec659c2e61053cf48472f25017630f85",
        "dddfb95beeec9cce9413f9e835d91798a14cbf987ce5ac4f3b59fa402f49498d",
    ),
    "fig03": (
        "43defe5a09e3c47c4b6bb2f11ca574cc93168cb1a2ae911d52770fe0835e0392",
        "43defe5a09e3c47c4b6bb2f11ca574cc93168cb1a2ae911d52770fe0835e0392",
    ),
    "fig04": (
        "fa22def9c17f9f97bc07bb63cb41abdafc6a8b7327dc971b651ee453fde36f6b",
        "fa22def9c17f9f97bc07bb63cb41abdafc6a8b7327dc971b651ee453fde36f6b",
    ),
    "fig05": (
        "cf1ee0e99c031792c8ba4533c2ff23dca10577a64b5d553c537cff0b9e304ad8",
        "0d121bdb8d968b54e757fab36e3bfde35d4731e51d36d733bf4274b94c0f1308",
    ),
    "fig06": (
        "847589fbc908b66643f3a805cd3a4fddb2102c410a343bb182c8288ffca98a91",
        "d878892f1f4fdb7db330af10c14a1735e24bc863c4ab516d38a825e1394d30e3",
    ),
    "fig07": (
        "8277c732845d2a2800ae619e0ab87482cee5914c77abdc62636cc426c61614e8",
        "9f5921191a2a6f061c86933b985176fcf124d9099dc3e2ca379f9efee4e02d31",
    ),
    "fig08": (
        "7a53f1253fde1180ad35951f6af6144200247c6688009a4b9c1bc894b70bfdbe",
        "d7f8e0687ed08457482530bb3948d0f856d3294f31ed1c05ed7c3981022ad998",
    ),
    "fig09": (
        "a25b063e2baee014e1ed3c10744b43fdbd09370be2f63e4e31e8157afdef9367",
        "1e37ee8e1da12d0a52499d67da4e34952db7de84caa23f0261ae87239a8bca71",
    ),
    "fig10": (
        "622e831e7a948ba4deaa657a2b25b666b6435635a3468a15eefe4de1e49e9d1d",
        "74236f3a1cbfe4cff666c829ecaa290340f6b60cb435617cf13a283010927956",
    ),
    "fig11": (
        "bd31ab1e9441770b6d0487ad6ea7d21554a04c64f0935ab76e9c9ef4b7aa24d2",
        "10bd10fd18d46b6572a2ea298a3920161db2af1628c5d074690966faaaecef9f",
    ),
    "fig12": (
        "03cfe086fbb7ff878547f8fa5c7994cab1d7c79e81cb0296b315385707788e9d",
        "b89a7ecbc6c4cfe2ed40a512da3c6841d60f3f09a6af04fa6b0177877be287f1",
    ),
    "fig13": (
        "5395d6225714d74aa539174ca9a2f2a8d5aaab0e424960e1f2e5f0899aec128d",
        "4b72fbf2c0c6164951629686cf98d3618edbb406bb604ad81e7bd73d05b32dc2",
    ),
    "fig14": (
        "050f6e255ab8e2cde8d3f28349074945f3396f7c54c59e776632f0ec7856656e",
        "6326a42d5ee6b0ad7f69bfa11c8838581615bf4abfb5c56d1e6efd4aaf112f08",
    ),
    "fig15": (
        "e76e3914495df05262b8b32e92bbee34d61120672ca53962477bdbee82b315f7",
        "37dd8ed8f75f04e5522ca9a0138d0694dade2818a99d59fd338da7336d8a4cfb",
    ),
    "fig16": (
        "4ab766ddfed68f7f22c5110c4ded7b32ac38607091f6696f5d4603aac4c402d0",
        "1231206e41a838cd1ee5a334028d7207aba0ea7a87c7dae50e1f56854a414a58",
    ),
    "fig17": (
        "546ee633ca30dd7ccba363cc15e6e37f4ed79328dbc538aca51e1a03e93585ab",
        "546ee633ca30dd7ccba363cc15e6e37f4ed79328dbc538aca51e1a03e93585ab",
    ),
    "fig18": (
        "ffd7abe17765abf54f664de983f30c4c6d44a6a2e1383e98af84aeb88ea75386",
        "3cf22c68680765758eacb5f3bfbea90b0d065e425d8d994833390f659fa7bb9f",
    ),
    "fig19": (
        "e5fcec4083c521357d617a44389dc20d5b5435db98b85bec24d219efcebb0347",
        "350bdc0bc76fe09b2acc27df79aaeb1f0c11db1d70279b908aa7c5369b4a763c",
    ),
    "sec35": (
        "bce2c0570bcbb22df592bd1b1f04a53252ee7856c6ed6b03d6c5be715fd61d9e",
        "3743c7f15b7cf2837d4d02afe9b7be340df4bd29677915116c292a0f35707f63",
    ),
    "sec41": (
        "dd32045f259d5632ae1dd99deb895eefce2478a112f68839e92638ec4d732051",
        "97ffef7f9a015360a16219da037ccedf09fc85dcaf5eb2eff335789a8f740dc9",
    ),
}


def _render_digests(seed: int) -> dict:
    context = AnalysisContext(run_study(scale=SCALE, seed=seed, n_jobs=1))
    out = {}
    for eid in EXPERIMENTS:
        result = run_experiment(eid, context)
        text = result.render() if hasattr(result, "render") else str(result)
        out[eid] = hashlib.sha256(text.encode()).hexdigest()
    return out


def test_golden_covers_every_experiment():
    assert list(GOLDEN) == list(EXPERIMENTS)


@pytest.mark.parametrize("seed", SEEDS)
def test_rendered_experiments_match_the_golden_record(seed):
    got = _render_digests(seed)
    column = SEEDS.index(seed)
    moved = [eid for eid in EXPERIMENTS if got[eid] != GOLDEN[eid][column]]
    assert not moved, f"rendered text moved at seed {seed}: {moved}"
