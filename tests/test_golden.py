"""Behaviour pin: seeded episodes must replay bit for bit.

For every policy at N in {20, 200}, T=300 and one fixed seed, the SHA-256
digests of the offer sequence, of the ``repr`` of the per-period regrets and
of the realized rewards are stored below. A refactor must leave them
unchanged; a change that alters behaviour on purpose re-records them
(``python tests/test_golden.py`` prints the table) and says why.
"""

import hashlib

import pytest

from assortbench.harness import generate_synthetic, run_episode
from assortbench.policies import POLICY_NAMES

SIZES = (20, 200)
HORIZON = 300
SEED = 2024

GOLDEN = {
    ("trisection", 20): (
        "e7ff495d6ededcd98055f8f4ae2285b6a511c98eb98e51804a8da33fbadef06c",
        "ed95e3b3bd51dac5ba315d9090184939eda8a8fa41727e00ae5f21c60bc145e6",
        "d9f3b7362712676d365a51d68e57738ec8612f96b037e491f862edf67c87eb70",
    ),
    ("trisection", 200): (
        "6a42603dd7b68cfea2844b5a35ffbd2d923868139c7f39e01d8f4359b5ca596a",
        "a2657040a3040830ab6df9c20afda3069bd4111e1a1af4639c66d03aa433e245",
        "385aeeffae875db2395291643f4af7b2bee95d6931023e52c99e9437a6a81790",
    ),
    ("adaptive-trisection", 20): (
        "81d5133cd1544ddaf681c5f3a57db1229152ca46500436107f29640527e9e4f6",
        "8956b32564d2c061737170a44dc330e55885379510e51556340f12ba35a7fcfb",
        "bf515fc06b93ea660d5b932c7adaa32851d2a7a4b0c7b96866b8908149f46be6",
    ),
    ("adaptive-trisection", 200): (
        "852898c1ce11a25c8086da65dee35e2a4cf67952b2e5c4c1b67907b9a48f80c8",
        "594018c191bf14d7461448031191afe494d406e9dd5618495eafa7c9f7c3c61d",
        "8b1d89c89b171f23b65b45f44e657e9c243f9275e69df4eccc81c0b814ec42e1",
    ),
    ("ucb", 20): (
        "c2dcc8316c426f779359ce89a1c0af0cb044152f29dea04a3ec5a6fbf5b53e5a",
        "4cf4f1fcd2419927c2bbb8a815b73abd43ba14273be155e2943280a9900e6952",
        "75cd7fd5c42d39ffb4b671823424481c019c5075852d4e1fc652bb4d7c0135e1",
    ),
    ("ucb", 200): (
        "1e654e4e3e2d97a777c5c11cfc9284f07858c8fdf0c2ca49bab84d9bd5d73f0e",
        "e7943b665e9e0b9e77e16222940d91499e530744202dfe0e309e13b99b4ea866",
        "767dc68f840a49af1a2cbed6bebfcdc9f25ad914ccc139dc8e5711f4fdc7b11b",
    ),
    ("thompson", 20): (
        "52bf7b17d3dfeecd8b0b510b115536111c4722b6f55fc4ba8198fa5eaca2fdf8",
        "cc2443c6959e78d1239ac5e5992aba2af132b07a074741bc621d064b7507d70f",
        "63ebaf40d41efebb9a9756c379a8881785c2cd883b34d79957330a0fa5f82599",
    ),
    ("thompson", 200): (
        "b41553656cba73d5bc962c6ef5d530e80e73421ce1867762f083471c91c774d6",
        "da7d2af8275d722b587106d4619bcbaf93d5555a7194857b41c204c2fef92886",
        "4c5a8a71e6841381b4956a5197cd0d51fa6fb56f9f4e75780b58052b28e91727",
    ),
    ("grs", 20): (
        "de57f0d1838e63f803f68937da7f39a04c805a502e9801b0d5132561d0cffd0d",
        "5de54c3bf28262649134ca9e2566ec6318891739933789b855bc7e8344cbd6fc",
        "41d0e2ca54081b413cabaf90ac1e6629fc43a132ffc30319b5645dd09e1a495c",
    ),
    ("grs", 200): (
        "38c6463d355a981a2fadf87b440ec5ea76da66d38e14c091e9ac00d8df1070a8",
        "284a14be90d2fd97caf4ee8f19054fc8f4e1d2a2a3d9110fcf91e8c96f090d27",
        "352b39394b0032c61b5f618778645e37c1b4a5da502ae105c5f5f265e08540bf",
    ),
    ("static", 20): (
        "45b3821ac0fb6c9ad65cbe0e250d89ef5e3545a702441cb7bebe15adf72b9985",
        "ab7013f9708044ec03538d3b4a707752701bb4494df92ac1cc2da566c7b1b44b",
        "2429153d8ab05991a2fab38bc9b2440300c8105a9f38584b341d05eadd27a2bc",
    ),
    ("static", 200): (
        "df41126ba635078e12b7db012200256f202def5eb88364ef46ba64c63106167c",
        "418bd55322b65947a8a235032d1bd0ef88a087bbfd37b73040444f15538e337a",
        "14cb26f53607f262f3ae431b88bdb96a92b97c87d30b80ec88f86c4ae5191453",
    ),
}


def _params(policy: str, n: int) -> dict:
    # The static policy needs a fixed offer: the first half of the items.
    return {"assortment": tuple(range(1, n // 2 + 1))} if policy == "static" else {}


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def digests(policy: str, n: int) -> tuple:
    """(offers, regrets, realized rewards) digests of the pinned episode."""
    instance = generate_synthetic(n, seed=SEED)
    log = run_episode(instance, policy, HORIZON, SEED, policy_params=_params(policy, n))
    regrets = [step[3] for step in log.steps]
    return _sha(log.assortments), _sha(regrets), _sha(log.rewards.tolist())


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_episode_replays_bit_for_bit(policy, n):
    assert digests(policy, n) == GOLDEN[(policy, n)]


if __name__ == "__main__":
    for policy in POLICY_NAMES:
        for n in SIZES:
            offers, regrets, rewards = digests(policy, n)
            print(f'    ("{policy}", {n}): (\n        "{offers}",\n        "{regrets}",\n        "{rewards}",\n    ),')
