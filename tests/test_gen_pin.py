"""Golden hashes of generated instances.

Each case pins the sha256 of the instance's TG1 text, its witness tree and
its fallback count, so a change to how either generator draws a step shows
here before it reaches a schedule. A changed hash means the generated
instances changed.
"""

from __future__ import annotations

import hashlib

import pytest

from tempex.core import serialize_spanning_tree, serialize_temporal_graph
from tempex.gen import CONNECTIVITY_MODES, TREE_SHAPES, GenResult, GenSpec, gen_blocking_front, gen_random_deficient

FRONT_LIFETIME = 40
RANDOM_N, RANDOM_K, RANDOM_LIFETIME, RANDOM_SEED, RANDOM_DELTA = 10, 2, 60, 3, 24  # delta-only: 9 bridged steps in every 16


def _front_cases() -> list[tuple[int, int, int]]:
    """(n, k, seed) for every valid k <= 3 of each n."""
    return [(n, k, seed) for n in (1, 2, 3, 8, 12) for k in range(min(3, n - 1) + 1) for seed in (0, 5)]


def _random_spec(shape: str, connectivity: str, rate: float) -> GenSpec:
    delta = RANDOM_DELTA if connectivity == "delta-only" else None
    return GenSpec(n=RANDOM_N, lifetime=RANDOM_LIFETIME, k=RANDOM_K, seed=RANDOM_SEED, tree_shape=shape,
                   connectivity=connectivity, delta=delta, extra_edge_rate=rate)


def _fingerprint(result: GenResult) -> str:
    text = (
        serialize_temporal_graph(result.graph)
        + serialize_spanning_tree(result.tree)
        + f"fallbacks {result.fallbacks}\n"
    )
    return hashlib.sha256(text.encode()).hexdigest()


FRONT = {
    (1, 0, 0): 'c9e409cf5b9e78242fa81b1de363adbc7f2703b209f2ae652ce1650ae383f492',
    (1, 0, 5): 'c9e409cf5b9e78242fa81b1de363adbc7f2703b209f2ae652ce1650ae383f492',
    (2, 0, 0): '3e0795d168ea39afccc4170f20a07cc9106a568ed43023c7011b353a358179b1',
    (2, 0, 5): '3e0795d168ea39afccc4170f20a07cc9106a568ed43023c7011b353a358179b1',
    (2, 1, 0): 'caaa6fb0b485188ff994753caf8142ca8d4c81a1b6bdab3a6792307b7f328b1d',
    (2, 1, 5): 'caaa6fb0b485188ff994753caf8142ca8d4c81a1b6bdab3a6792307b7f328b1d',
    (3, 0, 0): 'f18bb666601fd87755d7152d2a4e7e3dbbe3ade0c62a7cb22215ee3764026aa8',
    (3, 0, 5): 'f18bb666601fd87755d7152d2a4e7e3dbbe3ade0c62a7cb22215ee3764026aa8',
    (3, 1, 0): 'da42f5147565c536975e0d9afb725cd4a3e5a7b353742881beab5d3fb142a228',
    (3, 1, 5): 'da42f5147565c536975e0d9afb725cd4a3e5a7b353742881beab5d3fb142a228',
    (3, 2, 0): '882fd24eaab8d80856819acf27a83eb0c5de2bf418dd0d5e19f582a5249b35d9',
    (3, 2, 5): '882fd24eaab8d80856819acf27a83eb0c5de2bf418dd0d5e19f582a5249b35d9',
    (8, 0, 0): 'ec2c39bb1bfd1ac024b386b6e8845b60dbae4311fa5d7c53cbd3b52778fef24e',
    (8, 0, 5): 'ec2c39bb1bfd1ac024b386b6e8845b60dbae4311fa5d7c53cbd3b52778fef24e',
    (8, 1, 0): 'b58813817665ff4e52d81089ba102fc0eef26699cca3e2280d0ad82aab9a8b15',
    (8, 1, 5): '34e8e4fe945b7d608745524926ee8f7900fc6828f0ef440a4b1a619b793c84bf',
    (8, 2, 0): 'f605641551d24dc4050e186dcb0ca187abc15386ea35f9bb09e0421b3ccb4794',
    (8, 2, 5): '7a31e39ed9aab278ac38c4c4ef33f2ef2308e2bda9e26e54845beb31a778a0d2',
    (8, 3, 0): 'bc2c7348a7c979ad1414dfece7dc99acf588b4c88af12eaf6554e9f004e42e09',
    (8, 3, 5): 'b127430f171936d7677f8904657660310ac978480a1a2a73dcd6671f86cd1704',
    (12, 0, 0): 'c75ca61121c099827d4db646591e574a4b5934ae724be213d099d4c7f171250c',
    (12, 0, 5): 'c75ca61121c099827d4db646591e574a4b5934ae724be213d099d4c7f171250c',
    (12, 1, 0): '99aa36b2f0ac400d0a31a07ef6662e14c195a26d6e655df87376573f00931f8d',
    (12, 1, 5): 'c0dfb078e0a64a2647b9e5b287e2b4507a240e8dffcb96efae27bf424df8f3f6',
    (12, 2, 0): 'a72fcf70098b40ab9b4c1b153966ec04e0983220dc9966d3ef39c8eaecffc83b',
    (12, 2, 5): '72eefff0a68134b7b7b5f100bb03ff0adf451659e0165a1f6a66a87563edcdbb',
    (12, 3, 0): '0d25e70a8d5386a2490c231d7567698f782cf5aea3c14bfa632b6d07f934c35c',
    (12, 3, 5): '863fda7ecffc55409b699e3ea6e88c60cf75f5786055f73564f9b3884bb3e820',
}

# The blocking front on specs other than GenSpec's defaults, pinned from the
# private loop `gen._generate(spec, gen._lead_removals)` before the public
# generator took a spec.
FRONT_SPECS = {
    ('random', 'per-snapshot', 0.3): 'c4da5cea19ecf5ed5c20c58e738b5c41e75c5ebdf0b14bef597a002069343c5f',
    ('star', 'delta-only', 0.0): 'cd1a50aabfee1791601c77e4f20ded7533e4e4e6bd7b37244394555ea40f1990',
    ('random', 'none', 0.0): '5daa81aaa47ae33d506cf054514ceacfa8026ac7169cefde59bd978d07f3815e',
    ('random', 'delta-only', 0.3): '6bea1fc041e4e68565c8f6bf0b021e8b6b14ebbfa06ba097a5803424d4517847',
}

RANDOM = {
    ('path', 'per-snapshot', 0.0): '1fc8316311386e75f87aa0ce52fc1bd7c07b8ab10b399f5712dc118ae3f6e3bf',
    ('path', 'per-snapshot', 0.3): '90758b101a115371f0544861a9a70922579790e68aecbb551da8c9198aab6e41',
    ('path', 'delta-only', 0.0): '8986115000f21e6962663fa969885aa87269b307a38d2c0054448e08b04b4a7c',
    ('path', 'delta-only', 0.3): '0fc789ce8015bfe3eb688b694f472b2c05f78a4953c2b4df88f02e1d42a23800',
    ('path', 'none', 0.0): 'ad5cc4a653cc763049cb8a56980dd3d1de4ea67d38e8b9424d05a73e08cf6c73',
    ('path', 'none', 0.3): '2e7eec4c6ed0f4868ea53273a0cc5de548862f55b3975b5112a28d02851c2c41',
    ('star', 'per-snapshot', 0.0): '256d3c87d232dae0e17179af8d9200536605a311fdddd9277677a4762f456331',
    ('star', 'per-snapshot', 0.3): 'f755923335ef7c75bbf69708bf7e1e8793574cd43bc3fd53b3220bb9c91ff2e3',
    ('star', 'delta-only', 0.0): 'ca210bd5abc6ddfe3549e94e955f655301aa10dc10591408350257ce3fa37478',
    ('star', 'delta-only', 0.3): '3cea934b5df2ac28ffa6b87d1e7826475d19a5c21ca1c569cd0e31236f87ef33',
    ('star', 'none', 0.0): '9d42e91bae754f2d029e4ade062596e839e39366e3da008fd9ed9c1c6cb00d55',
    ('star', 'none', 0.3): '9a66d330a4f97fafef8a02bfa09ee3f24d9634d8a594d3207ea7fdf7bf8d5754',
    ('random', 'per-snapshot', 0.0): 'a544759b796f03228fe0134c914ccf3b0326744bc5f3ec11366e65806ae6f451',
    ('random', 'per-snapshot', 0.3): '69211e2882c1470aefd1805298401053e01855eb3cf143ddf38a1d7c9dfec967',
    ('random', 'delta-only', 0.0): 'b64214e3f0edc817098088afd04d2a4ea535be390865d4dbadcfc2e7eadd2eba',
    ('random', 'delta-only', 0.3): '9eef5709cf3dac1d03d50150d39237edfecb6cf0c21b8c8115ccb45444dc4cb1',
    ('random', 'none', 0.0): '586dcd153185a7b75455d6f45478479865d1bf7edc4c7b7915aded92bab4e288',
    ('random', 'none', 0.3): '7faa00917be09519682a8487ead83538f9c5b85cb513ac4bbced71c2ddb15d70',
}


@pytest.mark.parametrize("n, k, seed", _front_cases())
def test_blocking_front_instance_is_pinned(n, k, seed):
    assert _fingerprint(gen_blocking_front(GenSpec(n, FRONT_LIFETIME, k, seed))) == FRONT[n, k, seed]


@pytest.mark.parametrize("shape, connectivity, rate", sorted(FRONT_SPECS))
def test_blocking_front_honours_the_spec(shape, connectivity, rate):
    spec = _random_spec(shape, connectivity, rate)
    assert _fingerprint(gen_blocking_front(spec)) == FRONT_SPECS[shape, connectivity, rate]


@pytest.mark.parametrize("rate", (0.0, 0.3))
@pytest.mark.parametrize("connectivity", CONNECTIVITY_MODES)
@pytest.mark.parametrize("shape", TREE_SHAPES)
def test_random_instance_is_pinned(shape, connectivity, rate):
    assert _fingerprint(gen_random_deficient(_random_spec(shape, connectivity, rate))) == RANDOM[shape, connectivity, rate]
